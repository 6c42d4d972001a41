import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim.config import MODEL_PRESETS
from slim.errors import AccountingError, ShapeError
from slim.model import ModelConfig
from slim.pim import DDR4_2400, BitSerialCostModel
from slim.storage import generate_read_transactions, map_weights, nand_preset
from slim.system import (
    ENERGY_COMPONENTS,
    BaselineConfig,
    active_experts,
    EnergyConstants,
    PhaseTimes,
    baseline_preset,
    energy_report,
    evaluate_slim,
    model_ffn_bytes_per_token,
    nested_masks,
    neuron_ranks,
    run_baseline,
    run_pipelined,
    run_sequential,
)
from slim.trace import EventColumns, TraceEvent

TOY = ModelConfig(n_dec=2, dim_e=256, dim_h=512, n_heads=4, seq_len=64, seed=5)
DG, DT = DDR4_2400
CM = BitSerialCostModel()
SSD = nand_preset("slc", "die")  # the device the GPU baselines sit next to


def masks_at(model, sparsity, seed):
    return nested_masks(neuron_ranks(model, seed), sparsity)


def read(model, geo, masks):
    """One token's read transactions on geo."""
    return generate_read_transactions(map_weights(model, geo), masks)


def permutation_masks(model, sparsity, seed):
    """The mask formula rank masks replace, as an oracle: one permutation per
    routed slot, its first n_active neurons set."""
    n_active = max(1, model.dim_h - int(round(sparsity * model.dim_h)))
    masks = {}
    for layer in range(model.n_dec):
        for expert in active_experts(model, layer):
            perm = np.random.default_rng([seed, 0x3A5C, layer, expert]).permutation(model.dim_h)
            m = np.zeros(model.dim_h, dtype=bool)
            m[perm[:n_active]] = True
            masks[(layer, expert)] = m
    return masks


class TestSchedulers:
    def test_sequential_arithmetic(self):
        lat, tput = run_sequential(PhaseTimes(2e-3, 3e-3), 10)
        assert lat == pytest.approx(50e-3)
        assert tput == pytest.approx(200.0)

    def test_sequential_zero_ssd(self):
        lat, _ = run_sequential(PhaseTimes(4e-3, 0.0), 7)
        assert lat == pytest.approx(28e-3)

    def test_pipelined_two_three(self):
        phases = PhaseTimes(2e-3, 3e-3)
        _, tput = run_pipelined(phases, 1000)
        _, seq = run_sequential(phases, 1000)
        assert tput / seq == pytest.approx(5 / 3, rel=0.01)

    def test_balanced_pipeline_approaches_two(self):
        phases = PhaseTimes(2e-3, 2e-3)
        _, tput = run_pipelined(phases, 1000)
        _, seq = run_sequential(phases, 1000)
        assert tput / seq == pytest.approx(2.0, rel=0.01)

    def test_single_stage_no_speedup(self):
        phases = PhaseTimes(2e-3, 0.0)
        lat, _ = run_pipelined(phases, 100)
        assert lat == pytest.approx(100 * 2e-3)
        assert lat == pytest.approx(run_sequential(phases, 100)[0])  # no speedup

    @given(st.floats(1e-5, 1e-1), st.floats(1e-5, 1e-1))
    @settings(max_examples=50, deadline=None)
    def test_speedup_formula_within_5_percent(self, td, ts):
        phases = PhaseTimes(td, ts)
        lat_p, _ = run_pipelined(phases, 100)
        lat_s, _ = run_sequential(phases, 100)
        measured = lat_s / lat_p
        ideal = (td + ts) / max(td, ts)
        assert measured <= ideal + 1e-9
        assert abs(measured - ideal) / ideal < 0.05


def event_loop_finish(phases, n_tokens):
    """The two-stream event loop run_pipelined closes: each stream's next
    token enters the DRAM unit once the unit is free and the stream's
    previous token has left the SSD unit."""
    dram_free = 0.0
    ssd_free = 0.0
    stream_prev_done = [0.0, 0.0]
    finish = 0.0
    for tok in range(n_tokens):
        s = tok % 2
        start = max(dram_free, stream_prev_done[s])
        dram_done = start + phases.t_dram
        dram_free = dram_done
        ssd_start = max(ssd_free, dram_done)
        ssd_done = ssd_start + phases.t_ssd
        ssd_free = ssd_done
        stream_prev_done[s] = ssd_done
        finish = max(finish, ssd_done)
    return finish


finite_times = st.floats(0, 1.7e308, allow_nan=False, allow_infinity=False)


@st.composite
def phase_pairs(draw):
    """Phase times that tie, sit one ulp apart, or are drawn apart: zeros,
    subnormals and values whose sums overflow."""
    t_dram = draw(finite_times)
    t_ssd = draw(st.sampled_from([t_dram, math.nextafter(t_dram, math.inf),
                                  math.nextafter(t_dram, 0.0)]) | finite_times)
    return PhaseTimes(*draw(st.permutations([t_dram, t_ssd])))


@given(phase_pairs(), st.integers(1, 400))
@example(PhaseTimes(0.1, 0.1 + 2 ** -56), 7)
@example(PhaseTimes(5e-324, 0.0), 3)
@example(PhaseTimes(1e308, 1e308), 2)
@example(PhaseTimes(3e-3, 0.7e-3), 400)
@settings(max_examples=500, deadline=None)
def test_pipelined_closed_form_is_the_event_loop(phases, n_tokens):
    """Bit for bit, including where the sums round or overflow."""
    finish, throughput = run_pipelined(phases, n_tokens)
    assert finish.hex() == event_loop_finish(phases, n_tokens).hex()
    assert throughput == (n_tokens / finish if finish > 0 else math.inf)


def columns(*events) -> EventColumns:
    """A trace of (unit, event, quantity) triples, every one at time 0."""
    cols = EventColumns()
    for unit, event, qty in events:
        cols.append(0.0, unit, event, qty)
    return cols


class TestEnergy:
    def test_empty_trace_zeros(self):
        ledger = energy_report(EventColumns(), EnergyConstants())
        assert all(v == 0.0 for v in ledger.components.values())
        assert ledger.total == 0.0

    def test_linearity(self):
        ev = [("d", "nand_read", 1000), ("c", "ch_bus", 500), ("p", "pe_mac", 2000),
              ("m", "pim_aap", 10)]
        a = energy_report(columns(*ev), EnergyConstants())
        b = energy_report(columns(*((u, e, 2 * q) for u, e, q in ev)), EnergyConstants())
        for k in a.components:
            assert b.components[k] == pytest.approx(2 * a.components[k])

    def test_conservation_exact(self):
        ev = columns(("d", "nand_read", 12345), ("g", "gpu_flop", 777), ("h", "host_read", 31),
                     ("x", "pcie", 9))
        ledger = energy_report(ev, EnergyConstants())
        assert ledger.total == sum(ledger.components.values())

    def test_unknown_event_rejected(self):
        with pytest.raises(AccountingError):
            energy_report(columns(("u", "teleport", 1)), EnergyConstants())


class TestBaselines:
    GB = ModelConfig(n_dec=1, dim_e=4096, dim_h=87382, n_heads=32, seq_len=16,
                     seed=0)  # ~1.0737 GB of FFN weights

    def test_ssd_gpu_transfer_time(self):
        cfg = BaselineConfig("ssd_gpu", link_gbps=8.0, source_gbps=19.2, gpu_tflops=1e9)
        n_bytes = model_ffn_bytes_per_token(self.GB)
        res = run_baseline(cfg, self.GB, 0.0)
        assert res.transfer_s == pytest.approx(n_bytes / 8e9)

    def test_dram_gpu_link_bound(self):
        cfg = baseline_preset("dram_gpu", *SSD)
        res = run_baseline(cfg, self.GB, 0.0)
        assert res.transfer_s == pytest.approx(model_ffn_bytes_per_token(self.GB) / 32e9)

    def test_ssd_gpu_source_is_the_ssd_channels(self):
        assert baseline_preset("ssd_gpu", *SSD).source_gbps == 19.2  # 16 x 1200 MB/s
        geo, timing = SSD
        narrow = baseline_preset("ssd_gpu", dataclasses.replace(geo, n_ch=8), timing)
        assert narrow.source_gbps == 9.6

    def test_sparsity_halves_transfer(self):
        cfg = baseline_preset("ssd_gpu", *SSD)
        dense = run_baseline(cfg, self.GB, 0.0)
        half = run_baseline(cfg, self.GB, 0.5)
        assert half.transfer_s == pytest.approx(dense.transfer_s / 2)

    def test_transfer_strictly_decreasing_in_sparsity(self):
        cfg = baseline_preset("ssd_gpu", *SSD)
        times = [run_baseline(cfg, self.GB, s).transfer_s for s in (0.0, 0.2, 0.4, 0.6)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_baseline_pays_pcie_energy(self):
        res = run_baseline(baseline_preset("ssd_gpu", *SSD), self.GB, 0.0)
        assert res.energy.components["pcie"] > 0.0
        res2 = run_baseline(baseline_preset("dram_gpu", *SSD), self.GB, 0.0)
        assert res2.energy.components["host"] > 0.0

    def test_invalid_kind(self):
        with pytest.raises(ShapeError):
            BaselineConfig("tpu", 8.0, 8.0)


class TestMasks:
    def test_target_fraction(self):
        masks = masks_at(TOY, 0.25, seed=1)
        for m in masks.values():
            assert abs(1.0 - np.mean(m) - 0.25) < 1e-9

    def test_nested_across_sparsity(self):
        lo = masks_at(TOY, 0.25, seed=1)
        hi = masks_at(TOY, 0.75, seed=1)
        for key in lo:
            assert np.all(~hi[key] | lo[key])  # active(hi) subset of active(lo)

    def test_deterministic(self):
        a = masks_at(TOY, 0.5, seed=2)
        b = masks_at(TOY, 0.5, seed=2)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_distinct_per_layer(self):
        masks = masks_at(TOY, 0.5, seed=3)
        assert not np.array_equal(masks[(0, 0)], masks[(1, 0)])

    def test_routed_experts_only_and_seeded_per_slot(self):
        moe = ModelConfig(n_dec=3, dim_e=64, dim_h=48, n_heads=4, n_expert=8,
                          top_k=2, seq_len=16, seed=0)
        masks = masks_at(moe, 0.5, seed=4)
        assert set(masks) == {(layer, e) for layer in range(moe.n_dec)
                              for e in active_experts(moe, layer)}
        for (layer, e), m in masks.items():
            perm = np.random.default_rng([4, 0x3A5C, layer, e]).permutation(moe.dim_h)
            assert np.array_equal(np.flatnonzero(m), np.sort(perm[:24]))

    def test_ranks_in_smallest_dtype_holding_dim_h(self):
        assert {r.dtype for r in neuron_ranks(TOY, 1).values()} == {np.dtype(np.uint16)}
        small = dataclasses.replace(TOY, dim_h=255)
        assert {r.dtype for r in neuron_ranks(small, 1).values()} == {np.dtype(np.uint8)}


@given(st.sampled_from([
    ModelConfig(n_dec=2, dim_e=64, dim_h=300, n_heads=4, seq_len=16, seed=0),
    ModelConfig(n_dec=3, dim_e=64, dim_h=48, n_heads=4, n_expert=8, top_k=2,
                seq_len=16, seed=0),
    ModelConfig(n_dec=1, dim_e=64, dim_h=256, n_heads=4, n_expert=4, top_k=4,
                seq_len=16, seed=0),
    ModelConfig(n_dec=2, dim_e=64, dim_h=1, n_heads=4, seq_len=16, seed=0),
]), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.999]) | st.floats(0, 0.999),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_masks_are_the_permutation_masks(model, seed, sparsities):
    """Masks cut from one draw of ranks equal, at every sparsity, the masks
    of a fresh permutation per slot and sparsity."""
    ranks = neuron_ranks(model, seed)
    for sparsity in sparsities:
        got, want = nested_masks(ranks, sparsity), permutation_masks(model, sparsity, seed)
        assert list(got) == list(want)
        assert all(got[k].dtype == bool and np.array_equal(got[k], want[k]) for k in want)


class TestEvaluateSlim:
    def _eval(self, sparsity=0.5, **kw):
        geo, timing = nand_preset("slc", "die")
        args = dict(model=TOY, timing=timing, dram_geo=DG, dram_timing=DT,
                    cost_model=CM, reads=read(TOY, geo, masks_at(TOY, sparsity, 7)))
        args.update(kw)
        return evaluate_slim(**args)

    def test_deterministic_trace(self):
        a = self._eval()
        b = self._eval()
        assert list(a.events) == list(b.events)
        assert a.throughput == b.throughput

    def test_pipelined_at_least_sequential(self):
        seq = self._eval(scheduler="sequential")
        pip = self._eval(scheduler="pipelined")
        assert pip.throughput >= seq.throughput

    def test_throughput_nondecreasing_in_sparsity(self):
        prev = 0.0
        for s in (0.0, 0.25, 0.5, 0.75):
            tput = self._eval(sparsity=s).throughput
            assert tput >= prev - 1e-12
            prev = tput

    def test_energy_nonincreasing_in_sparsity(self):
        prev = None
        for s in (0.0, 0.25, 0.5, 0.75):
            e = self._eval(sparsity=s).energy.total
            if prev is not None:
                assert e <= prev + 1e-15
            prev = e

    def test_no_pcie_weight_traffic(self):
        res = self._eval()
        assert res.energy.components["pcie"] == 0.0
        assert not any(ev.event == "pcie" for ev in res.events)
        assert res.energy.components["nand_read"] > 0.0

    def test_ledger_conservation(self):
        res = self._eval()
        assert res.energy.total == sum(res.energy.components.values())

    @pytest.mark.parametrize("field, value", [("dim_h", 256), ("n_dec", 3), ("dim_e", 128)])
    def test_reads_of_another_layout_refused(self, field, value):
        other = dataclasses.replace(TOY, **{field: value})
        geo, _ = nand_preset("slc", "die")
        with pytest.raises(ShapeError):
            self._eval(reads=read(other, geo, masks_at(other, 0.5, 7)))


@given(st.sampled_from(["toy", "toy_moe"]), st.integers(1, 16),
       st.sampled_from(["sequential", "pipelined"]), st.sampled_from(["die", "channel"]),
       st.sampled_from(["slc", "tlc"]), st.sampled_from([0.0, 0.25, 0.5, 0.75]))
@settings(max_examples=40, deadline=None)
def test_energy_ledger_is_the_trace_fold(name, batch, scheduler, level, nand, sparsity):
    """Every component is the left-to-right sum of its events' joules in trace
    order, and the total is the sum of the components."""
    model = ModelConfig(**MODEL_PRESETS[name], batch=batch, seed=3)
    geo, timing = nand_preset(nand, level)
    constants = EnergyConstants()
    res = evaluate_slim(model, timing, DG, DT, CM, read(model, geo, masks_at(model, sparsity, 5)),
                        scheduler=scheduler, constants=constants)
    want = dict.fromkeys(ENERGY_COMPONENTS, 0.0)
    for ev in res.events:
        component, joules = constants.joules(ev.event, ev.bytes)
        want[component] += joules
    assert list(res.energy.components) == list(ENERGY_COMPONENTS)
    assert res.energy.components == want
    total = 0.0
    for c in ENERGY_COMPONENTS:
        total += res.energy.components[c]
    assert res.energy.total == total


@pytest.mark.parametrize("name", ["toy", "toy_moe"])
@pytest.mark.parametrize("batch", [1, 8])
def test_columnar_energy_fold_is_the_row_loop(name, batch):
    """energy_report folds event columns per component with np.add.accumulate;
    that must equal, bit for bit, a loop of EnergyConstants.joules over the
    trace's rows in trace order, for SLIM traces of both PE levels and both
    schedulers and for the baselines' traces."""
    model = ModelConfig(**MODEL_PRESETS[name], batch=batch, seed=3)
    constants = EnergyConstants(nand_read_pj_per_bit=4.1, ch_bus_pj_per_bit=2.3,
                                pe_pj_per_mac=0.7, dram_pim_nj_per_aap=29.0)
    masks = masks_at(model, 0.5, 5)
    results = [run_baseline(baseline_preset(kind, *SSD), model, 0.5, constants)
               for kind in ("ssd_gpu", "dram_gpu")]
    for level in ("die", "channel"):
        geo, timing = nand_preset("tlc", level)
        for scheduler in ("sequential", "pipelined"):
            res = evaluate_slim(model, timing, DG, DT, CM, read(model, geo, masks),
                                scheduler=scheduler, constants=constants)
            results.append(res)
    for res in results:
        want = dict.fromkeys(ENERGY_COMPONENTS, 0.0)
        for ev in res.events:
            component, joules = constants.joules(ev.event, ev.bytes)
            want[component] += joules
        assert {c: v.hex() for c, v in res.energy.components.items()} == \
            {c: v.hex() for c, v in want.items()}


def test_event_columns_give_back_rows():
    """Rows put into columns come back equal, with int and float quantities
    keeping their type, so the trace's JSON spells them as before."""
    rows = [TraceEvent(5, "die12", "nand_read", 16384), TraceEvent(7, "onchip", "onchip_bus", 128),
            TraceEvent(9, "dram_pim", "pim_aap", 20608.0), TraceEvent(9, "x", "teleport", 0.5)]
    cols = EventColumns()
    for ev in rows:
        cols.append(ev.time_ns / 1e9, ev.unit, ev.event, ev.bytes)
    assert len(cols) == 4
    back = list(cols)
    assert back == rows and [type(ev.bytes) for ev in back] == [int, int, float, float]
    assert cols.kinds == ["die12", "onchip", "dram_pim", "x"]
