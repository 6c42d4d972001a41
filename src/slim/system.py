"""End-to-end per-token orchestration: sequential vs pipelined scheduling of
the DRAM and SSD phases, PCIe-bound GPU-centric baselines, the energy ledger,
and scenario evaluation into report rows."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AccountingError, NumericError, ShapeError
from .model import ModelConfig
from .pim import ZERO_COST, LayerDramCost, PimCost
from .storage import (
    FfnPassResult,
    NandTiming,
    NspParams,
    SsdGeometry,
    TokenReads,
    simulate_ffn_pass,
    write_model,
)
from .trace import EventColumns

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PhaseTimes:
    """Per-token phase durations: DRAM side (QKVO + attention + prediction)
    and SSD side (FFN/MoE)."""

    t_dram: float
    t_ssd: float

    def __post_init__(self):
        if self.t_dram < 0 or self.t_ssd < 0:
            raise ShapeError("phase times must be nonnegative")


def run_sequential(phases: PhaseTimes, n_tokens: int) -> tuple[float, float]:
    """Strictly alternating phases: latency n*(t_dram+t_ssd)."""
    if n_tokens < 1:
        raise ShapeError("n_tokens must be >= 1")
    period = phases.t_dram + phases.t_ssd
    latency = n_tokens * period
    return latency, (1.0 / period if period > 0 else math.inf)


def run_pipelined(phases: PhaseTimes, n_tokens: int) -> tuple[float, float]:
    """Interleave two independent token streams so the DRAM and SSD units
    overlap.

    Each stream's next token may enter the DRAM unit once the unit is free
    and the stream's previous token has left the SSD unit. The slower unit
    then runs back to back, so the last token leaves the SSD unit at t_dram,
    plus n - 1 periods of max(t_dram, t_ssd), plus t_ssd. Summed left to
    right in that order (``_add_repeatedly``), these are the float additions
    of the event loop over tokens, and the finish time is bit-identical to
    it. Steady-state token period approaches max(t_dram, t_ssd).
    """
    if n_tokens < 1:
        raise ShapeError("n_tokens must be >= 1")
    period = max(phases.t_dram, phases.t_ssd)
    finish = _add_repeatedly(phases.t_dram, period, n_tokens - 1) + phases.t_ssd
    return finish, (n_tokens / finish if finish > 0 else math.inf)


def _add_repeatedly(x: float, p: float, n: int) -> float:
    """``x`` with ``p`` added ``n`` times, each sum rounded, as a loop of
    ``x += p`` gives it, bit for bit; ``p`` >= 0. Where the ulp is
    constant (one binade, or the subnormals with the lowest binade), once
    one sum has rounded inside, every later sum there adds one fixed number
    of ulps, ties to even included: they are taken at once, so the cost
    grows with the binades crossed, not with ``n``."""
    while n and x < math.inf:  # inf and NaN stay
        y = x + p
        n -= 1
        u = math.ulp(y)
        if n and math.ulp(x) == u == math.ulp(y + p):
            # in ulps every value below is an integer under 2^53, the end of
            # the range, so each operation is exact
            step = (y + p - y) / u
            k = min(n, int((2.0 ** 53 - 1 - y / u) // step)) if step else n
            y += k * step * u
            n -= k
        x = y
    return x


# --- energy accounting -------------------------------------------------------

ENERGY_COMPONENTS = ("nand_read", "ch_bus", "pe_compute", "dram_pim",
                     "dram_rw", "pcie", "host")

# trace event type -> (ledger component, EnergyConstants rate, bits per unit
# of the event's quantity, joules per unit of the rate)
_EVENT_RULES = {
    "nand_read": ("nand_read", "nand_read_pj_per_bit", 8, 1e-12),
    "ch_bus": ("ch_bus", "ch_bus_pj_per_bit", 8, 1e-12),
    "onchip_bus": ("ch_bus", "ch_bus_pj_per_bit", 8, 1e-12),
    "pe_mac": ("pe_compute", "pe_pj_per_mac", 1, 1e-12),
    "gpu_flop": ("pe_compute", "gpu_pj_per_flop", 1, 1e-12),
    "pim_aap": ("dram_pim", "dram_pim_nj_per_aap", 1, 1e-9),
    "dram_rw": ("dram_rw", "dram_rw_pj_per_bit", 8, 1e-12),
    "pcie": ("pcie", "pcie_pj_per_bit", 8, 1e-12),
    "host_read": ("host", "host_pj_per_bit", 8, 1e-12),
}


@dataclass(frozen=True)
class EnergyConstants:
    """Per-unit energy constants (config inputs, not measured ground truth;
    defaults are rough literature-scale numbers for NAND reads, ONFI/PCIe
    signaling, small fixed-point MACs, and DRAM row activations)."""

    nand_read_pj_per_bit: float = 4.0
    ch_bus_pj_per_bit: float = 2.0
    pe_pj_per_mac: float = 0.5
    dram_pim_nj_per_aap: float = 30.0
    dram_rw_pj_per_bit: float = 2.0
    pcie_pj_per_bit: float = 6.0
    host_pj_per_bit: float = 15.0
    gpu_pj_per_flop: float = 0.5

    def joules(self, event: str, qty: float) -> tuple[str, float]:
        if event not in _EVENT_RULES:
            raise AccountingError(f"no energy rule for event {event!r}")
        component, rate, bits, scale = _EVENT_RULES[event]
        return component, qty * bits * getattr(self, rate) * scale


@dataclass
class EnergyLedger:
    components: dict[str, float] = field(
        default_factory=lambda: {c: 0.0 for c in ENERGY_COMPONENTS})

    @property
    def total(self) -> float:
        return sum(self.components.values())


def energy_report(events: EventColumns, constants: EnergyConstants) -> EnergyLedger:
    """Fold a trace into per-component joules. Each component is the
    left-to-right sum of its events' joules in trace order; total equals the
    component sum by construction."""
    _, _, _, event, qty, _ = events.columns()
    joules = np.empty(len(qty))
    component = np.empty(len(qty), dtype=np.int64)
    for code, name in enumerate(events.names):
        at = event == code
        if at.any():
            comp, joules[at] = constants.joules(name, qty[at])
            component[at] = ENERGY_COMPONENTS.index(comp)
    ledger = EnergyLedger()
    for k, comp in enumerate(ENERGY_COMPONENTS):
        fold = np.add.accumulate(np.concatenate(([0.0], joules[component == k])))
        ledger.components[comp] = float(fold[-1])
    return ledger


# --- GPU-centric baselines ---------------------------------------------------

@dataclass(frozen=True)
class BaselineConfig:
    kind: str  # "ssd_gpu" | "dram_gpu"
    link_gbps: float  # PCIe budget toward the GPU
    source_gbps: float  # SSD internal aggregate or host DRAM bandwidth
    gpu_tflops: float = 80.0  # effective roofline constant

    def __post_init__(self):
        if self.kind not in ("ssd_gpu", "dram_gpu"):
            raise ShapeError(f"unknown baseline kind {self.kind!r}")
        if min(self.link_gbps, self.source_gbps, self.gpu_tflops) <= 0:
            raise ShapeError("baseline rates must be positive")


def baseline_preset(kind: str, ssd_geo: SsdGeometry, timing: NandTiming) -> BaselineConfig:
    """A GPU-centric design next to the SSD ``ssd_geo``/``timing``, whose
    channels together set the ssd_gpu source bandwidth."""
    if kind == "ssd_gpu":
        # FFN weights stream from the SSD over a PCIe 4.0 x4 link
        internal = ssd_geo.n_ch * timing.ch_bus_mbps * 1e6 / 1e9
        return BaselineConfig(kind=kind, link_gbps=8.0, source_gbps=internal)
    if kind == "dram_gpu":
        # FFN weights stream from 2-channel host DDR4-2400 over PCIe 4.0 x16
        return BaselineConfig(kind=kind, link_gbps=32.0, source_gbps=38.4)
    raise ShapeError(f"unknown baseline kind {kind!r}")


def model_ffn_bytes_per_token(cfg: ModelConfig, bytes_per_elem: int = 1) -> int:
    """Weights touched per token by the active experts, dense."""
    return cfg.n_dec * cfg.top_k * 3 * cfg.dim_e * cfg.dim_h * bytes_per_elem


def model_flops_per_token(cfg: ModelConfig, sparsity: float) -> float:
    macs_layer = (4 * cfg.dim_e ** 2
                  + 2 * cfg.seq_len * cfg.dim_e
                  + cfg.top_k * 3 * cfg.dim_e * cfg.dim_h * (1.0 - sparsity)
                  + (cfg.n_expert * cfg.dim_e if cfg.n_expert > 1 else 0))
    return 2.0 * macs_layer * cfg.n_dec * cfg.batch


@dataclass(frozen=True)
class BaselineResult:
    latency_s: float
    throughput: float
    transfer_s: float
    compute_s: float
    bytes_moved: float
    energy: EnergyLedger
    events: EventColumns


def run_baseline(cfg: BaselineConfig, model: ModelConfig, sparsity: float,
                 constants: EnergyConstants = EnergyConstants(),
                 bytes_per_elem: int = 1) -> BaselineResult:
    """Per-token cost of a GPU-centric design: fetch the (possibly sparsity-
    thinned) FFN weights over PCIe, then compute at the roofline constant.
    Transfer dominates for the modeled shapes."""
    if not (0.0 <= sparsity < 1.0):
        raise ShapeError(f"sparsity {sparsity} outside [0, 1)")
    n_bytes = model_ffn_bytes_per_token(model, bytes_per_elem) * (1.0 - sparsity)
    transfer = n_bytes / (min(cfg.link_gbps, cfg.source_gbps) * 1e9)
    flops = model_flops_per_token(model, sparsity)
    compute = flops / (cfg.gpu_tflops * 1e12)
    latency = transfer + compute
    events = EventColumns()
    events.append(latency, "pcie", "pcie", n_bytes)
    events.append(latency, "gpu", "gpu_flop", flops)
    if cfg.kind == "ssd_gpu":
        events.append(latency, "ssd", "nand_read", n_bytes)
        events.append(latency, "ssd", "ch_bus", n_bytes)
    else:
        events.append(latency, "host_dram", "host_read", n_bytes)
    return BaselineResult(latency_s=latency, throughput=1.0 / latency,
                          transfer_s=transfer, compute_s=compute,
                          bytes_moved=n_bytes,
                          energy=energy_report(events, constants), events=events)


# --- scenario evaluation -----------------------------------------------------

def neuron_ranks(cfg: ModelConfig, seed: int) -> dict[tuple[int, int], np.ndarray]:
    """Each routed (layer, expert)'s fixed random neuron order, as ranks: a
    neuron's position in the slot's permutation, seeded by the slot alone
    (``[seed, 0x3A5C, layer, expert]``), so it does not depend on which
    others are drawn or on any sparsity. Only the experts ``active_experts``
    routes to get ranks, held in the smallest unsigned dtype that holds
    ``dim_h``; a scenario draws them once for every sparsity."""
    ranks = {}
    for layer in range(cfg.n_dec):
        for expert in active_experts(cfg, layer):
            rng = np.random.default_rng([seed, 0x3A5C, layer, expert])
            rank = np.empty(cfg.dim_h, dtype=np.min_scalar_type(cfg.dim_h))
            rank[rng.permutation(cfg.dim_h)] = np.arange(cfg.dim_h)
            ranks[(layer, expert)] = rank
    return ranks


def nested_masks(ranks: dict[tuple[int, int], np.ndarray],
                 sparsity: float) -> dict[tuple[int, int], np.ndarray]:
    """Synthetic masks per routed (layer, expert) from ``neuron_ranks``: the
    first ``n_active`` neurons of each slot's order, ``rank < n_active``.
    Nesting across sparsity levels makes page counts monotone for any
    packing."""
    if not (0.0 <= sparsity < 1.0):
        raise ShapeError(f"sparsity {sparsity} outside [0, 1)")
    dim_h = len(next(iter(ranks.values())))
    n_active = max(1, dim_h - int(round(sparsity * dim_h)))
    return {slot: rank < n_active for slot, rank in ranks.items()}


def active_experts(cfg: ModelConfig, layer: int) -> list[int]:
    """Deterministic stand-in for routing at simulator scale; all experts are
    shape-identical so only the count matters for timing."""
    return [(layer + i) % cfg.n_expert for i in range(cfg.top_k)]


@dataclass(frozen=True)
class SlimResult:
    phases: PhaseTimes
    latency_s_per_token: float
    throughput: float
    raw_bytes: int
    useful_bytes: float
    dram: dict[str, PimCost]  # the token's DRAM phases, keyed as LayerDramCost.phases
    energy: EnergyLedger
    events: EventColumns
    weights_write_s: float  # one-time programming, never part of token latency


def token_phases(model: ModelConfig, dram: LayerDramCost, ffn: FfnPassResult,
                 scheduler: str, n_tokens: int,
                 events: EventColumns) -> tuple[dict[str, PimCost], PhaseTimes, float]:
    """Compose one token of ``model`` from ``dram``, each decoder layer's
    DRAM row, and ``ffn``, its FFN passes: the token's DRAM phases (each of
    the row's phases times n_dec), its ``PhaseTimes`` and its throughput
    over ``n_tokens`` under ``scheduler``. The DRAM side's AAPs and bytes
    (layout and read/write) are appended to ``events`` as one ``pim_aap``
    and one ``dram_rw`` event at the token's end."""
    if scheduler not in ("sequential", "pipelined"):
        raise ShapeError(f"unknown scheduler {scheduler!r}")
    totals = {name: cost * model.n_dec for name, cost in dram.phases().items()}
    total = sum(totals.values(), ZERO_COST)
    # rates that overflow to inf can leave nothing to time; NaN fails too
    if not 0 < ffn.latency_s:
        raise NumericError(f"token time t_ssd {ffn.latency_s} s: the SSD phase is not positive")
    t_end = ffn.latency_s + total.seconds
    events.append(t_end, "dram_pim", "pim_aap", total.aaps)
    events.append(t_end, "dram_pim", "dram_rw", total.layout_bytes + total.rw_bytes)
    phases = PhaseTimes(t_dram=total.seconds, t_ssd=ffn.latency_s)
    run = run_sequential if scheduler == "sequential" else run_pipelined
    return totals, phases, run(phases, n_tokens)[1]


def evaluate_slim(model: ModelConfig, timing: NandTiming, dram: LayerDramCost,
                  reads: TokenReads, scheduler: str = "sequential", n_tokens: int = 100,
                  params: NspParams = NspParams(),
                  constants: EnergyConstants = EnergyConstants()) -> SlimResult:
    """Full per-token model of the heterogeneous design for one token's read
    transactions, as ``generate_read_transactions`` returns them, and
    ``dram``, each decoder layer's DRAM row as ``pim.token_dram_cost``
    returns it. The device geometry and element width are those of the
    layout the reads were made on, which must be ``model``'s (ShapeError
    otherwise); ``timing`` is the device's. Callers that evaluate several
    design points on one geometry read the token once and pass the record
    to each, and cost the DRAM row once for all of them. Energy is
    accounted over the returned event trace. At ``SLIM_LOG=debug`` one line
    gives the wall-clock seconds of each stage: FFN passes, token phases
    (``token_phases``) and energy fold; ``simulate_ffn_pass`` splits its
    share into schedule and events."""
    layout = reads.layout
    laid_out = (layout.n_dec, layout.n_expert, layout.dim_h, layout.dim_e)
    if laid_out != (model.n_dec, model.n_expert, model.dim_h, model.dim_e):
        raise ShapeError(f"reads laid out for (n_dec, n_expert, dim_h, dim_e) "
                         f"{laid_out}, not the model's")
    t0 = time.perf_counter()
    events = EventColumns()
    ffn = simulate_ffn_pass(reads, timing, layout.geo, model.batch, dim_e=model.dim_e,
                            params=params, trace=events)
    t1 = time.perf_counter()
    totals, phases, throughput = token_phases(model, dram, ffn, scheduler, n_tokens, events)
    t2 = time.perf_counter()
    energy = energy_report(events, constants)
    t3 = time.perf_counter()
    log.debug("evaluate_slim: ffn passes %.6f s, token phases %.6f s, energy fold %.6f s",
              t1 - t0, t2 - t1, t3 - t2)
    return SlimResult(phases=phases, latency_s_per_token=1.0 / throughput,
                      throughput=throughput, raw_bytes=ffn.raw_bytes,
                      useful_bytes=ffn.useful_bytes, dram=totals, energy=energy, events=events,
                      weights_write_s=write_model(layout, layout.geo, timing))
