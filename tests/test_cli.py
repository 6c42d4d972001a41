import dataclasses
import importlib.util
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slim.model
import slim.runner
from oracles import measured_sparsity
from slim.cli import main
from slim.config import config_hash, load_scenario
from slim.container import read_tensors, write_tensors
from slim.model import Decoder, synth_layers
from slim.predictor import (
    build_threshold_table,
    default_dim_lr,
    init_from_svd,
    predict_mask,
    thresholds_to_json,
    train,
)
from slim.runner import (
    REPORT_FIELDS,
    _model_layers,
    infer_report,
    load_predictors,
    scenario_rows,
    train_predictors,
    write_report,
)
from slim.storage import SLC_GEOMETRY, TLC_GEOMETRY, SsdGeometry
from slim.trace import EventColumns, read_ldjson

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

TOY_DOC = {
    "model": "toy",
    "seed": 5,
    "sparsity_targets": [0.0, 0.5],
    "train": {"dim_lr": 16, "epochs": 40, "calib_tokens": 48, "eval_tokens": 12,
              "targets": [0.0, 0.2, 0.4, 0.6]},
}


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TOY_DOC))
    return path


def run(cmd, cfg_path, out):
    return main([cmd, "--config", str(cfg_path), "--out", str(out)])


def run_process(cmd, cfg_path, out, *args):
    """`python -m slim.cli` in a child process, so stderr shows any traceback."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "slim.cli", cmd,
                           "--config", str(cfg_path), "--out", str(out), *args],
                          capture_output=True, text=True, env=env)


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return path


# an inline model that fits TOY_DOC's train counts
SMALL_MODEL = {"n_dec": 1, "dim_e": 16, "dim_h": 32, "n_heads": 2, "seq_len": 64}


def save_model_fixture(halves, path, routers=True) -> None:
    """Write a decoder's layers, given as each layer's attention half and
    then its FFN half, as the SLIMWT1 fixture `paths.model_fixture` loads;
    w_d is stored dim_e x dim_h, the transpose of the decoder's neuron rows.
    ``routers=False`` leaves out every layer's router."""
    tensors = {}
    halves = iter(halves)
    for li, (attn, ffn) in enumerate(zip(halves, halves)):
        pre = f"layer{li:02d}."
        tensors[pre + "w_q"] = attn.w_q
        tensors[pre + "w_k"] = attn.w_k
        tensors[pre + "w_v"] = attn.w_v
        tensors[pre + "w_o"] = attn.w_o
        for e in range(len(ffn.w_g)):
            tensors[f"{pre}expert{e:03d}.w_g"] = ffn.w_g[e]
            tensors[f"{pre}expert{e:03d}.w_u"] = ffn.w_u[e]
            tensors[f"{pre}expert{e:03d}.w_d"] = ffn.w_down[e].T
        if ffn.router is not None and routers:
            tensors[pre + "router"] = ffn.router
    write_tensors(path, tensors.items(), len(tensors))


def half_arrays(half):
    """(field name, array) for every weight array of a layer's half."""
    for name, value in vars(half).items():
        for a in value if isinstance(value, list) else [value]:
            if a is not None:
                yield name, a


class TestTrain:
    def test_writes_artifacts_and_loss_drops(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        printed = capsys.readouterr().out
        assert "loss" in printed
        tensors = read_tensors(out / "predictor.slimwt")
        assert "layer00.expert000.L" in tensors
        summary = json.loads((out / "train_summary.json").read_text())
        for entry in summary["layers"]:
            assert entry["final_loss"] < entry["init_loss"]
        tables = json.loads((out / "thresholds.json").read_text())
        assert {(d["layer"], d["expert"]) for d in tables} == {
            (li, 0) for li in range(4)}

    def test_byte_identical_reruns(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("train", cfg_path, out1) == 0
        assert run("train", cfg_path, out2) == 0
        for name in ("predictor.slimwt", "thresholds.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_fixture_exits_2(self, tmp_path):
        doc = dict(TOY_DOC, paths={"model_fixture": str(tmp_path / "missing.slimwt")})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert run("train", path, tmp_path / "out") == 2

    def test_trains_from_saved_fixture(self, tmp_path):
        cfg = load_scenario(TOY_DOC)
        layers = list(synth_layers(cfg.model))
        fixture = tmp_path / "model.slimwt"
        save_model_fixture(layers, fixture)
        doc = dict(TOY_DOC, paths={"model_fixture": str(fixture)})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        # the fixture holds float32 w_d (dim_e x dim_h); it loads as neuron rows
        loaded = list(_model_layers(load_scenario(path)))
        for lw, want in zip(loaded[1::2], layers[1::2], strict=True):
            for w_down, w in zip(lw.w_down, want.w_down, strict=True):
                assert w_down.flags.c_contiguous
                assert np.array_equal(w_down, w.astype(np.float32).astype(np.float64))
        assert run("train", path, tmp_path / "out") == 0
        assert (tmp_path / "out" / "predictor.slimwt").exists()


def reference_train_predictors(cfg, out_dir):
    """train_predictors as harvest-every-layer-then-fit: one block decode
    through the whole model collects every layer's FFN inputs, then each
    (layer, expert) is fitted in layer order."""
    dec, layers = Decoder(cfg.model), list(_model_layers(cfg))
    tp = cfg.train
    dim_lr = tp.dim_lr or default_dim_lr(cfg.model.dim_e)
    rng = np.random.default_rng([cfg.seed + 1, 0xCA11])
    x, calib = rng.standard_normal((tp.calib_tokens, cfg.model.dim_e)), []
    for k, half in enumerate(layers):
        x = dec.decode_step(x, (k // 2, half))
        if k % 2 == 0:  # the attention half's output is the FFN input
            calib.append(x)
    tensors, tables = {}, {}
    summary = {"dim_lr": dim_lr, "layers": []}
    for li, lw in enumerate(layers[1::2]):
        for e in range(cfg.model.n_expert):
            p, history = train(init_from_svd(lw.w_g[e], dim_lr), calib[li], lw.w_g[e],
                               epochs=tp.epochs, lr=tp.lr)
            tables[(li, e)] = build_threshold_table(p, calib[li], tp.targets)
            pre = f"layer{li:02d}.expert{e:03d}."
            tensors[pre + "L"] = p.l
            tensors[pre + "R"] = p.r
            summary["layers"].append({"layer": li, "expert": e, "init_loss": history[0],
                                      "final_loss": history[-1], "history": history})
    out_dir.mkdir(parents=True)
    write_tensors(out_dir / cfg.paths.predictor, tensors.items(), len(tensors))
    (out_dir / cfg.paths.thresholds).write_text(thresholds_to_json(tables))
    return summary


@pytest.mark.parametrize("case", ["toy", "toy_moe", "fixture"])
def test_train_matches_harvest_then_fit(tmp_path, case):
    # fitting each layer as the calibration stream passes it writes the
    # bytes of fitting every layer after the whole stream has run
    doc = dict(TOY_DOC, model="toy_moe" if case == "toy_moe" else "toy")
    if case == "fixture":
        fixture = tmp_path / "model.slimwt"
        save_model_fixture(synth_layers(load_scenario(doc).model), fixture)
        doc["paths"] = {"model_fixture": str(fixture)}
    cfg = load_scenario(doc)
    got = train_predictors(cfg, tmp_path / "got")
    want = reference_train_predictors(cfg, tmp_path / "want")
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    for name in (cfg.paths.predictor, cfg.paths.thresholds):
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()


@pytest.mark.parametrize("model", ["toy", "toy_moe"])
def test_pipelines_hold_the_half_in_use_and_the_one_drawn_ahead(tmp_path, monkeypatch,
                                                                 model):
    # every half of a layer is tracked until it dies, and so is each of its
    # arrays; each time a pipeline asks for a half, nothing of a half it was
    # handed before may be alive but the gates train keeps for its fit, and
    # at most the one half drawn ahead, so at most two ever live at once
    live, tokens, peak = set(), itertools.count(), [0]

    def tracked(cls):
        class Tracked(cls):
            def __init__(self, **weights):
                super().__init__(**weights)
                token = next(tokens)
                live.add(token)
                weakref.finalize(self, live.discard, token)
                peak[0] = max(peak[0], len(live))
        return Tracked

    real_layers = slim.runner._model_layers
    pipeline = [None]
    asks = []  # per ask: (pipeline, half index, halves alive, names of arrays handed and alive)

    def watched_layers(cfg):
        source, handed = iter(real_layers(cfg)), []  # (weakref, field name) per array
        for k in range(2 * cfg.model.n_dec):
            held = [name for ref, name in handed if ref() is not None]
            asks.append((pipeline[0], k, len(live), held))
            half = next(source)
            handed += [(weakref.ref(a), name) for name, a in half_arrays(half)]
            yield half
            del half

    monkeypatch.setattr(slim.model, "AttentionWeights", tracked(slim.model.AttentionWeights))
    monkeypatch.setattr(slim.model, "FfnWeights", tracked(slim.model.FfnWeights))
    monkeypatch.setattr(slim.runner, "_model_layers", watched_layers)
    cfg = load_scenario(dict(TOY_DOC, model=model))
    for pipeline[0] in (train_predictors, infer_report):
        pipeline[0](cfg, tmp_path)
    assert len(asks) == 2 * 2 * cfg.model.n_dec
    assert all(alive <= 1 for _, _, alive, _ in asks), asks
    # train fits layer i from its gates while the stream passes layer i+1's
    # attention half, and drops them before it asks for the FFN half
    assert all(held == [] or (fn is train_predictors and k % 2 == 0
                              and held == ["w_g"] * cfg.model.n_expert)
               for fn, k, _, held in asks), asks
    assert peak[0] <= 2


def reference_infer_report(cfg, out_dir):
    """infer_report as a loop that decodes a fresh dense reference next to
    each target's masked decode, and records every token's sparsities as
    the masks are made."""
    dec, layers = Decoder(cfg.model), list(_model_layers(cfg))
    predictors, tables = load_predictors(cfg, out_dir)
    rng = np.random.default_rng([cfg.seed, 0xE7A1])
    inputs = np.vstack([rng.standard_normal((1, cfg.model.dim_e))
                        for _ in range(cfg.train.eval_tokens)])
    report = {"targets": []}
    for target in cfg.train.targets:
        per_token = [[] for _ in inputs]

        def mask_fn(layer, expert, x):
            thr = tables[(layer, expert)].threshold_for(target)
            m = predict_mask(predictors[(layer, expert)], x, thr)
            for t, row in enumerate(m):
                per_token[t].append(measured_sparsity(row))
            return m

        dense = masked = inputs
        for k, half in enumerate(layers):
            dense = dec.decode_step(dense, (k // 2, half))
            masked = dec.decode_step(masked, (k // 2, half), mask_fn=mask_fn)
        report["targets"].append({
            "target_sparsity": target,
            "output_mse": float(np.sum((dense - masked) ** 2)) / dense.size,
            "measured_sparsity": float(np.mean([s for row in per_token for s in row]))})
    return report


class TestInfer:
    @pytest.mark.parametrize("model", ["toy", "toy_moe"])
    def test_matches_per_target_dense_loop(self, tmp_path, model):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TOY_DOC, model=model)))
        out = tmp_path / "out"
        assert run("train", path, out) == 0
        cfg = load_scenario(path)
        assert infer_report(cfg, out) == reference_infer_report(cfg, out)

    @pytest.mark.parametrize("model", ["toy", "toy_moe"])
    def test_fixture_model_matches_per_target_dense_loop(self, tmp_path, model):
        # a fixture model is read whole, then run layer-major like a drawn one
        fixture = tmp_path / "model.slimwt"
        save_model_fixture(synth_layers(load_scenario(dict(TOY_DOC, model=model)).model),
                           fixture)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TOY_DOC, model=model,
                                        paths={"model_fixture": str(fixture)})))
        out = tmp_path / "out"
        assert run("train", path, out) == 0
        cfg = load_scenario(path)
        assert infer_report(cfg, out) == reference_infer_report(cfg, out)

    def test_reports_mse_and_sparsity(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        assert run("infer", cfg_path, out) == 0
        report = json.loads((out / "infer_report.json").read_text())
        targets = report["targets"]
        assert targets[0]["target_sparsity"] == 0.0
        assert targets[0]["output_mse"] == 0.0  # all-on mask: the dense products
        mses = [t["output_mse"] for t in targets]
        assert all(b >= a for a, b in zip(mses, mses[1:]))
        for t in targets:
            assert abs(t["measured_sparsity"] - t["target_sparsity"]) <= 0.05

    def test_target_zero_is_dense_on_sample_config(self, tmp_path):
        # every neuron on runs the dense FFN's products, so the MSE is exactly 0
        cfg_path = ROOT / "configs" / "toy.json"
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        assert run("infer", cfg_path, out) == 0
        target0 = json.loads((out / "infer_report.json").read_text())["targets"][0]
        assert target0["target_sparsity"] == 0.0 and target0["measured_sparsity"] == 0.0
        assert target0["output_mse"] == 0.0

    @pytest.mark.parametrize("model", ["toy", "toy_moe"])
    def test_stream_equal_to_dense_decoded_once(self, tmp_path, monkeypatch, model):
        # target 0 keeps every neuron, so its stream is the dense one and is
        # not decoded again; once a score is exactly 0, threshold 0 skips
        # that neuron and the stream is decoded from that layer's FFN half on
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TOY_DOC, model=model)))
        out = tmp_path / "out"
        assert run("train", path, out) == 0
        cfg = load_scenario(path)
        calls = []
        decode_step = slim.model.Decoder.decode_step

        def counted(self, *args, **kwargs):
            calls.append(1)
            return decode_step(self, *args, **kwargs)

        monkeypatch.setattr(slim.model.Decoder, "decode_step", counted)
        n_dec, n_targets = cfg.model.n_dec, len(cfg.train.targets)
        report = infer_report(cfg, out)
        # two halves per layer for the dense stream and 3 masked ones, less
        # the masked streams' layer 0 attention: every stream starts from
        # the dense stream's inputs, so each takes the dense FFN input
        assert len(calls) == 2 * n_dec * n_targets - (n_targets - 1)
        assert report == reference_infer_report(cfg, out)
        assert report["targets"][0]["output_mse"] == 0.0

        # read_tensors returns read-only views of the file's bytes
        tensors = {name: a.copy() for name, a in read_tensors(out / cfg.paths.predictor).items()}
        for e in range(cfg.model.n_expert):
            tensors[f"layer01.expert{e:03d}.R"][:, 0] = 0.0
        write_tensors(out / cfg.paths.predictor, tensors.items(), len(tensors))
        calls.clear()
        report = infer_report(cfg, out)
        # target 0's stream leaves the dense one at layer 1's FFN half
        assert len(calls) == 2 * n_dec * n_targets - (n_targets - 1) + 1 + 2 * (n_dec - 2)
        assert report == reference_infer_report(cfg, out)
        target0 = report["targets"][0]
        assert target0["target_sparsity"] == 0.0 and target0["measured_sparsity"] > 0.0
        assert target0["output_mse"] > 0.0

    @pytest.mark.parametrize("model", ["toy", "toy_moe"])
    def test_masks_made_once_per_stream_and_ffn_half(self, tmp_path, monkeypatch, model):
        # a stream still on the dense input used to make its masks twice:
        # once to test whether they keep every neuron, once to apply them
        doc = dict(json.loads((ROOT / "configs" / "toy.json").read_text()), model=model)
        path, out = write_doc(tmp_path / "cfg.json", doc), tmp_path / "out"
        assert run("train", path, out) == 0
        cfg = load_scenario(path)
        calls = counting(monkeypatch, "predict_mask")
        report = infer_report(cfg, out)
        assert len(calls) == cfg.model.n_dec * cfg.model.n_expert * len(cfg.train.targets)
        assert report == reference_infer_report(cfg, out)

    def test_without_training_exits_2(self, cfg_path, tmp_path):
        assert run("infer", cfg_path, tmp_path / "fresh") == 2

    @pytest.mark.parametrize("case", ["junk", "empty-list", "entry-without-expert",
                                      "uncalibrated-target"])
    def test_bad_thresholds_exit_2_without_traceback(self, cfg_path, tmp_path, case):
        # these used to end in a JSONDecodeError, a KeyError (0, 0), a
        # KeyError 'expert' and a KeyError for target 0.3
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        thresholds = out / "thresholds.json"
        texts = {"junk": "junk", "empty-list": "[]", "entry-without-expert": '[{"layer": 0}]'}
        if case in texts:
            thresholds.write_text(texts[case])
        else:
            cfg_path.write_text(json.dumps(dict(TOY_DOC, train=dict(TOY_DOC["train"],
                                                                    targets=[0.0, 0.3]))))
        proc = run_process("infer", cfg_path, out)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(thresholds) in proc.stderr

    def test_predictors_load_at_file_precision(self, cfg_path, tmp_path):
        # infer widens a predictor only while it makes a mask
        out = tmp_path / "out"
        assert run("train", cfg_path, out) == 0
        cfg = load_scenario(cfg_path)
        tensors = read_tensors(out / cfg.paths.predictor)
        predictors, _ = load_predictors(cfg, out)
        assert len(predictors) == cfg.model.n_dec * cfg.model.n_expert
        for (li, e), p in predictors.items():
            pre = f"layer{li:02d}.expert{e:03d}."
            for got, name in ((p.l, "L"), (p.r, "R")):
                assert got.dtype == np.float32
                assert np.array_equal(got, tensors[pre + name])


def test_train_and_infer_peak_below_model_weights(tmp_path):
    # layers are drawn half a layer at a time, so neither pipeline holds
    # much more than a layer's weights (1.9-2.1 layers for train on this
    # shape, 1.75 for infer; 3.2-3.3 and 2.8 when whole layers were drawn);
    # tracemalloc counts numpy's data buffers. A first run outside
    # tracemalloc makes the one-time allocations of a fresh process
    doc = dict(TOY_DOC, model={"n_dec": 8, "dim_e": 64, "dim_h": 256, "n_heads": 4,
                               "seq_len": 64})
    cfg = load_scenario(doc)
    weights = sum(a.nbytes for half in synth_layers(cfg.model) for _, a in half_arrays(half))
    layer = weights / cfg.model.n_dec
    out = tmp_path / "out"
    for pipeline in (train_predictors, infer_report):
        pipeline(cfg, out)
        tracemalloc.start()
        try:
            pipeline(cfg, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * layer, (pipeline.__name__, peak / layer)


@pytest.mark.parametrize("command", ["train", "infer"])
def test_moe_fixture_without_routers_exits_2(tmp_path, command):
    # these used to end in AttributeError: 'NoneType' object has no
    # attribute 'T' from moe_forward (exit 1)
    doc = dict(TOY_DOC, model="toy_moe")
    bare, path, out = tmp_path / "bare.slimwt", tmp_path / "cfg.json", tmp_path / "out"
    save_model_fixture(synth_layers(load_scenario(doc).model), bare, routers=False)
    if command == "infer":  # trained on the model with its routers
        assert run("train", write_doc(path, doc), out) == 0
    proc = run_process(command, write_doc(path, dict(doc, paths={"model_fixture": str(bare)})),
                       out)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "missing tensor 'layer00.router'" in proc.stderr
    if command == "train":  # the container is written aside and never renamed into place
        assert not any(out.iterdir())


class TestSimulate:
    def test_report_files_and_columns(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", cfg_path, out) == 0
        header = (out / "report.csv").read_text().splitlines()[0]
        assert header == ",".join(REPORT_FIELDS)
        rows = json.loads((out / "report.json").read_text())
        kinds = {r["design_level"] for r in rows}
        assert kinds == {"die", "ssd_gpu", "dram_gpu"}
        assert all(len(r["config_hash"]) == 12 for r in rows)

    def test_sweep_covers_four_design_points(self, cfg_path, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", cfg_path, out) == 0
        rows = json.loads((out / "report.json").read_text())
        slim_rows = [r for r in rows if r["design_level"] in ("die", "channel")]
        assert {(r["design_level"], r["nand"]) for r in slim_rows} == {
            ("die", "slc"), ("die", "tlc"), ("channel", "slc"), ("channel", "tlc")}

    def test_identical_seeds_identical_bytes(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("sweep", cfg_path, out1) == 0
        assert run("sweep", cfg_path, out2) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_emit_trace(self, tmp_path):
        doc = dict(TOY_DOC, emit_trace=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("simulate", path, out) == 0
        lines = (out / "trace.ldjson").read_text().splitlines()
        assert lines
        ev = json.loads(lines[0])
        assert set(ev) == {"time_ns", "unit", "event", "bytes"}

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "not_a_model"}))
        assert run("simulate", path, tmp_path / "out") == 2

    @pytest.mark.parametrize("bad", [{"seed": "x"}, {"sparsity_targets": ["a"]},
                                     {"sparsity_targets": []}, {"bytes_per_elem": 0},
                                     {"pe_level": "channel", "nsp": {"onchip_bus_gbps": 0}},
                                     {"nsp": {"ftl_txn_us": -5}},
                                     {"train": dict(TOY_DOC["train"], calib_tokens=100)},
                                     {"train": dict(TOY_DOC["train"], eval_tokens=100)},
                                     {"train": dict(TOY_DOC["train"], dim_lr=1000)},
                                     {"train": dict(TOY_DOC["train"], calib_tokens=0)},
                                     {"train": dict(TOY_DOC["train"], eval_tokens=0)},
                                     {"train": dict(TOY_DOC["train"], dim_lr=0)},
                                     {"train": dict(TOY_DOC["train"], lr="abc")},
                                     {"train": dict(TOY_DOC["train"], lr=None)},
                                     {"train": dict(TOY_DOC["train"], lr=-1.0)},
                                     {"train": dict(TOY_DOC["train"], lr=0)},
                                     {"train": dict(TOY_DOC["train"], lr=float("inf"))},
                                     {"train": dict(TOY_DOC["train"], targets="ab")},
                                     {"train": dict(TOY_DOC["train"], targets=[0.2, 1.0])},
                                     {"emit_trace": "false"}, {"seed": 1.7},
                                     {"n_tokens": 2.5}, {"bytes_per_elem": 1.0},
                                     {"nand": {"geometry": {"n_ch": 2.5}}},
                                     {"cost": {"c_mul": "x"}},
                                     {"energy": {"pcie_pj_per_bit": None}},
                                     {"model": dict(SMALL_MODEL, dim_h=32.5)},
                                     ("train", {"model": dict(SMALL_MODEL, seed=1.7)}),
                                     {"dram": {"geometry": {"n_chips": 1.5}}},
                                     {"nand": {"timing": {"pe_macs": 16.5}}},
                                     {"pe_level": "die",
                                      "nand": {"timing": {"pe_level": "channel"}}},
                                     {"nand": {"timing": {"t_r_us": "3"}}},
                                     {"dram": {"timing": {"nras": True}}},
                                     {"nsp": {"psum_bytes_per_elem": 2.0}},
                                     {"paths": {"predictor": 5}},
                                     {"train": dict(TOY_DOC["train"], dim_lr=16.0)},
                                     {"dram": {"geometry": {"page_bytes": 0}}},
                                     {"dram": {"geometry": {"clock_ghz": 0}}},
                                     {"dram": {"timing": {"nras": -18}}},
                                     {"cost": {"c_mul": -1}},
                                     {"energy": {"pcie_pj_per_bit": float("nan")}},
                                     {"model": 5}, {"nand": 5}, {"energy": 5},
                                     {"dram": 5}, {"train": 5},
                                     # these used to end in a traceback ...
                                     {"nand": {"timing": {"t_r_us": float("nan")}}},
                                     {"nand": {"timing": {"t_r_us": float("inf")}}},
                                     {"nand": {"timing": {"pe_clock_ghz": float("nan")}}},
                                     {"nand": {"timing": {"pe_macs": 0}}},
                                     {"nsp": {"ftl_txn_us": float("inf")}},
                                     # ... and these in rows of a negative MAC rate, a
                                     # zero transfer time or an infinite write time
                                     {"nand": {"timing": {"pe_macs": -3}}},
                                     {"nand": {"timing": {"ch_bus_mbps": float("inf")}}},
                                     {"nand": {"timing": {"t_prog_us": float("inf")}}},
                                     {"pe_level": "channel",
                                      "nsp": {"onchip_bus_gbps": float("inf")}},
                                     # these ended in a TypeError ...
                                     ("simulate", 5), ("simulate", None),
                                     {"nand": {"timing": None}}, {"nand": {"timing": 5}},
                                     {"baselines": 5}, {"baselines": None},
                                     # ... a ValueError of numpy's seeding ...
                                     {"seed": -1}, ("simulate", {}, "--seed", "-1"),
                                     # ... or exit 0, with a run length that `train`
                                     # never reads and a second seed that --seed
                                     # could not reach
                                     ("train", {"n_tokens": 0}),
                                     ("train", {"model": dict(SMALL_MODEL, seed=3)})])
    def test_bad_value_exits_2_without_traceback(self, tmp_path, bad):
        # a (command, document, *arguments) tuple names the command that used
        # to fail; a document that is not an object replaces TOY_DOC whole
        cmd, bad, *args = bad if isinstance(bad, tuple) else ("simulate", bad)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TOY_DOC, **bad) if isinstance(bad, dict) else bad))
        proc = run_process(cmd, path, tmp_path / "out", *args)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8",
                                      "out-is-a-file", "fixture-is-a-directory",
                                      "predictor-in-a-missing-directory"])
    def test_unusable_path_exits_2_without_traceback(self, tmp_path, case):
        # these used to end in an IsADirectoryError, a UnicodeDecodeError, a
        # FileExistsError, an IsADirectoryError and a FileNotFoundError
        cmd, doc = "simulate", dict(TOY_DOC)
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        if case == "config-is-a-directory":
            path.mkdir()
        elif case == "out-is-a-file":
            out.write_text("")
        elif case == "fixture-is-a-directory":
            cmd, doc["paths"] = "train", {"model_fixture": str(tmp_path)}
        elif case == "predictor-in-a-missing-directory":
            cmd, doc["paths"] = "train", {"predictor": "sub/p.slimwt"}
        if case == "config-not-utf8":
            path.write_bytes(json.dumps(doc).encode("utf-16"))
        elif not path.exists():
            path.write_text(json.dumps(doc))
        proc = run_process(cmd, path, out)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad", [{"nand": {"timing": {"ch_bus_mbps": 5e-324}}},
                                     {"nand": {"timing": {"t_r_us": 1e305}}},
                                     {"nand": {"timing": {"pe_clock_ghz": 1e-310}}},
                                     {"nsp": {"ftl_txn_us": 1e308}},
                                     # the SSD-GPU baseline's token time
                                     {"nand": {"timing": {"ch_bus_mbps": 1e-12}}}])
    def test_token_time_overflow_exits_3_without_traceback(self, tmp_path, bad):
        """Finite settings whose token time overflows are a numeric failure."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TOY_DOC, **bad)))
        proc = run_process("simulate", path, tmp_path / "out")
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cmd,file,data,message", [
        ("train", "model.slimwt", b"junk", "not a valid SLIMWT1 file"),
        ("train", "model.slimwt", b"SLIMWT1\x00\x01\x00", "not a valid SLIMWT1 file"),
        ("infer", "predictor.slimwt", b"not a container", "not a valid SLIMWT1 file"),
        ("infer", "predictor.slimwt", b"SLIMWT1\x00" + bytes(4), "missing tensor"),
        ("train", "model.slimwt", b"SLIMWT1\x00" + bytes(4), "missing tensor"),
    ], ids=["junk-fixture", "truncated-fixture", "junk-predictor", "empty-predictor",
            "empty-fixture"])
    def test_malformed_container_exits_2_without_traceback(self, tmp_path, cmd, file, data,
                                                           message):
        out = tmp_path / "out"
        out.mkdir()
        (out / "thresholds.json").write_text("[]")
        (out / file).write_bytes(data)
        doc = dict(TOY_DOC)
        if file == "model.slimwt":
            doc["paths"] = {"model_fixture": str(out / file)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        proc = run_process(cmd, path, out)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert message in proc.stderr

    def test_moe_trace_round_trips(self, tmp_path):
        doc = {"model": "toy_moe", "seed": 3, "sparsity_targets": [0.5],
               "emit_trace": True}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("simulate", path, out) == 0
        sink = []
        scenario_rows(load_scenario(doc), trace_sink=sink)
        assert len(sink) == 1 and isinstance(sink[0], EventColumns)
        events = list(sink[0])
        assert events and read_ldjson(out / "trace.ldjson") == events
        for ev in events:
            assert type(ev.time_ns) is int
            assert type(ev.unit) is str and type(ev.event) is str
            assert type(ev.bytes) in (int, float)


# datasheet-like values as well as zeros, negatives, subnormals, NaN and +-inf
setting = st.floats(1e-3, 1e4) | st.floats(0, exclude_min=True) | st.floats()


@given(timing=st.fixed_dictionaries({}, optional={
           "t_r_us": setting, "t_prog_us": setting, "ch_bus_mbps": setting,
           "pe_clock_ghz": setting, "pe_macs": st.integers(-4, 256)}),
       nsp=st.fixed_dictionaries({}, optional={
           "ftl_txn_us": setting, "onchip_bus_gbps": setting,
           "psum_bytes_per_elem": st.integers(-1, 8), "act_bytes_per_elem": st.integers(-1, 8)}),
       pe_level=st.sampled_from(["die", "channel"]))
# rates that overflow to inf and a t_R that underflows to 0: nothing takes time
@example(timing={"t_r_us": 5e-324, "ch_bus_mbps": 1e308, "pe_clock_ghz": 1e308},
         nsp={"ftl_txn_us": 0.0, "onchip_bus_gbps": 1e308}, pe_level="channel")
@settings(max_examples=150, deadline=None)
def test_fuzzed_nand_and_nsp_exit_cleanly(timing, nsp, pe_level):
    """Any NAND timing or NSP section ends in exit 0, 2 or 3, never an
    exception, and a report written has only finite numbers. The geometry
    stays fixed: its sizes are allocations."""
    doc = {"model": "toy", "seed": 5, "sparsity_targets": [0.5], "baselines": [],
           "pe_level": pe_level, "nand": {"timing": timing}, "nsp": nsp}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            rows = json.loads((out / "report.json").read_text())
            assert all(math.isfinite(v) for row in rows for v in row.values()
                       if type(v) in (int, float)), rows


@st.composite
def decoder_docs(draw):
    """Toy-sized inline model and train sections, valid but for, sometimes,
    one count that takes any small integer; dim_lr may be unset, and a
    target may be 1, which is out of range."""
    n_heads, n_expert = draw(st.sampled_from([1, 2, 4])), draw(st.integers(1, 3))
    model = {"n_dec": draw(st.integers(1, 3)), "dim_e": n_heads * draw(st.integers(1, 6)),
             "dim_h": draw(st.integers(1, 24)), "n_heads": n_heads, "n_expert": n_expert,
             "top_k": draw(st.integers(1, n_expert)), "seq_len": draw(st.integers(1, 24))}
    train = {"calib_tokens": draw(st.integers(1, model["seq_len"])),
             "eval_tokens": draw(st.integers(1, model["seq_len"])),
             "dim_lr": draw(st.none() | st.integers(1, 24)), "epochs": draw(st.integers(0, 3)),
             "targets": draw(st.lists(st.floats(0, 1), min_size=1, max_size=4))}
    doc = {"model": model, "train": train, "seed": draw(st.integers(0, 2**16))}
    bad = draw(st.none() | st.sampled_from([("model", k) for k in model]
                                           + [("train", k) for k in train if k != "targets"]))
    if bad:
        doc[bad[0]][bad[1]] = draw(st.integers(-1, 64))
    return doc


@given(decoder_docs())
# the default rank dim_e // 4 is wider than dim_h
@example({"model": {"n_dec": 1, "dim_e": 64, "dim_h": 8, "n_heads": 4, "seq_len": 16},
          "train": {"calib_tokens": 8, "eval_tokens": 4, "targets": [0.0, 0.5]}, "seed": 3})
@settings(max_examples=100, deadline=None)
def test_fuzzed_model_and_train_exit_cleanly(doc):
    """Any toy-sized model and train section ends `slim train` and then
    `slim infer` in exit 0, 2 or 3, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))
        for cmd in ("train", "infer"):
            assert main([cmd, "--config", str(path), "--out", str(out)]) in (0, 2, 3)


@pytest.mark.parametrize("pe_level", ["die", "channel"])
@pytest.mark.parametrize("timing", [{"t_r_us": 1e305}, {"pe_clock_ghz": 1e-320}],
                         ids=["t_r", "pe_clock"])
def test_event_times_past_int64_ns_exit_3(tmp_path, timing, pe_level):
    # a t_R so long, or a PE rate so low, that the traced times overflow
    # int64 nanoseconds is a numeric error, caught before numpy would warn of
    # the overflow
    doc = {"model": "toy", "seed": 5, "sparsity_targets": [0.5], "baselines": [],
           "pe_level": pe_level, "nand": {"timing": timing}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", path, tmp_path / "out") == 3


def test_rows_fixed_order_without_pool_jitter(cfg_path, tmp_path):
    cfg = load_scenario(cfg_path)
    rows1 = scenario_rows(cfg, sweep=True)
    rows2 = scenario_rows(cfg, sweep=True)
    assert rows1 == rows2


def test_write_report_deterministic(tmp_path):
    row = {f: 0.0 for f in REPORT_FIELDS}
    row.update(scenario="t", design_level="die", nand="slc", config_hash="x" * 12)
    p1 = write_report([row], tmp_path / "r1")
    p2 = write_report([row], tmp_path / "r2")
    assert p1[0].read_bytes() == p2[0].read_bytes()


def counting(monkeypatch, name):
    """The argument tuples of every call the runner makes to ``name``."""
    calls, func = [], getattr(slim.runner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    monkeypatch.setattr(slim.runner, name, counted)
    return calls


@pytest.mark.parametrize("model", ["toy", "toy_moe"])
def test_shared_masks_match_single_point_runs(model, monkeypatch):
    """A sweep draws the neuron order once, cuts each sparsity's masks once
    and reads the token once per geometry (SLC and TLC), each read shared by
    the die and channel points; its rows equal four single-point runs that
    each draw and read their own."""
    doc = {"model": model, "seed": 4, "sparsity_targets": [0.0, 0.25, 0.5, 0.75]}
    cfg = load_scenario(doc)
    n = len(cfg.sparsity_targets)
    ranks = counting(monkeypatch, "neuron_ranks")
    masks = counting(monkeypatch, "nested_masks")
    reads = counting(monkeypatch, "generate_read_transactions")
    swept = scenario_rows(cfg, sweep=True)
    assert (len(ranks), len(masks), len(reads)) == (1, n, 2 * n)
    assert [layout.geo for layout, _ in reads] == [SLC_GEOMETRY, TLC_GEOMETRY] * n

    single = []
    for level in ("die", "channel"):
        for nand in ("slc", "tlc"):
            point = load_scenario(dict(doc, nand=nand, pe_level=level, baselines=[]))
            single += [dict(row, config_hash=config_hash(cfg)) for row in scenario_rows(point)]
    assert (len(ranks), len(masks), len(reads)) == (5, 5 * n, 6 * n)
    assert swept[:len(single)] == single
    assert swept[len(single):] == scenario_rows(cfg)[len(cfg.sparsity_targets):]


def test_own_geometry_read_apart_from_presets(monkeypatch):
    """A scenario whose own device has another geometry than its preset
    reads the token on each geometry apart: its own point reads its own
    device, the other three the presets."""
    doc = {"model": "toy", "seed": 4, "sparsity_targets": [0.0, 0.5]}
    preset = load_scenario(doc)
    cfg = dataclasses.replace(preset, geometry=SsdGeometry(n_ch=8))
    reads = counting(monkeypatch, "generate_read_transactions")
    swept = scenario_rows(cfg, sweep=True)
    assert [layout.geo for layout, _ in reads] == [cfg.geometry, TLC_GEOMETRY,
                                                   SLC_GEOMETRY] * 2
    n = len(cfg.sparsity_targets)
    own = scenario_rows(cfg)[:n]
    assert swept[:n] == own and own != scenario_rows(preset)[:n]
    # the channel-level SLC point still reads the preset
    ch_slc = load_scenario(dict(doc, pe_level="channel"))
    assert swept[2 * n:3 * n] == [dict(row, config_hash=config_hash(cfg))
                                  for row in scenario_rows(ch_slc)[:n]]


def load_trends_script():
    """scripts/reproduce_trends.py as a module loaded in this process, so
    ``counting`` sees the runner calls its ``main`` makes."""
    spec = importlib.util.spec_from_file_location(
        "reproduce_trends", ROOT / "scripts" / "reproduce_trends.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("flags,counts", [([], (4, 18, 36)), (["--quick"], (1, 8, 16))],
                         ids=["full", "quick"])
def test_trends_read_each_token_once(flags, counts, monkeypatch, tmp_path):
    """The trends script draws each shape's neuron order once and reads the
    token once per (geometry, sparsity): a full run evaluates 36 points on
    18 reads, ``--quick`` 16 on 8."""
    calls = [counting(monkeypatch, name) for name in (
        "neuron_ranks", "generate_read_transactions", "evaluate_slim")]
    load_trends_script().main([*flags, "--out", str(tmp_path)])
    assert tuple(map(len, calls)) == counts


def test_stage_timings_logged_at_debug_only(cfg_path, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="slim")  # the CLI's default level
    assert run("sweep", cfg_path, tmp_path / "info") == 0
    assert caplog.records == []

    caplog.set_level(logging.DEBUG, logger="slim")
    assert run("sweep", cfg_path, tmp_path / "debug") == 0
    stages = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("evaluate_slim:")]
    draws = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("evaluate_points:")]
    assert len(stages) == 4 * len(TOY_DOC["sparsity_targets"])  # one per design point
    timed = ", ".join(rf"{stage} \d+\.\d+ s" for stage in (
        "ffn passes", "token phases", "energy fold"))
    assert all(re.fullmatch(f"evaluate_slim: {timed}", line) for line in stages)
    passes = [re.fullmatch(r"simulate_ffn_pass: 4 layers, schedule \d+\.\d+ s "
                           r"\((\d+) lockstep steps, (\d+) of (\d+) channel rows closed "
                           r"in full, (\d+) by rounds\), events \d+\.\d+ s", r.getMessage())
              for r in caplog.records if r.getMessage().startswith("simulate_ffn_pass:")]
    assert len(passes) == len(stages) and all(passes)  # one per design point
    # per sparsity the sweep runs die-level SLC and TLC, then channel-level SLC and TLC
    for i, m in enumerate(passes):
        steps, full, rows, by_rounds = map(int, m.groups())
        if i % 4 < 2:
            assert steps == full == rows == by_rounds == 0
        else:
            assert steps > 0 and 0 < rows and full <= rows
    # the rank draw, then per sparsity the masks and the SLC and TLC reads
    sparsities = TOY_DOC["sparsity_targets"]
    want = [r"neuron order of 4 slots drawn in \d+\.\d+ s"]
    for s in sparsities:
        want.append(rf"masks for sparsity {s:g} in \d+\.\d+ s")
        for page, packing, points in ((4096, 21, "die-slc, channel-slc"),
                                      (16384, 85, "die-tlc, channel-tlc")):
            want.append(rf"sparsity {s:g}, {page} B pages on 64 dies \({packing} vectors "
                        rf"per page, 1 pages per vector\) read in \d+\.\d+ s, "
                        rf"shared by {points}")
    assert len(draws) == len(want)
    assert all(re.fullmatch(f"evaluate_points: {w}", d) for w, d in zip(want, draws)), draws
    for name in ("report.csv", "report.json"):
        assert ((tmp_path / "info" / name).read_bytes()
                == (tmp_path / "debug" / name).read_bytes())


def test_trace_write_logged_at_debug_only(tmp_path, caplog):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(TOY_DOC, emit_trace=True)))
    caplog.set_level(logging.INFO, logger="slim")  # the CLI's default level
    assert run("simulate", path, tmp_path / "info") == 0
    assert caplog.records == []

    caplog.set_level(logging.DEBUG, logger="slim")
    assert run("simulate", path, tmp_path / "debug") == 0
    lines = [re.fullmatch(r"emit_trace_file: (\d+) events, (\d+) B written in \d+\.\d+ s",
                          r.getMessage())
             for r in caplog.records if r.getMessage().startswith("emit_trace_file:")]
    assert len(lines) == 1 and lines[0], lines
    trace = tmp_path / "debug" / "trace.ldjson"
    events, size = map(int, lines[0].groups())
    assert events == len(read_ldjson(trace)) > 0 and size == trace.stat().st_size
    assert trace.read_bytes() == (tmp_path / "info" / "trace.ldjson").read_bytes()


def test_train_stage_timings_logged_at_debug_only(cfg_path, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="slim")  # the CLI's default level
    assert run("train", cfg_path, tmp_path / "info") == 0
    stage = ("train:", "train_predictors:")
    assert not [r for r in caplog.records if r.getMessage().startswith(stage)]

    caplog.clear()
    caplog.set_level(logging.DEBUG, logger="slim")
    assert run("train", cfg_path, tmp_path / "debug") == 0
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith(stage)]
    model = load_scenario(cfg_path).model
    keys = [(li, e) for li in range(model.n_dec) for e in range(model.n_expert)]
    # per (layer, expert), in order: train's own line, then the runner's
    assert len(lines) == 2 * len(keys)
    for (fit, done), (li, e) in zip(zip(lines[::2], lines[1::2]), keys):
        # toy: dim_h 256 > dim_e 64, so the coordinates are dim_e wide
        assert re.fullmatch(
            r"train: coordinates 64 wide, factorization \d+\.\d+ s, loop \d+\.\d+ s",
            fit), fit
        assert re.fullmatch(
            rf"train_predictors: layer {li} expert {e}, svd init \d+\.\d+ s, "
            r"train \d+\.\d+ s, thresholds \d+\.\d+ s", done), done
    for name in ("predictor.slimwt", "thresholds.json"):
        assert ((tmp_path / "info" / name).read_bytes()
                == (tmp_path / "debug" / name).read_bytes())
