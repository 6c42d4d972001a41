"""Scenario execution: evaluate a resolved config's design points and
baselines, turn them into report rows, and the train/infer pipelines behind
the CLI."""

from __future__ import annotations

import json
import logging
import time
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, TrainParams, config_hash
from .container import read_tensors, write_tensors
from .errors import ConfigError
from .model import Decoder, LayerWeights, harvest_ffn_inputs, synth_layers
from .numerics import Matrix
from .predictor import (
    Predictor,
    ThresholdTable,
    build_threshold_table,
    default_dim_lr,
    init_from_svd,
    predict_mask,
    thresholds_from_json,
    thresholds_to_json,
    train,
)
from .storage import (
    SsdGeometry,
    generate_read_transactions,
    map_weights,
    nand_preset,
)
from .system import (
    ENERGY_COMPONENTS,
    BaselineResult,
    SlimResult,
    baseline_preset,
    evaluate_slim,
    nested_masks,
    neuron_ranks,
    run_baseline,
)
from .trace import write_ldjson

log = logging.getLogger("slim")

REPORT_FIELDS = (
    "scenario", "design_level", "nand", "sparsity", "tok_per_s",
    "latency_ms_per_token", "raw_gbps", "eff_gbps", "energy_mj_per_token",
    *(f"energy_{c}_mj" for c in ENERGY_COMPONENTS),
    "t_dram_ms", "t_ssd_ms", "weights_write_ms", "config_hash",
)


# every (nand, pe_level) pair, in the order a sweep reports them
DESIGN_POINTS = tuple((nand, level) for level in ("die", "channel") for nand in ("slc", "tlc"))


def _round(x: float) -> float:
    # full precision is noise here; 6 significant-ish digits keep reports stable
    return float(f"{x:.6g}")


def evaluate_baseline(cfg: ScenarioConfig, kind: str) -> BaselineResult:
    """The ``kind`` GPU baseline next to the scenario's SSD, at the
    scenario's baseline sparsity."""
    return run_baseline(baseline_preset(kind, cfg.geometry, cfg.nand_timing),
                        cfg.model, cfg.baseline_sparsity, cfg.energy,
                        cfg.bytes_per_elem)


def _slim_row(cfg: ScenarioConfig, nand: str, pe_level: str, sparsity: float,
              res: SlimResult, digest: str) -> dict:
    row = {
        "scenario": cfg.model_name,
        "design_level": pe_level,
        "nand": nand,
        "sparsity": sparsity,
        "tok_per_s": _round(res.throughput),
        "latency_ms_per_token": _round(res.latency_s_per_token * 1e3),
        "raw_gbps": _round(res.raw_bytes / res.phases.t_ssd / 1e9),
        "eff_gbps": _round(res.useful_bytes / res.phases.t_ssd / 1e9),
        "energy_mj_per_token": _round(res.energy.total * 1e3),
        "t_dram_ms": _round(res.phases.t_dram * 1e3),
        "t_ssd_ms": _round(res.phases.t_ssd * 1e3),
        "weights_write_ms": _round(res.weights_write_s * 1e3),
        "config_hash": digest,
    }
    for c in ENERGY_COMPONENTS:
        row[f"energy_{c}_mj"] = _round(res.energy.components[c] * 1e3)
    return row


def _baseline_row(cfg: ScenarioConfig, kind: str, digest: str) -> dict:
    res = evaluate_baseline(cfg, kind)
    rate = res.bytes_moved / res.transfer_s / 1e9 if res.transfer_s else 0.0
    row = {
        "scenario": cfg.model_name,
        "design_level": kind,
        "nand": "-",
        "sparsity": cfg.baseline_sparsity,
        "tok_per_s": _round(res.throughput),
        "latency_ms_per_token": _round(res.latency_s * 1e3),
        "raw_gbps": _round(rate),
        "eff_gbps": _round(rate),
        "energy_mj_per_token": _round(res.energy.total * 1e3),
        "t_dram_ms": 0.0,
        "t_ssd_ms": 0.0,
        "weights_write_ms": 0.0,
        "config_hash": digest,
    }
    for c in ENERGY_COMPONENTS:
        row[f"energy_{c}_mj"] = _round(res.energy.components[c] * 1e3)
    return row


def evaluate_points(cfg: ScenarioConfig, points: Iterable[tuple[str, str]],
                    sparsities: Iterable[float],
                    project: Callable[[tuple, SlimResult], object]) -> dict:
    """Evaluate each (nand, pe_level) design point of the scenario at each
    sparsity, every other scenario field as configured. A point at the
    scenario's own (nand, pe_level) runs on its own device, any other on
    the named preset. Returns a dict from each key ``(nand, pe_level,
    sparsity)`` to ``project(key, result)``. The projection runs as soon as
    the point is evaluated, so no ``SlimResult`` is held while the next
    point runs unless the projection keeps it.

    The neuron order is drawn once (``neuron_ranks`` with the scenario
    seed). At each sparsity the masks are cut from it once
    (``nested_masks``) and the token is read once per distinct geometry,
    since which pages a token reads does not depend on the PE level. The
    masks are dropped once read, and one sparsity's reads are held while
    its points run in the order given. At ``SLIM_LOG=debug``
    ``evaluate_points:`` lines give the seconds of the rank draw and, per
    sparsity, of the masks and of each geometry's read, with its layout and
    the points sharing it."""
    devices = {point: (cfg.geometry, cfg.nand_timing) if point == (cfg.nand, cfg.pe_level)
               else nand_preset(*point) for point in points}
    by_geometry: dict[SsdGeometry, list] = {}
    for point, (geometry, _) in devices.items():
        by_geometry.setdefault(geometry, []).append(point)

    t0 = time.perf_counter()
    ranks = neuron_ranks(cfg.model, cfg.seed)
    log.debug("evaluate_points: neuron order of %d slots drawn in %.6f s",
              len(ranks), time.perf_counter() - t0)
    records = {}
    for s in dict.fromkeys(sparsities):
        t0 = time.perf_counter()
        masks = nested_masks(ranks, s)
        log.debug("evaluate_points: masks for sparsity %g in %.6f s",
                  s, time.perf_counter() - t0)
        reads = {}
        for geometry, sharing in by_geometry.items():
            t0 = time.perf_counter()
            reads[geometry] = generate_read_transactions(
                map_weights(cfg.model, geometry, cfg.bytes_per_elem), masks)
            layout = reads[geometry].layout
            log.debug("evaluate_points: sparsity %g, %d B pages on %d dies (%d vectors "
                      "per page, %d pages per vector) read in %.6f s, shared by %s",
                      s, geometry.page_bytes, geometry.n_dies, layout.packing_factor,
                      layout.span_pages, time.perf_counter() - t0,
                      ", ".join(f"{level}-{nand}" for nand, level in sharing))
        del masks
        for point, (geometry, timing) in devices.items():
            records[(*point, s)] = project((*point, s), evaluate_slim(
                cfg.model, timing, cfg.dram_geometry, cfg.dram_timing, cfg.cost_model,
                reads[geometry], scheduler=cfg.scheduler, n_tokens=cfg.n_tokens,
                params=cfg.nsp, constants=cfg.energy))
    return records


def scenario_rows(cfg: ScenarioConfig, sweep: bool = False,
                  trace_sink: list | None = None) -> list[dict]:
    """Evaluate the scenario's design points over its sparsity grid
    (``evaluate_points``), plus the selected baselines, as report rows.
    ``sweep`` expands to all four DESIGN_POINTS. Rows come in a fixed order
    (design point-major, then sparsity), followed by the baselines; the
    first row's ``EventColumns`` are appended to ``trace_sink``."""
    digest = config_hash(cfg)
    points = DESIGN_POINTS if sweep else ((cfg.nand, cfg.pe_level),)
    first = (*points[0], cfg.sparsity_targets[0])

    def row(key, res):
        if key == first and trace_sink is not None:
            trace_sink.append(res.events)
        return _slim_row(cfg, *key, res, digest)

    by_key = evaluate_points(cfg, points, cfg.sparsity_targets, row)
    rows = [by_key[(*point, s)] for point in points for s in cfg.sparsity_targets]
    for kind in cfg.baselines:
        rows.append(_baseline_row(cfg, kind, digest))
    return rows


def write_report(rows: list[dict], out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    lines = [",".join(REPORT_FIELDS)]
    for row in rows:
        lines.append(",".join(str(row[f]) for f in REPORT_FIELDS))
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return csv_path, json_path


# --- train / infer pipelines -------------------------------------------------

def _read_container(path: Path, what: str) -> dict:
    """read_tensors, with a malformed file reported as a config error."""
    try:
        return read_tensors(path)
    except ValueError as exc:
        raise ConfigError(f"{what} is not a valid SLIMWT1 file: {exc}") from exc


def _model_layers(cfg: ScenarioConfig) -> Iterator[LayerWeights]:
    """The model's layers in order: drawn one at a time from the seed
    (``synth_layers``), or built one at a time from the
    ``paths.model_fixture`` file, which is read whole and kept at its
    float32 until a layer is built and widened to float64."""
    fixture = cfg.paths.model_fixture
    if fixture is None:
        return synth_layers(cfg.model)
    path = Path(fixture)
    if not path.exists():
        raise ConfigError(f"model fixture not found: {path}")
    tensors = _read_container(path, "model fixture")
    m = cfg.model
    experts = [f"expert{e:03d}." for e in range(m.n_expert)]

    def layer(li: int) -> LayerWeights:
        pre = f"layer{li:02d}."

        def wide(name):
            return tensors[pre + name].astype(np.float64)

        try:
            return LayerWeights(
                w_q=wide("w_q"), w_k=wide("w_k"), w_v=wide("w_v"), w_o=wide("w_o"),
                w_g=[wide(ex + "w_g") for ex in experts],
                w_u=[wide(ex + "w_u") for ex in experts],
                # SLIMWT1 keeps w_d as dim_e x dim_h; the decoder holds neuron rows
                w_down=[np.ascontiguousarray(tensors[pre + ex + "w_d"].T, dtype=np.float64)
                        for ex in experts],
                router=wide("router") if pre + "router" in tensors else None,
            )
        except KeyError as exc:
            raise ConfigError(f"fixture {path} is missing tensor {exc}") from exc

    return map(layer, range(m.n_dec))


def _fit_expert(w_g: Matrix, calib: Matrix, dim_lr: int, tp: TrainParams,
                li: int, e: int) -> tuple[Matrix, Matrix, ThresholdTable, list[float]]:
    """One expert's predictor fitted to its gate ``w_g`` on the layer's
    calibration inputs: (L, R) narrowed to the file's float32, the
    threshold table and the loss history, both from the float64 fit. The
    float64 fit dies on return, before the next layer is decoded."""
    t0 = time.perf_counter()
    p0 = init_from_svd(w_g, dim_lr)
    t1 = time.perf_counter()
    p, history = train(p0, calib, w_g, epochs=tp.epochs, lr=tp.lr)
    t2 = time.perf_counter()
    table = build_threshold_table(p, calib, tp.targets)
    t3 = time.perf_counter()
    log.debug("train_predictors: layer %d expert %d, svd init %.6f s, "
              "train %.6f s, thresholds %.6f s", li, e, t1 - t0, t2 - t1, t3 - t2)
    return p.l.astype(np.float32), p.r.astype(np.float32), table, history


def train_predictors(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Calibrate, train and threshold one predictor per (layer, expert); write
    the SLIMWT1 weights and the threshold-table JSON. Returns a summary with
    loss histories. The calibration stream runs layer-major
    (``harvest_ffn_inputs``): each layer's experts are fitted from its
    gates as soon as the stream has passed it, while the next layer is
    drawn, and the gates are dropped before the next layer is asked for.
    The thresholds and the summary come from the float64 fit; the fitted L
    and R are kept at the file's float32. At ``SLIM_LOG=debug`` each
    (layer, expert) gets the ``train:`` line (the coordinates' width and
    the seconds of the factorization and the loop), then one line with the
    wall-clock seconds of the SVD init, ``train`` and the thresholds."""
    tp = cfg.train
    dim_lr = tp.dim_lr or default_dim_lr(cfg.model.dim_e)
    tensors = {}
    tables = {}
    summary = {"dim_lr": dim_lr, "layers": []}
    for li, gates, calib in harvest_ffn_inputs(Decoder(cfg=cfg.model), _model_layers(cfg),
                                               tp.calib_tokens, seed=cfg.seed + 1):
        for e, w_g in enumerate(gates):
            pre = f"layer{li:02d}.expert{e:03d}."
            tensors[pre + "L"], tensors[pre + "R"], tables[(li, e)], history = _fit_expert(
                w_g, calib, dim_lr, tp, li, e)
            summary["layers"].append({
                "layer": li, "expert": e,
                "init_loss": history[0], "final_loss": history[-1],
                "history": history,
            })
            log.info("layer %d expert %d: loss %.4e -> %.4e",
                     li, e, history[0], history[-1])
        del gates, w_g  # only the layer drawn ahead stays while the next is asked for

    out_dir.mkdir(parents=True, exist_ok=True)
    write_tensors(out_dir / cfg.paths.predictor, tensors)
    (out_dir / cfg.paths.thresholds).write_text(thresholds_to_json(tables))
    return summary


def load_predictors(cfg: ScenarioConfig, out_dir: Path):
    """The trained predictors, at the file's float32, and their threshold
    tables. A malformed predictor or threshold file, or one without a
    predictor or a threshold for some (layer, expert) and configured
    target, raises ConfigError naming the file."""
    ppath = out_dir / cfg.paths.predictor
    tpath = out_dir / cfg.paths.thresholds
    if not ppath.exists() or not tpath.exists():
        raise ConfigError(f"trained predictor not found under {out_dir} "
                          f"(expected {ppath.name} and {tpath.name}); run `slim train` first")
    tensors = _read_container(ppath, "predictor")
    predictors = {}
    try:
        for li in range(cfg.model.n_dec):
            for e in range(cfg.model.n_expert):
                pre = f"layer{li:02d}.expert{e:03d}."
                predictors[(li, e)] = Predictor(l=tensors[pre + "L"], r=tensors[pre + "R"])
    except KeyError as exc:
        raise ConfigError(f"predictor {ppath} is missing tensor {exc}") from exc
    try:
        tables = thresholds_from_json(tpath.read_text())
    except ValueError as exc:
        raise ConfigError(f"thresholds {tpath} is not a threshold table: {exc}") from exc
    for li, e in predictors:
        for target in cfg.train.targets:
            try:
                tables[(li, e)].threshold_for(target)
            except KeyError:
                raise ConfigError(f"thresholds {tpath} has no threshold for layer {li} "
                                  f"expert {e} at target {target}") from None
    return predictors, tables


def infer_report(cfg: ScenarioConfig, out_dir: Path) -> dict:
    """Dense vs predictor-masked decode on held-out tokens: output MSE and
    measured sparsity, averaged over (token, layer, expert), for every
    calibrated target. Each stream is decoded as one block, and the
    streams run layer-major: the dense reference (decoded once, since it
    does not depend on the target) and every target's masked stream pass a
    layer while the next layer is drawn; the layer and its predictors are
    dropped before the next is asked for. Predictors stay at the file's
    float32 until their layer runs, and are widened to float64 for it.
    A masked stream is decoded only once it leaves the dense one: while
    its masks keep every neuron, its output is the dense output."""
    source = iter(_model_layers(cfg))
    predictors, tables = load_predictors(cfg, out_dir)
    if predictors[(0, 0)].l.shape[0] != cfg.model.dim_e:
        raise ConfigError("predictor dims do not match the model config")
    dec = Decoder(cfg=cfg.model)
    rng = np.random.default_rng([cfg.seed, 0xE7A1])
    inputs = rng.standard_normal((cfg.train.eval_tokens, cfg.model.dim_e))
    targets = cfg.train.targets
    # per target, (layer, expert) -> each token's measured sparsity
    sparsities = [{} for _ in targets]

    def masker(target, made):
        def mask_fn(layer, expert, x):
            thr = tables[(layer, expert)].threshold_for(target)
            mask = predict_mask(predictors[(layer, expert)], x, thr)
            dim_h = mask.shape[1]
            made[(layer, expert)] = (dim_h - np.count_nonzero(mask, axis=1)) / float(dim_h)
            return mask
        return mask_fn

    mask_fns = [masker(t, made) for t, made in zip(targets, sparsities)]
    dense, masked = inputs, [inputs] * len(targets)
    # indexed by range: enumerate's recycled result tuple would hold the
    # last layer while the source draws the next
    for li in range(cfg.model.n_dec):
        # widening float32 is exact, so every mask keeps its bits
        for e in range(cfg.model.n_expert):
            p = predictors[(li, e)]
            predictors[(li, e)] = Predictor(l=p.l.astype(np.float64), r=p.r.astype(np.float64))
        layer = (li, next(source))
        ffn_in, passed = dec.decode_step(dense, layer)
        # a stream that is still the dense one and keeps every neuron of
        # this layer (target 0 does, unless a score is exactly 0) decodes
        # to the dense output, so its masks are made, and their sparsity
        # recorded, on the dense FFN input and not applied
        masked = [passed if x is dense and all(
                      fn(li, e, ffn_in).all() for e in range(cfg.model.n_expert))
                  else dec.decode_step(x, layer, mask_fn=fn)[1]
                  for x, fn in zip(masked, mask_fns)]
        dense = passed
        # the layer and its predictors are dead too: drop them before the
        # next layer is asked for, so only the one drawn ahead is held
        del layer
        for e in range(cfg.model.n_expert):
            del predictors[(li, e)]

    report = {"targets": []}
    for target, out, made in zip(targets, masked, sparsities):
        # averaged token-major, then by layer, then by expert: the order of
        # a per-row loop, so the mean's rounding is the same
        per_row = np.stack([made[key] for key in sorted(made)], axis=1).ravel()
        entry = {
            "target_sparsity": target,
            "output_mse": float(np.mean((dense - out) ** 2)),
            "measured_sparsity": float(np.mean(per_row)),
        }
        report["targets"].append(entry)
        log.info("target %.2f: mse %.4e, measured sparsity %.3f",
                 target, entry["output_mse"], entry["measured_sparsity"])
    (out_dir / "infer_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def emit_trace_file(events, out_dir: Path) -> Path:
    """Write ``events``, an ``EventColumns``, to ``trace.ldjson``; at
    ``SLIM_LOG=debug`` one line gives the events written, the file's bytes
    and the seconds taken."""
    path = out_dir / "trace.ldjson"
    t0 = time.perf_counter()
    write_ldjson(events, path)
    log.debug("emit_trace_file: %d events, %d B written in %.6f s",
              len(events), path.stat().st_size, time.perf_counter() - t0)
    return path
