"""Scenario configuration: named presets for devices and model shapes, strict
JSON ingestion against one declared schema (unknown keys, wrong JSON types
and values out of range are hard errors), and a resolved-config hash
carried into every report row."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .pim import DDR4_2400, BitSerialCostModel, DramGeometry, DramTiming
from .predictor import default_dim_lr
from .storage import NandTiming, NspParams, SsdGeometry, nand_preset
from .system import EnergyConstants

# shapes of the evaluated models; hidden dims are the public values for these
# architectures (the simulator only needs sizes and masks, never weights)
MODEL_PRESETS: dict[str, dict] = {
    "toy": dict(n_dec=4, dim_e=64, dim_h=256, n_heads=4, seq_len=64),
    "toy_moe": dict(n_dec=2, dim_e=64, dim_h=128, n_heads=4, n_expert=4,
                    top_k=2, seq_len=64),
    "llama2_7b_shape": dict(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32,
                            seq_len=2048),
    "llama2_13b_shape": dict(n_dec=40, dim_e=5120, dim_h=13824, n_heads=40,
                             seq_len=2048),
    "mixtral_8x7b_shape": dict(n_dec=32, dim_e=4096, dim_h=14336, n_heads=32,
                               n_expert=8, top_k=2, seq_len=2048),
    "deepseek_16b_shape": dict(n_dec=24, dim_e=2048, dim_h=1408, n_heads=16,
                               n_expert=64, top_k=8, seq_len=2048),
}

DRAM_PRESETS = {"ddr4_2400": DDR4_2400}
NAND_NAMES = ("slc", "tlc")
PE_LEVELS = ("die", "channel")
SCHEDULERS = ("sequential", "pipelined")
BASELINE_KINDS = ("ssd_gpu", "dram_gpu")


@dataclass(frozen=True)
class TrainParams:
    dim_lr: int | None = None  # None -> dim_e // 4
    epochs: int = 50
    lr: float = 1e-3
    calib_tokens: int = 64
    eval_tokens: int = 16
    targets: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6)


@dataclass(frozen=True)
class ScenarioPaths:
    model_fixture: str | None = None  # optional SLIMWT1 checkpoint to load
    predictor: str = "predictor.slimwt"
    thresholds: str = "thresholds.json"


@dataclass(frozen=True)
class ScenarioConfig:
    model_name: str
    model: ModelConfig
    nand: str
    pe_level: str
    geometry: SsdGeometry
    nand_timing: NandTiming
    dram_name: str
    dram_geometry: DramGeometry
    dram_timing: DramTiming
    cost_model: BitSerialCostModel
    nsp: NspParams
    energy: EnergyConstants
    sparsity_targets: tuple[float, ...]
    scheduler: str
    baselines: tuple[str, ...]
    baseline_sparsity: float
    seed: int
    n_tokens: int
    bytes_per_elem: int
    train: TrainParams
    paths: ScenarioPaths
    emit_trace: bool


@dataclass(frozen=True)
class _Device:
    """An inline ``nand`` or ``dram`` object."""

    geometry: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _Document:
    """The top level of a scenario document: its keys, their JSON types and
    their defaults. ``model``, ``nand`` and ``dram`` take a preset name or an
    inline object; a key whose default is a dataclass is a section."""

    model: str | dict = "toy"
    nand: str | dict = "slc"
    pe_level: str = "die"
    dram: str | dict = "ddr4_2400"
    sparsity_targets: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75)
    scheduler: str = "pipelined"
    baselines: tuple[str, ...] = BASELINE_KINDS
    baseline_sparsity: float = 0.0
    seed: int = 0
    n_tokens: int = 100
    bytes_per_elem: int = 1
    train: TrainParams = TrainParams()
    paths: ScenarioPaths = ScenarioPaths()
    energy: EnergyConstants = EnergyConstants()
    cost: BitSerialCostModel = BitSerialCostModel()
    nsp: NspParams = NspParams()
    emit_trace: bool = False


def _is(*kinds):
    return lambda v: type(v) in kinds


def _list_of(kinds, min_len: int):
    return lambda v: type(v) in (list, tuple) and len(v) >= min_len and all(
        type(x) in kinds for x in v)


# JSON values a field of each annotation takes (true/false is not a number)
_JSON_TYPES = {
    "int": (_is(int), "an integer"),
    "float": (_is(int, float), "a number"),
    "bool": (_is(bool), "true or false"),
    "str": (_is(str), "a string"),
    "int | None": (_is(int, type(None)), "an integer or null"),
    "str | None": (_is(str, type(None)), "a string or null"),
    "str | dict": (_is(str, dict), "a preset name or an object"),
    "dict": (_is(dict), "an object"),
    "tuple[float, ...]": (_list_of((int, float), 1), "a non-empty list of numbers"),
    "tuple[str, ...]": (_list_of((str,), 0), "a list of strings"),
}

# sections whose every field is a size, clock or cycle count (True: > 0) or
# a cost or energy (False: >= 0); NaN and infinity pass neither
_POSITIVE = {DramGeometry: True, DramTiming: True, BitSerialCostModel: False,
             EnergyConstants: False}
# [lo, hi) of a field's value, or of each entry of a list field
_RANGES = {"seed": (0, math.inf), "n_tokens": (1, math.inf), "bytes_per_elem": (1, math.inf),
           "train.epochs": (0, math.inf), "baseline_sparsity": (0, 1),
           "sparsity_targets": (0, 1), "train.targets": (0, 1)}
# the names a string field, or each entry of a list field, is one of
_NAMES = {"model": MODEL_PRESETS, "nand": NAND_NAMES, "dram": DRAM_PRESETS,
          "pe_level": PE_LEVELS, "scheduler": SCHEDULERS, "baselines": BASELINE_KINDS}


def _build(cls, data, where: str = "", **derived):
    """Instantiate the dataclass ``cls`` from the JSON object ``data``,
    rejecting unknown keys and values of the wrong JSON type, out of range
    or not one of their names (the tables above). A field whose default is
    a dataclass is a section, built by the same rule. ``derived`` fields are
    set from the top level, so ``data`` may not set them. Values are
    checked, not converted, so the resolved config and its hash stay as
    written."""
    label = where or "the document"
    if not isinstance(data, dict):
        raise ConfigError(f"{label} must be an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown keys in {label}: {sorted(unknown)}")
    positive = _POSITIVE.get(cls)
    values = {}
    for name, value in {**data, **derived}.items():
        key = f"{where}.{name}" if where else name
        if name in data and name in derived:
            raise ConfigError(f"{key} is not a setting; set the top-level {name}")
        if dataclasses.is_dataclass(fields[name].default):
            values[name] = _build(type(fields[name].default), value, key)
            continue
        accepts, what = _JSON_TYPES[fields[name].type]
        if not accepts(value):
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        for v in value if type(value) in (list, tuple) else [value]:
            if key in _NAMES and type(v) is str and v not in _NAMES[key]:
                raise ConfigError(f"{key} must be one of {sorted(_NAMES[key])}, got {v!r}")
            lo, hi = _RANGES.get(key, (None, None))
            if lo is not None and not lo <= v < hi:
                raise ConfigError(f"{key} must lie in [{lo}, {hi}), got {v!r}")
            if positive is not None and not (0 < v < math.inf or v == 0 and not positive):
                raise ConfigError(f"{key} must be finite and {'>' if positive else '>='} 0, "
                                  f"got {v!r}")
        values[name] = value
    return cls(**values)


def _check_train(tp: TrainParams, model: ModelConfig) -> None:
    """The counts of ``tp`` must fit ``model``: `train` and `infer` decode
    calib_tokens/eval_tokens tokens as one block, at most the seq_len
    positions of the context, and the predictor rank (dim_lr, or
    ``default_dim_lr`` when it is unset) is at most min(dim_e, dim_h). The
    step size is a finite number > 0. ``_build`` has checked the JSON types
    and every range that does not need the model."""
    dim_lr = default_dim_lr(model.dim_e) if tp.dim_lr is None else tp.dim_lr
    bounds = {"calib_tokens": (tp.calib_tokens, model.seq_len),
              "eval_tokens": (tp.eval_tokens, model.seq_len),
              "dim_lr": (dim_lr, min(model.dim_e, model.dim_h))}
    for name, (v, hi) in bounds.items():
        if not 1 <= v <= hi:
            raise ConfigError(f"train.{name} must be an integer in [1, {hi}], got {v!r}")
    if not 0 < tp.lr < math.inf:
        raise ConfigError(f"train.lr must be a finite number > 0, got {tp.lr!r}")


def _device(spec: str | dict, where: str, presets: dict, geometry_cls, timing_cls,
            **derived) -> tuple:
    """(name, geometry, timing) of a preset device or of an inline
    ``{geometry, timing}`` object, which is named "custom"."""
    if isinstance(spec, str):
        return (spec, *presets[spec])
    device = _build(_Device, spec, where)
    return ("custom", _build(geometry_cls, device.geometry, f"{where}.geometry"),
            _build(timing_cls, device.timing, f"{where}.timing", **derived))


def load_scenario(doc: dict | str | Path, seed_override: int | None = None) -> ScenarioConfig:
    """Resolve a JSON document (or path to one) into a fully-populated
    ScenarioConfig. Presets are referenced by name; inline objects are
    accepted wherever a preset name is. ``seed_override`` replaces the
    document's seed and is checked like it."""
    if not isinstance(doc, dict):
        path = Path(doc)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    top = _build(_Document, doc)
    if seed_override is not None:
        top = _build(_Document, dict(doc, seed=seed_override))
    inline_model = isinstance(top.model, dict)
    model = _build(ModelConfig, top.model if inline_model else MODEL_PRESETS[top.model],
                   "model", seed=top.seed)
    _check_train(top.train, model)
    nand, geometry, nand_timing = _device(
        top.nand, "nand", {name: nand_preset(name, top.pe_level) for name in NAND_NAMES},
        SsdGeometry, NandTiming, pe_level=top.pe_level)
    dram, dram_geometry, dram_timing = _device(top.dram, "dram", DRAM_PRESETS,
                                               DramGeometry, DramTiming)
    return ScenarioConfig(
        model_name="custom" if inline_model else top.model,
        model=model,
        nand=nand,
        pe_level=top.pe_level,
        geometry=geometry,
        nand_timing=nand_timing,
        dram_name=dram,
        dram_geometry=dram_geometry,
        dram_timing=dram_timing,
        cost_model=top.cost,
        nsp=top.nsp,
        energy=top.energy,
        sparsity_targets=tuple(map(float, top.sparsity_targets)),
        scheduler=top.scheduler,
        baselines=tuple(top.baselines),
        baseline_sparsity=float(top.baseline_sparsity),
        seed=top.seed,
        n_tokens=top.n_tokens,
        bytes_per_elem=top.bytes_per_elem,
        train=top.train,
        paths=top.paths,
        emit_trace=top.emit_trace,
    )


def config_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest of the fully resolved configuration."""
    doc = dataclasses.asdict(cfg)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
