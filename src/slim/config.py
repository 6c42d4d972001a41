"""Scenario configuration: named presets for devices and model shapes, strict
JSON ingestion (unknown keys are hard errors, no silent defaults), and a
resolved-config hash carried into every report row."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .pim import DDR4_2400, BitSerialCostModel, DramGeometry, DramTiming
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


# JSON values a field of each annotation takes (true/false is not a number);
# other annotations are checked where their values are used
_JSON_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "int | None": ((int, type(None)), "an integer or null"),
    "str | None": ((str, type(None)), "a string or null"),
}


# sections whose every field is a size, clock or cycle count (True: > 0) or
# a cost or energy (False: >= 0); NaN and infinity pass neither
_POSITIVE = {DramGeometry: True, DramTiming: True, BitSerialCostModel: False,
             EnergyConstants: False}


def _object(value, where: str) -> dict:
    """A JSON object, where a section is written inline."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _build(cls, data: dict, where: str, **extra):
    """Instantiate a dataclass from a dict, rejecting unknown keys, values
    of the wrong JSON type and, for the sections in _POSITIVE, values out
    of range. Values are checked, not converted, so the resolved config and
    its hash stay as written."""
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(_object(data, where)) - set(types)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    merged = dict(data)
    merged.update(extra)
    positive = _POSITIVE.get(cls)
    for name, value in merged.items():
        rule = _JSON_TYPES.get(types[name])
        if rule and type(value) not in rule[0]:
            raise ConfigError(f"{where}.{name} must be {rule[1]}, got {value!r}")
        if positive is not None and not (0 < value < math.inf or value == 0 and not positive):
            raise ConfigError(f"{where}.{name} must be finite and {'>' if positive else '>='} 0, "
                              f"got {value!r}")
    try:
        return cls(**merged)
    except TypeError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _number(value, where: str) -> float:
    """A JSON number (int or float, not a bool or a string) as a float."""
    if type(value) not in (int, float):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    """A JSON integer, returned as it is: 1.0, 1.7, "1" and true are errors."""
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _tupleize(obj, where: str) -> tuple[float, ...]:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise ConfigError(f"{where} must be a non-empty list")
    vals = tuple(_number(v, where) for v in obj)
    for v in vals:
        if not (0.0 <= v < 1.0):
            raise ConfigError(f"{where} entries must lie in [0, 1), got {v}")
    return vals


def _check_train(tp: TrainParams, model: ModelConfig) -> None:
    """The counts of ``tp`` must fit ``model``: `train` and `infer` decode
    calib_tokens/eval_tokens steps into a cache of seq_len rows, and the
    predictor rank is at most min(dim_e, dim_h). The step size is a finite
    number > 0 and the targets are sparsities in [0, 1). ``_build`` has
    checked the JSON types of the scalars."""
    bounds = {"epochs": (0, math.inf), "calib_tokens": (1, model.seq_len),
              "eval_tokens": (1, model.seq_len)}
    if tp.dim_lr is not None:
        bounds["dim_lr"] = (1, min(model.dim_e, model.dim_h))
    for name, (lo, hi) in bounds.items():
        v = getattr(tp, name)
        if not lo <= v <= hi:
            raise ConfigError(f"train.{name} must be an integer in [{lo}, {hi}], got {v!r}")
    if not 0 < tp.lr < math.inf:
        raise ConfigError(f"train.lr must be a finite number > 0, got {tp.lr!r}")
    _tupleize(tp.targets, "train.targets")


_TOP_KEYS = {"model", "nand", "pe_level", "dram", "sparsity_targets", "scheduler",
             "baselines", "baseline_sparsity", "seed", "n_tokens",
             "bytes_per_elem", "train", "paths", "energy", "cost", "nsp",
             "emit_trace"}


def load_scenario(doc: dict | str | Path, seed_override: int | None = None) -> ScenarioConfig:
    """Resolve a JSON document (or path to one) into a fully-populated
    ScenarioConfig. Presets are referenced by name; inline objects are
    accepted wherever a preset name is."""
    if not isinstance(doc, dict):
        path = Path(doc)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")

    seed = _integer(doc.get("seed", 0), "seed")
    if seed_override is not None:
        seed = seed_override

    model_spec = doc.get("model", "toy")
    if isinstance(model_spec, str):
        if model_spec not in MODEL_PRESETS:
            raise ConfigError(f"unknown model preset {model_spec!r}; "
                              f"have {sorted(MODEL_PRESETS)}")
        model = _build(ModelConfig, MODEL_PRESETS[model_spec], "model", seed=seed)
        model_name = model_spec
    else:
        spec = dict(_object(model_spec, "model"))
        spec.setdefault("seed", seed)
        model = _build(ModelConfig, spec, "model")
        model_name = "custom"

    pe_level = doc.get("pe_level", "die")
    if pe_level not in PE_LEVELS:
        raise ConfigError(f"pe_level must be one of {PE_LEVELS}, got {pe_level!r}")

    nand_spec = doc.get("nand", "slc")
    if isinstance(nand_spec, str):
        if nand_spec not in NAND_NAMES:
            raise ConfigError(f"nand must be one of {NAND_NAMES}, got {nand_spec!r}")
        geometry, nand_timing = nand_preset(nand_spec, pe_level)
        nand_name = nand_spec
    else:
        extra = set(_object(nand_spec, "nand")) - {"geometry", "timing"}
        if extra:
            raise ConfigError(f"unknown keys in nand: {sorted(extra)}")
        geometry = _build(SsdGeometry, nand_spec.get("geometry", {}), "nand.geometry")
        timing_spec = nand_spec.get("timing", {})
        if "pe_level" in timing_spec:
            raise ConfigError("nand.timing.pe_level is not a setting; set the top-level pe_level")
        nand_timing = _build(NandTiming, timing_spec, "nand.timing", pe_level=pe_level)
        nand_name = "custom"

    dram_spec = doc.get("dram", "ddr4_2400")
    if isinstance(dram_spec, str):
        if dram_spec not in DRAM_PRESETS:
            raise ConfigError(f"unknown dram preset {dram_spec!r}")
        dram_geometry, dram_timing = DRAM_PRESETS[dram_spec]
        dram_name = dram_spec
    else:
        extra = set(_object(dram_spec, "dram")) - {"geometry", "timing"}
        if extra:
            raise ConfigError(f"unknown keys in dram: {sorted(extra)}")
        dram_geometry = _build(DramGeometry, dram_spec.get("geometry", {}), "dram.geometry")
        dram_timing = _build(DramTiming, dram_spec.get("timing", {}), "dram.timing")
        dram_name = "custom"

    scheduler = doc.get("scheduler", "pipelined")
    if scheduler not in SCHEDULERS:
        raise ConfigError(f"scheduler must be one of {SCHEDULERS}, got {scheduler!r}")

    baselines = tuple(doc.get("baselines", ["ssd_gpu", "dram_gpu"]))
    for b in baselines:
        if b not in BASELINE_KINDS:
            raise ConfigError(f"unknown baseline {b!r}; have {BASELINE_KINDS}")

    baseline_sparsity = _number(doc.get("baseline_sparsity", 0.0), "baseline_sparsity")
    if not (0.0 <= baseline_sparsity < 1.0):
        raise ConfigError(f"baseline_sparsity must lie in [0, 1)")

    bytes_per_elem = _integer(doc.get("bytes_per_elem", 1), "bytes_per_elem")
    if bytes_per_elem < 1:
        raise ConfigError(f"bytes_per_elem must be >= 1, got {bytes_per_elem}")

    train = _build(TrainParams, doc.get("train", {}), "train")
    _check_train(train, model)

    emit_trace = doc.get("emit_trace", False)
    if type(emit_trace) is not bool:
        raise ConfigError(f"emit_trace must be true or false, got {emit_trace!r}")

    return ScenarioConfig(
        model_name=model_name,
        model=model,
        nand=nand_name,
        pe_level=pe_level,
        geometry=geometry,
        nand_timing=nand_timing,
        dram_name=dram_name,
        dram_geometry=dram_geometry,
        dram_timing=dram_timing,
        cost_model=_build(BitSerialCostModel, doc.get("cost", {}), "cost"),
        nsp=_build(NspParams, doc.get("nsp", {}), "nsp"),
        energy=_build(EnergyConstants, doc.get("energy", {}), "energy"),
        sparsity_targets=_tupleize(doc.get("sparsity_targets", [0.0, 0.25, 0.5, 0.75]),
                                   "sparsity_targets"),
        scheduler=scheduler,
        baselines=baselines,
        baseline_sparsity=baseline_sparsity,
        seed=seed,
        n_tokens=_integer(doc.get("n_tokens", 100), "n_tokens"),
        bytes_per_elem=bytes_per_elem,
        train=train,
        paths=_build(ScenarioPaths, doc.get("paths", {}), "paths"),
        emit_trace=emit_trace,
    )


def config_hash(cfg: ScenarioConfig) -> str:
    """Short stable digest of the fully resolved configuration."""
    doc = dataclasses.asdict(cfg)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]
