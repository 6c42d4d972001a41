import copy
import dataclasses
import json

import pytest

from slim.config import MODEL_PRESETS, ScenarioConfig, config_hash, load_scenario
from slim.errors import ConfigError, MappingError, ShapeError
from slim.pim import BitSerialCostModel, DramGeometry, DramTiming
from slim.runner import scenario_rows
from slim.storage import NandTiming, NspParams, SsdGeometry
from slim.system import EnergyConstants


def test_defaults_resolve():
    cfg = load_scenario({})
    assert cfg.model_name == "toy"
    assert cfg.nand == "slc" and cfg.pe_level == "die"
    assert cfg.scheduler == "pipelined"
    assert cfg.sparsity_targets == (0.0, 0.25, 0.5, 0.75)


def test_presets_cover_evaluated_shapes():
    assert MODEL_PRESETS["llama2_7b_shape"]["n_dec"] == 32
    assert MODEL_PRESETS["llama2_7b_shape"]["dim_e"] == 4096
    assert MODEL_PRESETS["llama2_13b_shape"]["dim_e"] == 5120
    assert MODEL_PRESETS["mixtral_8x7b_shape"]["n_expert"] == 8
    assert MODEL_PRESETS["mixtral_8x7b_shape"]["top_k"] == 2
    assert MODEL_PRESETS["deepseek_16b_shape"]["n_expert"] == 64
    assert MODEL_PRESETS["deepseek_16b_shape"]["top_k"] == 8


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        load_scenario({"modle": "toy"})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError):
        load_scenario({"train": {"epoch": 5}})
    with pytest.raises(ConfigError):
        load_scenario({"energy: ": {}})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        load_scenario({"model": "llama4_maverick"})
    with pytest.raises(ConfigError):
        load_scenario({"nand": "qlc"})
    with pytest.raises(ConfigError):
        load_scenario({"baselines": ["cpu_only"]})


def test_sparsity_range_checked():
    with pytest.raises(ConfigError):
        load_scenario({"sparsity_targets": [0.5, 1.0]})


def test_default_rank_bounded_by_dim_h():
    # dim_lr unset resolves to dim_e // 4 = 16, wider than dim_h = 8
    model = {"n_dec": 1, "dim_e": 64, "dim_h": 8, "n_heads": 4, "seq_len": 16}
    train = {"calib_tokens": 8, "eval_tokens": 4}
    with pytest.raises(ConfigError, match=r"train\.dim_lr .*\[1, 8\], got 16"):
        load_scenario({"model": model, "train": train})
    assert load_scenario({"model": dict(model, dim_h=16), "train": train}).train.dim_lr is None


def test_inline_model_and_nand():
    cfg = load_scenario({
        "model": {"n_dec": 2, "dim_e": 32, "dim_h": 64, "n_heads": 4},
        "nand": {"geometry": {"page_bytes": 8192}, "timing": {"t_r_us": 10.0}},
    })
    assert cfg.model_name == "custom" and cfg.nand == "custom"
    assert cfg.model.dim_e == 32
    assert cfg.geometry.page_bytes == 8192
    assert cfg.nand_timing.t_r_us == 10.0


def test_seed_override_flows_into_model():
    cfg = load_scenario({"model": "toy", "seed": 3}, seed_override=11)
    assert cfg.seed == 11 and cfg.model.seed == 11


def test_pe_level_sets_mac_budget():
    die = load_scenario({"pe_level": "die"})
    ch = load_scenario({"pe_level": "channel"})
    assert die.nand_timing.pe_macs == 16
    assert ch.nand_timing.pe_macs == 64


def test_inline_nand_takes_the_top_level_pe_level():
    cfg = load_scenario({"pe_level": "channel", "nand": {"timing": {}}})
    assert cfg.nand_timing.pe_level == "channel"


def test_checked_values_are_not_converted():
    # an integer given for a float field stays an integer, so the hash of a
    # document that was valid before the type checks does not move
    cfg = load_scenario({"energy": {"pcie_pj_per_bit": 6}, "nand": {"timing": {"t_r_us": 3}}})
    assert type(cfg.energy.pcie_pj_per_bit) is int and type(cfg.nand_timing.t_r_us) is int


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": "toy_moe", "seed": 4}))
    cfg = load_scenario(path)
    assert cfg.model.n_expert == 4


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "nope.json")


def test_hash_stable_and_sensitive():
    a = load_scenario({"model": "toy", "seed": 1})
    b = load_scenario({"model": "toy", "seed": 1})
    c = load_scenario({"model": "toy", "seed": 2})
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 12


def test_ships_with_working_sample_configs():
    from pathlib import Path
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("toy.json", "llama2_7b.json"):
        cfg = load_scenario(root / name)
        assert isinstance(cfg, ScenarioConfig)


# --- every device field the config accepts changes what the simulator does ---

# Toy scale, close to the limits: 4 dies with 16 pages each hold toy's 52
# packing groups (13 per die), so each capacity factor binds, and 16 DRAM
# banks let DramGeometry.page_bytes push a GEMM into a second wave. Dense
# pages (sparsity 0) make a PE with one MAC or a 50 MHz clock outlast t_R.
GUARD_DOC = {
    "model": "toy", "sparsity_targets": [0.0],
    "nand": {"geometry": {"n_ch": 2, "chips_per_ch": 2, "dies_per_chip": 1,
                          "planes_per_die": 2, "blocks_per_plane": 2,
                          "pages_per_block": 4}},
    "dram": {"geometry": {"n_chips": 1}},
}
# one valid value per field; the capacity fields flip the run to exit 2
PERTURB = {
    "nand.geometry.n_ch": 4, "nand.geometry.chips_per_ch": 4,
    "nand.geometry.dies_per_chip": 2, "nand.geometry.planes_per_die": 1,
    "nand.geometry.blocks_per_plane": 1, "nand.geometry.pages_per_block": 3,
    "nand.geometry.page_bytes": 16384,
    "nand.timing.t_r_us": 30.0, "nand.timing.t_prog_us": 1000.0,
    "nand.timing.ch_bus_mbps": 100.0, "nand.timing.pe_macs": 1,
    "nand.timing.pe_clock_ghz": 0.05,
    "nsp.ftl_txn_us": 5.0, "nsp.onchip_bus_gbps": 0.5,
    "nsp.psum_bytes_per_elem": 8, "nsp.act_bytes_per_elem": 8,
    "dram.geometry.n_chips": 2, "dram.geometry.bank_groups": 2,
    "dram.geometry.banks_per_group": 2, "dram.geometry.page_bytes": 16,
    "dram.geometry.clock_ghz": 2.4, "dram.geometry.dq_bits": 1,
    "dram.timing.nrcd": 1000, "dram.timing.nras": 100, "dram.timing.nrp": 100,
    "dram.timing.nwr": 1000,
    "cost.c_mul": 26.0, "cost.c_add": 16.0, "cost.softmax_cycles_per_elem": 40.0,
    "cost.compare_cycles_per_elem": 100.0,
    **{f"energy.{f.name}": 2 * f.default for f in dataclasses.fields(EnergyConstants)},
}
AT_CHANNEL_LEVEL = {"nsp.onchip_bus_gbps"}  # die-level PEs never use the on-chip bus
SECTIONS = {"nand.geometry": SsdGeometry, "nand.timing": NandTiming, "nsp": NspParams,
            "dram.geometry": DramGeometry, "dram.timing": DramTiming,
            "cost": BitSerialCostModel, "energy": EnergyConstants}
DEVICE_FIELDS = [f"{section}.{f.name}" for section, cls in SECTIONS.items()
                 for f in dataclasses.fields(cls)
                 if f"{section}.{f.name}" != "nand.timing.pe_level"]


def _with(doc: dict, dotted: str, value) -> dict:
    doc = copy.deepcopy(doc)
    *path, name = dotted.split(".")
    node = doc
    for key in path:
        node = node.setdefault(key, {})
    node[name] = value
    return doc


def _outcome(doc: dict):
    """The report rows without config_hash, or the error the CLI exits 2 on."""
    try:
        rows = scenario_rows(load_scenario(doc))
    except (ConfigError, MappingError, ShapeError) as exc:
        return type(exc).__name__
    return [{k: v for k, v in row.items() if k != "config_hash"} for row in rows]


@pytest.mark.parametrize("field", DEVICE_FIELDS)
def test_every_device_field_is_read(field):
    assert field in PERTURB, f"state a perturbation for {field}"
    base = dict(GUARD_DOC, pe_level="channel" if field in AT_CHANNEL_LEVEL else "die")
    before = _outcome(base)
    assert isinstance(before, list), f"the guard document itself exits 2: {before}"
    assert _outcome(_with(base, field, PERTURB[field])) != before, (
        f"{field} = {PERTURB[field]!r} changes no report column")
