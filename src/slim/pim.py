"""Analytic cost model of the bit-serial DRAM compute engine: command-count
GEMM costs, near-bank transpose-unit layout costs, the three-step attention
flow, QKVO projection, and sparsity-prediction latency.

Bit-serial compute issues activate-activate-precharge (AAP) command triples;
one AAP applies a majority step across every open bitline at once, so the
parallel width is one lane per bitline per bank (page_bytes * 8 bitlines per
row). Costs are command-count arithmetic, not silicon measurements; the
per-operation AAP counts are configurable constants.

The model reads four DRAM timings, in clock cycles: an AAP costs
nRAS + nRP, and a KV-row append through the write path costs
nRCD + nWR + nRP. Column-command spacing (tCCD, tFAW, CL) is not modeled,
and the bank's row and column counts bound nothing here, so neither is a
setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ShapeError
from .model import ModelConfig
from .predictor import default_dim_lr


@dataclass(frozen=True)
class DramGeometry:
    n_chips: int = 32  # DDR4-2400
    bank_groups: int = 4
    banks_per_group: int = 4
    page_bytes: int = 8192
    clock_ghz: float = 1.2
    dq_bits: int = 8

    @property
    def total_banks(self) -> int:
        return self.n_chips * self.bank_groups * self.banks_per_group

    @property
    def bitline_lanes(self) -> int:
        # one bit-serial lane per bitline, across all banks
        return self.page_bytes * 8 * self.total_banks

    @property
    def io_bytes_per_s(self) -> float:
        # conventional interface path (double data rate)
        return self.n_chips * self.dq_bits / 8 * 2 * self.clock_ghz * 1e9


@dataclass(frozen=True)
class DramTiming:
    nrcd: int = 18
    nras: int = 39
    nrp: int = 18
    nwr: int = 18

    @property
    def aap_cycles(self) -> int:
        # one activate-activate-precharge triple
        return self.nras + self.nrp


@dataclass(frozen=True)
class BitSerialCostModel:
    c_mul: float = 13.0  # AAPs per n-bit multiply ~ c_mul * n^2
    c_add: float = 8.0  # AAPs per n-bit add ~ c_add * n
    softmax_cycles_per_elem: float = 4.0  # near-bank accumulate/softmax
    compare_cycles_per_elem: float = 1.0  # threshold compare pass

    def mul_aaps(self, bits: int) -> float:
        return self.c_mul * bits * bits

    def add_aaps(self, bits: int) -> float:
        return self.c_add * bits


DDR4_2400 = (DramGeometry(), DramTiming())


@dataclass(frozen=True)
class PimCost:
    """Latency plus the quantities the energy ledger needs."""

    seconds: float = 0.0
    aaps: float = 0.0
    layout_bytes: float = 0.0  # operand bytes moved by the transpose units
    rw_bytes: float = 0.0  # conventional-interface reads/writes

    def __add__(self, other: "PimCost") -> "PimCost":
        return PimCost(self.seconds + other.seconds, self.aaps + other.aaps,
                       self.layout_bytes + other.layout_bytes,
                       self.rw_bytes + other.rw_bytes)

    def __mul__(self, times: float) -> "PimCost":
        return PimCost(self.seconds * times, self.aaps * times,
                       self.layout_bytes * times, self.rw_bytes * times)


ZERO_COST = PimCost()


def layout_cost(n_bytes: float, geo: DramGeometry) -> PimCost:
    """Transpose-unit bit-serial layout: 64 * N_bank bits move per cycle."""
    if n_bytes <= 0:
        return ZERO_COST
    cycles = math.ceil(n_bytes * 8 / (64 * geo.total_banks))
    return PimCost(seconds=cycles / (geo.clock_ghz * 1e9), layout_bytes=n_bytes)


def _wave_cost(n_ops: int, aaps_per_wave: float, geo: DramGeometry,
               timing: DramTiming) -> PimCost:
    waves = math.ceil(n_ops / geo.bitline_lanes)
    aaps = waves * aaps_per_wave
    return PimCost(seconds=aaps * timing.aap_cycles / (geo.clock_ghz * 1e9), aaps=aaps)


def _nearbank_cost(n_elems: float, geo: DramGeometry, cm: BitSerialCostModel) -> PimCost:
    cycles = math.ceil(n_elems * cm.softmax_cycles_per_elem / geo.total_banks)
    return PimCost(seconds=cycles / (geo.clock_ghz * 1e9))


def bitserial_gemm_cost(m: int, k: int, n: int, bits: int, geo: DramGeometry,
                        timing: DramTiming, cm: BitSerialCostModel,
                        include_a_layout: bool = True,
                        include_b_layout: bool = True) -> PimCost:
    """GEMM (m x k) @ (k x n): m*k*n multiply-adds spread over the bitline
    lanes, each wave costing mul_aaps(bits) + add_aaps(2*bits) command
    triples, plus laying out the operands. Degenerate shapes cost nothing.

    Weight operands already resident in bit-serial form (laid out once at
    load time) should pass include_b_layout=False.
    """
    if min(m, k, n) < 0:
        raise ShapeError(f"negative GEMM dims ({m}, {k}, {n})")
    if m * k * n == 0:
        return ZERO_COST
    per_wave = cm.mul_aaps(bits) + cm.add_aaps(2 * bits)
    cost = _wave_cost(m * k * n, per_wave, geo, timing)
    elem_bytes = bits / 8
    if include_a_layout:
        cost = cost + layout_cost(m * k * elem_bytes, geo)
    if include_b_layout:
        cost = cost + layout_cost(k * n * elem_bytes, geo)
    return cost


def mha_cost(seq_len: int, dim_e: int, n_heads: int, bits: int,
             geo: DramGeometry, timing: DramTiming,
             cm: BitSerialCostModel) -> dict[str, PimCost]:
    """Three-step attention for one generated token against a seq_len cache.

    score: replicate/lay out Q over the cached rows, then bit-serial
    pointwise Q*K. softmax: near-bank accumulation of the seq_len*dim_e
    products plus the per-head softmax pass. output: lay out the scores,
    bit-serial pointwise S*V, then near-bank reduction to dim_e outputs.
    """
    if seq_len < 1:
        raise ShapeError(f"seq_len must be >= 1, got {seq_len}")
    elem_bytes = bits / 8
    n_prod = seq_len * dim_e
    mul_wave = cm.mul_aaps(bits)

    score = layout_cost(n_prod * elem_bytes, geo) + _wave_cost(n_prod, mul_wave, geo, timing)
    softmax = _nearbank_cost(n_prod + n_heads * seq_len, geo, cm)
    output = (layout_cost(n_heads * seq_len * elem_bytes, geo)
              + _wave_cost(n_prod, mul_wave, geo, timing)
              + _nearbank_cost(n_prod + dim_e, geo, cm))
    return {"score": score, "softmax": softmax, "output": output,
            "total": score + softmax + output}


def qkvo_cost(dim_e: int, bits: int, geo: DramGeometry, timing: DramTiming,
              cm: BitSerialCostModel, batch: int = 1) -> PimCost:
    """Four dim_e x dim_e projections; the weights stay resident."""
    one = bitserial_gemm_cost(batch, dim_e, dim_e, bits, geo, timing, cm,
                              include_b_layout=False)
    return one + one + one + one


def predictor_cost(dim_e: int, dim_lr: int, dim_h: int, bits: int,
                   geo: DramGeometry, timing: DramTiming, cm: BitSerialCostModel,
                   batch: int = 1) -> PimCost:
    """Low-rank score GEMMs plus the threshold-compare pass."""
    cost = (bitserial_gemm_cost(batch, dim_e, dim_lr, bits, geo, timing, cm,
                                include_b_layout=False)
            + bitserial_gemm_cost(batch, dim_lr, dim_h, bits, geo, timing, cm,
                                  include_a_layout=False, include_b_layout=False))
    # thresholding is elementwise in the near-bank units, like the softmax pass
    compare_cycles = math.ceil(dim_h * batch * cm.compare_cycles_per_elem
                               / geo.total_banks)
    return cost + PimCost(seconds=compare_cycles / (geo.clock_ghz * 1e9))


def kv_append_cost(dim_e: int, bytes_per_elem: int, geo: DramGeometry,
                   timing: DramTiming) -> PimCost:
    """Append one K row and one V row through the standard write path."""
    n_bytes = 2 * dim_e * bytes_per_elem
    seconds = ((timing.nrcd + timing.nwr + timing.nrp) / (geo.clock_ghz * 1e9)
               + n_bytes / geo.io_bytes_per_s)
    return PimCost(seconds=seconds, rw_bytes=n_bytes)


@dataclass(frozen=True)
class LayerDramCost:
    """One decoder layer's DRAM side for one generated token, attending over
    a ``position``-deep KV cache: the QKVO projections, the three attention
    steps, the layer's predictor passes (one per activated expert), the
    router GEMM (zero for a single expert) and the KV append. Every layer
    of a token has this row."""

    position: int
    qkvo: PimCost
    score: PimCost
    softmax: PimCost
    output: PimCost
    predict: PimCost
    router: PimCost
    kv: PimCost

    def phases(self) -> dict[str, PimCost]:
        """The row as the phases a token sums, in the order it sums them:
        qkvo, mha (score + softmax + output), predict, router and kv."""
        return {"qkvo": self.qkvo, "mha": self.score + self.softmax + self.output,
                "predict": self.predict, "router": self.router, "kv": self.kv}


def token_dram_cost(cfg: ModelConfig, geo: DramGeometry, timing: DramTiming,
                    cm: BitSerialCostModel, bits: int = 8,
                    dim_lr: int | None = None) -> LayerDramCost:
    """One decoder layer's QKVO, attention and sparsity prediction (plus
    routing and the KV append) for one generated token, attending over a
    full seq_len-deep cache. It depends only on the model, the DRAM device
    and the element width, so a scenario costs it once."""
    if dim_lr is None:
        dim_lr = default_dim_lr(cfg.dim_e)
    mha = mha_cost(cfg.seq_len, cfg.dim_e, cfg.n_heads, bits, geo, timing, cm)
    router = ZERO_COST
    if cfg.n_expert > 1:
        router = bitserial_gemm_cost(cfg.batch, cfg.dim_e, cfg.n_expert, bits,
                                     geo, timing, cm, include_b_layout=False)
    return LayerDramCost(
        position=cfg.seq_len, qkvo=qkvo_cost(cfg.dim_e, bits, geo, timing, cm, cfg.batch),
        score=mha["score"], softmax=mha["softmax"], output=mha["output"],
        predict=predictor_cost(cfg.dim_e, dim_lr, cfg.dim_h, bits, geo, timing, cm,
                               cfg.batch) * cfg.top_k,
        router=router, kv=kv_append_cost(cfg.dim_e, max(1, bits // 8), geo, timing))
