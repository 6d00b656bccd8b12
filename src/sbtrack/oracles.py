"""Independent checks of the architecture's theoretical properties.

Cross-attention between template and search features decomposes into two
dynamic convolutions around a softmax: reshaping the template along its
channel axis yields a bank of 1x1 filters whose response to the search map
is the token-similarity volume; reshaping it along the spatial axis yields
the filters that synthesize the output from the attention weights.  The
depthwise and pixelwise correlation baselines apply a template-derived
filter bank exactly once, which is the structural contrast probed here.

Everything in this module is plain numpy, deliberately sharing no code
with the attention path it is used to verify.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as md
from .blocks import FeatureMap
from .engine import ShapeError, no_grad

__all__ = [
    "apply_pointwise_filters",
    "ca_as_dynamic_conv",
    "depthwise_correlation",
    "pixelwise_correlation",
    "shift_equivariance_probe",
    "serial_hierarchy_trace",
    "SerialTrace",
    "OracleResult",
    "run_all_oracles",
]


def _as_array(f) -> np.ndarray:
    if isinstance(f, FeatureMap):
        return np.asarray(f.tensor.data)
    if hasattr(f, "data"):
        return np.asarray(f.data)
    return np.asarray(f)


def apply_pointwise_filters(filters: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dynamic 1x1 convolution: filters [m, c] applied to x [c, h, w] -> [m, h, w]."""
    if filters.ndim != 2 or x.ndim != 3 or filters.shape[1] != x.shape[0]:
        raise ShapeError(f"pointwise filters {filters.shape} do not fit input {x.shape}")
    c, h, w = x.shape
    return (filters @ x.reshape(c, h * w)).reshape(filters.shape[0], h, w)


def ca_as_dynamic_conv(z, x, z_values=None, temperature: float | None = None) -> np.ndarray:
    """Cross-attention update of the search branch built from two dynamic
    filter applications and a softmax.

    With identity projections this must match the attention path exactly:
    out[:, p] = x[:, p] + sum_n softmax_n(<z_n, x_p> / sqrt(c)) * z_n.
    The attention temperature is folded into the first filter bank.
    `z_values` substitutes a separate value template (projected-weights
    variant); `temperature` overrides the default 1/sqrt(c).
    """
    z = _as_array(z)
    x = _as_array(x)
    zv = z if z_values is None else _as_array(z_values)
    if z.ndim != 3 or x.ndim != 3:
        raise ShapeError("expected [c, h, w] feature maps")
    if z.shape[0] != x.shape[0] or zv.shape != z.shape:
        raise ShapeError(f"channel mismatch: z {z.shape}, x {x.shape}")
    c = z.shape[0]
    n_z = z.shape[1] * z.shape[2]
    scale = (1.0 / np.sqrt(c)) if temperature is None else temperature

    # First dynamic conv: template reshaped along the channel axis becomes
    # n_z pointwise filters, scaled by the attention temperature.
    similarity_bank = z.reshape(c, n_z).T * scale
    inter = apply_pointwise_filters(similarity_bank, x)  # [n_z, hx, wx]

    # Softmax over the template-token axis at every search position.
    shifted = inter - inter.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    attn = e / e.sum(axis=0, keepdims=True)

    # Second dynamic conv: template reshaped along the spatial axis
    # synthesizes the output from the attention weights; residual add.
    synthesis_bank = zv.reshape(c, n_z)
    return apply_pointwise_filters(synthesis_bank, attn) + x


def depthwise_correlation(z, x) -> np.ndarray:
    """Per-channel valid cross-correlation, template as kernel.

    z [c, hz, wz], x [c, hx, wx] -> [c, hx-hz+1, wx-wz+1].  Exactly one
    template-derived dynamic filter application.
    """
    z = _as_array(z)
    x = _as_array(x)
    if z.ndim != 3 or x.ndim != 3 or z.shape[0] != x.shape[0]:
        raise ShapeError(f"operand shapes disagree: {z.shape} vs {x.shape}")
    c, hz, wz = z.shape
    _, hx, wx = x.shape
    if hz > hx or wz > wx:
        raise ShapeError("template larger than search region")
    win = np.lib.stride_tricks.sliding_window_view(x, (hz, wz), axis=(1, 2))
    return np.einsum("chwab,cab->chw", win, z)


def pixelwise_correlation(z, x) -> np.ndarray:
    """Each template pixel's channel vector dotted with every search position.

    z [c, hz, wz], x [c, hx, wx] -> [hz*wz, hx, wx].  Also a single dynamic
    filter application (the similarity bank of `ca_as_dynamic_conv`,
    without temperature).
    """
    z = _as_array(z)
    x = _as_array(x)
    if z.ndim != 3 or x.ndim != 3 or z.shape[0] != x.shape[0]:
        raise ShapeError(f"operand shapes disagree: {z.shape} vs {x.shape}")
    c = z.shape[0]
    return apply_pointwise_filters(z.reshape(c, -1).T, x)


def shift_equivariance_probe(model, z, x, dy: int, dx: int) -> float:
    """Max residual between tracking the shifted search image and shifting
    the foreground map: |forward(z, shift(x)) - shift(forward(z, x))|.

    Shifts are circular and must be multiples of the total stride; the
    model pads as its config's `pad_mode` says.
    """
    stride = model.config.total_stride
    if dy % stride or dx % stride:
        raise ValueError(f"shift ({dy}, {dx}) not a multiple of total stride {stride}")
    z = np.asarray(z)
    x = np.asarray(x)
    with no_grad():
        cls_ref, _ = md.forward(model, z, x)
        cls_shift, _ = md.forward(model, z, np.roll(x, (dy, dx), axis=(1, 2)))
    expected = np.roll(cls_ref.data, (dy // stride, dx // stride), axis=(1, 2))
    return float(np.abs(cls_shift.data - expected).max())


@dataclass
class SerialTrace:
    """Features captured after each correlation block, shallow to deep."""

    positions: list[tuple[int, int]]  # (stage, block), 1-based
    template: list[np.ndarray]
    search: list[np.ndarray]
    recomposition_residual: float

    @property
    def levels(self) -> int:
        return len(self.positions)


def serial_hierarchy_trace(model, z, x) -> SerialTrace:
    """Snapshot both branches after every correlation block and verify the
    serial pipeline recomposes: resuming the forward pass from each snapshot
    reproduces the final prediction bit-exactly."""
    import sbtrack.engine as eg

    cfg = model.config
    ca_blocks = [(si, bi) for si, st in enumerate(cfg.stages, 1) for bi in st.ca_positions]
    if len(ca_blocks) < 3:
        raise ValueError(f"need >= 3 correlation blocks for a hierarchy, config has {len(ca_blocks)}")
    trace: dict = {}
    with no_grad():
        fz, fx = md.run_backbone(model, z, x, trace=trace)
        cls_ref, reg_ref = md.run_heads(model, fz, fx)
        residual = 0.0
        for si, bi in ca_blocks:
            snap_z, snap_x = (
                md.BranchState(FeatureMap(eg.tensor(trace[("block", si, bi, b)])), (si, bi))
                for b in ("z", "x"))
            rz, rx = md.run_backbone(model, snap_z, snap_x)
            cls2, reg2 = md.run_heads(model, rz, rx)
            residual = max(residual,
                           float(np.abs(cls2.data - cls_ref.data).max()),
                           float(np.abs(reg2.data - reg_ref.data).max()))
    return SerialTrace(
        positions=ca_blocks,
        template=[trace[("block", si, bi, "z")] for si, bi in ca_blocks],
        search=[trace[("block", si, bi, "x")] for si, bi in ca_blocks],
        recomposition_residual=residual,
    )


# -- aggregated pass/fail table -------------------------------------------------


@dataclass
class OracleResult:
    name: str
    passed: bool
    value: float
    threshold: str
    detail: str = ""

    def row(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status:4s}  {self.name:38s} {self.value:12.3e}  {self.threshold}"


def _eq8_equivalence(rng, trials: int) -> OracleResult:
    from . import blocks as bl
    from . import engine as eg

    worst = 0.0
    for _ in range(trials):
        c = int(rng.choice([8, 16]))
        hz, wz = rng.integers(2, 9, size=2)
        hx, wx = rng.integers(2, 9, size=2)
        z = rng.standard_normal((c, hz, wz)).astype(np.float32)
        x = rng.standard_normal((c, hx, wx)).astype(np.float32)

        cfg = bl.AttnConfig(dim=c, heads=1, reduction=1)
        w = bl.init_params(rng, bl.block_shapes(cfg))
        for proj in ("q", "k", "v", "out"):
            w[f"{proj}_weight"].data[:] = np.eye(c)
            w[f"{proj}_bias"].data[:] = 0
        with no_grad():
            _, fx = bl.eoc_attention(bl.FeatureMap(eg.tensor(z)), bl.FeatureMap(eg.tensor(x)),
                                     bl.CA, cfg, w, pre_norm=False)
        want = ca_as_dynamic_conv(z, x)
        worst = max(worst, float(np.abs(fx.tensor.data - want).max()))
    return OracleResult("cross-attention == two dynamic convs", worst < 1e-5, worst,
                        "< 1e-5", f"{trials} random pairs")


def _dwcorr_single_application(rng) -> OracleResult:
    from . import engine as eg

    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 8))
        z = rng.standard_normal((c, 4, 4)).astype(np.float32)
        x = rng.standard_normal((c, 9, 8)).astype(np.float32)
        ours = depthwise_correlation(z, x)
        with no_grad():
            other = eg.depthwise_xcorr(eg.tensor(z), eg.tensor(x)).data
        worst = max(worst, float(np.abs(ours - other).max()))
    return OracleResult("depthwise correlation cross-check", worst < 1e-4, worst, "< 1e-4",
                        "vs the differentiable path")


def _pixcorr_is_similarity_bank(rng) -> OracleResult:
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 8))
        z = rng.standard_normal((c, 3, 5)).astype(np.float32)
        x = rng.standard_normal((c, 7, 6)).astype(np.float32)
        a = pixelwise_correlation(z, x)
        b = apply_pointwise_filters(z.reshape(c, -1).T, x)
        worst = max(worst, float(np.abs(a - b).max()))
    return OracleResult("pixelwise correlation == similarity bank", worst == 0.0, worst,
                        "bit-exact")


def _shift_probes(rng) -> list[OracleResult]:
    cfg = md.with_reduction(md.tiny_config(), 1)
    zeros = md.build_model(cfg, seed=11)
    circular = md.build_model(replace(cfg, pad_mode="circular"), seed=11)  # same weights
    stride = cfg.total_stride
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    zero_res = shift_equivariance_probe(circular, z, x, 0, 0)
    circ = max(shift_equivariance_probe(circular, z, x, stride, 0),
               shift_equivariance_probe(circular, z, x, 0, stride))
    padded = max(shift_equivariance_probe(zeros, z, x, stride, 0),
                 shift_equivariance_probe(zeros, z, x, 0, stride))
    return [
        OracleResult("zero shift residual", zero_res == 0.0, zero_res, "== 0"),
        OracleResult("circular pad one-token shift", circ < 1e-3, circ, "< 1e-3"),
        OracleResult("zero pad breaks equivariance", padded > circ, padded, f"> {circ:.3e}",
                     "padding destroys strict translation invariance"),
    ]


def _serial_recomposition(rng) -> OracleResult:
    base = md.tiny_config()
    st3 = replace(base.stages[2], ca_positions=(1, 2, 4))
    cfg = replace(base, stages=(base.stages[0], base.stages[1], st3))
    model = md.build_model(cfg, seed=4)
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    tr = serial_hierarchy_trace(model, z, x)
    ok = tr.recomposition_residual == 0.0 and tr.levels == 3
    return OracleResult("serial hierarchy recomposition", ok, tr.recomposition_residual,
                        "bit-exact", f"{tr.levels} correlation levels")


def run_all_oracles(seed: int = 0, eq8_trials: int = 100) -> list[OracleResult]:
    """Every oracle in one table; used by the CLI and the acceptance suite."""
    rng = np.random.default_rng(seed)
    results = [
        _eq8_equivalence(rng, eq8_trials),
        _dwcorr_single_application(rng),
        _pixcorr_is_similarity_bank(rng),
    ]
    results.extend(_shift_probes(rng))
    results.append(_serial_recomposition(rng))
    return results
