"""Building layers of the single-branch tracking transformer.

A block either extracts (self-attention within one image's tokens) or
correlates (cross-attention between template and search tokens); both
variants share the same weights and the same pre-norm residual layout:

    f := f + Attn(LN(f))          # self or cross, spatial-reduction global
    f := f + MLP_condPE(LN(f))    # linear -> 3x3 depthwise -> GELU -> linear

Keys and values may be spatially reduced by an r-strided r x r convolution
followed by layer norm; queries keep full resolution.  The prediction-head
block mixes channels (weights shared over positions, then ReLU) and then
positions (weights shared over channels, then leaky ReLU).  The spatial
activation leaks because a token's spatial column and bias are shared by all
of its channels: training can push that token's pre-activation below zero in
every channel at once, and under a plain ReLU nothing upstream of it would
then get a gradient again.

A block takes and returns each branch's features as a plain [c, h, w]
Tensor, whose grid is `shape[1:]`; it flattens them to [h*w, c] tokens
(`tokens_of`) for the per-token linears and back (`map_of`) for the
convolutions and the residuals.  `attend` is the attention update without
its layer norm, which is the paper's cross-attention (eq. 8) on its own.  It
projects q, k and v itself: q from the query branch's tokens, and k and v
each from the key/value branch's `_kv_tokens`, so the reduction runs once
for k and once for v.

A block's weights are a plain dict: its entries of the model's parameter
table, keyed by the names of its shape table below (`w["q_weight"]`).  The
shape tables are the only place that knows a block's parameter layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine as eg
from .engine import PadMode, ShapeError, Tensor

SA = "sa"
CA = "ca"
SPATIAL_LEAK = 0.1  # negative slope of the head's activation after spatial mixing


@dataclass(frozen=True)
class AttnConfig:
    """Attention geometry: channel dim, head count, key/value reduction ratio."""

    dim: int
    heads: int
    reduction: int

    def __post_init__(self):
        if self.dim <= 0 or self.heads <= 0 or self.reduction < 1:
            raise ValueError(f"bad attention config {self}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


def _grid(f: Tensor) -> tuple[int, int]:
    """The token grid (h, w) of a [c, h, w] feature map."""
    if f.ndim != 3 or min(f.shape) < 1:
        raise ShapeError(f"feature map must be a non-empty [c, h, w], got {f.shape}")
    return f.shape[1:]


def tokens_of(f: Tensor) -> Tensor:
    """Row-major flatten of the grid: [c, h, w] -> [h*w, c]."""
    h, w = _grid(f)
    return eg.transpose(eg.reshape(f, (f.shape[0], h * w)), (1, 0))


def map_of(tokens: Tensor, grid: tuple[int, int]) -> Tensor:
    h, w = grid
    c = tokens.shape[-1]
    return eg.reshape(eg.transpose(tokens, (1, 0)), (c, h, w))


# -- parameter tables ({field: shape} in field order) and initialization ------


def patch_embed_shapes(c_in: int, c_out: int, kernel: int) -> dict[str, tuple[int, ...]]:
    return {"weight": (c_out, c_in, kernel, kernel), "bias": (c_out,), "gamma": (c_out,),
            "beta": (c_out,)}


def block_shapes(cfg: AttnConfig) -> dict[str, tuple[int, ...]]:
    c, hidden, r = cfg.dim, 4 * cfg.dim, cfg.reduction
    shapes = {"norm1_gamma": (c,), "norm1_beta": (c,)}
    for proj in ("q", "k", "v", "out"):
        shapes.update({f"{proj}_weight": (c, c), f"{proj}_bias": (c,)})
    shapes.update(norm2_gamma=(c,), norm2_beta=(c,), fc1_weight=(c, hidden), fc1_bias=(hidden,),
                  pe_weight=(hidden, 3, 3), pe_bias=(hidden,), fc2_weight=(hidden, c), fc2_bias=(c,))
    if r > 1:
        shapes.update(reduce_weight=(c, c, r, r), reduce_bias=(c,), reduce_gamma=(c,), reduce_beta=(c,))
    return shapes


def mix_mlp_shapes(c: int, n_tokens: int) -> dict[str, tuple[int, ...]]:
    return {"channel_weight": (c, c), "channel_bias": (c,), "spatial_weight": (n_tokens, n_tokens),
            "spatial_bias": (n_tokens,)}


_INIT_STD = 0.02  # std of the truncated-normal weight init
_INIT_BOUND = 2.0  # its draws beyond this many std are drawn again


def _truncated_normal(rng, shape: tuple[int, ...]) -> np.ndarray:
    out = rng.standard_normal(shape)
    bad = np.abs(out) > _INIT_BOUND
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > _INIT_BOUND
    return (out * _INIT_STD).astype(np.float32)


def initial_value(rng, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh float32 parameter by its name: truncated normal (std 0.02,
    clipped at two sigma) for weights, ones for layer-norm gains, zeros
    otherwise.  Only weights draw from `rng`.

    Head spatial mixing starts at identity, so a fresh head is translation-
    equivariant and its signal is not crushed by two stacked near-zero maps.
    The identity acts on the channel ReLU's non-negative output, which the
    leaky activation after it passes unchanged, as a plain ReLU would.
    """
    if name.endswith("spatial_weight"):
        return np.eye(shape[0], dtype=np.float32)
    if name.endswith("weight"):
        return _truncated_normal(rng, shape)
    return (np.ones if name.endswith("gamma") else np.zeros)(shape, dtype=np.float32)


def init_params(rng, shapes: dict[str, tuple[int, ...]]) -> dict[str, Tensor]:
    """A fresh parameter for every entry of a shape table, drawn in its order."""
    return {name: eg.parameter(initial_value(rng, name, shape)) for name, shape in shapes.items()}


# -- operations ---------------------------------------------------------------


def patch_embed(img: Tensor, w: dict[str, Tensor], stride: int, pad_kind: str) -> Tensor:
    """Overlapping-patch embedding: strided conv then per-position layer norm."""
    pad = PadMode.same(pad_kind, w["weight"].shape[-1])
    h, wd = img.shape[1], img.shape[2]
    if h % stride or wd % stride:
        raise ShapeError(f"input {h}x{wd} not divisible by stride {stride}")
    out = eg.conv2d(img, w["weight"], w["bias"], stride=stride, pad=pad)
    return eg.layer_norm(out, w["gamma"], w["beta"], axis=0)


def _kv_tokens(f: Tensor, cfg: AttnConfig, w: dict[str, Tensor]) -> Tensor:
    """Key/value source tokens, spatially reduced when cfg.reduction > 1."""
    r = cfg.reduction
    if r == 1:
        return tokens_of(f)
    h, wd = _grid(f)
    if h % r or wd % r:
        raise ShapeError(f"reduction {r} does not divide grid {(h, wd)}")
    red = eg.conv2d(f, w["reduce_weight"], w["reduce_bias"], stride=r, pad=PadMode.zeros(0))
    return eg.layer_norm(tokens_of(red), w["reduce_gamma"], w["reduce_beta"], axis=-1)


def _split_heads(tok: Tensor, cfg: AttnConfig) -> Tensor:
    n = tok.shape[0]
    return eg.transpose(eg.reshape(tok, (n, cfg.heads, cfg.head_dim)), (1, 0, 2))


def _merge_heads(att: Tensor, cfg: AttnConfig) -> Tensor:
    t = att.shape[1]
    return eg.reshape(eg.transpose(att, (1, 0, 2)), (t, cfg.dim))


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention over [heads, t, d] queries, keys and values; d is q's."""
    if not q.shape[-1] == k.shape[-1] == v.shape[-1]:
        raise ShapeError(f"head dim mismatch: {q.shape}, {k.shape}, {v.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("key/value token counts differ")
    scores = eg.mul(eg.matmul(q, eg.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    return eg.matmul(eg.softmax_last_dim(scores), v)


def attend(f: Tensor, f_q: Tensor, f_kv: Tensor, cfg: AttnConfig, w: dict[str, Tensor]) -> Tensor:
    """f + out_proj(Attn(q(f_q), k(f_kv), v(f_kv))) on f_q's grid: the
    attention update without its layer norm (eq. 8 of the paper when the
    projections are identities).  q, k and v are per-head tokens
    [heads, tokens, head_dim]."""
    for g in (f_q, f_kv):
        if g.shape[0] != cfg.dim:
            raise ShapeError(f"feature dim {g.shape[0]} != config dim {cfg.dim}")
    q = _split_heads(eg.linear(tokens_of(f_q), w["q_weight"], w["q_bias"]), cfg)
    k = _split_heads(eg.linear(_kv_tokens(f_kv, cfg, w), w["k_weight"], w["k_bias"]), cfg)
    v = _split_heads(eg.linear(_kv_tokens(f_kv, cfg, w), w["v_weight"], w["v_bias"]), cfg)
    att = attention(q, k, v)
    out_tok = eg.linear(_merge_heads(att, cfg), w["out_weight"], w["out_bias"])
    return eg.add(f, map_of(out_tok, f_q.shape[1:]))


def eoc_attention(f_z: Tensor | None, f_x: Tensor | None, mode: str, cfg: AttnConfig,
                  w: dict[str, Tensor]) -> tuple[Tensor | None, Tensor | None]:
    """Attention sub-layer updating both branches with shared weights.

    SA lets each branch attend to itself; CA takes queries from one branch
    and keys/values from the other.  Both updates read the layer-normed
    pre-update features and add the attended values back as a residual
    (`attend`).  In SA mode either branch may be None, and is returned as
    None: the other branch's update does not read it.
    """
    if mode not in (SA, CA):
        raise ValueError(f"mode must be '{SA}' or '{CA}'")
    if mode == CA and (f_z is None or f_x is None):
        raise ValueError("cross-attention needs both branches")
    if f_z is not None and f_x is not None and f_z.shape[0] != f_x.shape[0]:
        raise ShapeError(f"branch channels differ: {f_z.shape[0]} vs {f_x.shape[0]}")

    nz, nx = (None if f is None else eg.layer_norm(f, w["norm1_gamma"], w["norm1_beta"], axis=0)
              for f in (f_z, f_x))
    if mode == SA:
        return tuple(None if f is None else attend(f, n, n, cfg, w)
                     for f, n in ((f_z, nz), (f_x, nx)))
    return attend(f_z, nz, nx, cfg, w), attend(f_x, nx, nz, cfg, w)


def mlp_cond_pe(f: Tensor, w: dict[str, Tensor], pad_kind: str) -> Tensor:
    """Token MLP with a 3x3 depthwise conv injecting position before GELU."""
    grid = _grid(f)
    hidden = map_of(eg.linear(tokens_of(f), w["fc1_weight"], w["fc1_bias"]), grid)
    hidden = eg.depthwise_conv2d(hidden, w["pe_weight"], w["pe_bias"], pad=PadMode.same(pad_kind, 3))
    out = eg.linear(tokens_of(eg.gelu(hidden)), w["fc2_weight"], w["fc2_bias"])
    return map_of(out, grid)


def _mlp_residual(f: Tensor, w: dict[str, Tensor], pad_kind: str) -> Tensor:
    n = eg.layer_norm(f, w["norm2_gamma"], w["norm2_beta"], axis=0)
    return eg.add(f, mlp_cond_pe(n, w, pad_kind))


def eoc_block(f_z: Tensor | None, f_x: Tensor | None, mode: str, cfg: AttnConfig,
              w: dict[str, Tensor], pad_kind: str,
              ) -> tuple[Tensor | None, Tensor | None]:
    """Full extract-or-correlate block: attention then conditional-PE MLP.

    In SA mode a branch given as None is skipped and returned as None, so
    `eoc_block(f, None, SA, ...)[0]` runs one image alone (the classifier,
    and the template before its first CA block).
    """
    return tuple(None if f is None else _mlp_residual(f, w, pad_kind)
                 for f in eoc_attention(f_z, f_x, mode, cfg, w))


def mix_mlp_block(f: Tensor, w: dict[str, Tensor]) -> Tensor:
    """Prediction-head block: channel mixing (linear+ReLU), then spatial mixing
    (linear+leaky ReLU, so that a token negative in every channel still passes
    a gradient to its spatial weights and bias and to everything upstream)."""
    grid = _grid(f)
    n_tokens = grid[0] * grid[1]
    expected = w["spatial_weight"].shape[0]
    if expected != n_tokens:
        raise ShapeError(f"spatial mixing weight expects {expected} tokens, got {n_tokens}")
    tok = tokens_of(f)
    mixed_c = eg.relu(eg.linear(tok, w["channel_weight"], w["channel_bias"]))
    by_channel = eg.transpose(mixed_c, (1, 0))  # [c, n_tokens]
    mixed_s = eg.leaky_relu(eg.linear(by_channel, w["spatial_weight"], w["spatial_bias"]),
                            SPATIAL_LEAK)
    return map_of(eg.transpose(mixed_s, (1, 0)), grid)


def head_forward(f: Tensor, blocks: list[dict[str, Tensor]], out: dict[str, Tensor]) -> Tensor:
    """Stacked mix-MLP blocks then the per-token linear map `out` (its
    `out_weight` and `out_bias`); returns [out_c, h, w]."""
    cur = f
    for w in blocks:
        cur = mix_mlp_block(cur, w)
    out_tok = eg.linear(tokens_of(cur), out["out_weight"], out["out_bias"])
    return map_of(out_tok, _grid(f))
