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


@dataclass
class FeatureMap:
    """One branch's features on a token grid: tensor [c, h, w]."""

    tensor: Tensor

    def __post_init__(self):
        if self.tensor.ndim != 3 or min(self.tensor.shape) < 1:
            raise ShapeError(f"feature map must be a non-empty [c, h, w], got {self.tensor.shape}")

    @property
    def grid(self) -> tuple[int, int]:
        return self.tensor.shape[1:]

    @property
    def channels(self) -> int:
        return self.tensor.shape[0]

    @property
    def token_count(self) -> int:
        return self.grid[0] * self.grid[1]


def tokens_of(f: FeatureMap) -> Tensor:
    """Row-major flatten of the grid: [c, h, w] -> [h*w, c]."""
    c = f.channels
    return eg.transpose(eg.reshape(f.tensor, (c, f.token_count)), (1, 0))


def map_of(tokens: Tensor, grid: tuple[int, int]) -> FeatureMap:
    h, w = grid
    c = tokens.shape[-1]
    return FeatureMap(eg.reshape(eg.transpose(tokens, (1, 0)), (c, h, w)))


# -- weight containers ------------------------------------------------------


@dataclass
class PatchEmbedWeights:
    weight: Tensor  # [c_out, c_in, k, k]
    bias: Tensor
    gamma: Tensor
    beta: Tensor


@dataclass
class BlockWeights:
    norm1_gamma: Tensor
    norm1_beta: Tensor
    q_weight: Tensor
    q_bias: Tensor
    k_weight: Tensor
    k_bias: Tensor
    v_weight: Tensor
    v_bias: Tensor
    out_weight: Tensor
    out_bias: Tensor
    norm2_gamma: Tensor
    norm2_beta: Tensor
    fc1_weight: Tensor
    fc1_bias: Tensor
    pe_weight: Tensor  # depthwise 3x3 on the hidden channels
    pe_bias: Tensor
    fc2_weight: Tensor
    fc2_bias: Tensor
    reduce_weight: Tensor | None = None  # present only when reduction > 1
    reduce_bias: Tensor | None = None
    reduce_gamma: Tensor | None = None
    reduce_beta: Tensor | None = None


@dataclass
class MixMlpWeights:
    channel_weight: Tensor  # [c, c], shared across positions
    channel_bias: Tensor
    spatial_weight: Tensor  # [n_tokens, n_tokens], shared across channels
    spatial_bias: Tensor


@dataclass
class HeadWeights:
    blocks: list[MixMlpWeights]
    out_weight: Tensor  # [c, out_channels]
    out_bias: Tensor


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


def initial_value(rng, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    """A fresh parameter by its name: truncated normal (std 0.02, clipped at
    two sigma) for weights, ones for layer-norm gains, zeros otherwise.  Only
    weights draw from `rng`.

    Head spatial mixing starts at identity, so a fresh head is translation-
    equivariant and its signal is not crushed by two stacked near-zero maps.
    The identity acts on the channel ReLU's non-negative output, which the
    leaky activation after it passes unchanged, as a plain ReLU would.
    """
    if name.endswith("spatial_weight"):
        return np.eye(shape[0], dtype=dtype)
    if name.endswith("weight"):
        return eg.truncated_normal(rng, shape, std=0.02, dtype=dtype)
    return (np.ones if name.endswith("gamma") else np.zeros)(shape, dtype=dtype)


def _init(rng, shapes: dict[str, tuple[int, ...]], dtype) -> dict[str, Tensor]:
    return {name: eg.parameter(initial_value(rng, name, shape, dtype)) for name, shape in shapes.items()}


def init_patch_embed(rng, c_in: int, c_out: int, kernel: int, dtype=np.float32) -> PatchEmbedWeights:
    return PatchEmbedWeights(**_init(rng, patch_embed_shapes(c_in, c_out, kernel), dtype))


def init_block_weights(rng, cfg: AttnConfig, dtype=np.float32) -> BlockWeights:
    return BlockWeights(**_init(rng, block_shapes(cfg), dtype))


def init_mix_mlp(rng, c: int, n_tokens: int, dtype=np.float32) -> MixMlpWeights:
    return MixMlpWeights(**_init(rng, mix_mlp_shapes(c, n_tokens), dtype))


# -- operations ---------------------------------------------------------------


def patch_embed(img: Tensor, weights: PatchEmbedWeights, stride: int,
                pad_kind: str = "zeros") -> FeatureMap:
    """Overlapping-patch embedding: strided conv then per-position layer norm."""
    k = weights.weight.shape[-1]
    pad = PadMode.same(pad_kind, k)
    h, w = img.shape[1], img.shape[2]
    if h % stride or w % stride:
        raise ShapeError(f"input {h}x{w} not divisible by stride {stride}")
    out = eg.conv2d(img, weights.weight, weights.bias, stride=stride, pad=pad)
    out = eg.layer_norm(out, weights.gamma, weights.beta, axis=0)
    return FeatureMap(out)


def _kv_tokens(f: FeatureMap, cfg: AttnConfig, w: BlockWeights) -> Tensor:
    """Key/value source tokens, spatially reduced when cfg.reduction > 1."""
    r = cfg.reduction
    if r == 1:
        return tokens_of(f)
    h, wd = f.grid
    if h % r or wd % r:
        raise ShapeError(f"reduction {r} does not divide grid {f.grid}")
    red = eg.conv2d(f.tensor, w.reduce_weight, w.reduce_bias, stride=r, pad=PadMode.valid())
    tok = tokens_of(FeatureMap(red))
    return eg.layer_norm(tok, w.reduce_gamma, w.reduce_beta, axis=-1)


def _split_heads(tok: Tensor, cfg: AttnConfig) -> Tensor:
    n = tok.shape[0]
    return eg.transpose(eg.reshape(tok, (n, cfg.heads, cfg.head_dim)), (1, 0, 2))


def _merge_heads(att: Tensor, cfg: AttnConfig) -> Tensor:
    t = att.shape[1]
    return eg.reshape(eg.transpose(att, (1, 0, 2)), (t, cfg.dim))


def qkv_project(f: FeatureMap, which: str, cfg: AttnConfig, weights: BlockWeights) -> Tensor:
    """Project one branch's features to per-head tokens [heads, tokens, head_dim].

    Queries keep the full grid; keys/values see the reduced grid.
    """
    if f.channels != cfg.dim:
        raise ShapeError(f"feature dim {f.channels} != config dim {cfg.dim}")
    if which == "q":
        tok = tokens_of(f)
        proj = eg.linear(tok, weights.q_weight, weights.q_bias)
    elif which == "k":
        proj = eg.linear(_kv_tokens(f, cfg, weights), weights.k_weight, weights.k_bias)
    elif which == "v":
        proj = eg.linear(_kv_tokens(f, cfg, weights), weights.v_weight, weights.v_bias)
    else:
        raise ValueError(f"which must be q/k/v, got {which!r}")
    return _split_heads(proj, cfg)


def attention(q: Tensor, k: Tensor, v: Tensor, head_dim: int) -> Tensor:
    """Scaled dot-product attention; accepts [t, d] or [heads, t, d]."""
    if q.shape[-1] != head_dim or k.shape[-1] != head_dim or v.shape[-1] != head_dim:
        raise ShapeError(f"head dim mismatch: {q.shape}, {k.shape}, {v.shape} vs {head_dim}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("key/value token counts differ")
    squeeze = q.ndim == 2
    if squeeze:
        q = eg.reshape(q, (1, *q.shape))
        k = eg.reshape(k, (1, *k.shape))
        v = eg.reshape(v, (1, *v.shape))
    scores = eg.mul(eg.matmul(q, eg.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(head_dim))
    out = eg.matmul(eg.softmax_last_dim(scores), v)
    if squeeze:
        out = eg.reshape(out, out.shape[1:])
    return out


def _norm1(f: FeatureMap, weights: BlockWeights) -> FeatureMap:
    return FeatureMap(eg.layer_norm(f.tensor, weights.norm1_gamma, weights.norm1_beta, axis=0))


def _attended_residual(f_raw: FeatureMap, f_q: FeatureMap, f_kv: FeatureMap,
                       cfg: AttnConfig, weights: BlockWeights) -> FeatureMap:
    """f_raw + out_proj(Attn(q(f_q), k(f_kv), v(f_kv))) on f_q's grid."""
    q = qkv_project(f_q, "q", cfg, weights)
    k = qkv_project(f_kv, "k", cfg, weights)
    v = qkv_project(f_kv, "v", cfg, weights)
    att = attention(q, k, v, cfg.head_dim)
    out_tok = eg.linear(_merge_heads(att, cfg), weights.out_weight, weights.out_bias)
    delta = map_of(out_tok, f_q.grid)
    return FeatureMap(eg.add(f_raw.tensor, delta.tensor))


def eoc_attention(f_z: FeatureMap | None, f_x: FeatureMap | None, mode: str, cfg: AttnConfig,
                  weights: BlockWeights, pre_norm: bool = True,
                  ) -> tuple[FeatureMap | None, FeatureMap | None]:
    """Attention sub-layer updating both branches with shared weights.

    SA lets each branch attend to itself; CA takes queries from one branch
    and keys/values from the other.  Both updates read the pre-update
    features and add the attended values back as a residual.  In SA mode
    either branch may be None, and is returned as None: the other branch's
    update does not read it.  `pre_norm` can be dropped to expose the bare
    update (used by the dynamic-conv equivalence checks).
    """
    if mode not in (SA, CA):
        raise ValueError(f"mode must be '{SA}' or '{CA}'")
    if mode == CA and (f_z is None or f_x is None):
        raise ValueError("cross-attention needs both branches")
    if f_z is not None and f_x is not None and f_z.channels != f_x.channels:
        raise ShapeError(f"branch channels differ: {f_z.channels} vs {f_x.channels}")

    nz = _norm1(f_z, weights) if pre_norm and f_z is not None else f_z
    nx = _norm1(f_x, weights) if pre_norm and f_x is not None else f_x
    if mode == SA:
        return tuple(None if f is None else _attended_residual(f, n, n, cfg, weights)
                     for f, n in ((f_z, nz), (f_x, nx)))
    return (_attended_residual(f_z, nz, nx, cfg, weights),
            _attended_residual(f_x, nx, nz, cfg, weights))


def mlp_cond_pe(f: FeatureMap, weights: BlockWeights, pad_kind: str = "zeros") -> FeatureMap:
    """Token MLP with a 3x3 depthwise conv injecting position before GELU."""
    hidden = eg.linear(tokens_of(f), weights.fc1_weight, weights.fc1_bias)
    hmap = map_of(hidden, f.grid)
    hmap = FeatureMap(eg.depthwise_conv2d(hmap.tensor, weights.pe_weight, weights.pe_bias,
                                          pad=PadMode.same(pad_kind, 3)))
    out = eg.linear(tokens_of(FeatureMap(eg.gelu(hmap.tensor))), weights.fc2_weight, weights.fc2_bias)
    return map_of(out, f.grid)


def _mlp_residual(f: FeatureMap, weights: BlockWeights, pad_kind: str) -> FeatureMap:
    n = FeatureMap(eg.layer_norm(f.tensor, weights.norm2_gamma, weights.norm2_beta, axis=0))
    return FeatureMap(eg.add(f.tensor, mlp_cond_pe(n, weights, pad_kind).tensor))


def eoc_block(f_z: FeatureMap | None, f_x: FeatureMap | None, mode: str, cfg: AttnConfig,
              weights: BlockWeights, pad_kind: str = "zeros",
              ) -> tuple[FeatureMap | None, FeatureMap | None]:
    """Full extract-or-correlate block: attention then conditional-PE MLP.

    In SA mode a branch given as None is skipped and returned as None, so
    `eoc_block(f, None, SA, ...)[0]` runs one image alone (the classifier,
    and the template before its first CA block).
    """
    return tuple(None if f is None else _mlp_residual(f, weights, pad_kind)
                 for f in eoc_attention(f_z, f_x, mode, cfg, weights))


def mix_mlp_block(f: FeatureMap, weights: MixMlpWeights) -> FeatureMap:
    """Prediction-head block: channel mixing (linear+ReLU), then spatial mixing
    (linear+leaky ReLU, so that a token negative in every channel still passes
    a gradient to its spatial weights and bias and to everything upstream)."""
    n_tokens = f.token_count
    if weights.spatial_weight.shape[0] != n_tokens:
        raise ShapeError(
            f"spatial mixing weight expects {weights.spatial_weight.shape[0]} tokens, got {n_tokens}")
    tok = tokens_of(f)
    mixed_c = eg.relu(eg.linear(tok, weights.channel_weight, weights.channel_bias))
    by_channel = eg.transpose(mixed_c, (1, 0))  # [c, n_tokens]
    mixed_s = eg.leaky_relu(eg.linear(by_channel, weights.spatial_weight, weights.spatial_bias),
                            SPATIAL_LEAK)
    return map_of(eg.transpose(mixed_s, (1, 0)), f.grid)


def head_forward(f: FeatureMap, head: HeadWeights) -> Tensor:
    """Stacked mix-MLP blocks then a per-token linear map; returns [out_c, h, w]."""
    cur = f
    for blk in head.blocks:
        cur = mix_mlp_block(cur, blk)
    out_tok = eg.linear(tokens_of(cur), head.out_weight, head.out_bias)
    return map_of(out_tok, f.grid).tensor
