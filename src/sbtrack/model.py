"""Model assembly: stage configs, presets, the two-image forward pass.

A model is a stack of stages; each stage is a strided-conv patch embedding
followed by `depth` extract-or-correlate blocks.  Template and search
images run through the same weights ("one stream in structure, two streams
in data flow"); blocks listed in `ca_positions` correlate the branches,
all others extract within a branch.  The fused search features feed two
mix-MLP prediction heads: a 1-channel foreground map and a 4-channel
left/top/right/bottom distance map, both through a sigmoid.

A `ModelConfig` checks itself when it is made, so every config that exists
describes a buildable model; `weights` stores it in the weight file as the
JSON of `dataclasses.asdict`, and `config_from_dict` reads it back.

The weights are one parameter table, `parameter_shapes(config)`: each name
is an owner ("stage2.block1") and a field of that owner's shape table in
`blocks` ("q_weight").  A block reads its owner's entries as a dict keyed
by those fields; the weight file, building and loading use the full names.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import blocks as bl
from . import engine as eg
from .blocks import CA, SA, AttnConfig
from .engine import ShapeError, Tensor


class ConfigError(ValueError):
    """Raised for inconsistent model configurations."""


def _check_ints(cfg, names: tuple[str, ...]) -> None:
    """Raise `ConfigError` unless each field of `cfg` in `names` is an int,
    or a tuple of ints; a bool or an integral float is not one."""
    for name in names:
        value = getattr(cfg, name)
        if any(type(v) is not int for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class StageConfig:
    """One stage: patch embedding geometry plus its block stack."""

    kernel: int
    channels: int
    stride: int
    depth: int
    heads: int
    reduction: int
    ca_positions: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ca_positions", tuple(sorted(self.ca_positions)))
        _check_ints(self, ("kernel", "channels", "stride", "depth", "heads", "reduction",
                           "ca_positions"))

    @property
    def attn(self) -> AttnConfig:
        return AttnConfig(dim=self.channels, heads=self.heads, reduction=self.reduction)


@dataclass(frozen=True)
class ModelConfig:
    name: str
    stages: tuple[StageConfig, ...]
    template_size: int = 128
    search_size: int = 256
    head_depth: int = 2
    pad_mode: str = "zeros"
    num_classes: int = 0  # > 0 selects the single-branch classification variant
    head_input: str = "search"  # "search" | "dwcorr" (Siamese-style baseline head)

    @property
    def total_stride(self) -> int:
        s = 1
        for st in self.stages:
            s *= st.stride
        return s

    @property
    def is_classifier(self) -> bool:
        return self.num_classes > 0

    def search_grid(self) -> tuple[int, int]:
        g = self.search_size // self.total_stride
        return (g, g)

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ConfigError("at least one stage required")
        _check_ints(self, ("template_size", "search_size", "head_depth", "num_classes"))
        if self.pad_mode not in ("zeros", "circular"):
            raise ConfigError(f"pad_mode must be zeros/circular, got {self.pad_mode!r}")
        if self.head_input not in ("search", "dwcorr"):
            raise ConfigError(f"head_input must be search/dwcorr, got {self.head_input!r}")
        if self.num_classes < 0 or self.head_depth < 0:
            raise ConfigError(f"num_classes and head_depth must be >= 0, got {self.num_classes}, "
                              f"{self.head_depth}")
        if min(self.template_size, self.search_size) < 1:
            raise ConfigError(f"image sizes must be >= 1, got template {self.template_size}, "
                              f"search {self.search_size}")
        for i, st in enumerate(self.stages, 1):
            if st.stride not in (1, 2, 4):
                raise ConfigError(f"stage {i}: stride must be 1, 2 or 4")
            if st.kernel % 2 == 0 or st.kernel < st.stride:
                raise ConfigError(f"stage {i}: kernel must be odd and >= stride")
            if st.depth < 1:
                raise ConfigError(f"stage {i}: depth must be >= 1")
            bad = [p for p in st.ca_positions if not 1 <= p <= st.depth]
            if bad:
                raise ConfigError(f"stage {i}: ca_positions {bad} outside 1..{st.depth}")
            try:
                st.attn
            except ValueError as exc:  # channels not divisible by heads, and the like
                raise ConfigError(f"stage {i}: {exc}") from exc
        if self.is_classifier and any(st.ca_positions for st in self.stages):
            raise ConfigError("classification variant runs one branch; ca_positions must be empty")
        for size, label in ((self.template_size, "template"), (self.search_size, "search")):
            grid = size
            for i, st in enumerate(self.stages, 1):
                if grid % st.stride:
                    raise ConfigError(f"{label} size {size}: stage {i} stride does not divide grid {grid}")
                grid //= st.stride
                if st.reduction > 1 and grid % st.reduction:
                    raise ConfigError(
                        f"{label} size {size}: stage {i} reduction {st.reduction} does not divide grid {grid}")


# -- presets -----------------------------------------------------------------

# One row per published scale, holding only what differs between them: stage
# 1-3 (channels, depth), the stage-3 CA blocks, and the channels of the
# classification variant's stage 4.  Kernels, strides, heads and reductions
# are shared.
_SCALES = {
    "light": (((32, 2), (64, 2), (160, 6)), (2, 4, 6), 256),
    "small": (((64, 2), (128, 2), (320, 6)), (2, 4, 6), 512),
    "base": (((64, 3), (128, 4), (320, 10)), (2, 4, 6, 8, 10), 512),
    "large": (((64, 3), (128, 4), (320, 18)), (6, 8, 10, 12, 14, 16, 18), 512),
}


def _scale_config(name: str) -> ModelConfig:
    ((c1, d1), (c2, d2), (c3, d3)), ca, _ = _SCALES[name]
    stages = (
        StageConfig(kernel=7, channels=c1, stride=4, depth=d1, heads=1, reduction=8),
        StageConfig(kernel=3, channels=c2, stride=2, depth=d2, heads=2, reduction=4),
        StageConfig(kernel=3, channels=c3, stride=1, depth=d3, heads=5, reduction=2,
                    ca_positions=ca),
    )
    return ModelConfig(name=name, stages=stages)


def tiny_config(**overrides) -> ModelConfig:
    """Desk-scale variant for fast tests (not one of the published scales)."""
    stages = (
        StageConfig(kernel=7, channels=16, stride=4, depth=1, heads=1, reduction=4),
        StageConfig(kernel=3, channels=32, stride=2, depth=1, heads=2, reduction=2),
        StageConfig(kernel=3, channels=64, stride=1, depth=4, heads=4, reduction=2,
                    ca_positions=(2, 4)),
    )
    kw = dict(template_size=64, search_size=128)
    kw.update(overrides)
    return ModelConfig(name="tiny", stages=stages, **kw)


PRESETS = {"tiny": tiny_config, **{name: partial(_scale_config, name) for name in _SCALES}}


def with_reduction(cfg: ModelConfig, r: int) -> ModelConfig:
    """Same architecture with every stage's key/value reduction set to `r`."""
    return replace(cfg, stages=tuple(replace(st, reduction=r) for st in cfg.stages))


def without_cross_attention(cfg: ModelConfig) -> ModelConfig:
    """Pure two-stream variant: no block mixes the branches."""
    return replace(cfg, stages=tuple(replace(st, ca_positions=()) for st in cfg.stages))


def classifier_config(name: str, num_classes: int, image_size: int = 224) -> ModelConfig:
    """Four-stage single-branch variant for classification pre-training."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    if num_classes < 1:
        raise ConfigError(f"a classifier needs num_classes >= 1, got {num_classes}")
    if name == "tiny":
        stage4 = StageConfig(kernel=3, channels=128, stride=2, depth=2, heads=4, reduction=1)
    else:
        stage4 = StageConfig(kernel=3, channels=_SCALES[name][2], stride=2, depth=2, heads=8,
                             reduction=1)
    stages = without_cross_attention(PRESETS[name]()).stages + (stage4,)
    return ModelConfig(name=f"{name}-cls", stages=stages, template_size=image_size,
                       search_size=image_size, num_classes=num_classes)


# -- model -------------------------------------------------------------------


def _steps(config: ModelConfig) -> Iterator[tuple[int, int, StageConfig, str]]:
    """The backbone's steps in forward order as (stage, block, stage config, owner
    of its weights), 1-based except that block 0 is the stage's patch embedding."""
    for si, st in enumerate(config.stages, 1):
        yield si, 0, st, f"stage{si}.patch"
        for bi in range(1, st.depth + 1):
            yield si, bi, st, f"stage{si}.block{bi}"


def iter_parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every parameter's (name, shape), without allocating any, one owner's
    shape table at a time.  The order is the weight file's order and the
    order in which `build_model` draws."""

    def owned(prefix: str, table: dict[str, tuple[int, ...]]):
        return ((f"{prefix}.{name}", shape) for name, shape in table.items())

    c_in = 3
    for _, bi, st, owner in _steps(config):
        yield from owned(owner, bl.block_shapes(st.attn) if bi else
                         bl.patch_embed_shapes(c_in, st.channels, st.kernel))
        c_in = st.channels
    if config.is_classifier:
        yield from owned("classifier", {"weight": (c_in, config.num_classes), "bias": (config.num_classes,)})
        return
    hs, ws = config.search_grid()
    for head, out_channels in (("cls", 1), ("reg", 4)):
        for mi in range(1, config.head_depth + 1):
            yield from owned(f"head.{head}.mmb{mi}", bl.mix_mlp_shapes(c_in, hs * ws))
        yield from owned(f"head.{head}", {"out_weight": (c_in, out_channels), "out_bias": (out_channels,)})


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """`iter_parameter_shapes` as one {name: shape} table."""
    return dict(iter_parameter_shapes(config))


@dataclass
class Model:
    """A config and its parameters: `params` maps the names of
    `parameter_shapes(config)` to tensors, in that order.  `by_owner` indexes
    the same tensors by owner, the name up to its last dot ("stage3.block2",
    "head.cls.mmb1", "classifier"), as {field: tensor}: the dict a block reads."""

    config: ModelConfig
    params: dict[str, Tensor]
    by_owner: dict[str, dict[str, Tensor]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.by_owner = {}
        for name, t in self.params.items():
            owner, _, fname = name.rpartition(".")
            self.by_owner.setdefault(owner, {})[fname] = t

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())


def build_model(config: ModelConfig, seed: int) -> Model:
    """Deterministic construction: every entry of `parameter_shapes(config)`,
    in order, takes `blocks.initial_value` from one rng seeded with `seed`."""
    rng = np.random.default_rng(seed)
    return Model(config, bl.init_params(rng, parameter_shapes(config)))


# -- forward -----------------------------------------------------------------


def _check_image(img, size: int, what: str) -> None:
    if tuple(img.shape) != (3, size, size):
        raise ShapeError(f"{what} image must be (3, {size}, {size}), got {tuple(img.shape)}")


def _as_input(f) -> Tensor:
    """A patch embedding's input as a tensor: an image, or the previous stage's features."""
    if isinstance(f, Tensor):
        return f
    return eg.tensor(np.asarray(f))


@dataclass(frozen=True)
class BranchState:
    """One branch part-way through the backbone: its [c, h, w] features
    `tensor` right after step `after` = (stage, block) of `_steps`."""

    tensor: Tensor
    after: tuple[int, int]


def _walk(model: Model, z, x=None, trace: dict | None = None,
          ) -> tuple[BranchState, BranchState | None]:
    """Run each branch through the `_steps` after its own `after`.

    A branch is an image (no step run yet) or a `BranchState`.  Without `x`
    the template runs alone and stops before its first CA block; with both,
    a CA block that only one of them would run raises `ValueError`.  Returns
    each branch's state after the last step it ran (None for an absent `x`).
    """
    pad = model.config.pad_mode
    fz, z_after = (z.tensor, z.after) if isinstance(z, BranchState) else (z, (0, 0))
    fx, x_after = (x.tensor, x.after) if isinstance(x, BranchState) else (x, (0, 0))
    for si, bi, st, owner in _steps(model.config):
        run_z, run_x = (si, bi) > z_after, x is not None and (si, bi) > x_after
        if not (run_z or run_x):
            continue
        w = model.by_owner[owner]
        if bi == 0:
            if run_z:
                fz = bl.patch_embed(_as_input(fz), w, st.stride, pad)
            if run_x:
                fx = bl.patch_embed(_as_input(fx), w, st.stride, pad)
        else:
            mode = CA if bi in st.ca_positions else SA
            if mode == CA and not (run_z and run_x):
                if x is None:
                    break
                raise ValueError(f"CA block ({si}, {bi}) needs both branches; the template "
                                 f"stands after {z_after}, the search after {x_after}")
            oz, ox = bl.eoc_block(fz if run_z else None, fx if run_x else None, mode, st.attn, w, pad)
            fz, fx = (oz if run_z else fz), (ox if run_x else fx)
        z_after = (si, bi) if run_z else z_after
        x_after = (si, bi) if run_x else x_after
        if trace is not None:
            for branch, f, ran in (("z", fz, run_z), ("x", fx, run_x)):
                if ran:
                    trace[(si, bi, branch)] = BranchState(f, (si, bi))
    return BranchState(fz, z_after), None if x is None else BranchState(fx, x_after)


def template_prefix(model: Model, z) -> BranchState:
    """The template's search-independent part of the backbone: every step
    before the first CA block (all of them when there is none).  Computed
    once, it stands in for the template image in every frame's `forward`."""
    _check_image(z, model.config.template_size, "template")
    return _walk(model, z)[0]


def run_backbone(model: Model, z, x, trace: dict | None = None,
                 ) -> tuple[BranchState, BranchState]:
    """Run the template and search branches through the stage/block schedule.

    Each branch is an image or a `BranchState`, which runs only the steps
    after its `after`: a `template_prefix`, or the trace entries of both
    branches at one step (block 0 being the stage's patch embedding).  A CA
    block that only one branch would run raises `ValueError`.  Returns both
    branches' states after the last step; their `tensor`s feed `run_heads`.
    `trace`, when given, receives each branch's state after every step it
    ran, keyed by (stage, block, branch) with branch "z" or "x".  These are
    the walk's own tensors, not copies: an engine op writes only into arrays
    it allocated, and never after returning them, so no later step changes them.
    """
    return _walk(model, z, x, trace)


_TEMPLATE_SIDE = 7  # largest template extent the dwcorr head correlates with


def _crop_template_odd(fz: Tensor) -> Tensor:
    """Center-crop template features to an odd spatial extent (at most
    `_TEMPLATE_SIDE`) so the correlation head can pad symmetrically."""
    h, w = fz.shape[1:]
    side = min(_TEMPLATE_SIDE, h if h % 2 else h - 1, w if w % 2 else w - 1)
    r0 = (h - side) // 2
    c0 = (w - side) // 2
    return fz[:, r0 : r0 + side, c0 : c0 + side]


def run_heads(model: Model, fz: Tensor, fx: Tensor) -> tuple[Tensor, Tensor]:
    """Both heads on the search features `fx` (or, for `head_input="dwcorr"`,
    on their depthwise correlation with the template features `fz`)."""
    if model.config.head_input == "dwcorr":
        zc = _crop_template_odd(fz)
        pad = eg.PadMode.zeros((zc.shape[1] - 1) // 2)
        head_in = eg.depthwise_xcorr(zc, fx, pad=pad)
    else:
        head_in = fx

    def head(h: str) -> Tensor:
        blocks = [model.by_owner[f"head.{h}.mmb{i}"] for i in range(1, model.config.head_depth + 1)]
        return eg.sigmoid(bl.head_forward(head_in, blocks, model.by_owner[f"head.{h}"]))

    return head("cls"), head("reg")


def forward(model: Model, z, x) -> tuple[Tensor, Tensor]:
    """Two-image pass: template z, search x -> (foreground map [1,hs,ws],
    normalized l/t/r/b distance map [4,hs,ws]), both sigmoid-squashed.

    `z` is the template image or its `template_prefix` (the tracker makes
    one per sequence); both give the same maps bit for bit.  Padding comes
    from `model.config.pad_mode`."""
    cfg = model.config
    if cfg.is_classifier:
        raise ConfigError("classification variant has no tracking heads")
    if not isinstance(z, BranchState):
        _check_image(z, cfg.template_size, "template")
    _check_image(x, cfg.search_size, "search")
    fz, fx = run_backbone(model, z, x)
    return run_heads(model, fz.tensor, fx.tensor)


def forward_classification(model: Model, img) -> Tensor:
    """Single-branch pass for the four-stage variant: global average pool of
    the last stage then a linear classifier; returns logits."""
    cfg = model.config
    if not cfg.is_classifier:
        raise ConfigError("model was not built with num_classes > 0")
    if len(cfg.stages) != 4:
        raise ConfigError("classification pre-training expects a 4-stage config")
    img = _as_input(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"expected a (3, H, W) image, got {tuple(img.shape)}")
    f = _walk(model, img)[0].tensor  # a classifier has no CA block, so every step runs
    c, h, wd = f.shape
    pooled = eg.mean_(eg.reshape(f, (c, h * wd)), axis=1)
    w = model.by_owner["classifier"]
    return eg.linear(eg.reshape(pooled, (1, c)), w["weight"], w["bias"])[0, :]


# -- config from a stored dict -------------------------------------------------


def config_from_dict(d: dict) -> ModelConfig:
    """A config from the dict `dataclasses.asdict` makes of one, read as
    untrusted input: the constructors check every field, a missing field
    keeps its default (the name "custom"), and every fault raises
    `ConfigError`."""
    if not isinstance(d, dict):
        raise ConfigError(f"config must hold a mapping, got {type(d).__name__}")
    try:
        stages = tuple(StageConfig(**s) for s in d["stages"])
        return ModelConfig(**{"name": "custom", **d, "stages": stages})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model config: {exc}") from exc
