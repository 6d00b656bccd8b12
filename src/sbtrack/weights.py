"""Binary weight files.

Layout (all integers little-endian u32):

    magic "SBTW" | version 3 | config length | UTF-8 JSON model config
    | tensor count | per tensor: name length | UTF-8 name | rank
    | extent per axis | float32 payload

The config is `json.dumps(dataclasses.asdict(config))`, read back by
`model.config_from_dict`.  Version 2 held it in a text format that needs a
third-party parser; it is not read, and raises `FormatError`.

The config lets ``load_weights(path)`` rebuild the model without a side
channel: `model.iter_parameter_shapes` of that config names every tensor the
file must hold and its shape, so the file is checked before any parameter is
made, and the parameters then wrap the file's own arrays.  The header is
read field by field, and each payload straight into its own array, so a
load holds the file's bytes once.  Every declared length (config, name,
extents, payload) is checked against the bytes left, from the file's size,
before anything is read or allocated, so a corrupt header raises
`FormatError` instead of asking for memory it cannot fill.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from . import engine as eg
from . import model as md
from .model import Model

MAGIC = b"SBTW"
VERSION = 3


class FormatError(ValueError):
    """File is not a valid weight container."""


class LoadError(ValueError):
    """File is well-formed but incompatible with the target model."""


@dataclass
class LoadReport:
    """Outcome of loading a file into a model, tensor by tensor."""

    loaded: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # in file, not in model
    missing: list[str] = field(default_factory=list)  # in model, not in file


def _write_entry(fh, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<I", arr.ndim))
    for ext in arr.shape:
        fh.write(struct.pack("<I", ext))
    fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_weights(model: Model, path) -> None:
    """Write the model config and every named parameter."""
    cfg = json.dumps(asdict(model.config)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(cfg)))
        fh.write(cfg)
        fh.write(struct.pack("<I", len(model.params)))
        for name, t in model.params.items():
            _write_entry(fh, name, t.data)


def read_weight_file(path) -> tuple[md.ModelConfig, dict[str, np.ndarray]]:
    """The model config and the named tensors of a file written by `save_weights`."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def claim(n: int, what: str) -> None:
            nonlocal pos
            if n > size - pos:
                raise FormatError(f"truncated file: {what} needs {n} bytes, {size - pos} left")
            pos += n

        def take(n: int, what: str) -> bytes:
            claim(n, what)
            raw = fh.read(n)
            if len(raw) != n:  # the file shrank while it was read
                raise FormatError(f"truncated file: {what} needs {n} bytes, {len(raw)} left")
            return raw

        def u32s(n: int, what: str) -> tuple[int, ...]:
            return struct.unpack(f"<{n}I", take(4 * n, what))

        def u32(what: str) -> int:
            return u32s(1, what)[0]

        def text(what: str) -> str:
            raw = take(u32(f"{what} length"), what)
            try:
                return str(raw, "utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{what} is not UTF-8: {exc}") from exc

        if take(4, "magic") != MAGIC:
            raise FormatError("bad magic bytes")
        version = u32("version")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}")
        cfg_text = text("config")
        try:
            config = md.config_from_dict(json.loads(cfg_text))
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting deeper than json parses
            raise FormatError(f"invalid model config: {exc}") from exc
        tensors: dict[str, np.ndarray] = {}
        for i in range(u32("tensor count")):
            name = text(f"tensor {i} name")
            if name in tensors:
                raise FormatError(f"duplicate tensor {name!r}")
            shape = u32s(u32(f"{name} rank"), f"{name} extents")
            n = 4 * math.prod(shape)
            claim(n, f"{name} payload")
            arr = np.empty(shape, dtype="<f4")
            got = fh.readinto(arr.reshape(-1).view(np.uint8))
            if got != n:
                raise FormatError(f"truncated file: {name} payload needs {n} bytes, {got} left")
            tensors[name] = arr
    if pos != size:
        raise FormatError(f"{size - pos} trailing bytes after last tensor")
    return config, tensors


def load_weights_into(model: Model, path) -> LoadReport:
    """Assign file tensors to model parameters by name.

    Partial loads are fine (a 3-stage tracker can pick up the shared stages
    of a 4-stage classifier file); a shape clash on a matching name is an
    error, raised before any parameter is changed.  Returns what was loaded /
    skipped / left at init.
    """
    _, tensors = read_weight_file(path)
    params = model.params
    report = LoadReport()
    for name, arr in tensors.items():
        t = params.get(name)
        if t is None:
            report.skipped.append(name)
        elif arr.shape != t.shape:
            raise LoadError(f"shape mismatch for {name}: file {arr.shape} vs model {t.shape}")
        else:
            report.loaded.append(name)
    for name in report.loaded:
        params[name].data[:] = tensors[name]
    report.missing = [n for n in params if n not in tensors]
    return report


def load_weights(path) -> Model:
    """Rebuild the model from a file written by `save_weights`.

    The file's tensors are checked against `model.iter_parameter_shapes` of
    the file's own config before any parameter is made: the first missing
    tensor or shape clash raises `LoadError`, before the rest of the table is
    built, and tensors the config does not name are ignored.  The parameters
    then wrap the file's arrays; nothing is drawn.
    """
    config, tensors = read_weight_file(path)
    checked: dict[str, np.ndarray] = {}
    for name, shape in md.iter_parameter_shapes(config):
        if name not in tensors:
            raise LoadError(f"file incomplete for its own config: no {name}")
        if tensors[name].shape != shape:
            raise LoadError(f"shape mismatch for {name}: file {tensors[name].shape} vs config {shape}")
        checked[name] = tensors[name]
    return Model(config, {name: eg.parameter(arr) for name, arr in checked.items()})
