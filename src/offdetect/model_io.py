"""Versioned binary model files (magic ``OFFD1``, little-endian).

Layout (version 1):

    magic      5 bytes  b"OFFD1"
    version    u8       1
    kind       u8       0=rlsc 1=svm_linear 2=logreg 3=gnb
    flags      u8       bit 0: random-feature map embedded

    [if flags & 1]  map block:
        d_in u32, dim_out u32, seed i64, sigma f64,
        prng_len u16, prng_id utf-8 bytes

    linear payload (kinds 0-2):
        n u32, w f64*n, bias f64, hyper_len u32, hyper json utf-8

    gnb payload (kind 3):
        n u32, priors f64*2, means f64*2n, variances f64*2n, var_floor f64

The map block stores only the sampling recipe; loading re-draws the
frequency matrix, which the seeded generator reproduces bit-exactly.  Any
unexpected trailing bytes, short reads, or unknown identifiers fail the
load with no partial model.  So does a weight count other than the map's
output dimension, or a map recipe that sample_map refuses (among others, a
map larger than rks.MAX_MAP_ENTRIES); the map is drawn last, after
everything else is read.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import ModelFormatError
from .learn import GnbModel, LinearModel
from .rks import PRNG_ID, sample_map

__all__ = ["MAGIC", "FORMAT_VERSION", "save_model", "load_model"]

MAGIC = b"OFFD1"
FORMAT_VERSION = 1

# Payload reads go in pieces of at most this many bytes, so a corrupt
# length field cannot allocate more memory than the file holds.
_READ_CHUNK = 1 << 20

_KIND_CODES = {"rlsc": 0, "svm_linear": 1, "logreg": 2, "gnb": 3}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def _floats_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _hyper_bytes(hyper: dict) -> bytes:
    return json.dumps(hyper, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_model(model, sink) -> None:
    """Serialize a LinearModel or GnbModel to a binary stream."""
    if isinstance(model, LinearModel):
        kind_code = _KIND_CODES[model.kind]
        rks = model.rks
    elif isinstance(model, GnbModel):
        kind_code = _KIND_CODES["gnb"]
        rks = None
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")

    flags = 1 if rks is not None else 0
    sink.write(MAGIC)
    sink.write(struct.pack("<BBB", FORMAT_VERSION, kind_code, flags))
    if rks is not None:
        prng = PRNG_ID.encode("utf-8")
        sink.write(struct.pack("<IIqd", rks.d_in, rks.dim_out, rks.seed, rks.sigma))
        sink.write(struct.pack("<H", len(prng)))
        sink.write(prng)
    if isinstance(model, LinearModel):
        sink.write(struct.pack("<I", model.w.shape[0]))
        sink.write(_floats_bytes(model.w))
        sink.write(struct.pack("<d", model.bias))
        hyper = _hyper_bytes(model.hyper)
        sink.write(struct.pack("<I", len(hyper)))
        sink.write(hyper)
    else:
        n = model.means.shape[1]
        sink.write(struct.pack("<I", n))
        sink.write(_floats_bytes(model.priors))
        sink.write(_floats_bytes(model.means))
        sink.write(_floats_bytes(model.variances))
        sink.write(struct.pack("<d", model.var_floor))


def _read_exact(source, size: int) -> bytes:
    parts = []
    remaining = size
    while remaining > 0:
        data = source.read(min(remaining, _READ_CHUNK))
        if not data:
            break
        parts.append(data)
        remaining -= len(data)
    if remaining:
        raise ModelFormatError(
            f"truncated model file (wanted {size} bytes, got {size - remaining})"
        )
    return b"".join(parts)


def _read_struct(source, fmt: str):
    return struct.unpack(fmt, _read_exact(source, struct.calcsize(fmt)))


def _read_floats(source, count: int) -> np.ndarray:
    return np.frombuffer(_read_exact(source, 8 * count), dtype="<f8").copy()


def load_model(source):
    """Deserialize a model; raise ModelFormatError on any malformation."""
    magic = _read_exact(source, len(MAGIC))
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r} (expected {MAGIC!r})")
    version, kind_code, flags = _read_struct(source, "<BBB")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    if kind_code not in _CODE_KINDS:
        raise ModelFormatError(f"unknown model kind code {kind_code}")
    if flags & ~1:
        raise ModelFormatError(f"unknown flag bits 0x{flags:02x}")
    kind = _CODE_KINDS[kind_code]

    recipe = _read_map_recipe(source) if flags & 1 else None

    if kind == "gnb":
        if recipe is not None:
            raise ModelFormatError("gnb payload cannot carry an embedded map")
        (n,) = _read_struct(source, "<I")
        priors = _read_floats(source, 2)
        means = _read_floats(source, 2 * n).reshape(2, n)
        variances = _read_floats(source, 2 * n).reshape(2, n)
        (var_floor,) = _read_struct(source, "<d")
        model = GnbModel(means=means, variances=variances, priors=priors, var_floor=var_floor)
    else:
        (n,) = _read_struct(source, "<I")
        w = _read_floats(source, n)
        (bias,) = _read_struct(source, "<d")
        (hyper_len,) = _read_struct(source, "<I")
        try:
            hyper = json.loads(_read_exact(source, hyper_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"corrupt hyperparameter block: {exc}") from exc
        if not isinstance(hyper, dict):
            raise ModelFormatError("corrupt hyperparameter block: not a JSON object")
        if recipe is not None and n != recipe[1]:
            raise ModelFormatError(
                f"{n} weights do not match the map's output dimension {recipe[1]}"
            )
        model = LinearModel(kind=kind, w=w, bias=bias, hyper=hyper)

    trailing = source.read(1)
    if trailing:
        raise ModelFormatError("trailing bytes after model payload")
    if recipe is not None:
        try:
            model.rks = sample_map(*recipe)
        except ValueError as exc:
            raise ModelFormatError(f"bad map recipe: {exc}") from exc
    return model


def _read_map_recipe(source) -> tuple[int, int, float, int]:
    """The map block's (d_in, dim_out, sigma, seed).

    sample_map checks the recipe when load_model draws the map.
    """
    d_in, dim_out, seed, sigma = _read_struct(source, "<IIqd")
    (prng_len,) = _read_struct(source, "<H")
    prng_id = _read_exact(source, prng_len).decode("utf-8", errors="replace")
    if prng_id != PRNG_ID:
        raise ModelFormatError(
            f"map sampled with unknown generator {prng_id!r}; cannot reproduce it"
        )
    return d_in, dim_out, sigma, seed
