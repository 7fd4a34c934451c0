"""Binary array checkpoints with bit-exact round trips.

Layout (all integers unsigned 32-bit little-endian):

    magic    8 bytes, b"LIONCKPT"
    version  u32
    count    u32
    entry*   count times:
        name_len  u32
        name      name_len bytes, UTF-8
        rank      u32 (0, 1 or 2)
        dims      rank u32 values
        payload   prod(dims) float64 values, little-endian, row-major

Files are written to a temporary sibling and renamed into place, so a
crashed save never leaves a half-written checkpoint behind; a path that
cannot be written raises `ConfigError`, naming it. Loads validate
everything before returning anything: an unreadable file, an unknown
version, a truncated file or a non-finite payload raises without yielding a
partial result.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct

import numpy as np

from .errors import CheckpointError, ConfigError
from .numerics import Param

MAGIC = b"LIONCKPT"
VERSION = 1
_MAX_NAME = 4096
_MAX_RANK = 2


def save(path: str, params: list[Param]) -> str:
    """Write the named parameter values in the given order, atomically, and
    return the file's sha256 (hex), which `load` can be asked to check.

    Refuses, before creating any file, a set that `load` would reject:
    duplicate names, and names that are empty, longer than `_MAX_NAME`
    UTF-8 bytes, or not encodable as UTF-8.
    """
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise CheckpointError(f"duplicate parameter names {dupes}")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for p in params:
        try:
            encoded = p.name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise CheckpointError(f"parameter name {p.name!r} is not encodable as UTF-8") from exc
        if not 0 < len(encoded) <= _MAX_NAME:
            raise CheckpointError(f"parameter name {p.name[:32]!r} is {len(encoded)} UTF-8 "
                                  f"bytes long (need 1 to {_MAX_NAME})")
        arr = p.value
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f8", copy=False).tobytes(order="C"))
    blob = b"".join(chunks)
    write_atomic(path, blob)
    return hashlib.sha256(blob).hexdigest()


def write_atomic(path: str, data: bytes) -> None:
    """Make `path`'s directory, write `data` to a temporary sibling, rename it over `path`;
    the sibling is gone afterwards whether or not that succeeded."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint {self.path!r}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load(path: str, sha256: str | None = None) -> tuple[dict[str, np.ndarray], str]:
    """Read a checkpoint back as an ordered name -> float64 array mapping, and its sha256
    (hex); given `sha256` (a tuned model config's record), a valid file with another is refused."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path!r} does not exist") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc.strerror}") from None
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path!r} is not a checkpoint (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(
            f"{path!r} has unsupported version {version} (expected {VERSION})")
    count = r.u32()
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32()
        if name_len == 0 or name_len > _MAX_NAME:
            raise CheckpointError(f"{path!r}: bad name length {name_len}")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path!r}: undecodable entry name") from exc
        if name in out:
            raise CheckpointError(f"{path!r}: duplicate entry {name!r}")
        rank = r.u32()
        if rank > _MAX_RANK:
            raise CheckpointError(f"{path!r}: entry {name!r} has rank {rank}")
        dims = tuple(r.u32() for _ in range(rank))
        n_values = math.prod(dims)
        if n_values > len(blob):                 # cheap sanity bound
            raise CheckpointError(f"{path!r}: entry {name!r} dims {dims} overflow file")
        payload = r.take(8 * n_values)
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise CheckpointError(f"{path!r}: entry {name!r} has non-finite values")
        out[name] = arr
    if r.pos != len(blob):
        raise CheckpointError(f"{path!r}: {len(blob) - r.pos} trailing bytes")
    digest = hashlib.sha256(blob).hexdigest()
    if sha256 is not None and digest != sha256:
        raise CheckpointError(f"{path!r} is not the checkpoint its tuned model config "
                              f"records (sha256 {sha256[:16] or 'none'})")
    return out, digest


def restore(params: list[Param], loaded: dict[str, np.ndarray]) -> None:
    """Overwrite each parameter's value from the mapping, by name.

    Every parameter must be present with a matching shape, and every loaded
    entry must be consumed — a checkpoint for a different architecture is
    rejected rather than partially applied.
    """
    missing = [p.name for p in params if p.name not in loaded]
    if missing:
        raise CheckpointError(f"checkpoint lacks entries {missing}")
    extra = sorted(set(loaded) - {p.name for p in params})
    if extra:
        raise CheckpointError(f"checkpoint has unexpected entries {extra}")
    for p in params:
        t = loaded[p.name]
        if t.shape != p.value.shape:
            raise CheckpointError(
                f"entry {p.name!r} has shape {t.shape}, model expects {p.value.shape}")
    for p in params:
        p.value = loaded[p.name]
        p.grad = None
