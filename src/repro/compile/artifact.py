"""Compiled-artifact serialization: checksummed ``compiled-*.npz`` files.

Same integrity discipline as the training checkpoints
(:mod:`repro.checkpoint.manager`): one ``.npz`` holding the packed
arrays plus a ``__meta__`` JSON record carrying a format version and a
SHA-256 content digest over every array's name/shape/dtype/bytes.  The
digest doubles as the serve fingerprint; a flipped byte anywhere fails
the load with :class:`~repro.compile.errors.CompiledArtifactError`.
Writes are atomic (tmp file + rename) so a crashed compile never leaves
a half-written artifact that the registry could pick up.
"""

from __future__ import annotations

import io
import json
import pathlib

import numpy as np

from ..checkpoint.manager import _content_digest
from ..utils.fileio import atomic_write_bytes
from .errors import CompiledArtifactError
from .model import CompiledModel

__all__ = [
    "COMPILED_FORMAT_VERSION",
    "COMPILED_MAGIC",
    "save_compiled",
    "load_compiled",
    "is_compiled_artifact",
]

COMPILED_FORMAT_VERSION = 2  # 2: every Linear weight is stored (in, out)
COMPILED_MAGIC = "repro-compiled"


def save_compiled(path, compiled: CompiledModel) -> pathlib.Path:
    """Serialize ``compiled`` to ``path``; returns the written path.

    The content digest is (re)computed from the arrays at save time and
    becomes both the integrity checksum and the serve fingerprint.
    """
    path = pathlib.Path(path)
    meta = dict(compiled.meta)
    meta["artifact"] = COMPILED_MAGIC
    meta["format_version"] = COMPILED_FORMAT_VERSION
    meta["content_sha256"] = _content_digest(compiled.arrays)
    compiled.meta = meta
    payload = dict(compiled.arrays)
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(path, buffer.getvalue())
    return path


def _read_archive(path) -> tuple[dict[str, np.ndarray], dict]:
    path = pathlib.Path(path)
    try:
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except Exception as error:
        raise CompiledArtifactError(
            f"unreadable compiled artifact {path} ({error})") from None
    meta_bytes = arrays.pop("__meta__", None)
    if meta_bytes is None:
        raise CompiledArtifactError(
            f"{path} has no __meta__ record; not a compiled artifact")
    try:
        meta = json.loads(bytes(meta_bytes.tobytes()).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CompiledArtifactError(
            f"{path} has corrupt metadata ({error})") from None
    return arrays, meta


def load_compiled(path) -> CompiledModel:
    """Load, checksum-verify and rebuild a compiled artifact."""
    arrays, meta = _read_archive(path)
    if meta.get("artifact") != COMPILED_MAGIC:
        raise CompiledArtifactError(
            f"{path} is not a compiled artifact "
            f"(artifact={meta.get('artifact')!r})")
    version = meta.get("format_version")
    if version != COMPILED_FORMAT_VERSION:
        raise CompiledArtifactError(
            f"unsupported compiled-artifact format version {version!r} "
            f"(this build reads version {COMPILED_FORMAT_VERSION})")
    digest = _content_digest(arrays)
    if digest != meta.get("content_sha256"):
        raise CompiledArtifactError(
            f"compiled artifact {path} is corrupt: content digest mismatch "
            f"(expected {meta.get('content_sha256')}, got {digest})")
    return CompiledModel(arrays, meta)


def is_compiled_artifact(path) -> bool:
    """Cheap sniff: does ``path`` look like a compiled artifact?

    Used by the model registry to route a ``source`` path to the right
    loader without consuming checkpoint errors.  Corruption is *not*
    checked here — ``load_compiled`` does that and raises loudly.
    """
    path = pathlib.Path(path)
    if not (path.is_file() and path.suffix == ".npz"):
        return False
    try:
        __, meta = _read_archive(path)
    except CompiledArtifactError:
        return False
    return meta.get("artifact") == COMPILED_MAGIC
