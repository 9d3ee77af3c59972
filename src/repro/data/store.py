"""Chunked on-disk window store: memory-mapped ``.npy`` shards + manifest.

The store is the out-of-core substrate for "millions of users"-scale
pre-training corpora.  A store directory holds::

    <root>/
      manifest.json          # schema, shard table, checksums, generating spec
      shard-00000.npy        # (rows, T, C) windows, plain NumPy format
      shard-00001.npy
      ...

Design contract (locked by ``tests/data/test_store.py`` and
``tests/data/test_ooc_equivalence.py``):

* **Bit-identity** — ``open_store(build_store(spec, root)).batch(idx)``
  equals ``materialize_data_spec(spec)[idx]`` exactly, for any shard
  size.  Spec generation is chunk-invariant (see
  :func:`repro.data.specs.iter_spec_windows`), so training out-of-core
  is bit-identical to training in-memory.
* **Validate on read** — a truncated shard, a checksum mismatch, or a
  manifest that disagrees with the shards on disk raises a typed
  :class:`~repro.data.io.DataValidationError` naming the offending file
  instead of yielding garbage windows into an hours-long pretrain.
* **Crash safety** — shards land via write-temp-then-rename and the
  manifest is written last, atomically; an interrupted build leaves a
  directory that ``open_store`` refuses cleanly.

The *ladder* (:data:`DATA_LADDER`) is a tiered family of synthetic
corpora, 10k → 10M windows with a fixed schema per tier, built by the
``repro data build`` CLI — the stable large-scale workload every perf PR
quotes (``benchmarks/test_perf_data.py`` → ``BENCH_data.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from ..utils.fileio import atomic_write_text, read_with_retry
from .io import DataValidationError
from .specs import iter_spec_windows, store_spec, synthetic_windows_spec

__all__ = [
    "STORE_FORMAT", "STORE_VERSION", "MANIFEST_NAME",
    "ShardInfo", "StoreManifest", "ShardedDataset",
    "build_store", "open_store", "verify_store", "resolve_data_source",
    "LadderTier", "DATA_LADDER", "ladder_tier_spec", "build_ladder_tier",
]

STORE_FORMAT = "repro-window-store"
STORE_VERSION = 1
MANIFEST_NAME = "manifest.json"
DEFAULT_SHARD_ROWS = 4096
_HASH_CHUNK = 1 << 20


@dataclass(frozen=True)
class ShardInfo:
    """One shard's manifest row."""

    file: str
    rows: int
    sha256: str


@dataclass(frozen=True)
class StoreManifest:
    """Schema + shard table of one store directory."""

    dtype: str
    window_shape: tuple[int, ...]   # (T, C)
    total_windows: int
    shard_rows: int                 # nominal rows per shard (last may be short)
    shards: tuple[ShardInfo, ...]
    spec: dict = field(default_factory=dict)
    tier: str | None = None

    def to_dict(self) -> dict:
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "dtype": self.dtype,
            "window_shape": list(self.window_shape),
            "total_windows": self.total_windows,
            "shard_rows": self.shard_rows,
            "shards": [{"file": s.file, "rows": s.rows, "sha256": s.sha256}
                       for s in self.shards],
            "spec": self.spec,
            "tier": self.tier,
        }

    @classmethod
    def from_dict(cls, payload: dict, path) -> "StoreManifest":
        if payload.get("format") != STORE_FORMAT:
            raise DataValidationError(
                path, f"not a {STORE_FORMAT} manifest "
                f"(format={payload.get('format')!r})")
        if payload.get("version") != STORE_VERSION:
            raise DataValidationError(
                path, f"unsupported store version {payload.get('version')!r} "
                f"(this build reads version {STORE_VERSION})")
        try:
            shards = tuple(ShardInfo(file=str(s["file"]), rows=int(s["rows"]),
                                     sha256=str(s["sha256"]))
                           for s in payload["shards"])
            manifest = cls(dtype=str(payload["dtype"]),
                           window_shape=tuple(int(d) for d in payload["window_shape"]),
                           total_windows=int(payload["total_windows"]),
                           shard_rows=int(payload["shard_rows"]),
                           shards=shards,
                           spec=dict(payload.get("spec") or {}),
                           tier=payload.get("tier"))
        except (KeyError, TypeError, ValueError) as error:
            raise DataValidationError(
                path, f"malformed manifest ({error!r})") from None
        if sum(s.rows for s in manifest.shards) != manifest.total_windows:
            raise DataValidationError(
                path, "stale manifest: shard rows "
                f"{sum(s.rows for s in manifest.shards)} != total_windows "
                f"{manifest.total_windows}")
        return manifest


def _file_sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(_HASH_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _shard_name(index: int) -> str:
    return f"shard-{index:05d}.npy"


def build_store(spec: dict, root, *, shard_rows: int = DEFAULT_SHARD_ROWS,
                tier: str | None = None, force: bool = False) -> pathlib.Path:
    """Materialize ``spec`` as a sharded store under ``root``.

    Windows stream through :func:`iter_spec_windows` at ``shard_rows``
    granularity, so building a corpus much larger than RAM holds only one
    shard in memory at a time.  Rebuilding an existing store is a no-op
    when the manifest carries the same spec and shard size; a conflicting
    existing store raises unless ``force=True``.
    """
    if shard_rows < 1:
        raise ValueError("shard_rows must be >= 1")
    root = pathlib.Path(root)
    manifest_path = root / MANIFEST_NAME
    if manifest_path.is_file():
        existing = _read_manifest(manifest_path)
        if (existing.spec == spec and existing.shard_rows == shard_rows
                and not force):
            return root
        if not force:
            raise DataValidationError(
                manifest_path, "store already exists with a different "
                "spec/shard size (pass force=True to rebuild)")
        manifest_path.unlink()
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.glob("shard-*.npy"):
        stale.unlink()

    shards: list[ShardInfo] = []
    dtype = window_shape = None
    total = 0
    for index, chunk in enumerate(iter_spec_windows(spec, shard_rows)):
        if chunk.ndim != 3:
            raise ValueError(f"spec yielded {chunk.ndim}d chunk; "
                             "windows must be (rows, T, C)")
        if dtype is None:
            dtype, window_shape = chunk.dtype, chunk.shape[1:]
        elif chunk.dtype != dtype or chunk.shape[1:] != window_shape:
            raise ValueError("spec yielded inconsistent chunk schema")
        path = root / _shard_name(index)
        temp = path.with_name(f".{path.name}.tmp{os.getpid()}")
        try:
            with temp.open("wb") as handle:  # np.save(path) would append .npy
                np.save(handle, np.ascontiguousarray(chunk))
            os.replace(temp, path)
        finally:
            temp.unlink(missing_ok=True)
        shards.append(ShardInfo(file=path.name, rows=len(chunk),
                                sha256=_file_sha256(path)))
        total += len(chunk)
    if not shards:
        raise ValueError("spec yielded no windows")
    manifest = StoreManifest(dtype=str(dtype),
                             window_shape=tuple(int(d) for d in window_shape),
                             total_windows=total, shard_rows=shard_rows,
                             shards=tuple(shards), spec=dict(spec), tier=tier)
    atomic_write_text(manifest_path,
                      json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
    return root


def _read_manifest(manifest_path: pathlib.Path) -> StoreManifest:
    def _read(p):
        return json.loads(p.read_text(encoding="utf-8"))

    if not manifest_path.is_file():
        raise DataValidationError(
            manifest_path, "no store manifest here (is this a store "
            "directory built by `repro data build`?)")
    try:
        payload = read_with_retry(_read, manifest_path)
    except json.JSONDecodeError as error:
        raise DataValidationError(
            manifest_path, f"corrupt manifest ({error})") from None
    if not isinstance(payload, dict):
        raise DataValidationError(manifest_path, "manifest is not an object")
    return StoreManifest.from_dict(payload, manifest_path)


class ShardedDataset:
    """Memory-mapped random access over a store's windows.

    Opening validates every shard against the manifest (shape, dtype and
    file size; ``verify='full'`` re-hashes the bytes too).  The maps are
    OS-paged, so opening a 10M-window store costs only header reads;
    :meth:`batch` gathers arbitrary global indices across shards into a
    fresh contiguous array, bit-identical to indexing the in-memory
    equivalent.  Plugs into :func:`repro.core.run_pretrain` exactly like an
    ndarray of samples.
    """

    def __init__(self, root, manifest: StoreManifest, *, verify: str = "shallow"):
        self.root = pathlib.Path(root)
        self.manifest = manifest
        self._maps: list[np.ndarray] | None = []
        starts = np.cumsum([0] + [s.rows for s in manifest.shards])
        self._starts = starts[:-1]          # first global row of each shard
        expected_dtype = np.dtype(manifest.dtype)
        for info in manifest.shards:
            path = self.root / info.file
            if not path.is_file():
                raise DataValidationError(path, "shard listed in manifest is missing")
            try:
                mapped = np.load(path, mmap_mode="r")
            except (ValueError, OSError, EOFError) as error:
                raise DataValidationError(
                    path, f"truncated or corrupt shard ({error})") from None
            expected_shape = (info.rows, *manifest.window_shape)
            if mapped.shape != expected_shape or mapped.dtype != expected_dtype:
                raise DataValidationError(
                    path, f"stale manifest: shard holds {mapped.dtype} "
                    f"{mapped.shape}, manifest says {expected_dtype} "
                    f"{expected_shape}")
            if verify == "full" and _file_sha256(path) != info.sha256:
                raise DataValidationError(
                    path, "checksum mismatch: shard bytes do not match the "
                    "manifest sha256 (corrupted after build?)")
            self._maps.append(mapped)

    # -- container protocol ---------------------------------------------
    def __len__(self) -> int:
        return self.manifest.total_windows

    @property
    def window_shape(self) -> tuple[int, ...]:
        return self.manifest.window_shape

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.manifest.dtype)

    @property
    def nbytes(self) -> int:
        return len(self) * int(np.prod(self.window_shape)) * self.dtype.itemsize

    @property
    def closed(self) -> bool:
        return self._maps is None

    def __getitem__(self, index: int) -> np.ndarray:
        return self.batch(np.asarray([index]))[0]

    def batch(self, indices) -> np.ndarray:
        """Gather windows at global ``indices`` into a ``(B, T, C)`` array.

        Bit-identical to ``all_windows[indices]`` on the in-memory
        materialization of the same spec, in any order, with duplicates.
        """
        if self._maps is None:
            raise RuntimeError("store is closed")
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self)):
            raise IndexError(f"window index out of range [0, {len(self)})")
        out = np.empty((len(indices), *self.window_shape), dtype=self.dtype)
        shard_ids = np.searchsorted(self._starts, indices, side="right") - 1
        for shard in np.unique(shard_ids):
            mask = shard_ids == shard
            out[mask] = self._maps[shard][indices[mask] - self._starts[shard]]
        return out

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Drop the memory maps.  Idempotent; gathers afterwards raise."""
        self._maps = None

    def __enter__(self) -> "ShardedDataset":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ShardedDataset({str(self.root)!r}, windows={len(self)}, "
                f"shape={self.window_shape}, dtype={self.manifest.dtype}, "
                f"shards={len(self.manifest.shards)})")

    # -- integration hooks ----------------------------------------------
    def dataset_fingerprint(self) -> dict:
        """Cheap identity for telemetry manifests: hashes the shard
        checksums instead of re-reading gigabytes of windows."""
        digest = hashlib.sha256()
        digest.update(self.manifest.dtype.encode())
        digest.update(str((len(self), *self.window_shape)).encode())
        for info in self.manifest.shards:
            digest.update(info.sha256.encode())
        return {"shape": [len(self), *self.window_shape],
                "dtype": self.manifest.dtype,
                "sha256": digest.hexdigest()[:16],
                "container": type(self).__name__,
                "store": str(self.root)}

    def store_spec(self) -> dict:
        """The ``kind='store'`` data spec for checkpoints taken against
        this store — ``repro runs resume`` reopens it from this."""
        return store_spec(self.root, source_spec=self.manifest.spec or None,
                          tier=self.manifest.tier)


def open_store(root, *, verify: str = "shallow") -> ShardedDataset:
    """Open a store directory for reading.

    ``verify`` levels: ``'none'`` trusts the manifest blindly (shards are
    still shape-checked on map), ``'shallow'`` (default) validates every
    shard's header and size against the manifest, ``'full'`` additionally
    re-hashes every shard — the paranoid pre-flight for a multi-day run.
    """
    if verify not in ("none", "shallow", "full"):
        raise ValueError("verify must be 'none', 'shallow', or 'full'")
    root = pathlib.Path(root)
    manifest = _read_manifest(root / MANIFEST_NAME)
    return ShardedDataset(root, manifest, verify=verify)


def verify_store(root) -> StoreManifest:
    """Full-checksum validation pass; returns the manifest on success."""
    dataset = open_store(root, verify="full")
    manifest = dataset.manifest
    dataset.close()
    return manifest


def resolve_data_source(data):
    """Coerce a driver ``data`` argument: store paths open as datasets.

    Strings/paths pointing at a store directory (or its manifest file)
    become a :class:`ShardedDataset`; everything else passes through so
    existing in-memory call sites are untouched.
    """
    if isinstance(data, (str, pathlib.Path)):
        path = pathlib.Path(data)
        if path.name == MANIFEST_NAME:
            path = path.parent
        return open_store(path)
    return data


# ----------------------------------------------------------------------
# The corpus ladder: tiered synthetic corpora, 10k -> 10M windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LadderTier:
    """One rung: a fixed window count and shard layout."""

    name: str
    windows: int
    shard_rows: int


DATA_LADDER: dict[str, LadderTier] = {
    "smallest": LadderTier("smallest", windows=10_000, shard_rows=2_500),
    "small": LadderTier("small", windows=100_000, shard_rows=12_500),
    "mid": LadderTier("mid", windows=1_000_000, shard_rows=62_500),
    "large": LadderTier("large", windows=10_000_000, shard_rows=250_000),
}


def ladder_tier_spec(tier: str | LadderTier, *, seq_len: int = 64,
                     channels: int = 7, seed: int = 0,
                     scale: float = 1.0) -> tuple[dict, int]:
    """The ``(spec, shard_rows)`` a ladder tier builds from.

    ``scale`` shrinks the window count (CI and smoke benchmarks build
    1/100-size rungs with the identical schema and shard count).
    """
    if isinstance(tier, str):
        if tier not in DATA_LADDER:
            raise KeyError(f"unknown ladder tier {tier!r}; "
                           f"available: {sorted(DATA_LADDER)}")
        tier = DATA_LADDER[tier]
    if scale <= 0:
        raise ValueError("scale must be positive")
    windows = max(int(tier.windows * scale), 64)
    # Preserve the tier's shard *count* under scaling so small builds
    # still exercise multi-shard gathers.
    shard_rows = max(min(tier.shard_rows, math.ceil(windows / 4)), 1)
    spec = synthetic_windows_spec(windows, seq_len=seq_len, channels=channels,
                                  seed=seed)
    return spec, shard_rows


def build_ladder_tier(root, tier: str | LadderTier, *, seq_len: int = 64,
                      channels: int = 7, seed: int = 0, scale: float = 1.0,
                      force: bool = False) -> pathlib.Path:
    """Build one ladder rung under ``<root>/<tier>/`` and return its path."""
    if isinstance(tier, str):
        spec, shard_rows = ladder_tier_spec(tier, seq_len=seq_len,
                                            channels=channels, seed=seed,
                                            scale=scale)
        name = tier
    else:
        spec, shard_rows = ladder_tier_spec(tier, seq_len=seq_len,
                                            channels=channels, seed=seed,
                                            scale=scale)
        name = tier.name
    return build_store(spec, pathlib.Path(root) / name, shard_rows=shard_rows,
                       tier=name, force=force)
