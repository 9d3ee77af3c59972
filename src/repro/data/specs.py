"""Serializable dataset specs for checkpoint-driven resume and store builds.

A *data spec* is a small JSON-safe dict describing how a pre-training
data argument was built.  Checkpoints carry the spec in their metadata
(``CheckpointConfig.data_spec``) so ``repro runs resume <run_id>`` can
reconstruct the exact training data — same registry dataset, same scale,
same seed, same windowing — without the original launch script.  On-disk
window stores (:mod:`repro.data.store`) embed the generating spec in
their manifest for the same reason: a store is always rebuildable, and a
checkpoint taken against a store round-trips back to it.

Spec kinds:

* ``forecasting`` / ``classification`` — a registry dataset's training
  split (the original PR 3 kinds);
* ``synthetic_windows`` — an unbounded stream of synthetic pre-training
  windows, generated in fixed canonical blocks so materialization is
  *chunk-invariant*: building a 10M-window corpus shard by shard is
  bit-identical to generating it in one array (the property the
  out-of-core equivalence suite locks);
* ``store`` — a pointer at an on-disk window store built from one of the
  above (``materialize_data_spec`` memory-maps it instead of generating).
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import ForecastingWindows, make_classification_data, make_forecasting_data
from .registry import load_classification_dataset, load_forecasting_dataset

__all__ = [
    "GENERATION_BLOCK",
    "forecasting_spec",
    "classification_spec",
    "synthetic_windows_spec",
    "store_spec",
    "materialize_data_spec",
    "materialize_spec_rows",
    "iter_spec_windows",
    "spec_total_windows",
]

# Canonical generation granularity for synthetic_windows specs.  Window
# block ``j`` is a pure function of ``(seed, j)``, so any shard layout
# (and any reader chunk size) reassembles the identical stream.
GENERATION_BLOCK = 4096


def forecasting_spec(dataset: str, scale: float = 1.0, seed: int = 0,
                     seq_len: int = 64, pred_len: int = 24, stride: int = 1,
                     univariate_target: int | None = None) -> dict:
    """Spec for pre-training on a forecasting split's training windows."""
    return {"kind": "forecasting", "dataset": dataset, "scale": scale,
            "seed": seed, "seq_len": seq_len, "pred_len": pred_len,
            "stride": stride, "univariate_target": univariate_target}


def classification_spec(dataset: str, scale: float = 1.0,
                        seed: int = 0) -> dict:
    """Spec for pre-training on a classification split's training samples."""
    return {"kind": "classification", "dataset": dataset, "scale": scale,
            "seed": seed}


def synthetic_windows_spec(windows: int, seq_len: int = 64, channels: int = 7,
                           seed: int = 0) -> dict:
    """Spec for ``windows`` synthetic pre-training windows ``(T, C)``.

    Generation is block-seeded (see :data:`GENERATION_BLOCK`), so corpora
    of any size can be materialized incrementally — the ladder tiers of
    :mod:`repro.data.store` are exactly these specs at 10k → 10M windows.
    """
    if windows < 1:
        raise ValueError("windows must be >= 1")
    if seq_len < 1 or channels < 1:
        raise ValueError("seq_len and channels must be >= 1")
    return {"kind": "synthetic_windows", "windows": int(windows),
            "seq_len": int(seq_len), "channels": int(channels),
            "seed": int(seed)}


def store_spec(path, source_spec: dict | None = None,
               tier: str | None = None) -> dict:
    """Spec pointing at an on-disk window store directory.

    ``source_spec`` (the spec the store was built from) rides along so a
    resume on a machine where the store is gone can name what to rebuild.
    """
    spec = {"kind": "store", "path": str(path)}
    if source_spec is not None:
        spec["source_spec"] = dict(source_spec)
    if tier is not None:
        spec["tier"] = tier
    return spec


def _synthetic_block(spec: dict, block_index: int) -> np.ndarray:
    """Canonical block ``block_index`` of a synthetic_windows spec.

    A pure function of ``(seed, block_index)``: per-window sinusoids with
    random period/phase/amplitude per channel plus Gaussian noise — cheap
    to generate, non-degenerate for the encoder, and embarrassingly
    parallel across blocks.
    """
    total = spec["windows"]
    start = block_index * GENERATION_BLOCK
    rows = min(GENERATION_BLOCK, total - start)
    if rows <= 0:
        raise ValueError(f"block {block_index} out of range for {total} windows")
    seq_len, channels = spec["seq_len"], spec["channels"]
    rng = np.random.default_rng([spec["seed"], block_index])
    t = np.arange(seq_len, dtype=np.float64)[None, :, None]
    period = rng.uniform(4.0, 4.0 * seq_len, size=(rows, 1, channels))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(rows, 1, channels))
    amplitude = rng.uniform(0.5, 1.5, size=(rows, 1, channels))
    base = amplitude * np.sin(2.0 * np.pi * t / period + phase)
    noise = 0.3 * rng.standard_normal((rows, seq_len, channels))
    return np.ascontiguousarray(base + noise, dtype=np.float32)


def spec_total_windows(spec: dict) -> int | None:
    """Window count a spec will materialize, when cheaply known."""
    if spec.get("kind") == "synthetic_windows":
        return int(spec["windows"])
    return None


def _spec_window_array(data) -> np.ndarray:
    """Flatten a materialized data argument into an ``(N, T, C)`` array."""
    if isinstance(data, ForecastingWindows):
        x, __ = data.batch(np.arange(len(data)))
        return x
    return np.asarray(data)


def _spec_blocks(spec: dict):
    """Yield the spec's windows in canonical generation blocks."""
    kind = spec.get("kind")
    if kind == "synthetic_windows":
        blocks = math.ceil(spec["windows"] / GENERATION_BLOCK)
        for j in range(blocks):
            yield _synthetic_block(spec, j)
        return
    if kind == "store":
        # Re-chunking an existing store (e.g. copying it with a new shard
        # size) gathers lazily through the memory maps.
        from .store import open_store

        dataset = open_store(spec["path"])
        try:
            for start in range(0, len(dataset), GENERATION_BLOCK):
                stop = min(start + GENERATION_BLOCK, len(dataset))
                yield dataset.batch(np.arange(start, stop))
        finally:
            dataset.close()
        return
    windows = _spec_window_array(materialize_data_spec(spec))
    for start in range(0, len(windows), GENERATION_BLOCK):
        yield windows[start: start + GENERATION_BLOCK]


def iter_spec_windows(spec: dict, chunk_rows: int = GENERATION_BLOCK):
    """Yield the spec's windows as ``(rows, T, C)`` chunks of ``chunk_rows``.

    The stream is invariant to ``chunk_rows``: concatenating the chunks
    always reproduces the same array, bit for bit, regardless of how the
    consumer (a shard writer, a test) sizes its chunks.  The final chunk
    may be short.
    """
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be >= 1")
    pending: list[np.ndarray] = []
    have = 0
    for block in _spec_blocks(spec):
        if len(block) == 0:
            continue
        pending.append(block)
        have += len(block)
        while have >= chunk_rows:
            taken, out = 0, []
            while taken < chunk_rows:
                head = pending[0]
                need = chunk_rows - taken
                if len(head) <= need:
                    out.append(head)
                    taken += len(head)
                    pending.pop(0)
                else:
                    out.append(head[:need])
                    pending[0] = head[need:]
                    taken += need
            have -= chunk_rows
            yield out[0] if len(out) == 1 else np.concatenate(out)
    if have:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def materialize_spec_rows(spec: dict, start: int, stop: int) -> np.ndarray:
    """Materialize rows ``[start, stop)`` of a ``synthetic_windows`` spec
    without generating the rest of the corpus.

    Because window block ``j`` is a pure function of ``(seed, j)``, only
    the canonical blocks overlapping the range are generated; the result
    is bit-identical to ``materialize_data_spec(spec)[start:stop]``.
    Calibration reads the first rows of a spec this way
    (:mod:`repro.compile.pipeline`).
    """
    if spec.get("kind") != "synthetic_windows":
        raise ValueError("materialize_spec_rows requires a synthetic_windows "
                         f"spec, got kind {spec.get('kind')!r}")
    total = int(spec["windows"])
    if not 0 <= start <= stop <= total:
        raise ValueError(f"rows [{start}, {stop}) out of range for "
                         f"{total} windows")
    if start == stop:
        return np.empty((0, spec["seq_len"], spec["channels"]),
                        dtype=np.float32)
    first = start // GENERATION_BLOCK
    last = (stop - 1) // GENERATION_BLOCK
    blocks = [_synthetic_block(spec, j) for j in range(first, last + 1)]
    window = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    offset = first * GENERATION_BLOCK
    return window[start - offset: stop - offset]


def materialize_data_spec(spec: dict):
    """Rebuild the pre-training ``data`` argument a spec describes.

    Forecasting specs yield the train split's
    :class:`~repro.data.datasets.ForecastingWindows`; classification specs
    yield the raw training samples ``(N, T, C)``; synthetic_windows specs
    yield the full window array in memory (use a store for corpora that
    don't fit); store specs memory-map the on-disk store and yield a
    :class:`~repro.data.store.ShardedDataset`.
    """
    kind = spec.get("kind")
    if kind == "forecasting":
        series = load_forecasting_dataset(spec["dataset"],
                                          scale=spec.get("scale", 1.0),
                                          seed=spec.get("seed", 0))
        data = make_forecasting_data(series, spec["seq_len"], spec["pred_len"],
                                     stride=spec.get("stride", 1),
                                     univariate_target=spec.get("univariate_target"))
        return data.train
    if kind == "classification":
        x, y = load_classification_dataset(spec["dataset"],
                                           scale=spec.get("scale", 1.0),
                                           seed=spec.get("seed", 0))
        return make_classification_data(x, y, seed=spec.get("seed", 0)).x_train
    if kind == "synthetic_windows":
        blocks = math.ceil(spec["windows"] / GENERATION_BLOCK)
        if blocks == 1:
            return _synthetic_block(spec, 0)
        return np.concatenate([_synthetic_block(spec, j) for j in range(blocks)])
    if kind == "store":
        from .store import open_store

        return open_store(spec["path"])
    raise ValueError(f"unknown data_spec kind {kind!r} (expected 'forecasting', "
                     "'classification', 'synthetic_windows', or 'store')")
