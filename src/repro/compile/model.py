"""``CompiledModel`` — a packed artifact speaking the serving protocol.

Implements :class:`repro.serve.api.InferenceAPI` (``encode`` /
``predict``) over the packed hot path, so a compiled or distilled
artifact drops into every consumer of the protocol: the
:class:`~repro.serve.registry.ModelRegistry` warm pool, the batching
engine, the gateway (including ``repro swap`` shadow-validation), and
the evaluation probes.

The numpy pre/post-processing around the packed encoder — instance
norm, channel independence, patching, instance pooling, the per-patch
reconstruction score — replays the exact expressions of
``TimeDRL.encode`` / ``TimeDRL.predict``, so in fp32 exact mode the
whole pipeline is bit-identical to the fp teacher.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core import patching
from ..core.config import TimeDRLConfig
from .errors import CompileError
from .packing import build_packed_encoder, build_packed_linear

__all__ = ["CompiledModel", "exact_fp32_model"]


def _pool_instance(z_i: np.ndarray, z_t: np.ndarray, method: str) -> np.ndarray:
    """Replays :func:`repro.core.pooling.pool_instance` on ndarrays."""
    if method == "cls":
        return z_i
    if method == "last":
        return z_t[:, -1, :]
    if method == "gap":
        # Tensor.mean = sum / float(count): replicate for bit-identity.
        return z_t.sum(axis=1) / float(z_t.shape[1])
    if method == "all":
        n, t, d = z_t.shape
        return z_t.reshape(n, t * d)
    raise CompileError(f"unknown pooling method {method!r}")


class CompiledModel:
    """A packed (optionally int8-quantized, optionally distilled) model.

    Construct via :func:`repro.compile.compile_model` or
    :func:`repro.compile.load_compiled`; the raw ``(arrays, meta)`` pair
    is the artifact's canonical content and stays attached for
    fingerprinting and serialization.
    """

    def __init__(self, arrays: dict[str, np.ndarray], meta: dict):
        self.arrays = arrays
        self.meta = meta
        self.config = TimeDRLConfig(**meta["model_config"])
        self.precision = meta.get("precision", "fp32")
        self.exact_gelu = bool(meta.get("exact_gelu", True))
        self.distilled = bool(meta.get("distilled", False))
        structure = meta["structure"]
        self._encoder = build_packed_encoder(
            arrays, structure, self.config, exact_gelu=self.exact_gelu,
            fuse_qkv=bool(meta.get("fuse_qkv", False)))
        self._head = build_packed_linear(arrays, "head", "packed.head")
        self._patch_proj = self._inst_proj = None
        if self.distilled:
            self._patch_proj = build_packed_linear(
                arrays, "patch_proj", "packed.patch_proj")
            self._inst_proj = build_packed_linear(
                arrays, "inst_proj", "packed.inst_proj")

    # -- module-protocol shims (the registry calls ``eval()`` on adopt) --
    @property
    def training(self) -> bool:
        return False

    def eval(self) -> "CompiledModel":
        return self

    def train(self, mode: bool = True) -> "CompiledModel":
        if mode:
            raise CompileError(
                "compiled models are inference-only; re-train the source "
                "checkpoint and re-run `repro compile`")
        return self

    # -- InferenceAPI ----------------------------------------------------
    def _prepare(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, C) series, got {x.shape}")
        normed = patching.instance_norm(x)
        if self.config.channel_independence:
            normed = patching.to_channel_independent(normed)
        return patching.patchify(normed, self.config.patch_len,
                                 self.config.stride)

    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Raw batch ``(B, T, C)`` to ``(timestamp_emb, instance_emb)``.

        Mirrors ``TimeDRL.encode``; a distilled student additionally
        projects both levels into the teacher's embedding widths, so the
        served shapes (and shadow-validation geometry) never change.
        """
        x_patched = self._prepare(x)
        z = self._encoder(x_patched)
        z_i = z[:, 0, :]
        z_t = z[:, 1:, :]
        pooled = _pool_instance(z_i, z_t, self.config.pooling)
        if self.distilled:
            z_t = self._patch_proj(z_t)
            pooled = self._inst_proj(pooled)
        return z_t, pooled

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Per-patch reconstruction scores, mirroring ``TimeDRL.predict``."""
        x_patched = self._prepare(x)
        z = self._encoder(x_patched)
        z_t = z[:, 1:, :]
        if self.distilled:
            z_t = self._patch_proj(z_t)
        recon = self._head(z_t)
        per_patch = ((recon - x_patched) ** 2).mean(axis=-1)
        if self.config.channel_independence:
            channels = x.shape[2]
            per_patch = per_patch.reshape(x.shape[0], channels, -1).max(axis=1)
        return per_patch

    # -- provenance ------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        return self.meta.get("content_sha256", "unfingerprinted")

    @property
    def kind(self) -> str:
        """Short label for reports: ``fp32`` / ``int8`` / ``student-int8``."""
        return ("student-" if self.distilled else "") + self.precision

    def __repr__(self) -> str:
        return (f"CompiledModel(kind={self.kind!r}, "
                f"exact_gelu={self.exact_gelu}, "
                f"layers={self.meta['structure']['num_layers']}, "
                f"d_model={self.config.d_model})")


def exact_fp32_model(arrays: dict[str, np.ndarray], structure: dict,
                     config: TimeDRLConfig,
                     fingerprint: str | None = None) -> CompiledModel:
    """The in-memory fp32 exact packed model over exported arrays.

    ``(arrays, structure)`` come from
    :func:`~repro.compile.packing.export_model_arrays` and ``config`` is
    the exported model's own config.  Exact erf GELU and separate q/k/v
    GEMMs keep ``encode``/``predict`` bit-identical to the source
    model's.  The serving registry loads every transformer checkpoint
    through it (``fingerprint`` is then the checkpoint's
    ``content_sha256``); the compile pipeline calibrates on it.
    """
    meta = {"model_config": dataclasses.asdict(config),
            "structure": structure, "precision": "fp32",
            "exact_gelu": True, "fuse_qkv": False,
            "distilled": structure["distilled"]}
    if fingerprint is not None:
        meta["content_sha256"] = fingerprint
    return CompiledModel(dict(arrays), meta)
