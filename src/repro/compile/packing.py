"""The pre-packing pass: model parameters → GEMM-ready packed layouts.

``export_model_arrays`` walks a :class:`~repro.core.model.TimeDRL` (or a
distilled :class:`~repro.compile.distill.StudentModel`) and exports every
inference-relevant parameter into one flat ``name -> ndarray`` dict — the
canonical form that is checksummed, quantized, and serialized by
:mod:`repro.compile.artifact`.  ``build_packed_encoder`` turns that dict
back into the :class:`~repro.nn.inference.PackedSequenceEncoder` hot
path, performing the layout work exactly once:

* Linear weights keep ``nn.Linear``'s C-contiguous ``(in, out)`` layout,
  the operand of its per-window GEMM under ``no_grad``
  (docs/autograd.md "GEMM shapes");
* the Q/K/V projections fuse column-wise into a single ``(in, 3*d)``
  weight — one GEMM per layer instead of three, bit-identical blocks;
* the positional table and the causal mask (decoder ablation) are baked
  for the encoder's fixed ``1 + T_p`` token count;
* int8 entries are cast to float32 grid points once ("dequant-free").

Only the transformer backbones compile; the recurrent/convolutional
ablation backbones raise :class:`~repro.compile.errors.CompileError`.
"""

from __future__ import annotations

import numpy as np

from ..nn.attention import causal_mask
from ..nn.inference import (
    PackedAttention,
    PackedEncoderLayer,
    PackedLayerNorm,
    PackedLinear,
    PackedSequenceEncoder,
)
from ..nn.tensor import DEFAULT_DTYPE
from .errors import CompileError

__all__ = [
    "COMPILABLE_BACKBONES",
    "export_model_arrays",
    "build_packed_encoder",
    "build_packed_linear",
    "linear_prefixes",
]

COMPILABLE_BACKBONES = ("transformer", "transformer_decoder")


def _export_linear(arrays: dict, prefix: str, linear) -> None:
    arrays[f"{prefix}.weight"] = linear.weight.data.copy()
    if linear.bias is not None:
        arrays[f"{prefix}.bias"] = linear.bias.data.copy()


def export_model_arrays(model) -> tuple[dict[str, np.ndarray], dict]:
    """Export a C-contiguous copy of ``model``'s inference parameters as
    ``(arrays, structure)``, so later training cannot change an artifact.

    ``model`` is a ``TimeDRL`` or a distilled ``StudentModel`` (duck
    typed: ``.config``, ``.encoder``, ``.predictive_head``, and for
    students ``.patch_proj`` / ``.inst_proj``).  ``structure`` carries
    the non-array facts ``build_packed_encoder`` needs (layer count,
    heads, causal flag, per-norm eps).
    """
    config = model.config
    if config.backbone not in COMPILABLE_BACKBONES:
        raise CompileError(
            f"backbone {config.backbone!r} is not compilable; "
            f"repro.compile supports {', '.join(COMPILABLE_BACKBONES)}")
    encoder = model.encoder
    arrays: dict[str, np.ndarray] = {
        "cls_token": encoder.cls_token.data.copy(),
        "pos": encoder.positional_encoding.weight.data.copy(),
    }
    _export_linear(arrays, "token", encoder.token_encoding)
    eps: dict[str, float] = {}
    layers = list(encoder.backbone.layers)
    causal = False
    for index, layer in enumerate(layers):
        prefix = f"layers.{index}"
        attn = layer.attention
        causal = bool(layer.causal)
        _export_linear(arrays, f"{prefix}.q", attn.q_proj)
        _export_linear(arrays, f"{prefix}.k", attn.k_proj)
        _export_linear(arrays, f"{prefix}.v", attn.v_proj)
        _export_linear(arrays, f"{prefix}.out", attn.out_proj)
        _export_linear(arrays, f"{prefix}.ff1", layer.ff1)
        _export_linear(arrays, f"{prefix}.ff2", layer.ff2)
        for norm_name in ("norm1", "norm2"):
            norm = getattr(layer, norm_name)
            arrays[f"{prefix}.{norm_name}.weight"] = norm.weight.data.copy()
            arrays[f"{prefix}.{norm_name}.bias"] = norm.bias.data.copy()
            eps[f"{prefix}.{norm_name}"] = float(norm.eps)
    _export_linear(arrays, "head", model.predictive_head.proj)
    distilled = hasattr(model, "patch_proj")
    if distilled:
        _export_linear(arrays, "patch_proj", model.patch_proj)
        _export_linear(arrays, "inst_proj", model.inst_proj)
    structure = {
        "num_layers": len(layers),
        "num_heads": int(layers[0].attention.num_heads) if layers else 0,
        "causal": causal,
        "norm_eps": eps,
        "distilled": distilled,
    }
    return arrays, structure


def linear_prefixes(structure: dict) -> list[str]:
    """The quantizable linear-layer prefixes, in forward order."""
    prefixes = ["token"]
    for index in range(structure["num_layers"]):
        prefixes += [f"layers.{index}.q", f"layers.{index}.k",
                     f"layers.{index}.v", f"layers.{index}.out",
                     f"layers.{index}.ff1", f"layers.{index}.ff2"]
    prefixes.append("head")
    if structure.get("distilled"):
        prefixes += ["patch_proj", "inst_proj"]
    return prefixes


def build_packed_linear(arrays: dict, prefix: str,
                        name: str | None = None) -> PackedLinear:
    """Build the packed GEMM operand for one (possibly int8) linear."""
    weight = arrays[f"{prefix}.weight"]
    scale = arrays.get(f"{prefix}.scale")
    if scale is not None:
        # int8 grid points cast to fp32 once; the per-channel scale is
        # applied to the layer *output*, never to the weight per call.
        weight = weight.astype(DEFAULT_DTYPE)
        scale = np.ascontiguousarray(scale, dtype=DEFAULT_DTYPE)
    bias = arrays.get(f"{prefix}.bias")
    return PackedLinear(weight=weight, bias=bias, scale=scale,
                        name=name or f"packed.{prefix.split('.')[-1]}")


def _fused_qkv(arrays: dict, prefix: str) -> PackedLinear | None:
    """Column-fuse q/k/v into one GEMM operand, or ``None`` if the three
    disagree on quantization (a mixed triple keeps separate GEMMs)."""
    scales = [arrays.get(f"{prefix}.{part}.scale") for part in "qkv"]
    if sum(scale is not None for scale in scales) not in (0, 3):
        return None
    weights = [arrays[f"{prefix}.{part}.weight"] for part in "qkv"]
    weight = np.concatenate([w.astype(DEFAULT_DTYPE) for w in weights], axis=1)
    scale = (np.concatenate(scales).astype(DEFAULT_DTYPE)
             if scales[0] is not None else None)
    bias = np.concatenate([arrays[f"{prefix}.{part}.bias"] for part in "qkv"])
    return PackedLinear(weight=weight, bias=bias, scale=scale,
                        name="packed.qkv")


def build_packed_encoder(arrays: dict, structure: dict,
                         config, exact_gelu: bool = True,
                         fuse_qkv: bool = False) -> PackedSequenceEncoder:
    """Assemble the packed hot path from exported arrays.

    ``config`` is the encoder's :class:`~repro.core.TimeDRLConfig` (the
    student's, for distilled artifacts) — it fixes the token geometry.
    ``fuse_qkv`` trades the bit-identity of separate q/k/v GEMMs for one
    fused GEMM per layer (fast mode only).
    """
    tokens = 1 + config.num_patches
    eps = structure.get("norm_eps", {})
    layers = []
    for index in range(structure["num_layers"]):
        prefix = f"layers.{index}"
        num_heads = structure["num_heads"]
        head_dim = config.d_model // num_heads
        mask = None
        if structure.get("causal"):
            mask = causal_mask(tokens)[None, None, :, :]
        qkv = _fused_qkv(arrays, prefix) if fuse_qkv else None
        attention = PackedAttention(
            out=build_packed_linear(arrays, f"{prefix}.out", "packed.out_proj"),
            num_heads=num_heads,
            head_dim=head_dim,
            scale=np.asarray(float(np.sqrt(head_dim)), dtype=DEFAULT_DTYPE),
            qkv=qkv,
            q=None if qkv is not None else build_packed_linear(
                arrays, f"{prefix}.q", "packed.q_proj"),
            k=None if qkv is not None else build_packed_linear(
                arrays, f"{prefix}.k", "packed.k_proj"),
            v=None if qkv is not None else build_packed_linear(
                arrays, f"{prefix}.v", "packed.v_proj"),
            mask=mask)
        layers.append(PackedEncoderLayer(
            attention=attention,
            norm1=PackedLayerNorm(
                weight=arrays[f"{prefix}.norm1.weight"],
                bias=arrays[f"{prefix}.norm1.bias"],
                eps=eps.get(f"{prefix}.norm1", 1e-5)),
            ff1=build_packed_linear(arrays, f"{prefix}.ff1", "packed.ff1"),
            ff2=build_packed_linear(arrays, f"{prefix}.ff2", "packed.ff2"),
            norm2=PackedLayerNorm(
                weight=arrays[f"{prefix}.norm2.weight"],
                bias=arrays[f"{prefix}.norm2.bias"],
                eps=eps.get(f"{prefix}.norm2", 1e-5)),
        ))
    pos = np.ascontiguousarray(arrays["pos"][:tokens, :])
    return PackedSequenceEncoder(
        cls_token=arrays["cls_token"],
        token=build_packed_linear(arrays, "token", "packed.token_encoding"),
        pos=pos,
        layers=layers,
        exact_gelu=exact_gelu,
        token_dim=config.token_dim)
