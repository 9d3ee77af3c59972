"""The packed operand layout: every packed weight is the C-contiguous
``(in, out)`` array of the ``nn.Linear`` parameter.

Each packed ``Linear`` runs ``np.matmul(x, weight)`` as one GEMM per
window, the same product ``Tensor.__matmul__`` runs under ``no_grad``
(docs/autograd.md "GEMM shapes"), on the same array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.compile import CompileOptions, compile_model, export_model_arrays
from repro.compile.packing import _fused_qkv
from repro.nn.inference import PackedLinear


def packed_linears(node):
    if isinstance(node, PackedLinear):
        yield node
    elif dataclasses.is_dataclass(node):
        for field in dataclasses.fields(node):
            yield from packed_linears(getattr(node, field.name))
    elif isinstance(node, list):
        for item in node:
            yield from packed_linears(item)


@pytest.mark.parametrize("options", [
    CompileOptions("fp32"),
    CompileOptions("fp32", exact_gelu=False, fuse_qkv=True),
    CompileOptions("int8"),
], ids=["fp32", "fp32-fused-qkv", "int8"])
def test_every_packed_weight_is_c_contiguous(model, windows, options):
    compiled, __ = compile_model(model, options, calibration=windows[:16])
    linears = [*packed_linears(compiled._encoder), compiled._head]
    assert {"packed.token_encoding", "packed.out_proj", "packed.ff1",
            "packed.ff2", "packed.head"} <= {linear.name for linear in linears}
    for linear in linears:
        assert linear.weight.flags.c_contiguous, linear.name
        assert linear.weight.shape[1] == len(linear.bias), linear.name
    quantized = [linear for linear in linears if linear.scale is not None]
    assert bool(quantized) == (options.precision == "int8")
    for linear in quantized:  # one scale per output column
        assert linear.scale.shape == (linear.weight.shape[1],), linear.name


def test_fp32_packed_weight_is_the_parameter_layout(model):
    compiled, __ = compile_model(model, CompileOptions("fp32"),
                                 calibration=None)
    layer = compiled._encoder.layers[0]
    source = model.encoder.backbone.layers[0]
    pairs = [(compiled._encoder.token, model.encoder.token_encoding),
             (layer.attention.q, source.attention.q_proj),
             (layer.attention.out, source.attention.out_proj),
             (layer.ff1, source.ff1), (layer.ff2, source.ff2),
             (compiled._head, model.predictive_head.proj)]
    for packed, linear in pairs:
        np.testing.assert_array_equal(packed.weight, linear.weight.data)


def test_fused_qkv_weight_is_in_by_three_d(model):
    arrays, __ = export_model_arrays(model)
    fused = _fused_qkv(arrays, "layers.0")
    d = model.config.d_model
    assert fused.weight.shape == (d, 3 * d)
    for index, part in enumerate("qkv"):
        np.testing.assert_array_equal(fused.weight[:, index * d:(index + 1) * d],
                                      arrays[f"layers.0.{part}.weight"])


def test_export_shares_no_memory_with_the_model(model):
    arrays, __ = export_model_arrays(model)
    for name, array in arrays.items():
        assert array.flags.c_contiguous, name
        assert not any(np.shares_memory(array, param.data)
                       for param in model.parameters()), name
