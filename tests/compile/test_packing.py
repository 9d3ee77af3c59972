"""The packed operand layout: every packed weight is C-contiguous.

Each packed ``Linear`` runs ``np.matmul(x, weight)`` as one GEMM per
window, the same product ``Tensor.__matmul__`` runs under ``no_grad``
(docs/autograd.md "GEMM shapes"); both take the ``(in, out)`` weight
C-contiguous.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.compile import CompileOptions, compile_model
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
