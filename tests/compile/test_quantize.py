"""Unit tests for the int8 quantization pass and its calibration plan."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compile import (
    CompileOptions,
    compile_model,
    export_model_arrays,
    plan_quantization,
    quantize_weight,
)
from repro.compile.packing import linear_prefixes
from repro.compile.quantize import ActivationObserver, record_range

class TestQuantizeWeight:
    def test_roundtrip_error_bounded_by_half_scale(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((24, 16)).astype(np.float32)  # (in, out)
        q, scale, max_err = quantize_weight(w)
        assert q.dtype == np.int8
        assert scale.shape == (16,)
        dequant = q.astype(np.float32) * scale
        per_column_err = np.abs(w - dequant).max(axis=0)
        assert np.all(per_column_err <= scale / 2 + 1e-7)
        assert max_err == pytest.approx(per_column_err.max())

    def test_zero_column_guard(self):
        w = np.zeros((8, 3), dtype=np.float32)
        w[:, 1] = np.linspace(-1, 1, 8)
        q, scale, __ = quantize_weight(w)
        assert scale[0] == 1.0 and scale[2] == 1.0
        assert not q[:, 0].any() and not q[:, 2].any()
        assert np.abs(q).max() == 127

    def test_symmetric_range(self):
        w = np.array([[-2.0], [0.5], [1.0]], dtype=np.float32)
        q, scale, __ = quantize_weight(w)
        assert scale[0] == pytest.approx(2.0 / 127.0)
        assert q.min() >= -127 and q.max() <= 127


class TestPlanQuantization:
    def test_quantizes_every_prefix_without_ranges(self, model):
        arrays, structure = export_model_arrays(model)
        out, decisions = plan_quantization(arrays, structure, {})
        prefixes = linear_prefixes(structure)
        assert [d.name for d in decisions] == prefixes
        for prefix in prefixes:
            assert out[f"{prefix}.weight"].dtype == np.int8
            assert f"{prefix}.scale" in out

    def test_budget_keeps_hot_layers_fp32(self, model):
        arrays, structure = export_model_arrays(model)
        ranges = {"token": 1e6}   # absurd activation range on one layer
        out, decisions = plan_quantization(arrays, structure, ranges,
                                           error_budget=0.5)
        by_name = {d.name: d for d in decisions}
        assert not by_name["token"].quantized
        assert "error budget" in by_name["token"].reason
        assert out["token.weight"].dtype == np.float32
        assert "token.scale" not in out
        # layers with no observed range still quantize
        assert by_name["head"].quantized

    def test_bad_budget_rejected(self, model):
        arrays, structure = export_model_arrays(model)
        with pytest.raises(ValueError, match="error_budget"):
            plan_quantization(arrays, structure, {}, error_budget=0.0)

    def test_decisions_serializable(self, model, windows):
        __, report = compile_model(model, CompileOptions("int8"),
                                   calibration=windows[:16])
        import json

        payload = json.loads(json.dumps(report["layers"]))
        assert all(d["reason"] for d in payload)


class TestCalibration:
    def test_observer_records_and_delegates(self):
        ranges = {}
        observer = ActivationObserver(lambda x: x * 2, ranges, "probe")
        x = np.array([[1.0, -3.0]], dtype=np.float32)
        np.testing.assert_array_equal(observer(x), x * 2)
        assert ranges["probe"] == 3.0
        observer(np.array([[0.5]], dtype=np.float32))
        assert ranges["probe"] == 3.0   # max-holds

    def test_record_range_empty_input(self):
        ranges = {}
        record_range(ranges, "k", np.zeros((0, 3), dtype=np.float32))
        assert ranges.get("k", 0.0) == 0.0

    def test_calibration_populates_every_linear(self, model, windows):
        __, report = compile_model(model, CompileOptions("int8"),
                                   calibration=windows[:16])
        by_name = {d["name"]: d for d in report["layers"]}
        assert all(d["act_absmax"] > 0 for d in by_name.values())

    def test_calibration_does_not_leave_observers(self, model, windows):
        compiled, __ = compile_model(model, CompileOptions("fp32"),
                                     calibration=windows[:16])
        # after calibration the hot path must carry zero observer overhead
        from repro.nn.inference import PackedLinear

        encoder = compiled._encoder
        assert isinstance(encoder.token, PackedLinear)
        for layer in encoder.layers:
            assert isinstance(layer.ff1, PackedLinear)
            assert isinstance(layer.ff2, PackedLinear)
