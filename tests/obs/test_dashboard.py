"""Dashboard rendering: pure text, sections appear with their data, rates."""

from __future__ import annotations

from repro.obs.dashboard import Dashboard, format_bytes, format_quantity
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloRules


def _registry_with_serving() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("serve_requests_total", labels=("kind",)).labels(
        kind="encode").inc(10)
    registry.counter("serve_windows_total").inc(40)
    registry.counter("serve_batches_total").inc(4)
    registry.histogram("serve_request_ms", labels=("kind",)).labels(
        kind="encode").observe(2.5)
    registry.gauge("serve_queue_depth").set(0)
    return registry


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(None) == "—"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024 ** 3) == "3.0GiB"

    def test_format_quantity(self):
        assert format_quantity(None) == "—"
        assert format_quantity(7) == "7"
        assert format_quantity(1500) == "1.5k"
        assert format_quantity(2_500_000) == "2.5M"


class TestRender:
    def test_sections_appear_only_with_data(self):
        registry = _registry_with_serving()
        text = Dashboard(registry).render(now=1700000000.0)
        assert "repro obs" in text
        assert "-- serving " in text
        assert "requests: 10" in text
        # Nothing trained, prefetched, or checkpointed → no empty sections.
        assert "training" not in text
        assert "prefetch" not in text
        assert "checkpoints" not in text

    def test_no_ansi_codes(self):
        text = Dashboard(_registry_with_serving()).render()
        assert "\x1b" not in text

    def test_successive_renders_show_rates(self):
        registry = _registry_with_serving()
        dashboard = Dashboard(registry)
        dashboard.render(now=100.0)
        registry.counter("serve_windows_total").inc(60)
        text = dashboard.render(now=102.0)
        assert "refresh #1" in text
        assert "windows/s: 30" in text

    def test_slo_rows_render_all_three_verdicts(self):
        registry = _registry_with_serving()
        rules = SloRules(["serve_requests_total >= 1",    # PASS
                          "serve_requests_total < 1",     # FAIL
                          "absent_metric < 1"])           # unknown
        text = Dashboard(registry, slo_rules=rules).render()
        assert "[PASS] serve_requests_total >= 1" in text
        assert "[FAIL] serve_requests_total < 1" in text
        assert "[  ? ] absent_metric < 1" in text

    def test_training_shows_last_loss_per_phase(self):
        registry = MetricsRegistry()
        registry.counter("train_steps_total", labels=("phase",)).labels(
            phase="pretrain").inc(3)
        last_loss = registry.gauge("train_last_loss", labels=("phase",))
        last_loss.labels(phase="pretrain").set(0.5)
        last_loss.labels(phase="finetune_forecasting").set(0.25)
        text = Dashboard(registry).render()
        assert "loss pretrain: 0.5000" in text
        assert "loss finetune_forecasting: 0.2500" in text

    def test_falls_back_to_process_registry(self, registry):
        registry.counter("serve_requests_total").inc(2)
        assert "requests: 2" in Dashboard().render()
