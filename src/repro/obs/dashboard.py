"""Terminal dashboard renderer for ``repro obs snapshot|watch``.

Pure formatting: :class:`Dashboard` turns a registry snapshot into a
fixed-width text panel (resources, serving, cache, training, data,
checkpointing, SLO verdicts).  It keeps the previous counter snapshot so
successive renders show *rates* (requests/s, windows/s) next to totals —
the live ``watch`` loop calls ``render()`` once per refresh tick and the
CLI repaints the screen.

No ANSI codes in here; the CLI owns the terminal (clear/repaint), this
module owns the text, which keeps it printable in logs and testable as
plain strings.
"""

from __future__ import annotations

import time

from .export import flatten_snapshot
from .metrics import get_registry

__all__ = ["Dashboard", "format_bytes", "format_quantity"]

WIDTH = 78


def format_bytes(value: float | None) -> str:
    if value is None:
        return "—"
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or unit == "TiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}TiB"


def format_quantity(value: float | None, digits: int = 1) -> str:
    if value is None:
        return "—"
    if abs(value) >= 1e6:
        return f"{value / 1e6:.{digits}f}M"
    if abs(value) >= 1e3:
        return f"{value / 1e3:.{digits}f}k"
    if value == int(value):
        return str(int(value))
    return f"{value:.{digits}f}"


def _ms(flat: dict, name: str) -> str:
    value = flat.get(name)
    return "—" if value is None else f"{value:.2f}ms"


class Dashboard:
    """Stateful renderer: remembers the last snapshot to show rates."""

    def __init__(self, registry=None, slo_rules=None, title: str = "repro obs"):
        self._registry = registry
        self.slo_rules = slo_rules
        self.title = title
        self._previous_flat: dict[str, float] | None = None
        self._previous_time: float | None = None
        self.renders = 0

    @property
    def registry(self):
        return self._registry if self._registry is not None else get_registry()

    # -- rate bookkeeping -------------------------------------------------
    def _rate(self, flat: dict, name: str, elapsed: float | None) -> float | None:
        if (elapsed is None or elapsed <= 0 or self._previous_flat is None
                or name not in flat or name not in self._previous_flat):
            return None
        return (flat[name] - self._previous_flat[name]) / elapsed

    # -- rendering --------------------------------------------------------
    def render(self, now: float | None = None) -> str:
        registry = self.registry
        snapshot = registry.snapshot()
        flat = flatten_snapshot(snapshot)
        now = time.time() if now is None else now
        elapsed = (None if self._previous_time is None
                   else now - self._previous_time)

        lines: list[str] = []
        stamp = time.strftime("%H:%M:%S", time.localtime(now))
        header = f"{self.title} · {stamp}"
        if self.renders:
            header += f" · refresh #{self.renders}"
        lines.append("=" * WIDTH)
        lines.append(header[:WIDTH])
        lines.append("=" * WIDTH)
        lines.extend(self._resources_section(flat))
        lines.extend(self._serve_section(flat, elapsed))
        lines.extend(self._cache_section(flat))
        lines.extend(self._train_section(flat, elapsed))
        lines.extend(self._data_section(flat))
        lines.extend(self._checkpoint_section(flat))
        lines.extend(self._slo_section(registry))
        lines.append("=" * WIDTH)

        self._previous_flat = flat
        self._previous_time = now
        self.renders += 1
        return "\n".join(lines)

    def _section(self, title: str, rows: list[str]) -> list[str]:
        if not rows:
            return []
        return [f"-- {title} " + "-" * max(0, WIDTH - len(title) - 4), *rows]

    @staticmethod
    def _columns(pairs: list[tuple[str, str]], per_row: int = 3) -> list[str]:
        cell = WIDTH // per_row
        rows = []
        for start in range(0, len(pairs), per_row):
            chunk = pairs[start:start + per_row]
            rows.append("".join(f"{label}: {value}".ljust(cell)
                                for label, value in chunk).rstrip())
        return rows

    def _resources_section(self, flat: dict) -> list[str]:
        pairs = []
        if "process_resident_bytes" in flat:
            pairs.append(("rss", format_bytes(flat["process_resident_bytes"])))
        if "process_max_resident_bytes" in flat:
            pairs.append(("peak", format_bytes(flat["process_max_resident_bytes"])))
        if "process_cpu_seconds_total" in flat:
            pairs.append(("cpu", f"{flat['process_cpu_seconds_total']:.1f}s"))
        if "process_threads" in flat:
            pairs.append(("threads", format_quantity(flat["process_threads"])))
        if "process_open_fds" in flat:
            pairs.append(("fds", format_quantity(flat["process_open_fds"])))
        if "process_gc_collections_total" in flat:
            pairs.append(("gc runs",
                          format_quantity(flat["process_gc_collections_total"])))
        return self._section("resources", self._columns(pairs))

    def _serve_section(self, flat: dict, elapsed: float | None) -> list[str]:
        if "serve_requests_total" not in flat:
            return []
        pairs = [("requests", format_quantity(flat["serve_requests_total"], 0)),
                 ("windows", format_quantity(flat.get("serve_windows_total"), 0)),
                 ("batches", format_quantity(flat.get("serve_batches_total"), 0))]
        rate = self._rate(flat, "serve_windows_total", elapsed)
        if rate is not None:
            pairs.append(("windows/s", format_quantity(rate, 0)))
        if "serve_queue_depth" in flat:
            pairs.append(("queue", format_quantity(flat["serve_queue_depth"], 0)))
        rows = self._columns(pairs)
        latency = [("p50", _ms(flat, "serve_request_ms_p50")),
                   ("p95", _ms(flat, "serve_request_ms_p95")),
                   ("max", _ms(flat, "serve_request_ms_max"))]
        if flat.get("serve_request_ms_count"):
            rows += self._columns(latency)
        return self._section("serving", rows)

    def _cache_section(self, flat: dict) -> list[str]:
        if "serve_cache_hits_total" not in flat:
            return []
        pairs = [("hits", format_quantity(flat["serve_cache_hits_total"], 0)),
                 ("misses", format_quantity(flat.get("serve_cache_misses_total"), 0)),
                 ("evictions",
                  format_quantity(flat.get("serve_cache_evictions_total"), 0))]
        if "serve_cache_hit_rate" in flat:
            pairs.append(("hit rate", f"{flat['serve_cache_hit_rate']:.1%}"))
        if "serve_cache_size" in flat:
            pairs.append(("size", format_quantity(flat["serve_cache_size"], 0)))
        return self._section("embedding cache", self._columns(pairs))

    def _train_section(self, flat: dict, elapsed: float | None) -> list[str]:
        if "train_steps_total" not in flat:
            return []
        pairs = [("steps", format_quantity(flat["train_steps_total"], 0)),
                 ("epochs", format_quantity(flat.get("train_epochs_total"), 0))]
        rate = self._rate(flat, "train_steps_total", elapsed)
        if rate is not None:
            pairs.append(("steps/s", format_quantity(rate, 1)))
        prefix = 'train_last_loss{phase="'
        for key in sorted(flat):
            if key.startswith(prefix):
                phase = key[len(prefix):-2]
                pairs.append((f"loss {phase}", f"{flat[key]:.4f}"))
        if flat.get("train_epoch_seconds_count"):
            pairs.append(("epoch mean",
                          f"{flat['train_epoch_seconds_mean']:.2f}s"))
        return self._section("training", self._columns(pairs))

    def _data_section(self, flat: dict) -> list[str]:
        if "prefetch_batches_total" not in flat:
            return []
        pairs = [("batches", format_quantity(flat["prefetch_batches_total"], 0)),
                 ("queue", format_quantity(flat.get("prefetch_queue_depth"), 0))]
        if flat.get("prefetch_wait_ms_count"):
            pairs.append(("stall p95", _ms(flat, "prefetch_wait_ms_p95")))
        return self._section("prefetch", self._columns(pairs))

    def _checkpoint_section(self, flat: dict) -> list[str]:
        if not (flat.get("checkpoint_save_ms_count")
                or flat.get("checkpoint_load_ms_count")):
            return []
        pairs = []
        if flat.get("checkpoint_save_ms_count"):
            pairs.append(("saves",
                          format_quantity(flat["checkpoint_save_ms_count"], 0)))
            pairs.append(("save p95", _ms(flat, "checkpoint_save_ms_p95")))
        if flat.get("checkpoint_load_ms_count"):
            pairs.append(("loads",
                          format_quantity(flat["checkpoint_load_ms_count"], 0)))
            pairs.append(("load p95", _ms(flat, "checkpoint_load_ms_p95")))
        return self._section("checkpoints", self._columns(pairs))

    def _slo_section(self, registry) -> list[str]:
        if self.slo_rules is None or not len(self.slo_rules):
            return []
        rows = []
        for result in self.slo_rules.evaluate(registry):
            marker = {"ok": "PASS", "violated": "FAIL",
                      "unknown": "  ? "}[result["status"]]
            value = (f"{result['value']:.4g}" if result["value"] is not None
                     else "—")
            rows.append(f"[{marker}] {result['rule']}  (value: {value})")
        return self._section("slo", rows)
