"""SLO rules: metric predicates evaluated against the live registry.

A rule is one comparison over the flattened metric namespace
(:func:`repro.obs.export.flatten_snapshot`), written the way you'd say
it::

    serve_request_ms_p95 < 10
    serve_cache_hit_rate > 0.3
    process_resident_bytes < 2e9

:class:`SloRules` parses a list of such strings, evaluates them against
a registry snapshot, and emits a structured ``alert`` event onto the
telemetry run spine for every violation — so an SLO breach lands in the
same ``events.jsonl`` (and ``repro runs tail``) as health findings and
checkpoint saves.  A metric that does not exist yet evaluates to
*unknown* (neither pass nor violation), because "no traffic yet" must
not page anyone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .export import flatten_snapshot
from .metrics import get_registry

__all__ = ["SloRule", "SloRules", "SloParseError", "GATEWAY_SLO_RULES"]

#: Default SLO predicates for a serving gateway (``repro serve``).
#: Names follow :func:`~repro.obs.export.flatten_snapshot`:
#: labeled counter children flatten to ``name{label="value"}`` and
#: histograms to ``name_p95`` etc.  The rules encode the robustness
#: contract: accepted-request latency stays bounded (shedding is how —
#: sheds themselves are *not* violations), the breaker is not stuck
#: open, and degraded answers stay the exception.
GATEWAY_SLO_RULES = (
    "gateway_request_ms_p95 < 250",
    "gateway_breaker_state < 2",
    "gateway_shed_total{reason=\"deadline\"} == 0",
    "gateway_degraded_total < 100",
)


class SloParseError(ValueError):
    """A rule string did not parse as ``metric OP number``."""


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_RULE_RE = re.compile(
    r"^\s*(?P<metric>[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s*"
    r"(?P<op><=|>=|==|!=|<|>)\s*"
    r"(?P<threshold>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*$")


@dataclass(frozen=True)
class SloRule:
    """One parsed predicate."""

    metric: str
    op: str
    threshold: float
    raw: str

    @classmethod
    def parse(cls, text: str) -> "SloRule":
        match = _RULE_RE.match(text)
        if match is None:
            raise SloParseError(
                f"cannot parse SLO rule {text!r} (expected "
                f"'<metric> <op> <number>', e.g. 'serve_request_ms_p95 < 10')")
        return cls(metric=match.group("metric"), op=match.group("op"),
                   threshold=float(match.group("threshold")),
                   raw=text.strip())

    def check(self, flat: dict[str, float]) -> dict:
        """Evaluate against a flattened snapshot → structured verdict."""
        value = flat.get(self.metric)
        if value is None:
            status = "unknown"
        else:
            status = "ok" if _OPS[self.op](value, self.threshold) else "violated"
        return {"rule": self.raw, "metric": self.metric, "op": self.op,
                "threshold": self.threshold, "value": value, "status": status}


class SloRules:
    """A rule set: parse once, evaluate repeatedly, alert on violations."""

    def __init__(self, rules):
        self.rules = [rule if isinstance(rule, SloRule) else SloRule.parse(rule)
                      for rule in rules]

    def __len__(self) -> int:
        return len(self.rules)

    def evaluate(self, registry=None, run=None) -> list[dict]:
        """Check every rule against ``registry`` (default: the process one).

        When ``run`` is an enabled telemetry run, every violation emits a
        structured ``alert`` event onto its spine.
        """
        registry = registry if registry is not None else get_registry()
        flat = flatten_snapshot(registry.snapshot())
        results = [rule.check(flat) for rule in self.rules]
        if run is not None and getattr(run, "enabled", False):
            for result in results:
                if result["status"] == "violated":
                    run.emit("alert", check="slo", **result)
        return results

    def violations(self, registry=None, run=None) -> list[dict]:
        return [r for r in self.evaluate(registry, run=run)
                if r["status"] == "violated"]
