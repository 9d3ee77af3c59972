"""Exporters: Prometheus text exposition, JSON snapshots, and the parser.

``prometheus_text`` serializes a :class:`~repro.obs.metrics.MetricsRegistry`
into the Prometheus text exposition format (version 0.0.4): ``# HELP`` /
``# TYPE`` headers, one sample per line, histograms expanded into
cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.

``parse_prometheus`` is the inverse used by tests and the CI smoke: it
re-reads an exposition document into families and *validates* it —
unknown sample suffixes, non-cumulative buckets, or count/sum
disagreements raise :class:`ExpositionError`.  A successful round-trip
through the parser is the format contract.

``flatten_snapshot`` projects a registry snapshot onto a flat
``{name: value}`` dict (histograms contribute ``_count``/``_mean``/
``_p50``/``_p95``/``_max`` entries) — the namespace
:mod:`repro.obs.slo` predicates evaluate against.
"""

from __future__ import annotations

import json
import math
import re
import time

from .metrics import MetricsRegistry, _HistogramChild

__all__ = ["prometheus_text", "json_snapshot", "parse_prometheus",
           "flatten_snapshot", "ExpositionError", "METRIC_PREFIX"]

METRIC_PREFIX = "repro_"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


class ExpositionError(ValueError):
    """An exposition document failed to parse or validate."""


def _escape(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _label_string(labels: dict, extra: dict | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    body = ",".join(f'{key}="{_escape(value)}"'
                    for key, value in sorted(merged.items()))
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry,
                    prefix: str = METRIC_PREFIX) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        name = prefix + family.name
        if not _NAME_RE.match(name):
            raise ExpositionError(f"invalid metric name {name!r}")
        lines.append(f"# HELP {name} {_escape(family.help)}")
        lines.append(f"# TYPE {name} {family.kind}")
        for labels, child in family.series():
            if family.kind in ("counter", "gauge"):
                lines.append(f"{name}{_label_string(labels)} "
                             f"{_format_value(child.value)}")
                continue
            snap = child._snapshot()
            cumulative = 0
            for bound, count in snap["buckets"]:
                cumulative += count
                le = "+Inf" if bound == "+Inf" else _format_value(float(bound))
                lines.append(f"{name}_bucket{_label_string(labels, {'le': le})} "
                             f"{cumulative}")
            lines.append(f"{name}_sum{_label_string(labels)} "
                         f"{_format_value(snap['sum'])}")
            lines.append(f"{name}_count{_label_string(labels)} "
                         f"{snap['count']}")
    return "\n".join(lines) + "\n"


def json_snapshot(registry: MetricsRegistry, **extra) -> dict:
    """JSON-able snapshot document (what ``repro obs snapshot -o`` writes)."""
    return {"format": "repro-obs-snapshot/1",
            "generated_unix": time.time(),
            "metrics": registry.snapshot(),
            **extra}


def write_json_snapshot(registry: MetricsRegistry, path, **extra) -> dict:
    from ..utils.fileio import atomic_write_text

    document = json_snapshot(registry, **extra)
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True))
    return document


# ---------------------------------------------------------------------------
# Parsing + validation (tests and the CI golden check)
# ---------------------------------------------------------------------------
def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError as error:
        raise ExpositionError(f"bad sample value {text!r}") from error


def _unescape(value: str) -> str:
    return (value.replace('\\"', '"').replace("\\n", "\n")
            .replace("\\\\", "\\"))


def parse_prometheus(text: str) -> dict:
    """Parse + validate an exposition document.

    Returns ``{family_name: {"type", "help", "samples"}}`` where each
    sample is ``(sample_name, labels_dict, value)``.  Histogram families
    are checked for cumulative buckets, a ``+Inf`` bucket, and
    bucket/count agreement.
    """
    families: dict[str, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            __, __, rest = line.partition("# HELP ")
            name, __, help_text = rest.partition(" ")
            families.setdefault(name, {"type": None, "help": "",
                                       "samples": []})
            families[name]["help"] = _unescape(help_text)
            continue
        if line.startswith("# TYPE "):
            __, __, rest = line.partition("# TYPE ")
            name, __, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ExpositionError(f"line {lineno}: unknown type {kind!r}")
            families.setdefault(name, {"type": None, "help": "",
                                       "samples": []})
            families[name]["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: unparsable sample {line!r}")
        sample_name = match.group("name")
        labels = {}
        if match.group("labels"):
            consumed = 0
            for label_match in _LABEL_RE.finditer(match.group("labels")):
                labels[label_match.group(1)] = _unescape(label_match.group(2))
                consumed += 1
            declared = [p for p in match.group("labels").split(",") if p.strip()]
            if consumed != len(declared):
                raise ExpositionError(
                    f"line {lineno}: malformed labels in {line!r}")
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[:-len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                family_name = base
                break
        if family_name not in families:
            raise ExpositionError(
                f"line {lineno}: sample {sample_name!r} has no # TYPE header")
        families[family_name]["samples"].append(
            (sample_name, labels, _parse_value(match.group("value"))))
    for name, family in families.items():
        if family["type"] is None:
            raise ExpositionError(f"family {name!r} has no # TYPE header")
        if family["type"] == "histogram":
            _validate_histogram(name, family["samples"])
    return families


def _validate_histogram(name: str, samples: list) -> None:
    series: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        entry = series.setdefault(key, {"buckets": [], "sum": None,
                                        "count": None})
        if sample_name == f"{name}_bucket":
            if "le" not in labels:
                raise ExpositionError(f"{name}: bucket sample without le label")
            entry["buckets"].append((_parse_value(labels["le"]), value))
        elif sample_name == f"{name}_sum":
            entry["sum"] = value
        elif sample_name == f"{name}_count":
            entry["count"] = value
        else:
            raise ExpositionError(
                f"{name}: unexpected histogram sample {sample_name!r}")
    for key, entry in series.items():
        buckets = sorted(entry["buckets"])
        if not buckets or buckets[-1][0] != math.inf:
            raise ExpositionError(f"{name}: histogram lacks a +Inf bucket")
        counts = [count for __, count in buckets]
        if counts != sorted(counts):
            raise ExpositionError(f"{name}: buckets are not cumulative")
        if entry["count"] is None or entry["sum"] is None:
            raise ExpositionError(f"{name}: missing _count or _sum sample")
        if counts[-1] != entry["count"]:
            raise ExpositionError(
                f"{name}: +Inf bucket ({counts[-1]}) disagrees with _count "
                f"({entry['count']})")


# ---------------------------------------------------------------------------
# Flattening (the SLO predicate namespace)
# ---------------------------------------------------------------------------
def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """Project a registry snapshot onto flat ``{name: value}`` entries.

    Counters/gauges contribute their family aggregate under the bare
    name plus one ``name{label="value",...}`` entry per labeled child.
    Histograms contribute ``name_count``, ``name_sum``, ``name_mean``,
    ``name_p50``, ``name_p95``, ``name_max`` over the merged series.
    """
    flat: dict[str, float] = {}
    for name, family in snapshot.items():
        kind = family["kind"]
        series = family["series"]
        if kind in ("counter", "gauge"):
            total = 0.0
            for entry in series:
                total += entry["value"]
                if entry["labels"]:
                    label_body = ",".join(
                        f'{k}="{v}"' for k, v in sorted(entry["labels"].items()))
                    flat[f"{name}{{{label_body}}}"] = entry["value"]
            if series:
                flat[name] = total
            continue
        merged = _merged_histogram(series)
        flat[f"{name}_count"] = float(merged.count)
        flat[f"{name}_sum"] = float(merged.sum)
        if merged.count:
            flat[f"{name}_mean"] = merged.mean
            flat[f"{name}_max"] = merged._max
            for q in (50, 95):
                flat[f"{name}_p{q}"] = merged.percentile(q)
    return flat


def _merged_histogram(series: list) -> _HistogramChild:
    """One histogram child holding every snapshotted series of a family,
    so the flat percentiles are :meth:`_HistogramChild.percentile`'s."""
    buckets = series[0]["buckets"][:-1] if series else ()
    merged = _HistogramChild(tuple(float(bound) for bound, __ in buckets))
    for entry in series:
        merged.merge_snapshot(entry)
    return merged
