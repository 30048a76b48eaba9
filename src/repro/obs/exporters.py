"""Exporters: Prometheus text, Chrome-trace JSON, and the explain tree.

Three serializations of the same observability records:

* :func:`render_prometheus` — the registry (plus counter/gauge rows the
  server reads from its telemetry snapshot) in the Prometheus text
  exposition format v0.0.4, served by ``GET /metrics``;
* :func:`chrome_trace` / :func:`write_chrome_trace` — finished spans as
  ``chrome://tracing`` / Perfetto "trace event" JSON, one timeline row per
  query id, with tags and stats deltas in ``args`` (the ``--trace-out``
  artifact CI archives per benchmark run);
* :func:`render_span_tree` — the human tree ``repro eval --explain`` and
  ``Prepared.explain()`` print: durations, per-child share of the root,
  tags (strategy decisions, fallback reasons) and counter deltas.
"""

from __future__ import annotations

import json

from .metrics import Counter, Histogram


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _escape_label(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels):
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _bound_label(bound):
    text = repr(float(bound))
    return text[:-2] if text.endswith(".0") else text


def render_prometheus(registry, extra=()):
    """Render *registry* (and *extra* rows) as Prometheus text v0.0.4.

    *extra* is an iterable of ``(name, kind, help, samples)`` where *kind*
    is ``"counter"`` or ``"gauge"`` and *samples* is a list of
    ``(labels dict, value)`` — how ``GET /metrics`` exports the values
    the server already keeps (its snapshot) without copying them into
    the registry.
    """
    lines = []
    for metric in registry:
        lines.append(f"# HELP {metric.name} {metric.help_text}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Counter):
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} {_format_value(value)}"
                )
        elif isinstance(metric, Histogram):
            for labels, cumulative, total_sum, total in metric.samples():
                for bound, count in zip(metric.buckets, cumulative):
                    bucket_labels = dict(labels, le=_bound_label(bound))
                    lines.append(
                        f"{metric.name}_bucket{_format_labels(bucket_labels)} "
                        f"{count}"
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{metric.name}_bucket{_format_labels(inf_labels)} {total}"
                )
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} "
                    f"{_format_value(total_sum)}"
                )
                lines.append(
                    f"{metric.name}_count{_format_labels(labels)} {total}"
                )
    for name, kind, help_text, samples in extra:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def chrome_trace(spans, events=()):
    """Spans/events as a Chrome trace-viewer ``traceEvents`` document.

    Load the written file in ``chrome://tracing`` or https://ui.perfetto.dev.
    Each query id gets its own ``tid`` (timeline row); spans are complete
    ("X") events with microsecond timestamps relative to the earliest span,
    and tracer events are instant ("i") marks.  Tags and stats deltas ride
    the ``args`` payload.
    """
    tids = {}

    def tid_for(query_id):
        key = query_id or "-"
        if key not in tids:
            tids[key] = len(tids) + 1
        return tids[key]

    base = min(
        [span.start for span in spans] + [event.ts for event in events],
        default=0.0,
    )
    trace_events = []
    for span in spans:
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        if span.query_id is not None:
            args["query_id"] = span.query_id
        if span.tags:
            args.update(span.tags)
        if span.stats_delta:
            args["stats"] = dict(span.stats_delta)
        trace_events.append(
            {
                "name": span.name,
                "cat": "arc",
                "ph": "X",
                "ts": round((span.start - base) * 1e6, 3),
                "dur": round(span.duration_s * 1e6, 3),
                "pid": 1,
                "tid": tid_for(span.query_id),
                "args": args,
            }
        )
    for event in events:
        args = {"parent_id": event.parent_id}
        if event.query_id is not None:
            args["query_id"] = event.query_id
        if event.tags:
            args.update(event.tags)
        trace_events.append(
            {
                "name": event.name,
                "cat": "arc",
                "ph": "i",
                "s": "t",
                "ts": round((event.ts - base) * 1e6, 3),
                "pid": 1,
                "tid": tid_for(event.query_id),
                "args": args,
            }
        )
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": f"query {query_id}"},
        }
        for query_id, tid in tids.items()
    ]
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, spans, events=()):
    """Serialize :func:`chrome_trace` to *path*; returns the document."""
    document = chrome_trace(spans, events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
    return document


# ---------------------------------------------------------------------------
# Explain tree
# ---------------------------------------------------------------------------


def _format_tags(tags):
    return " ".join(f"{key}={value}" for key, value in tags.items())


def _format_delta(delta):
    inner = " ".join(f"{key}=+{value}" for key, value in sorted(delta.items()))
    return f"[{inner}]"


def render_span_tree(spans, events=(), *, file=None):
    """The explain tree: one block per root span, box-drawing children.

    Each line shows the phase, its duration, its share of the root span's
    wall time, its tags, and the ExecutionStats counters that moved inside
    it.  Events render as ``·`` marks under their parent span.
    """
    by_id = {span.span_id: span for span in spans}
    children = {}
    roots = []
    for span in spans:
        if span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for event in events:
        if event.parent_id in by_id:
            children.setdefault(event.parent_id, []).append(event)

    def start_of(record):
        return record.start if isinstance(record, type(spans[0])) else record.ts

    lines = []

    def describe(record, root_duration):
        if hasattr(record, "duration_s"):  # a Span
            parts = [record.name, f"{record.duration_s * 1e3:.2f} ms"]
            if root_duration > 0 and record.duration_s is not None:
                parts.append(f"{record.duration_s / root_duration * 100:.0f}%")
            if record.tags:
                parts.append(_format_tags(record.tags))
            if record.stats_delta:
                parts.append(_format_delta(record.stats_delta))
            return "  ".join(parts)
        parts = [f"· {record.name}"]
        if record.tags:
            parts.append(_format_tags(record.tags))
        return "  ".join(parts)

    def walk(record, prefix, is_last, root_duration):
        connector = "└─ " if is_last else "├─ "
        lines.append(prefix + connector + describe(record, root_duration))
        kids = sorted(
            children.get(getattr(record, "span_id", None), []),
            key=lambda r: getattr(r, "start", getattr(r, "ts", 0.0)),
        )
        child_prefix = prefix + ("   " if is_last else "│  ")
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, root_duration)

    for root in sorted(roots, key=lambda s: s.start):
        header = [root.name, f"{root.duration_s * 1e3:.2f} ms"]
        if root.query_id is not None:
            header.append(f"query_id={root.query_id}")
        if root.tags:
            header.append(_format_tags(root.tags))
        if root.stats_delta:
            header.append(_format_delta(root.stats_delta))
        lines.append("  ".join(header))
        kids = sorted(
            children.get(root.span_id, []),
            key=lambda r: getattr(r, "start", getattr(r, "ts", 0.0)),
        )
        for index, kid in enumerate(kids):
            walk(kid, "", index == len(kids) - 1, root.duration_s)
    text = "\n".join(lines)
    if file is not None:
        print(text, file=file)
    return text
