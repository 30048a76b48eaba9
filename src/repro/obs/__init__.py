"""Observability: span tracing, phase metrics, and their exporters.

The package is dependency-free (stdlib only) and import-light so the
engine can be instrumented without cycles: engine and backend modules
duck-type ``evaluator.tracer`` / ``context.tracer`` (importing at most
the :data:`NULL_SPAN` no-op singleton) and guard every site with
``tracer is not None``.  Only the API layer (Session, serve, cli)
constructs :class:`Tracer` instances and calls the exporters.
"""

from .metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry
from .tracer import DEFAULT_MAX_SPANS, NULL_SPAN, Event, Span, Tracer
from .exporters import (
    chrome_trace,
    render_prometheus,
    render_span_tree,
    write_chrome_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SPANS",
    "Counter",
    "Event",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "chrome_trace",
    "render_prometheus",
    "render_span_tree",
    "write_chrome_trace",
]
