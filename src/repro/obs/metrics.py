"""Counters and bucketed latency histograms for the serving path.

A tiny, dependency-free metrics model shaped after the Prometheus client
data model — just enough for ``GET /metrics`` (rendered by
:func:`repro.obs.exporters.render_prometheus`) and the quantile summaries
``GET /stats`` embeds:

* :class:`Counter` — monotonically increasing, labelled totals;
* :class:`Histogram` — fixed cumulative buckets per label set with
  ``sum``/``count``, plus interpolated p50/p95/p99 estimates;
* :class:`MetricsRegistry` — get-or-create by name, iteration in
  registration order (stable ``/metrics`` output).

Label values are stringified at observation time; label *names* are fixed
per metric at creation (a mismatch raises, matching Prometheus semantics).
All operations are dict updates under a per-metric lock — cheap enough to
sit on the span-finish path of every request phase, and safe under the
serve worker pool: ``counter.inc()`` / ``histogram.observe()`` are
read-modify-write sequences that would lose increments if two workers
interleaved (pinned by ``tests/serve/test_thread_safety.py``).  Readers
(``/metrics`` scrapes, ``/stats`` summaries) snapshot under the same lock
so they never observe a half-applied update.
"""

from __future__ import annotations

import threading

#: Default latency buckets, in seconds: 100 µs .. 10 s, roughly 1-2.5-5
#: per decade.  Warm serve phases land in the sub-millisecond buckets;
#: cold catalog loads and pathological queries land near the top.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)

_QUANTILES = (0.5, 0.95, 0.99)


def _label_key(label_names, labels):
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in label_names)


class Counter:
    """A monotonically increasing total, optionally labelled."""

    kind = "counter"

    __slots__ = ("name", "help_text", "label_names", "_values", "_lock")

    def __init__(self, name, help_text="", labels=()):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(labels)
        self._values = {}
        self._lock = threading.Lock()

    def inc(self, n=1, **labels):
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (n={n})")
        key = _label_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def value(self, **labels):
        key = _label_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0)

    def samples(self):
        """Yield ``(labels dict, value)`` per label set (zero sets = empty)."""
        with self._lock:
            items = list(self._values.items())
        for key, value in items:
            yield dict(zip(self.label_names, key)), value


class Histogram:
    """Cumulative fixed-bucket histogram with quantile interpolation."""

    kind = "histogram"

    __slots__ = (
        "name", "help_text", "label_names", "buckets", "_series", "_lock",
    )

    def __init__(self, name, help_text="", labels=(), buckets=DEFAULT_BUCKETS):
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(labels)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._series = {}  # label key -> [counts per bucket + inf, sum, count]
        self._lock = threading.Lock()

    def _entry(self, key):
        entry = self._series.get(key)
        if entry is None:
            entry = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        return entry

    def observe(self, value, **labels):
        key = _label_key(self.label_names, labels)
        with self._lock:
            entry = self._entry(key)
            counts = entry[0]
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1  # the +Inf bucket
            entry[1] += value
            entry[2] += 1

    # -- reading -------------------------------------------------------------

    def _snapshot_entry(self, key):
        """A copy of (counts, sum, count) for *key*, or None — lock-consistent."""
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                return None
            return list(entry[0]), entry[1], entry[2]

    def count(self, **labels):
        entry = self._snapshot_entry(_label_key(self.label_names, labels))
        return 0 if entry is None else entry[2]

    def sum(self, **labels):
        entry = self._snapshot_entry(_label_key(self.label_names, labels))
        return 0.0 if entry is None else entry[1]

    def quantile(self, q, **labels):
        """Estimate the q-quantile by linear interpolation within buckets.

        Observations past the last finite bound are clamped to it (the
        histogram does not track a max), matching Prometheus's
        ``histogram_quantile`` behaviour on the +Inf bucket.
        """
        entry = self._snapshot_entry(_label_key(self.label_names, labels))
        return None if entry is None else self._quantile(entry, q)

    def _quantile(self, entry, q):
        counts, _, total = entry
        if total == 0:
            return None
        rank = q * total
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.buckets):
            previous = cumulative
            cumulative += counts[index]
            if cumulative >= rank:
                if counts[index] == 0:  # pragma: no cover - rank on boundary
                    return bound
                fraction = (rank - previous) / counts[index]
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            lower = bound
        return self.buckets[-1]

    def snapshot(self, **labels):
        """JSON-friendly summary (count, sum, p50/p95/p99) for ``/stats``,
        from one lock-consistent copy of the series."""
        entry = self._snapshot_entry(_label_key(self.label_names, labels))
        if entry is None:
            entry = ((), 0.0, 0)
        summary = {"count": entry[2], "sum_s": round(entry[1], 6)}
        for q in _QUANTILES:
            value = self._quantile(entry, q)
            summary[f"p{int(q * 100)}_ms"] = (
                None if value is None else round(value * 1e3, 3)
            )
        return summary

    def label_sets(self):
        """The label dicts observed so far, in first-seen order."""
        with self._lock:
            keys = list(self._series)
        return [dict(zip(self.label_names, key)) for key in keys]

    def samples(self):
        """Yield ``(labels, cumulative bucket counts, sum, count)`` rows."""
        with self._lock:
            series = [
                (key, list(entry[0]), entry[1], entry[2])
                for key, entry in self._series.items()
            ]
        for key, counts, total_sum, total in series:
            cumulative = []
            running = 0
            for index in range(len(self.buckets)):
                running += counts[index]
                cumulative.append(running)
            yield dict(zip(self.label_names, key)), cumulative, total_sum, total


class MetricsRegistry:
    """Named metrics, get-or-create, iterated in registration order.

    Get-or-create is atomic (registry lock), so two pool workers racing to
    register the same name always share one metric object.
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def counter(self, name, help_text="", labels=()):
        return self._get_or_create(Counter, name, help_text, labels)

    def histogram(self, name, help_text="", labels=(), buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, help_text, labels, buckets)

    def _get_or_create(self, cls, name, help_text, labels, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help_text, labels, *args)
        self._check(metric, cls, labels)
        return metric

    @staticmethod
    def _check(metric, cls, labels):
        if not isinstance(metric, cls) or metric.label_names != tuple(labels):
            raise ValueError(
                f"metric {metric.name!r} already registered as "
                f"{metric.kind} with labels {metric.label_names}"
            )

    def get(self, name):
        with self._lock:
            return self._metrics.get(name)

    def __iter__(self):
        with self._lock:
            return iter(list(self._metrics.values()))

    def __len__(self):
        with self._lock:
            return len(self._metrics)

    def latency_summary(self):
        """Per-phase / per-backend quantile summaries for ``GET /stats``."""
        summary = {}
        for metric in self:
            if not isinstance(metric, Histogram):
                continue
            if metric.label_names:
                series = {}
                for labels in metric.label_sets():
                    key = ",".join(labels[n] for n in metric.label_names)
                    series[key] = metric.snapshot(**labels)
                summary[metric.name] = series
            elif metric.count():
                summary[metric.name] = metric.snapshot()
        return summary
