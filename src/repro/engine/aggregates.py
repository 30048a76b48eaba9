"""Aggregate evaluation over groups of rows.

ARC's conceptual evaluation strategy (Section 2.5 of the paper) defines
aggregates *over the full join*: the scope's satisfying rows are partitioned
by the grouping key, and each aggregate folds one designated expression over
the rows of a group.  Multiple aggregates share the same scope (unlike the
Klug/Hella formalisms, which need one scope per aggregate).

SQL semantics are followed for inputs: NULL argument values are skipped by
every aggregate except ``count(*)``.  What an aggregate returns over an
*empty* input is a :class:`~repro.core.conventions.EmptyAggregate`
convention — SQL says NULL, Soufflé says the neutral element (Section 2.6).
"""

from __future__ import annotations

from ..core.conventions import EmptyAggregate
from ..data.values import NULL, is_null, sort_key
from ..errors import EvaluationError


def aggregate(func, values, conventions):
    """Fold *values* (an iterable of (value, multiplicity) pairs) with *func*.

    ``values`` are the evaluated aggregate arguments for every row of the
    group, with bag multiplicities; ``func`` is one of
    :data:`repro.core.nodes.AGGREGATE_FUNCTIONS`.  ``count`` with
    ``values=None`` is not handled here — the caller passes row
    multiplicities for ``count(*)``.
    """
    distinct = func.endswith("distinct")
    base = func[: -len("distinct")] if distinct else func

    non_null = [(v, m) for v, m in values if not is_null(v)]
    if distinct:
        non_null = [(v, 1) for v in {v for v, _ in non_null}]

    if base == "count":
        return sum(m for _, m in non_null)
    if not non_null:
        return _empty_value(base, conventions)
    if base == "sum":
        return numeric_total(func, non_null)
    if base == "avg":
        total = numeric_total(func, non_null)
        count = sum(m for _, m in non_null)
        return total / count
    if base in ("min", "max"):
        return extremum(func, [v for v, _ in non_null])
    raise EvaluationError(f"unknown aggregate function {func!r}")


def count_rows(multiplicities):
    """``count(*)``: the number of rows in the group (NULLs included)."""
    return sum(multiplicities)


def numeric_total(func, pairs):
    """Σ value × multiplicity over *pairs*, for the aggregate *func*.

    A value that is not a number raises an :class:`EvaluationError` naming
    the aggregate and the value, rather than Python's ``TypeError``.
    """
    total = 0
    for value, mult in pairs:
        try:
            total += value * mult
        except TypeError:
            raise EvaluationError(
                f"aggregate {func} over a non-numeric value: {value!r}"
            ) from None
    return total


def extremum(func, values):
    """min/max (per *func*) over a non-empty list of non-NULL *values*.

    Values that do not order against each other (a string beside a
    number) raise an :class:`EvaluationError` naming the aggregate and the
    least and greatest value in :func:`~repro.data.values.sort_key` order
    (so the message does not depend on row order), rather than Python's
    ``TypeError``.
    """
    try:
        return min(values) if func.startswith("min") else max(values)
    except TypeError:
        low, high = min(values, key=sort_key), max(values, key=sort_key)
        raise EvaluationError(
            f"aggregate {func} over values that do not compare: {low!r} and {high!r}"
        ) from None


def _empty_value(base, conventions):
    """Value of a non-count aggregate over an empty (or all-NULL) group."""
    if conventions.empty_aggregate is EmptyAggregate.ZERO:
        # Soufflé's convention: the neutral element.  Soufflé itself errors
        # on min/max over empty sets; we use 0 to keep the family total,
        # documented in DESIGN.md.
        return 0
    return NULL
