"""CSV import/export for relations.

A deliberately small, dependency-free IO layer: enough to move instances in
and out of the substrate for examples and ad-hoc experiments.  Empty cells
are read as ``NULL``; numbers are inferred when every non-null cell of a
column parses as int/float.
"""

from __future__ import annotations

import csv
import io

from .relation import Relation
from .values import NULL, is_null


def _infer_column(values):
    """Choose int, float, or str for a column of raw strings (NULLs ignored)."""
    def try_cast(cast):
        out = []
        for v in values:
            if is_null(v):
                out.append(v)
                continue
            try:
                out.append(cast(v))
            except (TypeError, ValueError):
                return None
        return out

    for cast in (int, float):
        result = try_cast(cast)
        if result is not None:
            return result
    return values


def read_csv(source, name, *, delimiter=","):
    """Read a relation from a path or file-like object.

    The first row is the header (attribute names).  Empty strings become
    ``NULL``.  Column types are inferred (int, then float, else str).
    """
    if isinstance(source, (str, bytes)):
        with open(source, newline="") as handle:
            return read_csv(handle, name, delimiter=delimiter)
    reader = csv.reader(source, delimiter=delimiter)
    rows = list(reader)
    if not rows:
        raise ValueError("CSV input has no header row")
    header = [h.strip() for h in rows[0]]
    raw_columns = [[] for _ in header]
    for row in rows[1:]:
        for i in range(len(header)):
            cell = row[i].strip() if i < len(row) else ""
            raw_columns[i].append(NULL if cell == "" else cell)
    columns = [_infer_column(col) for col in raw_columns]
    relation = Relation(name, header)
    for i in range(len(rows) - 1):
        relation.add(tuple(col[i] for col in columns))
    return relation


def write_csv(relation, target=None, *, delimiter=","):
    """Write *relation* to a path/file-like object, or return CSV text."""
    buffer = None
    if target is None:
        buffer = io.StringIO()
        handle = buffer
    elif isinstance(target, (str, bytes)):
        with open(target, "w", newline="") as handle:
            write_csv(relation, handle, delimiter=delimiter)
        return None
    else:
        handle = target
    writer = csv.writer(handle, delimiter=delimiter)
    writer.writerow(relation.schema)
    for values in relation.sorted_values():
        if NULL in values:
            values = ["" if v is NULL else v for v in values]
        writer.writerow(values)
    if buffer is not None:
        return buffer.getvalue()
    return None
