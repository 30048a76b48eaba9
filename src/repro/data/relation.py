"""Named-schema relations with set/bag duality.

The paper insists on the *named perspective* (Codd's "totally associative
addressing", Section 2.1): tuples are accessed by attribute name, never by
position, and whether a relation is a set or a bag is a *convention*, not a
property of the query language (Section 2.7).  A :class:`Relation` therefore
always stores tuples with multiplicities; ``distinct()`` and the evaluator's
conventions decide when duplicates are collapsed.

A served answer, though, is read positionally: its rows in schema order,
sorted into the canonical row order (:meth:`Relation.sorted_values`).  An
answer that arrives as value rows — the SQLite backend's cursor rows — is
therefore kept *value-backed* (:meth:`Relation._adopt_values`): a dict of
distinct value tuples in schema order mapped to their multiplicities.
``len()``, :meth:`~Relation.sorted_values` and the renderings built on it
read that dict directly, so serving such an answer builds no
:class:`Tuple` per row.  Any other access — equality, iteration,
``counter()``, indexes, ``add`` and the derivations — first builds the
named tuples (late materialization), after which the value dict is dropped
and the relation behaves exactly like one built from tuples.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter, itemgetter

from ..errors import SchemaError
from .values import NULL, sort_key


class Tuple:
    """An immutable named tuple of values: attribute name -> value.

    Hashable so relations can be stored as Counters.  Attribute order is
    normalized to the schema order of the owning relation for display, but
    equality is name-based (logical independence from column order).
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values):
        self._values = dict(values)
        self._hash = hash(frozenset(self._values.items()))

    def __getitem__(self, attr):
        try:
            return self._values[attr]
        except KeyError:
            raise SchemaError(f"tuple has no attribute {attr!r}; has {sorted(self._values)}") from None

    def get(self, attr, default=None):
        return self._values.get(attr, default)

    def attributes(self):
        return set(self._values)

    def as_dict(self):
        return dict(self._values)

    def project(self, attrs):
        """Return a new tuple restricted to *attrs*."""
        if len(attrs) == len(self._values) and self._values.keys() == set(attrs):
            return self
        return Tuple({a: self[a] for a in attrs})

    @classmethod
    def _adopt(cls, values):
        """Fast constructor taking ownership of *values* (no copy).

        Internal: callers must not mutate *values* afterwards.
        """
        tup = cls.__new__(cls)
        tup._values = values
        tup._hash = hash(frozenset(values.items()))
        return tup

    def rename(self, mapping):
        """Return a new tuple with attributes renamed per *mapping* (old -> new)."""
        return Tuple({mapping.get(a, a): v for a, v in self._values.items()})

    def merged(self, other):
        """Return the union of two tuples (attribute-disjoint or agreeing)."""
        combined = dict(self._values)
        combined.update(other._values if isinstance(other, Tuple) else other)
        return Tuple(combined)

    def __eq__(self, other):
        if not isinstance(other, Tuple):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{a}={v!r}" for a, v in sorted(self._values.items()))
        return f"Tuple({inner})"


_TUPLE_VALUES = attrgetter("_values")

#: Column value types whose plain tuple comparison makes exactly the
#: comparisons :func:`~repro.data.values.sort_key` keys make: numbers
#: (``bool`` excluded, it sorts before every number) or strings alone.
_NUMBER_TYPES = frozenset([int, float])
_STRING_TYPES = frozenset([str])


def _row_sort_key(values):
    return tuple(map(sort_key, values))


def sort_canonical(rows):
    """Sort value tuples in place into the canonical row order.

    When every column holds only ``int``/``float`` or only ``str`` values,
    the tuples compare directly, without a Python call per cell; otherwise
    each row is keyed by its cells' ``sort_key``.  Both sorts make the same
    comparisons, so the order (stable, NaN included) is the same.
    """
    for column in zip(*rows):
        kinds = set(map(type, column))
        if not (kinds <= _NUMBER_TYPES or kinds == _STRING_TYPES):
            rows.sort(key=_row_sort_key)
            return
    rows.sort()


class Relation:
    """A multiset of :class:`Tuple` values over a fixed named schema.

    Parameters
    ----------
    name:
        Relation name (used in error messages and rendering).
    schema:
        Ordered attribute names.
    rows:
        Iterable of tuples; each row may be a dict, a :class:`Tuple`, or a
        positional sequence matched against *schema*.
    """

    #: Distinct value tuples in schema order -> multiplicity, while the
    #: relation is value-backed (see :meth:`_adopt_values`); None once the
    #: :class:`Tuple` rows exist, and always for a relation built from rows.
    _value_rows = None

    def __init__(self, name, schema, rows=()):
        self.name = name
        self.schema = tuple(schema)
        if len(set(self.schema)) != len(self.schema):
            raise SchemaError(f"relation {name!r} has duplicate attributes {self.schema}")
        self._schema_set = frozenset(self.schema)
        self._rows = Counter()
        self._indexes = {}  # attrs tuple -> {key tuple: [(Tuple, mult), ...]}
        self.index_builds = 0  # full index (re)builds; probes of a maintained index are free
        # Derived results (e.g. decorrelation indexes) keyed weakly by the
        # owning plan object; invalidated together with the indexes.
        self._derived = weakref.WeakKeyDictionary()
        for row in rows:
            self.add(row)

    # -- construction -----------------------------------------------------

    def _coerce(self, row):
        if isinstance(row, Tuple):
            values = row._values
            if values.keys() == self._schema_set:
                return row
            missing = self._schema_set - values.keys()
            if missing:
                raise SchemaError(f"row for {self.name!r} missing attributes {sorted(missing)}")
            return row.project(self.schema)
        if isinstance(row, dict):
            missing = set(self.schema) - set(row)
            if missing:
                raise SchemaError(f"row for {self.name!r} missing attributes {sorted(missing)}")
            return Tuple({a: row[a] for a in self.schema})
        row = tuple(row)
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row {row!r} has {len(row)} values but {self.name!r} has arity {len(self.schema)}"
            )
        return Tuple(dict(zip(self.schema, row)))

    def add(self, row, multiplicity=1):
        """Insert *row* with the given multiplicity (invalidates cached indexes)."""
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        coerced = self._coerce(row)
        if multiplicity:
            self._rows[coerced] += multiplicity
            if self._indexes:
                self._indexes.clear()
            if len(self._derived):
                self._derived.clear()
        return coerced

    def extend_new(self, rows, multiplicity=1):
        """Bulk-insert rows while *maintaining* cached hash indexes.

        Unlike :meth:`add`, which invalidates every cached index, this
        appends each new row to the matching index buckets in place — the
        semi-naive fixpoint grows its full relations once per round, and
        rebuilding their indexes each round would erase the benefit of
        probing delta→full.  Rows already present fall back to plain
        :meth:`add` (an extra bucket entry for an existing tuple would
        double-count it), and derived-result caches are always dropped.
        """
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        coerced = [self._coerce(row) for row in rows]
        if not coerced or not multiplicity:
            return
        if len(set(coerced)) != len(coerced) or any(
            row in self._rows for row in coerced
        ):
            # Duplicates (within the batch or against stored rows) must
            # *accumulate*; take the invalidating add() path.
            for row in coerced:
                self.add(row, multiplicity)
            return
        for row in coerced:
            self._rows[row] = multiplicity
        for attrs, index in self._indexes.items():
            for row in coerced:
                values = row._values
                key = tuple(values[a] for a in attrs)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [(row, multiplicity)]
                else:
                    bucket.append((row, multiplicity))
        if len(self._derived):
            self._derived.clear()

    @classmethod
    def _adopt_counter(cls, name, schema, counter):
        """Take ownership of a Tuple -> multiplicity Counter without coercion.

        Internal fast path: every key must already be a :class:`Tuple` whose
        attributes exactly match *schema* (the evaluator's head-built rows
        satisfy this by construction).
        """
        rel = cls(name, schema)
        rel._rows = counter
        return rel

    @classmethod
    def _adopt_values(cls, name, schema, value_rows):
        """Take ownership of a value-tuple -> multiplicity dict: a
        value-backed relation whose :class:`Tuple` rows are built only when
        something first reads them (see the module docstring).

        Internal fast path: every key must be a tuple of *schema*'s width in
        schema order, holding ``NULL`` (not ``None``) for a missing value;
        every multiplicity must be positive.
        """
        rel = cls(name, schema)
        del rel._rows  # uncovers the on-demand builder below
        rel._value_rows = value_rows
        return rel

    @cached_property
    def _rows(self):
        """The Tuple -> multiplicity Counter of a value-backed relation,
        built on first read.  Every relation built from rows holds a plain
        ``_rows`` attribute, which shadows this, so it costs them nothing."""
        value_rows = self._value_rows
        if value_rows is None:  # another thread built it first
            return self.__dict__["_rows"]
        tuples = map(Tuple._adopt, map(dict, map(zip, repeat(self.schema), value_rows)))
        rows = self.__dict__["_rows"] = Counter(dict(zip(tuples, value_rows.values())))
        # Dropped only once the Counter is in place, so a concurrent reader
        # of len() or sorted_values() always finds one of the two.
        self._value_rows = None
        return rows

    # -- hash indexes ------------------------------------------------------

    def index_on(self, attrs):
        """Return (building and caching on demand) a hash index over *attrs*.

        The index maps a tuple of attribute values to the list of
        ``(row, multiplicity)`` pairs sharing those values, enabling O(1)
        equality probes instead of full scans.  Indexes are invalidated by
        :meth:`add` and lazily rebuilt on the next probe.
        """
        attrs = tuple(attrs)
        index = self._indexes.get(attrs)
        if index is None:
            self.index_builds += 1
            unknown = set(attrs) - self._schema_set
            if unknown:
                raise SchemaError(
                    f"cannot index {self.name!r} on {sorted(unknown)}; "
                    f"schema is {self.schema}"
                )
            index = {}
            if len(attrs) == 1:
                attr = attrs[0]
                for row, mult in self._rows.items():
                    key = (row._values[attr],)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [(row, mult)]
                    else:
                        bucket.append((row, mult))
            else:
                for row, mult in self._rows.items():
                    values = row._values
                    key = tuple(values[a] for a in attrs)
                    bucket = index.get(key)
                    if bucket is None:
                        index[key] = [(row, mult)]
                    else:
                        bucket.append((row, mult))
            self._indexes[attrs] = index
        return index

    def derived_get(self, owner, tag):
        """A cached derived result for *owner* (a plan object), or None."""
        per_owner = self._derived.get(owner)
        return None if per_owner is None else per_owner.get(tag)

    def derived_put(self, owner, tag, value):
        """Cache a derived result; dropped when the relation changes."""
        self._derived.setdefault(owner, {})[tag] = value
        return value

    @staticmethod
    def derived_get_shared(relations, owner, tag):
        """A derived result cached consistently on *all* of *relations*.

        Used for results computed over several relations at once (e.g. a
        decorrelated scope's grouped index): the value is stored on every
        participating relation, and a mutation of *any* of them drops its
        copy — so the shared lookup only succeeds while every input is
        unchanged.  Returns None on any miss or disagreement.
        """
        if not relations:
            return None
        first = relations[0].derived_get(owner, tag)
        if first is None:
            return None
        for relation in relations[1:]:
            if relation.derived_get(owner, tag) is not first:
                return None
        return first

    @staticmethod
    def derived_put_shared(relations, owner, tag, value):
        """Cache *value* on every relation (see :meth:`derived_get_shared`)."""
        for relation in relations:
            relation.derived_put(owner, tag, value)
        return value

    # -- inspection --------------------------------------------------------

    def __iter__(self):
        """Iterate tuples with multiplicity (bag iteration)."""
        for row, mult in self._rows.items():
            for _ in range(mult):
                yield row

    def iter_distinct(self):
        """Iterate distinct tuples once each."""
        return iter(self._rows)

    def counter(self):
        """Return a copy of the underlying tuple -> multiplicity Counter."""
        return Counter(self._rows)

    def multiplicity(self, row):
        return self._rows.get(self._coerce(row), 0)

    def __len__(self):
        """Bag cardinality (total number of tuples, counting duplicates)."""
        value_rows = self._value_rows
        return sum((self._rows if value_rows is None else value_rows).values())

    def distinct_count(self):
        return len(self._rows)

    def is_empty(self):
        return not self._rows

    def __contains__(self, row):
        return self.multiplicity(row) > 0

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        """Bag equality: same schema set and same tuple multiplicities."""
        if not isinstance(other, Relation):
            return NotImplemented
        return set(self.schema) == set(other.schema) and self._rows == other._rows

    def __hash__(self):  # pragma: no cover - relations are not hashed in practice
        return hash((frozenset(self.schema), frozenset(self._rows.items())))

    def set_equal(self, other):
        """Set equality: same schema set and same distinct tuples."""
        return set(self.schema) == set(other.schema) and set(self._rows) == set(other._rows)

    # -- derivations ---------------------------------------------------------

    def distinct(self, name=None):
        """Return the deduplicated (set-semantics) version of this relation."""
        return Relation._adopt_counter(
            name or self.name, self.schema, Counter(dict.fromkeys(self._rows, 1))
        )

    def rename(self, mapping, name=None):
        new_schema = [mapping.get(a, a) for a in self.schema]
        rel = Relation(name or self.name, new_schema)
        for row, mult in self._rows.items():
            rel.add(row.rename(mapping), mult)
        return rel

    def project(self, attrs, name=None, *, dedupe=False):
        if set(attrs) == self._schema_set:
            # Attribute-preserving projection: rows are unchanged (access is
            # name-based), only the display schema order may differ.
            rel = Relation._adopt_counter(name or self.name, attrs, Counter(self._rows))
            return rel.distinct() if dedupe else rel
        rel = Relation(name or self.name, attrs)
        for row, mult in self._rows.items():
            rel.add(row.project(attrs), 1 if dedupe else mult)
        return rel if not dedupe else rel.distinct()

    def select(self, predicate, name=None):
        """Keep rows where *predicate* (a Python callable on Tuple) is truthy."""
        rel = Relation(name or self.name, self.schema)
        for row, mult in self._rows.items():
            if predicate(row):
                rel.add(row, mult)
        return rel

    def union(self, other, name=None, *, all=True):
        if set(self.schema) != set(other.schema):
            raise SchemaError(
                f"union schema mismatch: {self.schema} vs {other.schema}"
            )
        rel = Relation(name or self.name, self.schema)
        for row, mult in self._rows.items():
            rel.add(row, mult)
        for row, mult in other._rows.items():
            rel.add(row.project(self.schema), mult)
        return rel if all else rel.distinct()

    # -- display -------------------------------------------------------------

    def sorted_values(self):
        """The bag-expanded rows as value tuples in schema order, sorted into
        the canonical row order: the :func:`~repro.data.values.sort_key`
        order, column by column.

        This is the one owner of the order every deterministic rendering
        uses (served bodies, tables, CSV, reports, fingerprints).  A
        value-backed relation answers from its value rows, building no
        :class:`Tuple`.
        """
        counts = self._value_rows
        if counts is not None:
            rows = list(counts)
        else:
            counts = self._rows
            dicts = list(map(_TUPLE_VALUES, counts))
            schema = self.schema
            if len(schema) > 1:
                rows = list(map(itemgetter(*schema), dicts))
            elif schema:
                rows = list(zip(map(itemgetter(schema[0]), dicts)))
            else:
                rows = [()] * len(dicts)
        if len(rows) != sum(counts.values()):
            rows = list(chain.from_iterable(map(repeat, rows, counts.values())))
        sort_canonical(rows)
        return rows

    def json_rows(self):
        """:meth:`sorted_values` as JSON-able lists, NULL as ``None`` (mapped
        only in the rows that hold one)."""
        return [
            [None if v is NULL else v for v in values] if NULL in values
            else list(values)
            for values in self.sorted_values()
        ]

    def sorted_rows(self):
        """Rows as :class:`Tuple` values in the canonical order (for tests
        and display); see :meth:`sorted_values`."""
        schema = self.schema
        return [
            Tuple._adopt(dict(zip(schema, values))) for values in self.sorted_values()
        ]

    def to_table(self, *, max_rows=50):
        """Render an ASCII table (deterministic order)."""
        header = list(self.schema)
        body = [
            ["NULL" if v is NULL else str(v) for v in values]
            for values in self.sorted_values()[:max_rows]
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        def fmt(cells):
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [fmt(header), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(r) for r in body)
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self):
        return f"Relation({self.name!r}, schema={self.schema}, rows={len(self)})"
