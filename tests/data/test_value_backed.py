"""Value-backed relations behave exactly like relations built from tuples.

An answer that arrives as value rows (the SQLite backend's cursor rows) is
kept as a dict of value tuples -> multiplicities, and its :class:`Tuple`
rows are built only when something first reads them by name.  Over
generated relations with multiplicities and every kind of value (NULL,
bool, int, float with NaN, -0.0 and ±inf, str), a relation built through
``Relation._adopt_values`` must equal one built through ``add`` under every
public operation — and ``len()`` and the renderings must not build the
tuples at all.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.data import NULL, Relation, Tuple

_VALUES = st.one_of(
    st.just(NULL),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
    st.text(alphabet="ab1é", max_size=2),
)


@st.composite
def bags(draw):
    """``(schema, [(value tuple, multiplicity), ...])``; equal rows may repeat."""
    width = draw(st.integers(min_value=0, max_value=3))
    schema = tuple(f"c{i}" for i in range(width))
    rows = draw(st.lists(
        st.tuples(st.tuples(*[_VALUES] * width), st.integers(min_value=1, max_value=3)),
        max_size=10,
    ))
    return schema, rows


def _both(bag):
    """The same bag built both ways, from the same value objects (so a NaN
    cell is one object on both sides)."""
    schema, rows = bag
    built = Relation("R", schema)
    values = {}
    for row, mult in rows:
        built.add(row, mult)
        # Equal rows count together and keep the first one seen, as a
        # Counter over cursor rows does.
        values[row] = values.get(row, 0) + mult
    return Relation._adopt_values("R", schema, values), built


def _same_rows(left, right):
    return len(left) == len(right) and all(
        len(a) == len(b) and all(x is y or x == y for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


@settings(max_examples=200, deadline=None)
@given(bags())
def test_renderings_read_the_values_without_building_tuples(bag):
    lazy, built = _both(bag)
    assert len(lazy) == len(built)
    assert _same_rows(lazy.sorted_values(), built.sorted_values())
    assert _same_rows(lazy.json_rows(), built.json_rows())
    assert lazy.to_table() == built.to_table()
    assert lazy.sorted_rows() == built.sorted_rows()
    assert repr(lazy) == repr(built)
    assert lazy._value_rows is not None and "_rows" not in vars(lazy)


@settings(max_examples=200, deadline=None)
@given(bags(), st.data())
def test_every_other_operation_builds_the_tuples_first(bag, data):
    schema = bag[0]
    checks = [
        lambda r: r,
        lambda r: list(r),
        lambda r: list(r.iter_distinct()),
        lambda r: r.counter(),
        lambda r: r.distinct_count(),
        lambda r: r.is_empty(),
        lambda r: r.distinct(),
        lambda r: r.rename({a: a.upper() for a in schema}),
        lambda r: r.select(lambda row: len(row.attributes()) % 2 == 0),
        lambda r: r.union(r),
        lambda r: r.set_equal(r),
    ]
    attrs = data.draw(st.lists(st.sampled_from(schema), unique=True)) if schema else []
    checks += [
        lambda r: r.index_on(attrs),
        lambda r: r.project(attrs),
        lambda r: r.project(attrs, dedupe=True),
    ]
    for check in checks:
        lazy, built = _both(bag)
        assert check(lazy) == check(built)
        assert lazy._value_rows is None
        # Built once: the Counter stays the same object from then on.
        assert lazy._rows is lazy._rows
    lazy, built = _both(bag)
    assert built == lazy and lazy == built
    for row, _ in bag[1]:
        lazy, _ = _both(bag)
        assert lazy.multiplicity(row) == built.multiplicity(row) > 0
        assert row in lazy


@settings(max_examples=200, deadline=None)
@given(bags(), st.data())
def test_add_after_construction_counts_the_row(bag, data):
    schema, rows = bag
    row = data.draw(st.tuples(*[_VALUES] * len(schema)))
    if rows and data.draw(st.booleans()):
        row = rows[0][0]  # an existing row: its multiplicity grows
    for insert in (
        lambda r: r.add(row),
        lambda r: r.extend_new([row]),
    ):
        lazy, built = _both(bag)
        before = len(lazy)
        insert(lazy)
        insert(built)
        assert lazy._value_rows is None
        assert len(lazy) == before + 1
        assert lazy == built
        assert _same_rows(lazy.sorted_values(), built.sorted_values())


def test_the_tuples_are_built_once_on_first_read(monkeypatch):
    lazy = Relation._adopt_values("Q", ("A", "B"), {(1, NULL): 2, (2, "x"): 1})
    built = []
    original = Tuple._adopt.__func__

    def counting(cls, values):
        built.append(values)
        return original(cls, values)

    monkeypatch.setattr(Tuple, "_adopt", classmethod(counting))
    assert len(lazy) == 3 and lazy.json_rows() == [[1, None], [1, None], [2, "x"]]
    assert built == []
    assert sorted(row["A"] for row in lazy) == [1, 1, 2]
    assert built == [{"A": 1, "B": NULL}, {"A": 2, "B": "x"}]
    lazy.counter()
    assert len(built) == 2


def test_concurrent_first_reads_agree():
    """Threads racing to read a fresh value-backed relation — by value and
    by name at once — all see the same rows; no read finds neither form."""
    import sys
    import threading

    rows = {(i % 37, str(i), NULL if i % 5 == 0 else i / 2): 1 + i % 3 for i in range(300)}
    reference = Relation("R", ("A", "B", "C"))
    for row, mult in rows.items():
        reference.add(row, mult)
    expected = reference.sorted_values()
    reads = [
        lambda r: len(r) == len(reference),
        lambda r: r.sorted_values() == expected,
        lambda r: r.counter() == reference.counter(),
        lambda r: r.distinct_count() == len(rows),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    failures = []
    try:
        for _ in range(20):
            lazy = Relation._adopt_values("R", ("A", "B", "C"), dict(rows))
            start = threading.Barrier(8)

            def read(check):
                start.wait(timeout=10)
                if not check(lazy):
                    failures.append(check)

            threads = [
                threading.Thread(target=read, args=(reads[i % len(reads)],))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert lazy == reference and lazy._value_rows is None
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
