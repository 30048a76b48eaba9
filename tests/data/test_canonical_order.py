"""The canonical row order: one owner, :meth:`Relation.sorted_values`.

Every deterministic rendering of a relation (served bodies, tables, CSV,
harness reports, catalog fingerprints) reads this order, so it is pinned
against the formula it replaced — sort the bag-expanded rows by
``tuple(sort_key(row[a]) for a in schema)`` — over generated relations
with multiplicities and every kind of value, NaN and -0.0 included.
"""

import http.client
import json
import math
import threading

from hypothesis import given, settings, strategies as st

import repro
from repro.api import Session
from repro.api.serve import QueryServer
from repro.backends.exec import sqlite_exec
from repro.core.conventions import SQL_CONVENTIONS
from repro.data import NULL, Relation
from repro.data.csvio import write_csv
from repro.data.values import sort_key

_NUMBERS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.5, -2.5, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True, width=16),
)
_STRINGS = st.text(alphabet="ab1é", max_size=2)
_ANY = st.one_of(st.just(NULL), st.booleans(), _NUMBERS, _STRINGS)

#: A column draws from one of these: numbers alone and strings alone take
#: the direct tuple sort, the others the keyed sort.
_COLUMN_KINDS = [
    _NUMBERS,
    _STRINGS,
    _ANY,
    st.one_of(st.just(NULL), _NUMBERS),
    st.one_of(st.booleans(), st.integers(min_value=-1, max_value=2)),
]


@st.composite
def relations(draw):
    width = draw(st.integers(min_value=0, max_value=3))
    kinds = [draw(st.sampled_from(_COLUMN_KINDS)) for _ in range(width)]
    schema = [f"c{i}" for i in range(width)]
    relation = Relation("R", schema)
    rows = draw(st.lists(st.tuples(*kinds), max_size=12))
    for row in rows:
        relation.add(row, draw(st.integers(min_value=1, max_value=3)))
    return relation


def _reference_order(relation):
    """The order every caller used before it had one owner."""
    ordered = sorted(
        relation, key=lambda row: tuple(sort_key(row[a]) for a in relation.schema)
    )
    return [tuple(row[a] for a in relation.schema) for row in ordered]


def _same_rows(left, right):
    """Element-wise identity-or-equality: NaN cells are the stored
    objects on both sides, so a reordering of NaN rows shows."""
    return len(left) == len(right) and all(
        len(a) == len(b) and all(x is y or x == y for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


@settings(max_examples=300, deadline=None)
@given(relations())
def test_sorted_values_is_the_sort_key_order(relation):
    assert _same_rows(relation.sorted_values(), _reference_order(relation))


@settings(max_examples=100, deadline=None)
@given(relations())
def test_renderings_read_the_one_order(relation):
    values = relation.sorted_values()
    assert len(values) == len(relation)
    assert _same_rows(
        [tuple(row[a] for a in relation.schema) for row in relation.sorted_rows()],
        values,
    )
    json_rows = relation.json_rows()
    assert all(isinstance(row, list) for row in json_rows)
    assert _same_rows(
        [tuple(NULL if v is None else v for v in row) for row in json_rows], values
    )
    assert not any(v is NULL for row in json_rows for v in row)


# -- pinned bytes ------------------------------------------------------------

def _catalog():
    db = repro.Database()
    db.create("R", ("A", "B", "C"), [
        (2, 1.5, "x"), (1, NULL, "y"), (1, 2, "x"), (1, 2, "x"),
        (True, -0.0, "é"), (3, 7, NULL), (0, 2.0, "a"),
    ])
    db.create("S", ("k",), [("b",), ("a",), ("a",)])
    return db


def test_catalog_fingerprint_is_pinned():
    assert sqlite_exec.catalog_fingerprint(_catalog()) == (
        "619bd68582d6b42ed9d50a6d27e34c99c73bce312b6e3cf43101b70d9af1c891"
    )


def test_csv_text_is_pinned():
    assert write_csv(_catalog()["R"]) == (
        "A,B,C\r\nTrue,-0.0,é\r\n0,2.0,a\r\n1,,y\r\n1,2,x\r\n1,2,x\r\n"
        "2,1.5,x\r\n3,7,\r\n"
    )


def test_served_body_is_pinned():
    """Several rows, a NULL, an int/float column and a duplicate, byte for
    byte as the server writes them."""
    server = QueryServer(("127.0.0.1", 0), Session(_catalog(), SQL_CONVENTIONS))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        conn.request(
            "POST", "/query",
            json.dumps({"query": "{Q(A, B) | ∃r ∈ R[Q.A = r.A ∧ Q.B = r.B]}"}),
            {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        conn.close()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert response.status == 200
    assert body == (
        b'{"columns": ["A", "B"], "fallback": [], "kind": "relation", '
        b'"name": "Q", "row_count": 7, "rows": [[true, -0.0], [0, 2.0], '
        b'[1, null], [1, 2], [1, 2], [2, 1.5], [3, 7]]}'
    )
