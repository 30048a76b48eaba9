"""The SQLite offload engine: execute rendered ARC SQL on ``sqlite3``.

This backend makes the paper's ``ARC → SQL`` direction executable: the node
is rendered through :func:`repro.backends.sql_render.to_sql`, the catalog is
loaded into a SQLite connection, the query runs there (including
``WITH RECURSIVE`` programs, which have no other executable SQL path), and
the result rows are coerced back into a schema-correct
:class:`~repro.data.relation.Relation`.

Catalog mapping
---------------
* values — ``NULL``/int/float/str map onto SQLite's NULL/INTEGER/REAL/TEXT
  (``bool`` stores as 0/1, matching the engine's Python-level ``True == 1``);
  NaN would silently become NULL inside SQLite, so it is rejected up front;
* bag semantics — every duplicate is inserted as its own row (its identity
  is the rowid), so multiplicities survive the round trip; set-convention
  evaluation is *not* offloaded (see the capability probe);
* columns are created without type affinity, so values come back exactly as
  inserted.

Connection cache
----------------
An in-memory connection belongs to the thread that loaded it: each thread
keeps one LRU of loaded catalogs keyed by *fingerprint* — a deterministic
digest of every relation's schema and rows — so repeated calls against an
unchanged catalog reuse the connection instead of reloading.  Connections
keep sqlite3's default ``check_same_thread=True``, so no handle (and no
per-run progress handler installed on it) is ever shared between threads;
the serve pool's workers each execute on their own.  Mutating a relation
changes its fingerprint (the per-relation digest rides the same
derived-result cache that ``Relation.add`` invalidates), which naturally
turns the next call into a cold load.  With ``db_file`` the catalog
persists on disk: the fingerprint is stored in a meta table and the tables
are reloaded only when it changes, so separate processes start warm.

Capability probe
----------------
``capabilities`` reports (triggering planner fallback in the registry):

* non-SQL conventions — set semantics, two-valued NULL comparisons, or the
  ZERO empty-aggregate convention;
* relations without a stored extension (externals, abstract definitions);
* correlated lateral subqueries that survive the FOI → FIO decorrelation
  pass (:func:`repro.engine.decorrelate.rewrite_for_sql` — which covers
  equality group-by joins, unnesting, and θ-band derived tables joined
  through the projected band key) *and* cannot be inlined as correlated
  scalar subqueries — each reported with the binding variable and the
  specific refusal, which names the correlation predicate (``< on s.A``)
  for θ shapes, since SQLite has no ``LATERAL``;
* ``/`` and ``%`` arithmetic (SQLite integer division/modulo differ from
  the engine's true division / Python modulo);
* negated or sentence-level quantifiers over NULL-bearing sources — SQL's
  EXISTS collapses an UNKNOWN Kleene fold to FALSE, observable under ``¬``
  (see :func:`_three_valued_hazard`);
* anything ``to_sql`` itself refuses to render.

Constructs the static probe cannot see (e.g. nonlinear recursion, which
SQLite rejects with "multiple references to recursive table") surface as
:class:`BackendUnsupported` at execution time and take the same fallback.
"""

from __future__ import annotations

import hashlib
import sqlite3
import threading
import time
import weakref
from collections import Counter, OrderedDict

from ...core import nodes as n
from ...core.scopes import free_variables
from ...data.relation import Relation, Tuple
from ...data.values import NULL, Truth, is_null, sort_key
from ...engine.decorrelate import rewrite_for_sql
from ...errors import QueryTimeout, RewriteError
from ...obs import NULL_SPAN
from ...util import failpoints
from ..sql_render import scalar_inlinable, to_sql
from .registry import Backend, BackendUnsupported


def _correlated_lateral_bindings(prepared):
    """Correlated lateral bindings the renderer will emit with LATERAL."""
    for sub in prepared.walk():
        if not isinstance(sub, n.Quantifier):
            continue
        for binding in sub.bindings:
            if (
                isinstance(binding.source, n.Collection)
                and free_variables(binding.source)
                and scalar_inlinable(sub, binding) is not None
            ):
                yield binding

_META_TABLE = "__arc_catalog__"
_CACHE_LIMIT = 8

#: Execute-retry policy for *transient* ``sqlite3.OperationalError``
#: ("database is locked" / "busy"): bounded attempts with deterministic
#: exponential backoff, so a briefly contended file catalog answers instead
#: of failing over.  Non-transient errors are never retried.
_RETRY_ATTEMPTS = 3
_RETRY_BASE_S = 0.01

#: SQLite VM instructions between progress-handler callbacks.  Small enough
#: that a runaway ``WITH RECURSIVE`` notices its deadline within
#: milliseconds; large enough to stay invisible on the warm serve path.
_PROGRESS_STRIDE = 4096

class _ThreadCache(threading.local):
    """The calling thread's fingerprint → in-memory connection LRU."""

    def __init__(self):
        self.connections = OrderedDict()


_thread = _ThreadCache()


class _FingerprintOwner:
    """Weak-referenceable key for the per-relation fingerprint cache."""


_FP_OWNER = _FingerprintOwner()


# ---------------------------------------------------------------------------
# Value mapping
# ---------------------------------------------------------------------------


def _to_sqlite(value, relation_name):
    if is_null(value):
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value:
            raise BackendUnsupported(
                f"relation {relation_name!r} contains NaN, which SQLite "
                "stores as NULL"
            )
        return value
    raise BackendUnsupported(
        f"relation {relation_name!r} contains a {type(value).__name__} "
        "value; SQLite holds NULL/int/float/str only"
    )


def _from_sqlite(value):
    return NULL if value is None else value


def _fp_token(value, relation_name):
    if is_null(value):
        return b"\x00N"
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return b"i" + str(value).encode()
    if isinstance(value, float):
        return b"f" + value.hex().encode()
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    raise BackendUnsupported(
        f"relation {relation_name!r} contains a {type(value).__name__} "
        "value; SQLite holds NULL/int/float/str only"
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def relation_fingerprint(relation):
    """Deterministic digest of a relation's schema and rows (cached).

    The cache rides :meth:`Relation.derived_put`, which every mutation
    (``add``/``extend_new``) drops, so a stale fingerprint is impossible.
    """
    cached = relation.derived_get(_FP_OWNER, "fingerprint")
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(repr(tuple(relation.schema)).encode("utf-8"))
    ordered = sorted(
        relation.counter().items(),
        key=lambda item: tuple(sort_key(item[0][a]) for a in relation.schema),
    )
    for row, mult in ordered:
        digest.update(b"\x00" + str(mult).encode())
        for attr in relation.schema:
            digest.update(b"\x01" + _fp_token(row[attr], relation.name))
    return relation.derived_put(_FP_OWNER, "fingerprint", digest.hexdigest())


def catalog_fingerprint(database):
    """Deterministic digest of the whole catalog (relation names + contents)."""
    digest = hashlib.sha256()
    for name in database.names():
        digest.update(name.encode("utf-8") + b"\x00")
        digest.update(relation_fingerprint(database[name]).encode("ascii"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Catalog loading
# ---------------------------------------------------------------------------


def _quote(identifier):
    return '"' + str(identifier).replace('"', '""') + '"'


def _check_identifiers(database):
    """SQLite identifiers are case-insensitive; reject colliding catalogs."""
    seen = {}
    for name in database.names():
        folded = name.lower()
        if folded == _META_TABLE.lower():
            raise BackendUnsupported(
                f"relation name {name!r} is reserved for the catalog "
                "fingerprint meta table"
            )
        if folded in seen:
            raise BackendUnsupported(
                f"relation names {seen[folded]!r} and {name!r} collide "
                "case-insensitively in SQLite"
            )
        seen[folded] = name
        relation = database[name]
        attrs = {}
        for attr in relation.schema:
            folded_attr = attr.lower()
            if folded_attr in attrs:
                raise BackendUnsupported(
                    f"attributes {attrs[folded_attr]!r} and {attr!r} of "
                    f"{name!r} collide case-insensitively in SQLite"
                )
            attrs[folded_attr] = attr


def _load_catalog(conn, database):
    """Create and populate one table per catalog relation (bag layout)."""
    failpoints.hit("catalog.load")
    _check_identifiers(database)
    for name in database.names():
        relation = database[name]
        columns = ", ".join(_quote(attr) for attr in relation.schema)
        try:
            conn.execute(f"create table {_quote(name)} ({columns})")
        except sqlite3.Error as exc:
            raise BackendUnsupported(
                f"SQLite rejected the schema of {name!r} ({exc})"
            ) from exc
        placeholders = ", ".join("?" for _ in relation.schema)
        rows = [
            tuple(_to_sqlite(row[attr], name) for attr in relation.schema)
            for row in relation  # bag iteration: one insert per duplicate
        ]
        if rows:
            conn.executemany(
                f"insert into {_quote(name)} values ({placeholders})", rows
            )
    conn.commit()


def connect_catalog(database, *, db_file=None):
    """``(conn, loaded)``: a SQLite connection holding *database*.

    In-memory connections come from the calling thread's LRU, so *loaded*
    is False on a warm hit; a cold load is cached only once complete, and
    the least recent connection beyond ``_CACHE_LIMIT`` is closed.  With
    *db_file* a fresh connection to the file is returned — the caller
    closes it — and the tables are reloaded (``loaded=True``) only when the
    stored fingerprint disagrees with the catalog's.
    """
    failpoints.hit("sqlite.connect")
    fingerprint = catalog_fingerprint(database)
    if db_file is None:
        connections = _thread.connections
        conn = connections.get(fingerprint)
        if conn is not None:
            connections.move_to_end(fingerprint)
            return conn, False
        conn = sqlite3.connect(":memory:")
        try:
            _load_catalog(conn, database)
        except BaseException:
            conn.close()
            raise
        connections[fingerprint] = conn
        while len(connections) > _CACHE_LIMIT:
            connections.popitem(last=False)[1].close()
        return conn, True

    conn = sqlite3.connect(db_file)
    try:
        stored = conn.execute(
            f"select fingerprint from {_quote(_META_TABLE)}"
        ).fetchone()
    except sqlite3.Error:
        stored = None
    if stored is not None and stored[0] == fingerprint:
        return conn, False
    try:
        for (table,) in conn.execute(
            "select name from sqlite_master where type = 'table'"
        ).fetchall():
            if not table.startswith("sqlite_"):
                conn.execute(f"drop table {_quote(table)}")
        _load_catalog(conn, database)
        conn.execute(f"create table {_quote(_META_TABLE)} (fingerprint text)")
        conn.execute(
            f"insert into {_quote(_META_TABLE)} values (?)", (fingerprint,)
        )
        conn.commit()
    except BaseException:
        conn.close()
        raise
    return conn, True


def clear_catalog_cache():
    """Close and drop the calling thread's cached connections (cold start)."""
    connections = _thread.connections
    while connections:
        connections.popitem(last=False)[1].close()


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------


def _relation_has_null(relation):
    """Whether any stored value is NULL (cached until the relation mutates)."""
    cached = relation.derived_get(_FP_OWNER, "has_null")
    if cached is None:
        cached = any(
            any(is_null(value) for value in row._values.values())
            for row in relation.iter_distinct()
        )
        relation.derived_put(_FP_OWNER, "has_null", cached)
    return cached


def _three_valued_hazard(prepared, database):
    """Reason SQL's two-valued EXISTS could diverge from the Kleene fold.

    SQL renders ``∃`` as EXISTS, which collapses an UNKNOWN-only fold to
    FALSE.  In a positive WHERE context that collapse is unobservable
    (UNKNOWN and FALSE both drop the row), but under ``¬`` — or as a
    sentence's top-level answer — it flips the result.  UNKNOWN needs a
    NULL to arise, so the hazard requires both an *exposed* quantifier and
    a NULL source: stored NULLs, NULL literals, or a non-count aggregate
    (NULL over an empty group).
    """
    exposed = isinstance(prepared, n.Sentence) or (
        isinstance(prepared, n.Program)
        and isinstance(prepared.resolve_main(), n.Sentence)
    )
    if not exposed:
        exposed = any(
            isinstance(sub, n.Not)
            and any(isinstance(inner, n.Quantifier) for inner in sub.walk())
            for sub in prepared.walk()
        )
    if not exposed:
        return None
    if any(
        isinstance(sub, n.Const) and is_null(sub.value) for sub in prepared.walk()
    ):
        return (
            "NULL literal under a negated/top-level quantifier "
            "(EXISTS collapses UNKNOWN)"
        )
    if any(
        isinstance(sub, n.AggCall) and not sub.func.startswith("count")
        for sub in prepared.walk()
    ):
        return (
            "non-count aggregate under a negated/top-level quantifier "
            "(empty groups yield NULL; EXISTS collapses UNKNOWN)"
        )
    if database is not None:
        nullable = sorted(
            name
            for name in {
                sub.name
                for sub in prepared.walk()
                if isinstance(sub, n.RelationRef)
            }
            if name in database and _relation_has_null(database[name])
        )
        if nullable:
            return (
                f"relations {nullable} contain NULLs under a negated/"
                "top-level quantifier (EXISTS collapses UNKNOWN)"
            )
    return None


def _prepare(node, database):
    """Wrap a self-recursive collection into a one-definition program.

    Mirrors the evaluator's handling (Section 2.9): a collection whose body
    references its own head name — and whose name is not a stored relation —
    denotes a least fixpoint, which renders as ``WITH RECURSIVE``.
    """
    if isinstance(node, n.Collection):
        name = node.head.name
        stored = database is not None and name in database
        if not stored and any(
            isinstance(sub, n.RelationRef) and sub.name == name
            for sub in node.walk()
        ):
            return n.Program({name: node}, name)
    return node


#: node -> (catalog-names token, prepared node).  ``_prepare`` depends on
#: the catalog only through relation *names* (stored vs recursive), so the
#: token invalidates on schema changes while row mutations stay warm.
_PREPARED_NODES = weakref.WeakKeyDictionary()

#: rewritten node -> rendered SQL text (a pure function of the AST).
_RENDERED_SQL = weakref.WeakKeyDictionary()


def _prepared_for(node, database):
    """Memoized :func:`_prepare` (per node, keyed by the catalog's names).

    The common case (non-recursive node) returns the node itself; it is
    stored as None so the weak-keyed entry never strongly references its
    own key (which would make it immortal).
    """
    names = frozenset(database.names()) if database is not None else frozenset()
    try:
        cached = _PREPARED_NODES.get(node)
    except TypeError:  # pragma: no cover - every AST node is weakref-able
        return _prepare(node, database)
    if cached is not None and cached[0] == names:
        return node if cached[1] is None else cached[1]
    prepared = _prepare(node, database)
    _PREPARED_NODES[node] = (names, None if prepared is node else prepared)
    return prepared


def compile_sql(node, database, *, decorrelate=True):
    """Compile *node* for SQLite: ``(executable node, SQL text)``.

    The executable node is :func:`_prepare`-wrapped and (unless disabled)
    FOI → FIO rewritten; the SQL text is its rendering.  Every step is
    memoized on the AST, so a prepared query that stays alive — a
    :class:`repro.api.Session` ``Prepared`` — compiles exactly once and
    re-runs render-free.  Raises :class:`BackendUnsupported` when the node
    is not renderable.
    """
    try:
        failpoints.hit("sql.render")
    except sqlite3.Error as exc:
        # A sqlite-flavored fault at render time can only mean "cannot
        # produce SQL" — surface it as the typed refusal so the registry
        # falls back instead of leaking a raw OperationalError.
        raise BackendUnsupported(f"SQL render failed ({exc})") from exc
    prepared = _prepared_for(node, database)
    if decorrelate:
        prepared, _ = rewrite_for_sql(prepared)
    sql = _RENDERED_SQL.get(prepared)
    if sql is None:
        try:
            sql = to_sql(prepared)
        except RewriteError as exc:
            raise BackendUnsupported(f"not renderable as SQL ({exc})") from exc
        _RENDERED_SQL[prepared] = sql
    return prepared, sql


def _is_transient(exc):
    """Whether an ``OperationalError`` is worth retrying (lock contention)."""
    message = str(exc).lower()
    return "locked" in message or "busy" in message


def execute_with_retry(conn, sql, *, stats_obj=None, sleep=time.sleep,
                       tracer=None):
    """Execute *sql* with bounded deterministic-backoff retries.

    Transient ``sqlite3.OperationalError`` ("database is locked"/"busy")
    retries up to :data:`_RETRY_ATTEMPTS` times, sleeping
    ``_RETRY_BASE_S * 2**attempt`` between attempts (*sleep* injectable for
    tests).  Each retry increments ``stats_obj.retries`` when an
    :class:`~repro.engine.planner.ExecutionStats` is supplied (and records a
    ``sqlite.retry`` event when a *tracer* is).  The ``sqlite.execute``
    failpoint fires once per attempt, so a ``locked*2`` spec
    deterministically drives the retry-then-succeed path.
    """
    last_exc = None
    for attempt in range(_RETRY_ATTEMPTS):
        try:
            failpoints.hit("sqlite.execute")
            return conn.execute(sql)
        except sqlite3.OperationalError as exc:
            if not _is_transient(exc):
                raise
            last_exc = exc
            if attempt + 1 < _RETRY_ATTEMPTS:
                if stats_obj is not None:
                    stats_obj.retries += 1
                if tracer is not None:
                    tracer.event(
                        "sqlite.retry", attempt=attempt + 1, error=str(exc)
                    )
                sleep(_RETRY_BASE_S * 2**attempt)
    raise last_exc


class SqliteBackend(Backend):
    """Render through ``to_sql`` and execute on a loaded SQLite catalog."""

    name = "sqlite"

    def capabilities(self, node, conventions, database=None, *, decorrelate=True):
        problems = []
        if not conventions.is_bag:
            problems.append("set semantics (SQL evaluates bags)")
        if not conventions.three_valued:
            problems.append("two-valued NULL comparisons (SQLite is 3VL)")
        if conventions.empty_aggregate.value != "null":
            problems.append(
                "ZERO empty-aggregate convention (SQLite returns NULL)"
            )
        prepared = _prepared_for(node, database)
        if decorrelate:
            prepared, leftover_laterals = rewrite_for_sql(prepared)
        else:
            # Mirror run(decorrelate=False): no rewrite happens, so every
            # correlated lateral that is not scalar-inlined needs LATERAL.
            leftover_laterals = [
                (binding.var, "decorrelation disabled (--no-decorrelate)")
                for binding in _correlated_lateral_bindings(prepared)
            ]
        defined = (
            set(prepared.definitions) if isinstance(prepared, n.Program) else set()
        )
        missing = sorted(
            {
                sub.name
                for sub in prepared.walk()
                if isinstance(sub, n.RelationRef)
                and sub.name not in defined
                and (database is None or sub.name not in database)
            }
        )
        if missing:
            problems.append(
                f"relations {missing} have no stored extension "
                "(external/abstract access patterns cannot be offloaded)"
            )
        for sub in prepared.walk():
            if isinstance(sub, n.Arith) and sub.op in ("/", "%"):
                problems.append(
                    f"arithmetic {sub.op!r} (SQLite integer division/modulo "
                    "differ from the engine's semantics)"
                )
            elif (
                isinstance(sub, n.Const)
                and isinstance(sub.value, str)
                and "'" in sub.value
            ):
                problems.append("string literal containing a quote")
        for var, reason in leftover_laterals:
            problems.append(
                f"correlated lateral binding {var!r} needs LATERAL, which "
                f"SQLite lacks: {reason}"
            )
        hazard = _three_valued_hazard(prepared, database)
        if hazard:
            problems.append(hazard)
        if not problems:
            try:
                compile_sql(node, database, decorrelate=decorrelate)
            except BackendUnsupported as exc:
                problems.append(str(exc))
        return list(dict.fromkeys(problems))

    def run(self, node, context):
        database, deadline, tracer = context.database, context.deadline, context.tracer
        db_file = context.options.db_file
        with NULL_SPAN if tracer is None else tracer.span("sql.compile"):
            prepared, sql = compile_sql(
                node, database, decorrelate=context.options.decorrelate
            )
        try:
            conn = context.acquire_connection()
        except sqlite3.Error as exc:
            # Connection/catalog-load faults are infrastructure refusals:
            # surface them typed so the registry can fall back cleanly.
            raise BackendUnsupported(
                f"SQLite connection failed ({exc})"
            ) from exc
        armed = deadline is not None and deadline.timeout_ms is not None
        if armed:
            # Nonzero return aborts the VM, which surfaces as
            # OperationalError("interrupted") — mapped to QueryTimeout
            # below, *before* the generic BackendUnsupported wrap (a
            # timed-out query must not fall back and run away again).
            conn.set_progress_handler(
                lambda: 1 if deadline.expired() else 0, _PROGRESS_STRIDE
            )
        try:
            with NULL_SPAN if tracer is None else tracer.span(
                "sqlite.execute"
            ) as span:
                try:
                    cursor = execute_with_retry(
                        conn, sql, stats_obj=context.stats, tracer=tracer
                    )
                    if deadline is not None and deadline.max_rows is not None:
                        raw = []
                        while True:
                            chunk = cursor.fetchmany(256)
                            if not chunk:
                                break
                            deadline.count_rows(len(chunk))
                            raw.extend(chunk)
                    else:
                        raw = cursor.fetchall()
                except sqlite3.Error as exc:
                    if armed and deadline.expired():
                        raise QueryTimeout(
                            f"query exceeded its {deadline.timeout_ms} ms "
                            "deadline (aborted inside SQLite)"
                        ) from exc
                    raise BackendUnsupported(
                        f"SQLite rejected the rendered query ({exc})"
                    ) from exc
                span.tag(rows=len(raw))
        finally:
            if armed:
                conn.set_progress_handler(None, 0)
            if db_file is not None:
                conn.close()
        return _shape_result(prepared, raw)


def _shape_result(prepared, raw):
    """Coerce the cursor rows back into the node's result type."""
    main = prepared.resolve_main() if isinstance(prepared, n.Program) else prepared
    if isinstance(main, n.Sentence):
        # SQL's EXISTS is two-valued: an UNKNOWN-only sentence collapses to
        # FALSE, which is exactly how SQL itself answers the rendered query.
        return Truth.TRUE if raw and raw[0][0] else Truth.FALSE
    head = main.head
    attrs = tuple(head.attrs)
    counter = Counter()
    # Deduplicate the raw rows first: cursor rows are plain tuples of
    # primitives, which hash at C speed, so a bag result with duplicates
    # (e.g. a projection) builds each distinct Tuple once instead of per
    # occurrence — the dominant cost of the warm serve path.
    for values, mult in Counter(raw).items():
        if len(values) != len(attrs):
            raise BackendUnsupported(
                f"SQLite returned {len(values)} columns for head "
                f"{head.name}({', '.join(attrs)})"
            )
        counter[
            Tuple._adopt(
                {attr: _from_sqlite(v) for attr, v in zip(attrs, values)}
            )
        ] += mult
    return Relation._adopt_counter(head.name, attrs, counter)
