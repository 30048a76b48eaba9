"""FOI → FIO decorrelation of lateral and boolean scopes.

The paper contrasts two renderings of "aggregate per outer row"
(Section 2.5): **FOI** — "for each outer row, compute the inner aggregate" —
nests a correlated collection inside the outer scope (Fig. 5b/13b), while
**FIO** — "compute the inner aggregates first, then join" — groups the inner
relation once and joins on the correlation key (Fig. 4a/21b).  The reference
strategy evaluates FOI literally: the nested collection is re-evaluated per
outer row.  This module rewrites FOI plans into FIO (the SQL lowering in
:mod:`repro.backends.sql_render` reuses its specs):

* **Plan level** (:func:`plan_for` + :meth:`CorrelationSpec.materialize`) —
  a lateral binding's inner scope is rewritten into an uncorrelated
  collection materialized **once** and probed per outer row
  (:class:`repro.engine.planner.CompiledScope` consumes the plan), under one
  of two probe strategies selected by the correlation shape:

  - ``"eq"`` — correlation *only through equalities*: a grouped hash index
    ``{key tuple: [(row, mult), ...]}`` probed per outer row;
  - ``"band"`` — equalities plus exactly **one** order predicate
    (``<``/``<=``/``>``/``>=``, the eq2/eq15 θ shapes): the inner rows are
    materialized sorted on the correlated attribute per equality key, so a
    probe is a bisect.  For γ∅ aggregate scopes the sorted entries carry
    *prefix-aggregate arrays* (sum/count/avg/min/max running folds in the
    direction the operator selects), so the correlated aggregate is a
    bisect + O(1) array lookup instead of a per-row scan; for non-grouped
    scopes the probe yields the matching sorted slice.

  A third strategy serves *boolean* quantifier scopes — the ``∃`` / ``¬∃``
  of NOT EXISTS and NOT IN (Section 2.10, Fig. 11), which are FOI too:

  - ``"exists"`` — a scope with no grouping, no join annotation and no
    head assignments, correlated only through equalities: the inner scope
    is enumerated **once** with the non-strict Kleene fold into an
    :class:`ExistsIndex` holding, per correlation key, the OR of the local
    formulas' truth; :meth:`repro.engine.evaluator.Evaluator._truth_exists`
    probes it once per outer row.  Keys that ``=`` does not compare by
    Python equality (NULL under 3VL, NaN) sit in a short list probed with
    :func:`~repro.data.values.compare` itself, so the probe is exactly the
    per-row fold under both null conventions.

  Indexes are cached on the inner scope's stored relations
  (:meth:`repro.data.relation.Relation.derived_put_shared`), so they
  survive across evaluations and are dropped the moment any inner relation
  mutates.  ``EvalOptions(decorrelate=False)`` / ``--no-decorrelate``
  disables the pass, keeping the per-row strategy as the oracle.

Two further refinements close the remaining per-row tails:

* **Tri-bucket 3VL probes.**  Correlation keys that may be NULL under
  three-valued logic used to refuse outright.  The materialized index is
  now UNKNOWN-aware: inner rows whose key evaluates to NULL are TRUE for no
  probe (``x = NULL`` is never TRUE under 3VL) and are segregated into an
  UNKNOWN bucket that strict enumeration skips, while non-NULL rows stay in
  the TRUE buckets — so NULL-able keys decorrelate instead of re-evaluating
  per row.  Probes against such an index count ``tribucket_probes``.

* **Domain-join γ∅ compensation** (Fig. 21c).  A γ∅ scope emits one row
  *even over an empty group*, which a grouped index cannot represent —
  outer keys with no inner rows have no bucket.  Probe misses used to
  re-evaluate the original scope per frame; since an accepted γ∅ spec's
  empty-group frame cannot reference the outer row (head assignments using
  outer variables refuse), the frames for *all* missing keys are identical
  — exactly the anti-join of the outer key domain against the index keyset,
  every member mapped to one shared frame.  The frame is synthesized once
  per index (``domain_join_compensations``), and every further miss is a
  dict lookup.

Safety: the rewrite **refuses** (and evaluation falls back to the per-row
strategy) whenever the correlation shape cannot be probed exactly —

* ``<>``/``!=`` correlation predicates, or more than one order predicate
  (any order predicate, for a boolean scope);
* boolean scopes that group (∃ a group satisfying aggregate predicates);
* θ predicates under grouping *keys* (folding an order key into GROUP BY
  would split groups) or in γ∅ scopes whose head is not pure streamable
  aggregates;
* outer variables referenced inside nested scopes (nested laterals),
  head assignments, grouping keys, disjunctions, or mixed operands;
* inner scopes without a stored relation to anchor the materialization
  (externals, abstract definitions).

Data the sorted band cannot order exactly — mixed value kinds in one key
group, NULL or NaN band values under two-valued logic (whose total-order
extension ranks NULL below NaN below nothing else) — aborts the index
*build* (not the plan), falling back to per-row for that catalog state
only.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right

from ..core import nodes as n
from ..core.scopes import (
    FLIP,
    assignment_of,
    free_variables,
    fresh_name,
    split_scope,
)
from ..data.relation import Relation, Tuple
from ..data.values import Truth, compare, is_null, t_and
from ..errors import EvaluationError
from ..obs import NULL_SPAN
from . import aggregates as agg_lib

#: θ operators a band index can probe, normalized as *inner OP outer*.
BAND_OPS = ("<", "<=", ">", ">=")

#: Aggregates a prefix array can fold exactly (no ``*distinct`` variants).
_BAND_AGGS = frozenset(["sum", "count", "avg", "min", "max"])

#: Cache sentinel: this catalog state cannot be indexed (mixed value
#: kinds, or a build-time evaluation failure on rows the per-row strategy
#: never reaches); cached so repeated executes do not retry the build.
_BUILD_UNSUPPORTED = object()


def _expr_text(expr):
    """Short human label for a correlation operand (``s.a``, ``5``, ...)."""
    if isinstance(expr, n.Attr):
        return f"{expr.var}.{expr.attr}"
    if isinstance(expr, n.Const):
        return repr(expr.value)
    return type(expr).__name__.lower()


class CorrelationSpec:
    """Structural decorrelation analysis of one nested collection.

    ``reason`` is None when the FOI → FIO rewrite applies; every other field
    is only meaningful in that case.  Specs are cached per AST node
    (weakly), shared by the planner and the SQL rewrite.
    """

    __slots__ = (
        # NOTE: no back-reference to the analyzed Collection — the spec is
        # the *value* of a weak-keyed cache keyed by that node, and a strong
        # back-edge would make every entry immortal.
        "reason",  # refusal reason, or None when the rewrite applies
        "strategy",  # "eq" (hash index) | "band" (sorted θ-band) | "exists" (truth)
        "outer_exprs",  # per equality key: the outer-side expression (probe key)
        "key_inner_exprs",  # per equality key: the inner-side expression
        "key_attrs",  # fresh head attributes carrying the keys
        "head_attrs",  # original head attributes (buckets project to these)
        "rewritten",  # the uncorrelated FIO Collection (head + key attrs)
        "band_op",  # normalized θ operator (inner OP outer), or None
        "band_outer_expr",  # outer side of the θ predicate (probe value)
        "band_inner_expr",  # inner side of the θ predicate (sort key)
        "band_attr",  # fresh head attr carrying the band key in `rewritten`
        "band_aggs",  # γ∅ band: ((head attr, agg func, arg expr | None), ...)
        "stripped",  # γ∅ band, exists: (bindings, local row formulas) to enumerate
        "empty_group",  # original scope was γ∅ (probe misses synthesize it)
        "grouped",  # original scope had grouping keys
        "relation_names",  # stored relations anchoring the materialized index
        "__weakref__",  # the index cache is keyed weakly by this spec
    )

    def __init__(self, reason=None):
        self.reason = reason
        self.strategy = "eq"
        self.outer_exprs = ()
        self.key_inner_exprs = ()
        self.key_attrs = ()
        self.head_attrs = ()
        self.rewritten = None
        self.band_op = None
        self.band_outer_expr = None
        self.band_inner_expr = None
        self.band_attr = None
        self.band_aggs = ()
        self.stripped = None
        self.empty_group = False
        self.grouped = False
        self.relation_names = ()

    # -- plan-level execution --------------------------------------------------

    def materialize(self, evaluator):
        """The probe index for this spec (:class:`FioIndex`,
        :class:`BandIndex` or :class:`ExistsIndex`), or None.

        Built at most once per catalog state: the index is cached on every
        stored relation the inner scope reads (any mutation drops it), and
        shared across evaluator instances running the same conventions.
        Returns None when a relation is no longer resolvable — or when the
        current data cannot be indexed exactly (band over mixed value
        kinds) — and the caller falls back to per-row evaluation, which
        surfaces the exact behaviour.
        """
        try:
            anchors = [
                evaluator._resolve_relation(name) for name in self.relation_names
            ]
        except EvaluationError:
            return None
        tag = ("fio", self.strategy, evaluator.conventions)
        tracer = evaluator.tracer
        index = Relation.derived_get_shared(anchors, self, tag)
        if index is not None:
            # An exists index is looked up once per outer row, not once
            # per scope execution: its hits would flood the trace.
            if tracer is not None and self.strategy != "exists":
                tracer.event(
                    "decorr.index", cached=True, strategy=self.strategy
                )
            return None if index is _BUILD_UNSUPPORTED else index
        # A build failure falls back to per-row for this catalog state: the
        # materialization evaluates the *whole* rewritten scope, including
        # groups no probe can reach (e.g. a NULL-keyed group under 3VL
        # whose aggregate raises), while the per-row strategy only ever
        # touches what the outer rows select — its behaviour is the oracle.
        builder = getattr(self, f"_build_{self.strategy}")
        with NULL_SPAN if tracer is None else tracer.span(
            "decorr.index.build", strategy=self.strategy
        ) as span:
            try:
                index = builder(evaluator)
            except (EvaluationError, TypeError):
                index = None
            span.tag(ok=index is not None)
        if index is None:
            Relation.derived_put_shared(anchors, self, tag, _BUILD_UNSUPPORTED)
            return None
        if self.strategy == "band":
            evaluator.stats.band_index_builds += 1
        else:
            evaluator.stats.decorr_index_builds += 1
        Relation.derived_put_shared(anchors, self, tag, index)
        return index

    def _build_eq(self, evaluator):
        """Grouped hash index over the equality keys (tri-bucket under 3VL)."""
        counter = evaluator._eval_collection(self.rewritten, {})
        three_valued = evaluator.conventions.three_valued
        buckets = {}
        unknown = 0
        key_attrs = self.key_attrs
        head_attrs = self.head_attrs
        for row, mult in counter.items():
            values = row._values
            key = tuple(values[a] for a in key_attrs)
            if three_valued and any(is_null(v) for v in key):
                # UNKNOWN candidate: ``x = NULL`` is TRUE for no probe, so
                # strict enumeration never yields the row — but it stays
                # accounted for, which is what lets NULL-able keys
                # decorrelate instead of refusing.
                unknown += 1
                continue
            entry = (row.project(head_attrs), mult)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
        return FioIndex(buckets, unknown, three_valued and unknown > 0)

    def _build_exists(self, evaluator):
        """Truth index of a boolean scope: one Kleene fold per key.

        The uncorrelated inner scope is enumerated once, non-strictly.  A
        combination whose local formulas are FALSE contributes FALSE to
        every probe and is dropped; the others are keyed by their inner
        key values.  Keys whose equality follows Python equality (no NULL
        under 3VL, no NaN) fold into ``truths``; the rest, which ``=``
        compares as UNKNOWN or FALSE, go to a short list probed with
        :func:`compare` itself.  2VL NaN keys equal nothing and are dropped.
        """
        bindings, local = self.stripped
        three_valued = evaluator.conventions.three_valued
        eval_expr = evaluator._eval_expr
        key_exprs = self.key_inner_exprs
        truths = {}
        irregular = {}
        for env, _, truth in evaluator._extend_with_bindings(
            bindings, local, {}, 1, strict=False
        ):
            if truth is Truth.FALSE:
                continue
            key = tuple(eval_expr(expr, env) for expr in key_exprs)
            target = truths
            if any(_irregular(value, three_valued) for value in key):
                if not three_valued:
                    continue
                # One entry per distinct key: every NaN compares alike.
                key = tuple(_NAN if value != value else value for value in key)
                target = irregular
            if truth is Truth.TRUE or key not in target:
                target[key] = truth
        return ExistsIndex(truths, tuple(irregular.items()), three_valued)

    def _build_band(self, evaluator):
        """Sorted θ-band index (per-key prefix aggregates for γ∅ scopes)."""
        conventions = evaluator.conventions
        three_valued = conventions.three_valued
        groups = {}
        unknown = 0
        if self.empty_group:
            # γ∅ aggregate scope: enumerate the *raw* pre-aggregation row
            # stream (exact bag multiplicities — a projected collection
            # would dedupe under set conventions) through a compiled plan.
            from .planner import compile_bindings

            bindings, formulas = self.stripped
            compiled = compile_bindings(evaluator, list(bindings), list(formulas))
            key_exprs = self.key_inner_exprs
            band_expr = self.band_inner_expr
            arg_exprs = tuple(arg for _, _, arg in self.band_aggs)
            eval_expr = evaluator._eval_expr
            for env, mult in compiled.execute(evaluator, {}):
                band_value = eval_expr(band_expr, env)
                if is_null(band_value):
                    if three_valued:
                        unknown += 1
                        continue
                    return None  # 2VL orders NULL; keep the per-row oracle
                if band_value != band_value:
                    if not three_valued:
                        # 2VL's total-order extension ranks NaN above NULL
                        # (compare keys (1, NaN) vs (0, 0)), so a NULL outer
                        # probe with >/>= would select it; the sorted band
                        # cannot carry that, so keep the per-row oracle.
                        return None
                    continue  # 3VL: NaN satisfies no ordering predicate
                key = tuple(eval_expr(expr, env) for expr in key_exprs)
                if three_valued and any(is_null(v) for v in key):
                    unknown += 1
                    continue
                args = tuple(
                    None if arg is None else eval_expr(arg, env)
                    for arg in arg_exprs
                )
                entry = (band_value, mult, args)
                bucket = groups.get(key)
                if bucket is None:
                    groups[key] = [entry]
                else:
                    bucket.append(entry)
            built = {}
            for key, entries in groups.items():
                group = _BandGroup.for_aggregates(
                    entries, self.band_op, self.band_aggs
                )
                if group is None:
                    return None
                built[key] = group
            empty_row = Tuple._adopt(
                {
                    attr: agg_lib.aggregate(func, (), conventions)
                    for attr, func, _ in self.band_aggs
                }
            )
            return BandIndex(
                built,
                self.band_op,
                aggs=self.band_aggs,
                conventions=conventions,
                empty_row=empty_row,
                tribucket=three_valued and unknown > 0,
            )

        # Non-grouped scope: the rewritten collection already carries the
        # head, equality keys, and band key per row; sort each key bucket.
        counter = evaluator._eval_collection(self.rewritten, {})
        band_attr = self.band_attr
        key_attrs = self.key_attrs
        head_attrs = self.head_attrs
        for row, mult in counter.items():
            values = row._values
            band_value = values[band_attr]
            if is_null(band_value):
                if three_valued:
                    unknown += 1
                    continue
                return None
            if band_value != band_value:
                if not three_valued:
                    return None  # 2VL ranks NaN above NULL (see above)
                continue
            key = tuple(values[a] for a in key_attrs)
            if three_valued and any(is_null(v) for v in key):
                unknown += 1
                continue
            entry = (band_value, row.project(head_attrs), mult)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [entry]
            else:
                bucket.append(entry)
        built = {}
        for key, entries in groups.items():
            group = _BandGroup.for_rows(entries, self.band_op)
            if group is None:
                return None
            built[key] = group
        return BandIndex(
            built,
            self.band_op,
            aggs=None,
            conventions=conventions,
            empty_row=None,
            tribucket=three_valued and unknown > 0,
        )


class FioIndex:
    """Materialized equality-FIO index: TRUE buckets + UNKNOWN tally.

    ``tribucket`` marks an index whose build segregated UNKNOWN candidates
    (3VL, NULL keys present) — probes against it count ``tribucket_probes``.
    ``empty_group_items`` is the domain-join γ∅ compensation: the shared
    empty-group frame every missing outer key maps to.
    """

    __slots__ = ("buckets", "unknown_count", "tribucket", "_empty_items")

    def __init__(self, buckets, unknown_count, tribucket):
        self.buckets = buckets
        self.unknown_count = unknown_count
        self.tribucket = tribucket
        self._empty_items = None

    def get(self, key):
        return self.buckets.get(key)

    def empty_group_items(self, evaluator, source, env, stats):
        """The γ∅ empty-group frame, synthesized once per index.

        An accepted γ∅ spec's head assignments cannot reference the outer
        row, so the frame is identical for every probe miss: one anti-join
        of the outer key domain against the index keyset, batched into a
        single synthesis (Fig. 21c) instead of a per-frame re-evaluation.
        """
        items = self._empty_items
        if items is None:
            items = list(evaluator._eval_collection(source, env).items())
            self._empty_items = items
            stats.domain_join_compensations += 1
        return items


def _irregular(value, three_valued):
    """True when ``=`` on *value* is not Python equality (3VL NULL, NaN)."""
    return value != value or (three_valued and is_null(value))


#: The NaN every irregular NaN key component is folded onto.
_NAN = float("nan")


class ExistsIndex:
    """Materialized boolean-scope index: the ∃ truth per correlation key.

    ``truths`` maps each regular inner key to the Kleene OR of the local
    truth of its combinations (TRUE or UNKNOWN); ``irregular`` lists the
    keys holding NULL (3VL) or NaN with the same fold.
    """

    __slots__ = ("truths", "irregular", "three_valued", "_projections")

    def __init__(self, truths, irregular, three_valued):
        self.truths = truths
        self.irregular = irregular
        self.three_valued = three_valued
        self._projections = {}

    def probe(self, key):
        """``OR`` over inner combos ``r`` of ``AND_i r.k_i = key_i ∧ local(r)``."""
        truth = self.truths.get(key)
        if truth is not None:
            # A regular key matched; irregular keys add at most UNKNOWN.
            return truth
        three_valued = self.three_valued
        odd = [i for i, value in enumerate(key) if _irregular(value, three_valued)]
        if odd and all(key[i] == key[i] for i in odd):
            # 3VL NULL components compare UNKNOWN with every regular key;
            # the rest of the key must still match.
            kept = tuple(i for i in range(len(key)) if i not in odd)
            if tuple(key[i] for i in kept) in self._projection(kept):
                return Truth.UNKNOWN
        # No regular key matches (NaN equals none).  An irregular key holds
        # NULL or NaN, so it is UNKNOWN at best.
        for inner, truth in self.irregular:
            for left, right in zip(inner, key):
                truth = t_and(truth, compare(left, "=", right, three_valued=True))
                if truth is Truth.FALSE:
                    break
            else:
                return Truth.UNKNOWN
        return Truth.FALSE

    def _projection(self, kept):
        """The regular keys projected onto the positions *kept* (cached)."""
        projection = self._projections.get(kept)
        if projection is None:
            projection = {tuple(key[i] for i in kept) for key in self.truths}
            self._projections[kept] = projection
        return projection


class _BandGroup:
    """One equality-key group of a band index: sorted keys + payload.

    ``vals`` is ascending; ``payload`` is ordered in *selection order* —
    ascending for ``<``/``<=`` (the probe takes a prefix), descending for
    ``>``/``>=`` (the probe takes a suffix, i.e. a prefix of the reversed
    order) — so a probe is one bisect plus an O(1) array read (aggregates)
    or a slice (rows).
    """

    __slots__ = ("vals", "kind", "payload")

    _NUM = (bool, int, float)

    def __init__(self, vals, kind, payload):
        self.vals = vals
        self.kind = kind
        self.payload = payload

    @staticmethod
    def _kind_of(entries):
        """Homogeneous orderable kind of the band values, or None (mixed)."""
        kind = None
        for entry in entries:
            value = entry[0]
            if isinstance(value, _BandGroup._NUM):
                value_kind = "num"
            elif isinstance(value, str):
                value_kind = "str"
            else:
                return None
            if kind is None:
                kind = value_kind
            elif kind != value_kind:
                # Mixed kinds have no total order consistent with the
                # comparison semantics (str vs int orders FALSE both ways).
                return None
        return kind

    @classmethod
    def for_rows(cls, entries, op):
        kind = cls._kind_of(entries)
        if kind is None:
            return None
        entries.sort(key=lambda entry: entry[0])
        vals = [entry[0] for entry in entries]
        rows = [(entry[1], entry[2]) for entry in entries]
        if op in (">", ">="):
            rows.reverse()
        return cls(vals, kind, rows)

    @classmethod
    def for_aggregates(cls, entries, op, agg_specs):
        kind = cls._kind_of(entries)
        if kind is None:
            return None
        entries.sort(key=lambda entry: entry[0])
        vals = [entry[0] for entry in entries]
        selected = entries if op in ("<", "<=") else list(reversed(entries))
        arrays = []
        try:
            for position, (_, func, arg) in enumerate(agg_specs):
                counts = [0]
                sums = [0] if func in ("sum", "avg") else None
                runs = [None] if func in ("min", "max") else None
                count = 0
                total = 0
                extreme = None
                pick = min if func == "min" else max
                for _, mult, args in selected:
                    if arg is None:  # count(*): NULLs included
                        count += mult
                    else:
                        value = args[position]
                        if not is_null(value):
                            count += mult
                            if sums is not None:
                                total = total + value * mult
                            if runs is not None:
                                extreme = (
                                    value
                                    if extreme is None
                                    else pick(extreme, value)
                                )
                    counts.append(count)
                    if sums is not None:
                        sums.append(total)
                    if runs is not None:
                        runs.append(extreme)
                arrays.append((counts, sums, runs))
        except TypeError:
            # Heterogeneous argument values: the running fold cannot be
            # computed; per-row evaluation surfaces the exact behaviour.
            return None
        return cls(vals, kind, tuple(arrays))

    def count_for(self, op, value, three_valued):
        """How many entries (in selection order) satisfy ``entry OP value``."""
        if is_null(value):
            if three_valued:
                return 0  # every comparison with NULL is UNKNOWN
            # 2VL total-order extension: NULL sorts before everything, and
            # band entries are never NULL (the build refuses), so only the
            # suffix operators match.
            return len(self.vals) if op in (">", ">=") else 0
        if value != value:
            return 0  # NaN satisfies no ordering predicate
        if isinstance(value, self._NUM):
            value_kind = "num"
        elif isinstance(value, str):
            value_kind = "str"
        else:
            value_kind = None
        if value_kind != self.kind:
            return 0  # heterogeneous ordering comparisons are FALSE
        vals = self.vals
        if op == "<":
            return bisect_left(vals, value)
        if op == "<=":
            return bisect_right(vals, value)
        if op == ">":
            return len(vals) - bisect_right(vals, value)
        return len(vals) - bisect_left(vals, value)


class BandIndex:
    """Materialized θ-band index: equality-key groups of sorted entries."""

    __slots__ = (
        "groups",
        "op",
        "aggs",
        "conventions",
        "empty_row",
        "tribucket",
    )

    def __init__(self, groups, op, *, aggs, conventions, empty_row, tribucket):
        self.groups = groups
        self.op = op
        self.aggs = aggs
        self.conventions = conventions
        self.empty_row = empty_row
        self.tribucket = tribucket

    def probe(self, key, value, is_set):
        """Bucket of ``(row, mult)`` for one outer frame.

        *key* is the evaluated equality-key tuple (None when the equality
        can never be TRUE: NULL under 3VL, NaN); *value* is the evaluated
        θ operand.  γ∅ aggregate mode always yields exactly one row (the
        count-bug contract); non-grouped mode yields the sorted slice with
        multiplicities merged per distinct head row.
        """
        group = None if key is None else self.groups.get(key)
        three_valued = self.conventions.three_valued
        selected = (
            0 if group is None else group.count_for(self.op, value, three_valued)
        )
        if self.aggs is not None:
            if not selected:
                return ((self.empty_row, 1),)
            assigns = {}
            for position, (attr, func, arg) in enumerate(self.aggs):
                counts, sums, runs = group.payload[position]
                count = counts[selected]
                if func == "count":
                    value_out = count
                elif not count:
                    value_out = agg_lib.aggregate(func, (), self.conventions)
                elif func == "sum":
                    value_out = sums[selected]
                elif func == "avg":
                    value_out = sums[selected] / count
                else:
                    value_out = runs[selected]
                assigns[attr] = value_out
            return ((Tuple._adopt(assigns), 1),)
        if not selected:
            return ()
        merged = {}
        for row, mult in group.payload[:selected]:
            if is_set:
                merged[row] = 1
            else:
                merged[row] = merged.get(row, 0) + mult
        return list(merged.items())


_SPECS = weakref.WeakKeyDictionary()


def analyze(node):
    """The (weakly cached) :class:`CorrelationSpec` for a nested collection
    or a boolean quantifier scope."""
    spec = _SPECS.get(node)
    if spec is None:
        if isinstance(node, n.Collection):
            spec = _analyze(node)
        else:
            spec = _analyze_exists(node)
        _SPECS[node] = spec
    return spec


def _band_shape_reason(body, head, label):
    """Why a θ-band candidate's *scope shape* refuses (None = band applies).

    The message always names the predicate (op + inner operand), so callers
    can tell band-eligible shapes refused for shape reasons apart from
    truly unsafe correlations.
    """
    if body.grouping is not None and body.grouping.keys:
        return (
            f"correlates through the non-equality predicate ({label}) under "
            "grouping keys — folding an order key into the grouping would "
            "split the groups, so θ-band indexes apply only to γ∅ and "
            "non-grouped scopes"
        )
    if body.grouping is None:
        return None  # non-grouped: sorted-slice probes handle any head
    assignments, agg_assignments, agg_comparisons, _ = split_scope(head, body)
    if assignments:
        return (
            f"correlates through the non-equality predicate ({label}) in a "
            "γ∅ scope with non-aggregate head assignments"
        )
    if agg_comparisons:
        return (
            f"correlates through the non-equality predicate ({label}) in a "
            "γ∅ scope with aggregate comparisons (the group may be filtered "
            "away)"
        )
    assigned = {}
    for attr, expr in agg_assignments:
        if attr in assigned:
            return (
                f"correlates through the non-equality predicate ({label}) "
                "with a duplicate head assignment"
            )
        assigned[attr] = expr
    for attr in head.attrs:
        expr = assigned.get(attr)
        if expr is None:
            return (
                f"correlates through the non-equality predicate ({label}) "
                f"and head attribute {attr!r} has no aggregate assignment"
            )
        if not isinstance(expr, n.AggCall) or expr.func not in _BAND_AGGS:
            what = expr.func if isinstance(expr, n.AggCall) else "an expression"
            return (
                f"correlates through the non-equality predicate ({label}) "
                f"with a non-prefix-foldable aggregate assignment ({what})"
            )
    return None


def _lateral_reason(quant, free):
    """Why a binding of *quant* is itself correlated (None when none is)."""
    for binding in quant.bindings:
        if n.vars_used(binding.source) & free:
            return (
                f"nested lateral binding {binding.var!r} references the outer "
                "correlation variables"
            )
    return None


def _correlation(conjunct_list, free, inner_vars, head_name, theta_ops):
    """Classify the conjuncts of a scope body that reference *free* variables.

    Returns a refusal reason, or ``(correlated, pairs, orientations, band)``:
    the positions of the ``inner = outer`` equalities, their (inner side,
    outer side) operands, whether the inner side is the left operand, and
    the one θ predicate (position, inner, outer, normalized op, label) when
    *theta_ops* admits it.
    """
    correlated = []  # conjunct positions consumed by equality pairs
    pairs = []  # (inner side, outer side) in the original tree
    orientations = []  # True when the inner side is the left operand
    band = None  # (position, inner, outer, normalized op, label)
    for index, conjunct in enumerate(conjunct_list):
        used = n.vars_used(conjunct)
        if not used & free:
            continue
        if head_name in used:
            return "outer variables appear in a head assignment"
        if any(
            isinstance(sub, (n.Quantifier, n.Collection)) for sub in conjunct.walk()
        ):
            return "outer variables are referenced inside a nested scope"
        if not used - free:
            return (
                "correlates through an outer-only predicate (γ membership "
                "depends on the outer row beyond an equality key)"
            )
        if not isinstance(conjunct, n.Comparison):
            return (
                f"correlates through a non-comparison predicate "
                f"({type(conjunct).__name__})"
            )
        if conjunct.has_aggregate():
            return "correlation predicate contains an aggregate"
        pair = None
        left_inner = True
        for side, other, side_is_left in (
            (conjunct.left, conjunct.right, True),
            (conjunct.right, conjunct.left, False),
        ):
            side_vars = n.vars_used(side)
            other_vars = n.vars_used(other)
            if (
                side_vars
                and side_vars <= inner_vars
                and other_vars
                and other_vars <= free
            ):
                pair = (side, other)
                left_inner = side_is_left
                break
        if pair is None:
            return (
                "correlation equality mixes inner and outer variables in one "
                "operand"
            )
        if conjunct.op == "=":
            correlated.append(index)
            pairs.append(pair)
            orientations.append(left_inner)
            continue
        # θ candidate: normalize the operator to *inner OP outer*.
        op = conjunct.op if left_inner else FLIP[conjunct.op]
        label = f"{op} on {_expr_text(pair[0])}"
        if op not in theta_ops:
            if not theta_ops:
                return (
                    f"correlates through the non-equality predicate ({label}); "
                    "an exists index probes equality keys only"
                )
            return (
                f"correlates through the non-equality predicate ({label}); "
                "only <, <=, >, >= are θ-band-indexable"
            )
        if band is not None:
            return (
                f"correlates through two non-equality predicates "
                f"({band[4]} and {label}); a θ-band index handles exactly one"
            )
        band = (index, pair[0], pair[1], op, label)
    return correlated, pairs, orientations, band


def _relation_names(node):
    """Stored relations a subtree reads, sorted (the index anchors)."""
    return tuple(sorted(set(n.facts(node).relation_refs)))


_NO_ANCHOR = (
    "inner scope references no stored relation to anchor the materialization"
)


def _analyze_exists(quant):
    """Exists-index analysis of a boolean quantifier scope (``∃`` / ``¬∃``).

    Accepted scopes have no grouping and no join annotation and correlate
    only through ``inner = outer`` equalities; every other conjunct is
    local to the inner scope, so one enumeration serves every outer row.
    Head assignments and emitters are the evaluator's to exclude: they
    depend on the enclosing head, not on this node.
    """
    if quant.grouping is not None:
        return CorrelationSpec(
            "boolean scope groups its rows (∃ a group satisfying the "
            "aggregate predicates)"
        )
    if quant.join is not None:
        return CorrelationSpec("inner scope carries a join annotation")
    free = frozenset(free_variables(quant))
    reason = _lateral_reason(quant, free)
    if reason is not None:
        return CorrelationSpec(reason)
    conjunct_list = n.conjuncts(quant.body)
    if any(isinstance(c, n.Comparison) and c.has_aggregate() for c in conjunct_list):
        return CorrelationSpec(
            "boolean scope has an aggregate predicate but no grouping operator"
        )
    found = _correlation(
        conjunct_list, free, {b.var for b in quant.bindings}, None, ()
    )
    if isinstance(found, str):
        return CorrelationSpec(found)
    correlated, pairs, _, _ = found
    relation_names = _relation_names(quant)
    if not relation_names:
        return CorrelationSpec(_NO_ANCHOR)
    spec = CorrelationSpec()
    spec.strategy = "exists"
    spec.outer_exprs = tuple(outer for _, outer in pairs)
    spec.key_inner_exprs = tuple(inner for inner, _ in pairs)
    spec.relation_names = relation_names
    consumed = set(correlated)
    spec.stripped = (
        tuple(quant.bindings),
        tuple(c for i, c in enumerate(conjunct_list) if i not in consumed),
    )
    return spec


def _analyze(collection):
    free = frozenset(free_variables(collection))
    body = collection.body
    if isinstance(body, n.Or):
        return CorrelationSpec("inner body is a disjunction")
    if not isinstance(body, n.Quantifier):
        return CorrelationSpec(
            f"inner body is a {type(body).__name__}, not a quantifier scope"
        )
    if body.join is not None:
        return CorrelationSpec("inner scope carries a join annotation")
    reason = _lateral_reason(body, free)
    if reason is not None:
        return CorrelationSpec(reason)
    if body.grouping is not None:
        for key in body.grouping.keys:
            if n.vars_used(key) & free:
                return CorrelationSpec(
                    "grouping key references outer variables"
                )
    head = collection.head
    conjunct_list = n.conjuncts(body.body)
    found = _correlation(
        conjunct_list,
        free,
        {b.var for b in body.bindings},
        head.name,
        BAND_OPS,
    )
    if isinstance(found, str):
        return CorrelationSpec(found)
    correlated, pairs, orientations, band = found
    relation_names = _relation_names(collection)
    if not relation_names:
        return CorrelationSpec(_NO_ANCHOR)
    if band is not None:
        shape_reason = _band_shape_reason(body, head, band[4])
        if shape_reason is not None:
            return CorrelationSpec(shape_reason)

    spec = CorrelationSpec()
    spec.outer_exprs = tuple(outer for _, outer in pairs)
    spec.key_inner_exprs = tuple(n.clone(inner) for inner, _ in pairs)
    spec.relation_names = relation_names
    spec.head_attrs = tuple(head.attrs)
    spec.empty_group = body.grouping is not None and not body.grouping.keys
    spec.grouped = body.grouping is not None and bool(body.grouping.keys)
    if band is not None:
        spec.strategy = "band"
        spec.band_op = band[3]
        spec.band_inner_expr = n.clone(band[1])
        spec.band_outer_expr = band[2]

    # Fresh key attributes (avoiding the head's own names).
    taken = set(head.attrs)
    wanted = len(pairs) + (1 if band is not None and not spec.empty_group else 0)
    key_attrs = [fresh_name(f"_ck{i}", taken) for i in range(wanted)]
    if band is not None and not spec.empty_group:
        spec.band_attr = key_attrs.pop()
    spec.key_attrs = tuple(key_attrs)

    if spec.strategy == "band" and spec.empty_group:
        # γ∅ band: the probe folds prefix arrays, so materialization needs
        # the *raw* row stream — bindings plus the residual row formulas,
        # with the correlation predicates and aggregate assignments
        # stripped out.
        consumed = set(correlated)
        consumed.add(band[0])
        kept = [
            n.clone(conjunct)
            for position, conjunct in enumerate(conjunct_list)
            if position not in consumed
            and not (
                isinstance(conjunct, n.Comparison)
                and assignment_of(conjunct, head) is not None
            )
        ]
        spec.stripped = (
            tuple(n.clone(binding) for binding in body.bindings),
            tuple(kept),
        )
        agg_specs = []
        assignments = dict(split_scope(head, body)[1])
        for attr in head.attrs:
            call = assignments[attr]
            agg_specs.append(
                (attr, call.func, None if call.arg is None else n.clone(call.arg))
            )
        spec.band_aggs = tuple(agg_specs)
        return spec

    # The FIO rewrite: drop the correlated predicates, project their inner
    # sides as key attributes, and (for grouped scopes) fold the equality
    # keys into the grouping keys — γ∅ becomes γ keys; the count-bug
    # compensation happens at probe time.
    clone = n.clone(collection)
    cbody = clone.body
    cconjuncts = n.conjuncts(cbody.body)
    consumed = set(correlated)
    inner_keys = [
        (cconjuncts[i].left if left_inner else cconjuncts[i].right)
        for i, left_inner in zip(correlated, orientations)
    ]
    extra_attrs = list(spec.key_attrs)
    if band is not None:
        consumed.add(band[0])
        band_conjunct = cconjuncts[band[0]]
        band_inner = (
            band_conjunct.left
            if band_conjunct.op == band[3]
            else band_conjunct.right
        )
        inner_keys.append(band_inner)
        extra_attrs.append(spec.band_attr)
    kept = [c for i, c in enumerate(cconjuncts) if i not in consumed]
    assignments = [
        n.Comparison(n.Attr(head.name, ck), "=", expr)
        for ck, expr in zip(extra_attrs, inner_keys)
    ]
    cbody.body = n.make_and(kept + assignments)
    if cbody.grouping is not None:
        keys = list(cbody.grouping.keys)
        for expr in inner_keys:
            if not any(n.structurally_equal(expr, key) for key in keys):
                keys.append(n.clone(expr))
        cbody.grouping = n.Grouping(tuple(keys))
    clone.head = n.Head(head.name, tuple(head.attrs) + tuple(extra_attrs))
    spec.rewritten = clone
    return spec


# ---------------------------------------------------------------------------
# Plan-level decision (per evaluator: flags, conventions, catalog)
# ---------------------------------------------------------------------------


def plan_for(evaluator, source):
    """Decide decorrelation of a lateral *source* under *evaluator*.

    *source* is a lateral's nested collection or a boolean quantifier
    scope.  Returns ``(spec, None)`` when the FIO rewrite applies, else
    ``(None, reason)``.  The decision layers the evaluator-dependent checks
    (escape hatch, stored relations) on top of the cached structural
    analysis.  NULL-able correlation keys under three-valued logic no
    longer refuse: the materialized index is UNKNOWN-aware (tri-bucket), so
    the decision is data-independent — data the *band* build cannot order
    exactly still falls back per catalog state inside ``materialize``.
    """
    if not getattr(evaluator, "decorrelate", True):
        return None, "decorrelation disabled (decorrelate=False)"
    spec = analyze(source)
    if spec.reason is not None:
        return None, spec.reason
    for name in spec.relation_names:
        if name not in evaluator.defined and name not in evaluator.database:
            return None, f"inner relation {name!r} has no stored extension"
    return spec, None


def probe_binding(evaluator, binding):
    """Decorrelation probe for one binding: ``(spec, reason)`` (tests/tools)."""
    if not isinstance(binding.source, n.Collection):
        return None, "binding ranges over a stored relation (nothing to decorrelate)"
    return plan_for(evaluator, binding.source)
