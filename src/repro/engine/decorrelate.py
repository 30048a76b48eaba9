"""FOI → FIO decorrelation of lateral and boolean scopes.

The paper contrasts two renderings of "aggregate per outer row"
(Section 2.5): **FOI** — "for each outer row, compute the inner aggregate" —
nests a correlated collection inside the outer scope (Fig. 5b/13b), while
**FIO** — "compute the inner aggregates first, then join" — groups the inner
relation once and joins on the correlation key (Fig. 4a/21b).  The reference
strategy evaluates FOI literally, re-evaluating the nested scope per outer
row.  This module rewrites FOI into FIO (the SQL lowering in
:mod:`repro.backends.sql_render` reuses its specs).

One analyzer (:func:`analyze`) serves both kinds of correlated scope: a
lateral binding's nested collection and a boolean quantifier scope — the
``∃`` / ``¬∃`` of NOT EXISTS and NOT IN (Section 2.10, Fig. 11), which is FOI
too.  An accepted scope is rewritten into an uncorrelated one whose
correlation keys are projected (laterals) or folded into the grouping keys,
materialized **once** (:meth:`CorrelationSpec.materialize`) and probed per
outer row.  Correlation through equalities builds one equality-keyed
:class:`KeyIndex` whose fold per key depends on the scope:

- ``"eq"`` (laterals): the key's rows with their multiplicities;
- ``"exists"`` without γ: the Kleene OR of the local formulas' truth;
- ``"exists"`` with γ: the OR of the HAVING truth over the key's groups.

A lateral that also correlates through exactly **one** order predicate
(``<``/``<=``/``>``/``>=``, the eq2/eq15 θ shapes) builds a ``"band"`` index
instead: rows sorted on the correlated attribute per equality key, probed
by bisection; γ∅ aggregate scopes carry *prefix-aggregate arrays*, so the
correlated aggregate is a bisect plus an O(1) array read.

**Irregular keys.**  A key value is irregular when ``=`` on it is not
Python equality: NULL under three-valued logic, and NaN
(:func:`_irregular`).  Laterals and grouped scopes enumerate strictly (only
TRUE rows), so an irregular inner key matches no probe and is set aside,
and an irregular outer key is a miss.  The ungrouped ``∃`` fold is Kleene,
so its irregular keys stay in a short list probed with
:func:`~repro.data.values.compare` itself.  An index that set keys aside
under 3VL is *tri-bucket*; probes against it count ``tribucket_probes``.

**The count bug** (Fig. 21, eq. (29)).  A γ∅ scope has a group even when
no inner row matches, which a grouped index has no key for.  An accepted
γ∅ scope's empty group cannot depend on the outer row, so every miss
shares one value: the empty-group frame of a lateral (synthesized on the
first miss, ``domain_join_compensations``) or the HAVING truth over the
empty group of a boolean scope (computed with the build).

Indexes are cached on the inner scope's stored relations
(:meth:`repro.data.relation.Relation.derived_put_shared`), so they survive
across evaluations and are dropped the moment any inner relation mutates.
``EvalOptions(decorrelate=False)`` / ``--no-decorrelate`` disables the
pass, keeping the per-row strategy as the oracle.

The rewrite **refuses** (and evaluation stays per row) when the
correlation cannot be probed exactly: ``<>``/``!=`` predicates, more than
one order predicate (any, for a boolean scope), θ predicates under grouping
keys or in γ∅ scopes whose head is not pure streamable aggregates; outer
variables in nested scopes, head assignments, grouping keys, aggregates
(HAVING), disjunctions or mixed operands; join annotations; and inner
scopes without a stored relation to anchor the index (externals, abstract
definitions).  Data an index cannot carry exactly — mixed value kinds in
one band, NULL or NaN band values under two-valued logic — aborts the
*build*, falling back to per-row for that catalog state only.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from operator import iadd

from ..core import nodes as n
from ..core.scopes import (
    FLIP,
    assignment_of,
    free_variables,
    fresh_name,
    split_scope,
)
from ..data.relation import Relation, Tuple
from ..data.values import Truth, compare, is_null, t_and, t_or
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

#: The NaN every irregular NaN key component is folded onto.
_NAN = float("nan")


def _irregular(value, three_valued):
    """True when ``=`` on *value* is not Python equality (3VL NULL, NaN)."""
    return value != value or (three_valued and is_null(value))


def _expr_text(expr):
    """Short human label for a correlation operand (``s.a``, ``5``, ...)."""
    if isinstance(expr, n.Attr):
        return f"{expr.var}.{expr.attr}"
    if isinstance(expr, n.Const):
        return repr(expr.value)
    return type(expr).__name__.lower()


class CorrelationSpec:
    """Structural decorrelation analysis of one correlated scope.

    ``reason`` is None when the FOI → FIO rewrite applies; every other field
    is only meaningful in that case.  Specs are cached per AST node
    (weakly), shared by the planner and the SQL rewrite.
    """

    # NOTE: no back-reference to the analyzed node — the spec is the
    # *value* of a weak-keyed cache keyed by that node, and a strong
    # back-edge would make every entry immortal.  (The index cache is keyed
    # weakly by the spec itself.)
    strategy = "eq"  # "eq" (lateral) | "band" (sorted θ-band) | "exists" (boolean)
    outer_exprs = ()  # per equality key: the outer-side expression (probe key)
    key_inner_exprs = ()  # per equality key: the inner-side expression
    key_attrs = ()  # fresh head attributes carrying the keys
    head_attrs = ()  # original head attributes (buckets project to these)
    rewritten = None  # the uncorrelated FIO scope (Collection, or Quantifier)
    band_op = None  # normalized θ operator (inner OP outer), or None
    band_outer_expr = None  # outer side of the θ predicate (probe value)
    band_inner_expr = None  # inner side of the θ predicate (sort key)
    band_attr = None  # fresh head attr carrying the band key in `rewritten`
    band_aggs = ()  # γ∅ band: ((head attr, agg func, arg expr | None), ...)
    stripped = None  # γ∅ band, ungrouped ∃: (bindings, local row formulas)
    empty_group = False  # original scope was γ∅ (probe misses see the empty group)
    grouped = False  # original scope had grouping keys
    relation_names = ()  # stored relations anchoring the materialized index

    def __init__(self, reason=None):
        self.reason = reason  # refusal reason, or None when the rewrite applies

    # -- plan-level execution --------------------------------------------------

    def materialize(self, evaluator):
        """The probe index for this spec (:class:`KeyIndex` or
        :class:`BandIndex`), or None.

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
            # A boolean scope's index is looked up once per outer row, not
            # once per scope execution: its hits would flood the trace.
            if tracer is not None and self.strategy != "exists":
                tracer.event("decorr.index", cached=True, strategy=self.strategy)
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
        """Lateral fold: each key's ``(row, mult)`` bucket."""
        counter = evaluator._eval_collection(self.rewritten, {})
        key_attrs = self.key_attrs
        head_attrs = self.head_attrs
        pairs = (
            (tuple(row._values[a] for a in key_attrs), [(row.project(head_attrs), mult)])
            for row, mult in counter.items()
        )
        return KeyIndex.fold(pairs, iadd, evaluator.conventions, strict=True)

    def _build_exists(self, evaluator):
        """Boolean-scope fold, from one enumeration of the uncorrelated scope.

        Without γ the scope is enumerated non-strictly and each key keeps
        the Kleene OR of its combinations' local truth (FALSE adds
        nothing).  With γ the groups are enumerated strictly, each key
        keeps the OR of its groups' HAVING truth, and a γ∅ miss sees the
        empty group: its HAVING truth is computed here, once.
        """
        eval_expr = evaluator._eval_expr
        key_exprs = self.key_inner_exprs

        def key(env):
            return tuple([eval_expr(expr, env) for expr in key_exprs])

        miss = Truth.FALSE
        grouped = self.grouped or self.empty_group
        if grouped:
            quant = self.rewritten
            plan = evaluator._plan_scope(quant)
            groups = evaluator._scope_groups(quant, plan, {})
            pairs = ((key(rep_env), having) for _, rep_env, _, having in groups)
            if self.empty_group:
                miss = evaluator._group_verdict(plan, [], {})[2]
        else:
            bindings, local = self.stripped
            combos = evaluator._extend_with_bindings(
                bindings, local, {}, 1, strict=False
            )
            pairs = (
                (key(env), truth) for env, _, truth in combos if truth is not Truth.FALSE
            )
        # 2VL has no UNKNOWN, so its ∃ fold is strict as well.
        conventions = evaluator.conventions
        strict = grouped or not conventions.three_valued
        return KeyIndex.fold(pairs, t_or, conventions, strict=strict, miss=miss)

    def _build_band(self, evaluator):
        """Sorted θ-band index (per-key prefix aggregates for γ∅ scopes)."""
        conventions = evaluator.conventions
        three_valued = conventions.three_valued
        eval_expr = evaluator._eval_expr
        if self.empty_group:
            # γ∅ aggregate scope: enumerate the *raw* pre-aggregation row
            # stream (exact bag multiplicities — a projected collection
            # would dedupe under set conventions) through a compiled plan.
            from .planner import compile_bindings

            bindings, formulas = self.stripped
            source = compile_bindings(
                evaluator, list(bindings), list(formulas)
            ).execute(evaluator, {})
            band_expr = self.band_inner_expr
            key_exprs = self.key_inner_exprs
            arg_exprs = tuple(arg for _, _, arg in self.band_aggs)

            def split(env):
                return (
                    eval_expr(band_expr, env),
                    tuple(eval_expr(expr, env) for expr in key_exprs),
                )

            def payload(env):
                return tuple(
                    None if arg is None else eval_expr(arg, env) for arg in arg_exprs
                )

        else:
            # Non-grouped scope: the rewritten collection already carries
            # the head, equality keys and band key per row.
            source = evaluator._eval_collection(self.rewritten, {}).items()
            band_attr = self.band_attr
            key_attrs = self.key_attrs
            head_attrs = self.head_attrs

            def split(row):
                values = row._values
                return values[band_attr], tuple(values[a] for a in key_attrs)

            def payload(row):
                return row.project(head_attrs)

        groups = {}
        set_aside = False
        for item, mult in source:
            band_value, key = split(item)
            if _irregular(band_value, True):
                if not three_valued:
                    # 2VL's total-order extension sorts NULL first and ranks
                    # NaN above NULL (compare keys (1, NaN) vs (0, 0)), so a
                    # NULL outer probe with >/>= would select it; the sorted
                    # band cannot carry that, so keep the per-row oracle.
                    return None
                set_aside = True  # 3VL: satisfies no ordering predicate
                continue
            if any(_irregular(value, three_valued) for value in key):
                set_aside = True
                continue
            entry = (band_value, payload(item), mult)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [entry]
            else:
                bucket.append(entry)
        aggs = self.band_aggs if self.empty_group else None
        built = {}
        for key, entries in groups.items():
            group = _BandGroup.build(entries, self.band_op, aggs)
            if group is None:
                return None
            built[key] = group
        empty_row = None
        if aggs is not None:
            empty_row = Tuple._adopt(
                {
                    attr: agg_lib.aggregate(func, (), conventions)
                    for attr, func, _ in aggs
                }
            )
        return BandIndex(
            built,
            self.band_op,
            aggs=aggs,
            conventions=conventions,
            empty_row=empty_row,
            tribucket=three_valued and set_aside,
        )


class KeyIndex:
    """Materialized equality-keyed index: one fold per correlation key.

    ``entries`` maps each regular inner key to its fold: a bucket of
    ``(row, mult)`` (laterals), or a truth (boolean scopes).  Strict folds
    set irregular inner keys aside and ``irregular`` is None; the Kleene
    ``∃`` fold keeps them in the ``irregular`` list of ``(key, truth)``.
    ``tribucket`` marks an index that set irregular keys aside under 3VL —
    probes against it count ``tribucket_probes``.  ``miss`` is what a key
    with no entry yields: FALSE for a boolean scope (or the HAVING truth
    over the empty group, under γ∅), and for a γ∅ lateral the empty-group
    frame, synthesized on the first miss (:meth:`empty_group_items`).
    """

    __slots__ = ("entries", "irregular", "tribucket", "miss", "_projections")

    def __init__(self, entries, irregular, tribucket, miss):
        self.entries = entries
        self.irregular = irregular
        self.tribucket = tribucket
        self.miss = miss
        self._projections = {}

    @classmethod
    def fold(cls, pairs, fold, conventions, *, strict, miss=None):
        """Fold ``(inner key, value)`` *pairs* into one entry per key: a
        key's first value, combined with each later one by *fold*.

        *strict* folds set irregular keys aside; the Kleene fold keeps
        them, one entry per distinct key (every NaN compares alike).
        """
        three_valued = conventions.three_valued
        entries = {}
        irregular = None if strict else {}
        set_aside = False
        for key, value in pairs:
            target = entries
            if any(_irregular(v, three_valued) for v in key):
                set_aside = True
                if irregular is None:
                    continue
                key = tuple(_NAN if v != v else v for v in key)
                target = irregular
            found = target.get(key)
            target[key] = value if found is None else fold(found, value)
        if irregular is not None:
            irregular = tuple(irregular.items())
        return cls(entries, irregular, three_valued and set_aside, miss)

    def empty_group_items(self, evaluator, source, env, stats):
        """The γ∅ lateral's empty-group frame, synthesized once per index.

        An accepted γ∅ spec's head assignments cannot reference the outer
        row, so the frame is identical for every probe miss: one anti-join
        of the outer key domain against the index keyset, batched into a
        single synthesis (Fig. 21c) instead of a per-frame re-evaluation.
        """
        items = self.miss
        if items is None:
            items = self.miss = list(evaluator._eval_collection(source, env).items())
            stats.domain_join_compensations += 1
        return items

    def truth(self, key):
        """``OR`` over inner keys ``r`` of ``AND_i r_i = key_i`` and the
        fold of ``r``: the boolean scope's truth for one outer *key*."""
        found = self.entries.get(key)
        if found is not None:
            # A regular key matched; irregular keys add at most UNKNOWN.
            return found
        irregular = self.irregular
        if irregular is None:
            # Strict fold: a key with no entry (an irregular one included)
            # matches no TRUE row.
            return self.miss
        # The Kleene fold runs under 3VL only.
        odd = [i for i, value in enumerate(key) if _irregular(value, True)]
        if odd and all(key[i] == key[i] for i in odd):
            # 3VL NULL components compare UNKNOWN with every regular key;
            # the rest of the key must still match.
            kept = tuple(i for i in range(len(key)) if i not in odd)
            projection = self._projections.get(kept)
            if projection is None:
                # The regular keys projected onto the positions *kept*.
                projection = {tuple(k[i] for i in kept) for k in self.entries}
                self._projections[kept] = projection
            if tuple(key[i] for i in kept) in projection:
                return Truth.UNKNOWN
        # No regular key matches (NaN equals none).  An irregular key holds
        # NULL or NaN, so it is UNKNOWN at best.
        for inner, truth in irregular:
            for left, right in zip(inner, key):
                truth = t_and(truth, compare(left, "=", right, three_valued=True))
                if truth is Truth.FALSE:
                    break
            else:
                return Truth.UNKNOWN
        return Truth.FALSE


def _kind(value):
    """The orderable kind of a band value ("num" or "str"), or None."""
    if isinstance(value, (bool, int, float)):
        return "num"
    return "str" if isinstance(value, str) else None


class _BandGroup:
    """One equality-key group of a band index: sorted keys + payload.

    ``vals`` is ascending; ``payload`` is ordered in *selection order* —
    ascending for ``<``/``<=`` (the probe takes a prefix), descending for
    ``>``/``>=`` (the probe takes a suffix, i.e. a prefix of the reversed
    order) — so a probe is one bisect plus an O(1) array read (aggregates)
    or a slice (rows).
    """

    __slots__ = ("vals", "kind", "payload")

    def __init__(self, vals, kind, payload):
        self.vals = vals
        self.kind = kind
        self.payload = payload

    @classmethod
    def build(cls, entries, op, agg_specs):
        """The group of ``(band value, payload, mult)`` *entries*: sorted
        ``(row, mult)`` pairs, or prefix-aggregate arrays when *agg_specs*
        is given (the payloads are then aggregate argument tuples)."""
        kinds = {_kind(entry[0]) for entry in entries}
        if len(kinds) != 1 or None in kinds:
            # Mixed kinds have no total order consistent with the
            # comparison semantics (str vs int orders FALSE both ways).
            return None
        kind = kinds.pop()
        entries.sort(key=lambda entry: entry[0])
        vals = [entry[0] for entry in entries]
        if op in (">", ">="):
            entries.reverse()
        if agg_specs is None:
            return cls(vals, kind, [(row, mult) for _, row, mult in entries])
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
                for _, args, mult in entries:
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
        if _kind(value) != self.kind:
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

    __slots__ = ("groups", "op", "aggs", "conventions", "empty_row", "tribucket")

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
        spec = _SPECS[node] = _analyze(node)
    return spec


def _band_shape_reason(body, head, label):
    """Why a θ-band candidate's *scope shape* refuses (None = band applies).

    The message always names the predicate (op + inner operand), so callers
    can tell band-eligible shapes refused for shape reasons apart from
    truly unsafe correlations.
    """
    why = f"correlates through the non-equality predicate ({label})"
    if body.grouping is not None and body.grouping.keys:
        return (
            f"{why} under grouping keys — folding an order key into the "
            "grouping would split the groups, so θ-band indexes apply only "
            "to γ∅ and non-grouped scopes"
        )
    if body.grouping is None:
        return None  # non-grouped: sorted-slice probes handle any head
    assignments, agg_assignments, agg_comparisons, _ = split_scope(head, body)
    if assignments:
        return f"{why} in a γ∅ scope with non-aggregate head assignments"
    if agg_comparisons:
        return (
            f"{why} in a γ∅ scope with aggregate comparisons (the group may "
            "be filtered away)"
        )
    assigned = {}
    for attr, expr in agg_assignments:
        if attr in assigned:
            return f"{why} with a duplicate head assignment"
        assigned[attr] = expr
    for attr in head.attrs:
        expr = assigned.get(attr)
        if expr is None:
            return f"{why} and head attribute {attr!r} has no aggregate assignment"
        if not isinstance(expr, n.AggCall) or expr.func not in _BAND_AGGS:
            what = expr.func if isinstance(expr, n.AggCall) else "an expression"
            return f"{why} with a non-prefix-foldable aggregate assignment ({what})"
    return None


def _correlation(conjunct_list, free, inner_vars, head_name, theta_ops):
    """Classify the conjuncts of a scope body that reference *free* variables.

    Returns a refusal reason, or ``(correlated, pairs, band)``: the
    positions of the ``inner = outer`` equalities, their (inner side, outer
    side) operands, and the one θ predicate (position, inner, outer,
    normalized op, label) when *theta_ops* admits it.
    """
    correlated = []  # conjunct positions consumed by equality pairs
    pairs = []  # (inner side, outer side) in the original tree
    band = None  # (position, inner, outer, normalized op, label)
    for index, conjunct in enumerate(conjunct_list):
        used = n.vars_used(conjunct)
        if not used & free:
            continue
        if head_name in used:
            return "outer variables appear in a head assignment"
        if n.facts(conjunct).scoped:
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
    return correlated, pairs, band


def _analyze(node):
    """Analyze a lateral's nested collection or a boolean quantifier scope.

    Every conjunct that references no outer variable is local to the inner
    scope, so one enumeration of the rewritten scope serves every outer
    row.  A boolean scope's head assignments and emitters are the
    evaluator's to exclude: they depend on the enclosing head, not on this
    node.
    """
    head = None
    scope = node
    if isinstance(node, n.Collection):
        head, scope = node.head, node.body
        if isinstance(scope, n.Or):
            return CorrelationSpec("inner body is a disjunction")
        if not isinstance(scope, n.Quantifier):
            return CorrelationSpec(
                f"inner body is a {type(scope).__name__}, not a quantifier scope"
            )
    if scope.join is not None:
        return CorrelationSpec("inner scope carries a join annotation")
    free = frozenset(free_variables(node))
    for binding in scope.bindings:
        if n.vars_used(binding.source) & free:
            return CorrelationSpec(
                f"nested lateral binding {binding.var!r} references the outer "
                "correlation variables"
            )
    grouping = scope.grouping
    if grouping is not None and any(n.vars_used(key) & free for key in grouping.keys):
        return CorrelationSpec("grouping key references outer variables")
    conjunct_list = n.conjuncts(scope.body)
    if (
        head is None
        and grouping is None
        and any(
            isinstance(c, n.Comparison) and c.has_aggregate() for c in conjunct_list
        )
    ):
        return CorrelationSpec(
            "boolean scope has an aggregate predicate but no grouping operator"
        )
    found = _correlation(
        conjunct_list,
        free,
        {b.var for b in scope.bindings},
        None if head is None else head.name,
        () if head is None else BAND_OPS,
    )
    if isinstance(found, str):
        return CorrelationSpec(found)
    correlated, pairs, band = found
    # The stored relations the scope reads anchor the materialized index.
    relation_names = tuple(sorted(set(n.facts(node).relation_refs)))
    if not relation_names:
        return CorrelationSpec(
            "inner scope references no stored relation to anchor the "
            "materialization"
        )
    if band is not None:
        shape_reason = _band_shape_reason(scope, head, band[4])
        if shape_reason is not None:
            return CorrelationSpec(shape_reason)

    spec = CorrelationSpec()
    spec.outer_exprs = tuple(outer for _, outer in pairs)
    spec.key_inner_exprs = tuple(n.clone(inner) for inner, _ in pairs)
    spec.relation_names = relation_names
    spec.empty_group = grouping is not None and not grouping.keys
    spec.grouped = grouping is not None and bool(grouping.keys)
    if head is None:
        spec.strategy = "exists"
    else:
        spec.head_attrs = tuple(head.attrs)
        # Fresh key attributes (avoiding the head's own names).
        taken = set(head.attrs)
        wanted = len(pairs) + (1 if band is not None and not spec.empty_group else 0)
        key_attrs = [fresh_name(f"_ck{i}", taken) for i in range(wanted)]
        if band is not None:
            spec.strategy = "band"
            spec.band_op = band[3]
            spec.band_inner_expr = n.clone(band[1])
            spec.band_outer_expr = band[2]
            if not spec.empty_group:
                spec.band_attr = key_attrs.pop()
        spec.key_attrs = tuple(key_attrs)

    # Conjunct position -> inner operand of every correlation predicate.
    moved = dict(zip(correlated, (inner for inner, _ in pairs)))
    if band is not None:
        moved[band[0]] = band[1]
    if head is None and grouping is None:
        # Ungrouped ∃: the build enumerates the bindings under the local
        # conjuncts directly; nothing needs rewriting.
        spec.stripped = (
            tuple(scope.bindings),
            tuple(c for i, c in enumerate(conjunct_list) if i not in moved),
        )
        return spec
    if spec.strategy == "band" and spec.empty_group:
        # γ∅ band: the probe folds prefix arrays, so materialization needs
        # the *raw* row stream — bindings plus the residual row formulas,
        # with the correlation predicates and aggregate assignments
        # stripped out.
        kept = [
            n.clone(conjunct)
            for position, conjunct in enumerate(conjunct_list)
            if position not in moved
            and not (
                isinstance(conjunct, n.Comparison)
                and assignment_of(conjunct, head) is not None
            )
        ]
        spec.stripped = (
            tuple(n.clone(binding) for binding in scope.bindings),
            tuple(kept),
        )
        calls = dict(split_scope(head, scope)[1])
        spec.band_aggs = tuple(
            (attr, call.func, None if call.arg is None else n.clone(call.arg))
            for attr, call in zip(head.attrs, map(calls.get, head.attrs))
        )
        return spec

    # The FIO rewrite: drop the correlated predicates and fold their inner
    # sides into the grouping keys (γ∅ becomes γ keys; a probe miss sees
    # the empty group); a lateral also projects them as key attributes.
    clone = n.clone(node)
    cscope = clone if head is None else clone.body
    cconjuncts = n.conjuncts(cscope.body)
    # The clone's copy of each inner operand: same position, same side.
    inner_keys = [
        cconjuncts[i].left if conjunct_list[i].left is inner else cconjuncts[i].right
        for i, inner in moved.items()
    ]
    extra_attrs = spec.key_attrs + ((spec.band_attr,) if band is not None else ())
    kept = [c for i, c in enumerate(cconjuncts) if i not in moved]
    if head is not None:
        kept += [
            n.Comparison(n.Attr(head.name, ck), "=", expr)
            for ck, expr in zip(extra_attrs, inner_keys)
        ]
        clone.head = n.Head(head.name, tuple(head.attrs) + tuple(extra_attrs))
    cscope.body = n.make_and(kept)
    if grouping is not None:
        keys = list(cscope.grouping.keys)
        for expr in inner_keys:
            if not any(n.structurally_equal(expr, key) for key in keys):
                keys.append(n.clone(expr))
        cscope.grouping = n.Grouping(tuple(keys))
    spec.rewritten = clone
    return spec


# ---------------------------------------------------------------------------
# Plan-level decision (per evaluator: flags, conventions, catalog)
# ---------------------------------------------------------------------------


def plan_for(evaluator, source):
    """Decide decorrelation of *source* under *evaluator*.

    *source* is a lateral's nested collection or a boolean quantifier
    scope.  Returns ``(spec, None)`` when the FIO rewrite applies, else
    ``(None, reason)``: the evaluator-dependent checks (escape hatch,
    stored relations) on top of the cached structural analysis.  The
    decision is data-independent; data an index cannot carry exactly falls
    back per catalog state inside ``materialize``.
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
