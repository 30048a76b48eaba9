"""Scope compilation: hash-indexed execution plans for quantifier scopes.

The reference strategy in :mod:`repro.engine.evaluator` enumerates a scope's
bindings as textbook nested loops and probes every row formula only after a
full combination is formed — quadratic or worse on workloads that a hash
join evaluates in linear time.  This module compiles each quantifier scope
once into an execution plan that the evaluator runs instead:

* **Conjunct classification.**  Row formulas touching no scope variable are
  hoisted in front of the loops; formulas touching a deferred
  (external/abstract) binding stay with the deferred-resolution tail; every
  other formula is pushed down to the earliest binding at which all of its
  variables are bound.
* **Equality extraction.**  Conjuncts of the shape ``r.a = <expr>`` whose
  right side is computable before ``r`` is enumerated become hash-index
  probes into ``r``'s relation (:meth:`repro.data.relation.Relation.index_on`).
* **Greedy join ordering.**  Concrete bindings are reordered so that a
  binding with a usable equality is probed via its index as soon as the
  driving side is bound; bindings without one fall back to scan + residual
  filters.  Lateral (nested-collection) bindings keep their dependency
  order.
* **Grouping fusion.**  A grouping scope over a single stored relation is
  executed as one tight scan-and-bucket loop with streaming aggregate
  finalization, bypassing the per-row environment/generator machinery.

Plans are cached per AST node (weakly, so temporary fixpoint rewrites do
not leak) and validated against the evaluator's catalog before reuse, so
repeated lateral re-evaluation never re-plans.  Index probes are *exact*
under both null conventions: a probe key containing NULL yields no rows
under three-valued logic (where ``x = NULL`` is never TRUE) and probes the
NULL bucket under two-valued logic (where ``NULL = NULL`` is TRUE and the
Python-level hash/equality of the NULL marker agrees).

Compiled plans serve *strict* enumeration (combinations whose row formulas
must all be TRUE).  Non-strict boolean scopes need UNKNOWN propagation —
dropping a row whose equality is UNKNOWN would change the Kleene fold — so
they never run on a compiled plan.  A boolean scope correlated only through
equalities runs instead as one probe per outer row of an exists index
(:mod:`repro.engine.decorrelate`), built by a single non-strict
enumeration; every other boolean scope keeps the reference strategy.

One documented deviation: like every SQL optimizer, pushdown leaves the
*evaluation order* of predicates unspecified.  A predicate whose
evaluation raises (e.g. heterogeneous arithmetic) may be reached by the
planner for partial combinations the reference strategy never forms —
when a later binding's relation turns out to be empty — so such degenerate
queries can error under the planner while the reference returns empty.
On queries whose predicates evaluate cleanly (everything the differential
harness covers), results and errors agree exactly.
"""

from __future__ import annotations

import weakref
from collections import Counter

from ..core import nodes as n
from ..data.relation import Tuple
from ..data.values import NULL, Truth, is_null
from ..errors import EvaluationError
from ..util.deadline import STRIDE_MASK
from . import aggregates as agg_lib
from . import decorrelate

_MISSING = object()

#: :func:`_probe_key` result when a key expression raises.
_UNUSABLE = object()

_STREAMABLE_AGGS = frozenset(["sum", "count", "avg", "min", "max"])


class ExecutionStats:
    """Counters exposing what the execution layer actually did.

    Used by the perf-regression smoke tests to assert complexity bounds
    (an indexed join must do O(N) probes, not O(N²) enumerations) without
    timing anything.
    """

    __slots__ = (
        "index_probes",
        "rows_enumerated",
        "combos_emitted",
        "plans_compiled",
        "plan_cache_hits",
        "grouped_fast_paths",
        "laterals_decorrelated",  # lateral steps compiled onto the FIO index
        "lateral_reevals",  # per-frame inner-collection evaluations (FOI)
        "decorr_index_builds",  # FIO hash-index materializations (cache misses)
        "lateral_probe_misses",  # γ∅ probe misses (compensated, not re-evaluated)
        "band_index_builds",  # θ-band index materializations (cache misses)
        "domain_join_compensations",  # batched γ∅ empty-frame syntheses
        "tribucket_probes",  # probes against an UNKNOWN-aware (3VL) index
        "timeouts",  # runs aborted by QueryTimeout (deadline exceeded)
        "budget_exceeded",  # runs aborted by BudgetExceeded (row budget)
        "retries",  # transient sqlite errors absorbed by the retry loop
        "breaker_trips",  # circuit-breaker closed→open transitions
    )

    def __init__(self):
        self.reset()

    def reset(self):
        self.index_probes = 0
        self.rows_enumerated = 0
        self.combos_emitted = 0
        self.plans_compiled = 0
        self.plan_cache_hits = 0
        self.grouped_fast_paths = 0
        self.laterals_decorrelated = 0
        self.lateral_reevals = 0
        self.decorr_index_builds = 0
        self.lateral_probe_misses = 0
        self.band_index_builds = 0
        self.domain_join_compensations = 0
        self.tribucket_probes = 0
        self.timeouts = 0
        self.budget_exceeded = 0
        self.retries = 0
        self.breaker_trips = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"ExecutionStats({inner})"


class BindingStep:
    """One binding of a compiled scope: an index probe or a filtered scan."""

    __slots__ = (
        "binding",
        "var",
        "relation_name",
        "lookup_attrs",  # tuple of attrs probed via hash index, or None
        "key_exprs",  # exprs producing the probe key, aligned with lookup_attrs
        "filters",  # formulas checked per candidate row (index path)
        "scan_filters",  # filters + consumed equalities (scan fallback path)
        "decorr",  # CorrelationSpec probing the FIO index (laterals), or None
    )

    def __init__(self, binding):
        self.binding = binding
        self.var = binding.var
        self.relation_name = (
            binding.source.name if isinstance(binding.source, n.RelationRef) else None
        )
        self.lookup_attrs = None
        self.key_exprs = ()
        self.filters = []
        self.scan_filters = []
        self.decorr = None


class CompiledScope:
    """The executable plan for one quantifier scope."""

    __slots__ = (
        "assumptions",
        "steps",
        "pre_filters",
        "final_filters",
        "deferred",
        "deferred_residual",
        "grouped",
    )

    def __init__(self):
        self.assumptions = ()
        self.steps = []
        self.pre_filters = []
        self.final_filters = []
        self.deferred = []
        self.deferred_residual = []
        self.grouped = None

    # -- generic strict enumeration ------------------------------------------

    def execute(self, ev, env, mult=1):
        """Yield (env, mult) for every combination satisfying the scope.

        Yielded environments are fresh dicts; the working frame is mutated
        in place (push/pop) and never escapes, so abandoning the generator
        mid-iteration is safe.
        """
        truth = ev._truth
        for formula in self.pre_filters:
            if truth(formula, env) is not Truth.TRUE:
                return
        stats = ev.stats
        deadline = ev.deadline
        dl_ops = 0
        is_set = ev.conventions.is_set
        three_valued = ev.conventions.three_valued
        steps = self.steps
        last = len(steps)
        frame = dict(env)
        # Per-execute memo of FIO indexes: materialize() resolves the anchor
        # relations and checks their shared caches, which is wasteful per
        # frame; relations cannot mutate mid-execute, so one lookup per
        # step suffices (still lazy — a step never reached never builds).
        fio_indexes = {}

        def run(depth, mult):
            nonlocal dl_ops
            if depth == last:
                for formula in self.final_filters:
                    if truth(formula, frame) is not Truth.TRUE:
                        return
                if self.deferred:
                    yield from ev._resolve_deferred(
                        list(self.deferred),
                        self.deferred_residual,
                        dict(frame),
                        mult,
                        strict=True,
                    )
                else:
                    stats.combos_emitted += 1
                    yield dict(frame), mult
                return
            step = steps[depth]
            var = step.var
            saved = frame.get(var, _MISSING)
            try:
                rows, filters, weighted = _step_rows(
                    ev, step, depth, frame, fio_indexes, is_set, three_valued
                )
                for row, row_mult in rows:
                    stats.rows_enumerated += 1
                    if deadline is not None:
                        dl_ops += 1
                        if not dl_ops & STRIDE_MASK:
                            deadline.check()
                    frame[var] = row
                    for formula in filters:
                        if truth(formula, frame) is not Truth.TRUE:
                            break
                    else:
                        yield from run(depth + 1, mult * row_mult if weighted else mult)
            finally:
                if saved is _MISSING:
                    frame.pop(var, None)
                else:
                    frame[var] = saved

        yield from run(0, mult)

    # -- fused grouping ---------------------------------------------------------

    def supports_grouped(self):
        return (
            self.grouped is not None
            and not self.deferred
            and not self.final_filters
            and len(self.steps) == 1
            and self.steps[0].relation_name is not None
        )

    def _grouped_buckets(self, ev, env):
        """Partition the single binding's rows into per-group buckets.

        Returns a dict mapping raw key tuples to buckets — lists of
        ``(row, mult)`` pairs in relation iteration order — or None when
        the shape cannot be handled (caller falls back to the generic
        path, which also surfaces any schema errors with the reference
        wording).  The uncorrelated unfiltered case returns the relation's
        cached hash index over the grouping attributes directly, so the
        partition survives across evaluations (callers must not mutate
        the buckets).
        """
        spec = self.grouped
        step = self.steps[0]
        try:
            relation = ev._resolve_relation(step.relation_name)
        except EvaluationError:
            return None
        if not spec.row_attrs <= relation._schema_set:
            return None
        truth = ev._truth
        for formula in self.pre_filters:
            if truth(formula, env) is not Truth.TRUE:
                return {}
        key_attrs = spec.key_attrs
        filters = step.filters if step.lookup_attrs is not None else step.scan_filters
        ev.stats.grouped_fast_paths += 1
        deadline = ev.deadline
        if deadline is not None:
            # The fused scans below are single-pass over one stored relation
            # (bounded work), so one clock read per partition suffices.
            deadline.check()

        # Row source: full relation or one index bucket (correlated scopes).
        pairs = None
        if step.lookup_attrs is not None:
            key = _probe_key(ev, step.key_exprs, env, ev.conventions.three_valued)
            if key is _UNUSABLE:
                return None
            if key is None:
                pairs = []
            else:
                ev.stats.index_probes += 1
                pairs = relation.index_on(step.lookup_attrs).get(key, [])
        elif not filters and key_attrs is not None:
            # The grouping partition IS a hash index over the key attrs:
            # reuse (and cache) it on the relation.
            ev.stats.index_probes += 1
            ev.stats.rows_enumerated += relation.distinct_count()
            return relation.index_on(key_attrs)

        if pairs is None:
            source = relation._rows.items()
        else:
            source = pairs

        groups = {}
        if not filters and key_attrs is not None:
            # Tight loop: raw-value keys, no per-row environment.
            count = 0
            if len(key_attrs) == 1:
                attr = key_attrs[0]
                for entry in source:
                    count += 1
                    key = (entry[0]._values[attr],)
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = [entry]
                    else:
                        bucket.append(entry)
            elif key_attrs:
                for entry in source:
                    count += 1
                    values = entry[0]._values
                    key = tuple(values[a] for a in key_attrs)
                    bucket = groups.get(key)
                    if bucket is None:
                        groups[key] = [entry]
                    else:
                        bucket.append(entry)
            else:
                bucket = list(source)
                count = len(bucket)
                if bucket:
                    groups[()] = bucket
            ev.stats.rows_enumerated += count
            return groups

        # Generic loop: per-row frame for filters and expression keys.
        frame = dict(env)
        var = step.var
        key_exprs = spec.key_exprs
        eval_expr = ev._eval_expr
        dl_ops = 0
        for entry in source:
            row = entry[0]
            ev.stats.rows_enumerated += 1
            if deadline is not None:
                dl_ops += 1
                if not dl_ops & STRIDE_MASK:
                    deadline.check()
            frame[var] = row
            keep = True
            for formula in filters:
                if truth(formula, frame) is not Truth.TRUE:
                    keep = False
                    break
            if not keep:
                continue
            if key_attrs is not None:
                values = row._values
                key = tuple(values[a] for a in key_attrs)
            else:
                key = tuple(eval_expr(expr, frame) for expr in key_exprs)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [entry]
            else:
                bucket.append(entry)
        frame.pop(var, None)
        return groups

    def _finalize_group(self, ev, env, bucket, is_set):
        """Compute (assigns dict or None-to-skip) for one group's bucket.

        *bucket* holds (row, stored-multiplicity) pairs; under set
        conventions the multiplicities are ignored (each distinct row
        counts once).
        """
        spec = self.grouped
        var = self.steps[0].var
        conventions = ev.conventions
        rep_row = bucket[0][0] if bucket else None

        agg_values = {}
        if spec.agg_specs:
            for agg_id, func, arg_kind, payload in spec.agg_specs:
                agg_values[agg_id] = _fold_aggregate(
                    ev, var, env, bucket, is_set, func, arg_kind, payload, conventions
                )

        rep_env = None
        if spec.needs_rep_env:
            if rep_row is not None:
                rep_env = dict(env)
                rep_env[var] = rep_row
            else:
                rep_env = env

        for predicate in spec.agg_comparisons:
            if ev._truth(predicate, rep_env, agg_values) is not Truth.TRUE:
                return None

        assigns = {}
        for kind, attr, payload, expr in spec.assigns:
            if rep_row is not None:
                if kind == "attr":
                    value = rep_row._values[payload]
                elif kind == "const":
                    value = payload
                else:
                    value = ev._eval_expr(expr, rep_env)
            else:
                # Empty γ∅ group: mirror the reference fallback (outer env
                # only), including its error wording.
                value = ev._eval_group_expr(expr, env, env, bucket)
            if attr in assigns and assigns[attr] != value:
                return None
            assigns[attr] = value
        for attr, kind, payload in spec.agg_assigns:
            if kind == "agg":
                assigns[attr] = agg_values[payload]
            else:
                assigns[attr] = ev._eval_expr(payload, rep_env, agg_values)
        return assigns

    def grouped_counter(self, ev, env, head_attrs):
        """Whole-collection fused grouping: Counter of output Tuples.

        Returns None when the shape is unsupported; the fully-simple shape
        (plain key/constant assignments, streamable aggregates, no HAVING)
        fills a precompiled output template per group, with no per-group
        environment.
        """
        if not self.supports_grouped():
            return None
        spec = self.grouped
        if spec.out_attrs != head_attrs:
            return None
        is_set = ev.conventions.is_set

        # A fully-simple, uncorrelated, unfiltered grouping depends only on
        # the relation's contents, so its result is a materialized aggregate
        # the relation can cache (invalidated by Relation.add, like indexes).
        step = self.steps[0]
        cache_relation = None
        cache_tag = None
        if (
            spec.simple is not None
            and is_set
            and step.lookup_attrs is None
            and not step.scan_filters
            and not self.pre_filters
            and spec.key_attrs is not None
        ):
            try:
                relation = ev._resolve_relation(step.relation_name)
            except EvaluationError:
                relation = None
            if relation is not None and spec.row_attrs <= relation._schema_set:
                cache_tag = ("γ", ev.conventions.empty_aggregate)
                cached = relation.derived_get(spec, cache_tag)
                if cached is not None:
                    ev.stats.grouped_fast_paths += 1
                    return Counter(cached)
                cache_relation = relation

        groups = self._grouped_buckets(ev, env)
        if groups is None:
            return None
        out = Counter()
        adopt = Tuple._adopt
        if spec.simple is not None and is_set and groups:
            template, simple_aggs = spec.simple
            var = step.var
            conventions = ev.conventions
            for bucket in groups.values():
                agg_vals = [
                    _fold_aggregate(
                        ev, var, env, bucket, True, func, arg_kind, payload, conventions
                    )
                    for func, arg_kind, payload in simple_aggs
                ]
                rep = bucket[0][0]._values
                assigns = {}
                for attr, kind, payload in template:
                    if kind == "rep":
                        assigns[attr] = rep[payload]
                    elif kind == "agg":
                        assigns[attr] = agg_vals[payload]
                    else:
                        assigns[attr] = payload
                out[adopt(assigns)] += 1
            if cache_relation is not None:
                cache_relation.derived_put(spec, cache_tag, dict(out))
            return out
        out.update(map(adopt, self._finalized_groups(ev, env, groups, is_set)))
        return out

    def grouped_rows(self, ev, env):
        """Fused grouped evaluation yielding (assigns, 1) per surviving group.

        Returns None when the scope shape is unsupported (caller uses the
        generic path).
        """
        if not self.supports_grouped():
            return None
        groups = self._grouped_buckets(ev, env)
        if groups is None:
            return None
        is_set = ev.conventions.is_set
        return (
            (assigns, 1)
            for assigns in self._finalized_groups(ev, env, groups, is_set)
        )

    def _finalized_groups(self, ev, env, groups, is_set):
        """Yield the assigns of every surviving group; γ∅ over no input
        still finalizes its one empty group."""
        if not groups and self.grouped.empty_group:
            groups = {(): []}
        for bucket in groups.values():
            assigns = self._finalize_group(ev, env, bucket, is_set)
            if assigns is not None:
                yield assigns


_NO_ROWS = ((), (), False)


def _step_rows(ev, step, depth, frame, fio_indexes, is_set, three_valued):
    """Resolve one binding step under *frame* to ``(rows, filters, weighted)``.

    *rows* yields ``(row, multiplicity)`` pairs and *filters* are the row
    formulas each candidate must satisfy.  *weighted* says whether a row's
    multiplicity scales the combination's: set conventions ignore a stored
    relation's multiplicities (each distinct row counts once).
    """
    if step.relation_name is None:
        decorr = step.decorr
        if decorr is not None:
            index = fio_indexes.get(depth, _MISSING)
            if index is _MISSING:
                index = fio_indexes[depth] = decorr.materialize(ev)
            if index is not None:
                rows = _probe_fio(ev, step, index, frame, is_set, three_valued)
                if rows is not _UNUSABLE:
                    return rows, step.filters, True
        # Per-frame (FOI) lateral: the inner collection is re-evaluated
        # under every outer environment.
        return ev._binding_rows(step.binding, frame), step.filters, True
    relation = ev._resolve_relation(step.relation_name)
    rows_map = relation._rows
    if not rows_map:
        return _NO_ROWS
    if step.lookup_attrs is not None:
        key = _probe_key(ev, step.key_exprs, frame, three_valued)
        if key is None:
            return _NO_ROWS
        if key is not _UNUSABLE:
            ev.stats.index_probes += 1
            bucket = relation.index_on(step.lookup_attrs).get(key)
            return bucket or (), step.filters, not is_set
        # Key not computable (e.g. unbound outer variable): fall back to a
        # scan so the equality surfaces the same error the reference
        # strategy would raise, row by row.
    return rows_map.items(), step.scan_filters, not is_set


def _probe_fio(ev, step, index, frame, is_set, three_valued):
    """Probe a decorrelated (FIO) lateral's materialized index for *frame*.

    Returns the bucket of ``(row, mult)`` pairs, or :data:`_UNUSABLE` when
    a key expression raises (the per-frame path then surfaces the same
    error row by row).
    """
    decorr = step.decorr
    key = _probe_key(ev, decorr.outer_exprs, frame, three_valued)
    if key is _UNUSABLE:
        return _UNUSABLE
    band = decorr.strategy == "band"
    if band:
        try:
            band_value = ev._eval_expr(decorr.band_outer_expr, frame)
        except EvaluationError:
            return _UNUSABLE
    stats = ev.stats
    stats.index_probes += 1
    if index.tribucket:
        stats.tribucket_probes += 1
    if band:
        # θ-band probe: bisect the sorted entries; γ∅ scopes fold
        # prefix-aggregate arrays at the boundary (one row, count-bug exact).
        return index.probe(key, band_value, is_set)
    bucket = None if key is None else index.get(key)
    if bucket is None and decorr.empty_group:
        # γ∅ emits one row even over an empty group (the count bug's
        # asymmetry): every missing key maps to one shared frame — the
        # domain-join compensation, synthesized once per index.
        stats.lateral_probe_misses += 1
        bucket = index.empty_group_items(ev, step.binding.source, frame, stats)
    return bucket or ()


def _probe_key(ev, exprs, frame, three_valued):
    """Evaluate an equality probe's key expressions under *frame*.

    Returns the key tuple; None when the equality can never be TRUE (a NULL
    component under 3VL, or NaN under any convention — a dict probe would
    match the identical NaN object by identity); or :data:`_UNUSABLE` when
    evaluating a key expression raises.
    """
    key = []
    for expr in exprs:
        try:
            value = ev._eval_expr(expr, frame)
        except EvaluationError:
            return _UNUSABLE
        if (three_valued and is_null(value)) or value != value:
            return None
        key.append(value)
    return tuple(key)


class _GroupedSpec:
    """Compile-time description of a fusable grouping scope."""

    __slots__ = (
        "key_attrs",  # tuple of attr names when every key is Attr(var), else None
        "key_exprs",  # the raw key expressions (generic fallback)
        "empty_group",  # γ∅: one group even over empty input
        "assigns",  # [(kind, out_attr, payload, expr)]
        "agg_assigns",  # [(out_attr, 'agg'|'expr', payload)]
        "agg_specs",  # [(id, func, arg_kind, payload)]
        "agg_comparisons",
        "needs_rep_env",
        "row_attrs",  # attr names read straight off scanned rows
        "out_attrs",  # frozenset of produced head attributes
        "simple",  # (output template, streamable agg list) or None
        "__weakref__",  # materialized results are cached per-relation, keyed here
    )


def _fold_aggregate(ev, var, env, bucket, is_set, func, arg_kind, payload, conventions):
    """Aggregate one group's bucket, streaming the common cases.

    *bucket* holds (row, stored-multiplicity) pairs; set conventions
    ignore the stored multiplicities (each distinct row counts once).
    """
    if arg_kind == "star":
        if is_set:
            return len(bucket)
        return agg_lib.count_rows(m for _, m in bucket)
    if arg_kind == "attr" and func in _STREAMABLE_AGGS and is_set:
        if func == "sum" and bucket:
            # Optimistic: a NULL anywhere raises TypeError (0 + NULL is
            # undefined), falling back to the filtered path below.
            try:
                return sum([pair[0]._values[payload] for pair in bucket])
            except TypeError:
                pass
        values = [
            v for pair in bucket if (v := pair[0]._values[payload]) is not NULL
        ]
        if func == "count":
            return len(values)
        if not values:
            return agg_lib.aggregate(func, (), conventions)
        if func == "sum":
            return sum(values)
        if func == "avg":
            return sum(values) / len(values)
        if func == "min":
            return min(values)
        return max(values)
    # Generic / distinct / bag aggregates: extract pairs and reuse the
    # aggregate library so conventions (empty group, distinct) stay
    # identical to the reference path.
    if arg_kind == "attr":
        if is_set:
            pairs = [(row._values[payload], 1) for row, _ in bucket]
        else:
            pairs = [(row._values[payload], mult) for row, mult in bucket]
    else:
        frame = dict(env)
        pairs = []
        for row, mult in bucket:
            frame[var] = row
            pairs.append((ev._eval_expr(payload, frame), 1 if is_set else mult))
    return agg_lib.aggregate(func, pairs, conventions)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_scope(evaluator, quant, scope_plan):
    """Compile one quantifier scope into a :class:`CompiledScope`."""
    compiled = compile_bindings(evaluator, quant.bindings, scope_plan.row_formulas)
    if quant.grouping is not None and quant.join is None:
        compiled.grouped = _compile_grouped(quant, scope_plan, compiled)
    return compiled


def scope_assumptions(evaluator, bindings):
    """How each binding classifies under *evaluator*'s current catalog.

    Compiled plans embed this classification; a cached plan is reused only
    when it still matches (a name may be a stored relation in one catalog
    and an external/abstract source in another, and a lateral may be
    decorrelated under one evaluator but per-row under another — the
    decorrelation decision is data-dependent, so it is re-probed on every
    lookup rather than frozen into the plan).
    """
    kinds = []
    for binding in bindings:
        if evaluator._is_deferred(binding):
            kinds.append((binding.var, "deferred"))
        elif isinstance(binding.source, n.Collection):
            if decorrelate.plan_for(evaluator, binding.source)[0] is not None:
                kinds.append((binding.var, "fio"))
            else:
                kinds.append((binding.var, "lateral"))
        else:
            kinds.append((binding.var, "stored"))
    return tuple(kinds)


def compile_bindings(evaluator, bindings, row_formulas):
    """Compile a binding list + row formulas into a :class:`CompiledScope`."""
    evaluator.stats.plans_compiled += 1
    compiled = CompiledScope()
    bindings = list(bindings)
    compiled.assumptions = scope_assumptions(evaluator, bindings)
    concrete = []
    for binding, (_, kind) in zip(bindings, compiled.assumptions):
        if kind == "deferred":
            compiled.deferred.append(binding)
        else:
            concrete.append(binding)
    scope_vars = {b.var for b in bindings}
    deferred_vars = {b.var for b in compiled.deferred}

    pending = []  # [formula, needed scope vars, consumed?]
    for formula in row_formulas:
        needs = n.vars_used(formula) & scope_vars
        if not needs:
            compiled.pre_filters.append(formula)
        elif needs & deferred_vars:
            compiled.deferred_residual.append(formula)
        else:
            pending.append([formula, needs, False])

    # Ordering dependencies: a lateral binding may reference any variable
    # introduced syntactically before it (vars_used over-approximates —
    # shadowed inner names just force the syntactic order, which is safe).
    position = {id(b): i for i, b in enumerate(concrete)}
    deps = {}
    earlier = set()
    for binding in concrete:
        if isinstance(binding.source, n.Collection):
            deps[id(binding)] = n.vars_used(binding.source) & earlier
        else:
            deps[id(binding)] = set()
        earlier.add(binding.var)

    bound = set()
    remaining = list(concrete)
    while remaining:
        candidates = [b for b in remaining if not (deps[id(b)] - bound)]
        best = None
        best_key = None
        best_eqs = None
        for binding in candidates:
            if isinstance(binding.source, n.RelationRef):
                eqs = _usable_equalities(binding, pending, bound)
            else:
                eqs = {}
            key = (len(eqs), -position[id(binding)])
            if best is None or key > best_key:
                best, best_key, best_eqs = binding, key, eqs
        step = BindingStep(best)
        if step.relation_name is None and isinstance(best.source, n.Collection):
            step.decorr = decorrelate.plan_for(evaluator, best.source)[0]
            if step.decorr is not None:
                evaluator.stats.laterals_decorrelated += 1
        remaining.remove(best)
        consumed_eqs = []
        if best_eqs:
            attrs = tuple(sorted(best_eqs))
            step.lookup_attrs = attrs
            step.key_exprs = tuple(best_eqs[a][1] for a in attrs)
            for attr in attrs:
                entry = best_eqs[attr][0]
                entry[2] = True
                consumed_eqs.append(entry[0])
        bound.add(best.var)
        for entry in pending:
            formula, needs, taken = entry
            if not taken and needs <= bound:
                step.filters.append(formula)
                entry[2] = True
        step.scan_filters = consumed_eqs + step.filters
        compiled.steps.append(step)

    # Safety net: anything left unconsumed is checked once per combination.
    compiled.final_filters = [entry[0] for entry in pending if not entry[2]]
    return compiled


def _usable_equalities(binding, pending, bound):
    """Equality conjuncts that can drive an index probe into *binding*.

    Returns ``{attr: (pending entry, key expr)}`` for conjuncts of the form
    ``binding.attr = expr`` whose other side references only already-bound
    scope variables (outer variables are bound by construction).
    """
    found = {}
    var = binding.var
    for entry in pending:
        formula, needs, taken = entry
        if taken or not isinstance(formula, n.Comparison) or formula.op != "=":
            continue
        if needs - bound - {var}:
            continue
        for side, other in (
            (formula.left, formula.right),
            (formula.right, formula.left),
        ):
            if (
                isinstance(side, n.Attr)
                and side.var == var
                and side.attr not in found
                and var not in n.vars_used(other)
            ):
                found[side.attr] = (entry, other)
                break
    return found


def _compile_grouped(quant, scope_plan, compiled):
    """Build the fused-grouping spec, or None when the shape is unsupported."""
    if len(compiled.steps) != 1 or compiled.steps[0].relation_name is None:
        return None
    var = compiled.steps[0].var
    spec = _GroupedSpec()
    row_attrs = set()

    keys = tuple(quant.grouping.keys)
    spec.key_exprs = keys
    spec.empty_group = not keys
    key_attrs = []
    for key in keys:
        if isinstance(key, n.Attr) and key.var == var:
            key_attrs.append(key.attr)
        else:
            key_attrs = None
            break
    spec.key_attrs = tuple(key_attrs) if key_attrs is not None else None
    if spec.key_attrs:
        row_attrs.update(spec.key_attrs)

    assigns = []
    seen_attrs = set()
    for attr, expr in scope_plan.assignments:
        if attr in seen_attrs:
            return None  # duplicate head assignment: generic conflict check
        seen_attrs.add(attr)
        if isinstance(expr, n.Attr) and expr.var == var:
            assigns.append(("attr", attr, expr.attr, expr))
            row_attrs.add(expr.attr)
        elif isinstance(expr, n.Const):
            assigns.append(("const", attr, expr.value, expr))
        else:
            assigns.append(("expr", attr, None, expr))
    spec.assigns = tuple(assigns)

    agg_nodes = []
    for _, expr in scope_plan.agg_assignments:
        agg_nodes.extend(a for a in expr.walk() if isinstance(a, n.AggCall))
    for predicate in scope_plan.agg_comparisons:
        agg_nodes.extend(a for a in predicate.walk() if isinstance(a, n.AggCall))
    agg_specs = []
    seen_aggs = set()
    for node in agg_nodes:
        if id(node) in seen_aggs:
            continue
        seen_aggs.add(id(node))
        if node.arg is None:
            agg_specs.append((id(node), node.func, "star", None))
        elif isinstance(node.arg, n.Attr) and node.arg.var == var:
            agg_specs.append((id(node), node.func, "attr", node.arg.attr))
            row_attrs.add(node.arg.attr)
        else:
            agg_specs.append((id(node), node.func, "expr", node.arg))
    spec.agg_specs = tuple(agg_specs)

    agg_assigns = []
    for attr, expr in scope_plan.agg_assignments:
        if attr in seen_attrs:
            return None
        seen_attrs.add(attr)
        if isinstance(expr, n.AggCall):
            agg_assigns.append((attr, "agg", id(expr)))
        else:
            agg_assigns.append((attr, "expr", expr))
    spec.agg_assigns = tuple(agg_assigns)
    spec.agg_comparisons = tuple(scope_plan.agg_comparisons)
    spec.needs_rep_env = bool(
        spec.agg_comparisons
        or any(kind == "expr" for kind, _, _, _ in spec.assigns)
        or any(kind == "expr" for _, kind, _ in spec.agg_assigns)
    )
    spec.row_attrs = frozenset(row_attrs)
    spec.out_attrs = frozenset(seen_attrs)

    spec.simple = None
    if (
        not spec.agg_comparisons
        and all(kind in ("attr", "const") for kind, _, _, _ in spec.assigns)
        and all(kind == "agg" for _, kind, _ in spec.agg_assigns)
        and all(
            arg_kind == "star" or (arg_kind == "attr" and func in _STREAMABLE_AGGS)
            for _, func, arg_kind, _ in spec.agg_specs
        )
    ):
        agg_index = {entry[0]: i for i, entry in enumerate(spec.agg_specs)}
        simple_aggs = tuple(entry[1:] for entry in spec.agg_specs)
        template = [
            (attr, "rep" if kind == "attr" else "const", payload)
            for kind, attr, payload, _ in spec.assigns
        ]
        template.extend(
            (attr, "agg", agg_index[agg_id]) for attr, _, agg_id in spec.agg_assigns
        )
        spec.simple = (tuple(template), simple_aggs)
    return spec


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------


class PlanEntry:
    """Per-AST-node cache record, shared across evaluator instances."""

    __slots__ = ("scope_plans", "compiled", "join_plans")

    def __init__(self):
        self.scope_plans = {}  # head key -> _ScopePlan
        self.compiled = {}  # head key -> [CompiledScope] (assumption variants)
        self.join_plans = {}  # head key -> (assignment, uncovered, sub-plans)


_PLAN_CACHE = weakref.WeakKeyDictionary()


def plan_entry(quant):
    """The (weakly cached) plan record for one quantifier node."""
    entry = _PLAN_CACHE.get(quant)
    if entry is None:
        entry = PlanEntry()
        _PLAN_CACHE[quant] = entry
    return entry
