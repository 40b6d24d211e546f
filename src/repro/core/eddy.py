"""The Eddy: continuously adaptive tuple routing (Section 2.2, [AH00]).

An eddy sits between a set of commutative operators, intercepting every
tuple that flows into or out of them.  For each tuple it repeatedly picks
an eligible operator (one that applies and has not yet seen the tuple),
hands the tuple over, collects any generated tuples (join matches) for
further routing, and emits the tuple once every connected module has
successfully handled it.

The implementation notes map to the paper like so:

* tuple "done" bitmaps — :attr:`repro.core.tuples.Tuple.done`, one bit
  per connected operator, assigned at eddy construction;
* "bounce back" — an operator's :meth:`EddyOperator.handle` returns
  ``passed=False`` to reject the tuple (a failed filter), and returned
  match tuples re-enter the routing loop;
* shutdown — the eddy is a Fjord module; EOS on all inputs finishes it;
* routing policy & batching — pluggable (:mod:`repro.core.routing`),
  including the §4.3 "adapting adaptivity" knobs.
"""

from __future__ import annotations

import itertools
from typing import (Dict, Iterable, List, Optional, Sequence, Set, Tuple as TypingTuple)

from repro.core import columnar
from repro.core.routing import BatchingDirective, PER_TUPLE, RoutingPolicy, RandomPolicy
from repro.core.stem import SteM
from repro.core.tuples import Punctuation, Tuple, TupleBatch, is_eos
from repro.errors import ExecutionError, PlanError
from repro.fjords.module import Module, StepResult
from repro.fjords.queues import EMPTY
import repro.monitor.introspect as introspect
from repro.monitor.telemetry import get_registry
from repro.query.predicates import ColumnComparison, Predicate

_EDDY_IDS = itertools.count()


class HandleResult:
    """What an operator tells the eddy after handling one tuple."""

    __slots__ = ("outputs", "passed")

    def __init__(self, outputs: Sequence[Tuple] = (), passed: bool = True):
        self.outputs = outputs
        self.passed = passed


_PASS = HandleResult()
_FAIL = HandleResult(passed=False)


class EddyOperator:
    """A unit of work connected to an eddy.

    Unlike a Fjord module, an eddy operator is invoked synchronously by
    its eddy (the eddy *is* the Fjord module); this mirrors the paper's
    picture of operator inputs and outputs all being connected to the
    eddy.
    """

    def __init__(self, name: str):
        self.name = name
        self.bit = 0            # assigned by the owning eddy
        self.seen = 0
        self.passed_count = 0
        # Windowed selectivity estimate (EWMA) so drifting data changes
        # the estimate quickly; used by GreedySelectivityPolicy.
        self._ewma_selectivity = 1.0
        self._ewma_alpha = 0.02

    def applies_to(self, t: Tuple) -> bool:
        """Does this operator need to see ``t`` at all?"""
        raise NotImplementedError

    def must_run_first(self, t: Tuple) -> bool:
        """Routing constraint: True if this operator must handle ``t``
        before any unconstrained operator (SteM builds, so state is
        saved before the tuple goes probing)."""
        return False

    def handle(self, t: Tuple) -> HandleResult:
        raise NotImplementedError

    def observed_selectivity(self) -> float:
        return self._ewma_selectivity

    def cost_estimate(self) -> float:
        """Advertised per-tuple work, in arbitrary but consistent
        units; RankPolicy divides by drop rate."""
        return 1.0

    def handle_batch(self, batch: TupleBatch) -> \
            "TypingTuple[Optional[TupleBatch], Sequence[Tuple]]":
        """Vectorized handling: returns ``(survivors, outputs)`` where
        ``survivors`` is the sub-batch that passed (None or empty when
        everything was rejected) and ``outputs`` are generated tuples
        (join matches) that re-enter routing individually.

        The default loops over :meth:`handle`, so every operator is
        batch-capable (batch=1 per-tuple handling stays the degenerate
        case); filters and SteMs override with real kernels.
        """
        survivors: List[Tuple] = []
        outputs: List[Tuple] = []
        for t in batch.materialize():  # tcqcheck: allow-row-iteration
            result = self.handle(t)
            outputs.extend(result.outputs)
            if result.passed:
                survivors.append(t)
        if len(survivors) == len(batch):
            return batch, outputs
        if not survivors:
            return None, outputs
        return TupleBatch.from_tuples(survivors, schema=batch.schema), outputs

    def _observe(self, passed: bool) -> None:
        self.seen += 1
        if passed:
            self.passed_count += 1
        self._ewma_selectivity += self._ewma_alpha * (
            (1.0 if passed else 0.0) - self._ewma_selectivity)

    def _observe_batch(self, mask: Sequence[bool]) -> None:
        """Batched selectivity bookkeeping, equal to calling
        :meth:`_observe` once per element of ``mask`` in order (list
        masks fold sequentially; array masks use the closed form)."""
        self.seen += len(mask)
        self.passed_count += columnar.mask_count(mask)
        self._ewma_selectivity = columnar.ewma_update(
            self._ewma_selectivity, self._ewma_alpha, mask)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class FilterOperator(EddyOperator):
    """A selection connected to an eddy."""

    def __init__(self, predicate: Predicate, name: str = "", cost: int = 0):
        super().__init__(name or f"filter[{predicate!r}]")
        self.predicate = predicate
        self.cost = cost
        self._needed_sources = predicate.sources()
        self._kernel = None   # compiled lazily on first batch

    def cost_estimate(self) -> float:
        return 1.0 + self.cost

    def applies_to(self, t: Tuple) -> bool:
        # A filter applies once the tuple carries every source the
        # predicate mentions; unqualified predicates apply to any tuple
        # that has the column.
        if self._needed_sources:
            return self._needed_sources <= t.sources
        return all(t.schema.has_column(c) for c in self.predicate.columns())

    def handle(self, t: Tuple) -> HandleResult:
        if self.cost:
            acc = 0
            for i in range(self.cost):
                acc += i
        ok = self.predicate.matches(t)
        self._observe(ok)
        if not ok:
            # The tuple may already live inside a SteM; probes skip dead
            # tuples so no inconsistent matches appear later.
            t.dead = True
        return _PASS if ok else _FAIL

    def handle_batch(self, batch: TupleBatch) -> \
            "TypingTuple[Optional[TupleBatch], Sequence[Tuple]]":
        if self.cost:
            acc = 0
            for i in range(self.cost * len(batch)):
                acc += i
        if self._kernel is None:
            self._kernel = self.predicate.compile()
        mask = self._kernel(batch)
        self._observe_batch(mask)
        passed, failed = batch.partition(mask)
        # Rejected rows may already live inside a SteM (row-backed batch
        # after a build); mark them dead exactly as the per-tuple path.
        failed.mark_dead()
        return (passed if len(passed) else None), ()


class SteMOperator(EddyOperator):
    """A SteM connected to an eddy.

    Home-source base tuples build; everything else probes using the
    subset of the query's join predicates that connect the prober to
    this SteM's source.
    """

    def __init__(self, stem: SteM, join_predicates: Sequence[ColumnComparison],
                 name: str = "", probe_cost: int = 0):
        super().__init__(name or stem.name)
        self.stem = stem
        self.join_predicates = list(join_predicates)
        self.probe_cost = probe_cost
        self._home = stem.source

    def cost_estimate(self) -> float:
        return 1.0 + self.probe_cost

    def applies_to(self, t: Tuple) -> bool:
        if self._home in t.sources:
            return True          # build (or no-op for composites)
        return bool(self._applicable_predicates(t))

    def must_run_first(self, t: Tuple) -> bool:
        # Build before any probing so the state is durable.
        return t.sources == frozenset((self._home,))

    def _applicable_predicates(self, t: Tuple) -> List[ColumnComparison]:
        """Join factors with one side on the prober and the other on
        this SteM's home source."""
        out = []
        for pred in self.join_predicates:
            srcs = pred.sources()
            if self._home in srcs and (srcs - {self._home}) <= t.sources \
                    and len(srcs) > 1:
                out.append(pred)
        return out

    def handle(self, t: Tuple) -> HandleResult:
        if self._home in t.sources:
            if t.sources == frozenset((self._home,)):
                self.stem.build(t)
            self._observe(True)
            return _PASS
        if self.probe_cost:
            acc = 0
            for i in range(self.probe_cost):
                acc += i
        preds = self._applicable_predicates(t)
        matches = self.stem.probe(t, preds)
        self._observe(bool(matches))
        return HandleResult(outputs=matches, passed=True)

    def handle_batch(self, batch: TupleBatch) -> \
            "TypingTuple[Optional[TupleBatch], Sequence[Tuple]]":
        if self._home in batch.sources:
            if batch.sources == frozenset((self._home,)):
                self.stem.build_batch(batch)
            self._observe_batch([True] * len(batch))
            return batch, ()
        if self.probe_cost:
            acc = 0
            for i in range(self.probe_cost * len(batch)):
                acc += i
        preds = self._applicable_predicates(batch.representative())
        matches, hits = self.stem.probe_batch(batch, preds)
        self._observe_batch(hits)
        return batch, matches


class Eddy(Module):
    """The adaptive routing module, packaged as a Fjord module.

    ``output_sources`` is the query footprint: a tuple reaches the eddy
    output only when it spans all of them and every applicable operator
    has handled it.  A selection-only query over stream S has footprint
    {S}; a join over S and T has footprint {S, T}.
    """

    MAX_ROUTING_DEPTH = 10_000

    def __init__(self, operators: Sequence[EddyOperator],
                 output_sources: Iterable[str],
                 policy: Optional[RoutingPolicy] = None,
                 batching: BatchingDirective = PER_TUPLE,
                 arity_in: int = 1, name: str = "",
                 dedupe_output: Optional[bool] = None):
        super().__init__(name=name or "eddy", arity_in=arity_in)
        if not operators:
            raise PlanError("an eddy needs at least one operator")
        if len(operators) > 62:
            raise PlanError("at most 62 operators per eddy (bitmap width)")
        self.operators = list(operators)
        for i, op in enumerate(self.operators):
            op.bit = 1 << i
        self.output_sources = frozenset(output_sources)
        self.policy = policy if policy is not None else RandomPolicy()
        self.batching = batching
        n_stems = sum(1 for op in self.operators
                      if isinstance(op, SteMOperator))
        # Multi-path duplicates can only arise with 3+ SteMs.
        self.dedupe_output = (n_stems >= 3 if dedupe_output is None
                              else dedupe_output)
        self._emitted: Set[frozenset] = set()
        # Batching state: one cached decision per "routing situation"
        # (done bitmap + source set), reused batch_size times.
        self._route_cache: Dict[TypingTuple[int, frozenset], TypingTuple] = {}
        self.routing_decisions = 0
        self.tuples_routed = 0
        self.batches_routed = 0
        self.outputs_emitted = 0
        #: When True (and ``batching.vectorize``), surviving batches are
        #: pushed downstream as single queue items; consumers must be
        #: batch-aware Fjord modules.  Off by default so non-module
        #: consumers (cursors popping raw queues) keep seeing tuples.
        self.emit_batches = False
        # Telemetry is collector-based: the routing loop touches only the
        # plain integers above; the registry pulls them at snapshot time.
        self._telemetry = get_registry()
        self._telemetry_id = f"{self.name}#{next(_EDDY_IDS)}"
        self._telemetry.register_collector(self._publish_telemetry)
        # Routing flight recorder (disabled by default): consulted at
        # every policy.choose call site, one bool test when off.
        self._recorder = introspect.RECORDER
        #: Optional PlanFreezer (see :meth:`enable_freezing`); ``None``
        #: keeps the routing loop free of freeze bookkeeping.
        self.freezer = None

    # -- the routing loop ---------------------------------------------------
    def process(self, item: Tuple, port: int) -> Iterable[Tuple]:
        results: List[Tuple] = []
        self._route_worklist([item], results)
        return results

    def _route_worklist(self, worklist: List[Tuple],
                        results: List[Tuple],
                        fresh_decisions: bool = False) -> None:
        depth = 0
        while worklist:
            depth += 1
            if depth > self.MAX_ROUTING_DEPTH:
                raise ExecutionError(
                    f"{self.name}: routing loop exceeded "
                    f"{self.MAX_ROUTING_DEPTH} steps for one input tuple")
            t = worklist.pop()
            self.tuples_routed += 1
            alive = True
            while alive:
                eligible = self._eligible(t)
                if not eligible:
                    if self._should_emit(t):
                        tr = t.trace
                        if tr is not None:
                            tr.hop("emit", self._telemetry_id)
                        results.append(t)
                    break
                op = self._choose(t, eligible, fresh=fresh_decisions)
                t.mark_done(op.bit)
                tr = t.trace
                if tr is not None:
                    tr.hop("eddy", self._telemetry_id, op.name)
                self.policy.on_route(op)
                result = op.handle(t)
                self.policy.on_return(op, len(result.outputs))
                for out in result.outputs:
                    self._fix_composite_done(out)
                    # The producing operator has by definition handled
                    # its own output (a SteM's home bit is re-set by the
                    # fix-up; sub-eddies rely on this explicitly).
                    out.mark_done(op.bit)
                    worklist.append(out)
                if not result.passed:
                    alive = False

    def process_batch(self, batch: TupleBatch,
                      port: int = 0) -> List:
        """Route a whole batch: the vectorized counterpart of
        :meth:`process`.

        The batch stays uniform (one done bitmap, one source set), so
        eligibility and the routing decision are computed once per batch
        per hop instead of once per tuple; operators handle the batch
        through their kernels.  Join matches diverge per row and re-enter
        the classic per-tuple loop.  Returns a list of emitted items —
        surviving :class:`TupleBatch` objects plus individual composite
        tuples.
        """
        results: List = []
        n = len(batch)
        if not n:
            return results
        fz = self.freezer
        freeze_key = None
        if fz is not None:
            # Footprint-class key; captured before routing mutates the
            # batch's done bitmap.
            freeze_key = (batch.done, batch.sources)
            pipe = fz.frozen.get(freeze_key)
            if pipe is not None:
                self.tuples_routed += n
                self.batches_routed += 1
                pipe.run(self, batch, results)
                fz.after_frozen_batch(freeze_key, n)
                return results
        self.tuples_routed += n
        self.batches_routed += 1
        pending_rows: List[Tuple] = []
        applied: List[str] = []
        completed = False
        current: Optional[TupleBatch] = batch
        depth = 0
        while current is not None and len(current):
            depth += 1
            if depth > self.MAX_ROUTING_DEPTH:
                raise ExecutionError(
                    f"{self.name}: routing loop exceeded "
                    f"{self.MAX_ROUTING_DEPTH} steps for one input batch")
            rep = current.representative()
            eligible = self._eligible(rep)
            if not eligible:
                # Reaching emission eligibility is what makes the route
                # freeze-worthy: a batch that died mid-route observed a
                # truncated operator sequence.
                completed = True
                self._emit_batch(current, results)
                break
            # One fresh policy consultation per batch per hop: the batch
            # itself is the amortization unit, so the ``batch_size``-uses
            # route cache (which would stretch one decision over
            # batch_size whole batches) is deliberately bypassed.
            if len(eligible) == 1:
                op = eligible[0]
            else:
                self.routing_decisions += 1
                op = self.policy.choose(rep, eligible)
                rec = self._recorder
                if rec.enabled:
                    rec.record(self._telemetry_id, self.policy, op,
                               eligible, rows=len(current))
            if current.traces:
                for tr in current.traces:
                    tr.hop("eddy", self._telemetry_id, op.name)
            current.mark_done(op.bit)
            if fz is not None:
                applied.append(op.name)
            self.policy.on_route(op)
            current, outputs = op.handle_batch(current)
            self.policy.on_return(op, len(outputs))
            for out in outputs:
                self._fix_composite_done(out)
                out.mark_done(op.bit)
                pending_rows.append(out)
        if pending_rows:
            # Composite fall-back stays on the batch-path contract:
            # consult the policy fresh per hop instead of dipping into
            # the batch_size-amortized route cache, so these decisions
            # are counted and visible to the flight recorder like every
            # other vectorized-path decision.
            self._route_worklist(pending_rows, results,
                                 fresh_decisions=True)
        if fz is not None and applied:
            fz.observe_route(freeze_key, applied, completed)
        return results

    def _emit_batch(self, batch: TupleBatch, results: List) -> None:
        """Batch-granular emission: the whole surviving batch is one
        result object when no per-row checks are needed."""
        if not self.output_sources <= batch.sources:
            return
        if self.dedupe_output:
            # PSoup dedupe is a per-row membership test by contract.
            for t in batch.materialize():  # tcqcheck: allow-row-iteration
                if self._should_emit(t):
                    tr = t.trace
                    if tr is not None:
                        tr.hop("emit", self._telemetry_id)
                    results.append(t)
            return
        # Row-backed batches only: the aliased Tuple objects carry the
        # authoritative dead flags.
        rows = None
        if batch._rows is not None:  # tcqcheck: allow-row-iteration
            rows = batch.materialize()  # tcqcheck: allow-row-iteration
        if rows is not None and any(r.dead for r in rows):
            # Row-backed batches alias tuples that other paths may have
            # killed (SteM-stored rows); the per-tuple path's
            # _should_emit drops dead tuples, so the batch path must too.
            batch = batch.take([i for i, r in enumerate(rows)
                                if not r.dead])
            if not len(batch):
                return
        self.outputs_emitted += len(batch)
        for tr in batch.traces:
            tr.hop("emit", self._telemetry_id)
        results.append(batch)

    def _fix_composite_done(self, t: Tuple) -> None:
        """Recompute a join match's SteM done-bits.

        A match inherits its parents' *filter* bits (those predicates
        hold on the concatenation), but parent probe-bits must not carry
        over: an {S,T} composite still has to probe SteM_U even though
        both parents did — that was a different logical operation.  SteMs
        whose home source the match already spans are marked done (no
        build, no self-probe); all others are cleared so routing visits
        them.
        """
        for op in self.operators:
            if isinstance(op, SteMOperator):
                if op.stem.source in t.sources:
                    t.done |= op.bit
                else:
                    t.done &= ~op.bit

    def _eligible(self, t: Tuple) -> List[EddyOperator]:
        constrained: List[EddyOperator] = []
        unconstrained: List[EddyOperator] = []
        for op in self.operators:
            if t.done & op.bit:
                continue
            if not op.applies_to(t):
                continue
            if op.must_run_first(t):
                constrained.append(op)
            else:
                unconstrained.append(op)
        return constrained if constrained else unconstrained

    def _choose(self, t: Tuple, eligible: List[EddyOperator],
                fresh: bool = False) -> EddyOperator:
        if len(eligible) == 1:
            return eligible[0]
        if not fresh and (self.batching.batch_size > 1
                          or self.batching.fix_sequence):
            return self._choose_batched(t, eligible)
        self.routing_decisions += 1
        op = self.policy.choose(t, eligible)
        rec = self._recorder
        if rec.enabled:
            rec.record(self._telemetry_id, self.policy, op, eligible)
        return op

    def _choose_batched(self, t: Tuple,
                        eligible: List[EddyOperator]) -> EddyOperator:
        """Amortised routing: reuse a cached decision for tuples in the
        same routing situation, refreshing it every ``batch_size`` uses.

        With ``fix_sequence`` one policy consultation ranks the whole
        eligible set (by asking the policy repeatedly against shrinking
        candidate sets) and the stored order serves the batch.
        """
        key = (t.done, t.sources)
        cached = self._route_cache.get(key)
        if cached is not None:
            choice_by_name, uses_left = cached
            if uses_left > 0:
                chosen = next((op for op in eligible
                               if op.name in choice_by_name), None)
                if chosen is not None:
                    self._route_cache[key] = (choice_by_name, uses_left - 1)
                    return chosen
        self.routing_decisions += 1
        if self.batching.fix_sequence:
            # Rank the full eligible set once.
            remaining = list(eligible)
            order: List[str] = []
            while remaining:
                pick = self.policy.choose(t, remaining)
                order.append(pick.name)
                remaining.remove(pick)
            chosen_names: Set[str] = {order[0]}
            chosen = eligible[[op.name for op in eligible].index(order[0])]
        else:
            chosen = self.policy.choose(t, eligible)
            chosen_names = {chosen.name}
        rec = self._recorder
        if rec.enabled:
            rec.record(self._telemetry_id, self.policy, chosen, eligible)
        self._route_cache[key] = (chosen_names, self.batching.batch_size - 1)
        return chosen

    def _should_emit(self, t: Tuple) -> bool:
        if t.dead or not self.output_sources <= t.sources:
            return False
        if self.dedupe_output:
            key = t.base_id_set()
            if key in self._emitted:
                return False
            self._emitted.add(key)
        self.outputs_emitted += 1
        return True

    # -- vectorized scheduling ----------------------------------------------
    def run_once(self, batch: Optional[int] = None) -> StepResult:
        """With ``batching.vectorize``, drain input into
        :class:`TupleBatch` groups of up to ``batch_size`` rows and route
        whole batches; otherwise defer to the per-item Module loop."""
        if not (self.batching.vectorize and self.batching.batch_size > 1):
            return super().run_once(batch)
        if self.finished:
            return StepResult.DONE
        size = self.batching.batch_size
        budget = batch if batch is not None else max(self.DEFAULT_BATCH, size)
        worked = False
        pending: List[Tuple] = []

        def flush() -> None:
            if pending:
                self._emit_results(
                    self.process_batch(TupleBatch.from_tuples(pending), 0))
                del pending[:]

        for _ in range(budget):
            port, item = self._next_input()
            if item is EMPTY:
                break
            worked = True
            if is_eos(item):
                flush()
                self._eos_seen += 1
                if self._eos_seen >= len(self.inputs):
                    self._finish()
                    return StepResult.DONE
                continue
            if isinstance(item, Punctuation):
                flush()
                self.on_punctuation(item, port)
                continue
            if isinstance(item, TupleBatch):
                flush()
                self.tuples_in += len(item)
                self._emit_results(self.process_batch(item, port))
                continue
            # Group contiguous tuples sharing a schema object and lineage
            # into one columnar batch; any mismatch closes the group.
            if pending and (item.schema is not pending[0].schema
                            or item.done != pending[0].done
                            or item.queries != pending[0].queries):
                flush()
            self.tuples_in += 1
            pending.append(item)
            if len(pending) >= size:
                flush()
        flush()
        return StepResult.BUSY if worked else StepResult.IDLE

    def _emit_results(self, results: List) -> None:
        for item in results:
            if isinstance(item, TupleBatch) and not self.emit_batches:
                # Egress contract: non-batch consumers expect tuples.
                for t in item.materialize():  # tcqcheck: allow-row-iteration
                    self.emit(t)
            else:
                self.emit(item)

    # -- punctuation / windows ----------------------------------------------
    def on_punctuation(self, punctuation: Punctuation, port: int) -> None:
        if punctuation.kind == Punctuation.WINDOW_BOUNDARY:
            self._emitted.clear()
        self.emit(punctuation)

    # -- adaptivity hooks ----------------------------------------------------
    def selectivity_sample(self) -> Dict[str, float]:
        """Per-operator windowed selectivities — the §4.3 drift signal
        consumed by the AdaptivityController and the PlanFreezer."""
        return {op.name: op.observed_selectivity()
                for op in self.operators}

    def apply_quantum(self, batch_size: int) -> None:
        """Adopt a controller-chosen batch size, preserving the other
        :class:`BatchingDirective` knobs, and drop cached routing
        decisions sized for the old batch."""
        self.batching = BatchingDirective(
            batch_size, fix_sequence=self.batching.fix_sequence,
            vectorize=self.batching.vectorize)
        self._route_cache.clear()

    def enable_freezing(self, **kwargs):
        """Attach a :class:`~repro.core.freeze.PlanFreezer` (§4.3
        "adapting adaptivity": stop paying per-hop routing overhead once
        a footprint class's route has provably settled).

        Keyword arguments are forwarded to the freezer constructor
        (``stable_routes``, ``drift_threshold``, ``check_every``).
        Idempotent only in the sense that calling it again replaces the
        freezer (and thereby thaws everything)."""
        # Imported here, not at module top: freeze.py imports operator
        # classes from this module.
        from repro.core.freeze import PlanFreezer
        self.freezer = PlanFreezer(self, **kwargs)
        return self.freezer

    def disable_freezing(self) -> None:
        """Drop the freezer; every class returns to adaptive routing."""
        if self.freezer is not None:
            self.freezer.thaw_all(reason="freezing disabled")
            self.freezer = None

    def evict_stems_before(self, timestamp: int) -> int:
        """Window expiry across every connected SteM."""
        evicted = 0
        for op in self.operators:
            if isinstance(op, SteMOperator):
                evicted += op.stem.evict_before(timestamp)
        return evicted

    # -- telemetry ----------------------------------------------------------
    def _publish_telemetry(self) -> None:
        reg = self._telemetry
        eddy = self._telemetry_id
        reg.counter("tcq_eddy_tuples_routed_total",
                    "Tuples entering the routing loop", ("eddy",),
                    collected=True).labels(eddy).set_total(
            self.tuples_routed)
        reg.counter("tcq_eddy_routing_decisions_total",
                    "Policy consultations", ("eddy",),
                    collected=True).labels(eddy).set_total(
            self.routing_decisions)
        reg.counter("tcq_eddy_batches_routed_total",
                    "TupleBatches entering the vectorized routing loop",
                    ("eddy",), collected=True).labels(eddy).set_total(
            self.batches_routed)
        reg.counter("tcq_eddy_outputs_total",
                    "Tuples emitted from the eddy", ("eddy",),
                    collected=True).labels(eddy).set_total(
            self.outputs_emitted)
        seen = reg.counter("tcq_eddy_operator_seen_total",
                           "Tuples handled per connected operator",
                           ("eddy", "op"), collected=True)
        sel = reg.gauge("tcq_eddy_operator_selectivity",
                        "EWMA observed selectivity per operator",
                        ("eddy", "op"), collected=True)
        for op in self.operators:
            seen.labels(eddy, op.name).set_total(op.seen)
            sel.labels(eddy, op.name).set(op.observed_selectivity())

    # -- introspection ------------------------------------------------------
    def operator(self, name: str) -> EddyOperator:
        for op in self.operators:
            if op.name == name:
                return op
        raise PlanError(f"{self.name}: no operator named {name!r}")

    def stats(self) -> Dict[str, object]:
        return {
            "tuples_routed": self.tuples_routed,
            "batches_routed": self.batches_routed,
            "routing_decisions": self.routing_decisions,
            "outputs": self.outputs_emitted,
            "policy": self.policy.describe(),
            "operators": {
                op.name: {
                    "seen": op.seen,
                    "selectivity": op.observed_selectivity(),
                } for op in self.operators
            },
        }
