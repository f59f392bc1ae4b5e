"""The compiled scheduling kernel: flat-array candidate evaluation.

This module is the execution engine behind ``SchedulerOptions(compiled
=True)``.  It consumes the dense id tables of
:class:`~repro.core.compile.CompiledProblem` and rewrites the FTBAR
inner loop — the per-step ready-set sweep, the per-candidate
``(operation, processor)`` trial plan, the append-mode link reservation
and the pressure/σ computation — as tight passes over preallocated
lists with reused scratch buffers, instead of the per-pair
:class:`~repro.core.placement.PlacementPlan` object graphs of the
reference engine.  The HBP baseline's ordered-pair cost search runs on
the same kernel (:meth:`SchedulingKernel.pair_cost`), keeping the E6
runtime comparison apples-to-apples.

Dirty-set plan cache
--------------------
The kernel avoids the naive O(steps x candidates x processors)
replanning of macro-step À by caching every trial plan
(:class:`KernelPlanCache`) and recomputing only the ones a placement
could have changed.  Its correctness rests on two invariants of the
paper's append-only list scheduling:

1. **Ready-set maintenance.**  An operation becomes a candidate exactly
   when its last unscheduled predecessor (or, for a pinned memory half,
   its anchor half) is placed.  Indegree counters decremented on each
   placement (:class:`CompiledReadySet`) therefore reproduce the full
   rescan, including its sorted candidate order (tie-breaks are
   order-sensitive).

2. **Dirty-set rule.**  A cached plan for ``(o, p)`` reads only: the
   timeline of ``p`` (``processor_ready``, co-located predecessor
   replicas), the availabilities of the links it reserved while routing
   feeds, and the replica sets of ``o``'s predecessors.  Committing a
   macro-step mutates only: the timelines of the processors that
   received replicas (the selected operation's ``Npf + 1`` hosts, which
   also host every LIP duplicate), the links its comms landed on, and
   the replica sets of the operations that gained replicas (the selected
   operation and any duplicated LIP ancestors).  Hence a cached plan
   whose dependency sets are disjoint from the step's dirty set would be
   recomputed *identically* — serving it from cache is exact, not
   approximate.

Link dependencies are thresholds, not sets: a trial comm planned to
start at ``s`` on link ``l`` replans identically while ``l``'s
availability stays at or below ``s``.  Entries whose threshold link
grew past it are flagged suspect and either dropped or *repaired* in
place by replaying the recorded reservation chains, when the plan is
repairable (every transfer single-hop on a unique direct link).
Rollbacks inside ``Minimize_start_time`` cannot poison the cache: the
dirty set is read off the *surviving* placement buffers, and a rolled
back trial restores the exact pre-trial mirrors.

Bit-identity contract
---------------------
Every float expression mirrors the reference engine
(:class:`~repro.core.placement.PlacementPlanner`) *textually*, not just
mathematically: the link reservation advances its free pointer by
re-deriving the duration (``start + (end - start)``, see
``LinkState.reserve``), the worst-case arrival is the ``(npf + 1)``-th
of a sorted copy, ties break on ids — which equal name order because
:class:`CompiledProblem` interns ids in sorted-name order.  Schedules,
observer streams and content hashes are bit-identical to the reference
engine, and the ``pressure_evaluations`` / ``cache_hits`` counters are
pinned — enforced by the goldens and by the randomized corpus of
``tests/test_compiled_kernel.py``.

Scratch-buffer reuse
--------------------
Trial link reservations use one pair of flat arrays (``free`` value +
``stamp`` epoch) for the whole run: bumping the epoch invalidates every
stale slot in O(1), so a trial plan costs zero allocation for its
overlay.  ``buffer_reuses`` counts how many trial plans were served by
the reused buffers (recorded by ``benchmarks/bench_runtime.py``).

Replay pools
------------
Most cached entries qualify for the *replay pools*: their worst-case
start is a closed form over the current link availabilities (chains at
most two deep, at most two arrivals per feed), so one batched numpy
pass per macro-step recomputes all of them at once — the vectorised
equivalent of the scalar per-entry threshold repairs, with identical
floats.  Only entries outside that shape (deep chains,
parallel-link choices, multi-hop or ``npl`` routes) keep the scalar
threshold/suspect/repair machinery.

Deferred materialization
------------------------
Nothing reads the :class:`~repro.schedule.schedule.Schedule` during a
compiled run — resource availabilities, replica sets and the makespan
live in flat kernel mirrors — so placements are buffered (rollbacks
inside the duplication procedure just truncate the buffers) and only
the *surviving* placements are written into the schedule at the end,
through the exact calls the reference engine's ``commit_plan`` makes.
"""

from __future__ import annotations

import importlib.util
import math
import time
from typing import Any, Iterable

from repro.core.compile import CompiledProblem
from repro.core.minimize import DuplicationStats
from repro.core.parallel import run_sharded
from repro.core.symmetry import orbit_representatives
from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.schedule.schedule import Schedule

_INF = math.inf
#: The vectorised sweep's numpy, imported by :func:`_numpy` when the
#: first kernel passes the vector gate; ``None`` when numpy is not
#: installed, and the kernel then runs its pure-Python loops (results
#: identical).  Setting ``_np = None`` forces the scalar sweep.
_UNLOADED: Any = object()
_np: Any = _UNLOADED
#: Sigma matrices smaller than this stay on one thread: the sharding
#: dispatch costs more than the partition it would split.
_PARALLEL_MIN_ELEMS = 4096
#: Problems with fewer than this many (operation, processor) cells run
#: the scalar sweep: per-sweep numpy dispatch overhead dominates small
#: candidate sets (the measured crossover on 4-processor problems sits
#: around N≈300).  Both sweeps are bit-identical, so the gate is purely
#: a speed choice.
_VECTOR_MIN_CELLS = 1280
#: Improvement threshold of the duplication procedure (same constant as
#: :mod:`repro.core.minimize` — step Ð keeps a duplication only when
#: ``S_worst`` strictly improves beyond it).
_EPSILON = 1e-9

#: Cached marker for a forbidden pair (``Exe = inf``): forbidden pairs
#: are cached too, so probing one again counts as a hit.
_FORBIDDEN = (None,)

#: Shared empty threshold list for plans that record no chains.
_NO_THRESHOLDS: list = []


#: One predecessor feed of a kernel plan, as a plain tuple:
#: ``(pred_id, local_end | None, arrivals | None, firsts | None)``.
#: Plain tuples keep the trial-plan hot path allocation-light; the
#: reference engine's :class:`~repro.core.placement.PredecessorFeed`
#: remains the readable counterpart.
_FEED_PRED = 0
_FEED_LOCAL_END = 1
_FEED_ARRIVALS = 2
_FEED_FIRSTS = 3

#: One planned hop, as a plain tuple mirroring
#: :class:`~repro.core.placement.PlannedComm`:
#: ``(source, target, source_replica, link, start, end,
#:    source_processor, target_processor, hop_index, route, link_id)``
#: — ``link_id`` rides along so the kernel's commit can update its
#: link-availability mirror without a name lookup.


class KernelPlan:
    """Flat trial plan of the compiled kernel.

    ``operation`` / ``processor`` are names (they feed the schedule's
    placement API), ``op`` / ``proc`` the dense ids; ``earliest`` /
    ``worst`` are the feed aggregates the reference plan computes lazily;
    ``comms`` is the flat hop-tuple list a commit replays (in the exact
    order ``commit_plan`` would place them).
    """

    __slots__ = (
        "operation", "processor", "op", "proc", "duration",
        "processor_ready", "feeds", "comms", "earliest", "worst",
        "feed_worsts", "thresholds", "chains", "repairable",
        "pool_rows", "pool_feeds", "has_choice",
    )

    @property
    def s_best(self) -> float:
        """Earliest start (first complete input set — paper's S_best)."""
        return max(self.processor_ready, self.earliest)

    @property
    def s_worst(self) -> float:
        """Earliest start in the worst failure case (paper's S_worst)."""
        return max(self.processor_ready, self.worst)


class KernelPlanCache:
    """Dependency-tracked cache over dense integer ids (compiled engine).

    Keys are flat candidate-pair indices (``operation * P + processor``
    for FTBAR, ``task * P² + p1 * P + p2`` for HBP); values are opaque
    to the cache (the kernel stores mutable entry lists it updates in
    place on threshold repairs).  Dependency declarations — the
    candidate operation, the operations whose replica sets the plan
    enumerated, the links whose availability thresholds guard it — are
    ids too, so :meth:`invalidate_replicated` and :meth:`suspects_for`
    are set unions over small int sets.

    Callers read ``entries`` directly on the hot path and keep the
    ``hits`` / ``misses`` counters themselves; ``put`` and ``discard``
    exist to keep the reverse indexes consistent.
    """

    __slots__ = (
        "entries", "_meta", "_by_dependency", "_by_threshold_link",
        "hits", "misses",
    )

    def __init__(self) -> None:
        self.entries: dict[int, Any] = {}
        #: key -> (dependency op ids, threshold link ids)
        self._meta: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        self._by_dependency: dict[int, set[int]] = {}
        self._by_threshold_link: dict[int, set[int]] = {}
        self.hits = 0
        self.misses = 0

    def put(
        self,
        key: int,
        value: Any,
        operations: tuple[int, ...] = (),
        threshold_links: tuple[int, ...] = (),
    ) -> None:
        """Store ``value`` under ``key`` with its id-level dependencies.

        There is no candidate reverse index: a candidate's keys are a
        computable id range (``op * P + p`` / ``task * P² + …``), so
        dropping a placed candidate probes that range directly.
        """
        if key in self.entries:
            self.discard(key)
        self.entries[key] = value
        self._meta[key] = (operations, threshold_links)
        for operation in operations:
            self._by_dependency.setdefault(operation, set()).add(key)
        for link in threshold_links:
            self._by_threshold_link.setdefault(link, set()).add(key)

    def discard(self, key: int) -> None:
        """Drop one entry (used when a lookup finds it stale)."""
        if self.entries.pop(key, None) is None:
            return
        operations, threshold_links = self._meta.pop(key)
        for operation in operations:
            dependents = self._by_dependency.get(operation)
            if dependents is not None:
                dependents.discard(key)
        for link in threshold_links:
            watchers = self._by_threshold_link.get(link)
            if watchers is not None:
                watchers.discard(key)

    def invalidate_replicated(self, operations: "Iterable[int]") -> set[int]:
        """Drop every entry depending on an operation that gained replicas.

        Returns the dropped keys so the kernel can clear its parallel
        sweep arrays.
        """
        dead: set[int] = set()
        for operation in operations:
            dependents = self._by_dependency.get(operation)
            if dependents:
                dead |= dependents
        for key in dead:
            self.discard(key)
        return dead

    def suspects_for(self, links: "Iterable[int]") -> set[int]:
        """Keys whose thresholds watch one of the just-touched links."""
        suspects: set[int] = set()
        for link in links:
            watchers = self._by_threshold_link.get(link)
            if watchers:
                suspects |= watchers
        return suspects

    def drop_range(self, start: int, stop: int) -> list[int]:
        """Forget every entry in one candidate's key range (it placed).

        Returns the dropped keys (see :meth:`invalidate_replicated`).
        """
        entries = self.entries
        dropped = [key for key in range(start, stop) if key in entries]
        for key in dropped:
            self.discard(key)
        return dropped


class CompiledReadySet:
    """O(1)-amortised maintenance of the list-scheduling candidate set.

    Each unscheduled operation carries a counter of unmet requirements:
    its unscheduled predecessors plus, for pinned memory halves, the
    anchor operation whose replicas define the allowed processors; it
    becomes a candidate when the counter reaches zero.
    ``candidates()`` returns sorted ids, which is exactly the sorted
    name order the reference engine's rescan produces (ids are interned
    in sorted-name order), without re-sorting strings every macro-step.
    """

    __slots__ = ("_succs", "_pin_dependents", "_waiting", "_ready")

    def __init__(self, compiled: CompiledProblem) -> None:
        self._succs = compiled.succs
        self._pin_dependents: dict[int, list[int]] = {}
        self._waiting: dict[int, int] = {}
        self._ready: set[int] = set()
        for operation in range(compiled.n_ops):
            count = len(compiled.preds[operation])
            anchor = compiled.pins.get(operation)
            if anchor is not None and anchor not in compiled.preds[operation]:
                count += 1
                self._pin_dependents.setdefault(anchor, []).append(operation)
            if count == 0:
                self._ready.add(operation)
            else:
                self._waiting[operation] = count

    def candidates(self) -> list[int]:
        """The current candidate ids, sorted (= sorted-name order)."""
        return sorted(self._ready)

    def mark_scheduled(self, operation: int) -> None:
        """Retire a scheduled operation and release its dependents."""
        self._ready.discard(operation)
        for successor in self._succs[operation]:
            self._release(successor)
        for dependent in self._pin_dependents.get(operation, ()):
            self._release(dependent)

    def _release(self, operation: int) -> None:
        remaining = self._waiting[operation] - 1
        if remaining == 0:
            del self._waiting[operation]
            self._ready.add(operation)
        else:
            self._waiting[operation] = remaining


def _numpy() -> Any:
    """numpy, imported on first call; ``None`` when it is not installed."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy present in the dev image
            numpy = None
        _np = numpy
    return _np


def _numpy_available() -> bool:
    """Whether :func:`_numpy` would return numpy, without importing it."""
    if _np is _UNLOADED:
        return importlib.util.find_spec("numpy") is not None
    return _np is not None


class _RowPool:
    """Append-only column store for the replay pools.

    Columns carry the static operands of the replay passes (float
    columns: ready instants and durations; int columns: link ids and
    scatter positions).  Appends go to cheap Python staging lists;
    :meth:`flush` batch-copies the staged tail into the numpy columns
    once per sweep.  Rows, slots and arrival positions are never
    reused, so rows of discarded entries need no tombstones — they keep
    computing into positions nothing reads.  Total rows are bounded by
    the run's miss count.
    """

    __slots__ = ("float_cols", "int_cols", "float_stage", "int_stage", "count")

    def __init__(self, float_width: int, int_width: int) -> None:
        self.float_cols = [_np.zeros(0) for _ in range(float_width)]
        self.int_cols = [
            _np.zeros(0, dtype=_np.int64) for _ in range(int_width)
        ]
        self.float_stage: list[list] = [[] for _ in range(float_width)]
        self.int_stage: list[list] = [[] for _ in range(int_width)]
        self.count = 0

    def append(self, float_row: tuple, int_row: tuple) -> int:
        for column, value in zip(self.float_stage, float_row):
            column.append(value)
        for column, value in zip(self.int_stage, int_row):
            column.append(value)
        index = self.count
        self.count = index + 1
        return index

    def flush(self) -> None:
        """Copy the staged tail into the numpy columns."""
        stage = self.int_stage[0] if self.int_stage else self.float_stage[0]
        staged = len(stage)
        if not staged:
            return
        count = self.count
        base = count - staged
        reference = self.int_cols[0] if self.int_cols else self.float_cols[0]
        if count > len(reference):
            capacity = max(64, 2 * count)
            for cols, dtype in (
                (self.float_cols, None), (self.int_cols, _np.int64)
            ):
                for index, column in enumerate(cols):
                    grown = _np.zeros(capacity, dtype=dtype or column.dtype)
                    grown[:base] = column[:base]
                    cols[index] = grown
        for cols, stages in (
            (self.float_cols, self.float_stage),
            (self.int_cols, self.int_stage),
        ):
            for index, column in enumerate(cols):
                column[base:count] = stages[index]
                stages[index] = []


class SchedulingKernel:
    """Per-run state of the compiled engine.

    One kernel serves one schedule under construction: it owns the
    availability snapshots, the scratch reservation buffers, the
    id-indexed plan cache and the duplication statistics of the
    placement path.
    """

    def __init__(
        self,
        compiled: CompiledProblem,
        schedule: Schedule,
        processor_aware: bool = False,
        duplication: bool = True,
        vector: bool = True,
        symmetry: bool = True,
        workers: int = 0,
    ) -> None:
        self._c = compiled
        self._schedule = schedule
        self._aware = processor_aware
        self._duplication = duplication
        self._P = compiled.n_procs
        self._all_procs = tuple(range(compiled.n_procs))
        self._workers = workers if workers and _numpy_available() else 0
        # Macro-step trial batching is exact only when every overlay
        # advance matches the committed advance: on all-direct
        # interconnects (every ordered pair has a direct link and
        # npl == 0) both use the re-derived ``start + (end - start)``.
        # Multi-hop and npl routes advance the overlay by the previewed
        # end instead, so those topologies keep the sequential path.
        P = compiled.n_procs
        self._batch_ok = compiled.npl == 0 and all(
            compiled.direct[a * P + b]
            for a in range(P) for b in range(P) if a != b
        )
        # Symmetry pruning: the verified automorphism generators of the
        # problem (None when there are none).  A generator stays usable
        # while the partial schedule is invariant under it — checked per
        # sweep in :meth:`_orbit_reps` — and the drop is monotone.
        group = compiled.symmetry_group() if symmetry else None
        #: ``{phase: [total_s, count]}`` accumulator for sub-step phases
        #: too hot to span individually; ``None`` (the default) disables
        #: the timing reads entirely.  The scheduler turns it on when
        #: tracing is active and emits the totals as aggregate spans.
        self.phase_times: dict[str, list] | None = None
        self._sym_alive = list(group.generators) if group is not None else []
        self._sym_mark = 0
        self._sym_reps: list[int] | None = None
        self.symmetry_pruned = 0
        # Resource mirrors.  Every placement of a kernel run flows
        # through :meth:`_commit` (and rollbacks through
        # :meth:`_undo_to`), so availability, replica presence and
        # replica order are maintained as flat arrays instead of being
        # re-read from the schedule's name-keyed indexes on every trial
        # plan.  The schedule must be empty at kernel construction.
        self._proc_avail = [0.0] * compiled.n_procs
        self._link_avail = [0.0] * compiled.n_links
        #: End of the replica of op ``o`` on proc ``p`` (0.0 = absent;
        #: real ends are strictly positive).
        self._rep_end = [0.0] * (compiled.n_ops * compiled.n_procs)
        #: Per-op replica list in placement order: ``(proc_id, end)``.
        self._rep_list: list[list[tuple[int, float]]] = [
            [] for _ in range(compiled.n_ops)
        ]
        #: Placement buffers: commits land here (LIFO undo by
        #: truncation) and only the survivors are materialized into the
        #: schedule when the run finishes.
        self._op_buffer: list[tuple] = []
        self._comm_buffer: list[tuple] = []
        self._makespan = 0.0
        # Scratch reservation overlay: value + epoch stamp per link.
        # Bumping the epoch resets the whole overlay in O(1).
        self._link_free = [0.0] * compiled.n_links
        self._link_stamp = [0] * compiled.n_links
        self._epoch = 0
        self._cache = KernelPlanCache()
        self._suspects: set[int] = set()
        self._step_mark = 0
        self._step_comm_mark = 0
        self.evaluations = 0
        self.buffer_reuses = 0
        self.dup_stats = DuplicationStats()
        # Vectorised sweep state: parallel arrays mirroring the cache
        # entries' (state, worst, static, duration) so a whole selection
        # sweep is one gather + maximum + add.  Pinned memory halves
        # have per-candidate pools, which the vector sweep does not
        # model — such problems use the scalar sweep.  HBP kernels pass
        # ``vector=False``: their pair keys index a P²-per-task space
        # the sweep arrays do not cover.  Below ``_VECTOR_MIN_CELLS``
        # the per-sweep numpy dispatch overhead outweighs the batched
        # arithmetic and the scalar sweep is faster — unless a worker
        # pool was requested, which only the vector sweep can shard.
        self._vector = (
            vector and not compiled.pins
            and (
                compiled.n_ops * compiled.n_procs >= _VECTOR_MIN_CELLS
                or self._workers >= 2
            )
            and _numpy() is not None
        )
        if self._vector:
            size = compiled.n_ops * compiled.n_procs
            #: 0 = absent, 1 = forbidden (Exe = inf), 2 = cached plan.
            self._arr_state = _np.zeros(size, dtype=_np.int8)
            self._arr_worst = _np.zeros(size)
            self._arr_static = _np.zeros(size)
            self._arr_duration = _np.zeros(size)
            self._pool_offsets = _np.arange(compiled.n_procs, dtype=_np.int64)
            # Replay pools: entries whose reservation chains are at
            # most two deep and whose remote feeds carry at most two
            # arrivals have a closed-form worst over the *current* link
            # availabilities, recomputed wholesale by one batched pass
            # per sweep (`_pool_pass`).  Pooled entries register no
            # thresholds and are never repaired; the recomputation IS
            # the repair (same floats).  Everything is append-only —
            # rows, arrival positions and slots of dropped entries are
            # simply never read again — and bounded by the run's miss
            # count.
            self._feed_width = max(
                [len(preds) for preds in compiled.preds] or [1]
            ) or 1
            self._slot_of: dict[int, int] = {}
            self._slot_count = 0
            self._slot_key = _np.zeros(0, dtype=_np.int64)
            self._slot_alive = _np.zeros(0, dtype=bool)
            self._slot_worst = _np.zeros((0, self._feed_width))
            #: Arrival value store, rewritten by the level passes.
            self._arrivals = _np.zeros(0)
            self._arrival_count = 0
            #: Reservation rows, leveled by replay dependency depth: a
            #: row's free pointer may queue behind an earlier row on the
            #: same link of the same plan (``free_dep``) and its ready
            #: instant behind the previous hop of the same transfer
            #: (``ready_dep``); level = 1 + max(dep levels), so one pass
            #: per level replays every chain of any depth.
            #: Columns: (ready, dur | link, free_dep, ready_dep, gid, mode);
            #: mode 1 advances the link by the re-derived duration
            #: (direct branch), mode 0 by the previewed end (routes).
            self._row_levels: list[_RowPool] = []
            self._row_level_of: list[int] = []
            self._row_count = 0
            self._row_start = _np.zeros(0)
            self._row_end = _np.zeros(0)
            self._row_free = _np.zeros(0)
            #: Arrival reductions: one-route copy rows (gid, apos) and,
            #: per route count, the max over route ends (npl plans).
            self._acopy = _RowPool(0, 2)
            self._aroute: dict[int, _RowPool] = {}
            #: Feed reductions, per arity: the ``npf``-capped k-th
            #: smallest of the feed's arrivals into its worst slot.
            self._afeeds: dict[int, _RowPool] = {}
            #: Volatile pooled entries (multi-hop / npl routes, no
            #: parallel-link choice): the pool pass recomputes them
            #: every sweep, but their staleness must still be accounted
            #: as the scalar discard + miss — key -> [(threshold item,
            #: first row gid)] for the refresh.
            self._volatile: dict[int, list[tuple[list, int]]] = {}

    @property
    def hits(self) -> int:
        """Plan-cache hits, for ``FTBARStats``."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Plan-cache misses."""
        return self._cache.misses

    # ------------------------------------------------------------------
    # mirrored commits and rollbacks
    # ------------------------------------------------------------------
    def _commit(self, plan: KernelPlan, duplicated: bool = False) -> None:
        """Record a placement in the buffers and the kernel mirrors.

        Nothing reads the schedule during a compiled run (the mirrors
        answer every query), so placements are buffered and only the
        survivors are materialized into the schedule at the end —
        rolled-back duplication trials never touch it.  The mirrors
        mirror the schedule's arithmetic exactly: the operation end is
        ``start + duration``, a link's availability is the *committed*
        comm's end ``start + (end - start)`` (``place_comm`` re-derives
        the duration), and the makespan is the running max of event
        ends.
        """
        o = plan.op
        p = plan.proc
        start = plan.s_best
        duration = plan.duration
        end = start + duration
        link_avail = self._link_avail
        comm_buffer = self._comm_buffer
        comm_mark = len(comm_buffer)
        makespan = self._makespan
        prev_makespan = makespan
        if end > makespan:
            makespan = end
        for comm in plan.comms:
            link = comm[10]
            comm_buffer.append((comm, link_avail[link]))
            comm_start = comm[4]
            committed_end = comm_start + (comm[5] - comm_start)
            link_avail[link] = committed_end
            if committed_end > makespan:
                makespan = committed_end
        self._makespan = makespan
        proc_avail = self._proc_avail
        key = o * self._P + p
        self._op_buffer.append((
            plan.operation, plan.processor, start, duration, duplicated,
            key, o, p, proc_avail[p], prev_makespan, comm_mark,
        ))
        proc_avail[p] = end
        self._rep_end[key] = end
        self._rep_list[o].append((p, end))

    def _mark(self) -> int:
        """A rollback point over the placement buffers (LIFO only)."""
        return len(self._op_buffer)

    def _undo_to(self, mark: int) -> None:
        """Unwind placements made since ``mark``, newest first."""
        ops = self._op_buffer
        comm_buffer = self._comm_buffer
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        while len(ops) > mark:
            record = ops.pop()
            key, o, p = record[5], record[6], record[7]
            proc_avail[p] = record[8]
            self._makespan = record[9]
            self._rep_end[key] = 0.0
            self._rep_list[o].pop()
            comm_mark = record[10]
            for comm, previous in reversed(comm_buffer[comm_mark:]):
                link_avail[comm[10]] = previous
            del comm_buffer[comm_mark:]

    @property
    def makespan(self) -> float:
        """Completion date of the buffered schedule (0 when empty)."""
        return self._makespan

    def materialize(self) -> Schedule:
        """Write the surviving placements into the real schedule.

        Replays the buffers in commit order, so replica indexes, event
        objects, timelines and indexes land exactly as the reference
        engine's immediate commits would have produced them.
        """
        schedule = self._schedule
        op_buffer = self._op_buffer
        comm_buffer = self._comm_buffer
        total_comms = len(comm_buffer)
        for index, record in enumerate(op_buffer):
            event = schedule.place_operation(
                record[0], record[1], record[2], record[3],
                duplicated=record[4],
            )
            target_replica = event.replica
            comm_end = (
                op_buffer[index + 1][10]
                if index + 1 < len(op_buffer) else total_comms
            )
            for position in range(record[10], comm_end):
                comm = comm_buffer[position][0]
                schedule.place_comm(
                    source=comm[0],
                    target=comm[1],
                    source_replica=comm[2],
                    target_replica=target_replica,
                    link=comm[3],
                    start=comm[4],
                    duration=comm[5] - comm[4],
                    source_processor=comm[6],
                    target_processor=comm[7],
                    hop_index=comm[8],
                    route=comm[9],
                )
        return schedule

    # ------------------------------------------------------------------
    # trial planning (the flat counterpart of PlacementPlanner.plan)
    # ------------------------------------------------------------------
    def _plan(
        self,
        o: int,
        p: int,
        record_comms: bool,
        record_chains: bool,
        shared_overlay: bool = False,
    ) -> KernelPlan | None:
        """Plan the next replica of ``o`` on ``p`` against the mirrors.

        ``record_comms`` builds the hop records a commit needs;
        ``record_chains`` the threshold / replay-chain records a cache
        entry needs.  ``shared_overlay`` keeps the previous plan's
        trial reservations visible (the HBP pair cost plans both
        replicas against one overlay).
        """
        c = self._c
        n_procs = self._P
        duration = c.exe[o * n_procs + p]
        if duration == _INF:
            return None
        rep_end = self._rep_end
        if rep_end[o * n_procs + p] != 0.0:
            return None
        op_name = c.op_names[o]
        proc_name = c.proc_names[p]
        if not shared_overlay:
            self._epoch += 1
            if self._epoch > 1:
                self.buffer_reuses += 1
        epoch = self._epoch
        stamp = self._link_stamp
        free = self._link_free
        base = self._link_avail
        npf = c.npf
        npl = c.npl
        n_ops = c.n_ops
        op_names = c.op_names
        proc_names = c.proc_names
        rep_list = self._rep_list
        feeds: list[tuple] = []
        comms: list[tuple] | None = [] if record_comms else None
        feed_worsts: list[float] = []
        worst = -_INF
        earliest = -_INF
        if record_chains:
            thresholds: list[list] = []
            thr_seen: set[int] = set()
            chains: dict[int, list[tuple[int, int, float, float]]] = {}
            # Replay-pool recording (vector kernels only): every
            # reservation as (link, ready, ready_dep, dur, mode) plus
            # the per-feed arrival structure the reductions need.
            pool_rows: list[tuple] | None = [] if self._vector else None
            pool_feeds: list | None = [] if self._vector else None
        else:
            thresholds = _NO_THRESHOLDS
            chains = None
            pool_rows = None
            pool_feeds = None
        has_choice = False
        repairable = not npl
        feed_index = 0
        for q in c.preds[o]:
            local_end = rep_end[q * n_procs + p]
            if local_end != 0.0:
                # §4.1 first case: co-located predecessor, zero-cost
                # intra-processor comm, remote replicas do not send.
                feeds.append((q, local_end, None, None))
                feed_worsts.append(local_end)
                if local_end > worst:
                    worst = local_end
                if local_end > earliest:
                    earliest = local_end
                if pool_feeds is not None:
                    pool_feeds.append(None)
                feed_index += 1
                continue
            row = c.comm_rows[q * n_ops + o]
            replicas = rep_list[q]
            arrivals: list[float] = []
            firsts: list[float] | None = [] if npl else None
            feed_desc: list | None = [] if pool_feeds is not None else None
            if npl:
                sender_hosts = frozenset(
                    proc_names[host] for host, _ in replicas
                )
            arrival_index = 0
            for replica_index, (rp, rend) in enumerate(replicas):
                if npl:
                    rproc = proc_names[rp]
                    routes = c.disjoint_routes(
                        rproc, proc_name, sender_hosts - {rproc}
                    )
                    first_copy = _INF
                    guaranteed = -_INF
                    route_ends: list[int] | None = (
                        [] if feed_desc is not None else None
                    )
                    for route_index, hops in enumerate(routes):
                        ready = rend
                        prev_row = -1
                        for hop_index, (origin, link, relay) in enumerate(hops):
                            current = free[link] if stamp[link] == epoch else base[link]
                            start = ready if ready > current else current
                            end = start + row[link]
                            stamp[link] = epoch
                            free[link] = end
                            if record_chains and link not in thr_seen:
                                thr_seen.add(link)
                                thresholds.append([link, start])
                            if pool_rows is not None:
                                dep = prev_row
                                prev_row = len(pool_rows)
                                pool_rows.append(
                                    (link, rend, dep, row[link], 0)
                                )
                            if record_comms:
                                comms.append((
                                    op_names[q], op_name, replica_index,
                                    c.link_names[link], start, end,
                                    origin, relay, hop_index, route_index,
                                    link,
                                ))
                            ready = end
                        if route_ends is not None:
                            route_ends.append(prev_row)
                        if ready < first_copy:
                            first_copy = ready
                        if ready > guaranteed:
                            guaranteed = ready
                    if feed_desc is not None:
                        feed_desc.append(tuple(route_ends))
                    arrivals.append(guaranteed)
                    firsts.append(first_copy)
                    arrival_index += 1
                    continue
                direct = c.direct[rp * n_procs + p]
                if direct:
                    if len(direct) == 1:
                        # The common case (p2p and bus topologies): one
                        # direct link, no min-end choice to make.
                        best_link = direct[0]
                        current = (
                            free[best_link] if stamp[best_link] == epoch
                            else base[best_link]
                        )
                        best_start = rend if rend > current else current
                        best_end = best_start + row[best_link]
                    else:
                        repairable = False
                        has_choice = True
                        best_end = _INF
                        best_start = 0.0
                        best_link = -1
                        for link in direct:
                            current = free[link] if stamp[link] == epoch else base[link]
                            start = rend if rend > current else current
                            end = start + row[link]
                            if end < best_end:
                                best_end = end
                                best_start = start
                                best_link = link
                    # Mirror LinkState.reserve: the free pointer advances
                    # by the re-derived duration, not the previewed end.
                    stamp[best_link] = epoch
                    free[best_link] = best_start + (best_end - best_start)
                    if record_chains:
                        if best_link not in thr_seen:
                            thr_seen.add(best_link)
                            thresholds.append([best_link, best_start])
                        chains.setdefault(best_link, []).append(
                            (feed_index, arrival_index, rend, row[best_link])
                        )
                        if pool_rows is not None:
                            feed_desc.append(len(pool_rows))
                            pool_rows.append(
                                (best_link, rend, -1, row[best_link], 1)
                            )
                    if record_comms:
                        comms.append((
                            op_names[q], op_name, replica_index,
                            c.link_names[best_link], best_start, best_end,
                            proc_names[rp], proc_name, 0, 0, best_link,
                        ))
                    arrivals.append(best_end)
                else:
                    # Multi-hop store-and-forward over the shortest route.
                    repairable = False
                    ready = rend
                    prev_row = -1
                    for hop_index, (origin, link, relay) in enumerate(
                        c.route_hops(rp, p)
                    ):
                        current = free[link] if stamp[link] == epoch else base[link]
                        start = ready if ready > current else current
                        end = start + row[link]
                        stamp[link] = epoch
                        free[link] = end
                        if record_chains and link not in thr_seen:
                            thr_seen.add(link)
                            thresholds.append([link, start])
                        if pool_rows is not None:
                            dep = prev_row
                            prev_row = len(pool_rows)
                            pool_rows.append((link, rend, dep, row[link], 0))
                        if record_comms:
                            comms.append((
                                op_names[q], op_name, replica_index,
                                c.link_names[link], start, end,
                                origin, relay, hop_index, 0, link,
                            ))
                        ready = end
                    if feed_desc is not None:
                        feed_desc.append(prev_row)
                    arrivals.append(ready)
                arrival_index += 1
            if not arrivals:
                raise ValueError(
                    f"predecessor {op_names[q]!r} of {op_name!r} has no replica; "
                    f"candidate rule violated"
                )
            # Worst case: the (npf + 1)-th earliest arrival — i.e.
            # ``sorted(arrivals)[min(npf, len - 1)]``, specialised for
            # the tiny lists of the hot path (min/max pick the same
            # float without the sorted copy).
            count = len(arrivals)
            if count == 1:
                feed_worst = arrivals[0]
            elif npf == 0:
                feed_worst = min(arrivals)
            elif npf >= count - 1:
                feed_worst = max(arrivals)
            else:
                feed_worst = sorted(arrivals)[npf]
            feed_worsts.append(feed_worst)
            if feed_worst > worst:
                worst = feed_worst
            feed_earliest = min(arrivals if firsts is None else firsts)
            if feed_earliest > earliest:
                earliest = feed_earliest
            feeds.append((q, None, arrivals, firsts))
            if pool_feeds is not None:
                pool_feeds.append(feed_desc)
            feed_index += 1
        plan = KernelPlan()
        plan.operation = op_name
        plan.processor = proc_name
        plan.op = o
        plan.proc = p
        plan.duration = duration
        plan.processor_ready = self._proc_avail[p]
        plan.feeds = feeds
        plan.comms = comms
        plan.earliest = earliest
        plan.worst = worst
        plan.feed_worsts = feed_worsts
        plan.thresholds = thresholds
        plan.chains = chains if repairable else None
        plan.repairable = repairable
        plan.pool_rows = pool_rows
        plan.pool_feeds = pool_feeds
        plan.has_choice = has_choice
        return plan

    # ------------------------------------------------------------------
    # selection sweep (macro-steps À and Á)
    # ------------------------------------------------------------------
    def _orbit_reps(self) -> list[int] | None:
        """Orbit representatives under the still-usable generators.

        A generator is usable while the partial schedule is *invariant*
        under it: processor and link availabilities map to themselves,
        and every replica row does too — then ``σ(o, p)`` and
        ``σ(o, g(p))`` are the same IEEE floats (the state the plan
        reads is indistinguishable), so evaluating the orbit's smallest
        id covers all of them.  Between two sweeps the net state change
        is the surviving commit records (rollbacks restore exactly), so
        the replica check only walks the delta rows; the availability
        arrays are cheap enough to check whole.  The drop is monotone:
        a generator that dies is never re-admitted, which keeps the
        check O(delta) instead of O(schedule).
        """
        alive = self._sym_alive
        ops = self._op_buffer
        mark = self._sym_mark
        delta = (
            {record[6] for record in ops[mark:]} if len(ops) > mark else ()
        )
        self._sym_mark = len(ops)
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        rep_end = self._rep_end
        n_procs = self._P
        survivors = []
        for gen in alive:
            gp = gen.proc
            ok = True
            for p in range(n_procs):
                if proc_avail[p] != proc_avail[gp[p]]:
                    ok = False
                    break
            if ok:
                for l, m in enumerate(gen.link):
                    if link_avail[l] != link_avail[m]:
                        ok = False
                        break
            if ok:
                for o in delta:
                    o_base = o * n_procs
                    if any(
                        rep_end[o_base + p] != rep_end[o_base + gp[p]]
                        for p in range(n_procs)
                    ):
                        ok = False
                        break
            if ok:
                survivors.append(gen)
        if len(survivors) != len(alive):
            self._sym_alive = survivors
            self._sym_reps = None
            if not survivors:
                return None
        if self._sym_reps is None:
            self._sym_reps = orbit_representatives(survivors, n_procs)
        return self._sym_reps

    def select_ids(
        self, candidates: "list[int]", record: bool
    ) -> tuple[str, tuple[str, ...], float, dict | None]:
        """Pick the most urgent candidate and its ``Npf + 1`` processors.

        Mirrors ``FTBARScheduler._select`` over candidate ids (sorted
        ids == the sorted-name candidate order); ``record`` materializes
        the per-pair σ mapping for the observer's :class:`StepRecord`
        (the evaluation pattern — and hence every counter — is
        identical either way).
        """
        if self._vector:
            return self._select_vector(candidates, record)
        c = self._c
        n_procs = self._P
        op_names = c.op_names
        proc_names = c.proc_names
        pins = c.pins
        npf = c.npf
        required = npf + 1
        pressures: dict | None = {} if record else None
        cache = self._cache
        entries = cache.entries
        suspects = self._suspects
        proc_avail = self._proc_avail
        link_avail = self._link_avail
        aware = self._aware
        hits = 0
        two = required == 2
        one = required == 1
        best_urgency = 0.0
        best_op = -1
        best_p0 = best_p1 = -1
        best_kept: list[tuple[float, int]] | None = None
        reps = self._orbit_reps() if self._sym_alive else None
        row: list[float] | None = [0.0] * n_procs if reps is not None else None
        if suspects:
            # Per-sweep suspect pass — the scalar mirror of the vector
            # sweep's: availabilities are frozen during a sweep and
            # every live entry's candidate is ready, so the whole
            # suspect set is due now; handling it here keeps the probe
            # loop below to one dict lookup per pair.  Repairs replay
            # the same chains from the same availabilities the lazy
            # per-probe scan would have seen, so every float — and
            # every hit/miss count, since repairs and discards are
            # unaccounted and the probe still pays the miss — is
            # identical.  Pruned columns are skipped (their cache state
            # stays untouched while pruned, as before) and dangling
            # flags of dropped entries wait for the entry to return.
            for key in tuple(suspects):
                if reps is not None and reps[key % n_procs] != key % n_procs:
                    continue
                entry = entries.get(key)
                if entry is None:
                    continue
                suspects.discard(key)
                chains = entry[2]
                if chains is None:
                    for threshold in entry[5]:
                        if link_avail[threshold[0]] > threshold[1]:
                            # Not repairable: drop it; the probe then
                            # replans, counting exactly as the lazy
                            # discard + miss did.
                            cache.discard(key)
                            break
                    continue
                feeds = entry[0]
                touched: set[int] | None = None
                for threshold in entry[5]:
                    available = link_avail[threshold[0]]
                    if available <= threshold[1]:
                        continue
                    free = available
                    first = None
                    for f_i, a_i, t_ready, dur in chains[threshold[0]]:
                        start = t_ready if t_ready > free else free
                        end = start + dur
                        feeds[f_i][2][a_i] = end
                        free = start + (end - start)
                        if touched is None:
                            touched = {f_i}
                        else:
                            touched.add(f_i)
                        if first is None:
                            first = start
                    threshold[1] = first
                if touched is not None:
                    feed_worsts = entry[4]
                    for f_i in touched:
                        arrivals = feeds[f_i][2]
                        count = len(arrivals)
                        if count == 2:
                            # The npf=1 common case: the k-th-smallest
                            # of a pair is its min or max outright.
                            a, b = arrivals
                            if npf:
                                feed_worsts[f_i] = a if a > b else b
                            else:
                                feed_worsts[f_i] = a if a < b else b
                        elif count == 1:
                            feed_worsts[f_i] = arrivals[0]
                        elif npf == 0:
                            feed_worsts[f_i] = min(arrivals)
                        elif npf >= count - 1:
                            feed_worsts[f_i] = max(arrivals)
                        else:
                            feed_worsts[f_i] = sorted(arrivals)[npf]
                    entry[3] = max(feed_worsts)
        for o in candidates:
            anchor = pins.get(o)
            if anchor is None:
                pool = self._all_procs
            else:
                pool = sorted(host for host, _ in self._rep_list[anchor])
            base_key = o * n_procs
            # The ``required`` smallest (σ, p) pairs, kept ascending —
            # the pool iterates ascending p and every comparison is
            # strict, so a σ tie keeps the earlier processor exactly
            # like the sorted ranked list this replaces (lexicographic
            # (σ, p) order).  ``required <= 2`` — every npf 0/1 run —
            # tracks the pair in plain registers; larger values fall
            # back to bounded insertion into a list.
            finite = 0
            if two:
                b0v = b1v = _INF
                b0p = b1p = -1
            elif one:
                b0v = _INF
                b0p = -1
            else:
                kept: list[tuple[float, int]] = []
                fill = 0
            for p in pool:
                if row is not None and reps[p] != p:
                    # Symmetry-pruned pair: its σ is a bit-identical
                    # copy of the orbit representative's (already
                    # computed — representatives are orbit minima and
                    # the pool iterates ascending).  No cache traffic.
                    value = row[reps[p]]
                    self.symmetry_pruned += 1
                # The hit fast path is inlined: one dict probe and two
                # adds (suspects were settled by the per-sweep pass
                # above) — this loop runs once per (candidate,
                # processor) pair per macro-step.
                else:
                    key = base_key + p
                    entry = entries.get(key)
                    if entry is None:
                        value = self._miss(o, p, key)
                    elif entry[0] is None:
                        hits += 1
                        value = _INF
                    else:
                        hits += 1
                        ready = proc_avail[p]
                        worst = entry[3]
                        s_worst = ready if ready > worst else worst
                        if aware:
                            value = s_worst + entry[6] + entry[1]
                        else:
                            value = s_worst + entry[1]
                if row is not None:
                    row[p] = value
                if record:
                    pressures[(op_names[o], proc_names[p])] = value
                if value == _INF:
                    continue
                finite += 1
                if two:
                    # Registers start at _INF, so the fill-up phase is
                    # the same strict-compare shift as steady state.
                    if value < b1v:
                        if value < b0v:
                            b1v = b0v
                            b1p = b0p
                            b0v = value
                            b0p = p
                        else:
                            b1v = value
                            b1p = p
                elif one:
                    if value < b0v:
                        b0v = value
                        b0p = p
                elif fill < required:
                    index = fill
                    while index and kept[index - 1][0] > value:
                        index -= 1
                    kept.insert(index, (value, p))
                    fill += 1
                elif value < kept[-1][0]:
                    # p exceeds every kept processor id, so a σ tie
                    # never displaces an earlier pair.
                    del kept[-1]
                    index = fill - 1
                    while index and kept[index - 1][0] > value:
                        index -= 1
                    kept.insert(index, (value, p))
            if finite < required:
                raise InfeasibleReplicationError(
                    f"operation {op_names[o]!r} can run on {finite} "
                    f"processor(s), {required} required to tolerate "
                    f"{npf} failure(s)"
                )
            urgency = b1v if two else b0v if one else kept[-1][0]
            if best_op < 0 or urgency > best_urgency or (
                urgency == best_urgency and o < best_op
            ):
                best_urgency = urgency
                best_op = o
                if two:
                    best_p0 = b0p
                    best_p1 = b1p
                elif one:
                    best_p0 = b0p
                else:
                    best_kept = kept
        cache.hits += hits
        assert best_op >= 0
        if two:
            placements = (proc_names[best_p0], proc_names[best_p1])
        elif one:
            placements = (proc_names[best_p0],)
        else:
            placements = tuple(proc_names[p] for _, p in best_kept)
        return (
            c.op_names[best_op],
            placements,
            best_urgency,
            pressures,
        )

    # ------------------------------------------------------------------
    # replay pools (vector mode)
    # ------------------------------------------------------------------
    def _try_pool(self, key: int, plan: KernelPlan) -> str | None:
        """Admit a cache entry to the replay pools when it qualifies.

        Every reservation becomes one leveled row whose replay from the
        *current* link availabilities reproduces the trial plan's
        floats exactly (the route structure, ready instants and
        durations are static while the entry is alive); arrival and
        feed reductions then rebuild the entry's worst — so the
        per-sweep pool pass is the batched equivalent of a fresh
        recomputation.  Repairable entries (``"pure"``) register no
        thresholds: the pass *is* their repair.  Multi-hop and npl
        entries (``"volatile"``) keep their thresholds so their
        staleness is still accounted as the scalar discard + miss (see
        the suspects loop).  Only plans that chose among parallel
        direct links stay out: the choice itself can flip with the
        availabilities.
        """
        rows = plan.pool_rows
        if rows is None or not rows or plan.has_choice:
            return None
        slot = self._alloc_slot(key)
        position_base = slot * self._feed_width
        row_worst = self._slot_worst[slot]
        feed_worsts = plan.feed_worsts
        for feed_index, feed in enumerate(plan.feeds):
            local_end = feed[_FEED_LOCAL_END]
            row_worst[feed_index] = (
                local_end if local_end is not None
                else feed_worsts[feed_index]
            )
        # Reservation rows: free deps follow per-link plan order (the
        # shared overlay the plan reserved against), ready deps the
        # recorded previous hop; level = 1 + max(dep levels).
        level_of = self._row_level_of
        levels = self._row_levels
        gids: list[int] = []
        last_on_link: dict[int, int] = {}
        for link, ready, ready_dep_local, duration, mode in rows:
            free_dep = last_on_link.get(link, -1)
            ready_dep = gids[ready_dep_local] if ready_dep_local >= 0 else -1
            level = 0
            if free_dep >= 0:
                level = level_of[free_dep] + 1
            if ready_dep >= 0 and level_of[ready_dep] + 1 > level:
                level = level_of[ready_dep] + 1
            gid = self._row_count
            self._row_count = gid + 1
            level_of.append(level)
            while level >= len(levels):
                levels.append(_RowPool(2, 5))
            levels[level].append(
                (ready, duration), (link, free_dep, ready_dep, gid, mode)
            )
            last_on_link[link] = gid
            gids.append(gid)
        for feed_index, descriptors in enumerate(plan.pool_feeds):
            if descriptors is None:
                continue  # local feed: static worst, written above
            positions: list[int] = []
            for descriptor in descriptors:
                apos = self._alloc_arrival()
                positions.append(apos)
                if isinstance(descriptor, int):
                    self._acopy.append((), (gids[descriptor], apos))
                else:
                    width = len(descriptor)
                    pool = self._aroute.get(width)
                    if pool is None:
                        pool = self._aroute[width] = _RowPool(0, width + 1)
                    pool.append(
                        (),
                        tuple(gids[i] for i in descriptor) + (apos,),
                    )
            arity = len(positions)
            pool = self._afeeds.get(arity)
            if pool is None:
                pool = self._afeeds[arity] = _RowPool(0, arity + 1)
            pool.append((), tuple(positions) + (position_base + feed_index,))
        if plan.repairable:
            return "pure"
        first_gid: dict[int, int] = {}
        for local, (link, _ready, _dep, _dur, _mode) in enumerate(rows):
            if link not in first_gid:
                first_gid[link] = gids[local]
        self._volatile[key] = [
            (threshold, first_gid[threshold[0]])
            for threshold in plan.thresholds
        ]
        return "volatile"

    def _alloc_slot(self, key: int) -> int:
        slot = self._slot_count
        if slot == len(self._slot_alive):
            capacity = max(64, 2 * slot)
            keys = _np.zeros(capacity, dtype=_np.int64)
            keys[:slot] = self._slot_key[:slot]
            self._slot_key = keys
            alive = _np.zeros(capacity, dtype=bool)
            alive[:slot] = self._slot_alive[:slot]
            self._slot_alive = alive
            worst = _np.full((capacity, self._feed_width), -_INF)
            worst[:slot] = self._slot_worst[:slot]
            self._slot_worst = worst
        self._slot_key[slot] = key
        self._slot_alive[slot] = True
        self._slot_worst[slot] = -_INF
        self._slot_count = slot + 1
        self._slot_of[key] = slot
        return slot

    def _alloc_arrival(self) -> int:
        # The store is only written by the level passes; capacity is
        # ensured in ``_pool_pass``.
        position = self._arrival_count
        self._arrival_count = position + 1
        return position

    def _release_keys(self, keys) -> None:
        """Drop the slots of dropped cache entries.

        Pool rows and arrival positions are append-only and never
        reused; a dead slot's rows keep computing into positions the
        final scatter filters out via ``_slot_alive``.
        """
        slot_of = self._slot_of
        slot_alive = self._slot_alive
        volatile = self._volatile
        for key in keys:
            slot = slot_of.pop(key, None)
            if slot is not None:
                slot_alive[slot] = False
                volatile.pop(key, None)

    def _pool_pass(self) -> None:
        """Replay-repair pass, timed into :attr:`phase_times` when on."""
        pt = self.phase_times
        if pt is None:
            return self._pool_pass_impl()
        t0 = time.perf_counter()
        try:
            return self._pool_pass_impl()
        finally:
            entry = pt.setdefault("kernel.replay_repair", [0.0, 0])
            entry[0] += time.perf_counter() - t0
            entry[1] += 1

    def _pool_pass_impl(self) -> None:
        """Recompute every pooled entry's worst from current availabilities.

        Two level passes replay the reservation chains (level 1 queues
        behind level 0's re-derived free pointer, mirroring
        ``LinkState.reserve``), two feed passes reduce arrivals to feed
        worsts, then a row-max and one scatter write the sweep's worst
        array — the batched equivalent of every scalar repair
        :meth:`_repair` would perform this step.
        """
        np = _np
        slots = self._slot_count
        if not slots:
            return
        if self._arrival_count > len(self._arrivals):
            self._arrivals = np.zeros(max(64, 2 * self._arrival_count))
        if self._row_count > len(self._row_end):
            capacity = max(64, 2 * self._row_count)
            self._row_start = np.zeros(capacity)
            self._row_end = np.zeros(capacity)
            self._row_free = np.zeros(capacity)
        avail = np.array(self._link_avail)
        arrivals = self._arrivals
        row_start = self._row_start
        row_end = self._row_end
        row_free = self._row_free
        flat_worst = self._slot_worst.reshape(-1)
        for pool in self._row_levels:
            count = pool.count
            if not count:
                continue
            pool.flush()
            link = pool.int_cols[0][:count]
            free_dep = pool.int_cols[1][:count]
            ready_dep = pool.int_cols[2][:count]
            gid = pool.int_cols[3][:count]
            mode = pool.int_cols[4][:count]
            base = np.where(
                free_dep < 0,
                avail[link],
                row_free[np.maximum(free_dep, 0)],
            )
            ready = np.where(
                ready_dep < 0,
                pool.float_cols[0][:count],
                row_end[np.maximum(ready_dep, 0)],
            )
            start = np.maximum(ready, base)
            end = start + pool.float_cols[1][:count]
            # A queued reservation advances the link by the re-derived
            # duration (LinkState.reserve's ``start + (end - start)``)
            # on direct links (mode 1), by the previewed end on route
            # hops (mode 0) — both expressions verbatim from `_plan`.
            free = np.where(mode == 1, start + (end - start), end)
            row_start[gid] = start
            row_end[gid] = end
            row_free[gid] = free
        pool = self._acopy
        count = pool.count
        if count:
            pool.flush()
            arrivals[pool.int_cols[1][:count]] = (
                row_end[pool.int_cols[0][:count]]
            )
        for width, pool in self._aroute.items():
            count = pool.count
            if not count:
                continue
            pool.flush()
            # A replica's guaranteed arrival is the max over its
            # ``npl + 1`` disjoint routes' ends.
            guaranteed = row_end[pool.int_cols[0][:count]]
            for column in range(1, width):
                guaranteed = np.maximum(
                    guaranteed, row_end[pool.int_cols[column][:count]]
                )
            arrivals[pool.int_cols[width][:count]] = guaranteed
        npf = self._c.npf
        for arity, pool in self._afeeds.items():
            count = pool.count
            if not count:
                continue
            pool.flush()
            positions = pool.int_cols[arity][:count]
            if arity == 1:
                flat_worst[positions] = arrivals[pool.int_cols[0][:count]]
                continue
            k = npf if npf < arity - 1 else arity - 1
            if k == 0:
                reduced = arrivals[pool.int_cols[0][:count]]
                for column in range(1, arity):
                    reduced = np.minimum(
                        reduced, arrivals[pool.int_cols[column][:count]]
                    )
            elif k == arity - 1:
                reduced = arrivals[pool.int_cols[0][:count]]
                for column in range(1, arity):
                    reduced = np.maximum(
                        reduced, arrivals[pool.int_cols[column][:count]]
                    )
            else:
                stacked = np.stack([
                    arrivals[pool.int_cols[column][:count]]
                    for column in range(arity)
                ])
                reduced = np.partition(stacked, k, axis=0)[k]
            flat_worst[positions] = reduced
        entry_worst = self._slot_worst[:slots].max(axis=1)
        alive = self._slot_alive[:slots]
        if alive.all():
            self._arr_worst[self._slot_key[:slots]] = entry_worst
        else:
            self._arr_worst[self._slot_key[:slots][alive]] = entry_worst[alive]

    def _select_vector(
        self, candidates: "list[int]", record: bool
    ) -> tuple[str, tuple[str, ...], float, dict | None]:
        """The selection sweep as array passes (numpy available, no pins).

        Suspect and absent entries are reconciled through the same
        scalar ``_miss`` / ``_repair`` paths first (they are the rare
        cases and they mutate cache state); every surviving hit is then
        served by one gather + ``maximum`` + add over the parallel
        arrays.  Sigma values, tie-breaks and counters are identical to
        the scalar sweep: float64 arithmetic is the same IEEE arithmetic,
        ids are name-ordered, and ``argmax`` / stable ``argsort`` pick
        the same first-of-equals the tuple comparisons do.
        """
        np = _np
        c = self._c
        n_procs = self._P
        cache = self._cache
        entries = cache.entries
        self._pool_pass()
        reps = self._orbit_reps() if self._sym_alive else None
        ids = np.fromiter(
            candidates, dtype=np.int64, count=len(candidates)
        )
        if reps is None:
            cols = self._pool_offsets
            rep_cols: list[int] | None = None
        else:
            rep_cols = sorted(set(reps))
            cols = np.fromiter(rep_cols, dtype=np.int64, count=len(rep_cols))
        keys = ids[:, None] * n_procs + cols[None, :]
        flat = keys.ravel()
        misses_before = cache.misses
        suspects = self._suspects
        if suspects:
            # Every live entry's candidate is ready (candidates only
            # leave the ready set by being placed, which drops their
            # entries), so the whole suspect set is due this sweep.
            link_avail = self._link_avail
            volatile = self._volatile
            for key in tuple(suspects):
                if reps is not None and reps[key % n_procs] != key % n_procs:
                    # Pruned column: the scalar sweep leaves its cache
                    # state untouched too — keep the flag for later.
                    continue
                entry = entries.get(key)
                if entry is None:
                    # Dangling flag of a dropped entry: the scalar path
                    # leaves it for the next lookup — so do we.
                    continue
                suspects.discard(key)
                for threshold in entry[5]:
                    if link_avail[threshold[0]] > threshold[1]:
                        vol = volatile.get(key)
                        if vol is not None:
                            # The pool pass already recomputed this
                            # entry wholesale; account the staleness as
                            # the scalar discard + replan would, then
                            # refresh its thresholds/worst in place.
                            cache.misses += 1
                            self.evaluations += 1
                            for item, gid in vol:
                                item[1] = float(self._row_start[gid])
                            entry[3] = float(self._arr_worst[key])
                        elif entry[2] is None:
                            cache.discard(key)
                            self._miss(key // n_procs, key % n_procs, key)
                        else:
                            self._repair(entry)
                            self._arr_worst[key] = entry[3]
                        break
        state = self._arr_state[flat]
        if not state.all():
            for key in flat[state == 0].tolist():
                self._miss(key // n_procs, key % n_procs, key)
            state = self._arr_state[flat]
        ready = np.array(self._proc_avail)
        shape = keys.shape
        sigma = np.maximum(
            ready[cols][None, :], self._arr_worst[flat].reshape(shape)
        )
        if self._aware:
            sigma += self._arr_duration[flat].reshape(shape)
        sigma += self._arr_static[flat].reshape(shape)
        forbidden = state == 1
        if forbidden.any():
            sigma[forbidden.reshape(shape)] = _INF
        cache.hits += flat.size - (cache.misses - misses_before)
        if rep_cols is not None:
            # Expand the representative columns back to full width: a
            # pruned processor's σ is a bit-identical copy of its orbit
            # minimum's (same IEEE floats by the invariance argument),
            # so tie-breaks and the kept set match the exhaustive sweep.
            col_of = {rep: index for index, rep in enumerate(rep_cols)}
            expand = np.fromiter(
                (col_of[reps[p]] for p in range(n_procs)),
                dtype=np.int64, count=n_procs,
            )
            sigma = sigma[:, expand]
            self.symmetry_pruned += len(candidates) * (
                n_procs - len(rep_cols)
            )
        npf = c.npf
        required = npf + 1
        finite = (sigma != _INF).sum(axis=1)
        feasible = finite >= required
        if not feasible.all():
            index = int(feasible.argmin())
            raise InfeasibleReplicationError(
                f"operation {c.op_names[candidates[index]]!r} can run on "
                f"{int(finite[index])} processor(s), {required} required "
                f"to tolerate {npf} failure(s)"
            )
        # The (npf + 1)-th smallest per row: partition places exactly
        # the k-th order statistic at index k — the same float a full
        # sort would put there — without sorting the whole row.
        k = required - 1
        count = len(candidates)
        if self._workers >= 2 and sigma.size >= _PARALLEL_MIN_ELEMS:
            urgencies = np.empty(count)

            def task(lo: int, hi: int) -> None:
                urgencies[lo:hi] = np.partition(
                    sigma[lo:hi], k, axis=1
                )[:, k]

            run_sharded(self._workers, count, task)
        else:
            urgencies = np.partition(sigma, k, axis=1)[:, k]
        # Most urgent candidate; argmax keeps the first (= smallest id)
        # among equals, the scalar loop's tie-break.
        winner = int(urgencies.argmax())
        kept = np.argsort(sigma[winner], kind="stable")[:required]
        proc_names = c.proc_names
        op_names = c.op_names
        pressures: dict | None = None
        if record:
            pressures = {}
            for row, o in enumerate(candidates):
                values = sigma[row]
                name = op_names[o]
                for p in range(n_procs):
                    pressures[(name, proc_names[p])] = float(values[p])
        return (
            c.op_names[int(ids[winner])],
            tuple(proc_names[int(p)] for p in kept),
            float(urgencies[winner]),
            pressures,
        )

    def _miss(self, o: int, p: int, key: int) -> float:
        """Plan the pair for real, cache it with its id dependencies."""
        cache = self._cache
        cache.misses += 1
        self.evaluations += 1
        plan = self._plan(o, p, False, True)
        if plan is None:
            cache.put(key, _FORBIDDEN)
            if self._vector:
                self._arr_state[key] = 1
            return _INF
        c = self._c
        if self._aware:
            static = c.tail[o]
            sigma = plan.s_worst + plan.duration + static
        else:
            static = c.sbar[o]
            sigma = plan.s_worst + static
        thresholds = plan.thresholds
        # Entry layout: [feeds, static, chains, worst, feed_worsts,
        # thresholds, duration] — worst (index 3) and the threshold
        # floats are updated in place by repairs.
        entry = [
            plan.feeds, static, plan.chains, plan.worst,
            plan.feed_worsts, thresholds, plan.duration,
        ]
        # Pure pooled entries are recomputed wholesale by the per-sweep
        # pool pass, so they register no threshold links (nothing to
        # suspect or repair).  Volatile pooled entries keep theirs: the
        # pass recomputes their floats too, but a tripped threshold must
        # still be *accounted* as the scalar discard + miss.
        pooled = self._try_pool(key, plan) if self._vector else None
        cache.put(
            key, entry,
            operations=c.preds[o],
            threshold_links=(
                () if pooled == "pure" else tuple(t[0] for t in thresholds)
            ),
        )
        if self._vector:
            self._arr_state[key] = 2
            self._arr_worst[key] = plan.worst
            self._arr_static[key] = static
            self._arr_duration[key] = plan.duration
        return sigma

    def _repair(self, entry: list) -> None:
        """Replay the trial chains of every outdated link in place.

        Identical float expressions to a fresh plan, including the
        re-derived duration advance of ``LinkState.reserve``.
        """
        link_avail = self._link_avail
        feeds = entry[0]
        chains = entry[2]
        feed_worsts = entry[4]
        touched: set[int] = set()
        for threshold in entry[5]:
            available = link_avail[threshold[0]]
            if available <= threshold[1]:
                continue
            free = available
            first = None
            for feed_index, arrival_index, ready, duration in chains[threshold[0]]:
                start = ready if ready > free else free
                end = start + duration
                feeds[feed_index][2][arrival_index] = end
                free = start + (end - start)
                touched.add(feed_index)
                if first is None:
                    first = start
            threshold[1] = first
        npf = self._c.npf
        for feed_index in touched:
            arrivals = feeds[feed_index][2]
            count = len(arrivals)
            if count == 1:
                feed_worsts[feed_index] = arrivals[0]
            elif npf == 0:
                feed_worsts[feed_index] = min(arrivals)
            elif npf >= count - 1:
                feed_worsts[feed_index] = max(arrivals)
            else:
                feed_worsts[feed_index] = sorted(arrivals)[npf]
        entry[3] = max(feed_worsts)

    # ------------------------------------------------------------------
    # cache maintenance (driven by the FTBAR macro-step loop)
    # ------------------------------------------------------------------
    def begin_step(self) -> None:
        """Remember the buffer positions before a macro-step's placements."""
        self._step_mark = len(self._op_buffer)
        self._step_comm_mark = len(self._comm_buffer)

    def invalidate_step(self) -> None:
        """Apply the dirty set of the committed macro-step.

        The buffer suffixes since :meth:`begin_step` are the step's
        dirty set: surviving records name the operations that gained
        replicas and the links their comms landed on (rollbacks
        truncated their records, so the suffix is net).
        """
        replicated = {
            record[6] for record in self._op_buffer[self._step_mark:]
        }
        links = {
            comm[10]
            for comm, _ in self._comm_buffer[self._step_comm_mark:]
        }
        if replicated:
            dropped = self._cache.invalidate_replicated(replicated)
            if self._vector and dropped:
                self._arr_state[list(dropped)] = 0
                self._release_keys(dropped)
        if links:
            self._suspects |= self._cache.suspects_for(links)

    def forget(self, operation: str) -> None:
        """Drop every cached plan of an operation that has been placed."""
        o = self._c.op_ids[operation]
        dropped = self._cache.drop_range(o * self._P, (o + 1) * self._P)
        if self._vector and dropped:
            self._arr_state[list(dropped)] = 0
            self._release_keys(dropped)

    def forget_range(self, start: int, stop: int) -> None:
        """Drop every cached entry in a candidate's key range (HBP)."""
        self._cache.drop_range(start, stop)

    # ------------------------------------------------------------------
    # placement (macro-step Â — the flat Minimize_start_time)
    # ------------------------------------------------------------------
    def place(self, operation: str, processor: str) -> None:
        """Place one replica, mirroring ``FTBARScheduler._place``."""
        c = self._c
        o = c.op_ids[operation]
        p = c.proc_ids[processor]
        if o in c.pins:
            # Memory halves are placed directly: duplicating register
            # halves would break the read/write co-location invariant.
            plan = self._plan(o, p, True, False)
            if plan is None:
                raise InfeasibleReplicationError(
                    f"memory half {operation!r} is forbidden on {processor!r} "
                    f"where its register lives"
                )
            self._commit(plan)
            return
        self._minimize(o, p, False)

    def place_step(
        self, operation: str, processors: "tuple[str, ...]"
    ) -> None:
        """Place one macro-step's ``Npf + 1`` replicas, batched.

        On all-direct interconnects (``_batch_ok``) the trial plans of
        the whole step are built upfront against ONE shared reservation
        overlay: each trial's overlay advances equal the committed
        advances of the trials before it (both are the re-derived
        ``start + (end - start)``), so every preplan is bit-identical
        to the fresh plan the sequential path would compute after the
        preceding commits.  Trials whose cache entry is repairable skip
        planning entirely: :meth:`_rebuild` replays the recorded
        reservation chains into a commit-ready plan (same floats — the
        chains' ready instants and durations are static while the entry
        lives).  A kept duplication invalidates the remaining preplans
        (it commits extra replicas mid-step), so the loop falls back to
        fresh sequential plans the moment a commit is not clean.
        """
        c = self._c
        o = c.op_ids[operation]
        if o in c.pins or not self._batch_ok:
            for processor in processors:
                self.place(operation, processor)
            return
        procs = [c.proc_ids[name] for name in processors]
        entries = self._cache.entries
        self._epoch += 1
        if self._epoch > 1:
            self.buffer_reuses += 1
        base_key = o * self._P
        plans: list[KernelPlan | None] = []
        for index, p in enumerate(procs):
            if index:
                self.buffer_reuses += 1
            entry = entries.get(base_key + p)
            if (
                entry is not None and entry[0] is not None
                and entry[2] is not None
            ):
                plans.append(self._rebuild(o, p, entry))
            else:
                plans.append(
                    self._plan(o, p, True, False, shared_overlay=True)
                )
        clean = True
        for index, p in enumerate(procs):
            plan = plans[index] if clean else self._plan(o, p, True, False)
            if plan is None:
                raise SchedulingError(
                    f"operation {c.op_names[o]!r} cannot be scheduled on "
                    f"{c.proc_names[p]!r}"
                )
            before = len(self._op_buffer)
            if self._duplication:
                plan = self._improve_by_duplication(plan)
            self._commit(plan)
            if len(self._op_buffer) != before + 1:
                clean = False

    def _rebuild(self, o: int, p: int, entry: list) -> KernelPlan:
        """A commit-ready plan replayed from a repairable cache entry.

        The entry's chains record every reservation's static operands
        (ready instant, duration) in plan order per link; replaying
        them against the current availabilities — through the shared
        step overlay, so later trials of the same batch queue behind
        this one exactly as they would behind its commit — reproduces
        the floats of a fresh plan at *any* availabilities (the
        threshold invariant: a repairable plan's structure never
        depends on link load, only its starts do).  Entry arrays are
        never mutated: the plan gets fresh feed and arrival lists.
        """
        c = self._c
        epoch = self._epoch
        stamp = self._link_stamp
        free = self._link_free
        base = self._link_avail
        link_names = c.link_names
        proc_names = c.proc_names
        op_names = c.op_names
        op_name = op_names[o]
        proc_name = proc_names[p]
        rep_list = self._rep_list
        feeds_in = entry[0]
        # Replay every link's chain; per-link order is plan order and
        # links are independent, so chain-order replay == plan order.
        ends: dict[tuple[int, int], tuple[int, float, float]] = {}
        for link, chain in entry[2].items():
            current = free[link] if stamp[link] == epoch else base[link]
            for feed_index, arrival_index, ready, duration in chain:
                start = ready if ready > current else current
                end = start + duration
                current = start + (end - start)
                ends[(feed_index, arrival_index)] = (link, start, end)
            stamp[link] = epoch
            free[link] = current
        feeds: list[tuple] = []
        comms: list[tuple] = []
        feed_worsts: list[float] = []
        worst = -_INF
        earliest = -_INF
        npf = c.npf
        for feed_index, feed in enumerate(feeds_in):
            q = feed[_FEED_PRED]
            local_end = feed[_FEED_LOCAL_END]
            if local_end is not None:
                feeds.append((q, local_end, None, None))
                feed_worsts.append(local_end)
                if local_end > worst:
                    worst = local_end
                if local_end > earliest:
                    earliest = local_end
                continue
            count = len(feed[_FEED_ARRIVALS])
            q_name = op_names[q]
            replicas = rep_list[q]
            arrivals: list[float] = []
            for arrival_index in range(count):
                link, start, end = ends[(feed_index, arrival_index)]
                arrivals.append(end)
                # Repairable plans are all-direct, so the replica index
                # equals the arrival index (every remote replica sends).
                comms.append((
                    q_name, op_name, arrival_index, link_names[link],
                    start, end, proc_names[replicas[arrival_index][0]],
                    proc_name, 0, 0, link,
                ))
            if count == 1:
                feed_worst = arrivals[0]
            elif npf == 0:
                feed_worst = min(arrivals)
            elif npf >= count - 1:
                feed_worst = max(arrivals)
            else:
                feed_worst = sorted(arrivals)[npf]
            feed_worsts.append(feed_worst)
            if feed_worst > worst:
                worst = feed_worst
            feed_earliest = min(arrivals)
            if feed_earliest > earliest:
                earliest = feed_earliest
            feeds.append((q, None, arrivals, None))
        plan = KernelPlan()
        plan.operation = op_name
        plan.processor = proc_name
        plan.op = o
        plan.proc = p
        plan.duration = entry[6]
        plan.processor_ready = self._proc_avail[p]
        plan.feeds = feeds
        plan.comms = comms
        plan.earliest = earliest
        plan.worst = worst
        plan.feed_worsts = feed_worsts
        plan.thresholds = _NO_THRESHOLDS
        plan.chains = None
        plan.repairable = False
        plan.pool_rows = None
        plan.pool_feeds = None
        plan.has_choice = False
        return plan

    def _minimize(self, o: int, p: int, duplicated: bool):
        """``Minimize_start_time(o, p)`` on kernel plans (steps Ê–Ñ)."""
        c = self._c
        plan = self._plan(o, p, True, False)
        if plan is None:
            raise SchedulingError(
                f"operation {c.op_names[o]!r} cannot be scheduled on "
                f"{c.proc_names[p]!r}"
            )
        if self._duplication:
            plan = self._improve_by_duplication(plan)
        return self._commit(plan, duplicated=duplicated)

    def _improve_by_duplication(self, plan: KernelPlan) -> KernelPlan:
        stats = self.dup_stats
        o, p = plan.op, plan.proc
        best_worst = plan.s_worst
        while True:
            lip = self._duplicable_lip(plan)
            if lip is None:
                return plan
            stats.attempts += 1
            saved = self._mark()
            try:
                # Step Í: recursively minimise the LIP's start on p.
                self._minimize(lip, p, True)
            except SchedulingError:
                self._undo_to(saved)
                stats.rolled_back += 1
                return plan
            new_plan = self._plan(o, p, True, False)
            if new_plan is None or new_plan.s_worst >= best_worst - _EPSILON:
                # Step Ð: the replication does not pay off — undo it all.
                self._undo_to(saved)
                stats.rolled_back += 1
                return plan
            # Step Ñ: improvement kept; hunt for the new LIP.
            stats.kept += 1
            stats.extra_replicas += 1
            best_worst = new_plan.s_worst
            plan = new_plan

    def _duplicable_lip(self, plan: KernelPlan) -> int | None:
        """Step Ì: the plan's LIP id, when duplicating it can help.

        The critical feed maximises ``(worst_case, smallest name)``;
        with sorted-name ids the tie-break is a plain id comparison.
        """
        feeds = plan.feeds
        if not feeds:
            return None
        feed_worsts = plan.feed_worsts
        best_feed = None
        best_worst = -_INF
        best_pred = -1
        for index, feed in enumerate(feeds):
            worst = feed_worsts[index]
            pred = feed[_FEED_PRED]
            if best_feed is None or worst > best_worst or (
                worst == best_worst and pred < best_pred
            ):
                best_feed = feed
                best_worst = worst
                best_pred = pred
        if best_feed[_FEED_LOCAL_END] is not None:
            return None
        c = self._c
        if c.is_memory_half[best_pred]:
            return None
        key = best_pred * self._P + plan.proc
        if c.exe[key] == _INF:
            return None
        if self._rep_end[key] != 0.0:
            return None
        return best_pred

    # ------------------------------------------------------------------
    # HBP: ordered-pair cost on the shared kernel
    # ------------------------------------------------------------------
    def pair_cost(self, task: int, first: int, second: int) -> float | None:
        """Later completion of the two replicas; ``None`` if infeasible.

        The flat counterpart of ``HBPScheduler._pair_cost``: both
        replicas are planned against one shared overlay so their feeding
        comms contend for the same links.  Costs are cached per ordered
        pair and served while no reserved link's availability has grown
        past its threshold (checked value-wise on every hit — HBP
        entries carry no repair chains).
        """
        cache = self._cache
        n_procs = self._P
        key = (task * n_procs + first) * n_procs + second
        entry = cache.entries.get(key)
        if entry is not None:
            link_avail = self._link_avail
            stale = False
            for link, start in entry[1]:
                if link_avail[link] > start:
                    stale = True
                    break
            if not stale:
                cache.hits += 1
                payload = entry[0]
                if payload is None:
                    return None
                earliest_1, duration_1, earliest_2, duration_2 = payload
                ready_1 = self._proc_avail[first]
                ready_2 = self._proc_avail[second]
                first_end = max(ready_1, earliest_1) + duration_1
                second_end = max(ready_2, earliest_2) + duration_2
                return max(first_end, second_end)
            cache.discard(key)
        cache.misses += 1
        dependencies = self._c.preds[task]
        first_plan = self._plan(task, first, False, True)
        if first_plan is None:
            cache.put(key, [None, ()], operations=dependencies)
            return None
        second_plan = self._plan(task, second, False, True, shared_overlay=True)
        if second_plan is None:
            cache.put(key, [None, ()], operations=dependencies)
            return None
        merged: dict[int, float] = {}
        for link, start in first_plan.thresholds:
            merged[link] = start
        for link, start in second_plan.thresholds:
            current = merged.get(link)
            if current is None or start < current:
                merged[link] = start
        cache.put(
            key,
            [
                (
                    first_plan.earliest, first_plan.duration,
                    second_plan.earliest, second_plan.duration,
                ),
                tuple(merged.items()),
            ],
            operations=dependencies,
        )
        first_end = first_plan.s_best + first_plan.duration
        second_end = second_plan.s_best + second_plan.duration
        return max(first_end, second_end)

    def commit_pair(self, task: int, first: int, second: int) -> None:
        """Commit an HBP winning pair (mirrors ``_commit_pair``)."""
        c = self._c
        for p in (first, second):
            plan = self._plan(task, p, True, False)
            if plan is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"placement of {c.op_names[task]!r} on "
                    f"{c.proc_names[p]!r} became infeasible"
                )
            self._commit(plan)
