"""HBP — Height-Based Partitioning (Hashimoto, Tsuchiya, Kikuno 2002).

The paper compares FTBAR against HBP, "the closest related work": a
fault-tolerant scheduling heuristic that duplicates every task (exactly
two replicas, tolerating one processor failure) and schedules tasks
level by level, the levels being the *heights* of the task graph.

This re-implementation follows the published description:

* tasks are partitioned by height (longest path to a sink) and processed
  from the highest group down, which respects precedence;
* inside a group, tasks go in decreasing average execution time;
* each task's two replicas are placed by enumerating every **ordered
  processor pair** ``(p1, p2)``, ``p1 ≠ p2``, and keeping the pair that
  minimises the later completion of the two replicas — this exhaustive
  pair search is why "HBP investigates more possibilities than FTBAR
  when selecting the processor" (section 6.2), and why it is slower;
* replicas exchange data exactly like FTBAR replicas do (every replica
  of a predecessor sends to every replica of the task unless co-located),
  so the produced schedules are validated by the same invariants.

HBP assumes a homogeneous architecture; the implementation accepts any
tables but the comparison harness generates homogeneous ones, matching
the downgrade the paper applies to FTBAR for fairness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.exceptions import InfeasibleReplicationError, SchedulingError
from repro.core.compile import CompiledProblem
from repro.core.kernel import SchedulingKernel
from repro.core.placement import PlacementPlanner, commit_plan
from repro.problem import ProblemSpec
from repro.schedule.schedule import Schedule
from repro.timing.constraints import RtcReport


#: Number of replicas of every task in HBP (tolerates exactly 1 failure).
HBP_REPLICAS = 2


@dataclass
class HBPStats:
    """Run statistics, used by the complexity experiment (E6).

    ``pair_evaluations`` counts *computed* pair costs; on the compiled
    path the kernel's pair-cost cache (the same
    :class:`~repro.core.kernel.KernelPlanCache` machinery FTBAR uses, so
    the E6 runtime comparison stays apples-to-apples) serves the rest as
    ``pair_cache_hits``.  The reference path recomputes every pair, so
    its ``pair_cache_hits`` stays 0.
    """

    steps: int = 0
    pair_evaluations: int = 0
    pair_cache_hits: int = 0
    wall_time_s: float = 0.0


@dataclass
class HBPResult:
    """Outcome of an HBP run: schedule, ``Rtc`` verdict and statistics."""

    schedule: Schedule
    rtc_report: RtcReport
    stats: HBPStats = field(default_factory=HBPStats)

    @property
    def makespan(self) -> float:
        """Completion date of the produced schedule."""
        return self.schedule.makespan()


class HBPScheduler:
    """Height-based partitioning scheduler with task duplication.

    ``compiled`` (default) runs the ordered-pair cost search on the
    same :class:`~repro.core.kernel.SchedulingKernel` as FTBAR, so the
    E6 runtime comparison measures the heuristics, not the data
    structures.  ``compiled=False`` runs the reference path, which
    replans every pair at every selection; both produce bit-identical
    schedules.
    """

    def __init__(self, problem: ProblemSpec, compiled: bool = True) -> None:
        if problem.npf != 1:
            raise SchedulingError(
                f"HBP duplicates tasks exactly once and tolerates exactly one "
                f"failure; got npf={problem.npf}"
            )
        if problem.algorithm.memory_operations():
            raise SchedulingError(
                "the HBP baseline does not support memory operations"
            )
        problem.validate()
        self._problem = problem
        self._algorithm = problem.algorithm
        self._architecture = problem.architecture
        self._exec_times = problem.exec_times
        self._comm_times = problem.comm_times
        self._planner = PlacementPlanner(
            self._algorithm,
            self._architecture,
            self._exec_times,
            self._comm_times,
            npf=HBP_REPLICAS - 1,
        )
        self._compiled: CompiledProblem | None = None
        if compiled:
            self._compiled = CompiledProblem(
                self._algorithm,
                self._architecture,
                self._exec_times,
                self._comm_times,
                HBP_REPLICAS - 1,
                0,
            )

    def run(self) -> HBPResult:
        """Schedule the height groups from the highest down.

        Inside one group the choice is dynamic: every still-unscheduled
        task of the group is evaluated on every ordered processor pair
        and the globally cheapest (task, pair) is committed — the
        exhaustive search that makes HBP investigate ``|group| × P²``
        possibilities per selection where FTBAR investigates
        ``|candidates| × P``.
        """
        started = time.perf_counter()
        stats = HBPStats()
        schedule = Schedule(
            processors=self._architecture.processor_names(),
            links=self._architecture.link_names(),
            npf=HBP_REPLICAS - 1,
            name=f"{self._problem.name}-hbp",
        )
        if self._compiled is not None:
            self._run_compiled(schedule, stats)
        else:
            self._run_reference(schedule, stats)
        stats.wall_time_s = time.perf_counter() - started
        rtc_report = self._problem.rtc.check(schedule)
        return HBPResult(schedule=schedule, rtc_report=rtc_report, stats=stats)

    def _run_reference(self, schedule: Schedule, stats: HBPStats) -> None:
        for group in self._height_groups():
            remaining = list(group)
            while remaining:
                stats.steps += 1
                task, first, second = self._select(remaining, schedule, stats)
                self._commit_pair(task, first, second, schedule)
                remaining.remove(task)

    def _run_compiled(self, schedule: Schedule, stats: HBPStats) -> None:
        """The same group loop over the compiled kernel's pair costs."""
        compiled = self._compiled
        kernel = SchedulingKernel(compiled, schedule, vector=False)
        op_ids = compiled.op_ids
        n_procs = compiled.n_procs
        pair_span = n_procs * n_procs
        for group in self._height_groups():
            remaining = [op_ids[task] for task in group]
            while remaining:
                stats.steps += 1
                task, first, second = self._select_compiled(
                    remaining, kernel
                )
                kernel.begin_step()
                kernel.commit_pair(task, first, second)
                kernel.forget_range(
                    task * pair_span, (task + 1) * pair_span
                )
                kernel.invalidate_step()
                remaining.remove(task)
        kernel.materialize()
        stats.pair_evaluations = kernel.misses
        stats.pair_cache_hits = kernel.hits

    def _select_compiled(
        self, tasks: list[int], kernel: SchedulingKernel
    ) -> tuple[int, int, int]:
        """The cheapest (task, pair) — `_select` over dense ids."""
        compiled = self._compiled
        best: tuple[float, int, int, int] | None = None
        for task in tasks:
            processors = compiled.allowed[task]
            if len(processors) < HBP_REPLICAS:
                raise InfeasibleReplicationError(
                    f"task {compiled.op_names[task]!r} can run on "
                    f"{len(processors)} processor(s), {HBP_REPLICAS} "
                    f"required by HBP"
                )
            for first in processors:
                for second in processors:
                    if first == second:
                        continue
                    cost = kernel.pair_cost(task, first, second)
                    if cost is None:
                        continue
                    key = (cost, task, first, second)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise InfeasibleReplicationError(
                f"no feasible processor pair among tasks "
                f"{[self._compiled.op_names[t] for t in tasks]!r}"
            )
        return best[1], best[2], best[3]

    # ------------------------------------------------------------------
    # ordering
    # ------------------------------------------------------------------
    def _height_groups(self) -> list[list[str]]:
        """Tasks partitioned by height, highest group first.

        Processing groups in decreasing height respects precedence:
        every edge goes from a strictly higher task to a lower one.
        """
        heights = self._algorithm.heights()
        groups: dict[int, list[str]] = {}
        for task in self._algorithm.operation_names():
            groups.setdefault(heights[task], []).append(task)
        return [sorted(groups[h]) for h in sorted(groups, reverse=True)]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def _select(
        self, tasks: list[str], schedule: Schedule, stats: HBPStats
    ) -> tuple[str, str, str]:
        """The cheapest (task, processor pair) among the ready tasks."""
        best: tuple[float, str, str, str] | None = None
        for task in tasks:
            processors = self._exec_times.allowed_processors(
                task, self._architecture.processor_names()
            )
            if len(processors) < HBP_REPLICAS:
                raise InfeasibleReplicationError(
                    f"task {task!r} can run on {len(processors)} processor(s), "
                    f"{HBP_REPLICAS} required by HBP"
                )
            for first in processors:
                for second in processors:
                    if first == second:
                        continue
                    cost = self._pair_cost(task, first, second, schedule, stats)
                    if cost is None:
                        continue
                    key = (cost, task, first, second)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise InfeasibleReplicationError(
                f"no feasible processor pair among tasks {tasks!r}"
            )
        return best[1], best[2], best[3]

    def _commit_pair(
        self, task: str, first: str, second: str, schedule: Schedule
    ) -> None:
        for processor in (first, second):
            plan = self._planner.plan(task, processor, schedule)
            if plan is None:  # pragma: no cover - defensive
                raise SchedulingError(
                    f"placement of {task!r} on {processor!r} became infeasible"
                )
            commit_plan(plan, schedule)

    def _pair_cost(
        self,
        task: str,
        first: str,
        second: str,
        schedule: Schedule,
        stats: HBPStats,
    ) -> float | None:
        """Later completion time of the two replicas, or None if infeasible.

        Both replicas are planned against one shared link-state overlay
        so their feeding comms contend for the same links, exactly as
        they will once committed.
        """
        stats.pair_evaluations += 1
        state = self._planner.fresh_link_state(schedule)
        first_plan = self._planner.plan(task, first, schedule, state)
        if first_plan is None:
            return None
        second_plan = self._planner.plan(task, second, schedule, state)
        if second_plan is None:
            return None
        first_end = first_plan.s_best + first_plan.duration
        second_end = second_plan.s_best + second_plan.duration
        return max(first_end, second_end)


def schedule_hbp(problem: ProblemSpec, compiled: bool = True) -> HBPResult:
    """Convenience one-call API for the HBP baseline."""
    return HBPScheduler(problem, compiled=compiled).run()
