"""Randomized corpus for the kernel's topology-symmetry pruning.

``test_compiled_kernel.py`` pins a fixed corpus with literal counter
values; this module sweeps a *randomized* corpus — fresh seeds over
every topology x npf x npl combination — and checks the property that
makes pruning admissible at all: a pruned run must be indistinguishable
from an unpruned one everywhere except the work counters.  Schedules,
serialized content hashes and the full StepRecord stream must be
bit-identical, and the orbit structure of each topology is pinned
(fully connected and bus collapse to one orbit, the star to two, rings
and every ``npl >= 1`` problem verify no usable group).
"""

from __future__ import annotations

import pytest

from test_engine_equivalence import ftbar_fingerprint, ftbar_trace

from repro.core.compile import CompiledProblem
from repro.core.ftbar import schedule_ftbar
from repro.core.options import SchedulerOptions
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.problem import ProblemSpec
from repro.schedule.serialization import content_hash, schedule_to_dict
from repro.timing.comm_times import CommunicationTimes
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

REFERENCE = SchedulerOptions(compiled=False)
COMPILED = SchedulerOptions()
COMPILED_NOSYM = SchedulerOptions(symmetry=False)

TOPOLOGIES = ("fc4", "bus4", "ring4", "star4")
#: Only these topologies offer 2 link-disjoint routes between every
#: processor pair, so npl=1 is feasible on them alone.
NPL1_TOPOLOGIES = ("fc4", "ring4")
SEEDS = (131, 132, 133, 134, 135)


def _on_topology(problem: ProblemSpec, architecture, suffix: str) -> ProblemSpec:
    """The same workload on a different interconnect (uniform durations)."""
    reference = problem.architecture.link_names()[0]
    comm_times = CommunicationTimes()
    for edge in problem.algorithm.dependencies():
        for link in architecture.link_names():
            comm_times.set(
                edge, link, problem.comm_times.time_of(edge, reference)
            )
    return ProblemSpec(
        algorithm=problem.algorithm,
        architecture=architecture,
        exec_times=problem.exec_times,
        comm_times=comm_times,
        npf=problem.npf,
        rtc=problem.rtc,
        name=f"{problem.name}-{suffix}",
        npl=problem.npl,
    )


def corpus_problem(topology: str, npf: int, npl: int, seed: int) -> ProblemSpec:
    """One randomized corpus problem (deterministic per coordinate)."""
    # Vary the graph size with the seed so the corpus covers different
    # candidate-set shapes, not five reruns of one shape.
    operations = 10 + (seed % 4) * 2 + (2 if npl == 0 else 0)
    base = generate_problem(
        RandomWorkloadConfig(
            operations=operations,
            ccr=1.0 + 0.25 * (seed % 3),
            processors=4,
            npf=npf,
            seed=seed,
        )
    )
    if topology == "bus4":
        problem = _on_topology(base, single_bus(4), "bus")
    elif topology == "ring4":
        problem = _on_topology(base, ring(4), "ring")
    elif topology == "star4":
        problem = _on_topology(base, star(4), "star")
    else:
        problem = base
    problem.npl = npl
    return problem


def corpus_coordinates() -> list[tuple[str, int, int, int]]:
    coordinates = []
    for topology in TOPOLOGIES:
        for npf in (0, 1, 2):
            for npl in (0, 1):
                if npl and topology not in NPL1_TOPOLOGIES:
                    continue
                for seed in SEEDS:
                    coordinates.append((topology, npf, npl, seed))
    return coordinates


def _compiled(problem: ProblemSpec) -> CompiledProblem:
    return CompiledProblem(
        problem.algorithm,
        problem.architecture,
        problem.exec_times,
        problem.comm_times,
        problem.npf,
        problem.npl,
    )


@pytest.mark.parametrize(
    "topology,npf,npl,seed",
    corpus_coordinates(),
    ids=lambda value: str(value),
)
def test_pruned_indistinguishable_from_unpruned(topology, npf, npl, seed):
    """Pruning may only change the counters, never the output."""
    problem = corpus_problem(topology, npf, npl, seed)
    pruned_trace = ftbar_trace(problem, COMPILED)
    unpruned_trace = ftbar_trace(problem, COMPILED_NOSYM)
    label = f"{topology}-npf{npf}-npl{npl}-seed{seed}"
    # The trace covers every scheduled event, every placed communication
    # and the full StepRecord stream; equal traces mean equal hashes,
    # but assert the fingerprints too so a failure names the digest.
    assert pruned_trace == unpruned_trace, f"{label}: traces diverge"
    assert ftbar_fingerprint(pruned_trace) == ftbar_fingerprint(
        unpruned_trace
    ), f"{label}: fingerprints diverge"
    assert pruned_trace == ftbar_trace(problem, REFERENCE), (
        f"{label}: compiled diverges from the reference engine"
    )

    pruned = schedule_ftbar(problem, COMPILED)
    unpruned = schedule_ftbar(problem, COMPILED_NOSYM)
    assert content_hash(
        "schedule", schedule_to_dict(pruned.schedule)
    ) == content_hash("schedule", schedule_to_dict(unpruned.schedule)), (
        f"{label}: serialized schedules diverge"
    )
    assert unpruned.stats.symmetry_pruned == 0, label
    group = _compiled(problem).symmetry_group()
    if group is None:
        # No usable group: pruning must be a strict no-op, counters
        # included.
        assert pruned.stats.symmetry_pruned == 0, label
        assert (
            pruned.stats.pressure_evaluations,
            pruned.stats.cache_hits,
        ) == (
            unpruned.stats.pressure_evaluations,
            unpruned.stats.cache_hits,
        ), f"{label}: counters moved without a group"
    else:
        # A live group never *adds* work: every evaluation it skips is
        # accounted in symmetry_pruned.
        assert pruned.stats.pressure_evaluations <= (
            unpruned.stats.pressure_evaluations
        ), label
        assert (
            pruned.stats.pressure_evaluations + pruned.stats.cache_hits
            + pruned.stats.symmetry_pruned
            >= unpruned.stats.pressure_evaluations + unpruned.stats.cache_hits
        ), f"{label}: pruned pairs unaccounted"


@pytest.mark.parametrize("npf", (0, 1, 2))
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_orbit_structure_pinned(npf, seed):
    """Generator and orbit counts are a property of the topology alone."""
    expected = {
        # S4 on the processors: 7 verified generators collapse the
        # interconnect to a single orbit.
        "fc4": (7, 1),
        "bus4": (7, 1),
        # The star's center is fixed; the three leaves form one orbit.
        "star4": (3, 2),
    }
    for topology, (generators, orbits) in expected.items():
        group = _compiled(corpus_problem(topology, npf, 0, seed)).symmetry_group()
        assert group is not None, topology
        assert (len(group.generators), group.orbit_count()) == (
            generators,
            orbits,
        ), topology
    # Rings route multi-hop: the planner's tie-breaks are not
    # equivariant, so verification rejects every candidate.
    assert _compiled(corpus_problem("ring4", npf, 0, seed)).symmetry_group() is None
    # npl >= 1 problems never build a group.
    for topology in NPL1_TOPOLOGIES:
        assert (
            _compiled(corpus_problem(topology, npf, 1, seed)).symmetry_group()
            is None
        )


def test_pruning_engages_on_symmetric_topologies():
    """The corpus actually exercises pruning (not vacuous equivalence)."""
    pruned_somewhere = 0
    for topology in ("fc4", "bus4", "star4"):
        for seed in SEEDS:
            result = schedule_ftbar(
                corpus_problem(topology, 1, 0, seed), COMPILED
            )
            pruned_somewhere += result.stats.symmetry_pruned
    assert pruned_somewhere > 0
