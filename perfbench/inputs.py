"""Seeded inputs of every workload.

Each workload has a fixed *design*: a list of cells naming the input
properties the program's behaviour depends on (graph size ``N``,
processor count ``P``, failure hypothesis ``Npf``, communication ratio
``CCR``, heterogeneity, crash instants).  ``--seed`` only draws the
random graphs inside each cell, so every seed runs the same mix and
two runs differ by their graphs, not by their shape.  Cells alternate
small and large inputs so that one pass is already a balanced mix.

``tiny`` designs are the same shapes at sizes that run in seconds; the
self-test uses them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    """One input of a workload's pass."""

    label: str
    operations: int
    processors: int
    npf: int
    ccr: float
    heterogeneous: bool = False
    #: Crash at every static event boundary instead of t = 0 only.
    boundaries: bool = False


def _cell(n, p, npf, ccr, het=False, boundaries=False) -> Cell:
    label = f"N{n}-P{p}-npf{npf}-ccr{ccr:g}" + ("-het" if het else "")
    if boundaries:
        label += "-bnd"
    return Cell(label, n, p, npf, ccr, het, boundaries)


#: A designer's edit-schedule-check loop: small problems, few processors.
CLI_SMALL = [
    _cell(20, 3, 1, 0.5),
    _cell(80, 6, 2, 1.0),
    _cell(40, 4, 2, 5.0, het=True),
]

#: The paper's evaluation regime: large graphs, the kernel dominates.
SCHEDULE_DEEP = [
    _cell(300, 4, 1, 1.0),
    _cell(800, 4, 2, 5.0),
    _cell(400, 6, 2, 0.5, het=True),
    _cell(700, 4, 1, 0.5),
    _cell(500, 8, 1, 1.0),
    _cell(600, 6, 1, 5.0, het=True),
]

#: Wide architectures: symmetry, batch engine and certify ladder.
#: Reliability is enumerated exhaustively at P <= 12 and goes through
#: projection, bounds and sampling at P >= 16; boundary crash instants
#: only at P = 8.
CERTIFY_WIDE = [
    _cell(20, 8, 1, 1.0, boundaries=True),
    _cell(30, 24, 1, 1.0),
    _cell(60, 8, 2, 5.0),
    _cell(30, 10, 2, 1.0),
    _cell(45, 16, 1, 0.5),
]

TINY = {
    "cli-small": [_cell(12, 3, 1, 1.0), _cell(16, 4, 2, 5.0)],
    "schedule-deep": [_cell(40, 4, 1, 1.0), _cell(60, 6, 2, 0.5, het=True)],
    "certify-wide": [
        _cell(12, 8, 1, 1.0, boundaries=True),
        _cell(12, 16, 2, 1.0),
    ],
}

FULL = {
    "cli-small": CLI_SMALL,
    "schedule-deep": SCHEDULE_DEEP,
    "certify-wide": CERTIFY_WIDE,
}

#: Crash-failure probabilities of the certify flow's reliability figures.
PROBABILITIES = (1e-3, 1e-2)


def design(workload: str, tiny: bool) -> list[Cell]:
    return (TINY if tiny else FULL)[workload]


def graph_seeds(workload: str, seed: int, count: int) -> list[int]:
    """Per-cell graph seeds; the same ``seed`` always gives the same list."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def problems(workload: str, seed: int, tiny: bool) -> list[tuple[Cell, dict]]:
    """The seeded problem documents of one pass, in pass order."""
    from repro.schedule.serialization import problem_to_dict
    from repro.workloads import RandomWorkloadConfig, generate_problem

    cells = design(workload, tiny)
    out = []
    for cell, graph_seed in zip(cells, graph_seeds(workload, seed, len(cells))):
        problem = generate_problem(
            RandomWorkloadConfig(
                operations=cell.operations,
                ccr=cell.ccr,
                processors=cell.processors,
                npf=cell.npf,
                heterogeneous=cell.heterogeneous,
                seed=graph_seed,
            )
        )
        out.append((cell, problem_to_dict(problem)))
    return out


def warmup_problem(workload: str, seed: int) -> dict:
    """A small input outside the measured pass (for the warm-up request)."""
    from repro.schedule.serialization import problem_to_dict
    from repro.workloads import RandomWorkloadConfig, generate_problem

    problem = generate_problem(
        RandomWorkloadConfig(
            operations=16, ccr=1.0, processors=4, npf=1,
            seed=graph_seeds(workload + ":warmup", seed, 1)[0],
        )
    )
    return problem_to_dict(problem)


def campaign_spec(seed: int, tiny: bool) -> dict:
    """A paper-style grid: random graphs N 14-30 over P, Npf and CCR.

    5 sizes x 2 processor counts x 2 hypotheses x 3 ratios x 2 graph
    seeds = 120 jobs (tiny: 2 x 1 x 2 x 1 x 2 = 8 jobs).
    """
    sizes = (14, 18) if tiny else (14, 18, 22, 26, 30)
    return {
        "format_version": 1,
        "name": f"perfbench-grid-{seed}",
        "workloads": [
            {"family": "random", "size": size, "arity": 2,
             "heterogeneous": False, "max_predecessors": 3}
            for size in sizes
        ],
        "topologies": ["fully_connected"],
        "processors": [4] if tiny else [3, 5],
        "npfs": [1, 2],
        "ccrs": [1.0] if tiny else [0.5, 1.0, 5.0],
        "seeds": graph_seeds("campaign-grid", seed, 2),
        "measures": ["ftbar", "non_ft"],
        "failures": [],
        "options": {},
        "mean_execution": 10.0,
    }
