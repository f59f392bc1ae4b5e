"""The per-scenario reference certificate is uncapped.

``batched=False`` is the oracle the certify ladder is checked against
(``repro certify --compare``), so it must never weaken itself: past
``ENUMERATION_CAP`` processors or links it still replays every subset of
every level, warns about nothing, and the ladder (``batched=True``)
matches it count for count.
"""

from __future__ import annotations

import math
import warnings

from repro.analysis import reliability as reliability_module
from repro.analysis.reliability import (
    ENUMERATION_CAP,
    certificate_mismatches,
    fault_tolerance_certificate,
)
from repro.core.ftbar import schedule_ftbar
from repro.hardware.topologies import fully_connected, single_bus
from repro.problem import ProblemSpec
from tests.util import chain_problem


def _wide_problem(processors: int) -> ProblemSpec:
    """A tiny chain on a wide architecture (P > ENUMERATION_CAP)."""
    return chain_problem(single_bus(processors), f"wide-{processors}")


def _linky_problem() -> ProblemSpec:
    """A tiny chain on an architecture with more links than the cap."""
    return chain_problem(fully_connected(6), "linky-6")  # 15 links


def _certificates(problem: ProblemSpec, **kwargs):
    """Reference and ladder certificates, with every warning an error."""
    result = schedule_ftbar(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reference = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, batched=False,
            **kwargs,
        )
        ladder = fault_tolerance_certificate(
            result.schedule, result.expanded_algorithm, **kwargs
        )
    return result.schedule, reference, ladder


def _counts(certificate) -> list[tuple[int, int, int, int]]:
    return [
        (level.failures, level.link_failures, level.masked_subsets,
         level.total_subsets)
        for level in certificate.levels
    ]


def test_below_the_cap_no_warning():
    _, reference, ladder = _certificates(_wide_problem(4))
    assert _counts(reference) == _counts(ladder)
    assert reference.certified and ladder.certified


def test_reference_enumerates_every_processor_subset():
    processors = ENUMERATION_CAP + 1
    schedule, reference, ladder = _certificates(_wide_problem(processors))
    assert [level.total_subsets for level in reference.levels] == [
        math.comb(processors, size) for size in range(schedule.npf + 2)
    ]
    assert _counts(ladder) == _counts(reference)
    assert certificate_mismatches(ladder, reference) == []
    assert reference.certified


def test_reference_enumerates_every_link_subset():
    schedule, reference, ladder = _certificates(
        _linky_problem(), max_link_failures=1
    )
    links = len(schedule.link_names())
    assert links > ENUMERATION_CAP
    assert [
        (level.failures, level.link_failures, level.total_subsets)
        for level in reference.levels
    ] == [
        (size, link_size, math.comb(6, size) * math.comb(links, link_size))
        for size in range(schedule.npf + 2)
        for link_size in range(2)
    ]
    assert _counts(ladder) == _counts(reference)
    assert certificate_mismatches(ladder, reference) == []


def test_reference_ignores_the_ladder_level_ceiling(monkeypatch):
    # The ceiling only routes the ladder past enumeration (projection
    # here); the reference still replays all C(13, 2) subsets.
    monkeypatch.setattr(reliability_module, "MAX_SUBSETS_PER_LEVEL", 10)
    processors = ENUMERATION_CAP + 1
    _, reference, ladder = _certificates(_wide_problem(processors))
    assert reference.level(2).total_subsets == math.comb(processors, 2)
    assert ladder.level(2).method == "projected"
    assert _counts(ladder) == _counts(reference)
    assert certificate_mismatches(ladder, reference) == []
