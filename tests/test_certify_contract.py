"""The one certify surface: its inputs, its hypothesis and its oracle check.

* a certificate records the hypothesis it actually verified —
  ``npf = min(schedule.npf, max_failures)`` like ``npl`` — and negative
  bounds are rejected, on both engines and in campaign specs;
* ``confidence`` outside (0, 1) and ``budget < 1`` are rejected by the
  library, not only by ``ReliabilitySpec``;
* ``method`` is ``"auto"`` or ``"sampled"``; the capped ``"exact"`` path
  and the ``reliability`` verb are gone, and every rejected input gives
  the CLI a one-line error with exit code 1;
* :func:`certificate_mismatches` / :func:`reliability_mismatch` hold the
  ladder to the per-scenario reference the way ``certify --compare``
  does.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.analysis.reliability import (
    FaultToleranceCertificate,
    ReliabilityReport,
    ToleranceLevel,
    certificate_mismatches,
    fault_tolerance_certificate,
    reliability_mismatch,
    schedule_reliability,
)
from repro.campaign.spec import ReliabilitySpec
from repro.cli import _build_parser, main
from repro.core.ftbar import schedule_ftbar
from repro.exceptions import SerializationError, SimulationError
from repro.workloads.paper_example import build_problem

FC4 = Path(__file__).parent.parent / "examples" / "problem_fc4_npf1_npl1.json"


@pytest.fixture(scope="module")
def paper():
    result = schedule_ftbar(build_problem())
    return result.schedule, result.expanded_algorithm


def _probabilities(schedule, q=0.01):
    return {p: q for p in schedule.processor_names()}


# ----------------------------------------------------------------------
# the verified hypothesis
# ----------------------------------------------------------------------

class TestHypothesis:
    @pytest.mark.parametrize("batched", [True, False])
    def test_bound_below_npf_weakens_the_claim(self, paper, batched):
        schedule, algorithm = paper
        assert schedule.npf == 1
        certificate = fault_tolerance_certificate(
            schedule, algorithm, max_failures=0, batched=batched
        )
        assert certificate.npf == 0
        assert [level.failures for level in certificate.levels] == [0]
        assert str(certificate).startswith(
            "fault-tolerance certificate (npf=0,"
        )

    @pytest.mark.parametrize("batched", [True, False])
    def test_default_bound_keeps_the_schedule_npf(self, paper, batched):
        schedule, algorithm = paper
        certificate = fault_tolerance_certificate(
            schedule, algorithm, batched=batched
        )
        assert certificate.npf == schedule.npf
        assert certificate.certified

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize(
        "bounds",
        [{"max_failures": -1}, {"max_link_failures": -1}],
        ids=["processors", "links"],
    )
    def test_negative_bounds_rejected(self, paper, batched, bounds):
        schedule, algorithm = paper
        with pytest.raises(SimulationError, match="must be >= 0"):
            fault_tolerance_certificate(
                schedule, algorithm, batched=batched, **bounds
            )

    @pytest.mark.parametrize(
        "bounds",
        [{"max_failures": -1}, {"max_link_failures": -2},
         {"max_failures": "1"}],
    )
    def test_spec_rejects_bad_bounds(self, bounds):
        with pytest.raises(SerializationError, match="integer >= 0"):
            ReliabilitySpec(**bounds)

    def test_spec_accepts_zero_bounds(self):
        spec = ReliabilitySpec(max_failures=0, max_link_failures=0)
        assert (spec.max_failures, spec.max_link_failures) == (0, 0)


# ----------------------------------------------------------------------
# sampling parameters and methods
# ----------------------------------------------------------------------

class TestParameters:
    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_confidence_outside_unit_interval_rejected(
        self, paper, confidence
    ):
        schedule, algorithm = paper
        with pytest.raises(SimulationError, match="confidence"):
            fault_tolerance_certificate(
                schedule, algorithm, confidence=confidence
            )
        with pytest.raises(SimulationError, match="confidence"):
            schedule_reliability(
                schedule, algorithm, _probabilities(schedule),
                confidence=confidence,
            )

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, paper, budget):
        schedule, algorithm = paper
        with pytest.raises(SimulationError, match="budget"):
            fault_tolerance_certificate(schedule, algorithm, budget=budget)
        with pytest.raises(SimulationError, match="budget"):
            schedule_reliability(
                schedule, algorithm, _probabilities(schedule), budget=budget
            )

    def test_exact_method_is_gone(self, paper):
        schedule, algorithm = paper
        with pytest.raises(SimulationError, match="'auto' or 'sampled'"):
            fault_tolerance_certificate(schedule, algorithm, method="exact")
        with pytest.raises(SimulationError, match="'auto' or 'sampled'"):
            schedule_reliability(
                schedule, algorithm, _probabilities(schedule), method="exact"
            )
        with pytest.raises(SerializationError, match="'auto' or 'sampled'"):
            ReliabilitySpec(method="exact")

    def test_sampled_certificate_requires_the_batch_engine(self, paper):
        schedule, algorithm = paper
        with pytest.raises(SimulationError, match="batch engine"):
            fault_tolerance_certificate(
                schedule, algorithm, method="sampled", batched=False
            )


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------

def _commands() -> dict:
    """The CLI's sub-command parsers by verb."""
    (commands,) = [
        action for action in _build_parser()._actions
        if action.dest == "command"
    ]
    return commands.choices


class TestCli:
    def test_thirteen_verbs(self):
        assert sorted(_commands()) == sorted([
            "example", "schedule", "simulate", "report", "iterate",
            "validate", "certify", "generate", "bench", "campaign",
            "chaos", "trace", "stats",
        ])

    def test_certify_flags(self):
        flags = {
            flag
            for action in _commands()["certify"]._actions
            for flag in action.option_strings
        }
        assert flags == {
            "-h", "--help", "--detection", "--npl", "--links",
            "--boundaries", "--probability", "--confidence", "--budget",
            "--seed", "--json", "--compare", "--trace",
        }

    def test_reliability_verb_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["reliability", str(FC4)])
        assert exit_info.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--links", "-1"], "max_link_failures must be >= 0"),
            (["--probability", "0.01", "--confidence", "1.5"], "confidence"),
            (["--budget", "-5"], "sample budget"),
        ],
    )
    def test_bad_input_is_a_one_line_error(self, flags, message, capsys):
        assert main(["certify", str(FC4), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert "CERTIFIED" not in captured.out


# ----------------------------------------------------------------------
# the --compare rule
# ----------------------------------------------------------------------

def _certificate(*levels, breaking=()):
    return FaultToleranceCertificate(
        npf=1,
        crash_times=(0.0,),
        levels=list(levels),
        breaking_subsets=[frozenset(subset) for subset in breaking],
    )


REFUTED = _certificate(
    ToleranceLevel(0, 1, 1), ToleranceLevel(1, 3, 4), breaking=[("P2",)]
)
CERTIFIED = _certificate(ToleranceLevel(0, 1, 1), ToleranceLevel(1, 4, 4))


class TestCompareRule:
    def test_identical_exact_certificates_agree(self):
        assert certificate_mismatches(REFUTED, REFUTED) == []

    def test_exact_counts_and_breaking_subsets_must_match(self):
        other = _certificate(
            ToleranceLevel(0, 1, 1), ToleranceLevel(1, 3, 4),
            breaking=[("P1",)],
        )
        assert certificate_mismatches(other, REFUTED) == ["breaking subsets"]
        assert "tolerance levels" in certificate_mismatches(
            CERTIFIED, REFUTED
        )

    def test_estimate_may_stand_for_a_refutation(self):
        estimated = _certificate(
            ToleranceLevel(0, 1, 1),
            ToleranceLevel(1, 50, 50, method="sampled", population=4,
                           samples=50, estimate=1.0, ci=(0.9, 1.0)),
        )
        assert estimated.verdict == "estimated"
        assert certificate_mismatches(estimated, REFUTED) == []

    def test_contradicting_proof_fails(self):
        bounds = _certificate(
            ToleranceLevel(0, 1, 1),
            ToleranceLevel(1, 0, 1, method="bounds", population=4),
        )
        assert bounds.verdict == "refuted"
        assert certificate_mismatches(bounds, CERTIFIED) == [
            "tolerance levels", "verdict"
        ]

    def test_level_shape_must_match(self):
        short = _certificate(ToleranceLevel(0, 1, 1))
        assert certificate_mismatches(short, CERTIFIED) == [
            "tolerance levels"
        ]

    def test_reliability_exact_is_bit_identical(self):
        truth = ReliabilityReport(0.99, 0.01, 4, 0.98)
        assert not reliability_mismatch(truth, truth)
        nudged = ReliabilityReport(math.nextafter(0.99, 1.0), 0.01, 4, 0.98)
        assert reliability_mismatch(nudged, truth)

    def test_reliability_sampled_must_contain_the_truth(self):
        truth = ReliabilityReport(0.99, 0.01, 4, 0.98)

        def sampled(ci):
            return ReliabilityReport(
                0.985, 0.0, 4, 0.98, method="sampled", confidence=0.99,
                ci=ci, samples=100,
            )

        assert not reliability_mismatch(sampled((0.98, 0.995)), truth)
        assert reliability_mismatch(sampled((0.95, 0.985)), truth)
