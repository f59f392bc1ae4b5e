"""The benchmark's calls into the program, one span per layer.

Every request function wraps each public call it makes in a span of
the benchmark's own :class:`~harness.SpanRecorder`, so per-layer time
is measured from outside the program.  With ``split=True`` (the traced
run) the request first calls the compilation layer itself —
``CompiledProblem`` and its ``symmetry_group()`` — and only then
``schedule_ftbar``, which finds both in the program's content-hash
memos; that is how compile and symmetry time are told apart from the
kernel without a span inside the program.

The checks at the bottom are the independent oracles: the schedule
validator and the per-scenario (``batched=False``) certificate engine.
"""

from __future__ import annotations

import warnings

from repro import obs
from repro.analysis import (
    event_boundary_times,
    fault_tolerance_certificate,
    schedule_reliability,
)
from repro.core import CompiledProblem, schedule_ftbar
from repro.schedule import validate_schedule
from repro.schedule.serialization import (
    load_json,
    problem_from_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.simulation.batch import BatchScenarioEngine

from inputs import PROBABILITIES

#: Program spans inside ``ftbar.run``; the rest of it is the run's self time.
KERNEL_PHASES = ("kernel.sweep", "kernel.place", "kernel.materialize")

#: Spans that do not overlap each other inside one request; the request
#: wall minus their sum is the unattributed remainder.
TOP_LEVEL = (
    "io.load", "compile", "symmetry", "kernel.schedule", "validation",
    "io.dump", "batch.compile", "certify.certificate", "certify.reliability",
)


def precompile(problem, rec) -> None:
    """Compile and build the symmetry group ahead of ``schedule_ftbar``.

    Random problems have no memory operations, so the scheduler's own
    compilation sees exactly these tables and hits the memos filled here.
    """
    with rec.span("compile"):
        compiled = CompiledProblem(
            problem.algorithm, problem.architecture, problem.exec_times,
            problem.comm_times, problem.npf, problem.npl, {},
        )
    with rec.span("symmetry"):
        compiled.symmetry_group()


def schedule_request(doc: dict, out_path, rec, split: bool):
    """Load, schedule, validate and save one problem (schedule-deep)."""
    with rec.span("io.load"):
        problem = problem_from_dict(doc)
    if split:
        precompile(problem, rec)
    with rec.span("kernel.schedule"):
        result = schedule_ftbar(problem)
    with rec.span("validation"):
        report = validate_schedule(
            result.schedule, result.expanded_algorithm, problem.architecture,
            problem.exec_times, problem.comm_times,
        )
    with rec.span("io.dump"):
        save_json(schedule_to_dict(result.schedule), out_path)
    return result, report


def certify_request(doc: dict, boundaries: bool, rec, split: bool):
    """The ``certify`` flow: schedule, certificate, two reliabilities."""
    with rec.span("io.load"):
        problem = problem_from_dict(doc)
    if split:
        precompile(problem, rec)
    with rec.span("kernel.schedule"):
        result = schedule_ftbar(problem)
    schedule, algorithm = result.schedule, result.expanded_algorithm
    times = event_boundary_times(schedule) if boundaries else (0.0,)
    with rec.span("batch.compile"):
        engine = BatchScenarioEngine(schedule, algorithm)
    with rec.span("certify.certificate"):
        certificate = fault_tolerance_certificate(
            schedule, algorithm, crash_times=times, engine=engine
        )
    with rec.span("certify.reliability"):
        reports = [
            schedule_reliability(
                schedule, algorithm,
                {name: q for name in schedule.processor_names()},
                crash_times=times, engine=engine,
            )
            for q in PROBABILITIES
        ]
    return result, engine, certificate, reports


# ----------------------------------------------------------------------
# the program's own tracer
# ----------------------------------------------------------------------

class ProgramTrace:
    """Turn on ``repro.obs`` for one request and fold what it emits."""

    def __enter__(self) -> "ProgramTrace":
        obs.metrics.reset()
        self.exporter = obs.ListExporter()
        obs.enable(self.exporter, meta={"source": "perfbench"})
        return self

    def __exit__(self, *exc) -> None:
        obs.disable(snapshot=True)

    def fold(self) -> tuple[dict[str, float], dict]:
        return fold_trace_lines(self.exporter.lines)


def fold_trace_lines(lines: list[dict]) -> tuple[dict[str, float], dict]:
    """Span totals and the final metrics snapshot of a trace stream."""
    spans = {
        entry["name"]: entry["total_s"] for entry in obs.aggregate_spans(lines)
    }
    snapshot = {}
    for line in lines:
        if line.get("type") == "metrics":
            snapshot = line["snapshot"]
    return spans, snapshot


# ----------------------------------------------------------------------
# independent checks
# ----------------------------------------------------------------------

def check_schedule_file(path, doc: dict) -> str | None:
    """Re-validate a saved schedule against its problem; ``None`` = ok."""
    problem = problem_from_dict(doc)
    try:
        schedule = schedule_from_dict(load_json(path))
    except Exception as error:  # a corrupted file is a failed output
        return f"unreadable schedule {path}: {error}"
    report = validate_schedule(
        schedule, problem.algorithm, problem.architecture,
        problem.exec_times, problem.comm_times, npf=problem.npf,
    )
    return None if report.ok else f"invalid schedule {path}: {report}"


def reference_levels(schedule, algorithm, boundaries: bool, max_failures: int):
    """Per-scenario (``batched=False``) masked/total counts per level.

    Only levels up to ``max_failures`` are enumerated: the in-hypothesis
    levels that decide the verdict.
    """
    times = event_boundary_times(schedule) if boundaries else (0.0,)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        certificate = fault_tolerance_certificate(
            schedule, algorithm, crash_times=times, batched=False,
            max_failures=max_failures,
        )
    return {
        level.failures: [level.masked_subsets, level.total_subsets]
        for level in certificate.levels
    }


def certificate_summary(document: dict) -> dict:
    """Verdict and exact level counts of a certificate document."""
    return {
        "verdict": document["verdict"],
        "levels": {
            str(level["failures"]): [level["masked"], level["total"]]
            for level in document["levels"]
            if level["method"] in ("exact", "projected")
            and level.get("link_failures", 0) == 0
        },
    }


def compare_certificate(summary: dict, npf: int, reference: dict) -> str | None:
    """Mismatch between a certificate and the per-scenario levels, if any.

    Exact levels must agree count for count.  The verdict must equal the
    reference's where every in-hypothesis level is exact; where one was
    sampled, "estimated" is allowed but a wrong proof never is.
    """
    all_exact = True
    refuted = False
    for failures in range(npf + 1):
        counts = list(reference[failures])
        refuted = refuted or counts[0] < counts[1]
        got = summary["levels"].get(str(failures))
        if got is None:
            all_exact = False
        elif list(got) != counts:
            return f"level {failures}: batch {got} != per-scenario {counts}"
    expected = "refuted" if refuted else "certified"
    verdict = summary["verdict"]
    if verdict != expected and (all_exact or verdict != "estimated"):
        return f"verdict {verdict} != per-scenario {expected}"
    return None
