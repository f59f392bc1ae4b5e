"""Record ``expected.json``: the default seed's outputs from reference engines.

    python3 perfbench/make_expected.py

Schedules come from the seed full-recompute engine
(``SchedulerOptions(compiled=False, incremental=False)``), certificate
level counts from the per-scenario executor (``batched=False``), and
the campaign digest from a serial-backend run merged canonically.  The
benchmark compares its default-seed outputs against this file, so a
change to any engine's answers shows as a failed output.  Re-record
only for an intended change of behaviour, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness

harness.clear_env()
harness.load_program()

from repro.analysis import (  # noqa: E402
    event_boundary_times,
    fault_tolerance_certificate,
)
from repro.campaign.merge import merge_stores  # noqa: E402
from repro.campaign.runner import run_campaign  # noqa: E402
from repro.campaign.spec import campaign_from_dict  # noqa: E402
from repro.core import SchedulerOptions, schedule_ftbar  # noqa: E402
from repro.schedule.serialization import (  # noqa: E402
    problem_from_dict,
    schedule_content_hash,
)

import inputs  # noqa: E402
import layers  # noqa: E402

REFERENCE = SchedulerOptions(compiled=False, incremental=False)


def certificate_entry(schedule, algorithm, cell) -> dict:
    """Per-scenario counts of every level the batch engine resolves exactly."""
    times = (
        event_boundary_times(schedule) if cell.boundaries else (0.0,)
    )
    batch = layers.certificate_summary(
        fault_tolerance_certificate(schedule, algorithm, crash_times=times)
        .to_dict()
    )
    exact = [int(f) for f in batch["levels"]]
    reference = layers.reference_levels(
        schedule, algorithm, cell.boundaries, max(exact)
    )
    entry = {
        "verdict": batch["verdict"],
        "levels": {str(f): reference[f] for f in exact},
    }
    mismatch = layers.compare_certificate(entry, cell.npf, reference)
    if mismatch:
        raise SystemExit(f"{cell.label}: batch verdict disagrees: {mismatch}")
    return entry


def items(workload: str, certify: bool) -> list[dict]:
    out = []
    for cell, doc in inputs.problems(workload, harness.DEFAULT_SEED, False):
        result = schedule_ftbar(problem_from_dict(doc), REFERENCE)
        entry = {"label": cell.label, "schedule": schedule_content_hash(result.schedule)}
        if certify:
            entry["certificate"] = certificate_entry(
                result.schedule, result.expanded_algorithm, cell
            )
        out.append(entry)
        print(f"  {workload} {cell.label} done", flush=True)
    return out


def campaign_digest() -> str:
    spec = campaign_from_dict(inputs.campaign_spec(harness.DEFAULT_SEED, False))
    root = Path(tempfile.mkdtemp(dir=harness.BENCH_DIR))
    try:
        run_campaign(spec, backend="serial", store=root / "serial.jsonl")
        merge_stores([root / "serial.jsonl"], root / "merged.jsonl")
        return hashlib.sha256((root / "merged.jsonl").read_bytes()).hexdigest()
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    document = {
        "seed": harness.DEFAULT_SEED,
        "engines": {
            "schedule": "seed full-recompute engine (compiled=False, incremental=False)",
            "certificate": "per-scenario executor (batched=False)",
            "campaign": "serial backend, canonical merge",
        },
        "workloads": {
            "cli-small": {"items": items("cli-small", True)},
            "schedule-deep": {"items": items("schedule-deep", False)},
            "certify-wide": {"items": items("certify-wide", True)},
            "campaign-grid": {"merged_sha256": campaign_digest()},
        },
    }
    path = harness.BENCH_DIR / "expected.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
