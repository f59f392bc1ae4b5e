"""Run one benchmark workload, check its outputs and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (and the tracing overhead)
instead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output passed its checks, 1 when any failed, and
2 when the checkout holds no program to measure.

``--tiny`` shrinks every input so a workload finishes in seconds (the
self-test uses it); ``--corrupt`` damages one output on purpose before
the checks, to show that they fire.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import harness

WORKLOADS = ("cli-small", "schedule-deep", "certify-wide", "campaign-grid")

#: Per-layer metrics a workload does not exercise; they are reported as
#: 0 (by prefix), every other per-layer metric must be measured.
BYPASSED = {
    "cli-small": ("campaign.", "cache.", "store."),
    "schedule-deep": ("cli.", "batch.", "certify.", "campaign.", "cache.", "store."),
    "certify-wide": ("cli.", "campaign.", "cache.", "store."),
    "campaign-grid": (
        "cli.", "io.", "symmetry.", "validation.", "batch.", "certify.",
        "kernel.steps", "kernel.cache_hit", "kernel.duplication",
        "kernel.symmetry_pruned",
    ),
}

EXPECTED_PATH = harness.BENCH_DIR / "expected.json"


@dataclass
class Context:
    """What a workload module needs for one run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    corrupt: bool
    work: Path
    result: harness.Result
    rec: harness.SpanRecorder = field(default_factory=harness.SpanRecorder)
    #: Expected outputs for the default seed (None otherwise).
    expected: dict | None = None


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs: every workload in seconds")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before the checks")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workload_module(workload: str):
    if workload == "cli-small":
        import wl_cli as module
    elif workload == "campaign-grid":
        import wl_campaign as module
    else:
        import wl_inprocess as module
    return module


def setup_samples(args: argparse.Namespace) -> list[float]:
    """Wall seconds of whole set-ups in fresh processes (median reported)."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(1 if args.tiny else 3):
        started = time.perf_counter()
        subprocess.run(command, check=True, capture_output=True, timeout=170)
        samples.append(time.perf_counter() - started)
    return samples


def expected_for(args: argparse.Namespace, result: harness.Result) -> dict | None:
    if args.tiny or args.seed != harness.DEFAULT_SEED:
        return None
    try:
        document = json.loads(EXPECTED_PATH.read_text())
        return document["workloads"][args.workload]
    except (OSError, KeyError, ValueError) as error:
        result.fail("expected", f"cannot read {EXPECTED_PATH.name}: {error}")
        return None


def fill_bypassed(ctx: Context) -> None:
    for entry in harness.load_spec()["per_layer"]:
        name = entry["name"]
        if name not in ctx.result.metrics and name.startswith(
            BYPASSED[ctx.workload]
        ):
            ctx.result.put(name, 0.0, entry["unit"], 0, bypassed=True)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    recorded_env = harness.clear_env()
    try:
        harness.load_program()
    except harness.ProgramMissing as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    work = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        module = workload_module(args.workload)
        result = harness.Result(args.workload, args.seed, bool(args.trace))
        ctx = Context(
            workload=args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), tiny=args.tiny, corrupt=args.corrupt,
            work=work, result=result,
        )
        if args.setup_only:
            module.setup(ctx)
            return 0
        ctx.expected = expected_for(args, result)
        try:
            module.run(ctx)
            crashed = False
        except Exception:  # the program failed: report it, with the result line
            result.fail("run", traceback.format_exc(limit=-3).replace("\n", " | "))
            crashed = True
        if ctx.trace:
            fill_bypassed(ctx)
        elif not crashed:
            samples = setup_samples(args)
            result.put("setup_s", statistics.median(samples), "s", len(samples))
        prov = harness.provenance(args.seed, recorded_env)
        return harness.emit(result, prov, ctx.rec if ctx.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
