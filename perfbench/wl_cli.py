"""``cli-small``: the designer's edit-schedule-check loop, as real processes.

One client, closed loop.  A request is one CLI process —
``schedule --output``, then ``validate``, then ``certify --json`` on the
same problem file — timed from spawn to exit.  The untraced run serves
every command twice in a row, a cold and a warm request (processes
share no state, so the two differ only by what the OS caches).

The traced run serves every command twice, once plain and once with
``REPRO_TRACE`` pointing at a fresh trace file, alternating which goes
first.  Startup is measured from outside with bare and import-only
interpreters; spans the program emits (compile, kernel, batch, certify
sampling) are folded in from its trace; the layers the program has no
span for (document I/O, validation, symmetry, the certificate as a
whole) are timed by replaying the command's calls in this process.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import time

from repro.analysis import event_boundary_times, fault_tolerance_certificate
from repro.core import schedule_ftbar
from repro.core.compile import reset_compile_cache
from repro.obs import read_trace
from repro.schedule import validate_schedule
from repro.schedule.serialization import (
    load_json,
    problem_from_dict,
    save_json,
    schedule_content_hash,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.simulation.batch import BatchScenarioEngine

import harness
import inputs
import layers

COMMANDS = ("schedule", "validate", "certify")


class Request:
    """One command on one problem file."""

    def __init__(self, ctx, index: int, cell, doc: dict, command: str):
        self.index = index
        self.cell = cell
        self.doc = doc
        self.command = command
        self.key = f"{index}:{cell.label}:{command}"
        self.problem_path = ctx.work / f"problem-{index}.json"
        self.out_path = ctx.work / f"{command}-{index}.json"
        args = [command, str(self.problem_path)]
        if command == "schedule":
            args += ["--output", str(self.out_path)]
        elif command == "certify":
            args += ["--json", str(self.out_path)]
        self.args = args
        self.first: dict | None = None


def spawn(args: list[str], **env) -> tuple[float, subprocess.CompletedProcess]:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args], env=harness.program_env(**env),
        cwd=harness.CHECKOUT, capture_output=True, text=True, timeout=170,
    )
    return time.perf_counter() - started, done


def serve(ctx, request: Request, **env) -> tuple[float, dict]:
    """One CLI process, spawn to exit, as a span of the benchmark's own."""
    if request.out_path.exists():
        request.out_path.unlink()
    ctx.rec.request = len(ctx.rec.spans)
    with ctx.rec.span(f"cli.{request.command}") as span:
        _, done = spawn(["-m", "repro", *request.args], **env)
    wall = span["dur"]
    outputs = {"returncode": done.returncode}
    if request.command != "validate" and request.out_path.exists():
        outputs["file_sha256"] = hashlib.sha256(
            request.out_path.read_bytes()
        ).hexdigest()
    return wall, outputs


def record_outputs(ctx, request: Request, outputs: dict) -> None:
    ctx.result.attempted += 1
    if request.first is None:
        request.first = outputs
    elif outputs != request.first:
        ctx.result.fail(request.key, f"outputs differ between runs: {outputs}")


def check(ctx, requests: list[Request], expected: dict | None) -> None:
    """Independent checks of each command's last outputs."""
    references: dict[int, tuple] = {}

    def reference(request: Request) -> tuple:
        """In-process schedule hash and per-scenario levels of one input."""
        if request.index not in references:
            result = schedule_ftbar(problem_from_dict(request.doc))
            references[request.index] = (
                schedule_content_hash(result.schedule),
                layers.reference_levels(
                    result.schedule, result.expanded_algorithm,
                    request.cell.boundaries, request.cell.npf,
                ),
            )
        return references[request.index]

    for request in requests:
        if request.first is None:
            continue
        if ctx.corrupt and request.index == 0 and request.command == "schedule":
            document = load_json(request.out_path)
            document["operations"] = document["operations"][1:]
            save_json(document, request.out_path)
        code = request.first["returncode"]
        want = expected["items"][request.index] if expected else None
        if request.command == "schedule":
            if code != 0:
                ctx.result.fail(request.key, f"exit code {code}")
                continue
            problem = layers.check_schedule_file(request.out_path, request.doc)
            if problem:
                ctx.result.fail(request.key, problem)
                continue
            got = schedule_content_hash(
                schedule_from_dict(load_json(request.out_path))
            )
            if got != reference(request)[0]:
                ctx.result.fail(request.key, "differs from an in-process schedule")
            if want and (want["label"] != request.cell.label
                         or want["schedule"] != got):
                ctx.result.fail(request.key, "schedule hash differs from expected")
        elif request.command == "validate":
            if code != 0:
                ctx.result.fail(request.key, f"validate exited {code}")
        else:
            if code not in (0, 1, 2) or not request.out_path.exists():
                ctx.result.fail(request.key, f"certify exited {code}")
                continue
            summary = layers.certificate_summary(load_json(request.out_path))
            if VERDICT_EXIT[summary["verdict"]] != code:
                ctx.result.fail(request.key, f"exit {code} for {summary['verdict']}")
            mismatch = layers.compare_certificate(
                summary, request.cell.npf, reference(request)[1]
            )
            if mismatch:
                ctx.result.fail(request.key, mismatch)
            if want and want["certificate"] != summary:
                ctx.result.fail(request.key, "certificate differs from expected")


#: ``certify`` exit codes by verdict.
VERDICT_EXIT = {"certified": 0, "refuted": 1, "estimated": 2}


def build(ctx) -> list[Request]:
    requests = []
    for index, (cell, doc) in enumerate(
        inputs.problems(ctx.workload, ctx.seed, ctx.tiny)
    ):
        for command in COMMANDS:
            requests.append(Request(ctx, index, cell, doc, command))
        save_json(doc, requests[-1].problem_path)
    return requests


def setup(ctx) -> list[Request]:
    requests = build(ctx)
    warm = Request(ctx, -1, inputs.design(ctx.workload, True)[0],
                   inputs.warmup_problem(ctx.workload, ctx.seed), "schedule")
    save_json(warm.doc, warm.problem_path)
    serve(ctx, warm)
    return requests


def run_untraced(ctx, requests: list[Request]) -> None:
    """Each command twice in a row; the first counts as cold, the second warm."""
    result = ctx.result
    legs: dict[str, list[float]] = {"cold": [], "warm": []}
    by_request: dict[str, dict[str, list[float]]] = {"cold": {}, "warm": {}}

    def serve_pair(request: Request) -> None:
        for leg in ("cold", "warm"):
            wall, outputs = serve(ctx, request)
            legs[leg].append(wall)
            by_request[leg].setdefault(request.key, []).append(wall)
            record_outputs(ctx, request, outputs)

    harness.run_passes(lambda k: requests, serve_pair, ctx.seconds)
    result.put("peak_rss_mb", harness.peak_rss_mb(children=True), "MB")
    result.put("throughput_per_s", harness.throughput(legs["cold"]),
               "1/s", len(legs["cold"]))
    result.put("warm_throughput_per_s", harness.throughput(legs["warm"]),
               "1/s", len(legs["warm"]))
    result.latency(legs["cold"])
    result.notes["samples_s"] = by_request
    makespans = []
    for request in requests:
        if request.command == "schedule" and request.out_path.exists():
            schedule = schedule_from_dict(load_json(request.out_path))
            makespans.append(schedule.makespan())
    result.put("makespan_geomean", harness.geomean(makespans), "time-units",
               len(makespans))


def startup(ctx) -> dict:
    """Bare interpreter and ``import repro.cli`` times, module counts."""
    reps = 1 if ctx.tiny else 5
    bare = statistics.median(spawn(["-c", "pass"])[0] for _ in range(reps))
    imported = statistics.median(
        spawn(["-c", "import repro.cli"])[0] for _ in range(reps)
    )
    _, done = spawn(["-c", (
        "import sys, repro.cli\n"
        "names = {m.split('.')[0] for m in sys.modules}\n"
        "third = sorted(n for n in names if n not in sys.stdlib_module_names"
        " and n not in ('repro', '__main__') and not n.startswith('_'))\n"
        "print(len(sys.modules), len(third))"
    )])
    loaded, third = (int(v) for v in done.stdout.split())
    return {
        "cli.interpreter_ms": bare * 1000.0,
        "cli.import_ms": (imported - bare) * 1000.0,
        "cli.modules_loaded": loaded,
        "cli.third_party_modules": third,
    }


def replay(ctx, request: Request) -> tuple[dict, dict]:
    """The command's calls in this process, for layers without spans."""
    rec = ctx.rec
    rec.request = len(rec.spans)
    reset_compile_cache()
    with rec.span("replay"):
        with rec.span("io.load"):
            problem = problem_from_dict(load_json(request.problem_path))
        layers.precompile(problem, rec)
        result = schedule_ftbar(problem)
        counts: dict = {
            "bytes_in": request.problem_path.stat().st_size, "bytes_out": 0,
        }
        scratch = ctx.work / "replay.json"
        schedule, algorithm = result.schedule, result.expanded_algorithm
        if request.command == "schedule":
            with rec.span("io.dump"):
                save_json(schedule_to_dict(schedule), scratch)
            counts["bytes_out"] = scratch.stat().st_size
        elif request.command == "validate":
            with rec.span("validation"):
                validate_schedule(
                    schedule, algorithm, problem.architecture,
                    problem.exec_times, problem.comm_times,
                )
        else:
            times = (
                event_boundary_times(schedule) if request.cell.boundaries
                else (0.0,)
            )
            engine = BatchScenarioEngine(schedule, algorithm)
            with rec.span("certify.certificate"):
                certificate = fault_tolerance_certificate(
                    schedule, algorithm, crash_times=times, engine=engine
                )
            with rec.span("io.dump"):
                save_json(certificate.to_dict(), scratch)
            counts["bytes_out"] = scratch.stat().st_size
            counts["engine"] = engine.stats
            counts["certificate"] = certificate
    return rec.totals(rec.request), counts


def run_traced(ctx, requests: list[Request]) -> None:
    start = startup(ctx)
    plain: list[float] = []
    traced: list[float] = []
    rows: list[dict] = []
    turn = [0]
    trace_path = ctx.work / "trace.jsonl"

    def pair(request):
        order = (False, True) if turn[0] % 2 == 0 else (True, False)
        turn[0] += 1
        for with_trace in order:
            if not with_trace:
                wall, outputs = serve(ctx, request)
                plain.append(wall)
            else:
                if trace_path.exists():
                    trace_path.unlink()
                wall, outputs = serve(
                    ctx, request, REPRO_TRACE=str(trace_path)
                )
                traced.append(wall)
                spans, snapshot = layers.fold_trace_lines(read_trace(trace_path))
                mine, counts = replay(ctx, request)
                rows.append(layer_row(wall, start, spans, snapshot, mine, counts))
            record_outputs(ctx, request, outputs)

    harness.run_passes(lambda k: requests, pair, ctx.seconds)
    result = ctx.result
    for name, value in start.items():
        result.put(name, value, "ms" if name.endswith("_ms") else "count")
    result.put_means(rows)
    result.put("obs.overhead_ratio",
               statistics.median(traced) / statistics.median(plain) - 1.0,
               "ratio", len(traced))
    means = {name: ctx.result.metrics[name]["value"] for name in TOP_LEVEL}
    result.notes["table"] = harness.layer_table(
        means, statistics.fmean(traced) * 1000.0, TOP_LEVEL
    )


#: Non-overlapping layers of one CLI process, in the order of its life.
TOP_LEVEL = (
    "cli.interpreter_ms", "cli.import_ms", "io.load_ms", "compile.ms",
    "kernel.schedule_ms", "validation.ms", "batch.compile_ms",
    "certify.certificate_ms", "io.dump_ms", "unattributed_ms",
)


def layer_row(wall, start, spans, snapshot, mine, counts) -> dict:
    ms = 1000.0
    counters = snapshot.get("counters", {})
    evaluations = counters.get("ftbar.pressure_evaluations", 0)
    hits = counters.get("ftbar.cache_hits", 0)
    run = spans.get("ftbar.run", 0.0)
    memo = snapshot.get("collected", {}).get("compile_cache", {})
    memo_hits = memo.get("core_hits", 0) + memo.get("variant_hits", 0)
    memo_all = memo_hits + memo.get("core_misses", 0) + memo.get("variant_misses", 0)
    row = {
        "compile.cache_hit_ratio": memo_hits / memo_all if memo_all else 0.0,
        "io.load_ms": mine.get("io.load", 0.0) * ms,
        "io.dump_ms": mine.get("io.dump", 0.0) * ms,
        "io.bytes_in": counts["bytes_in"],
        "io.bytes_out": counts["bytes_out"],
        "compile.ms": spans.get("ftbar.compile", 0.0) * ms,
        "symmetry.build_ms": mine.get("symmetry", 0.0) * ms,
        "kernel.symmetry_pruned": counters.get("ftbar.symmetry_pruned", 0),
        "kernel.schedule_ms": run * ms,
        "kernel.sweep_ms": spans.get("kernel.sweep", 0.0) * ms,
        "kernel.replay_repair_ms": spans.get("kernel.replay_repair", 0.0) * ms,
        "kernel.place_ms": spans.get("kernel.place", 0.0) * ms,
        "kernel.materialize_ms": spans.get("kernel.materialize", 0.0) * ms,
        "kernel.run_self_ms": (
            run - sum(spans.get(name, 0.0) for name in layers.KERNEL_PHASES)
        ) * ms,
        "kernel.steps": counters.get("ftbar.steps", 0),
        "kernel.pressure_evaluations": evaluations,
        "kernel.cache_hits": hits,
        "kernel.cache_hit_ratio": hits / (hits + evaluations) if hits + evaluations else 0.0,
        "kernel.duplication_attempts": counters.get("ftbar.duplication_attempts", 0),
        "validation.ms": mine.get("validation", 0.0) * ms,
        "batch.compile_ms": spans.get("batch.compile", 0.0) * ms,
        "certify.certificate_ms": mine.get("certify.certificate", 0.0) * ms,
        "certify.reliability_ms": 0.0,
        "certify.sample_ms": spans.get("certify.sample", 0.0) * ms,
        "certify.bounds_ms": spans.get("certify.bounds", 0.0) * ms,
    }
    batch = counts.get("engine")
    certificate = counts.get("certificate")
    methods = [level.method for level in certificate.levels] if certificate else []
    scenarios = batch.scenarios if batch else 0
    row.update({
        "batch.scenarios": scenarios,
        "batch.simulated_cone": batch.simulated_cone if batch else 0,
        "batch.simulated_full": batch.simulated_full if batch else 0,
        "batch.pruned_nominal": batch.pruned_nominal if batch else 0,
        "batch.memo_hits": batch.memo_hits if batch else 0,
        "batch.decisions": batch.decisions if batch else 0,
        "batch.copied": batch.copied if batch else 0,
        "batch.no_replay_ratio": (
            (batch.pruned_nominal + batch.memo_hits) / scenarios if scenarios else 0.0
        ),
        "certify.exact_levels": sum(m in ("exact", "projected") for m in methods),
        "certify.sampled_levels": sum(m in ("sampled", "bounds") for m in methods),
        "certify.samples": certificate.samples if certificate else 0,
    })
    attributed = start["cli.interpreter_ms"] + start["cli.import_ms"] + sum(
        row[name] for name in TOP_LEVEL[2:-1]
    )
    row["unattributed_ms"] = wall * ms - attributed
    return row


def run(ctx) -> None:
    requests = setup(ctx)
    if ctx.trace:
        run_traced(ctx, requests)
    else:
        run_untraced(ctx, requests)
    check(ctx, requests, ctx.expected)
