"""In-process workloads: ``schedule-deep`` and ``certify-wide``.

One caller, closed loop: a request starts when the previous one has
returned.  The untraced run serves every input twice in a row: a
*cold* request, after emptying the program's process-wide content-hash
memos (compilation, symmetry, validation) so the input is new to it,
then a *warm* one on the same input, which the memos now hold.  The
traced run serves each input twice, untraced and traced in alternating
order, emptying the memos before each so both see the input as new; it
yields the per-layer table and the tracing overhead.
Every output is checked after the loops.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from repro.core.compile import compile_cache_stats, reset_compile_cache
from repro.schedule.serialization import schedule_content_hash

import harness
import inputs
import layers

#: Non-overlapping layers of one request, in call order.
TOP_LEVEL = (
    "io.load_ms", "compile.ms", "symmetry.build_ms", "kernel.schedule_ms",
    "validation.ms", "batch.compile_ms", "certify.certificate_ms",
    "certify.reliability_ms", "io.dump_ms", "unattributed_ms",
)


class Item:
    """One input and what the checks need to know about its outputs."""

    def __init__(self, ctx, index: int, cell, doc: dict):
        self.index = index
        self.cell = cell
        self.doc = doc
        self.out_path = ctx.work / f"schedule-{index}.json"
        self.bytes_in = len(json.dumps(doc, indent=2, sort_keys=True))
        self.key = f"{index}:{cell.label}"
        #: Outputs of the first request on this input; later requests
        #: on it must reproduce them.
        self.first: dict | None = None
        #: Schedule and algorithm of the first certify request.
        self.certified: tuple | None = None


def items_for(ctx) -> list[Item]:
    return [
        Item(ctx, index, cell, doc)
        for index, (cell, doc) in enumerate(
            inputs.problems(ctx.workload, ctx.seed, ctx.tiny)
        )
    ]


def serve(ctx, item: Item, *, split: bool = False) -> tuple[float, dict]:
    """One request; returns its wall seconds and the live results."""
    ctx.rec.request = len(ctx.rec.spans)
    started = time.perf_counter()
    with ctx.rec.span("request"):
        if ctx.workload == "schedule-deep":
            result, report = layers.schedule_request(
                item.doc, item.out_path, ctx.rec, split
            )
            live = {"result": result, "report": report}
        else:
            result, engine, certificate, reports = layers.certify_request(
                item.doc, item.cell.boundaries, ctx.rec, split
            )
            live = {
                "result": result, "engine": engine,
                "certificate": certificate, "reports": reports,
            }
    wall = time.perf_counter() - started
    record_outputs(ctx, item, live)
    return wall, live


def record_outputs(ctx, item: Item, live: dict) -> None:
    """Fingerprint the outputs (untimed); repeats must match the first."""
    schedule = live["result"].schedule
    outputs = {
        "schedule": schedule_content_hash(schedule),
        "makespan": schedule.makespan(),
    }
    if "report" in live:
        data = item.out_path.read_bytes()
        live["bytes_out"] = len(data)
        outputs["file_sha256"] = hashlib.sha256(data).hexdigest()
        outputs["valid"] = live["report"].ok
    else:
        outputs["certificate"] = layers.certificate_summary(
            live["certificate"].to_dict()
        )
        outputs["reliability"] = [r.reliability for r in live["reports"]]
    ctx.result.attempted += 1
    if item.first is None:
        item.first = outputs
        if "certificate" in outputs:
            item.certified = (schedule, live["result"].expanded_algorithm)
    elif outputs != item.first:
        ctx.result.fail(item.key, "outputs differ between requests on one input")


def corrupt(item: Item) -> None:
    """Damage one output on purpose, to show that the checks fire."""
    if "certificate" in item.first:
        verdict = item.first["certificate"]["verdict"]
        item.first["certificate"]["verdict"] = (
            "refuted" if verdict == "certified" else "certified"
        )
    else:
        document = layers.load_json(item.out_path)
        document["operations"] = document["operations"][1:]
        layers.save_json(document, item.out_path)


def check(ctx, items: list[Item]) -> None:
    """Independent checks of every input's outputs (outside timing)."""
    expected = ctx.expected
    for item in items:
        first = item.first
        if first is None:
            continue
        if ctx.corrupt and item.index == 0:
            corrupt(item)
        cell = item.cell
        if ctx.workload == "schedule-deep":
            if not first["valid"]:
                ctx.result.fail(item.key, "validate_schedule rejected it")
            problem = layers.check_schedule_file(item.out_path, item.doc)
            if problem:
                ctx.result.fail(item.key, problem)
        else:
            levels = layers.reference_levels(
                *item.certified, cell.boundaries, cell.npf
            )
            mismatch = layers.compare_certificate(
                first["certificate"], cell.npf, levels
            )
            if mismatch:
                ctx.result.fail(item.key, mismatch)
            if not all(0.0 <= r <= 1.0 for r in first["reliability"]):
                ctx.result.fail(item.key, f"reliability {first['reliability']}")
        if expected is not None:
            want = expected["items"][item.index]
            if want["label"] != cell.label or want["schedule"] != first["schedule"]:
                ctx.result.fail(item.key, "schedule hash differs from the expected file")
            if "certificate" in want and want["certificate"] != first["certificate"]:
                ctx.result.fail(
                    item.key,
                    f"certificate {first['certificate']} differs from the "
                    f"expected {want['certificate']}",
                )


def run_untraced(ctx, first_pass: list[Item]) -> list[Item]:
    """Each input twice in a row: cold (memos emptied), then warm.

    Every pass serves the same inputs, so two runs of one seed time the
    same requests; emptying the program's memos before the cold request
    makes it see the input as new.  Interleaving the legs spreads both
    over the whole run, so a slow phase of the host weighs on both
    alike.
    """
    result = ctx.result
    walls = {"cold": [], "warm": []}
    by_cell: dict[str, dict[int, list[float]]] = {"cold": {}, "warm": {}}

    def serve_pair(item: Item) -> None:
        for leg in ("cold", "warm"):
            if leg == "cold":
                reset_compile_cache()
            wall = serve(ctx, item)[0]
            walls[leg].append(wall)
            by_cell[leg].setdefault(item.index, []).append(wall)

    harness.run_passes(lambda k: first_pass, serve_pair, ctx.seconds)
    result.put("peak_rss_mb", harness.peak_rss_mb(children=False), "MB")
    for name, leg in (("throughput_per_s", "cold"),
                      ("warm_throughput_per_s", "warm")):
        result.put(name, harness.throughput(walls[leg]), "1/s", len(walls[leg]))
    result.latency(walls["cold"])
    result.notes["samples_s"] = by_cell
    makespans = [item.first["makespan"] for item in first_pass]
    result.put("makespan_geomean", harness.geomean(makespans), "time-units",
               len(makespans))
    return first_pass


def run_traced(ctx, first_pass: list[Item]) -> list[Item]:
    """Untraced/traced pairs per input, alternating which runs first."""
    walls = {False: [], True: []}
    rows: list[dict] = []
    memo = [0, 0]

    def pair(item: Item) -> None:
        order = (False, True) if len(rows) % 2 == 0 else (True, False)
        for traced in order:
            reset_compile_cache()
            if traced:
                with layers.ProgramTrace() as program:
                    wall, live = serve(ctx, item, split=True)
                spans, _ = program.fold()
                rows.append(layer_row(
                    item, wall, ctx.rec.totals(ctx.rec.request), spans, live
                ))
            else:
                wall, live = serve(ctx, item)
                stats = compile_cache_stats()
                hits = stats["core_hits"] + stats["variant_hits"]
                memo[0] += hits
                memo[1] += hits + stats["core_misses"] + stats["variant_misses"]
            walls[traced].append(wall)

    harness.run_passes(lambda k: first_pass, pair, ctx.seconds)
    result = ctx.result
    result.put_means(rows)
    result.put("compile.cache_hit_ratio", memo[0] / memo[1] if memo[1] else 0.0,
               "ratio", len(walls[False]))
    result.put(
        "obs.overhead_ratio",
        statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0,
        "ratio", len(walls[True]),
    )
    result.notes["table"] = harness.layer_table(
        {name: result.metrics[name]["value"] for name in rows[0]},
        statistics.fmean(walls[True]) * 1000.0, TOP_LEVEL,
    )
    return first_pass


def layer_row(item: Item, wall: float, mine: dict, spans: dict, live) -> dict:
    """Per-layer quantities of one traced request (ms and counts)."""
    ms = 1000.0
    stats = live["result"].stats
    evaluated = stats.pressure_evaluations + stats.cache_hits
    run = spans.get("ftbar.run", 0.0)
    row = {
        "io.load_ms": mine.get("io.load", 0.0) * ms,
        "io.dump_ms": mine.get("io.dump", 0.0) * ms,
        "io.bytes_in": item.bytes_in,
        "io.bytes_out": live.get("bytes_out", 0),
        "compile.ms": mine.get("compile", 0.0) * ms,
        "symmetry.build_ms": mine.get("symmetry", 0.0) * ms,
        "kernel.symmetry_pruned": stats.symmetry_pruned,
        "kernel.schedule_ms": mine.get("kernel.schedule", 0.0) * ms,
        "kernel.sweep_ms": spans.get("kernel.sweep", 0.0) * ms,
        "kernel.replay_repair_ms": spans.get("kernel.replay_repair", 0.0) * ms,
        "kernel.place_ms": spans.get("kernel.place", 0.0) * ms,
        "kernel.materialize_ms": spans.get("kernel.materialize", 0.0) * ms,
        "kernel.run_self_ms": (
            run - sum(spans.get(name, 0.0) for name in layers.KERNEL_PHASES)
        ) * ms,
        "kernel.steps": stats.steps,
        "kernel.pressure_evaluations": stats.pressure_evaluations,
        "kernel.cache_hits": stats.cache_hits,
        "kernel.cache_hit_ratio": stats.cache_hits / evaluated if evaluated else 0.0,
        "kernel.duplication_attempts": stats.duplication.attempts,
        "validation.ms": mine.get("validation", 0.0) * ms,
        "unattributed_ms": (wall - sum(
            mine.get(name, 0.0) for name in layers.TOP_LEVEL
        )) * ms,
    }
    engine = live.get("engine")
    if engine is not None:
        batch = engine.stats
        certificate = live["certificate"]
        methods = [level.method for level in certificate.levels]
        row.update({
            "batch.compile_ms": mine.get("batch.compile", 0.0) * ms,
            "batch.scenarios": batch.scenarios,
            "batch.simulated_cone": batch.simulated_cone,
            "batch.simulated_full": batch.simulated_full,
            "batch.pruned_nominal": batch.pruned_nominal,
            "batch.memo_hits": batch.memo_hits,
            "batch.decisions": batch.decisions,
            "batch.copied": batch.copied,
            "batch.no_replay_ratio": (
                (batch.pruned_nominal + batch.memo_hits) / batch.scenarios
                if batch.scenarios else 0.0
            ),
            "certify.certificate_ms": mine.get("certify.certificate", 0.0) * ms,
            "certify.reliability_ms": mine.get("certify.reliability", 0.0) * ms,
            "certify.sample_ms": spans.get("certify.sample", 0.0) * ms,
            "certify.bounds_ms": spans.get("certify.bounds", 0.0) * ms,
            "certify.exact_levels": sum(
                m in ("exact", "projected") for m in methods
            ),
            "certify.sampled_levels": sum(
                m in ("sampled", "bounds") for m in methods
            ),
            "certify.samples": certificate.samples + sum(
                report.samples for report in live["reports"]
            ),
        })
    return row


def setup(ctx) -> list[Item]:
    """First-pass inputs plus one untimed warm-up request of its own."""
    items = items_for(ctx)
    warm = Item(ctx, -1, inputs.design(ctx.workload, True)[0],
                inputs.warmup_problem(ctx.workload, ctx.seed))
    serve(ctx, warm)
    ctx.result.attempted -= 1  # the warm-up is not a measured request
    return items


def run(ctx) -> None:
    items = setup(ctx)
    checked = run_traced(ctx, items) if ctx.trace else run_untraced(ctx, items)
    check(ctx, checked)
