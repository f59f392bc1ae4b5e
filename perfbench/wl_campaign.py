"""``campaign-grid``: a paper-style grid on the ``directory`` backend.

A request is one job.  Each cycle runs two legs with one worker process:

* cold — an empty campaign directory and an empty cache; every job is
  claimed, computed, cached and stored, then the store is merged;
* warm — the same spec into a fresh store against the now-warm cache
  of the same campaign directory, then merged again; a warm leg is
  short, so each cycle runs ``WARM_LEGS`` of them.

Every merged store must be byte-identical to the merge of a
serial-backend run of the same spec, computed after the timed cycles.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics

from repro import obs
from repro.campaign.cache import ScheduleCache
from repro.campaign.merge import merge_stores
from repro.campaign.runner import run_campaign
from repro.campaign.spec import campaign_from_dict
from repro.campaign.store import ResultStore

import harness
import inputs
import layers

#: Worker processes of the directory backend.  Two workers on a 2-CPU
#: host slow each other's jobs by half and make the cold leg's time
#: depend on how the host places the two CPUs (it spread by 0.30 over
#: five seeds, against 0.06 with one worker), so one worker it is.
WORKERS = 1

WARM_LEGS = 2


def leg(ctx, spec, root, name: str, traced: bool = False) -> dict:
    """Run one leg into ``root`` and merge its store.

    With ``traced`` the program's tracer records the leg into memory;
    its folded span totals are returned under ``spans``.
    """
    store = root / f"{name}.jsonl"
    exporter = obs.ListExporter()
    if traced:
        obs.enable(exporter, meta={"source": "perfbench"})
    merged = root / f"{name}-merged.jsonl"
    ctx.rec.request = len(ctx.rec.spans)
    try:
        with ctx.rec.span(f"campaign.{name}_leg") as whole:
            report = run_campaign(
                spec, jobs=WORKERS, store=store,
                cache=root / "campaign" / "cache",
                backend="directory", directory=root / "campaign",
            )
            with ctx.rec.span("campaign.merge") as merge:
                merge_stores([store], merged)
    finally:
        if traced:
            obs.disable(snapshot=True)
    return {
        "report": report, "store": store, "merged": merged,
        "wall": whole["dur"], "merge": merge["dur"],
        "spans": layers.fold_trace_lines(exporter.lines)[0],
    }


def cycle(ctx, spec, index: int, traced: bool = False) -> list[dict]:
    """The cold leg, then the warm legs, in a fresh campaign directory."""
    root = ctx.work / f"cycle-{index}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    return [leg(ctx, spec, root, "cold", traced)] + [
        leg(ctx, spec, root, f"warm{k}", traced) for k in range(WARM_LEGS)
    ]


def job_elapsed(store) -> dict[str, float]:
    """Seconds each job took inside its worker, by job digest."""
    return {
        line["digest"]: line["elapsed_s"] for line in ResultStore(store).lines()
        if "digest" in line
    }


def setup(ctx):
    spec = campaign_from_dict(inputs.campaign_spec(ctx.seed, ctx.tiny))
    warm_doc = inputs.campaign_spec(ctx.seed + 1_000_003, True)
    warm_doc["workloads"] = warm_doc["workloads"][:1]
    warm_doc["npfs"] = [1]
    root = ctx.work / "warmup"
    root.mkdir(parents=True, exist_ok=True)
    leg(ctx, campaign_from_dict(warm_doc), root, "cold")
    return spec


def run(ctx) -> None:
    spec = setup(ctx)
    legs: list[list[dict]] = []
    if ctx.trace:
        run_traced(ctx, spec, legs)
    else:
        harness.run_passes(
            lambda k: [k], lambda k: legs.append(cycle(ctx, spec, k)),
            ctx.seconds,
        )
        result = ctx.result
        result.put("peak_rss_mb", max(
            harness.peak_rss_mb(children=False),
            harness.peak_rss_mb(children=True),
        ), "MB")
        jobs = legs[0][0]["report"].total_jobs
        colds = [c[0]["wall"] for c in legs]
        warms = [warm["wall"] for c in legs for warm in c[1:]]
        result.put("throughput_per_s", jobs * harness.throughput(colds),
                   "1/s", len(colds))
        result.put("warm_throughput_per_s", jobs * harness.throughput(warms),
                   "1/s", len(warms))
        by_job: dict[str, list[float]] = {}
        for c in legs:
            for digest, elapsed in job_elapsed(c[0]["store"]).items():
                by_job.setdefault(digest, []).append(elapsed)
        result.latency([e for elapsed in by_job.values() for e in elapsed])
        result.notes["samples_s"] = {"cold": colds, "warm": warms, "jobs": by_job}
        records = legs[0][0]["report"].records.values()
        result.put("makespan_geomean", harness.geomean(
            [record["ftbar"]["makespan"] for record in records]
        ), "time-units", len(records))
    check(ctx, spec, legs)


def run_traced(ctx, spec, legs) -> None:
    """Plain and traced cycles in alternating order; per-layer from traced."""
    walls = {False: [], True: []}
    traced_cycles: list[tuple[dict, dict]] = []

    def pair(_):
        order = (False, True) if len(legs) % 4 == 0 else (True, False)
        for traced in order:
            legs.append(cycle(ctx, spec, len(legs), traced))
            walls[traced].append(sum(entry["wall"] for entry in legs[-1]))
            if traced:
                traced_cycles.append(tuple(legs[-1][:2]))

    harness.run_passes(lambda k: [k], pair, ctx.seconds)
    rows = [layer_row(cold, warm) for cold, warm in traced_cycles]
    result = ctx.result
    result.put_means(rows)
    result.put("obs.overhead_ratio",
               statistics.median(walls[True]) / statistics.median(walls[False])
               - 1.0, "ratio", len(walls[True]))
    colds = [cold for cold, _ in traced_cycles]
    means = {
        "campaign.expand_ms": statistics.fmean(
            cold["spans"].get("campaign.expand", 0.0) for cold in colds
        ) * 1000,
        "campaign.dispatch_ms": statistics.fmean(
            cold["spans"].get("campaign.dispatch", 0.0) for cold in colds
        ) * 1000,
        "campaign.merge_ms": statistics.fmean(cold["merge"] for cold in colds) * 1000,
        "unattributed_ms": result.metrics["unattributed_ms"]["value"],
    }
    result.notes["table"] = harness.layer_table(
        means, statistics.fmean(cold["wall"] for cold in colds) * 1000,
        list(means),
    )


def layer_row(cold: dict, warm: dict) -> dict:
    """Per-layer quantities of one traced cycle (times per job or per leg).

    Job-internal spans come from the worker-side summaries the program
    writes into each cache entry's ``timing`` section.
    """
    report, warm_report = cold["report"], warm["report"]
    elapsed = list(job_elapsed(cold["store"]).values())
    spans = cold["spans"]
    dispatch = spans.get("campaign.dispatch", 0.0)
    cache = ScheduleCache(cold["store"].parent / "campaign" / "cache")
    phases: dict[str, float] = {}
    memo = [0, 0]
    evaluations = 0
    for digest, record in report.records.items():
        evaluations += record["ftbar"]["pressure_evaluations"]
        timing = (cache.get(digest) or {}).get("timing", {})
        for entry in timing.get("obs", {}).get("spans", ()):
            phases[entry["name"]] = phases.get(entry["name"], 0.0) + entry["total_s"]
        counts = timing.get("compile_cache", {})
        hits = counts.get("core_hits", 0) + counts.get("variant_hits", 0)
        memo[0] += hits
        memo[1] += hits + counts.get("core_misses", 0) + counts.get("variant_misses", 0)
    jobs = max(len(report.records), 1)
    per_job = {name: 1000.0 * total / jobs for name, total in phases.items()}
    run = per_job.get("ftbar.run", 0.0)
    events = dict(report.events)
    for kind, count in warm_report.events.items():
        events[kind] = events.get(kind, 0) + count
    return {
        "campaign.dispatch_s": dispatch,
        "campaign.job_ms": 1000.0 * statistics.fmean(elapsed),
        "campaign.parallel_efficiency": (
            sum(elapsed) / (WORKERS * dispatch) if dispatch else 0.0
        ),
        "campaign.claims": report.executed,
        "campaign.reclaims": events.get("lease_reclaimed", 0),
        "cache.hits": warm_report.cache_hits,
        "cache.misses": report.executed,
        "cache.hit_ratio": warm_report.cache_hits / warm_report.total_jobs,
        "store.bytes": cold["store"].stat().st_size,
        "campaign.merge_ms": 500.0 * (cold["merge"] + warm["merge"]),
        "compile.ms": per_job.get("ftbar.compile", 0.0),
        "compile.cache_hit_ratio": memo[0] / memo[1] if memo[1] else 0.0,
        "kernel.schedule_ms": run,
        "kernel.sweep_ms": per_job.get("kernel.sweep", 0.0),
        "kernel.place_ms": per_job.get("kernel.place", 0.0),
        "kernel.materialize_ms": per_job.get("kernel.materialize", 0.0),
        "kernel.replay_repair_ms": per_job.get("kernel.replay_repair", 0.0),
        "kernel.run_self_ms": run - sum(
            per_job.get(name, 0.0) for name in layers.KERNEL_PHASES
        ),
        "kernel.pressure_evaluations": evaluations / jobs,
        "unattributed_ms": 1000.0 * (
            cold["wall"] - spans.get("campaign.expand", 0.0) - dispatch
            - cold["merge"]
        ),
    }


def lines_by_digest(path) -> dict[str, bytes]:
    """The merged store's canonical lines, keyed by job digest."""
    return {
        json.loads(line)["digest"]: line
        for line in path.read_bytes().splitlines()
    }


def check(ctx, spec, legs) -> None:
    """Every merged store against the merged serial-backend store."""
    reference_root = ctx.work / "serial"
    shutil.rmtree(reference_root, ignore_errors=True)
    reference_root.mkdir(parents=True)
    run_campaign(spec, backend="serial", store=reference_root / "serial.jsonl")
    reference = reference_root / "serial-merged.jsonl"
    merge_stores([reference_root / "serial.jsonl"], reference)
    if ctx.corrupt:
        merged = legs[0][0]["merged"]
        merged.write_bytes(merged.read_bytes().replace(b'"makespan": ', b'"makespan": 1', 1))
    want = lines_by_digest(reference)
    for index, legs_of_cycle in enumerate(legs):
        for entry in legs_of_cycle:
            name = f"cycle{index}:{entry['store'].stem}"
            report = entry["report"]
            ctx.result.attempted += report.total_jobs
            if report.interrupted or report.completed != report.total_jobs:
                ctx.result.fail(name, f"{report.completed}/{report.total_jobs} jobs")
            got = lines_by_digest(entry["merged"])
            for key, line in want.items():
                if got.get(key) != line:
                    ctx.result.fail(f"{name}:{key[:12]}", "merged record differs from serial")
            if len(got) != len(want):
                ctx.result.fail(name, f"{len(got)} merged records, serial has {len(want)}")
    if ctx.expected is not None:
        digest = hashlib.sha256(reference.read_bytes()).hexdigest()
        if digest != ctx.expected["merged_sha256"]:
            ctx.result.fail("serial-merged", "serial merged store differs from expected")
