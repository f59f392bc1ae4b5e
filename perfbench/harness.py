"""Shared machinery of the benchmark: environment, spans, statistics, output.

Everything here is independent of the program under test.  The one
exception is :func:`load_program`, which puts the checkout's ``src/`` on
``sys.path`` (and refuses to run when it is missing), so the benchmark
always measures the code it was checked out with, never an installed
copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC_DIR = CHECKOUT / "src"
WORK_ROOT = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"
SPEC_PATH = CHECKOUT / "BENCHMARK.json"

#: The seed the expected-output file was recorded for.
DEFAULT_SEED = 1

#: Percentiles the latency tail is chosen from (highest one with at
#: least ten samples beyond it wins).
TAIL_LADDER = (50.0, 60.0, 70.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


class ProgramMissing(RuntimeError):
    """The checkout holds no program to measure."""


def clear_env() -> dict[str, str]:
    """Record and remove ``REPRO_*`` and interpreter-tuning variables.

    ``REPRO_*`` variables would change the program's behaviour (sweep
    workers, tracing, fault plans); ``PYTHON*`` ones the interpreter's
    (e.g. ``PYTHONDONTWRITEBYTECODE`` would make every CLI process
    recompile the program).  Clearing both measures the defaults a user
    gets; the recorded values go into the provenance.
    """
    recorded = {
        k: v for k, v in os.environ.items()
        if k.startswith("REPRO_") or (k.startswith("PYTHON") and k != "PYTHONPATH")
    }
    for key in recorded:
        del os.environ[key]
    sys.dont_write_bytecode = False
    return recorded


def load_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC_DIR / 'repro'}")
    sys.path.insert(0, str(SRC_DIR))


def program_env(**extra: str) -> dict[str, str]:
    """Environment of a CLI subprocess: the cleared one, with our ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# spans recorded by the benchmark itself
# ----------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans around the benchmark's own calls into each layer.

    Each span keeps its name, start, end, parent and the request it
    belongs to; :meth:`write` dumps them as JSONL when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request: int | None = None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "t0": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["t1"] = time.perf_counter()
            record["dur"] = record["t1"] - record["t0"]
            self._stack.pop()

    def totals(self, request: int) -> dict[str, float]:
        """Seconds per span name within one request."""
        totals: dict[str, float] = {}
        for record in self.spans:
            if record["request"] == request:
                totals[record["name"]] = (
                    totals.get(record["name"], 0.0) + record["dur"]
                )
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({"id": index, **record}) + "\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it.

    Below 25 samples that is the median (below 20 even the median has
    fewer than ten beyond it, and the median is still reported); ``n``
    is reported beside it.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def throughput(walls: list[float]) -> float:
    """Requests completed per second of request time.

    Runs serve whole passes, so ``walls`` holds every input of the mix
    equally often and this is the rate at the stated mix.
    """
    return len(walls) / sum(walls)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(*, children: bool) -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def run_passes(items_for_pass, serve, budget_s: float) -> int:
    """Closed loop over whole passes within ``budget_s``; returns the count.

    ``items_for_pass(k)`` gives the inputs of pass ``k``.  One pass
    always runs; another starts while at least half of it still fits
    the budget (judged by the previous pass), so every pass completes,
    the input mix is exactly the stated one, and the leg ends within
    half a pass of its budget.
    """
    started = time.perf_counter()
    passes = 0
    while True:
        pass_started = time.perf_counter()
        for item in items_for_pass(passes):
            serve(item)
        passes += 1
        last = time.perf_counter() - pass_started
        if time.perf_counter() - started + last / 2 > budget_s:
            return passes


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str | None:
    if shutil.which("git") is None or not (CHECKOUT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=CHECKOUT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _version(module: str) -> str | None:
    from importlib import metadata

    try:
        return metadata.version(module)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed: int, recorded_env: dict[str, str]) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _source_digest(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "seed": seed,
        "env_cleared": recorded_env,
    }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class Result:
    """Everything one run reports."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    #: First failure message per failed output (key -> message).
    failures: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, dict] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, key: str, message: str) -> None:
        """Count output ``key`` as failed (once, whatever fails in it)."""
        self.failures.setdefault(key, message)

    def put(self, name: str, value: float, unit: str, n: int = 1, **extra) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n, **extra}

    def put_means(self, rows: list[dict]) -> None:
        """Per-layer metrics: the mean of each quantity over ``rows``."""
        units = metric_units()
        for name in rows[0]:
            self.put(name, statistics.fmean(row[name] for row in rows),
                     units[name], len(rows))

    def latency(self, values_s: list[float]) -> None:
        """``latency_p50_ms`` and ``latency_tail_ms`` of request walls."""
        ms = [v * 1000.0 for v in values_s]
        p = tail_percentile(len(ms))
        self.put("latency_p50_ms", statistics.median(ms), "ms", len(ms))
        self.put(
            "latency_tail_ms", percentile(ms, p), "ms", len(ms), percentile=p
        )


def layer_table(means: dict[str, float], wall_ms: float, names) -> list[str]:
    """Human-readable split of the mean traced request into layers."""
    lines = [f"  layer split of the mean traced request ({wall_ms:.2f} ms):"]
    for name in names:
        value = means.get(name, 0.0)
        lines.append(
            f"    {name:28s} {value:12.3f} ms {100.0 * value / wall_ms:7.1f} %"
        )
    return lines


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units() -> dict[str, str]:
    """Unit of every metric ``BENCHMARK.json`` names."""
    spec = load_spec()
    return {
        entry["name"]: entry["unit"]
        for group in ("end_to_end", "per_layer") for entry in spec[group]
    }


def emit(result: Result, prov: dict, recorder: SpanRecorder | None) -> int:
    """Print the metric table and the final JSON line; return the exit code."""
    spec = load_spec()
    group = "per_layer" if result.trace else "end_to_end"
    wanted = [entry["name"] for entry in spec[group]]
    missing = [
        name for name in wanted
        if name not in result.metrics and name != "correct_ratio"
    ]
    for name in missing:
        result.fail(f"metric:{name}", f"metric {name} was not measured")
    failed = len(result.failures)
    attempted = max(result.attempted, failed, 1)
    if "correct_ratio" in wanted:
        result.put("correct_ratio", 1.0 - failed / attempted, "ratio", attempted)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{result.workload}-seed{result.seed}-trace{int(result.trace)}-{os.getpid()}"
    document = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": result.trace,
        "attempted": attempted,
        "failed": failed,
        "failures": result.failures,
        "metrics": result.metrics,
        "notes": result.notes,
        "provenance": prov,
    }
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n"
    )
    if recorder is not None:
        recorder.write(RESULTS_DIR / f"{stem}.spans.jsonl")

    print(f"workload {result.workload}  seed {result.seed}  "
          f"trace {int(result.trace)}  attempted {attempted}  failed {failed}")
    print(f"  source {prov['source_sha256'][:12]}  git {prov['git_sha']}  "
          f"host {prov['host']}  nproc {prov['nproc']}  "
          f"affinity {prov['affinity']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  networkx {prov['networkx']}")
    if prov["env_cleared"]:
        print(f"  cleared for the run: {prov['env_cleared']}")
    for name in wanted:
        if name in missing:
            continue
        metric = result.metrics[name]
        extra = "".join(
            f"  {k}={v}" for k, v in metric.items()
            if k not in ("value", "unit")
        )
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']:8s}{extra}")
    for key, message in list(result.failures.items())[:20]:
        print(f"  FAILED {key}: {message}")
    for line in result.notes.get("table", ()):
        print(line)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": result.metrics[name]["value"],
                   "unit": result.metrics[name]["unit"]}
            for name in wanted if name in result.metrics
        },
    }))
    return 0 if failed == 0 else 1
