"""Import budget of a CLI process: each verb loads only what it runs.

Deterministic (module sets, not timings).  Every check runs in a fresh
interpreter and inspects ``sys.modules`` after the command finished:
``schedule``, ``validate`` and ``certify`` on a small problem must not
load numpy, networkx, the campaign, fault-injection or baseline layers,
the experiment harness, ``concurrent.futures`` or ``logging``.  numpy is loaded only when a kernel passes
the vector-sweep gate.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
EXAMPLE = SRC.parent / "examples" / "problem_fc4_npf1_npl1.json"

#: Modules no small CLI run may load (a name and its submodules).
FORBIDDEN = (
    "numpy",
    "networkx",
    "repro.campaign",
    "repro.faultinject",
    "repro.baselines",
    "repro.analysis.experiments",
    # The scheduler is single-threaded: no executor, no logging setup.
    "concurrent.futures",
    "logging",
)

#: ``repro.analysis`` submodules each probe may load.
ANALYSIS_ALLOWED = {
    "import": set(),
    "schedule": set(),
    "validate": set(),
    "certify": {"repro.analysis.reliability", "repro.analysis.sampling"},
}

_CLI_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
from repro.cli import main
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), code
print(json.dumps(sorted(sys.modules)))
"""

_KERNEL_PROBE = """
import json, sys
from repro.core import kernel
from repro.core.ftbar import schedule_ftbar
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem
operations, processors = 160, 8
assert operations * processors >= kernel._VECTOR_MIN_CELLS
problem = generate_problem(RandomWorkloadConfig(
    operations=operations, ccr=1.0, processors=processors, npf=1, seed=5))
before = "numpy" in sys.modules
schedule_ftbar(problem)
print(json.dumps([before, "numpy" in sys.modules]))
"""


def _run(code: str, *args: str):
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("REPRO_TRACE", "REPRO_FAULT_PLAN")
    }
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("verb", sorted(ANALYSIS_ALLOWED))
def test_cli_loads_only_its_verb(verb):
    argv = [] if verb == "import" else [verb, str(EXAMPLE)]
    modules = set(_run(_CLI_PROBE, json.dumps(argv)))
    loaded = sorted(
        name for name in modules
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )
    assert loaded == [], f"{verb} loaded {loaded}"
    analysis = {name for name in modules if name.startswith("repro.analysis.")}
    assert analysis <= ANALYSIS_ALLOWED[verb], (
        f"{verb} loaded {sorted(analysis - ANALYSIS_ALLOWED[verb])}"
    )


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None, reason="numpy not installed"
)
def test_kernel_loads_numpy_at_the_vector_gate():
    assert _run(_KERNEL_PROBE) == [False, True]
