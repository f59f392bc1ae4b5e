"""Generated differential test: compiled kernel vs reference engine.

The golden corpus and the kernel corpus pin hand-picked problems; this
property widens the proof to generated ones.  Over random problems with
N in 6–20 operations, P in 2–5 processors, npf in 0–2 and npl in 0–1
(where the topology offers two link-disjoint routes) on fully connected,
bus, ring and star interconnects, the kernel's full decision trace —
events, comms and the ``StepRecord`` stream — must equal the reference
engine's (``SchedulerOptions(compiled=False)``).  Both the scalar and the
vectorised kernel sweeps are drawn.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_compiled_kernel import _variant
from test_engine_equivalence import ftbar_trace

from repro.core import kernel as kernel_module
from repro.core.options import SchedulerOptions
from repro.hardware.topologies import fully_connected, ring, single_bus, star
from repro.workloads.random_dag import RandomWorkloadConfig, generate_problem

REFERENCE = SchedulerOptions(compiled=False)

TOPOLOGIES = {
    "fc": fully_connected,
    "bus": single_bus,
    "ring": ring,
    "star": star,
}


@st.composite
def differential_cases(draw):
    """A generated problem on one topology, plus the sweep to run."""
    processors = draw(st.integers(min_value=2, max_value=5))
    topology = draw(st.sampled_from(sorted(TOPOLOGIES)))
    npf = draw(st.integers(min_value=0, max_value=min(2, processors - 1)))
    # Only fully connected and ring interconnects of 3+ processors
    # offer two link-disjoint routes between every processor pair.
    npl_ok = topology in ("fc", "ring") and processors >= 3
    npl = draw(st.integers(min_value=0, max_value=1)) if npl_ok else 0
    base = generate_problem(
        RandomWorkloadConfig(
            operations=draw(st.integers(min_value=6, max_value=20)),
            ccr=draw(st.sampled_from([0.5, 1.0, 2.0])),
            processors=processors,
            npf=npf,
            heterogeneous=draw(st.booleans()),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
        )
    )
    problem = _variant(base, TOPOLOGIES[topology](processors), topology)
    problem.npl = npl
    return problem, draw(st.booleans())


@given(case=differential_cases())
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_kernel_trace_equals_reference_trace(case):
    problem, vector = case
    reference = ftbar_trace(problem, REFERENCE)
    # The vector sweep normally waits for larger problems; dropping its
    # size gate (a pure speed choice) exercises it on these small ones.
    gate = 0 if vector else kernel_module._VECTOR_MIN_CELLS
    with mock.patch.object(kernel_module, "_VECTOR_MIN_CELLS", gate):
        kernel = ftbar_trace(problem, SchedulerOptions())
    assert kernel == reference
