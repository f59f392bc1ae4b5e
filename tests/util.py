"""Shared helpers for the test suite."""

from __future__ import annotations

from repro.graphs.algorithm import AlgorithmGraph, from_dependencies
from repro.hardware.architecture import Architecture
from repro.hardware.topologies import fully_connected
from repro.problem import ProblemSpec
from repro.timing.comm_times import CommunicationTimes
from repro.timing.constraints import RealTimeConstraints
from repro.timing.exec_times import ExecutionTimes


def uniform_problem(
    algorithm: AlgorithmGraph,
    processors: int = 3,
    exec_time: float = 1.0,
    comm_time: float = 0.5,
    npf: int = 0,
    rtc: RealTimeConstraints | None = None,
    name: str = "test-problem",
) -> ProblemSpec:
    """A problem with uniform timings on a fully connected architecture."""
    architecture = fully_connected(processors)
    exec_times = ExecutionTimes.uniform(
        algorithm.operation_names(), architecture.processor_names(), exec_time
    )
    comm_times = CommunicationTimes.uniform(
        algorithm.dependencies(), architecture.link_names(), comm_time
    )
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=exec_times,
        comm_times=comm_times,
        npf=npf,
        rtc=rtc or RealTimeConstraints(),
        name=name,
    )


def chain_problem(architecture: Architecture, name: str) -> ProblemSpec:
    """The chain I -> A -> O at npf = 1 with uniform timings."""
    algorithm = from_dependencies([("I", "A"), ("A", "O")])
    exec_times = ExecutionTimes.uniform(
        algorithm.operation_names(), architecture.processor_names(), 2.0
    )
    comm_times = CommunicationTimes.uniform(
        algorithm.dependencies(), architecture.link_names(), 1.0
    )
    return ProblemSpec(
        algorithm=algorithm,
        architecture=architecture,
        exec_times=exec_times,
        comm_times=comm_times,
        npf=1,
        name=name,
    )
