"""Runtime behaviour: failure scenarios and schedule replay (section 5)."""

from repro._lazy import lazy_namespace

__all__ = [
    "BatchScenarioEngine",
    "BatchStats",
    "CompiledSchedule",
    "CompiledTrace",
    "DetectionPolicy",
    "EventStatus",
    "ExecutionTrace",
    "FailureScenario",
    "IterationOutcome",
    "IterativeSimulator",
    "IterativeTrace",
    "LinkFailure",
    "ProcessorFailure",
    "ScheduleSimulator",
    "SimulatedComm",
    "SimulatedOperation",
    "simulate",
    "simulate_iterations",
]

# Public names resolve on first read (PEP 562): see repro._lazy.
__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "batch": ("BatchScenarioEngine", "BatchStats"),
        "compiled": ("CompiledSchedule", "CompiledTrace"),
        "executor": ("DetectionPolicy", "ScheduleSimulator", "simulate"),
        "failures": ("FailureScenario", "LinkFailure", "ProcessorFailure"),
        "iterative": (
            "IterationOutcome",
            "IterativeSimulator",
            "IterativeTrace",
            "simulate_iterations",
        ),
        "trace": (
            "EventStatus",
            "ExecutionTrace",
            "SimulatedComm",
            "SimulatedOperation",
        ),
    },
)
