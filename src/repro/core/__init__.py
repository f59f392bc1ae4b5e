"""FTBAR — the paper's fault-tolerant scheduling heuristic (section 4)."""

from repro._lazy import lazy_namespace

__all__ = [
    "CompiledProblem",
    "CompiledReadySet",
    "DuplicationStats",
    "FTBARResult",
    "FTBARScheduler",
    "FTBARStats",
    "KernelPlanCache",
    "LinkState",
    "PlacementPlan",
    "PlacementPlanner",
    "PlannedComm",
    "PredecessorFeed",
    "PressureCalculator",
    "SchedulerOptions",
    "SchedulingKernel",
    "StartTimeMinimizer",
    "StepRecord",
    "commit_plan",
    "schedule_ftbar",
]

# Public names resolve on first read (PEP 562): see repro._lazy.
__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "compile": ("CompiledProblem",),
        "ftbar": (
            "FTBARResult",
            "FTBARScheduler",
            "FTBARStats",
            "StepRecord",
            "schedule_ftbar",
        ),
        "kernel": ("CompiledReadySet", "KernelPlanCache", "SchedulingKernel"),
        "minimize": ("DuplicationStats", "StartTimeMinimizer"),
        "options": ("SchedulerOptions",),
        "placement": (
            "LinkState",
            "PlacementPlan",
            "PlacementPlanner",
            "PlannedComm",
            "PredecessorFeed",
            "commit_plan",
        ),
        "pressure": ("PressureCalculator",),
    },
)
