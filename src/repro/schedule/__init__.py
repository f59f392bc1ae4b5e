"""Static schedule model: events, timelines, validation, rendering."""

from repro._lazy import lazy_namespace

__all__ = [
    "Schedule",
    "ScheduleSnapshot",
    "ScheduledComm",
    "ScheduledOperation",
    "ValidationReport",
    "algorithm_to_dot",
    "architecture_to_dot",
    "assert_valid_schedule",
    "render_gantt",
    "schedule_table",
    "schedule_to_dot",
    "validate_schedule",
]

# Public names resolve on first read (PEP 562): see repro._lazy.
__getattr__, __dir__ = lazy_namespace(
    __name__,
    {
        "events": ("ScheduledComm", "ScheduledOperation"),
        "gantt": ("render_gantt", "schedule_table"),
        "graphviz": ("algorithm_to_dot", "architecture_to_dot", "schedule_to_dot"),
        "schedule": ("Schedule", "ScheduleSnapshot"),
        "validation": (
            "ValidationReport",
            "assert_valid_schedule",
            "validate_schedule",
        ),
    },
)
