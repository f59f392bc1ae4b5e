"""Declarative campaign specifications.

A *campaign* is a family of scheduling experiments described as a grid:
workload families x topologies x processor counts x Npf x Npl x CCR x
seeds, optionally decorated with failure-injection scenarios and a
scheduler configuration.  The spec is plain data — JSON-(de)serializable — so the
same campaign can be launched from the CLI, from the experiment
harness, or replayed on another machine, and its expansion into
:class:`~repro.campaign.jobs.Job` objects is deterministic.

The supported workload families are the repo's structured graphs
(:mod:`repro.workloads.families`) plus the paper's random levelled DAGs
(:mod:`repro.workloads.random_dag`).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from repro.core.options import SchedulerOptions
from repro.exceptions import SerializationError
from repro.schedule.serialization import load_json, save_json

SPEC_FORMAT_VERSION = 1

#: Workload families a spec may sweep over.
FAMILIES = ("in_tree", "out_tree", "butterfly", "gauss", "pipeline", "random")

#: Architecture topologies a spec may sweep over.
TOPOLOGIES = ("fully_connected", "single_bus", "ring", "star")

#: Quantities a job may compute (``ftbar`` is always measured).
MEASURES = ("ftbar", "non_ft", "hbp", "degraded", "reliability")

#: Crash-instant policies of the ``reliability`` measure.
CRASH_TIME_POLICIES = ("zero", "boundaries")

#: Execution backends a spec may select (see :mod:`repro.campaign.backends`).
BACKENDS = ("local", "serial", "directory")


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload family with its size parameters.

    ``size`` is the family's natural knob: tree depth for ``in_tree`` /
    ``out_tree``, stage count for ``butterfly`` and ``pipeline``, matrix
    size for ``gauss``, and the operation count ``N`` for ``random``.
    ``arity`` is the tree fan-in/out (or the pipeline width); the last
    two fields only matter for ``random`` graphs.
    """

    family: str
    size: int
    arity: int = 2
    heterogeneous: bool = False
    max_predecessors: int = 3

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise SerializationError(
                f"unknown workload family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.size < 1:
            raise SerializationError("workload size must be >= 1")
        if self.family == "gauss" and self.size < 2:
            raise SerializationError("gauss workload size must be >= 2")
        if self.arity < 1:
            raise SerializationError("workload arity must be >= 1")


@dataclass(frozen=True)
class FailureSpec:
    """A failure-injection scenario applied to every job of the grid.

    ``processors`` are indices into the architecture's processor list
    (0-based), so the same spec works across topologies and processor
    counts; jobs whose architecture is too small skip the scenario.
    """

    processors: tuple[int, ...]
    at: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "processors", tuple(self.processors))
        if any(index < 0 for index in self.processors):
            raise SerializationError("failure processor indices must be >= 0")


@dataclass(frozen=True)
class ReliabilitySpec:
    """Configuration of the ``reliability`` measure (certification jobs).

    Every job certifies its FTBAR schedule with the batched scenario
    engine and sweeps ``probabilities`` as the uniform per-processor
    failure probability — one reliability/MTTF figure per probability,
    the columns of a campaign heatmap (the ``npfs`` axis of the grid
    provides the rows).  ``crash_times`` selects the crash instants:
    ``"zero"`` is the paper's worst case (t = 0), ``"boundaries"``
    crashes at up to ``boundary_limit`` static event start dates.
    """

    probabilities: tuple[float, ...] = (0.01,)
    crash_times: str = "zero"
    boundary_limit: int = 16
    max_failures: int | None = None
    detection: str = "none"
    #: Combined enumeration bound on broken links (None = the job
    #: schedule's own ``npl``, so link-tolerant schedules are certified
    #: against exactly what they promise).
    max_link_failures: int | None = None
    #: Uniform per-link failure probability for the reliability sweep
    #: (None keeps the processor-only probability sum).
    link_probability: float | None = None
    #: Certification method: ``"auto"`` (the certify ladder: exact
    #: enumeration, projection, bounds, then sampling) or ``"sampled"``
    #: (force sampling).  The defaults of these four knobs are dropped
    #: from job digests so pre-sampling specs keep their identities.
    method: str = "auto"
    #: Confidence level of sampled intervals.
    confidence: float = 0.99
    #: Total sample budget per certificate / reliability estimate
    #: (None = the library defaults).
    budget: int | None = None
    #: User seed of the deterministic sampling RNG streams.
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "probabilities", tuple(float(q) for q in self.probabilities)
        )
        if self.link_probability is not None and not (
            0.0 <= self.link_probability <= 1.0
        ):
            raise SerializationError(
                f"link failure probability must be in [0, 1], "
                f"got {self.link_probability!r}"
            )
        if not self.probabilities:
            raise SerializationError(
                "a reliability spec needs at least one failure probability"
            )
        for probability in self.probabilities:
            if not 0.0 <= probability <= 1.0:
                raise SerializationError(
                    f"failure probability must be in [0, 1], got {probability!r}"
                )
        if self.crash_times not in CRASH_TIME_POLICIES:
            raise SerializationError(
                f"unknown crash-time policy {self.crash_times!r}; "
                f"expected one of {CRASH_TIME_POLICIES}"
            )
        if self.boundary_limit < 1:
            raise SerializationError("boundary_limit must be >= 1")
        if self.detection not in ("none", "timeout-array"):
            raise SerializationError(
                f"unknown detection policy {self.detection!r}"
            )
        if self.method not in ("auto", "sampled"):
            raise SerializationError(
                f"unknown certification method {self.method!r}; "
                f"expected 'auto' or 'sampled'"
            )
        for name in ("max_failures", "max_link_failures"):
            bound = getattr(self, name)
            if bound is not None and (
                type(bound) is not int or bound < 0
            ):
                raise SerializationError(
                    f"{name} must be an integer >= 0, got {bound!r}"
                )
        if not 0.0 < self.confidence < 1.0:
            raise SerializationError(
                f"confidence must be in (0, 1), got {self.confidence!r}"
            )
        if self.budget is not None and self.budget < 1:
            raise SerializationError("sample budget must be >= 1")


@dataclass(frozen=True)
class CampaignSpec:
    """The full grid of one experiment campaign."""

    name: str
    workloads: tuple[WorkloadSpec, ...]
    topologies: tuple[str, ...] = ("fully_connected",)
    processors: tuple[int, ...] = (4,)
    npfs: tuple[int, ...] = (1,)
    npls: tuple[int, ...] = (0,)
    ccrs: tuple[float, ...] = (1.0,)
    seeds: tuple[int, ...] = (0,)
    failures: tuple[FailureSpec, ...] = ()
    measures: tuple[str, ...] = ("ftbar", "non_ft")
    mean_execution: float = 10.0
    options: Mapping[str, bool] = field(default_factory=dict)
    reliability: ReliabilitySpec | None = None
    #: Default execution backend (``repro campaign run --backend``
    #: overrides).  Not part of any job's digest: the same campaign
    #: computes the same records whatever transport ran it.
    backend: str = "local"

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "topologies", tuple(self.topologies))
        object.__setattr__(self, "processors", tuple(self.processors))
        object.__setattr__(self, "npfs", tuple(self.npfs))
        object.__setattr__(self, "npls", tuple(self.npls))
        if any(npl < 0 for npl in self.npls):
            raise SerializationError("npl values must be >= 0")
        object.__setattr__(self, "ccrs", tuple(float(c) for c in self.ccrs))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "failures", tuple(self.failures))
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "options", dict(self.options))
        if not self.workloads:
            raise SerializationError("a campaign needs at least one workload")
        for topology in self.topologies:
            if topology not in TOPOLOGIES:
                raise SerializationError(
                    f"unknown topology {topology!r}; expected one of {TOPOLOGIES}"
                )
        for measure in self.measures:
            if measure not in MEASURES:
                raise SerializationError(
                    f"unknown measure {measure!r}; expected one of {MEASURES}"
                )
        unknown = set(self.options) - {
            f.name for f in SchedulerOptions.__dataclass_fields__.values()
        }
        if unknown:
            raise SerializationError(f"unknown scheduler options: {sorted(unknown)}")
        if "reliability" in self.measures and self.reliability is None:
            object.__setattr__(self, "reliability", ReliabilitySpec())
        if self.backend not in BACKENDS:
            raise SerializationError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )

    @property
    def grid_size(self) -> int:
        """Number of grid points before job deduplication."""
        return (
            len(self.workloads)
            * len(self.topologies)
            * len(self.processors)
            * len(self.npfs)
            * len(self.npls)
            * len(self.ccrs)
            * len(self.seeds)
        )

    def coordinates(self) -> Iterator[tuple]:
        """Iterate the grid in its canonical (deterministic) order."""
        return itertools.product(
            self.workloads,
            self.topologies,
            self.processors,
            self.npfs,
            self.npls,
            self.ccrs,
            self.seeds,
        )

    def scheduler_options(self) -> SchedulerOptions:
        """The scheduler configuration every job of the campaign uses."""
        return SchedulerOptions(**self.options)


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------

def campaign_to_dict(spec: CampaignSpec) -> dict:
    """Serialize a campaign spec to a JSON-compatible document."""
    document = asdict(spec)
    document["format_version"] = SPEC_FORMAT_VERSION
    document["workloads"] = [asdict(w) for w in spec.workloads]
    document["failures"] = [asdict(f) for f in spec.failures]
    document["reliability"] = (
        asdict(spec.reliability) if spec.reliability is not None else None
    )
    return document


def campaign_from_dict(document: Mapping) -> CampaignSpec:
    """Rebuild a campaign spec from its document form."""
    try:
        return CampaignSpec(
            name=document["name"],
            workloads=tuple(
                WorkloadSpec(**entry) for entry in document["workloads"]
            ),
            topologies=tuple(document.get("topologies", ("fully_connected",))),
            processors=tuple(document.get("processors", (4,))),
            npfs=tuple(document.get("npfs", (1,))),
            npls=tuple(document.get("npls", (0,))),
            ccrs=tuple(document.get("ccrs", (1.0,))),
            seeds=tuple(document.get("seeds", (0,))),
            failures=tuple(
                FailureSpec(
                    processors=tuple(entry["processors"]),
                    at=float(entry.get("at", 0.0)),
                )
                for entry in document.get("failures", [])
            ),
            measures=tuple(document.get("measures", ("ftbar", "non_ft"))),
            mean_execution=float(document.get("mean_execution", 10.0)),
            options=dict(document.get("options", {})),
            reliability=(
                ReliabilitySpec(
                    probabilities=tuple(
                        document["reliability"].get("probabilities", (0.01,))
                    ),
                    crash_times=document["reliability"].get("crash_times", "zero"),
                    boundary_limit=int(
                        document["reliability"].get("boundary_limit", 16)
                    ),
                    max_failures=document["reliability"].get("max_failures"),
                    detection=document["reliability"].get("detection", "none"),
                    max_link_failures=document["reliability"].get(
                        "max_link_failures"
                    ),
                    link_probability=document["reliability"].get(
                        "link_probability"
                    ),
                    method=document["reliability"].get("method", "auto"),
                    confidence=float(
                        document["reliability"].get("confidence", 0.99)
                    ),
                    budget=document["reliability"].get("budget"),
                    seed=int(document["reliability"].get("seed", 0)),
                )
                if document.get("reliability") is not None
                else None
            ),
            backend=document.get("backend", "local"),
        )
    except (KeyError, TypeError, AttributeError) as error:
        raise SerializationError(f"invalid campaign document: {error}") from error


def load_campaign(path: str | Path) -> CampaignSpec:
    """Read a campaign spec from a JSON file."""
    return campaign_from_dict(load_json(path))


def save_campaign(spec: CampaignSpec, path: str | Path) -> None:
    """Write a campaign spec as pretty-printed JSON."""
    save_json(campaign_to_dict(spec), path)
