"""Immutable scheduled events: operation replicas and communications.

A static schedule is a set of timed events on resources: operation
replicas on processors and comms on links.  Events are frozen
dataclasses, so timelines and indexes can share them freely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, order=True, slots=True)
class ScheduledOperation:
    """One replica of an operation placed on a processor.

    ``replica`` numbers the replicas of one operation from 0; the
    ``duplicated`` flag marks extra replicas created by the
    ``Minimize_start_time`` LIP-duplication beyond the mandatory
    ``Npf + 1`` active replicas.
    """

    start: float
    end: float
    operation: str
    replica: int
    processor: str
    duplicated: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"operation {self.operation!r} ends ({self.end}) before it "
                f"starts ({self.start})"
            )
        if self.replica < 0:
            raise ValueError("replica index must be >= 0")

    @property
    def duration(self) -> float:
        """Execution time of this replica on its processor."""
        return self.end - self.start

    def label(self) -> str:
        """Short human-readable identity, e.g. ``A/1@P3``."""
        return f"{self.operation}/{self.replica}@{self.processor}"

    def shifted(self, delta: float) -> "ScheduledOperation":
        """A copy displaced in time by ``delta`` (used by tests)."""
        return replace(self, start=self.start + delta, end=self.end + delta)


@dataclass(frozen=True, order=True, slots=True)
class ScheduledComm:
    """One data transfer on a link, from one replica to another.

    A comm carries the data-dependency ``source . target`` from the
    ``source_replica``-th replica of ``source`` (on ``source_processor``)
    toward the ``target_replica``-th replica of ``target`` (on
    ``target_processor``).  Multi-hop routes produce one comm per hop with
    increasing ``hop_index``; ``target_processor`` is then the next-hop
    relay for intermediate comms.  Under link-failure tolerance
    (``Npl >= 1``) one transfer is carried over ``Npl + 1`` link-disjoint
    routes; ``route`` numbers the copies from 0, and each copy has its
    own hop chain.
    """

    start: float
    end: float
    source: str
    target: str
    source_replica: int
    target_replica: int
    link: str
    source_processor: str
    target_processor: str
    hop_index: int = 0
    route: int = 0

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(
                f"comm {self.source!r}->{self.target!r} ends ({self.end}) "
                f"before it starts ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Transmission time on the link."""
        return self.end - self.start

    @property
    def edge(self) -> tuple[str, str]:
        """The data-dependency this comm implements."""
        return (self.source, self.target)

    def label(self) -> str:
        """Short human-readable identity, e.g. ``I/0->A/1 on L1.3``."""
        return (
            f"{self.source}/{self.source_replica}->"
            f"{self.target}/{self.target_replica} on {self.link}"
        )
