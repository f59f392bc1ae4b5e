"""Tunable knobs of the FTBAR scheduler.

The defaults reproduce the paper's algorithm; the flags exist for the
ablation experiments (E8 in DESIGN.md) that quantify how much each
design choice contributes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SchedulerOptions:
    """Configuration of :class:`~repro.core.ftbar.FTBARScheduler`.

    Parameters
    ----------
    duplication:
        Apply the ``Minimize_start_time`` LIP-duplication procedure when
        placing replicas (section 4.2, micro-step Â).  Disabling it
        yields plain active replication.
    link_insertion:
        Allow comms to be inserted into idle gaps of link timelines
        instead of always appending after the last scheduled comm.  The
        paper's description is append-only; insertion is a common
        refinement and is measured by the ablation bench.
    processor_aware_pressure:
        Replace the paper's pressure ``σ = S_worst(o, p) + S̄(o)`` (whose
        ``S̄`` uses the *average* execution time of ``o``) by the
        processor-aware ``σ = S_worst(o, p) + Exe(o, p) + tail(o)``,
        which accounts for how slowly ``o`` actually runs on ``p``.
        Off by default: the paper's formula is what reproduces its
        numbers exactly (the worked example lands on 15.05 with it); the
        aware variant is an improvement measured by the ablation bench
        (it finds 12.05 on the same example).
    npl:
        Override of the problem's link-failure hypothesis ``Npl``
        (``None`` keeps the problem's own value).  With an effective
        ``Npl >= 1`` every inter-processor transfer is scheduled over
        ``Npl + 1`` link-disjoint routes; ``Npl = 0`` is bit-identical
        to the paper's single-route engine.
    compiled:
        Run the compiled scheduling kernel, the fast path: operations,
        processors, links and edges are interned to dense integer ids
        once per problem, and the per-step inner loop (ready-set sweep,
        cached candidate pressure evaluation, placement trials) runs as
        batched passes over flat preallocated arrays (see
        :mod:`repro.core.kernel`).  ``compiled=False`` selects the
        reference engine instead: the seed loop that rescans the
        candidates and replans every ``(operation, processor)`` pair
        from scratch at each macro-step.  Both engines produce
        bit-identical schedules, observer streams and content hashes;
        the reference is the oracle the kernel is tested against.  The
        reference engine also runs whenever ``link_insertion`` is set:
        gap insertion makes whole link timelines relevant, which the
        kernel's flat append-mode arrays deliberately do not model.
    symmetry:
        Prune isomorphic candidate placements in the compiled kernel:
        the architecture's processor/link automorphism group is computed
        at compile time (:mod:`repro.core.symmetry`) and, while the
        partial schedule is still invariant under a generator, only one
        representative processor per orbit is evaluated — the σ of the
        other orbit members is a bit-identical copy, so schedules,
        observer streams and content hashes are unchanged (the
        ``pressure_evaluations`` / ``cache_hits`` counters shrink;
        ``FTBARStats.symmetry_pruned`` counts the skipped pairs).  Only
        the compiled kernel implements the pruning; the reference engine
        ignores the flag.  ``symmetry=False`` is the escape hatch that
        restores the exhaustive sweep (and the PR-5 counter pins).
    """

    duplication: bool = True
    link_insertion: bool = False
    processor_aware_pressure: bool = False
    npl: int | None = None
    compiled: bool = True
    symmetry: bool = True
