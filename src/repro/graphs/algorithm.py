"""The algorithm model: a data-flow graph of operations.

Section 3.2 of the paper models the algorithm as a directed graph whose
vertices are operations and whose edges are data-dependencies.  The graph
is executed once per *iteration* (one reaction to sensor inputs).  Within
an iteration the graph must be acyclic once memory operations are expanded
(a ``mem`` behaves like a register: its output precedes its input, so a
cycle through a ``mem`` is legal in the source graph and is broken by the
expansion of :meth:`AlgorithmGraph.expand_memories`).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.exceptions import GraphError
from repro.graphs.operations import (
    Operation,
    OperationKind,
    memory_read_name,
    memory_write_name,
)

if TYPE_CHECKING:  # optional export dependency, see ``to_networkx``
    import networkx as nx


class AlgorithmGraph:
    """A directed data-flow graph of :class:`Operation` vertices.

    The class keeps plain adjacency dicts and adds the paper's domain
    vocabulary (operations, data-dependencies, sources/sinks, levels)
    plus validation.  All query methods return deterministically
    ordered results so that the scheduler is reproducible.

    Examples
    --------
    >>> alg = AlgorithmGraph()
    >>> _ = alg.add_operation("I", OperationKind.EXTERNAL_IO)
    >>> _ = alg.add_operation("A")
    >>> alg.add_dependency("I", "A")
    >>> alg.predecessors("A")
    ('I',)
    """

    def __init__(self, name: str = "algorithm") -> None:
        self.name = name
        #: Operations by name, in insertion order.
        self._ops: dict[str, Operation] = {}
        #: ``source -> {target: data_size}`` and its mirror
        #: ``target -> {source: data_size}``.
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        # Memoized adjacency views: the scheduler asks for the (sorted)
        # predecessors/successors of an operation on every trial plan.
        self._pred_view: dict[str, tuple[str, ...]] = {}
        self._succ_view: dict[str, tuple[str, ...]] = {}
        #: Bumped by every mutation; lets derived-table caches (the
        #: compiled kernel's content hashes) revalidate in O(1).
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(
        self,
        operation: Operation | str,
        kind: OperationKind | str = OperationKind.COMPUTATION,
    ) -> Operation:
        """Add a vertex; returns the stored :class:`Operation`.

        ``operation`` may be a ready-made :class:`Operation` or a bare
        name combined with ``kind``.  Adding a name twice with the same
        kind is idempotent; re-adding with a different kind raises
        :class:`~repro.exceptions.GraphError`.
        """
        if isinstance(operation, Operation):
            op = operation
        else:
            op = Operation(str(operation), OperationKind(kind))
        existing = self._ops.get(op.name)
        if existing is not None:
            if existing.kind is not op.kind:
                raise GraphError(
                    f"operation {op.name!r} already exists with kind "
                    f"{existing.kind.value!r} (got {op.kind.value!r})"
                )
            return existing
        self._ops[op.name] = op
        self._succ[op.name] = {}
        self._pred[op.name] = {}
        self._version += 1
        return op

    def add_dependency(self, source: str, target: str, data_size: float = 1.0) -> None:
        """Add the data-dependency ``source . target``.

        ``data_size`` is an abstract volume used when communication times
        are derived from link bandwidths instead of explicit tables.
        """
        for endpoint in (source, target):
            if endpoint not in self._ops:
                raise GraphError(f"unknown operation {endpoint!r}")
        if source == target:
            raise GraphError(f"self dependency on {source!r} is not allowed")
        if data_size <= 0:
            raise GraphError(f"data_size must be positive, got {data_size!r}")
        self._succ[source][target] = self._pred[target][source] = float(data_size)
        self._pred_view.pop(target, None)
        self._succ_view.pop(source, None)
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[str]:
        return iter(self.operation_names())

    def operation(self, name: str) -> Operation:
        """The :class:`Operation` stored under ``name``."""
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"unknown operation {name!r}") from None

    def operation_names(self) -> tuple[str, ...]:
        """All vertex names, sorted for determinism."""
        return tuple(sorted(self._ops))

    def operations(self) -> tuple[Operation, ...]:
        """All :class:`Operation` objects, sorted by name."""
        return tuple(self.operation(n) for n in self.operation_names())

    def dependencies(self) -> tuple[tuple[str, str], ...]:
        """All data-dependency edges, sorted for determinism."""
        return tuple(sorted(
            (source, target)
            for source, targets in self._succ.items()
            for target in targets
        ))

    def data_size(self, source: str, target: str) -> float:
        """Abstract data volume of the edge ``source . target``."""
        try:
            return self._succ[source][target]
        except KeyError:
            raise GraphError(f"unknown dependency {source!r} -> {target!r}") from None

    def has_dependency(self, source: str, target: str) -> bool:
        """True when the edge ``source . target`` exists."""
        return target in self._succ.get(source, ())

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Direct predecessors of ``name``, sorted."""
        cached = self._pred_view.get(name)
        if cached is not None:
            return cached
        if name not in self._ops:
            raise GraphError(f"unknown operation {name!r}")
        result = tuple(sorted(self._pred[name]))
        self._pred_view[name] = result
        return result

    def successors(self, name: str) -> tuple[str, ...]:
        """Direct successors of ``name``, sorted."""
        cached = self._succ_view.get(name)
        if cached is not None:
            return cached
        if name not in self._ops:
            raise GraphError(f"unknown operation {name!r}")
        result = tuple(sorted(self._succ[name]))
        self._succ_view[name] = result
        return result

    def sources(self) -> tuple[str, ...]:
        """Operations without predecessors (the external input interfaces)."""
        return tuple(n for n in self.operation_names() if not self._pred[n])

    def sinks(self) -> tuple[str, ...]:
        """Operations without successors (the external output interfaces)."""
        return tuple(n for n in self.operation_names() if not self._succ[n])

    def number_of_dependencies(self) -> int:
        """Number of data-dependency edges."""
        return sum(len(targets) for targets in self._succ.values())

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def _kahn_order(self, within: Iterable[str] | None = None) -> list[str]:
        """Kahn's algorithm, smallest ready name first.

        Runs on the subgraph induced by ``within`` (default: the whole
        graph).  Returns all of its vertices when it is a DAG — in the
        lexicographical topological order — and fewer when cycles block
        the rest.
        """
        nodes = self._ops if within is None else set(within)
        indegree = {
            name: sum(pred in nodes for pred in self._pred[name]) for name in nodes
        }
        ready = [name for name, degree in indegree.items() if degree == 0]
        heapq.heapify(ready)
        order: list[str] = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for successor in self._succ[name]:
                if successor in indegree:
                    indegree[successor] -= 1
                    if indegree[successor] == 0:
                        heapq.heappush(ready, successor)
        return order

    def is_acyclic(self) -> bool:
        """True when the graph is a DAG (memories must be expanded first)."""
        return len(self._kahn_order()) == len(self._ops)

    def topological_order(self) -> tuple[str, ...]:
        """The lexicographically smallest topological order of the operations."""
        order = self._kahn_order()
        if len(order) != len(self._ops):
            raise GraphError(f"graph {self.name!r} contains a cycle")
        return tuple(order)

    def levels(self) -> Mapping[str, int]:
        """ASAP level of each operation (sources are level 0)."""
        level: dict[str, int] = {}
        for node in self.topological_order():
            preds = self.predecessors(node)
            level[node] = 0 if not preds else 1 + max(level[p] for p in preds)
        return level

    def heights(self) -> Mapping[str, int]:
        """Height of each operation: longest edge-count path to a sink.

        Sinks have height 0.  Used by the HBP baseline, whose partitioning
        is height-based.
        """
        height: dict[str, int] = {}
        for node in reversed(self.topological_order()):
            succs = self.successors(node)
            height[node] = 0 if not succs else 1 + max(height[s] for s in succs)
        return height

    def _reachable(
        self, name: str, adjacency: dict[str, dict[str, float]]
    ) -> frozenset[str]:
        """Vertices reachable from ``name`` along ``adjacency`` (excluded)."""
        if name not in self._ops:
            raise GraphError(f"unknown operation {name!r}")
        seen: set[str] = set()
        stack = [name]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        seen.discard(name)
        return frozenset(seen)

    def descendants(self, name: str) -> frozenset[str]:
        """All operations reachable from ``name`` (excluded)."""
        return self._reachable(name, self._succ)

    def ancestors(self, name: str) -> frozenset[str]:
        """All operations from which ``name`` is reachable (excluded)."""
        return self._reachable(name, self._pred)

    def memory_operations(self) -> tuple[str, ...]:
        """Names of all ``mem`` vertices, sorted."""
        return tuple(n for n in self.operation_names() if self.operation(n).is_memory())

    # ------------------------------------------------------------------
    # validation / transformation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the structural invariants of an algorithm graph.

        Raises :class:`~repro.exceptions.GraphError` when the graph is
        empty, or when it has a cycle that does not go through a memory
        operation (register cycles are legal; combinational ones are not).
        """
        if len(self) == 0:
            raise GraphError(f"algorithm graph {self.name!r} is empty")
        if self.is_acyclic():
            return
        # A cycle is legal only when it traverses a mem vertex; expansion
        # then breaks it.  Some cycle avoids every memory iff the graph
        # minus its mem vertices is cyclic, so one Kahn pass over that
        # subgraph decides it (no cycle enumeration).
        cycle = self._combinational_cycle()
        if cycle is not None:
            raise GraphError(
                f"combinational cycle {' -> '.join(cycle)} in graph {self.name!r}"
            )

    def _combinational_cycle(self) -> list[str] | None:
        """A cycle avoiding every ``mem`` vertex, or ``None``.

        The witness starts at its smallest name.
        """
        combinational = [n for n, op in self._ops.items() if not op.is_memory()]
        blocked = set(combinational).difference(self._kahn_order(combinational))
        if not blocked:
            return None
        # Kahn left each blocked vertex with a blocked predecessor, so
        # walking backwards through them revisits a vertex: a cycle.
        walk = [min(blocked)]
        while True:
            previous = min(p for p in self._pred[walk[-1]] if p in blocked)
            if previous in walk:
                cycle = walk[walk.index(previous):][::-1]
                first = cycle.index(min(cycle))
                return cycle[first:] + cycle[:first]
            walk.append(previous)

    def expand_memories(self) -> tuple["AlgorithmGraph", Mapping[str, tuple[str, str]]]:
        """Split every ``mem`` M into ``M#read`` (source) and ``M#write``.

        The read half carries M's outgoing edges and the write half its
        incoming edges, which realises the register semantics of section
        3.2 ("the output precedes the input").  Both halves must be
        scheduled on the same processors; the returned mapping
        ``{mem_name: (read_name, write_name)}`` lets the scheduler pin
        them together.  Graphs without memories are returned as-is (same
        object) with an empty mapping.
        """
        mems = self.memory_operations()
        if not mems:
            return self, {}
        expanded = AlgorithmGraph(self.name)
        pairs: dict[str, tuple[str, str]] = {}
        for name in self.operation_names():
            op = self.operation(name)
            if op.is_memory():
                read, write = memory_read_name(name), memory_write_name(name)
                expanded.add_operation(read, OperationKind.MEMORY)
                expanded.add_operation(write, OperationKind.MEMORY)
                pairs[name] = (read, write)
            else:
                expanded.add_operation(op)
        for source, target in self.dependencies():
            size = self.data_size(source, target)
            src = pairs[source][0] if source in pairs else source
            dst = pairs[target][1] if target in pairs else target
            expanded.add_dependency(src, dst, size)
        if not expanded.is_acyclic():
            raise GraphError(
                f"graph {self.name!r} still cyclic after memory expansion"
            )
        return expanded, pairs

    def copy(self) -> "AlgorithmGraph":
        """Deep-enough copy (operations are immutable)."""
        clone = AlgorithmGraph(self.name)
        clone._ops = dict(self._ops)
        clone._succ = {name: dict(out) for name, out in self._succ.items()}
        clone._pred = {name: dict(into) for name, into in self._pred.items()}
        return clone

    def to_networkx(self) -> nx.DiGraph:
        """The graph as a :class:`networkx.DiGraph` (needs networkx).

        Nodes carry their :class:`Operation` under ``operation`` and
        edges their ``data_size``.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for name, op in self._ops.items():
            graph.add_node(name, operation=op)
        for source, targets in self._succ.items():
            for target, size in targets.items():
                graph.add_edge(source, target, data_size=size)
        return graph

    def __repr__(self) -> str:
        return (
            f"AlgorithmGraph(name={self.name!r}, operations={len(self)}, "
            f"dependencies={self.number_of_dependencies()})"
        )


def from_dependencies(
    edges: Iterable[tuple[str, str]],
    kinds: Mapping[str, OperationKind | str] | None = None,
    name: str = "algorithm",
) -> AlgorithmGraph:
    """Build a graph from an edge list, inferring plain computations.

    ``kinds`` optionally overrides the kind of specific operations.

    >>> g = from_dependencies([("I", "A"), ("A", "O")])
    >>> g.sources(), g.sinks()
    (('I',), ('O',))
    """
    kinds = dict(kinds or {})
    graph = AlgorithmGraph(name)
    seen: set[str] = set()
    for source, target in edges:
        for vertex in (source, target):
            if vertex not in seen:
                graph.add_operation(vertex, kinds.get(vertex, OperationKind.COMPUTATION))
                seen.add(vertex)
        graph.add_dependency(source, target)
    return graph
