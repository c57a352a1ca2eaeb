"""The query graph representation of an SPJ block (paper Figure 3).

Nodes are relations (correlation variables); labeled edges are join
predicates between them; each node additionally carries its local
(single-table) predicates.  The System-R style enumerator consumes this
structure, and the workload generators produce chain / star / clique
shaped graphs for the enumeration experiments (E1, E3, E10).

Relation sets also have an int *bitmask* form: bit ``i`` stands for the
``i``-th alias in sorted order, so ascending bit order is ascending alias
order.  The enumerators' inner loops test connectivity on masks; the
alias-set methods are thin wrappers over the same tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import PlanError
from repro.expr.expressions import Expr, conjoin, conjuncts


@dataclass
class QueryGraphNode:
    """One relation in the query graph.

    Attributes:
        alias: correlation variable.
        table: underlying base table name.
        local_predicates: single-table predicates applying to this node.
    """

    alias: str
    table: str
    local_predicates: List[Expr] = field(default_factory=list)

    def local_predicate(self) -> Optional[Expr]:
        """All local predicates conjoined, or None."""
        return conjoin(self.local_predicates)


@dataclass
class QueryGraphEdge:
    """A join predicate connecting two or more nodes.

    Most edges are binary (two aliases); predicates touching three or more
    relations are kept as hyper-edges and applied once all their relations
    are joined.
    """

    aliases: FrozenSet[str]
    predicate: Expr


class QueryGraph:
    """Relations plus join predicates of one conjunctive query block."""

    def __init__(self) -> None:
        self._nodes: Dict[str, QueryGraphNode] = {}
        self._edges: List[QueryGraphEdge] = []
        # Bumped by every mutation: derived views below (and estimator
        # memos keyed on the graph) are valid for one version only.
        self.version = 0
        self._indexed = True
        self._aliases: List[str] = []
        self._bits: Dict[str, int] = {}
        self._edge_view: Tuple[QueryGraphEdge, ...] = ()
        self._edge_masks: Tuple[int, ...] = ()

    def _mutated(self) -> None:
        self.version += 1
        self._indexed = False

    def _index(self) -> None:
        """Rebuild the sorted-alias, bit and edge-mask views after a mutation."""
        if self._indexed:
            return
        self._aliases = sorted(self._nodes)
        self._bits = {alias: 1 << i for i, alias in enumerate(self._aliases)}
        self._edge_view = tuple(self._edges)
        self._edge_masks = tuple(
            sum(self._bits[alias] for alias in edge.aliases)
            for edge in self._edges
        )
        self._indexed = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_relation(self, alias: str, table: str) -> QueryGraphNode:
        """Add a relation node.

        Raises:
            PlanError: on a duplicate alias.
        """
        if alias in self._nodes:
            raise PlanError(f"duplicate relation alias {alias!r} in query graph")
        node = QueryGraphNode(alias=alias, table=table)
        self._nodes[alias] = node
        self._mutated()
        return node

    def add_predicate(self, predicate: Expr) -> None:
        """Route a predicate to the right node or edge.

        Single-table conjuncts become local predicates; multi-table ones
        become (hyper-)edges.  A conjunctive predicate is first split into
        its conjuncts so each piece lands in the most specific place --
        this is what lets the optimizer "evaluate predicates as early as
        possible" (Section 3).
        """
        self._mutated()
        for conjunct in conjuncts(predicate):
            aliases = conjunct.tables()
            unknown = aliases - set(self._nodes)
            if unknown:
                raise PlanError(
                    f"predicate {conjunct.to_sql()} references unknown "
                    f"relations {sorted(unknown)}"
                )
            if len(aliases) <= 1:
                target = next(iter(aliases), None)
                if target is None:
                    # Constant predicate: attach to an arbitrary node is
                    # wrong; keep it on every plan by treating it as a
                    # pseudo-edge over the full relation set.
                    self._edges.append(
                        QueryGraphEdge(frozenset(self._nodes), conjunct)
                    )
                else:
                    self._nodes[target].local_predicates.append(conjunct)
            else:
                self._edges.append(QueryGraphEdge(frozenset(aliases), conjunct))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> List[str]:
        """All relation aliases, sorted for determinism (do not mutate)."""
        self._index()
        return self._aliases

    def node(self, alias: str) -> QueryGraphNode:
        """Node for an alias.

        Raises:
            PlanError: if unknown.
        """
        try:
            return self._nodes[alias]
        except KeyError as exc:
            raise PlanError(f"unknown relation alias {alias!r}") from exc

    @property
    def edges(self) -> Tuple[QueryGraphEdge, ...]:
        """All join (hyper-)edges, in the order they were added."""
        self._index()
        return self._edge_view

    # ------------------------------------------------------------------
    # Bitmask view
    # ------------------------------------------------------------------
    def mask_of(self, aliases: Iterable[str]) -> int:
        """Bitmask of an alias set (aliases not in the graph contribute 0)."""
        self._index()
        bits = self._bits
        mask = 0
        for alias in aliases:
            mask |= bits.get(alias, 0)
        return mask

    def aliases_in(self, mask: int) -> List[str]:
        """The aliases of a bitmask, sorted."""
        return [
            alias for i, alias in enumerate(self.aliases) if mask >> i & 1
        ]

    @property
    def edge_masks(self) -> Tuple[int, ...]:
        """Bitmask of each edge's aliases, parallel to :attr:`edges`."""
        self._index()
        return self._edge_masks

    def edges_spanning(self, left: int, right: int) -> List[QueryGraphEdge]:
        """Edges fully covered by ``left | right`` that span both masks."""
        outside = ~(left | right)
        return [
            edge
            for edge, mask in zip(self.edges, self.edge_masks)
            if mask & left and mask & right and not mask & outside
        ]

    def has_edge_within(self, mask: int) -> bool:
        """Whether some 2-partition of ``mask`` is connected by an edge,
        i.e. a multi-relation edge lies entirely inside it."""
        outside = ~mask
        return any(
            not edge & outside and edge & (edge - 1) for edge in self.edge_masks
        )

    def neighbour_mask(self, mask: int) -> int:
        """Relations joined by some edge to ``mask`` (excluding it)."""
        result = 0
        for edge in self.edge_masks:
            if edge & mask:
                result |= edge
        return result & ~mask

    # ------------------------------------------------------------------
    # Alias-set view
    # ------------------------------------------------------------------
    def edges_between(
        self, left: Iterable[str], right: Iterable[str]
    ) -> List[QueryGraphEdge]:
        """Edges fully covered by ``left | right`` that span both sides."""
        return self.edges_spanning(self.mask_of(left), self.mask_of(right))

    def connecting_predicate(
        self, left: Iterable[str], right: Iterable[str]
    ) -> Optional[Expr]:
        """Conjunction of all predicates connecting two alias sets."""
        return conjoin(edge.predicate for edge in self.edges_between(left, right))

    def connected(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """Whether joining the two sets avoids a Cartesian product."""
        return bool(self.edges_between(left, right))

    def neighbours(self, aliases: Iterable[str]) -> Set[str]:
        """Aliases joined by some edge to the given set (excluding it)."""
        return set(self.aliases_in(self.neighbour_mask(self.mask_of(aliases))))

    def is_connected(self) -> bool:
        """Whether the whole graph is connected (no forced Cartesian product)."""
        if not self._nodes:
            return True
        seen = {next(iter(self.aliases))}
        frontier = set(seen)
        while frontier:
            frontier = self.neighbours(seen) - seen
            seen |= frontier
        return seen == set(self._nodes)

    def shape(self) -> str:
        """Classify the graph as 'chain', 'star', 'clique', or 'other'.

        Used by benchmarks to label workloads the way the paper does
        (star-shaped decision-support queries, chains, etc.).
        """
        n = len(self._nodes)
        if n <= 2:
            return "chain"
        degree: Dict[str, int] = {alias: 0 for alias in self._nodes}
        binary_edges = set()
        for edge in self._edges:
            if len(edge.aliases) == 2:
                pair = tuple(sorted(edge.aliases))
                if pair not in binary_edges:
                    binary_edges.add(pair)
                    for alias in pair:
                        degree[alias] += 1
        degrees = sorted(degree.values())
        edge_count = len(binary_edges)
        if edge_count == n - 1 and degrees == [1, 1] + [2] * (n - 2):
            return "chain"
        if edge_count == n - 1 and degrees == [1] * (n - 1) + [n - 1]:
            return "star"
        if edge_count == n * (n - 1) // 2:
            return "clique"
        return "other"

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"QueryGraph(relations={self.aliases}, "
            f"edges={len(self._edges)}, shape={self.shape()})"
        )
