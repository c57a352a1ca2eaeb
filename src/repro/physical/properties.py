"""Physical properties of data streams (Sections 3 and 6).

A physical property is "any characteristic of a plan that is not shared
by all plans for the same logical expression, but can impact the cost of
subsequent operations".  Two are modelled:

* **sort order** -- the original *interesting order* of System R;
* **partitioning** -- Hasan's treatment of parallel data placement as a
  physical property (Section 7.1).

The helpers here decide whether a delivered property satisfies a
required one, which is the question enforcers and property-aware pruning
keep asking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.expr.expressions import ColumnRef

# A sort order: columns with per-column ascending flags, major first.
SortOrder = Tuple[Tuple[ColumnRef, bool], ...]


def make_order(
    columns: Sequence[ColumnRef], ascending: bool = True
) -> SortOrder:
    """Build a sort order with a uniform direction."""
    return tuple((ref, ascending) for ref in columns)


# A sort order modulo column equivalence: one int per column, encoding the
# column's equivalence class and its direction.  Prefix tests and hashing on
# keys are plain tuple operations.
OrderKey = Tuple[int, ...]


class OrderCanonicalizer:
    """Sort orders of one query, compared modulo column equivalence.

    Built once per enumeration from the equivalence classes the equijoin
    predicates induce (as in [58]): after joining on ``R.x = S.x`` a
    stream ordered on ``R.x`` is ordered on ``S.x`` too.  Every column is
    mapped to its class id once, so deciding whether a delivered order
    satisfies a required one is a tuple-prefix comparison, and each
    distinct delivered order is resolved once to the bitmask of
    *interesting* orders it satisfies (bit ``i`` = ``interesting[i]``).

    Args:
        equivalences: disjoint groups of columns forced equal.
        interesting: the orders :meth:`satisfied_mask` reports on.
    """

    def __init__(
        self,
        equivalences: Sequence[FrozenSet[ColumnRef]] = (),
        interesting: Sequence[SortOrder] = (),
    ) -> None:
        self._class_of: Dict[ColumnRef, int] = {
            ref: class_id
            for class_id, group in enumerate(equivalences)
            for ref in group
        }
        self._next_class = len(equivalences)
        self._interesting = [self.key(order) for order in interesting]
        self._masks: Dict[OrderKey, int] = {(): 0}

    def key(self, order: Optional[SortOrder]) -> OrderKey:
        """Canonical form of an order (``()`` for no order)."""
        if not order:
            return ()
        class_of = self._class_of
        key = []
        for ref, ascending in order:
            class_id = class_of.get(ref)
            if class_id is None:
                # A column no equijoin touches is a class of its own.
                class_id = class_of[ref] = self._next_class
                self._next_class += 1
            key.append(2 * class_id + bool(ascending))
        return tuple(key)

    @staticmethod
    def key_satisfies(delivered: OrderKey, required: OrderKey) -> bool:
        """Prefix test on canonical keys."""
        return delivered[: len(required)] == required

    def satisfies(
        self, delivered: Optional[SortOrder], required: Optional[SortOrder]
    ) -> bool:
        """Whether a delivered order satisfies a required one."""
        if not required:
            return True
        if delivered is None or len(delivered) < len(required):
            return False
        return self.key_satisfies(self.key(delivered), self.key(required))

    def satisfied_mask(self, delivered: OrderKey) -> int:
        """Bitmask of the interesting orders a delivered key satisfies."""
        mask = self._masks.get(delivered)
        if mask is None:
            mask = 0
            for bit, required in enumerate(self._interesting):
                if delivered[: len(required)] == required:
                    mask |= 1 << bit
            self._masks[delivered] = mask
        return mask


def order_satisfies(
    delivered: Optional[SortOrder],
    required: Optional[SortOrder],
    equivalences: Optional[Sequence[FrozenSet[ColumnRef]]] = None,
) -> bool:
    """Whether a delivered order satisfies a required one.

    Satisfaction is prefix-based: a stream sorted on (a, b) satisfies a
    requirement of (a).  Column equivalence classes (derived from
    equijoin predicates, as in [58]) let ``R.x`` order satisfy an ``S.x``
    requirement after the join on ``R.x = S.x``.  Callers asking many
    times per query hold an :class:`OrderCanonicalizer` instead.
    """
    if not required:
        return True
    if delivered is None or len(delivered) < len(required):
        return False
    if tuple(delivered[: len(required)]) == tuple(required):
        return True  # the same columns: no equivalence needed
    return bool(equivalences) and OrderCanonicalizer(equivalences).satisfies(
        delivered, required
    )


class PartitionScheme(enum.Enum):
    """How a stream is distributed over processors (Section 7.1)."""

    SINGLETON = "singleton"  # all rows at one site
    HASH = "hash"  # hash-partitioned on columns
    BROADCAST = "broadcast"  # replicated to every site
    ROUND_ROBIN = "round-robin"  # balanced, no column meaning


@dataclass(frozen=True)
class Partitioning:
    """A partitioning property: scheme plus (for HASH) the key columns."""

    scheme: PartitionScheme
    columns: Tuple[ColumnRef, ...] = ()
    degree: int = 1

    def satisfies(self, required: "Partitioning") -> bool:
        """Whether this placement can serve a required one without exchange.

        Broadcast satisfies any per-site requirement; hash satisfies a
        hash requirement on the same columns and degree; singleton
        satisfies singleton.
        """
        if required.scheme is PartitionScheme.SINGLETON:
            return self.scheme is PartitionScheme.SINGLETON
        if self.scheme is PartitionScheme.BROADCAST:
            return True
        if required.scheme is PartitionScheme.HASH:
            return (
                self.scheme is PartitionScheme.HASH
                and self.columns == required.columns
                and self.degree == required.degree
            )
        return self.scheme is required.scheme and self.degree == required.degree


@dataclass(frozen=True)
class PhysicalProps:
    """The full physical property vector of a data stream."""

    order: Optional[SortOrder] = None
    partitioning: Optional[Partitioning] = None

    def satisfies(
        self,
        required: "PhysicalProps",
        equivalences: Optional[Sequence[FrozenSet[ColumnRef]]] = None,
    ) -> bool:
        """Whether the delivered vector covers the required vector."""
        if not order_satisfies(self.order, required.order, equivalences):
            return False
        if required.partitioning is not None:
            if self.partitioning is None:
                return False
            return self.partitioning.satisfies(required.partitioning)
        return True


ANY_PROPS = PhysicalProps()


def describe_order(order: Optional[SortOrder]) -> str:
    """Readable form of a sort order."""
    if not order:
        return "(none)"
    return ", ".join(
        f"{ref.to_sql()} {'ASC' if ascending else 'DESC'}" for ref, ascending in order
    )
