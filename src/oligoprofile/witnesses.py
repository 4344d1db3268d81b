"""Constructive families of pairwise non-isomorphic substructures.

Three constructions realize exponential counting bounds at finite scale:
compositions of n as fiber sizes inside a block order, 0/1 patterns as
marked points on a chain, and compositions as layer sizes of a stacked
antichain poset. Each family carries a decoder that recovers the index
object from the isomorphism type alone, so the counting argument can be
checked by machine: distinct indices decode from distinct members.
verify_pairwise_nonisomorphic checks the members themselves: members with
different degree profiles (an isomorphism invariant) are not isomorphic,
and only members that tie on a profile are canonicalised. In each family
a point's in-degree (with its mark, for binary patterns) fixes what the
decoder reads of it: the fiber's prefix sum, the chain rank, or the depth
plus one. The in-degrees are in the profile, so every member has a profile
of its own and no member is canonicalised.
Each constructor refuses a scaffold of more than 256 points, or a family
of more than 2**11 members, with ResourceError before building anything.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import le
from typing import Callable, Iterable, Iterator

from .catalogue import SIG_ORDER, sample_model
from .errors import ParameterError, ResourceError, int_at_least
from .growth import compositions_count
from .structures import (
    FiniteStructure,
    canonical_form,
    induced_substructure,
    isomorphism_classes,
    signature,
)

SIG_MARKED_ORDER = signature(("leq", 2), ("mark", 1))

IndexObject = tuple[int, ...]


def compositions(n: int, max_part: int) -> Iterator[IndexObject]:
    """Yield compositions of n into parts of size at most max_part, in lexicographic order."""
    if n < 1:
        raise ParameterError(f"compositions need n >= 1, got {n}")
    if max_part < 1:
        raise ParameterError(f"max_part must be >= 1, got {max_part}")

    def lexicographic() -> Iterator[tuple[int, ...]]:
        parts = [1] * n
        while True:
            yield tuple(parts)
            # the rightmost part below max_part but the last takes one from those after it
            i = next((i for i in range(len(parts) - 2, -1, -1) if parts[i] < max_part), -1)
            if i < 0:
                return
            parts[i:] = [parts[i] + 1] + [1] * (sum(parts[i + 1 :]) - 1)

    return lexicographic()


@dataclass(frozen=True)
class WitnessFamily:
    """A scaffold structure, its distinguished members, and their indices.

    members[i] realizes indices[i]; index_decoder recovers indices[i] from
    members[i] using only isomorphism-invariant statistics, so it keeps
    working after any relabelling.
    """

    construction_id: str
    n: int
    scaffold: FiniteStructure
    members: tuple[FiniteStructure, ...]
    indices: tuple[IndexObject, ...]
    index_decoder: Callable[[FiniteStructure], IndexObject] = field(repr=False)

    def __post_init__(self) -> None:
        int_at_least("witness family", "n", self.n, 1)
        if len(self.members) != len(self.indices):
            raise ParameterError(
                f"{len(self.members)} members but {len(self.indices)} indices"
            )

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction_id,
            "n": self.n,
            "indices": list(self.indices),
            "members": [m.to_json_dict() for m in self.members],
        }


@dataclass(frozen=True)
class CollisionReport:
    """Pairs of member positions whose canonical codes coincide."""

    construction_id: str
    n: int
    pairs: tuple[tuple[int, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "construction": self.construction_id,
            "n": self.n,
            "collisions": [list(p) for p in self.pairs],
        }


def decode_composition(member: FiniteStructure) -> IndexObject:
    """Read fiber sizes along the block order of a composition member.

    Elements of one fiber share their weak predecessor count (the prefix
    sum of part sizes up to their block), and the counts of distinct
    fibers differ, so grouping by that count lists the parts in order.
    """
    prec = member.relation("prec")
    size = member.size
    below = [sum(1 for y in range(size) if (y, x) in prec) for x in range(size)]
    groups = Counter(below)
    return tuple(groups[r] for r in sorted(groups))


def decode_binary_pattern(member: FiniteStructure) -> IndexObject:
    """Read the 0/1 pattern off chain position: marked points decode to 0."""
    leq = member.relation("leq")
    mark = member.relation("mark")
    size = member.size
    rank = lambda x: sum(1 for y in range(size) if (y, x) in leq)
    chain = sorted(range(size), key=rank)
    return tuple(0 if (x,) in mark else 1 for x in chain)


def decode_antichain(member: FiniteStructure) -> IndexObject:
    """Count points per longest-chain-below statistic in a poset member.

    depth(x) is the number of elements in a longest chain strictly below
    x; layer i of the construction contributes exactly the points of
    depth i, so the counts per depth value recover the composition.
    """
    leq = member.relation("leq")
    size = member.size
    strictly_below = [
        [y for y in range(size) if y != x and (y, x) in leq] for x in range(size)
    ]
    depth = [0] * size
    for x in sorted(range(size), key=lambda v: len(strictly_below[v])):
        depth[x] = max((depth[y] + 1 for y in strictly_below[x]), default=0)
    groups = Counter(depth)
    return tuple(groups[i] for i in range(max(depth) + 1))


# Largest family and scaffold a constructor makes; members are verified
# pairwise. At 2**11 members the slowest family, composition at n=16 with
# parts of at most 2, runs `witness` in about 0.47 s on a 2-core x86-64 VM;
# composition at n=13, 2**12 members, took 1.4 s.
_MAX_MEMBERS = 2**11
_MAX_SCAFFOLD_POINTS = 256


def _refuse_past_caps(construction_id: str, n: int, points: int, members: Callable[[], int]) -> None:
    """Raise ResourceError for a scaffold of more than 256 points, then for
    more than 2**11 members, before anything is built. The scaffold check
    comes first and bounds n, so every closed-form member count is cheap."""
    if points > _MAX_SCAFFOLD_POINTS:
        raise ResourceError(
            f"{construction_id} at n={n} needs {points} scaffold points,"
            f" over the cap of {_MAX_SCAFFOLD_POINTS}"
        )
    count = members()
    if count > _MAX_MEMBERS:
        raise ResourceError(
            f"{construction_id} at n={n} has {count} members, over the cap of {_MAX_MEMBERS}"
        )


def _family(
    construction_id: str,
    n: int,
    scaffold: FiniteStructure,
    indices: Iterable[IndexObject],
    subset: Callable[[IndexObject], tuple[int, ...]],
    decoder: Callable[[FiniteStructure], IndexObject],
) -> WitnessFamily:
    """The family whose member for each index is the scaffold induced on subset(index)."""
    indices = tuple(indices)
    members = tuple(induced_substructure(scaffold, subset(ix)) for ix in indices)
    return WitnessFamily(construction_id, n, scaffold, members, indices, decoder)


def _block_prefixes(width: int) -> Callable[[IndexObject], tuple[int, ...]]:
    # the first comp[i] points of each block i of `width` consecutive points
    return lambda comp: tuple(i * width + j for i, part in enumerate(comp) for j in range(part))


def composition_witness(n: int, max_part: int) -> WitnessFamily:
    """One member per composition of n into parts of size at most max_part.

    The scaffold is the fibered_order:max_part sample with n blocks of
    max_part points (max_part clamped to n, since no part is larger); the
    member for (a_0, ..., a_{k-1}) takes a_i points from block i. Its
    fiber sizes along the order are the composition, so distinct
    compositions yield non-isomorphic members.
    """
    int_at_least("composition_witness", "n", n, 1)
    if max_part < 1:
        raise ParameterError(f"max_part must be >= 1, got {max_part}")
    max_part = min(max_part, n)
    _refuse_past_caps("composition", n, n * max_part, lambda: compositions_count(n, max_part))
    scaffold = sample_model(f"fibered_order:{max_part}", n * max_part)
    return _family(
        "composition", n, scaffold, compositions(n, max_part), _block_prefixes(max_part),
        decode_composition,
    )


def binary_pattern_witness(n: int) -> WitnessFamily:
    """One member per 0/1 word of length n, as marked points on a chain.

    The scaffold is a 2n-point chain whose even positions are marked;
    the member for sigma takes point 2i when sigma(i) = 0 and point
    2i + 1 otherwise, so the i-th point of the member is marked exactly
    when sigma(i) = 0.
    """
    int_at_least("binary_pattern_witness", "n", n, 1)
    _refuse_past_caps("binary_pattern", n, 2 * n, lambda: 2**n)
    scaffold = FiniteStructure._evaluated(SIG_MARKED_ORDER, 2 * n, (le, lambda x: x % 2 == 0))
    return _family(
        "binary_pattern", n, scaffold, product((0, 1), repeat=n),
        lambda bits: tuple(2 * i + b for i, b in enumerate(bits)), decode_binary_pattern,
    )


def antichain_witness(n: int) -> WitnessFamily:
    """One member per composition of n, as layers of stacked antichains.

    The scaffold stacks n antichains of width n; the first point of each
    layer is its anchor, and every point of a later layer lies above
    every earlier anchor. The member for (m_0, ..., m_{k-1}) takes m_i
    points of layer i including its anchor, so a point of layer i has
    exactly the i earlier anchors in a longest chain below it.
    """
    int_at_least("antichain_witness", "n", n, 1)
    _refuse_past_caps("antichain", n, n * n, lambda: 2 ** (n - 1))
    scaffold = FiniteStructure._evaluated(
        SIG_ORDER, n * n, (lambda x, y: x == y or (x % n == 0 and x // n < y // n),)
    )
    return _family(
        "antichain", n, scaffold, compositions(n, n), _block_prefixes(n), decode_antichain
    )


_CONSTRUCTIONS: dict[str, Callable[..., WitnessFamily]] = {
    "composition": composition_witness,
    "binary_pattern": binary_pattern_witness,
    "antichain": antichain_witness,
}


def construction_ids() -> tuple[str, ...]:
    return tuple(_CONSTRUCTIONS)


def build_family(construction_id: str, n: int, max_part: int | None = None) -> WitnessFamily:
    """Dispatch by construction name; max_part applies to composition only."""
    if construction_id == "composition":
        return composition_witness(n, n if max_part is None else max_part)
    if max_part is not None:
        raise ParameterError(f"{construction_id!r} takes no max_part")
    if construction_id not in _CONSTRUCTIONS:
        raise ParameterError(f"unknown construction {construction_id!r}")
    return _CONSTRUCTIONS[construction_id](n)


def verify_pairwise_nonisomorphic(family: WitnessFamily) -> CollisionReport:
    """Report the sorted pairs of members that are isomorphic.

    Members are grouped by degree profile, and canonical_form runs only on
    the members whose profile another member shares; the pairs are those
    with equal canonical codes (structures.isomorphism_classes).
    """
    pairs = sorted(
        pair
        for cls in isomorphism_classes(family.members, canonical_form)
        for pair in combinations(cls, 2)
    )
    return CollisionReport(
        construction_id=family.construction_id,
        n=family.n,
        pairs=tuple(pairs),
    )
