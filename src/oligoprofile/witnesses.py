"""Constructive families of pairwise non-isomorphic substructures.

Three constructions realize exponential counting bounds at finite scale:
compositions of n as fiber sizes inside a block order, 0/1 patterns as
marked points on a chain, and compositions as layer sizes of a stacked
antichain poset. Each family carries a decoder that recovers the index
object from the isomorphism type alone, so the counting argument can be
checked by machine: distinct indices decode from distinct members.
verify_pairwise_nonisomorphic checks the members themselves: members with
different degree profiles (an isomorphism invariant) are not isomorphic,
and only members that tie on a profile are canonicalised. Every decoder
is a function of the degree profile alone (the count of points per
in-degree, or the marks read in out-degree order), so distinct indices
give distinct profiles, and verification canonicalises no member.
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
    degree_profile,
    induced_substructure,
    isomorphism_classes,
    signature,
)

SIG_MARKED_ORDER = signature(("leq", 2), ("mark", 1))

IndexObject = tuple[int, ...]


def compositions(n: int, max_part: int) -> Iterator[IndexObject]:
    """Yield compositions of n into parts of size at most max_part, in lexicographic order."""
    int_at_least("compositions", "n", n, 1)
    int_at_least("compositions", "max_part", max_part, 1)

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
    """The count of points per in-degree (row[1] of the degree profile), in
    ascending order of in-degree. A point's in-degree is the prefix sum of
    the parts through its block in a composition member, and its layer plus
    one in an antichain member, so one function decodes both families.
    """
    groups = Counter(row[1] for row in degree_profile(member)[2])
    return tuple(groups[d] for d in sorted(groups))


decode_antichain = decode_composition


def decode_binary_pattern(member: FiniteStructure) -> IndexObject:
    """Read 1 - mark (row[2] of the degree profile) up the chain.

    A chain point's out-degree is the number of points at or above it, so
    the sorted rows list the chain top point first; marked points decode to 0.
    """
    return tuple(1 - row[2] for row in reversed(degree_profile(member)[2]))


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


def _block_family(
    construction_id: str, n: int, width: int, scaffold: Callable[[], FiniteStructure]
) -> WitnessFamily:
    """One member per composition of n into parts of at most width: point
    i*width + j of the scaffold is in block i, and the member for
    (a_0, ..., a_{k-1}) takes the first a_i points of block i. Both caps
    are checked before scaffold() runs."""
    _refuse_past_caps(construction_id, n, n * width, lambda: compositions_count(n, width))
    return _family(
        construction_id, n, scaffold(), compositions(n, width),
        lambda comp: tuple(i * width + j for i, part in enumerate(comp) for j in range(part)),
        decode_composition,
    )


def composition_witness(n: int, max_part: int) -> WitnessFamily:
    """One member per composition of n into parts of size at most max_part.

    The scaffold is the fibered_order:max_part sample, n blocks of
    max_part points (max_part clamped to n, since no part is larger). A
    member's fiber sizes along the order are its composition, so distinct
    compositions yield non-isomorphic members.
    """
    int_at_least("composition_witness", "n", n, 1)
    max_part = min(int_at_least("composition_witness", "max_part", max_part, 1), n)
    return _block_family(
        "composition", n, max_part, lambda: sample_model(f"fibered_order:{max_part}", n * max_part)
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
    scaffold = FiniteStructure._evaluated(SIG_MARKED_ORDER, range(2 * n), (le, lambda x: x % 2 == 0))
    return _family(
        "binary_pattern", n, scaffold, product((0, 1), repeat=n),
        lambda bits: tuple(2 * i + b for i, b in enumerate(bits)), decode_binary_pattern,
    )


def antichain_witness(n: int) -> WitnessFamily:
    """One member per composition of n, as layers of stacked antichains.

    The scaffold stacks n antichains of width n; the first point of each
    layer is its anchor, and every point of a later layer lies above
    every earlier anchor. The member for (m_0, ..., m_{k-1}) takes m_i
    points of layer i including its anchor.
    """
    int_at_least("antichain_witness", "n", n, 1)
    stacked = (lambda x, y: x == y or (x % n == 0 and x // n < y // n),)
    return _block_family(
        "antichain", n, n, lambda: FiniteStructure._evaluated(SIG_ORDER, range(n * n), stacked)
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
