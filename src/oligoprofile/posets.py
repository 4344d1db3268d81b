"""Linearization of finite posets with small antichains.

Write V(a) for the set of elements incomparable to a. The construction
adds an arrow a -> b whenever b is a maximal element of V(a) and sets
a before b when a <= b or a -> b. That before relation is always
transitive, so quotienting by mutual before-ness yields a coarser
poset in which every element has strictly fewer incomparables.
Iterating collapses any poset of bounded width to a chain of
antichain classes compatible with the original order.

The kernel works on bit masks: a poset is the mask of the elements above
each element, so the order axioms, incomparables, the maximality test of
the before relation, the quotient's classes and its well-definedness
check, and the final ranks are word operations and popcounts. Each
round's before relation stays successor masks from triangle_step to the
round record, and the input elements behind each quotient element are a
mask too. Set bits are read off the binary digits at C speed. Pairs
appear only at the edges: the public constructor, from_json_dict, the
leq view and JSON. Every invariant the construction promises (a
transitive before relation, a well-defined quotient that is a poset, at
most size rounds) is still checked and raises InternalInvariantError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .catalogue import SIG_ORDER
from .errors import DomainError, InternalInvariantError, ParameterError
from .structures import FiniteStructure, canonical_form

Pair = tuple[int, int]

# Largest poset a JSON payload may declare: an antichain of this size
# already takes seconds and hundreds of MB to linearize.
_MAX_JSON_POSET_SIZE = 1024

_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending, read at C speed from
    its binary digits."""
    digits = bin(mask)[:1:-1].encode().translate(_BIT_DIGITS)
    return compress(range(len(digits)), digits)


def _transpose(succ: list[int]) -> list[int]:
    """The masks pred with bit a of pred[b] set when bit b of succ[a] is,
    for masks within range(len(succ)): a transpose of the binary digits."""
    n = len(succ)
    rows = [format(m, f"0{n}b") for m in succ]
    return [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]


def _first_intransitive(succ: Sequence[int]) -> Pair | None:
    """The least (a, b) with a <= b whose successors escape those of a,
    or None when the relation is transitive."""
    for a, m in enumerate(succ):
        if reduce(or_, map(succ.__getitem__, _bits(m)), 0) & ~m:
            return a, next(b for b in _bits(m) if succ[b] & ~m)
    return None


def _pairs(succ: Sequence[int]) -> frozenset[Pair]:
    """The pairs (a, b) with bit b of succ[a] set."""
    return frozenset(chain.from_iterable(zip(repeat(a), _bits(m)) for a, m in enumerate(succ)))


@dataclass(frozen=True, init=False, repr=False)
class FinitePoset:
    """A reflexive, antisymmetric, transitive relation on {0..size-1}.

    A poset is its successor masks: succ[a] has bit b set when a <= b.
    Equality and hashing read (size, succ). pred, with bit a of pred[b]
    set when a <= b, is derived; so is leq, the pair set, built from the
    masks on first read. FinitePoset(size, leq) checks the pairs once.
    """

    size: int
    succ: tuple[int, ...]
    pred: tuple[int, ...] = field(compare=False)

    def __init__(self, size: int, leq: Iterable[Pair]) -> None:
        if size < 1:
            raise DomainError(f"poset size must be >= 1, got {size}")
        succ = [0] * size
        # one pass, so an iterator is read once; each pair is checked
        # before it is set, since a mask would read (True, 1) as (1, 1)
        for pair in leq:
            if len(pair) != 2 or not all(type(v) is int and 0 <= v < size for v in pair):
                raise DomainError(f"bad pair {pair!r} for size {size}")
            succ[pair[0]] |= 1 << pair[1]
        self._set_masks(succ)

    @classmethod
    def _from_masks(cls, succ: list[int]) -> "FinitePoset":
        """Build from successor masks over range(len(succ)), for producers
        whose masks are in range by construction; the order axioms are
        still checked and raise DomainError."""
        obj = object.__new__(cls)
        obj._set_masks(succ)
        return obj

    def _set_masks(self, succ: list[int]) -> None:
        """Store succ and its transpose and check the order axioms on them."""
        object.__setattr__(self, "size", len(succ))
        object.__setattr__(self, "succ", tuple(succ))
        object.__setattr__(self, "pred", tuple(_transpose(succ)))
        for x, up in enumerate(succ):
            if not up >> x & 1:
                raise DomainError(f"missing reflexive pair ({x}, {x})")
        for a, (up, down) in enumerate(zip(succ, self.pred)):
            if up & down != 1 << a:
                b = next(_bits(up & down ^ 1 << a))
                raise DomainError(f"antisymmetry fails on ({a}, {b})")
        broken = _first_intransitive(succ)
        if broken:
            raise DomainError(f"transitivity fails through {broken}")

    @cached_property
    def leq(self) -> frozenset[Pair]:
        """The pairs (a, b) with a <= b, built from the masks on first read."""
        return _pairs(self.succ)

    def __repr__(self) -> str:
        return f"FinitePoset(size={self.size!r}, leq={self.leq!r})"

    def _element(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.size:
            raise DomainError(f"{a!r} is not an element of a poset of size {self.size}")
        return a

    def less(self, a: int, b: int) -> bool:
        a, b = self._element(a), self._element(b)
        return a != b and self.succ[a] >> b & 1 == 1

    def incomparable(self, a: int, b: int) -> bool:
        return self.incomparable_mask(a) >> self._element(b) & 1 == 1

    def incomparable_mask(self, a: int) -> int:
        """Bit mask of the elements incomparable to a."""
        a = self._element(a)
        return ((1 << self.size) - 1) & ~(self.succ[a] | self.pred[a])

    def incomparables(self, a: int) -> tuple[int, ...]:
        return tuple(_bits(self.incomparable_mask(a)))

    def is_chain(self) -> bool:
        full = (1 << self.size) - 1
        return all(s | p == full for s, p in zip(self.succ, self.pred))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FinitePoset":
        try:
            size = payload["size"]
            pairs = [tuple(pair) for pair in payload["leq"]]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed poset payload: {exc}") from None
        if type(size) is not int:
            raise DomainError(f"malformed poset payload: size {size!r} is not an integer")
        if size > _MAX_JSON_POSET_SIZE:
            raise DomainError(
                f"poset size {size} exceeds the cap of {_MAX_JSON_POSET_SIZE}"
            )
        return cls(size=size, leq=pairs + [(x, x) for x in range(size)])

    def to_json_dict(self) -> dict:
        strict = [[a, b] for a, m in enumerate(self.succ) for b in _bits(m ^ 1 << a)]
        return {"size": self.size, "leq": strict}


def _incomparable_masks(p: FinitePoset) -> list[int]:
    """incomparable_mask of every element, read off the masks unchecked."""
    full = (1 << p.size) - 1
    return [full & ~(up | down) for up, down in zip(p.succ, p.pred)]


def max_incomparability(p: FinitePoset) -> int:
    """Largest number of elements incomparable to a single element."""
    return max(incs.bit_count() for incs in _incomparable_masks(p))


def antichain_width(p: FinitePoset) -> int:
    """Maximum antichain size, as size minus a maximum chain matching."""
    n = p.size
    adj = [list(_bits(m & ~(1 << a))) for a, m in enumerate(p.succ)]
    match_right = [-1] * n
    seen = 0

    def augment(a: int) -> bool:
        nonlocal seen
        for b in adj[a]:
            if seen >> b & 1:
                continue
            seen |= 1 << b
            if match_right[b] == -1 or augment(match_right[b]):
                match_right[b] = a
                return True
        return False

    matched = 0
    for a in range(n):
        seen = 0
        matched += augment(a)
    return n - matched


def triangle_step(p: FinitePoset) -> tuple[int, ...]:
    """The before relation as successor masks: bit b of row a is set when
    a <= b or b is maximal among the elements incomparable to a.

    b is maximal in V(a) when succ[b] meets V(a) in b alone. Transitivity
    of the output holds for every poset; a violation means the
    implementation is broken, not the input.
    """
    before = list(p.succ)
    for a, incs in enumerate(_incomparable_masks(p)):
        for b in _bits(incs):
            if p.succ[b] & incs == 1 << b:
                before[a] |= 1 << b
    broken = _first_intransitive(before)
    if broken:
        raise InternalInvariantError(f"before relation not transitive through {broken}")
    return tuple(before)


@dataclass(frozen=True)
class RoundRecord:
    """One collapse round: the before relation as successor masks (bit b
    of before[a] set when a is before b) and the quotient shape. JSON
    lists its pairs under "tri" row by row, which is sorted pair order."""

    round_index: int
    before: tuple[int, ...]
    quotient_width: int
    quotient_incomparability: int

    def to_json_dict(self) -> dict:
        return {
            "round": self.round_index,
            "tri": [[a, b] for a, m in enumerate(self.before) for b in _bits(m)],
            "quotient_width": self.quotient_width,
            "quotient_incomparability": self.quotient_incomparability,
        }


@dataclass(frozen=True)
class LinearizationResult:
    """Ordered antichain classes covering the domain, least class first."""

    classes: tuple[tuple[int, ...], ...]
    trace: tuple[RoundRecord, ...]

    def to_json_dict(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "trace": [r.to_json_dict() for r in self.trace],
        }


def _quotient(after: Sequence[int]) -> tuple[FinitePoset, list[list[int]]]:
    """Group mutually before-related elements and order the groups;
    after[a] has bit b set when a is before b.

    Each class is led by its least member and holds the later elements
    mutually before-related with it. Class C is below class D when some member of C is before
    some member of D; that is well defined when the members of C share
    one cover outside C, a union of whole classes: one mask comparison
    per element. Raises InternalInvariantError when the induced relation
    depends on the choice of representatives or fails to be a poset.
    """
    n = len(after)
    before = _transpose(after)
    unassigned = (1 << n) - 1
    groups: list[list[int]] = []
    masks: list[int] = []
    cls = [0] * n
    for a in range(n):
        if not unassigned >> a & 1:
            continue
        mask = (after[a] & before[a] & unassigned) | 1 << a
        unassigned &= ~mask
        members = list(_bits(mask))
        for b in members:
            cls[b] = len(groups)
        groups.append(members)
        masks.append(mask)
    qsucc = []
    for ca, members in enumerate(groups):
        inside = masks[ca]
        out = after[members[0]] & ~inside
        above = set(map(cls.__getitem__, _bits(out)))
        if reduce(or_, map(masks.__getitem__, above), 0) != out or any(
            after[a] & ~inside != out for a in members
        ):
            reach = reduce(or_, map(after.__getitem__, members)) & ~inside
            cb = next(
                cb for cb, mask in enumerate(masks)
                if mask & reach and any(mask & ~after[a] for a in members)
            )
            raise InternalInvariantError(
                f"quotient order ill-defined on classes {ca}, {cb}"
            )
        qsucc.append(reduce(or_, (1 << cb for cb in above), 1 << ca))
    try:
        quotient = FinitePoset._from_masks(qsucc)
    except DomainError as exc:
        raise InternalInvariantError(f"quotient is not a poset: {exc}") from None
    return quotient, groups


def linearize(p: FinitePoset) -> LinearizationResult:
    """Collapse a poset to an ordered partition into antichain classes."""
    current = p
    # the input elements each current element stands for, as a mask
    nodes = [1 << i for i in range(p.size)]
    trace: list[RoundRecord] = []
    rounds = 0
    while not current.is_chain():
        rounds += 1
        if rounds > p.size:
            raise InternalInvariantError(
                f"no chain after {rounds - 1} rounds on {p.size} elements"
            )
        before = triangle_step(current)
        quotient, groups = _quotient(before)
        nodes = [reduce(or_, map(nodes.__getitem__, group)) for group in groups]
        trace.append(
            RoundRecord(
                round_index=rounds,
                before=before,
                quotient_width=antichain_width(quotient),
                quotient_incomparability=max_incomparability(quotient),
            )
        )
        current = quotient
    # in a chain, an element with r elements at or below it has rank r - 1
    classes = [()] * current.size
    for a, down in enumerate(current.pred):
        classes[down.bit_count() - 1] = tuple(_bits(nodes[a]))
    return LinearizationResult(classes=tuple(classes), trace=tuple(trace))


def random_poset(
    size: int,
    max_width: int,
    seed: int,
    edge_probability: float | None = None,
    max_attempts: int = 1000,
) -> FinitePoset:
    """Random order: edges by probability on a shuffled layout, closed
    transitively, resampled until the width is at most max_width."""
    if size < 1:
        raise ParameterError(f"size must be >= 1, got {size}")
    if max_width < 1:
        raise ParameterError(f"max_width must be >= 1, got {max_width}")
    rng = random.Random(seed)
    for _ in range(max_attempts):
        prob = edge_probability if edge_probability is not None else rng.uniform(0.2, 0.7)
        layout = list(range(size))
        rng.shuffle(layout)
        succ = [0] * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < prob:
                    succ[layout[i]] |= 1 << layout[j]
        for i in reversed(range(size)):
            a = layout[i]
            for b in _bits(succ[a]):
                succ[a] |= succ[b]
        poset = FinitePoset._from_masks([m | 1 << a for a, m in enumerate(succ)])
        if antichain_width(poset) <= max_width:
            return poset
    raise ParameterError(
        f"no poset of size {size} and width <= {max_width} in {max_attempts} attempts"
    )


def exhaustive_posets(size: int) -> tuple[FinitePoset, ...]:
    """All posets on size elements up to isomorphism, for small sizes.

    Candidates are the transitive relations among the strict orders on a
    topologically sorted labelling, deduplicated by canonical form, so
    each isomorphism class appears exactly once, as its first candidate.
    A candidate has one bit per pair a < b, row a's from offsets[a] up.
    """
    if size < 1:
        raise ParameterError(f"size must be >= 1, got {size}")
    if size > 6:
        raise ParameterError(f"exhaustive enumeration capped at size 6, got {size}")
    offsets = [a * (2 * size - a - 1) // 2 for a in range(size)]
    seen: dict[bytes, list[int]] = {}
    choice = 0
    while choice < 1 << offsets[-1]:
        succ = [
            (choice >> o & (1 << size - 1 - a) - 1) << a + 1 | 1 << a
            for a, o in enumerate(offsets)
        ]
        broken = _first_intransitive(succ)
        if broken is None:
            model = FiniteStructure.build(SIG_ORDER, size, {"leq": _pairs(succ)})
            seen.setdefault(canonical_form(model), succ)
        # row a's check reads only rows a and above, so every candidate that
        # shares those bits fails it too: skip to the next one that does not
        skip = offsets[broken[0]] if broken else 0
        choice = (choice >> skip) + 1 << skip
    return tuple(map(FinitePoset._from_masks, seen.values()))
