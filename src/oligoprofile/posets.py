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

The quadratic work is boolean relation products, one row union at a
time: row r of left x right is reduce(or_, compress(right, digits)) on
the 0/1 digit bytes of left[r], so picking the rows and joining them run
at C speed, one word-parallel OR per picked row. The union gives
triangle_step's non-maximal incomparables (V x strict-pred, its empty
right rows left out), _first_intransitive's escaping rows (least row
first, full rows left out), the check behind the before relation, every
poset built from masks and exhaustive_posets, and random_poset's
transitive closure. _quotient checks well-definedness by rows and
columns agreeing across each class, outside it, which its docstring
proves equivalent to every block between two classes being all or
nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, compress, repeat
from operator import or_
from typing import Iterable, Iterator, Sequence

from .catalogue import SIG_ORDER
from .errors import DomainError, InternalInvariantError, ParameterError, at_most, int_arg, int_at_least
from .structures import FiniteStructure, canonical_form

Pair = tuple[int, int]

# Largest poset a JSON payload may declare: the linearize JSON of an
# antichain of this size lists over a million pairs, some 50 MB of text
# built in about 270 MiB.
_MAX_JSON_POSET_SIZE = 1024

# Draws random_poset makes before it refuses a width it cannot reach.
_MAX_ATTEMPTS = 1000

_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _digits(mask: int) -> bytes:
    """The binary digits of mask, least significant first, as 0/1 bytes."""
    return bin(mask)[:1:-1].encode().translate(_BIT_DIGITS)


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending, read at C speed from
    its binary digits."""
    digits = _digits(mask)
    return compress(range(len(digits)), digits)


def _transpose(succ: list[int]) -> list[int]:
    """The masks pred with bit a of pred[b] set when bit b of succ[a] is,
    for masks within range(len(succ)): a transpose of the binary digits."""
    n = len(succ)
    rows = [format(m, f"0{n}b") for m in succ]
    return [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]


def _product(row: int, right: Sequence[int]) -> int:
    """One row of a boolean relation product: the union of right[c] over
    the bits c of the left row. compress picks the rows off the row's 0/1
    digit bytes and reduce joins them, both at C speed: one pass over the
    digits and one OR per bit."""
    return reduce(or_, compress(right, _digits(row)), 0)


def _first_intransitive(succ: Sequence[int]) -> Pair | None:
    """The least (a, b) with a <= b whose successors escape those of a,
    or None when the relation is transitive.

    Row a escapes when the union of succ[b] over the bits b of succ[a]
    holds a bit outside succ[a]. Rows are tried least first, so the first
    escaping row is the least, and one scan of it finds b. A full row
    cannot escape and is not joined.
    """
    full = (1 << len(succ)) - 1
    for a, m in enumerate(succ):
        if m != full and _product(m, succ) & ~m:
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
    masks on first read. FinitePoset(size, leq) checks size and pairs once.
    """

    size: int
    succ: tuple[int, ...]
    pred: tuple[int, ...] = field(compare=False)

    def __init__(self, size: int, leq: Iterable[Pair]) -> None:
        if type(size) is not int or size < 1:
            raise DomainError(f"poset size must be an int >= 1, got {size!r}")
        succ = [0] * size
        if not isinstance(leq, Iterable):
            raise DomainError(f"poset pairs must be iterable, got {leq!r}")
        # one pass, so an iterator is read once; each pair is checked
        # before it is set, since a mask would read (True, 1) as (1, 1)
        for pair in leq:
            pair_shaped = isinstance(pair, (tuple, list)) and len(pair) == 2
            if not pair_shaped or not all(type(v) is int and 0 <= v < size for v in pair):
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

    def incomparable(self, a: int, b: int) -> bool:
        return self.incomparable_mask(a) >> self._element(b) & 1 == 1

    def incomparable_mask(self, a: int) -> int:
        """Bit mask of the elements incomparable to a."""
        a = self._element(a)
        return ((1 << self.size) - 1) & ~(self.succ[a] | self.pred[a])

    def is_chain(self) -> bool:
        full = (1 << self.size) - 1
        return all(s | p == full for s, p in zip(self.succ, self.pred))

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FinitePoset":
        try:
            size = payload["size"]
            points = range(size)  # the diagonal's, here so that a size like 1e400 is malformed
            pairs = [tuple(pair) for pair in payload["leq"]]
        except (KeyError, TypeError) as exc:
            raise DomainError(f"malformed poset payload: {exc}") from None
        at_most("poset", "points", size, _MAX_JSON_POSET_SIZE)
        return cls(size=size, leq=pairs + [(x, x) for x in points])

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
    """Maximum antichain size, as size minus a maximum chain matching.

    Each element is matched to a strict successor: first greedily, the
    elements with fewest successors first, then by augmenting paths from
    each element left unmatched, searched over the strict successor
    masks, lowest unseen successor first.
    """
    n = p.size
    strict = [m ^ 1 << a for a, m in enumerate(p.succ)]
    match_right = [-1] * n
    free = (1 << n) - 1
    unmatched = []
    for a in sorted(range(n), key=[m.bit_count() for m in strict].__getitem__):
        m = strict[a] & free
        if m:
            low = m & -m
            free ^= low
            match_right[low.bit_length() - 1] = a
        else:
            unmatched.append(a)
    matched = n - len(unmatched)
    # a search that fails leaves the matching as it was, so what it saw
    # stays fruitless until an augmentation
    seen = 0
    for root in unmatched:
        # depth-first: path[i] reaches path[i + 1] through successor via[i]
        path, via = [root], []
        while path:
            fresh = strict[path[-1]] & ~seen
            if not fresh:
                path.pop()
                if via:
                    via.pop()
                continue
            low = fresh & -fresh
            seen |= low
            b = low.bit_length() - 1
            via.append(b)
            if match_right[b] == -1:
                for a, b in zip(path, via):
                    match_right[b] = a
                matched += 1
                seen = 0
                break
            path.append(match_right[b])
    return n - matched


def triangle_step(p: FinitePoset) -> tuple[int, ...]:
    """The before relation as successor masks: bit b of row a is set when
    a <= b or b is maximal among the elements incomparable to a.

    b in V(a) is not maximal when it is strictly below some c in V(a):
    row a of the product V x strict-pred, where the minimal elements'
    empty rows are left out. Transitivity of the output holds for every
    poset; a violation means the implementation is broken, not the input.
    """
    incs = _incomparable_masks(p)
    strict = [m ^ 1 << c for c, m in enumerate(p.pred)]
    held = reduce(or_, (1 << c for c, m in enumerate(strict) if m), 0)
    before = [up | v & ~_product(v & held, strict) for up, v in zip(p.succ, incs)]
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
    mutually before-related with it. Class C is below class D when some
    member of C is before some member of D. That is well defined when
    every block C x D, C != D, is constant: all of it before-related or
    none of it. The quotient's row C is then the leader's row read at the
    leaders' columns, one compress per row.

    The check: across each class, the members' rows agree outside the
    class, and so do their columns. This holds exactly when every block
    is constant. If it holds, take c, c' in C and d, d' in D: c is before
    d iff c' is before d (the rows of C agree at d, outside C) iff c' is
    before d' (the columns of D agree at c', outside D). Conversely,
    every element outside C lies in another class, and constant blocks
    make the rows of C, and the columns of C, agree there. The per-class
    form "the members of C share one row outside C, and it is a union of
    whole classes" also holds for every C exactly when every block is
    constant, and it first fails at the least C with a mixed block. The
    error names that C and the least D whose block with it is mixed.
    Raises InternalInvariantError when the order depends on the choice of
    representatives, or when the quotient is not a poset.
    """
    n = len(after)
    before = _transpose(after)
    unassigned = (1 << n) - 1
    leaders = 0
    groups: list[list[int]] = []
    masks: list[int] = []
    mixed = False
    while unassigned:
        low = unassigned & -unassigned
        a = low.bit_length() - 1
        row, col = after[a], before[a]
        mask = row & col & unassigned | low
        unassigned ^= mask
        leaders |= low
        masks.append(mask)
        if mask == low:
            groups.append([a])
            continue
        members = list(_bits(mask))
        groups.append(members)
        mixed = mixed or any((after[b] ^ row | before[b] ^ col) & ~mask for b in members)
    if mixed:
        ca, cb = next(
            (ca, cb)
            for ca, group in enumerate(groups)
            for cb, mask in enumerate(masks)
            if cb != ca
            and any(after[a] & mask for a in group)
            and any(mask & ~after[a] for a in group)
        )
        raise InternalInvariantError(f"quotient order ill-defined on classes {ca}, {cb}")
    keep = _digits(leaders)
    qsucc = [
        int(bytes(compress(bin(after[a] | 1 << a)[:1:-1].encode(), keep))[::-1], 2)
        for a in _bits(leaders)
    ]
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
) -> FinitePoset:
    """Random order: edges by probability on a shuffled layout, closed
    transitively, resampled until the width is at most max_width."""
    int_at_least("random_poset", "size", size, 1)
    int_at_least("random_poset", "max_width", max_width, 1)
    p = edge_probability
    if not (p is None or type(p) in (int, float) and 0 <= p <= 1):
        raise ParameterError(f"random_poset needs edge_probability None or in [0, 1], got {p!r}")
    rng = random.Random(int_arg("random_poset", "seed", seed))
    for _ in range(_MAX_ATTEMPTS):
        prob = p if p is not None else rng.uniform(0.2, 0.7)
        layout = list(range(size))
        rng.shuffle(layout)
        succ = [0] * size
        for i in range(size):
            for j in range(i + 1, size):
                if rng.random() < prob:
                    succ[layout[i]] |= 1 << layout[j]
        # successors come later in the layout, so they are closed first
        for a in reversed(layout):
            succ[a] |= _product(succ[a], succ)
        poset = FinitePoset._from_masks([m | 1 << a for a, m in enumerate(succ)])
        if antichain_width(poset) <= max_width:
            return poset
    raise ParameterError(
        f"no poset of size {size} and width <= {max_width} in {_MAX_ATTEMPTS} attempts"
    )


def exhaustive_posets(size: int) -> tuple[FinitePoset, ...]:
    """All posets on size elements up to isomorphism, for small sizes.

    Candidates are the transitive relations among the strict orders on a
    topologically sorted labelling, deduplicated by canonical form, so
    each isomorphism class appears exactly once, as its first candidate.
    A candidate has one bit per pair a < b, row a's from offsets[a] up.
    """
    at_most("exhaustive_posets", "elements", int_at_least("exhaustive_posets", "size", size, 1), 6)
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
            model = FiniteStructure._evaluated(SIG_ORDER, range(size), (lambda a, b: succ[a] >> b & 1 == 1,))
            seen.setdefault(canonical_form(model), succ)
        # row a's check reads only rows a and above, so every candidate that
        # shares those bits fails it too: skip to the next one that does not
        skip = offsets[broken[0]] if broken else 0
        choice = (choice >> skip) + 1 << skip
    return tuple(map(FinitePoset._from_masks, seen.values()))
