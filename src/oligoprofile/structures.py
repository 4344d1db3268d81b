"""Finite relational structures, their encodings and canonical forms.

A structure is a finite domain {0..size-1} plus one tuple set per relation
symbol. Everything downstream (catalogue samplers, profile counting, witness
families, glue output) speaks this type, so the operations here are kept
small and exact:

  * induced_substructure: restrict to a subset, reindexed by position,
  * structure_encoding: a deterministic byte serialisation of the literal
    structure (length-prefixed varints, tuples in sorted order),
  * canonical_form: the minimum encoding over a refinement-pruned set of
    relabellings; two structures get the same code iff they are isomorphic,
    which the tests check against independent searches (tests/oracles.py),
  * degree_profile: a cheap isomorphism invariant, the sorted per-point
    counts of tuples by relation and position. isomorphism_classes groups
    structures by it and runs canonical_form only inside ties (the
    invariant-before-labelling step of McKay & Piperno 2014).

Canonicalisation strategy: refine an ordered partition of the points to
its coarsest equitable refinement, incrementally (McKay 1981; Paige &
Tarjan 1987), then branch on the first cell of two or more points,
individualising one point at a time and refining again. A point's colour
is the start of its cell, which depends only on invariant data, so it is
stable across relabellings; a leaf, a discrete colouring, is itself a
relabelling, and the canonical code is the least of the leaves' encodings.
Two rules skip a branch whose subtree is the image of an explored
sibling's under an automorphism, so its leaves carry codes already seen
and the minimum is unchanged:

  * transposition pruning: the chosen vertex is swapped onto an explored
    sibling by a transposition automorphism; this keeps highly symmetric
    inputs (pure antichains, unmarked sets) linear instead of factorial;
  * orbit pruning (McKay & Piperno 2014): a leaf whose encoding equals the
    first or the best leaf's yields the automorphism between the two
    labellings. At a node, the recorded automorphisms that fix the node's
    individualised vertices pointwise generate a group (orbits kept in a
    union-find), and a vertex in the orbit of an explored sibling is
    skipped. This catches symmetries without transpositions, such as the
    rotations and reflections of the circular and separation reducts or of
    circulant tournaments. Only the first and the best leaf are kept.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, compress, product, starmap
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidSubsetError, ParameterError, at_most

CanonicalCode = bytes

# Cap on the tuples one FiniteStructure._evaluated call evaluates, summed
# over its relations. The 4,000,000 pairs of a fibered_order:2000 sample
# took 2.85 s and 389 MiB on a 2-core x86-64 VM; the largest sample the
# tests build, separation on 23 points, has 279,841 tuples.
MAX_EVALUATED_TUPLES = 2_000_000


@dataclass(frozen=True)
class Signature:
    """Ordered relation symbols with arities; order fixes encoding layout."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        # types first, so an unhashable name is refused before the set below
        if type(self.relations) is not tuple:
            raise ParameterError(f"signature relations are a {type(self.relations).__name__}, not a tuple")
        for rel in self.relations:
            if type(rel) is not tuple or len(rel) != 2:
                raise ParameterError(f"signature relation {rel!r} is not a (name, arity) tuple")
            name, arity = rel
            if not isinstance(name, str) or not name:
                raise ParameterError(f"relation name must be a nonempty string, got {name!r}")
            if type(arity) is not int or arity < 1:
                raise ParameterError(f"relation {name!r} has arity {arity!r}, expected an int >= 1")
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ParameterError(f"duplicate relation names in signature: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def index(self, name: str) -> int:
        for i, (other, _) in enumerate(self.relations):
            if other == name:
                return i
        raise ParameterError(f"no relation named {name!r} in signature")


def signature(*relations: tuple[str, int]) -> Signature:
    return Signature(tuple(relations))


def evaluated_tuples(sig: Signature, size: int) -> int:
    """The tuples FiniteStructure._evaluated evaluates on size points,
    summed over the relations; past MAX_EVALUATED_TUPLES it raises
    ResourceError instead."""
    total = sum(size**arity for _, arity in sig.relations)
    return at_most(f"sample of {size} points", "tuples to evaluate", total, MAX_EVALUATED_TUPLES)


@dataclass(frozen=True)
class FiniteStructure:
    """Immutable finite structure over domain {0..size-1}.

    The public constructor is the one check of a structure, types
    included: an int size (a bool is not one), tuples of each relation's
    arity, and int entries in range. build and from_json_dict go through
    it, as Signature checks names and arities. Structures the library
    derives itself skip it through _trusted: induced_substructure and
    relabel (a valid structure restricted to distinct in-range points, or
    mapped by a checked bijection, is valid) and _evaluated, which builds
    the catalogue samples, the profile's key representatives, the
    witness scaffolds and exhaustive_posets' candidates from their
    formulas (tuples drawn from range(len(points)) by construction).
    _evaluated is the profile engine's only producer, where validation
    would cost about a sixth of the time; tests re-validate the output of
    all three through the public constructor.
    """

    signature: Signature
    size: int
    relations: tuple[frozenset[tuple[int, ...]], ...]

    def __post_init__(self):
        if type(self.size) is not int:
            raise ParameterError("size and tuple entries must be integers")
        if self.size < 0:
            raise ParameterError(f"size must be >= 0, got {self.size}")
        if type(self.relations) is not tuple:
            raise ParameterError(f"relations are a {type(self.relations).__name__}, not a tuple")
        if len(self.relations) != len(self.signature.relations):
            raise ParameterError(
                f"{len(self.relations)} tuple sets for "
                f"{len(self.signature.relations)} relation symbols"
            )
        for (name, arity), tuples in zip(self.signature.relations, self.relations):
            if type(tuples) is not frozenset:
                raise ParameterError(f"relation {name!r} holds a {type(tuples).__name__}, not a frozenset")
            for t in tuples:
                if type(t) is not tuple:
                    raise ParameterError(f"relation {name!r} holds {t!r}, not a tuple")
                if len(t) != arity:
                    raise ParameterError(f"tuple {t} in {name!r} has wrong arity (want {arity})")
                if any(type(x) is not int for x in t):
                    raise ParameterError("size and tuple entries must be integers")
                if any(not (0 <= x < self.size) for x in t):
                    raise ParameterError(f"tuple {t} in {name!r} out of range for size {self.size}")

    @classmethod
    def _trusted(
        cls, sig: Signature, size: int, relations: tuple[frozenset[tuple[int, ...]], ...]
    ) -> "FiniteStructure":
        """Construct without validation, for producers that guarantee it."""
        obj = object.__new__(cls)
        obj.__dict__.update(signature=sig, size=size, relations=relations)
        return obj

    @classmethod
    def _evaluated(
        cls, sig: Signature, points: Sequence[int], formulas: Sequence[Callable[..., bool]]
    ) -> "FiniteStructure":
        """The structure whose point i is points[i] and whose j-th relation
        holds exactly where formulas[j] holds on those points, evaluated on
        every tuple, repeated coordinates included. A whole sample is
        range(count); on distinct points of it this is
        induced_substructure of that sample. Refused past
        MAX_EVALUATED_TUPLES before any tuple is evaluated."""
        size = len(points)
        evaluated_tuples(sig, size)
        rng = range(size)
        rels = tuple(
            frozenset(
                compress(product(rng, repeat=arity), starmap(holds, product(points, repeat=arity)))
            )
            for (_, arity), holds in zip(sig.relations, formulas)
        )
        return cls._trusted(sig, size, rels)

    @classmethod
    def build(
        cls,
        sig: Signature,
        size: int,
        tuples: Mapping[str, Iterable[Sequence[int]]] | None = None,
    ) -> "FiniteStructure":
        tuples = tuples or {}
        unknown = set(tuples) - set(sig.names)
        if unknown:
            raise ParameterError(f"tuples given for unknown relations: {sorted(unknown)}")
        rels = []
        for name, _ in sig.relations:
            try:
                rels.append(frozenset(map(tuple, tuples.get(name, ()))))
            except TypeError:  # a row that is no sequence, or holds an unhashable entry
                raise ParameterError(f"relation {name!r} needs tuples of integers") from None
        return cls(sig, size, tuple(rels))

    def relation(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.relations[self.signature.index(name)]

    def relabel(self, perm: Sequence[int]) -> "FiniteStructure":
        """Apply a bijection old -> new given as perm[old] = new."""
        ints = isinstance(perm, Sequence) and all(type(x) is int for x in perm)
        if not ints or sorted(perm) != list(range(self.size)):
            raise ParameterError(f"perm {perm} is not a bijection on {self.size} elements")
        rels = tuple(
            frozenset(tuple(perm[x] for x in t) for t in tuples) for tuples in self.relations
        )
        return FiniteStructure._trusted(self.signature, self.size, rels)

    def to_json_dict(self) -> dict:
        """The JSON form; each relation is its sorted list of tuples, which
        the json module writes as arrays of arrays."""
        return {
            "signature": [[name, arity] for name, arity in self.signature.relations],
            "size": self.size,
            "tuples": {
                name: sorted(tuples)
                for (name, _), tuples in zip(self.signature.relations, self.relations)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FiniteStructure":
        """The payload unpacked into Signature and build, which check it;
        every refusal, theirs included, reads "malformed structure JSON: ..."."""
        try:
            relations = tuple((name, arity) for name, arity in data["signature"])
            tuples = dict(data["tuples"].items())  # an object, not a list of pairs
            return cls.build(Signature(relations), data["size"], tuples)
        except (KeyError, TypeError, ValueError, AttributeError, ParameterError) as exc:
            raise ParameterError(f"malformed structure JSON: {exc}") from None


def induced_substructure(model: FiniteStructure, subset: Sequence[int]) -> FiniteStructure:
    """Restrict model to subset; element i of the result is subset[i].

    The subset must be a sequence of distinct int points of the model;
    tuples are kept exactly when all entries lie in it, then reindexed.
    """
    if not isinstance(subset, Sequence) or any(type(x) is not int or not 0 <= x < model.size for x in subset):
        raise InvalidSubsetError(f"subset {subset} out of range for size {model.size}")
    if len(set(subset)) != len(subset):
        raise InvalidSubsetError(f"subset {subset} has repeated elements")
    pos = {x: i for i, x in enumerate(subset)}
    k = len(subset)
    rels = []
    for (_, arity), tuples in zip(model.signature.relations, model.relations):
        if k ** arity <= len(tuples):
            # probe: the i-th tuple over subset is the i-th over range(k)
            kept = frozenset(
                compress(
                    product(range(k), repeat=arity),
                    map(tuples.__contains__, product(subset, repeat=arity)),
                )
            )
        else:
            kept = frozenset(
                tuple(pos[x] for x in t) for t in tuples if all(x in pos for x in t)
            )
        rels.append(kept)
    return FiniteStructure._trusted(model.signature, k, tuple(rels))


# Encoding: unsigned LEB128 varints, layout
#   [#relations] [arity...] [size] then per relation [#tuples] [entries...]
# with tuples in lexicographic order. Within one signature, equal bytes
# mean equal structures.


def _emit(buf: bytearray, x: int) -> None:
    while True:
        b = x & 0x7F
        x >>= 7
        if x:
            buf.append(b | 0x80)
        else:
            buf.append(b)
            return


def _encode_labelled(
    size: int,
    arities: tuple[int, ...],
    rel_tuples: tuple[tuple[tuple[int, ...], ...], ...],
    perm: Sequence[int] | None,
) -> bytes:
    buf = bytearray()
    _emit(buf, len(arities))
    for a in arities:
        _emit(buf, a)
    _emit(buf, size)
    for tuples in rel_tuples:
        if perm is None:
            mapped = sorted(tuples)
        else:
            mapped = sorted(tuple(map(perm.__getitem__, t)) for t in tuples)
        _emit(buf, len(mapped))
        if size < 128:
            # every entry is below 128, so its varint is the byte itself
            buf += bytes(chain.from_iterable(mapped))
        else:
            for t in mapped:
                for x in t:
                    _emit(buf, x)
    return bytes(buf)


def structure_encoding(s: FiniteStructure) -> bytes:
    """Deterministic byte serialisation of the literal (labelled) structure."""
    arities = tuple(a for _, a in s.signature.relations)
    rel_tuples = tuple(tuple(tuples) for tuples in s.relations)
    return _encode_labelled(s.size, arities, rel_tuples, None)


def degree_profile(s: FiniteStructure) -> tuple:
    """An isomorphism invariant: the signature, the size, and the sorted
    rows that count, for each point x, the tuples of each relation holding
    x at each position.

    Invariance: a relabelling pi maps the tuples of each relation
    bijectively onto the tuples of the same relation in the image, and a
    tuple holds x at position p iff its image holds pi(x) there. So pi(x)'s
    row in the image is x's row, the rows are permuted, and their sorted
    list is unchanged. Isomorphic structures therefore have equal profiles,
    and structures with different profiles are not isomorphic; the
    converse fails (a 6-cycle and two triangles share a profile).
    """
    columns = [
        Counter(map(itemgetter(p), tuples))
        for (_, arity), tuples in zip(s.signature.relations, s.relations)
        for p in range(arity)
    ]
    points = range(s.size)
    rows = sorted(zip(*(map(column.__getitem__, points) for column in columns)))
    return s.signature, s.size, tuple(rows)


def isomorphism_classes(
    items: Sequence[FiniteStructure], code: Callable[[FiniteStructure], CanonicalCode]
) -> list[list[int]]:
    """The positions of items grouped by isomorphism type, each class in
    ascending order.

    Items are grouped by degree_profile first, and a group of one is a
    class. code runs only on the items of a group of two or more and splits
    that group by its codes. Items with different profiles are not
    isomorphic, so for items of one signature the classes are exactly the
    groups of equal canonical_form codes. Callers pass canonical_form as
    bound in their own module, so a wrapper set on that binding sees every
    call.
    """
    by_profile: dict[tuple, list[int]] = {}
    for i, s in enumerate(items):
        by_profile.setdefault(degree_profile(s), []).append(i)
    classes: list[list[int]] = []
    for group in by_profile.values():
        if len(group) == 1:
            classes.append(group)
            continue
        by_code: dict[CanonicalCode, list[int]] = {}
        for i in group:
            by_code.setdefault(code(items[i]), []).append(i)
        classes.extend(by_code.values())
    return classes


_Incidences = list[list[tuple[int, int, tuple[int, ...]]]]


def _incidence(size: int, rel_tuples: Iterable[Iterable[tuple[int, ...]]]) -> tuple[_Incidences, list[set[int]]]:
    """(relation, position, tuple) incidences per vertex, and the vertices sharing a tuple with each."""
    inc: _Incidences = [[] for _ in range(size)]
    for ridx, tuples in enumerate(rel_tuples):
        for t in tuples:
            for posn, x in enumerate(t):
                inc[x].append((ridx, posn, t))
    return inc, [set(chain.from_iterable(t for _, _, t in lst)) for lst in inc]


def _refine(inc: _Incidences, co: list[set[int]], colors: list[int], changed: Iterable[int]) -> list[int]:
    """Refine colors (cell starts, equitable but next to `changed`) in place
    to the coarsest equitable partition below. Cells next to a moved vertex
    are queued; the least queued splits by its members' sorted (relation,
    position, tuple colours) into parts at its start plus their offsets."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    color_of = colors.__getitem__
    queue: list[int] = []
    queued: set[int] = set()
    moved = changed
    while True:
        for x in moved:
            for u in co[x]:
                c = colors[u]
                if c not in queued and len(cells[c]) > 1:
                    queued.add(c)
                    heappush(queue, c)
        if not queue:
            return colors
        start = heappop(queue)
        queued.discard(start)
        parts: dict[tuple, list[int]] = {}
        for v in cells[start]:
            key = tuple(sorted([(r, p, *map(color_of, t)) for r, p, t in inc[v]]))
            parts.setdefault(key, []).append(v)
        moved = []
        c = start
        for key in sorted(parts):
            part = cells[c] = parts[key]
            if c != start:
                for v in part:
                    colors[v] = c
                moved += part
            c += len(part)


def _is_transposition_automorphism(
    u: int, v: int, inc: _Incidences, rel_sets: Sequence[frozenset[tuple[int, ...]]]
) -> bool:
    swap = {u: v, v: u}.get
    for ridx, _, t in chain(inc[u], inc[v]):
        if tuple(map(swap, t, t)) not in rel_sets[ridx]:
            return False
    return True


def _orbit_root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def canonical_form(s: FiniteStructure) -> CanonicalCode:
    """Canonical byte code: equal codes iff isomorphic (same signature).

    Minimum encoding over the leaves of an individualisation-refinement
    search. Every step uses only invariant data, so the set of candidate
    relabellings is the same for isomorphic structures, and the code is a
    lossless encoding, so distinct codes separate non-isomorphic ones.
    Pruned branches (module docstring) hold only codes of explored leaves.
    """
    size = s.size
    arities = tuple(a for _, a in s.signature.relations)
    rel_tuples = tuple(tuple(tuples) for tuples in s.relations)
    inc, co = _incidence(size, rel_tuples)
    # (labelling, code) of the first leaf and of the least one so far
    first: tuple[list[int], bytes] | None = None
    best: tuple[list[int], bytes] | None = None
    # automorphisms found from equal leaves, as g[x] = image of x
    gens: list[list[int]] = []

    def leaf(colors: list[int]) -> None:
        nonlocal first, best
        code = _encode_labelled(size, arities, rel_tuples, colors)
        if first is None:
            first = best = (colors, code)
            return
        for perm, other in (first, best):
            if code == other:
                # relabelling by perm and by colors gives the same structure,
                # so x -> perm^-1(colors[x]) is an automorphism
                inv = sorted(range(size), key=perm.__getitem__)
                gens.append([inv[c] for c in colors])
                return
        if code < best[1]:
            best = (colors, code)

    def search(colors: list[int], fixed: tuple[int, ...]) -> None:
        # the first cell of two or more vertices, if any
        starts = sorted(colors)
        target = next((c for c, d in zip(starts, starts[1:]) if c == d), -1)
        if target < 0:
            leaf(colors)
            return
        members = [v for v in range(size) if colors[v] == target]
        branched: list[int] = []
        # orbits of the recorded automorphisms fixing `fixed` pointwise,
        # updated only when a sibling's subtree recorded new ones
        parent: list[int] | None = None
        used = 0
        for v in members:
            if used < len(gens):
                if parent is None:
                    parent = list(range(size))
                for g in gens[used:]:
                    if all(g[x] == x for x in fixed):
                        for x, y in enumerate(g):
                            rx, ry = _orbit_root(parent, x), _orbit_root(parent, y)
                            if rx != ry:
                                parent[ry] = rx
                used = len(gens)
            if parent is not None:
                root = _orbit_root(parent, v)
                if any(_orbit_root(parent, w) == root for w in branched):
                    continue
            if any(_is_transposition_automorphism(v, w, inc, s.relations) for w in branched):
                continue
            branched.append(v)
            split = [c + (c == target) for c in colors]
            split[v] = target
            search(_refine(inc, co, split, members), fixed + (v,))

    search(_refine(inc, co, [0] * size, range(size)), ())
    search = None  # break search's self-reference, so inc and co are freed now, not by the gc
    assert best is not None
    return best[1]
