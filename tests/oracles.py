"""Brute-force reference implementations used to pin expected values.

Everything here trades speed for obviousness: exhaustive permutation
search, direct subset enumeration, first-principles recurrences. Library
code is checked against these on small inputs, and the constants frozen
into test files were produced by a verified run of these functions.
"""

from __future__ import annotations

import functools
import itertools
import math

from oligoprofile import catalogue, glueing, profiles
from oligoprofile.catalogue import SIG_TOURNAMENT, _universal_tree_depths, sample_model
from oligoprofile.errors import DomainError, ParameterError
from oligoprofile.structures import (
    FiniteStructure,
    Signature,
    _incidence,
    _refine,
    canonical_form,
    induced_substructure,
    structure_encoding,
)


def brute_canonical(s: FiniteStructure) -> bytes:
    """Minimum encoding over every permutation of the domain."""
    return min(
        structure_encoding(s.relabel(perm))
        for perm in itertools.permutations(range(s.size))
    )


def iterated_refinement(s: FiniteStructure, colors: list[int]) -> list[int]:
    """Colour refinement as canonical_form once ran it: every pass rebuilds
    and sorts each vertex's (relation, position, tuple colours) list, and
    renumbers the colours by sorted key, until a pass splits nothing."""
    while True:
        occ: list[list] = [[] for _ in range(s.size)]
        for ridx, tuples in enumerate(s.relations):
            for t in tuples:
                key = tuple(colors[x] for x in t)
                for posn, x in enumerate(t):
                    occ[x].append((ridx, posn, key))
        for lst in occ:
            lst.sort()
        keys = [(colors[v], tuple(occ[v])) for v in range(s.size)]
        order = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [order[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def brute_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    if a.signature != b.signature or a.size != b.size:
        return False
    return any(
        a.relabel(perm).relations == b.relations
        for perm in itertools.permutations(range(a.size))
    )


def is_isomorphic(a: FiniteStructure, b: FiniteStructure) -> bool:
    """Backtracking isomorphism test, independent of canonical_form's search.

    Vertices are matched in an order chosen by refinement colours; a partial
    map is rejected as soon as a fully mapped tuple of either side fails to
    correspond. Raises ValueError on different signatures.
    """
    if a.signature != b.signature:
        raise ValueError(f"signatures differ: {a.signature.relations} vs {b.signature.relations}")
    if a.size != b.size:
        return False
    if any(len(ta) != len(tb) for ta, tb in zip(a.relations, b.relations)):
        return False
    size = a.size
    if size == 0:
        return True
    inc_a, co_a = _incidence(size, a.relations)
    inc_b, co_b = _incidence(size, b.relations)
    col_a = _refine(inc_a, co_a, [0] * size, range(size))
    col_b = _refine(inc_b, co_b, [0] * size, range(size))
    if sorted(col_a) != sorted(col_b):
        return False

    order = sorted(range(size), key=lambda v: (col_a[v], v))
    fwd: dict[int, int] = {}
    rev: dict[int, int] = {}

    def consistent(v: int, w: int) -> bool:
        for incs, known, rels in ((inc_a[v], fwd, b.relations), (inc_b[w], rev, a.relations)):
            for ridx, _, t in incs:
                if all(x in known for x in t) and tuple(known[x] for x in t) not in rels[ridx]:
                    return False
        return True

    def extend(i: int) -> bool:
        if i == size:
            return True
        v = order[i]
        for w in range(size):
            if w in rev or col_b[w] != col_a[v]:
                continue
            fwd[v] = w
            rev[w] = v
            if consistent(v, w) and extend(i + 1):
                return True
            del fwd[v]
            del rev[w]
        return False

    return extend(0)


def fibonacci(n: int) -> int:
    """F_1 = F_2 = 1, F_n = F_{n-1} + F_{n-2}."""
    if n < 1:
        raise DomainError(f"fibonacci needs n >= 1, got {n}")
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def restrict(model: FiniteStructure, subset) -> FiniteStructure:
    """Induced substructure by the definition: keep the tuples inside subset,
    renamed to positions, validated by the public constructor."""
    pos = {x: i for i, x in enumerate(subset)}
    rels = tuple(
        frozenset(tuple(pos[x] for x in t) for t in tuples if set(t) <= set(subset))
        for tuples in model.relations
    )
    return FiniteStructure(model.signature, len(subset), rels)


def leb128(x: int) -> bytes:
    """Unsigned LEB128: seven bits per byte, low first, high bit = more."""
    out = bytearray()
    while True:
        out.append((x & 0x7F) | (0x80 if x >> 7 else 0))
        x >>= 7
        if not x:
            return bytes(out)


def leb128_encoding(s: FiniteStructure) -> bytes:
    """The documented literal layout: [#relations] [arity...] [size], then
    per relation [#tuples] and the entries of its tuples in sorted order."""
    arities = [a for _, a in s.signature.relations]
    out = leb128(len(arities)) + b"".join(leb128(a) for a in arities) + leb128(s.size)
    for tuples in s.relations:
        out += leb128(len(tuples))
        out += b"".join(leb128(x) for t in sorted(tuples) for x in t)
    return out


def leb128_decode(sig: Signature, data: bytes) -> FiniteStructure:
    """Inverse of leb128_encoding for a known signature."""
    pos = 0

    def read() -> int:
        nonlocal pos
        x = shift = 0
        while True:
            b = data[pos]
            pos += 1
            x |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                return x

    arities = [read() for _ in range(read())]
    assert arities == [a for _, a in sig.relations]
    size = read()
    rels = []
    for arity in arities:
        rels.append(frozenset(tuple(read() for _ in range(arity)) for _ in range(read())))
    assert pos == len(data)
    return FiniteStructure(sig, size, tuple(rels))


def separation_tuples(size: int) -> frozenset:
    """S(x,y,z,t) on a chain of `size` points, the catalogue formula read
    literally: both cyclic readings, four C checks each."""

    def cyc(x, y, z):
        return x <= y <= z or z <= x <= y or y <= z <= x

    return frozenset(
        (x, y, z, t)
        for x, y, z, t in itertools.product(range(size), repeat=4)
        if (cyc(x, y, z) and cyc(y, z, t) and cyc(z, t, x) and cyc(t, x, y))
        or (cyc(t, z, y) and cyc(z, y, x) and cyc(y, x, t) and cyc(x, t, z))
    )


def revalidated(s: FiniteStructure) -> FiniteStructure:
    """s rebuilt through the public constructor, which checks the types,
    arities and ranges that the unchecked producers skip."""
    assert all(type(t) is tuple for tuples in s.relations for t in tuples)
    return FiniteStructure(s.signature, s.size, s.relations)


def branch_tuples(md, leaves) -> set:
    """C(x;y,z) on the given leaves: meet(y,z) strictly below meet(x,y) = meet(x,z).

    Explicit loops with the degenerate cases spelled out: with repeated
    coordinates the meet of a leaf with itself is the leaf, which lies
    strictly below any proper meet, so the formula reduces to the equality
    pattern; distinct leaves compare meet depths md[.][.].
    """
    out = set()
    idx = range(len(leaves))
    for i in idx:
        for j in idx:
            for l in idx:
                x, y, z = leaves[i], leaves[j], leaves[l]
                if j == l:
                    if i != j:
                        out.add((i, j, l))
                    continue
                if i == j or i == l:
                    continue
                dyz = md[y][z]
                dxy = md[x][y]
                if dyz > dxy and dxy == md[x][z]:
                    out.add((i, j, l))
    return out


def subset_key(entry_id: str, size: int):
    """The catalogue's dedup key computed from a whole sorted subset of the
    sample of this size.

    These are the keys the engine read from the prefix-step state, computed
    with no state. One-point subsets fall out of the general formulas (an
    out-degree of 0, a leaf's shape) instead of a special case. The
    local_order key is the least rotation of the out-degrees in circular
    order, each counted over all pairs of the subset; gap_necklace_key is
    the key it replaced. The tree_c key is the unordered shape of the
    leaves' tree, split at the least pairwise meet depth, not at the
    consecutive depths the engine reads.
    """
    if entry_id in ("pure_set", "dlo", "betweenness", "circular", "separation"):
        return lambda subset: ()
    if entry_id == "local_order":
        arcs = sample_model(entry_id, size).relation("arc")

        def necklace(subset):
            k = len(subset)
            degrees = tuple(sum((x, y) in arcs for y in subset) for x in subset)
            return min(degrees[r:] + degrees[:r] for r in range(k))

        return necklace
    if entry_id.startswith("fibered_order:"):
        k = int(entry_id.split(":")[1])

        def runs(subset):
            blocks = [e // k for e in subset]
            return tuple(len(list(g)) for _, g in itertools.groupby(blocks))

        return runs
    if entry_id == "tree_c":
        md = _universal_tree_depths(size)

        def shape(subset):
            # split at the least pairwise meet depth: the leaves meeting the
            # first one deeper, and the rest
            if len(subset) == 1:
                return ()
            low = min(md[a][b] for a, b in itertools.combinations(subset, 2))
            head = subset[0]
            near = [x for x in subset if x == head or md[head][x] > low]
            far = [x for x in subset if x not in near]
            return tuple(sorted((shape(near), shape(far))))

        return shape
    raise ParameterError(f"no oracle key for {entry_id!r}")


def gap_necklace_key(model: FiniteStructure):
    """The local_order key the out-degree necklace replaced: the gaps
    between consecutive subset points, closed around the cycle and
    minimised over rotations. Equal gap necklaces mark translates."""

    def necklace(subset):
        k = len(subset)
        gaps = tuple(subset[i + 1] - subset[i] for i in range(k - 1))
        gaps += (model.size - subset[-1] + subset[0],)
        return min(gaps[r:] + gaps[:r] for r in range(k))

    return necklace


def subset_classes(model: FiniteStructure, n: int, canon=canonical_form) -> int:
    """Number of isomorphism classes among all n-point induced substructures."""
    return len(
        {
            canon(induced_substructure(model, combo))
            for combo in itertools.combinations(range(model.size), n)
        }
    )


def class_codes(entry, size: int, n: int, budget: int = profiles.DEFAULT_BUDGET) -> frozenset[bytes]:
    """Canonical codes of the n-point classes of one sample, unscreened:
    every key representative of the profile engine is canonicalised,
    memoised by literal encoding, with no degree-profile screen. The whole
    sample is built (entry.sampler) and each representative induced from
    it, not evaluated from the formulas as profile() does. Takes the
    entry or its id, and refuses as profile() does before building."""
    entry = catalogue.get_entry(entry)
    points = profiles._checked_points(entry, size, n, budget)
    model = entry.sampler(size)
    profiles._declared(entry, size, points, model.size)
    codes: dict[bytes, bytes] = {}
    for subset in profiles._representatives(entry, size, points, n).values():
        sub = induced_substructure(model, subset)
        lit = structure_encoding(sub)
        if lit not in codes:
            codes[lit] = canonical_form(sub)
    return frozenset(codes.values())


@functools.lru_cache(maxsize=None)
def tree_shapes(n: int) -> frozenset:
    """Unordered rooted binary tree shapes with n leaves, as nested tuples.

    A leaf is (); an inner node is the pair of its children sorted by repr,
    which makes equal shapes compare equal regardless of build order.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return frozenset({()})
    shapes = set()
    for k in range(1, n // 2 + 1):
        for left in tree_shapes(k):
            for right in tree_shapes(n - k):
                shapes.add(tuple(sorted((left, right), key=repr)))
    return frozenset(shapes)


def brute_tree_count(n: int) -> int:
    return len(tree_shapes(n))


def shape_meet_depths(shape) -> list[list[int]]:
    """Pairwise meet depths of a shape's leaves, root at depth 0.

    Diagonal entries give each leaf's own depth; leaves from different
    children meet at the current root, so their entry stays 0 and every
    within-child entry is one deeper than in the child.
    """
    if shape == ():
        return [[0]]
    left, right = shape
    dl = shape_meet_depths(left)
    dr = shape_meet_depths(right)
    nl, nr = len(dl), len(dr)
    md = [[0] * (nl + nr) for _ in range(nl + nr)]
    for i in range(nl):
        for j in range(nl):
            md[i][j] = dl[i][j] + 1
    for i in range(nr):
        for j in range(nr):
            md[nl + i][nl + j] = dr[i][j] + 1
    return md


def shape_branch_structure(shape, sig) -> FiniteStructure:
    """Ternary branching relation of a shape: C(x;y,z) iff y,z meet below x.

    Same reading as the catalogue tree sampler, but fed from the shape
    recursion rather than from a stored depth table of a universal tree.
    """
    md = shape_meet_depths(shape)
    n = len(md)
    tuples = set()
    for x, y, z in itertools.product(range(n), repeat=3):
        if y == z:
            if x != y:
                tuples.add((x, y, z))
            continue
        if x == y or x == z:
            continue
        if md[y][z] > md[x][y] and md[x][y] == md[x][z]:
            tuples.add((x, y, z))
    name = sig.relations[0][0]
    return FiniteStructure.build(sig, n, {name: tuples})


def tournaments_up_to_iso(size: int) -> list[FiniteStructure]:
    """All tournaments on `size` vertices up to isomorphism.

    Grown one vertex at a time with canonical-form dedup at each level.
    Totals for size 1..7 are 1, 1, 2, 4, 12, 56, 456.
    """
    level = [FiniteStructure.build(SIG_TOURNAMENT, 1)]
    for m in range(2, size + 1):
        seen: dict[bytes, FiniteStructure] = {}
        v = m - 1
        for t in level:
            arcs = t.relation("arc")
            for pattern in itertools.product((0, 1), repeat=v):
                new_arcs = set(arcs)
                for u, bit in enumerate(pattern):
                    new_arcs.add((u, v) if bit else (v, u))
                cand = FiniteStructure.build(SIG_TOURNAMENT, m, {"arc": new_arcs})
                seen.setdefault(canonical_form(cand), cand)
        level = list(seen.values())
    return level


def is_locally_transitive(t: FiniteStructure) -> bool:
    """No directed 3-cycle inside any out- or in-neighbourhood."""
    arcs = t.relation("arc")
    for v in range(t.size):
        out = [u for u in range(t.size) if (v, u) in arcs]
        inn = [u for u in range(t.size) if (u, v) in arcs]
        for nb in (out, inn):
            for a, b, c in itertools.combinations(nb, 3):
                forward = ((a, b) in arcs) + ((b, c) in arcs) + ((c, a) in arcs)
                if forward in (0, 3):
                    return False
    return True


def locally_transitive_count(size: int) -> int:
    return sum(1 for t in tournaments_up_to_iso(size) if is_locally_transitive(t))


def odd_divisor_necklace_count(n: int) -> int:
    """Closed form (1/2n) * sum over odd d | n of phi(d) * 2^(n/d).

    Counts binary necklaces with an odd-period constraint; the same numbers
    arise as the n-point class counts of the half-circle tournament, which
    is what the profile tests pin it against.
    """
    total = 0
    for d in range(1, n + 1, 2):
        if n % d:
            continue
        phi = sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
        total += phi * 2 ** (n // d)
    return total // (2 * n)


def brute_max_antichain(p) -> int:
    """Largest pairwise-incomparable subset, by direct subset search."""
    best = 1
    for r in range(2, p.size + 1):
        for combo in itertools.combinations(range(p.size), r):
            if all(pair_incomparable(p, a, b) for a, b in itertools.combinations(combo, 2)):
                best = r
                break
    return best


def kuhn_width(p) -> int:
    """Size minus a maximum matching of each element to a strict
    successor, by plain augmenting paths from every element over pair
    lookups: Dilworth's width, polynomially, for posets past brute search."""
    succs = [[b for b in range(p.size) if b != a and (a, b) in p.leq] for a in range(p.size)]
    match = [-1] * p.size

    def augment(a: int, seen: set) -> bool:
        for b in succs[a]:
            if b not in seen:
                seen.add(b)
                if match[b] == -1 or augment(match[b], seen):
                    match[b] = a
                    return True
        return False

    return p.size - sum(augment(a, set()) for a in range(p.size))


def brute_compositions(n: int, max_part: int) -> list[tuple[int, ...]]:
    """Every ordered way to write n as parts in 1..max_part."""
    if n == 0:
        return [()]
    out = []
    for first in range(1, min(n, max_part) + 1):
        out.extend((first,) + rest for rest in brute_compositions(n - first, max_part))
    return out


def recursive_compositions(n: int, max_part: int):
    """The recursive generator witnesses.compositions once was: one level
    per unit of n, so it overflows the stack for large n."""

    def rec(remaining: int):
        if remaining == 0:
            yield ()
            return
        for head in range(1, min(max_part, remaining) + 1):
            for tail in rec(remaining - head):
                yield (head,) + tail

    return rec(n)


def compositions_count_table(n: int, max_part: int) -> int:
    """Compositions of n into parts of at most max_part, by the full
    recurrence c_m = c_{m-1} + ... + c_{m-max_part} summed term by term."""
    acc = [1] + [0] * n
    for m in range(1, n + 1):
        acc[m] = sum(acc[m - j] for j in range(1, min(m, max_part) + 1))
    return acc[n]


# The pair oracles read only membership in p.leq, never the masks.
def pair_incomparable(p, a: int, b: int) -> bool:
    return a != b and (a, b) not in p.leq and (b, a) not in p.leq


def pair_incomparables(p, a: int) -> tuple[int, ...]:
    return tuple(b for b in range(p.size) if pair_incomparable(p, a, b))


def pair_is_chain(p) -> bool:
    return not any(pair_incomparable(p, a, b) for a, b in itertools.combinations(range(p.size), 2))


def pair_max_incomparability(p) -> int:
    return max(len(pair_incomparables(p, a)) for a in range(p.size))


def pair_triangle_step(p) -> frozenset:
    """a before b when a <= b or b is maximal in V(a), by pair lookups."""
    tri = set(p.leq)
    for a in range(p.size):
        incs = pair_incomparables(p, a)
        for b in incs:
            if not any(c != b and (b, c) in p.leq for c in incs):
                tri.add((a, b))
    return frozenset(tri)


def pair_quotient(size: int, tri) -> tuple[frozenset, list[list[int]]]:
    """Classes of mutual before-ness, each led by its least member, and
    the class order read off every pair; None for the order when it
    depends on the representatives."""
    cls = [-1] * size
    groups: list[list[int]] = []
    for a in range(size):
        if cls[a] != -1:
            continue
        cls[a] = len(groups)
        members = [a]
        for b in range(a + 1, size):
            if cls[b] == -1 and (a, b) in tri and (b, a) in tri:
                cls[b] = cls[a]
                members.append(b)
        groups.append(members)
    qleq = {(i, i) for i in range(len(groups))}
    qleq.update((cls[a], cls[b]) for a, b in tri if cls[a] != cls[b])
    for ca, cb in qleq:
        if ca != cb and any((a, b) not in tri for a in groups[ca] for b in groups[cb]):
            return None, groups
    return frozenset(qleq), groups


def brute_first_intransitive(size: int, rel) -> tuple[int, int] | None:
    """The least (a, b) in rel with some (b, c) in rel and (a, c) not,
    by pair lookups; None when rel is transitive."""
    for a, b in itertools.product(range(size), repeat=2):
        if (a, b) in rel and any((b, c) in rel and (a, c) not in rel for c in range(size)):
            return a, b
    return None


def brute_mixed_block(tri, groups: list[list[int]]) -> tuple[int, int] | None:
    """The least pair of distinct classes (C, D) where some but not all
    of C x D lies in tri, by pair lookups."""
    for ca, cb in itertools.permutations(range(len(groups)), 2):
        hits = {(a, b) in tri for a in groups[ca] for b in groups[cb]}
        if hits == {True, False}:
            return ca, cb
    return None


def brute_normalize_circular(seq):
    """Least rotation over both reading directions of a cycle, comparing
    the key of every rotation in turn; ties keep the first one met."""
    fwd = tuple(seq)
    best = None
    for base in (fwd, tuple(reversed(fwd))):
        for shift in range(len(base)):
            cand = base[shift:] + base[:shift]
            if best is None or glueing._seq_key(cand) < glueing._seq_key(best):
                best = cand
    return best


def all_pairs_glue(fragments):
    """glue with every pair of fragments classified, disjoint or not,
    in the order i < j, i ascending, then j ascending.

    The edges built from those classifications go to glueing._assemble,
    so this checks which pairs glue classifies, in what order, and the
    components and first error that follow from them; the traversal
    and placement are glue's own."""
    ids = [f.fragment_id for f in fragments]
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate fragment ids")
    n = len(fragments)
    edges = {i: [] for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            case = glueing.classify_overlap(fragments[i], fragments[j])
            if case.tag == "disjoint":
                continue
            parity = 1 if case.tag in glueing._REVERSING_TAGS else 0
            anchors = tuple(seg[0] for seg in case.segments)
            edges[i].append((j, parity, anchors))
            edges[j].append((i, parity, anchors))
    flip = {}
    components = [
        glueing._assemble(fragments, root, flip, edges)
        for root in range(n)
        if root not in flip
    ]
    components.sort(key=lambda c: c.members)
    return components
