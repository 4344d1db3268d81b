"""Catalogue of finite samplers for classical oligomorphic structures.

Each entry bundles a sampler (finite model of a given size), a closed-form
predictor for the number of n-point substructure classes, a saturation rule
saying how large a sample realises every n-point class, and a dedup key for
subsets (see below). Entry identifiers are stable strings used by the CLI:
pure_set, dlo, betweenness, circular, separation, local_order,
fibered_order:k, tree_c.

Entries are formulas. An entry declares a signature, points(size), the
sample's point count and the only check of the size, and family(size), one
predicate per relation. The one builder (_entry) makes one evaluator from
them: it runs points, prices the sample's tuples
(structures.evaluated_tuples) before the family tabulates anything, then
runs the family, and returns the point count and a function that
evaluates each predicate literally on every tuple over any given points
of the sample (FiniteStructure._evaluated), repeated coordinates
included. On distinct points that is the sample's induced substructure;
profile() evaluates its key representatives so and builds no sample. The
sampler is the evaluator on every point, range(points), so one price
guards both. Degenerate tuples land in the tuple set whenever the formula
says so, and no entry has sampling code of its own. The derived
ternary/quaternary relations over a chain x0 < x1 < ... are:

  betweenness  B(x,y,z)   iff x<=y<=z or z<=y<=x
  circular     C(x,y,z)   iff x<=y<=z or z<=x<=y or y<=z<=x
  separation   S(x,y,z,t) iff (C(x,y,z) and C(y,z,t) and C(z,t,x) and C(t,x,y))
                            or (C(t,z,y) and C(z,y,x) and C(y,x,t) and C(x,t,z))

local_order is the circulant tournament on an odd cycle: R(x,y) iff
(y-x) mod N lies in {1..(N-1)/2}. fibered_order:k is a chain of blocks of
size k with a reflexive comparability holding within blocks both ways and
across blocks forward: P(a,b) iff a//k <= b//k. tree_c puts the canonical
ternary branching relation on the leaves of a universal binary tree (see
_universal_tree_depths): C(x;y,z) iff d(y,z) > d(x,y) = d(x,z), where d is
the depth of the meet and a leaf's meet with itself has infinite depth.

Subset steps and keys. profile() needs every n-subset's class, not every
n-subset. It grows sorted prefixes one point at a time: step(state, last,
e) is the state of the prefix extended by a point e above its last point
(last is None for the empty prefix, whose state is ()), and per state only
the prefix with the least last point, the first reached on ties, is
extended. So that prefix must reach by extension every key that any prefix
with the state reaches. The key of a whole n-subset's state is hashable,
and equal keys induce equal canonical codes; profile counts the
isomorphism classes of the first subset per key. The order reducts induce
one literal structure on every sorted subset (their formulas only compare
arguments), so their state is constant; they and fibered_order:k take the
state as the key, and the rule keeps (0, ..., n-1) for the reducts.

fibered_order:k keeps the block run lengths, which fix the induced total
preorder, and tree_c the raw consecutive meet depths; the steps read the
last point from the prefix. Proof that the first prefix per state reaches
every key: the parent's state is a function of the child's (shorten the
last run, or drop it at 1; drop the last depth), so every prefix the
frontier reaches with a state extends the one kept prefix of the parent
state, and the first of them is extended by the least e. So the first
prefix per state is the one with the least last point, and the rule
keeps the same representatives as keeping the first would. P dominates Q
(same state) when each continuation of Q has one of P with the same states
and no larger points; this passes to extensions, so it suffices that the
first prefix dominates. fibered_order:k: by induction the first prefix
starts each run at the start of the next block, so its last point has the
least block and offset for its runs; another prefix's continuation maps
run by run onto the following blocks (only the sample's last block can be
short, and a continuation using it maps onto it). tree_c: a depth-d node
of U_s roots a copy of some U_t, t <= s - d, and U_a embeds in U_b for
a <= b keeping depths and left/right order (induct on U_t = join(U_{t-1},
U_{t//2})). The first prefix's extensions with next depth d are the
leaves of the right subtree R off its last leaf's path at depth d, first
R's leftmost leaf (leaf 0 at level 1). It turns left along R's left spine,
whose nodes root the largest subtree at their depth, so where another leaf
of R has a right subtree it has one at that depth containing it, and the
embedding keeps the raw depths. So the first prefix per state is its
lex-least, and each key's representative is its lex-least subset.

tree_c keys a subset by the unordered shape of the binary tree its leaves
span, read off the state. Take leaves i..j in left-to-right order; their
meet v is the highest of their consecutive meets, so its depth is the
least of the depths between them. That least depth is unique in the
range: two would be meets at v splitting the leaves between them three
ways, and v has two children. So the range splits there into the leaves
below v's two children; the key is () for a leaf and the sorted pair of
the two sides' keys for a range. Equal keys give isomorphic substructures:
an n-point substructure is fixed by the shape its leaves span (Saturation
proofs, tree_c). Isomorphic substructures give equal keys: a set S of two
or more of the leaves is the set below a node of the spanned tree iff
C(x;y,z) for all y, z in S and x outside it. If S is the set below v,
meets within S lie at or below v, and x meets every leaf of S at one node
above v. Otherwise S is part of the leaves below its meet v, with leaves
below both children of v; a leaf x below v outside S lies below one child
with some z of S, and some y of S lies below the other, so d(y,z) =
d(x,y) and C(x;y,z) fails. So C alone fixes the nodes of the spanned tree
and which lie below which, and an isomorphism keeps them: one key per
class. The key is a function of the state, so each key's representative
is still its lex-least subset.

local_order keys the least rotation (it starts at a minimum) of the cyclic
out-degree sequence: point i of a subset beats the next d_i subset points
round the circle, so the sequence fixes the induced tournament; one key per
class at every size tested. Of points p < q, p beats q iff q - p <= (N-1)/2.
A point more than half a circle behind the last is frozen (every later
point beats it), and the state keeps its final out-degree. Every other
point is live: each later point that keeps it live loses to it, so the
state keeps its fixed out-degree minus the point count and its position
from the oldest live point, and when points freeze the positions are
rebased on the oldest point left live. A new point beats exactly the
frozen points. So the state forgets where the frozen points sit, and the
step reads only the state and e - last. Proof that the prefix with the
least last point per state reaches every key, though the child's state
does not fix the parent's: take prefixes P and Q with equal states and
P.last <= Q.last. Shift any continuation of Q by P.last - Q.last; it
becomes a continuation of P inside the same bound, with the same steps,
so the same states and key. By induction on the length, the prefix kept
for each state has the least last point of all prefixes with that state:
a prefix R with that state extends a parent R' by some e, the prefix kept
for the state of R' ends no later than R', and the frontier extends it by
the same step e - R'.last, so it reaches R's state no later than R does.

Saturation proofs. saturation_rule(n) is a sample size that realises every
n-point class of the structure. Every entry's saturation_proof names one of
the sections below, and profile() counts each n once, at that size; the
tests recheck the rule on a sample two sizes larger.

  reducts: the formulas only compare their arguments, so any n points of a
  chain induce the one class, and 2n+3 >= n points hold n of them.

  fibered_order: k*n points are n whole blocks; a composition of n with r
  parts, each at most k, takes its i-th part from block i.

  tree_c: an n-point substructure is fixed by the shape of the binary tree
  its leaves span, since the relation compares depths of meets on a common
  root path. _universal_tree_depths proves that U_n embeds every shape
  with at most n leaves, keeping meets and their order along root paths.

  local_order: every finite local order is n points on a circle in general
  position, x -> y iff y lies in the open half-circle clockwise of x; this
  is the age of the dense local order S(2) (Lachlan 1984, homogeneous
  tournaments). The tournament depends only on the cyclic order of the 2n
  points and their antipodes; number the slots of that order 0..2n-1, so
  that slot s+n holds the antipode of slot s. On the circulant of N = 2m+1
  points (a circle of length N, half-circle m+1/2) put slot s < n at s if it
  holds a point and at s+1/2 if an antipode. Slot s+n then falls at s+m+1/2
  or at the integer s+m+1, in [s+m+1/2, s+m+1]. Both halves increase, every
  point sits on an integer, and the halves do not overlap or wrap when
  m >= n. So the circulant on 2n+1 points, and hence on 2n+3, realises
  every n-point local order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import le
from typing import Callable, Sequence

from .errors import ParameterError, int_at_least
from .growth import compositions_count, local_order_count, tree_count
from .structures import FiniteStructure, Signature, evaluated_tuples, signature

# step(state, last, e): the state of a prefix extended by e; key(state): the
# dedup key of a whole subset's state. See above. Their factories take the
# sample's size parameter.
SubsetStep = Callable[[object, int | None, int], object]
SubsetKey = Callable[[object], object]
# points(size) is a sample's point count, raising ParameterError for a size
# the entry does not take; family(size) is one predicate per relation.
Points = Callable[[int], int]
Predicate = Callable[..., bool]
Family = Callable[[int], tuple[Predicate, ...]]
Evaluator = Callable[[int], tuple[int, Callable[[Sequence[int]], FiniteStructure]]]

SIG_SET = Signature(())
SIG_ORDER = signature(("leq", 2))
SIG_BETWEENNESS = signature(("btw", 3))
SIG_CIRCULAR = signature(("cyc", 3))
SIG_SEPARATION = signature(("sep", 4))
SIG_TOURNAMENT = signature(("arc", 2))
SIG_FIBERED = signature(("prec", 2))
SIG_TREE = signature(("branch", 3))


@dataclass(frozen=True)
class CatalogueEntry:
    """One structure family: sampler, predictor, saturation and dedup data.

    sampler(size) returns a FiniteStructure on signature with points(size)
    points, and points also checks the size: the requested size except for
    tree_c, whose parameter indexes a universal tree and whose domain is
    its leaf set (documented there). evaluator(size) checks the size,
    refuses a sample over the tuple cap before its family runs, and
    returns points(size) and a function from distinct points of that
    sample to the structure they induce, evaluated from the formulas
    without the sample; sampler(size) is that function on every point.
    predictor(n) gives the expected number of n-point classes in closed
    form. subset_key_factory(size) and subset_step_factory(size) return
    the key and the prefix step of the module docstring for the sample of
    that size. saturation_proof names the module docstring's section
    proving saturation_rule.
    """

    entry_id: str
    sampler: Callable[[int], FiniteStructure]
    evaluator: Evaluator
    signature: Signature
    points: Points
    predictor: Callable[[int], int]
    saturation_rule: Callable[[int], int]
    subset_key_factory: Callable[[int], SubsetKey]
    subset_step_factory: Callable[[int], SubsetStep]
    saturation_proof: str


def _at_least(entry_id: str, least: int) -> Points:
    return lambda size: int_at_least(entry_id, "size", size, least)


def _odd_points(size: int) -> int:
    if type(size) is not int or size < 3 or size % 2 == 0:
        raise ParameterError(f"local_order needs an odd size >= 3, got {size!r}")
    return size


def _btw(x: int, y: int, z: int) -> bool:
    return x <= y <= z or z <= y <= x


def _cyc(x: int, y: int, z: int) -> bool:
    return x <= y <= z or z <= x <= y or y <= z <= x


def _separation(size: int) -> tuple[Predicate, ...]:
    # c[x][y][z] = C(x, y, z); the S formula of the module docstring by lookups
    rng = range(size)
    c = [[[_cyc(x, y, z) for z in rng] for y in rng] for x in rng]

    def sep(x: int, y: int, z: int, t: int) -> bool:
        return (c[x][y][z] and c[y][z][t] and c[z][t][x] and c[t][x][y]) or (
            c[t][z][y] and c[z][y][x] and c[y][x][t] and c[x][t][z]
        )

    return (sep,)


def _local_order(size: int) -> tuple[Predicate, ...]:
    half = (size - 1) // 2
    return (lambda x, y: 1 <= (y - x) % size <= half,)


def _tree_points(param: int) -> int:
    counts = [0, 1]  # leaves of U_t at t: U_1 is a leaf, U_t = join(U_{t-1}, U_{t//2})
    for t in range(2, _at_least("tree_c", 1)(param) + 1):
        counts.append(counts[t - 1] + counts[t // 2])
    return counts[param]


def _universal_tree_depths(s: int) -> list[list[int]]:
    """Pairwise meet depths for the leaves of the universal tree U_s.

    U_1 is a leaf and U_s joins U_{s-1} (left) with U_{s//2} (right). Every
    binary tree shape with at most s leaves embeds into U_s as a leaf subset
    with all meets distinct: a shape with n <= s leaves splits at the root
    into sides of a and n-a leaves with a >= ceil(n/2) on one side, so the
    larger side fits U_{s-1} and the smaller fits U_{s//2} by induction.
    Leaves are indexed left to right; matrix entry [i][j] is the depth of
    the lowest common ancestor (root depth 0).
    """
    n = _tree_points(s)
    md = [[0] * n for _ in range(n)]

    def fill(width: int, off: int, depth: int) -> int:
        if width <= 1:
            return 1
        nl = fill(width - 1, off, depth + 1)
        nr = fill(width // 2, off + nl, depth + 1)
        for i in range(off, off + nl):
            row = md[i]
            for j in range(off + nl, off + nl + nr):
                row[j] = depth
                md[j][i] = depth
        return nl + nr

    fill(s, 0, 0)
    return md


def _tree(param: int) -> tuple[Predicate, ...]:
    """Leaves of the universal tree U_param with the branching relation.

    The domain size is the leaf count of U_param (1, 2, 3, 5, 7, 10, 13,
    18, 23, 30, ... for param = 1, 2, ...), not param itself: a complete
    binary tree deep enough for every n-leaf shape would need 2**(n-1)
    leaves, while U_n realises the same shapes with polynomially few.

    Meets of two leaves sit on a common root path, so "strictly below" is a
    depth comparison: C(x;y,z) iff d(y,z) > d(x,y) = d(x,z). A leaf's meet
    with itself is the leaf, below every proper meet, so it gets infinite
    depth and repeated coordinates need no special case.
    """
    d: list[list[float]] = _universal_tree_depths(param)
    for i, row in enumerate(d):
        row[i] = math.inf
    return (lambda x, y, z: d[y][z] > d[x][y] == d[x][z],)


def _any_size(f: Callable) -> Callable[[int], Callable]:
    # the factory of a key or step that does not read the size
    return lambda size: f


# The reducts and fibered_order:k key a subset by its whole state.
_identity_key_factory = _any_size(lambda state: state)
_const_step_factory = _any_size(lambda state, last, e: ())


def _out_degree_step_factory(size: int) -> SubsetStep:
    # State: the final out-degrees of the frozen points, the positions of
    # the live points from the oldest live point, and their out-degrees
    # minus the point count (see the module docstring).
    half = (size - 1) // 2

    def step(state: object, last: int | None, e: int) -> object:
        if last is None:
            return (), (0,), (-1,)
        frozen, pos, deg = state
        pos += (pos[-1] + e - last,)
        count = len(frozen) + len(deg)
        # the points more than half a circle behind e freeze, and the
        # positions are rebased on the oldest point left live
        cut = bisect_left(pos, pos[-1] - half)
        if cut:
            frozen += tuple([d + count for d in deg[:cut]])
            deg = deg[cut:]
            base = pos[cut]
            pos = tuple([p - base for p in pos[cut:]])
        return frozen, pos, deg + (len(frozen) - count - 1,)

    return step


def _out_degree_key(state: object) -> object:
    # the least rotation of the cyclic out-degree sequence; it starts at a minimum
    frozen, pos, deg = state
    count = len(frozen) + len(pos)
    seq = frozen + tuple([d + count for d in deg])
    low = min(seq)
    return min(seq[i:] + seq[:i] for i, d in enumerate(seq) if d == low)


def _tree_key(state: object) -> object:
    # The unordered shape of the tree the leaves span (see the module
    # docstring): a leaf is (), a node its two children in sorted order.
    # Built left to right, as a Cartesian tree of the depths: the spine
    # holds the open nodes (depth, left child), and a depth closes every
    # deeper one. No two are equal, so this is the split at the least depth;
    # the depth -1, above the root, closes them all.
    spine: list[tuple[int, tuple]] = []
    cur: tuple = ()
    for d in state + (-1,):
        while spine and spine[-1][0] > d:
            left = spine.pop()[1]
            cur = (left, cur) if left <= cur else (cur, left)
        spine.append((d, cur))
        cur = ()
    return spine[0][1]


def _tree_step_factory(param: int) -> SubsetStep:
    # State: the raw consecutive meet depths (see the module docstring).
    md = _universal_tree_depths(param)

    def step(state: object, last: int | None, e: int) -> object:
        return () if last is None else state + (md[last][e],)

    return step


ENTRY_IDS = (
    "pure_set",
    "dlo",
    "betweenness",
    "circular",
    "separation",
    "local_order",
    "fibered_order:k",
    "tree_c",
)
_SWEPT_INSTANCES = {"fibered_order:k": ("fibered_order:2", "fibered_order:3")}


def _entry(entry_id: str, family: Family, sig: Signature, points: Points, *rest) -> CatalogueEntry:
    """The entry with fields as given, its evaluator built from the family
    and its sampler that evaluator on every point. profile's plan prices
    each sample before any n is counted, the evaluator before its family
    builds tables, and _evaluated any points: each guards its own caller."""

    def evaluator(size: int):
        count = points(size)
        evaluated_tuples(sig, count)
        formulas = family(size)
        return count, lambda subset: FiniteStructure._evaluated(sig, subset, formulas)

    def sampler(size: int) -> FiniteStructure:
        count, evaluate = evaluator(size)
        return evaluate(range(count))

    return CatalogueEntry(entry_id, sampler, evaluator, sig, points, *rest)


def _fibered_entry(k: int) -> CatalogueEntry:
    int_at_least("fibered_order", "block size", k, 1)

    def step(state: object, last: int | None, e: int) -> object:
        # State: the block run lengths (see the module docstring).
        if last is None:
            return (1,)
        if e // k == last // k:
            return state[:-1] + (state[-1] + 1,)
        return state + (1,)

    return _entry(
        f"fibered_order:{k}", lambda size: (lambda a, b: a // k <= b // k,), SIG_FIBERED,
        _at_least(f"fibered_order:{k}", 1), lambda n: compositions_count(n, k), lambda n: k * n,
        _identity_key_factory, _any_size(step), "fibered_order",
    )


def _reduct_entry(entry_id: str, sig: Signature, least: int, family: Family) -> CatalogueEntry:
    return _entry(
        entry_id, family, sig, _at_least(entry_id, least), lambda n: 1, lambda n: 2 * n + 3,
        _identity_key_factory, _const_step_factory, "reducts",
    )


_BASE_ENTRIES = {entry.entry_id: entry for entry in (
    _reduct_entry("pure_set", SIG_SET, 0, lambda size: ()),
    _reduct_entry("dlo", SIG_ORDER, 1, lambda size: (le,)),
    _reduct_entry("betweenness", SIG_BETWEENNESS, 1, lambda size: (_btw,)),
    _reduct_entry("circular", SIG_CIRCULAR, 1, lambda size: (_cyc,)),
    _reduct_entry("separation", SIG_SEPARATION, 1, _separation),
    _entry(
        "local_order", _local_order, SIG_TOURNAMENT, _odd_points, local_order_count,
        lambda n: 2 * n + 3, _any_size(_out_degree_key), _out_degree_step_factory, "local_order",
    ),
    _entry(
        "tree_c", _tree, SIG_TREE, _tree_points, tree_count, lambda n: n, _any_size(_tree_key),
        _tree_step_factory, "tree_c",
    ),
)}


def get_entry(entry: CatalogueEntry | str) -> CatalogueEntry:
    """An entry unchanged, or the entry a stable id names, fibered_order:k included."""
    if isinstance(entry, CatalogueEntry):
        return entry
    if isinstance(entry, str):
        if entry in _BASE_ENTRIES:
            return _BASE_ENTRIES[entry]
        if entry.startswith("fibered_order:"):
            raw = entry.split(":", 1)[1]
            try:
                # one spelling per k: ASCII digits, no sign, space, "_" or leading 0
                if not (raw.isascii() and raw.isdigit()) or raw[0] == "0" and raw != "0":
                    raise ValueError
                k = int(raw)
            except ValueError:
                raise ParameterError(f"bad fibered_order block size {raw!r}") from None
            return _fibered_entry(k)
    raise ParameterError(f"unknown catalogue entry {entry!r}")


def list_entry_ids() -> tuple[str, ...]:
    return ENTRY_IDS


def default_sweep_ids() -> tuple[str, ...]:
    """Concrete entries used by catalogue-wide sweeps and scripts: ENTRY_IDS,
    each parametric id replaced by its instances in _SWEPT_INSTANCES."""
    return tuple(i for entry_id in ENTRY_IDS for i in _SWEPT_INSTANCES.get(entry_id, (entry_id,)))


def sample_model(entry: CatalogueEntry | str, size: int) -> FiniteStructure:
    return get_entry(entry).sampler(size)


def age_predictor(entry: CatalogueEntry | str, n: int) -> int:
    """Closed-form class count for n-point substructures."""
    return get_entry(entry).predictor(int_at_least("predictor", "n", n, 1))
