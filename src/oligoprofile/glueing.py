"""Glueing linear order fragments into lines and circles.

Fragments are finite runs read off a hidden linear or circular order,
each in an arbitrary direction. Intersections of two such runs fall
into five shapes: empty, one shared run read the same way (head to
tail), one shared run read opposite ways, or two shared runs at the
ends, again aligned or reversed; anything else cannot come from one
ambient order. Glueing walks each component once: it fixes a direction
per fragment so all overlaps align, chains overlaps into integer
offsets, and reads a wrap-around (a closed chain of overlaps shifting
by one full period) as evidence that the component is circular rather
than linear.

Only fragments that share an element can overlap, so glueing indexes
each element's fragments and classifies just those pairs: the cost
follows the number of overlaps, not the square of the fragment count.
The shared runs of a pair are read once, in classify_overlap; the
offsets come from one anchor element per run.

A GlueComponent checks its value and stores its normal form, so any
reading of a line or circle built by hand equals what glue returns. A
circle's least rotation starts at an element of least key, and only
those m starts are compared, in O(n*m): m <= 2 for distinct JSON
elements (only true/"True", false/"False" and null/"None" share a key),
while a period-3 sequence of 10,000 takes 1 s (2-core x86-64 VM).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import groupby
from math import gcd
from typing import Hashable, Iterable, Iterator, Sequence

from .catalogue import sample_model
from .errors import (
    FragmentPairError,
    InconsistentFragmentsError,
    InternalInvariantError,
    ParameterError,
    at_most,
    int_arg,
    int_at_least,
)
from .structures import FiniteStructure

Element = Hashable

OVERLAP_TAGS = (
    "disjoint",
    "head-tail",
    "aligned-reversed",
    "double-wrap",
    "double-wrap-reversed",
)


@dataclass(frozen=True)
class OrderFragment:
    """A directed run of distinct hashable elements, at least two long, under a string id."""

    fragment_id: str
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.fragment_id, str):
            raise ParameterError(f"fragment id {self.fragment_id!r} is not a string")
        if not isinstance(self.elements, Iterable):
            raise ParameterError(f"fragment {self.fragment_id!r} elements are not iterable")
        object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) < 2:
            raise ParameterError(
                f"fragment {self.fragment_id!r} needs >= 2 elements"
            )
        try:
            distinct = len(set(self.elements))
        except TypeError:
            raise ParameterError(f"fragment {self.fragment_id!r} holds an unhashable element") from None
        if distinct != len(self.elements):
            raise ParameterError(
                f"fragment {self.fragment_id!r} repeats an element"
            )

    def to_json_dict(self) -> dict:
        return {"id": self.fragment_id, "elements": list(self.elements)}


@dataclass(frozen=True)
class OverlapCase:
    """How two fragments intersect: a tag and the shared runs, read
    in the first fragment's direction."""

    tag: str
    segments: tuple[tuple[Element, ...], ...]

    def __post_init__(self) -> None:
        if self.tag not in OVERLAP_TAGS:
            raise ParameterError(f"unknown overlap tag {self.tag!r}")


@dataclass(frozen=True)
class GlueComponent:
    """One connected block of fragments with its recovered arrangement.

    A line of at least 2 or a circle of at least 3 distinct hashable
    elements, in any reading, and the string ids of its fragments. The
    arrangement is stored as normalize_linear or normalize_circular gives
    it and the members sorted, so equal components compare equal as values.
    """

    kind: str
    arrangement: tuple[Element, ...]
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "circular"):
            raise ParameterError(f"unknown component kind {self.kind!r}")
        least = 2 if self.kind == "linear" else 3
        try:
            arrangement = tuple(self.arrangement)
            distinct = len(set(arrangement))
        except TypeError:
            distinct = -1  # not iterable, or an element is unhashable
        if distinct < least or distinct != len(arrangement):
            raise ParameterError(
                f"a {self.kind} component needs >= {least} distinct hashable elements"
            )
        for member in self.members:
            if not isinstance(member, str):
                raise ParameterError(f"component member {member!r} is not a string")
        normalize = normalize_linear if self.kind == "linear" else normalize_circular
        object.__setattr__(self, "arrangement", normalize(arrangement))
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "arrangement": list(self.arrangement),
            "members": list(self.members),
        }


def _order_key(x: Element):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return (1, str(x))
    return (0, x)


def _seq_key(seq: Iterable[Element]) -> tuple:
    return tuple(_order_key(x) for x in seq)


def normalize_linear(seq: Sequence[Element]) -> tuple[Element, ...]:
    """The smaller reading direction of a linear arrangement."""
    fwd = tuple(seq)
    rev = tuple(reversed(fwd))
    return fwd if _seq_key(fwd) <= _seq_key(rev) else rev


def normalize_circular(seq: Sequence[Element]) -> tuple[Element, ...]:
    """The least rotation over both reading directions of a cycle, from
    the starts of least key. Ties keep the forward direction and, within
    a direction, the least start, so equal keys of different elements
    (1 and 1.0, True and "True") resolve as a scan of every rotation would.
    """
    fwd = tuple(seq)
    if not fwd:
        return fwd
    readings = (fwd, fwd[::-1])
    keys = [_seq_key(r) for r in readings]
    low = min(keys[0])
    _, d, i = min(
        (k[i:] + k[:i], d, i) for d, k in enumerate(keys) for i, x in enumerate(k) if x == low
    )
    return readings[d][i:] + readings[d][:i]


def _end_runs(seq: tuple[Element, ...], shared: set[Element]) -> list[tuple[int, int]]:
    """Maximal runs of shared elements as (start, length) slices."""
    runs = []
    start = 0
    for inside, run in groupby(seq, shared.__contains__):
        length = len(list(run))
        if inside:
            runs.append((start, length))
        start += length
    return runs


def classify_overlap(f1: OrderFragment, f2: OrderFragment) -> OverlapCase:
    """Sort one pair of fragments into the five intersection shapes.

    Shapes that cannot arise from windows of a single ambient line or
    circle (a shared run interior to either fragment, or scrambled
    shared orders) raise FragmentPairError.
    """
    a, b = f1.elements, f2.elements
    shared = set(a) & set(b)
    if not shared:
        return OverlapCase(tag="disjoint", segments=())
    runs_a = _end_runs(a, shared)
    runs_b = _end_runs(b, shared)
    detail = f"fragments {f1.fragment_id!r}, {f2.fragment_id!r}"
    if len(runs_a) != len(runs_b) or len(runs_a) > 2:
        raise FragmentPairError(f"{detail}: shared runs do not pair up")

    def slice_of(seq, run):
        return seq[run[0]:run[0] + run[1]]

    def is_prefix(run):
        return run[0] == 0

    def is_suffix(seq, run):
        return run[0] + run[1] == len(seq)

    if len(runs_a) == 1:
        ra, rb = runs_a[0], runs_b[0]
        seg_a, seg_b = slice_of(a, ra), slice_of(b, rb)
        if seg_a == seg_b:
            if (is_suffix(a, ra) and is_prefix(rb)) or (
                is_prefix(ra) and is_suffix(b, rb)
            ):
                return OverlapCase(tag="head-tail", segments=(seg_a,))
        if seg_a == tuple(reversed(seg_b)):
            if (is_prefix(ra) and is_prefix(rb)) or (
                is_suffix(a, ra) and is_suffix(b, rb)
            ):
                return OverlapCase(tag="aligned-reversed", segments=(seg_a,))
        raise FragmentPairError(f"{detail}: shared run not at matching ends")

    pa, sa = runs_a
    pb, sb = runs_b
    if not (is_prefix(pa) and is_suffix(a, sa) and is_prefix(pb) and is_suffix(b, sb)):
        raise FragmentPairError(f"{detail}: shared runs not at both ends")
    pa_seq, sa_seq = slice_of(a, pa), slice_of(a, sa)
    pb_seq, sb_seq = slice_of(b, pb), slice_of(b, sb)
    if sa_seq == pb_seq and sb_seq == pa_seq:
        return OverlapCase(tag="double-wrap", segments=(pa_seq, sa_seq))
    if pa_seq == tuple(reversed(pb_seq)) and sa_seq == tuple(reversed(sb_seq)):
        return OverlapCase(tag="double-wrap-reversed", segments=(pa_seq, sa_seq))
    raise FragmentPairError(f"{detail}: end runs match in no direction")


_REVERSING_TAGS = ("aligned-reversed", "double-wrap-reversed")

# Cap on the (element, fragment pair) incidences glue walks. Sampled lines
# and circles of 30,000 elements have about 19,500.
_MAX_SHARINGS = 200_000

# the other fragment, the pair's parity, one anchor element per shared run
Edge = tuple[int, int, tuple[Element, ...]]


def _overlapping_pairs(fragments: Sequence[OrderFragment]) -> Iterator[tuple[int, int]]:
    """Index pairs i < j of fragments that share an element, i ascending,
    then j ascending: the all-pairs order with disjoint pairs left out.

    An index from each element to the fragments holding it finds the
    partners, so the cost follows the overlaps, not the square of the
    fragment count: it is the sum over elements of C(holders, 2), which
    is refused past _MAX_SHARINGS before any pair is yielded.
    """
    holders: dict[Element, list[int]] = {}
    for i, f in enumerate(fragments):
        for x in f.elements:
            holders.setdefault(x, []).append(i)
    sharings = sum(len(h) * (len(h) - 1) // 2 for h in holders.values())
    at_most("glue", "(element, fragment pair) incidences to check", sharings, _MAX_SHARINGS)
    for i, f in enumerate(fragments):
        partners = {j for x in f.elements for j in holders[x] if j > i}
        for j in sorted(partners):
            yield i, j


def glue(fragments: Sequence[OrderFragment]) -> list[GlueComponent]:
    """Assemble fragments into linear or circular components.

    Fragments are nodes; intersecting pairs are edges carrying whether
    the two readings disagree and one anchor element per shared run, so
    each pair's shared runs are read once, in classify_overlap. One
    traversal per component fixes a direction per fragment (an odd cycle
    of reversals means no consistent choice) and pins relative start
    offsets at the anchors. Offset clashes around cycles all share one
    period: the circumference. Every element must land on exactly one
    position and every position on one element.
    """
    ids = [f.fragment_id for f in fragments]
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate fragment ids")
    n = len(fragments)
    edges: dict[int, list[Edge]] = {i: [] for i in range(n)}
    for i, j in _overlapping_pairs(fragments):
        case = classify_overlap(fragments[i], fragments[j])
        parity = 1 if case.tag in _REVERSING_TAGS else 0
        anchors = tuple(seg[0] for seg in case.segments)
        edges[i].append((j, parity, anchors))
        edges[j].append((i, parity, anchors))
    flip: dict[int, int] = {}
    components = [
        _assemble(fragments, root, flip, edges) for root in range(n) if root not in flip
    ]
    components.sort(key=lambda c: c.members)
    return components


def _assemble(
    fragments: Sequence[OrderFragment],
    root: int,
    flip: dict[int, int],
    edges: dict[int, list[Edge]],
) -> GlueComponent:
    """Walk root's component once, recording directions in flip, and
    place it. A fragment takes its direction and the least start its
    anchors pin from the edge that discovers it; later edges must agree
    on directions, and each other start they pin adds to the period."""
    flip[root] = 0
    oriented = {root: fragments[root].elements}
    offset = {root: 0}
    period = 0
    todo = [root]
    while todo:
        cur = todo.pop()
        for nxt, parity, anchors in edges[cur]:
            want = flip[cur] ^ parity
            if nxt not in flip:
                flip[nxt] = want
                elements = fragments[nxt].elements
                oriented[nxt] = elements[::-1] if want else elements
                todo.append(nxt)
            elif flip[nxt] != want:
                raise InconsistentFragmentsError(
                    f"fragment {fragments[nxt].fragment_id!r} needs both "
                    "directions at once"
                )
            deltas = {oriented[cur].index(x) - oriented[nxt].index(x) for x in anchors}
            offset.setdefault(nxt, offset[cur] + min(deltas))
            for delta in deltas:
                period = gcd(period, offset[nxt] - offset[cur] - delta)

    at_position: dict[int, Element] = {}
    position_of: dict[Element, int] = {}
    for i, seq in oriented.items():
        for k, x in enumerate(seq):
            pos = offset[i] + k
            if period:
                pos %= period
            if at_position.get(pos, x) != x or position_of.get(x, pos) != pos:
                raise InconsistentFragmentsError(
                    f"element {x!r} and position {pos} do not match up"
                )
            at_position[pos] = x
            position_of[x] = pos

    members = [fragments[i].fragment_id for i in oriented]
    if period:
        # each fragment is placed on an anchor it shares with the one that
        # found it, so the positions form one interval, no shorter than the period
        if len(at_position) != period:
            raise InternalInvariantError(
                f"{len(at_position)} elements on a circle of {period} positions"
            )
        if period < 3:
            raise InconsistentFragmentsError(
                f"wrap-around over only {period} positions"
            )
        cycle = [at_position[p] for p in range(period)]
        return GlueComponent(kind="circular", arrangement=cycle, members=members)
    low, high = min(at_position), max(at_position)
    if len(at_position) != high - low + 1:
        # the positions form one interval, as the circle check above notes
        raise InternalInvariantError("line has uncovered positions")
    line = [at_position[p] for p in range(low, high + 1)]
    return GlueComponent(kind="linear", arrangement=line, members=members)


def emit_invariant_relation(component: GlueComponent) -> FiniteStructure:
    """The direction-free structure of a component's arrangement.

    Linear components give the betweenness structure of their line,
    circular ones the separation structure of their cycle; both tuple
    sets are unchanged under reversing (and, for cycles, rotating) the
    arrangement, so equal components emit equal structures. Sampling
    evaluates n**3 or n**4 tuples for n elements; past the tuple cap of
    structures.evaluated_tuples the sampler refuses before it evaluates any
    table or tuple (ResourceError, "sample of N points: ..."). The largest
    accepted line (125 elements) and circle (37) take 0.7 s and 0.9 s on a
    2-core x86-64 VM.
    """
    entry = "betweenness" if component.kind == "linear" else "separation"
    return sample_model(entry, len(component.arrangement))


def fragments_to_json_dict(fragments: Sequence[OrderFragment]) -> dict:
    return {"fragments": [f.to_json_dict() for f in fragments]}


def fragments_from_json_dict(payload: dict) -> tuple[OrderFragment, ...]:
    """The fragments of a decoded JSON payload. Python equates 1, 1.0 and
    true (and 0, 0.0 and false), which JSON keeps apart, so two such values
    anywhere in the payload are refused before the fragment holding the
    second is built."""
    out = []
    numbers: dict = {}  # number -> the first JSON value equal to it
    try:
        for row in payload["fragments"]:
            fragment_id, elements = row["id"], row["elements"]
            if not isinstance(elements, list):
                raise TypeError(f"fragment {fragment_id!r} elements are not a list")
            for x in elements:
                if isinstance(x, (int, float)):
                    first = numbers.setdefault(x, x)
                    if type(first) is not type(x):
                        raise ParameterError(
                            f"elements {json.dumps(first)} and {json.dumps(x)} are distinct JSON"
                            " values that Python holds equal"
                        )
            out.append(OrderFragment(fragment_id=fragment_id, elements=tuple(elements)))
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed fragments payload: {exc}") from None
    return tuple(out)


# Longest window either sampler draws.
_MAX_LEN = 12


def _next_overlap(rng: random.Random, prev_len: int) -> int:
    if prev_len <= 3:
        return 2
    return rng.randint(2, min(4, prev_len - 1))


def _march(
    rng: random.Random, first: int, target: int, cap: int, size: int
) -> list[tuple[int, int]] | None:
    """Windows from (0, first) until one ends at target, each overlapping
    the last by two to four positions: the rest up to target when that
    fits under cap, else a drawn length ending within 0..size. None when
    no length fits; the caller resamples."""
    spans = [(0, first)]
    while spans[-1][1] < target:
        s_prev, e_prev = spans[-1]
        overlap = _next_overlap(rng, e_prev - s_prev)
        start = e_prev - overlap
        if target - start <= cap:
            length = target - start
        else:
            lo, hi = max(3, overlap + 1), min(cap, size - start)
            if hi < lo:
                return None
            length = rng.randint(lo, hi)
        spans.append((start, start + length))
    return spans


def _try_arc_spans(size: int, rng: random.Random) -> list[tuple[int, int]] | None:
    """One attempt at covering arcs: a single lap plus a final arc that
    wraps into the first one. None when the draw paints itself into a
    corner; the caller resamples."""
    cap = min(_MAX_LEN, size - 2)
    first = rng.randint(3, cap)
    wrap = rng.randint(2, first - 1) if first > 3 else 2
    spans = _march(rng, first, size + wrap, cap, size)
    if spans is None or wrap >= spans[1][0]:
        return None
    return spans


def sample_linear_fragments(
    size: int, seed: int
) -> tuple[tuple[Element, ...], tuple[OrderFragment, ...]]:
    """A hidden shuffled line plus covering windows in random directions."""
    int_at_least("sample_linear_fragments", "size", size, 3)
    rng = random.Random(int_arg("sample_linear_fragments", "seed", seed))
    hidden = list(range(size))
    rng.shuffle(hidden)
    # a drawn length has hi == _MAX_LEN >= lo here, so the march never fails
    spans = _march(rng, rng.randint(3, min(size, _MAX_LEN)), size, _MAX_LEN, size)
    return tuple(hidden), _spans_to_fragments(hidden, spans, rng, wrap=0)


def sample_circular_fragments(
    size: int, seed: int
) -> tuple[tuple[Element, ...], tuple[OrderFragment, ...]]:
    """A hidden shuffled cycle plus covering arcs in random directions.

    Arcs march once around the circle and the last one wraps into the
    first, so the overlap chain closes and the period equals size. A draw
    is retried, up to 200 times, when a window near the end of the lap
    has no length that fits, or when the last arc wraps as far as the
    second one's start. Every draw kept glues: two arcs meet only head to
    tail, except the last and the first, which may also meet at both ends.
    """
    int_at_least("sample_circular_fragments", "size", size, 8)
    rng = random.Random(int_arg("sample_circular_fragments", "seed", seed))
    hidden = list(range(size))
    rng.shuffle(hidden)
    for _ in range(200):
        spans = _try_arc_spans(size, rng)
        if spans is not None:
            return tuple(hidden), _spans_to_fragments(hidden + hidden, spans, rng, wrap=size)
    raise ParameterError(f"no valid arc covering of size {size} found")


def _spans_to_fragments(
    ground: list[Element],
    spans: list[tuple[int, int]],
    rng: random.Random,
    wrap: int,
) -> tuple[OrderFragment, ...]:
    windows = []
    for s, e in spans:
        seq = tuple(ground[s:e])
        if wrap and len(seq) > wrap:
            # every arc is at most size - 2 long, and wrap is the size
            raise InternalInvariantError("window longer than the circle")
        if rng.random() < 0.5:
            seq = tuple(reversed(seq))
        windows.append(seq)
    rng.shuffle(windows)
    return tuple(
        OrderFragment(fragment_id=f"f{i}", elements=seq)
        for i, seq in enumerate(windows)
    )
