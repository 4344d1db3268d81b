"""Per-layer tracing from outside the program.

The traced run wraps the public names each layer calls through, as they
are bound in the modules that call them, and restores them afterwards:

- catalogue: the sampler and the subset-key function of the entry that
  `catalogue.get_entry` returns, via `dataclasses.replace`;
- profiles: `profile` as bound in `cli`;
- structures: `induced_substructure`, `structure_encoding` and
  `canonical_form` as bound in `profiles` and `witnesses`;
- witnesses: `build_family` and `verify_pairwise_nonisomorphic` in `cli`;
- glueing: `fragments_from_json_dict` and `glue` in `cli`, and
  `classify_overlap`, `normalize_linear`, `normalize_circular` in `glueing`;
- posets: `linearize` and `triangle_step` in `posets`;
- cli: `main`.

Coarse calls become spans (name, start, end, parent). Hot calls, such as
the millions of subset-key calls, would not fit in memory as spans, so they
are leaves: their count and seconds are added to the enclosing span. A
span's self time is its duration minus its child spans and leaves.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import contextmanager
from time import perf_counter

from oligoprofile import catalogue, cli, glueing, posets, profiles, witnesses


class Span:
    __slots__ = ("name", "start", "end", "parent", "leaves", "counts", "key_sets")

    def __init__(self, name: str, start: float, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]
        self.counts: dict[str, int] = {}  # extra counts seen at this boundary
        self.key_sets: list[set] = []  # distinct keys of each subset scan

    def distinct_keys(self) -> int:
        return sum(map(len, self.key_sets))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "leaves": self.leaves,
            "counts": {**self.counts, "distinct_keys": self.distinct_keys()},
        }


class Tracer:
    """Spans kept in memory, in start order; parent is an index or -1."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def current(self) -> Span:
        return self.spans[self._stack[-1]]

    def span(self, name: str, fn, counted=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if counted is not None:
                    counted(self.spans[idx].counts, args, result)
                return result
            finally:
                self.close(idx)

        return wrapper

    def leaf(self, name: str, fn, counted=None):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                span = self.current()
                acc = span.leaves.get(name)
                if acc is None:
                    span.leaves[name] = [1, dt]
                else:
                    acc[0] += 1
                    acc[1] += dt
            if counted is not None:
                counted(span.counts, args, result)
            return result

        return wrapper


def _add(counts: dict, key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + value


def _key_factory(tracer: Tracer, factory):
    """Trace the key functions the factory makes. They run millions of
    times, so their count and seconds go straight into the span that made
    them, and the keys each one returns into a set of its own: one scan,
    one set, whose size is the number of representatives."""
    if factory is None:
        return None

    def make(model):
        key = factory(model)
        span = tracer.current()
        acc = span.leaves.setdefault("catalogue.key", [0, 0.0])
        seen: set = set()
        span.key_sets.append(seen)

        def traced(subset):
            t0 = perf_counter()
            k = key(subset)
            acc[1] += perf_counter() - t0
            acc[0] += 1
            seen.add(k)
            return k

        return traced

    return make


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block."""
    get_entry = catalogue.get_entry

    def traced_entry(entry_id):
        entry = get_entry(entry_id)
        return dataclasses.replace(
            entry,
            sampler=tracer.span("catalogue.sample", entry.sampler),
            subset_key_factory=_key_factory(tracer, entry.subset_key_factory),
        )

    def out_bytes(counts, args, code):
        argv = args[0]
        if code == 0 and "--out" in argv:
            _add(counts, "out_bytes", os.path.getsize(argv[argv.index("--out") + 1]))

    def members(counts, args, family):
        _add(counts, "members", len(family.members))

    def non_disjoint(counts, args, case):
        _add(counts, "non_disjoint", case.tag != "disjoint")

    def rounds(counts, args, result):
        _add(counts, "rounds", len(result.trace))

    induce = tracer.leaf("structures.induce", profiles.induced_substructure)
    canonical = tracer.leaf("structures.canonical", profiles.canonical_form)
    patches = [
        (catalogue, "get_entry", traced_entry),
        (cli, "main", tracer.span("cli.main", cli.main, out_bytes)),
        (cli, "profile", tracer.span("profiles.profile", cli.profile)),
        (profiles, "induced_substructure", induce),
        (profiles, "structure_encoding", tracer.leaf("structures.encode", profiles.structure_encoding)),
        (profiles, "canonical_form", canonical),
        (witnesses, "induced_substructure", induce),
        (witnesses, "canonical_form", canonical),
        (cli, "build_family", tracer.span("witnesses.build", cli.build_family, members)),
        (cli, "verify_pairwise_nonisomorphic",
         tracer.span("witnesses.verify", cli.verify_pairwise_nonisomorphic)),
        (cli, "fragments_from_json_dict", tracer.span("glueing.parse", cli.fragments_from_json_dict)),
        (cli, "glue", tracer.span("glueing.glue", cli.glue)),
        (glueing, "classify_overlap", tracer.leaf("glueing.classify", glueing.classify_overlap, non_disjoint)),
        (glueing, "normalize_linear", tracer.span("glueing.normalize", glueing.normalize_linear)),
        (glueing, "normalize_circular", tracer.span("glueing.normalize", glueing.normalize_circular)),
        (posets, "linearize", tracer.span("posets.linearize", posets.linearize, rounds)),
        (posets, "triangle_step", tracer.leaf("posets.triangle_step", posets.triangle_step)),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, wrapped in patches:
            setattr(mod, name, wrapped)
        yield tracer
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of a set of spans, such as one traced pass."""
    span_s: dict[str, float] = {}
    span_n: dict[str, int] = {}
    self_s: dict[str, float] = {}
    leaf_n: dict[str, int] = {}
    leaf_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    children: dict[int, float] = {}
    for s in spans:
        children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
    profile_hits = 0
    distinct_keys = 0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        span_s[s.name] = span_s.get(s.name, 0.0) + dur
        span_n[s.name] = span_n.get(s.name, 0) + 1
        own = dur - children.get(i, 0.0)
        for name, (calls, secs) in s.leaves.items():
            leaf_n[name] = leaf_n.get(name, 0) + calls
            leaf_s[name] = leaf_s.get(name, 0.0) + secs
            own -= secs
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        for name, value in s.counts.items():
            counts[name] = counts.get(name, 0) + value
        distinct_keys += s.distinct_keys()
        if s.name == "profiles.profile":
            # every catalogue entry has a subset key, so each representative
            # is encoded once and canonicalised only on a cache miss
            profile_hits += s.leaves.get("structures.encode", (0,))[0]
            profile_hits -= s.leaves.get("structures.canonical", (0,))[0]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    key_calls = leaf_n.get("catalogue.key", 0)
    canonical_calls = leaf_n.get("structures.canonical", 0)
    classify_calls = leaf_n.get("glueing.classify", 0)
    return {
        "catalogue.key_calls": key_calls,
        "catalogue.key_s": leaf_s.get("catalogue.key", 0.0),
        "catalogue.sample_calls": span_n.get("catalogue.sample", 0),
        "catalogue.sample_s": span_s.get("catalogue.sample", 0.0),
        "profiles.profile_s": span_s.get("profiles.profile", 0.0),
        "profiles.self_s": self_s.get("profiles.profile", 0.0),
        "profiles.distinct_keys": distinct_keys,
        "profiles.key_yield": ratio(distinct_keys, key_calls),
        "structures.induce_calls": leaf_n.get("structures.induce", 0),
        "structures.induce_s": leaf_s.get("structures.induce", 0.0),
        "structures.encode_calls": leaf_n.get("structures.encode", 0),
        "structures.encode_s": leaf_s.get("structures.encode", 0.0),
        "structures.canonical_calls": canonical_calls,
        "structures.canonical_s": leaf_s.get("structures.canonical", 0.0),
        "structures.canonical_hit_ratio": ratio(profile_hits, profile_hits + canonical_calls),
        "witnesses.build_s": span_s.get("witnesses.build", 0.0),
        "witnesses.members": counts.get("members", 0),
        "witnesses.verify_s": span_s.get("witnesses.verify", 0.0),
        "witnesses.verify_self_s": self_s.get("witnesses.verify", 0.0),
        "glueing.parse_s": span_s.get("glueing.parse", 0.0),
        "glueing.glue_s": span_s.get("glueing.glue", 0.0),
        "glueing.classify_calls": classify_calls,
        "glueing.classify_s": leaf_s.get("glueing.classify", 0.0),
        "glueing.pair_yield": ratio(counts.get("non_disjoint", 0), classify_calls),
        "glueing.normalize_s": span_s.get("glueing.normalize", 0.0),
        "glueing.self_s": self_s.get("glueing.glue", 0.0),
        "posets.linearize_s": span_s.get("posets.linearize", 0.0),
        "posets.triangle_step_calls": leaf_n.get("posets.triangle_step", 0),
        "posets.triangle_step_s": leaf_s.get("posets.triangle_step", 0.0),
        "posets.rounds": counts.get("rounds", 0),
        "posets.self_s": self_s.get("posets.linearize", 0.0),
        "cli.main_s": span_s.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.out_bytes": counts.get("out_bytes", 0),
    }


# unit of each per-layer metric; trace.overhead_s is added by the worker
LAYER_UNITS = {
    name: ("count" if name.endswith(("_calls", "_keys", ".members", ".rounds"))
           else "B" if name.endswith("_bytes")
           else "ratio" if name.endswith(("_yield", "_ratio"))
           else "s")
    for name in layer_metrics([])
}
