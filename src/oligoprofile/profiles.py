"""Profile enumeration: count substructure classes of sampled models.

profile(entry, n_max) computes, for each n up to n_max, the number of
isomorphism classes among the induced substructures on all n-subsets of a
finite model sampled at the entry's saturation size (the base). Every
catalogue entry's saturation rule is proven (catalogue, "Saturation
proofs"), so each n is counted once, at the base; the recheck against a
larger sample runs in the tests.

Subsets are enumerated as a frontier of sorted prefixes, one level per
length. Each level maps a prefix state (the entry's subset step, see
catalogue) to the first prefix that reached it, and only that prefix is
extended; the last level maps the entry's key of each extension's state to
the first subset that reached it.

The frontier reads only the step and key the entry makes for the base's
size, and each representative is evaluated from the entry's formulas on
its own points (the entry's evaluator), which gives the sample's induced
substructure on them. So profile builds no sample.

Counting never trusts the dedup key alone. Keys pick one representative
subset per key, and the representatives' classes are counted by
structures.isomorphism_classes: degree profiles (an isomorphism invariant)
separate them, and a structure whose profile no other shares is a class of
its own; only structures that tie on a profile are canonicalised, and
their distinct codes are counted. So the classes are exactly the
canonical-code classes of the representatives, and literally equal
representatives, being isomorphic, fall into one class.

Every limit is checked before anything is evaluated: the entry declares
its signature and each sample's points, and for n = 1, 2, ... in turn
three checks run, and the first to fail is raised: C(points, n) against
the budget, that n's sample against structures.MAX_EVALUATED_TUPLES on
its own (structures.evaluated_tuples, "sample of N points: ..."), and the
running total of the samples' tuples against the same cap. So the scan
stops at the least n that fails any limit. The tuple caps price the
samples, which profile no longer builds. Then, per n, the evaluator's
points are checked against the declaration before the frontier runs, and
the representatives are evaluated, counted and dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# catalogue.get_entry is looked up per call, so a wrapped one is honoured
from . import catalogue, structures
from .errors import InternalInvariantError, ParameterError, ResourceError, int_at_least
from .structures import (
    canonical_form,
    induced_substructure,  # unused here: perfbench/layers.py patches this binding
    isomorphism_classes,
    structure_encoding,  # unused here: perfbench/layers.py patches this binding
)

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ProfileSequence:
    """Profile values f_1..f_n with the sample size each was counted at,
    the proven base."""

    entry_id: str
    values: tuple[int, ...]
    saturated_at: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.saturated_at):
            raise ParameterError("values and saturated_at must align")
        if any(v < 1 for v in self.values):
            raise ParameterError(f"profile values must be >= 1, got {self.values}")

    def to_csv(self) -> str:
        rows = zip(range(1, len(self.values) + 1), self.values, self.saturated_at)
        return "n,f_n,saturated_at\n" + "".join(f"{n},{v},{s}\n" for n, v, s in rows)

    def to_json_dict(self) -> dict:
        return {
            "entry": self.entry_id,
            "values": list(self.values),
            "saturated_at": list(self.saturated_at),
        }


def _checked_points(entry, size: int, n: int, budget: int) -> int:
    """The points the sample of this size declares, once n-subsets fit the budget."""
    int_at_least(entry.entry_id, "subset size", n, 1)
    points = entry.points(size)
    if n > points:
        raise ParameterError(f"{entry.entry_id}: sample of {points} points cannot host n={n}")
    total = math.comb(points, n)
    if total > budget:
        raise ResourceError(f"{entry.entry_id}: {total} subsets of size {n} exceed budget {budget}")
    return points


def _declared(entry, size: int, points: int, built: int) -> None:
    if built != points:
        raise InternalInvariantError(
            f"{entry.entry_id}: sampler({size}) built {built} points, declared {points}"
        )


def _sample(entry, size: int, points: int):
    """The whole sample of this size, checked against its declaration; the
    tests' unscreened reference counts on it."""
    model = entry.sampler(size)
    _declared(entry, size, points, model.size)
    return model


def _representatives(entry, size: int, points: int, n: int) -> dict:
    """Key -> the first n-subset of range(points) with that key the
    frontier reaches, stepping and keying for the sample of this size."""
    key = entry.subset_key_factory(size)
    step = entry.subset_step_factory(size)
    level: dict = {(): ()}
    for todo in range(n, 0, -1):
        # a prefix extended by e still needs todo - 1 points above e
        nxt: dict = {}
        for state, prefix in level.items():
            last = prefix[-1] if prefix else None
            for e in range(0 if last is None else last + 1, points - todo + 1):
                s = step(state, last, e)
                if todo == 1:
                    s = key(s)
                if s not in nxt:
                    nxt[s] = prefix + (e,)
        level = nxt
    return level


def _class_count(entry, size: int, points: int, n: int) -> int:
    """Classes among the representatives, each evaluated on its own
    points: separated by degree profile, canonicalised only in ties."""
    built, evaluate = entry.evaluator(size)
    _declared(entry, size, points, built)
    subs = [evaluate(s) for s in _representatives(entry, size, points, n).values()]
    return len(isomorphism_classes(subs, canonical_form))


def profile(entry, n_max: int, budget: int = DEFAULT_BUDGET) -> ProfileSequence:
    """Profile f_1..f_{n_max} of a catalogue entry, each n counted once on
    the sample of saturation_rule(n) points.

    Accepts an entry object or a stable identifier string. budget bounds
    C(sample points, n) for every count; it and the tuple cap are checked
    on the declared points before anything is evaluated.
    """
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    int_at_least("profile", "n_max", n_max, 1)
    int_at_least("profile", "budget", budget, 0)
    plan = []
    evaluated = 0
    for n in range(1, n_max + 1):
        size = entry.saturation_rule(n)
        points = _checked_points(entry, size, n, budget)
        plan.append((size, points))
        evaluated += structures.evaluated_tuples(entry.signature, points)
        if evaluated > structures.MAX_EVALUATED_TUPLES:
            raise ResourceError(
                f"{entry.entry_id}: samples for n=1..{n} evaluate {evaluated} tuples,"
                f" over the cap of {structures.MAX_EVALUATED_TUPLES}"
            )
    values = tuple(_class_count(entry, size, points, n) for n, (size, points) in enumerate(plan, 1))
    return ProfileSequence(entry.entry_id, values, tuple(size for size, _ in plan))

