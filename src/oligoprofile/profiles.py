"""Profile enumeration: count substructure classes of sampled models.

profile(entry, n_max) computes, for each n up to n_max, the number of
distinct canonical codes among the induced substructures on all n-subsets
of a finite model sampled at the entry's saturation size (the base). Every
catalogue entry's saturation rule is proven (catalogue, "Saturation
proofs"), so each n is counted once, at the base; the recheck against a
larger sample runs in the tests.

Subsets are enumerated as a frontier of sorted prefixes, one level per
length. Each level maps a prefix state (the entry's subset step, see
catalogue) to the first prefix that reached it, and only that prefix is
extended; the last level maps the entry's key of each extension's state to
the first subset that reached it.

Counting never trusts the dedup key alone: keys only pick one
representative subset per key, canonical codes of the representatives are
what gets counted. Within one count, canonical codes are memoised by
literal encoding.

Every count is checked against the budget before the first one is
computed, so an over-budget request fails at once: C(size, n) for each n
as its size is computed, before the first sample is built, since a sample
has at least size points, then C(points, n) on each sample.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

# catalogue.get_entry is looked up per call, so a wrapped one is honoured
from . import catalogue
from .errors import ParameterError, ResourceError
from .structures import canonical_form, induced_substructure, structure_encoding

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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "f_n", "saturated_at"])
        for i, (v, s) in enumerate(zip(self.values, self.saturated_at)):
            writer.writerow([i + 1, v, s])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "entry": self.entry_id,
            "values": list(self.values),
            "saturated_at": list(self.saturated_at),
        }

    @classmethod
    def from_json_dict(cls, data) -> "ProfileSequence":
        try:
            entry_id, values, sat = data["entry"], data["values"], data["saturated_at"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed profile JSON: {exc}") from None
        if type(entry_id) is not str or any(
            type(seq) is not list or any(type(x) is not int for x in seq) for seq in (values, sat)
        ):
            raise ParameterError(
                "malformed profile JSON: entry must be a string, and values and"
                " saturated_at lists of integers"
            )
        return cls(entry_id, tuple(values), tuple(sat))


def _check_budget(entry_id: str, points: int, n: int, budget: int) -> None:
    """Refuse when the n-subsets of this many points exceed the budget."""
    total = math.comb(points, n)
    if total > budget:
        raise ResourceError(f"{entry_id}: {total} subsets of size {n} exceed budget {budget}")


def _checked_model(entry, size: int, n: int, budget: int):
    """The sample of this size, once n-subsets of it fit the budget.

    Every sampler has at least size points, so C(size, n) is checked
    before the sample is built and C(model.size, n) after.
    """
    if n < 1:
        raise ParameterError(f"subset size must be >= 1, got {n}")
    _check_budget(entry.entry_id, size, n, budget)
    model = entry.sampler(size)
    if n > model.size:
        raise ParameterError(f"{entry.entry_id}: sample of {model.size} points cannot host n={n}")
    _check_budget(entry.entry_id, model.size, n, budget)
    return model


def _representatives(entry, model, n: int) -> dict:
    """Key -> the first n-subset with that key the frontier reaches."""
    key = entry.subset_key_factory(model)
    step = entry.subset_step_factory(model)
    size = model.size
    level: dict = {(): ()}
    for todo in range(n, 0, -1):
        # a prefix extended by e still needs todo - 1 points above e
        nxt: dict = {}
        for state, prefix in level.items():
            last = prefix[-1] if prefix else None
            for e in range(0 if last is None else last + 1, size - todo + 1):
                s = step(state, last, e)
                if todo == 1:
                    s = key(s)
                if s not in nxt:
                    nxt[s] = prefix + (e,)
        level = nxt
    return level


def _codes(entry, model, n: int) -> frozenset[bytes]:
    """Canonical codes of the representatives, memoised by literal encoding."""
    canon: dict[bytes, bytes] = {}
    for subset in _representatives(entry, model, n).values():
        sub = induced_substructure(model, subset)
        lit = structure_encoding(sub)
        if lit not in canon:
            canon[lit] = canonical_form(sub)
    return frozenset(canon.values())


def profile(entry, n_max: int, budget: int = DEFAULT_BUDGET) -> ProfileSequence:
    """Profile f_1..f_{n_max} of a catalogue entry, each n counted once on
    the sample of saturation_rule(n) points.

    Accepts an entry object or a stable identifier string. budget bounds
    C(sample size, n) for every count; each n is checked on its size alone
    as that size is computed, stopping at the first refusal, then on each
    sample as it is built, before any count.
    """
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    sizes = []
    for n in range(1, n_max + 1):
        sizes.append(entry.saturation_rule(n))
        _check_budget(entry.entry_id, sizes[-1], n, budget)
    models = [_checked_model(entry, size, n, budget) for n, size in enumerate(sizes, 1)]
    values = tuple(len(_codes(entry, model, n)) for n, model in enumerate(models, 1))
    return ProfileSequence(entry.entry_id, values, tuple(sizes))


def class_codes(entry, size: int, n: int, budget: int = DEFAULT_BUDGET) -> frozenset[bytes]:
    """Canonical codes of all n-point substructure classes of one sample."""
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    return _codes(entry, _checked_model(entry, size, n, budget), n)
