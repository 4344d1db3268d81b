"""Profile enumeration: count substructure classes of sampled models.

profile(entry, n_max) computes, for each n up to n_max, the number of
distinct canonical codes among the induced substructures on all n-subsets
of a finite model sampled at the entry's saturation size (the base). An
entry whose saturation rule is proven (catalogue, "Saturation proofs") is
counted once per n, at the base. Any other entry is rechecked: the code
set is recomputed on a strictly larger sample (base + 2); equal sets are
the saturation check, unequal ones trigger one retry two sizes further
(base + 4) before a SaturationError.

Subsets are enumerated as a frontier of sorted prefixes, one level per
length. Each level maps a prefix state (the entry's subset step, see
catalogue) to the first prefix that reached it, and only that prefix is
extended; the last level maps the entry's key of each extension's state to
the first subset that reached it.

Counting never trusts the dedup key alone: keys only pick one
representative subset per key, canonical codes of the representatives are
what gets counted. Canonical codes are memoised by literal encoding.

Every count that will run (the base, and base + 2 for an unproven entry)
is checked against the budget before the first one is computed, so an
over-budget request fails at once: C(size, n) for every count before the
first sample is built, since a sample has at least size points, then
C(points, n) on each sample.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

# catalogue.get_entry is looked up per call, so a wrapped one is honoured
from . import catalogue
from .errors import ParameterError, ResourceError, SaturationError
from .structures import canonical_form, induced_substructure, structure_encoding

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ProfileSequence:
    """Profile values f_1..f_n with the sample size each was counted at:
    the proven base, or the size where the recheck settled."""

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


class _ClassCounter:
    """Counts distinct substructure classes per (sampler size, n) with caches
    shared across sizes: models by size, canonical codes by literal encoding."""

    def __init__(self, entry, budget: int):
        self.entry = entry
        self.budget = budget
        self._models: dict[int, object] = {}
        self._canon: dict[bytes, bytes] = {}

    def model(self, size: int):
        if size not in self._models:
            self._models[size] = self.entry.sampler(size)
        return self._models[size]

    def _representatives(self, model, n: int) -> dict:
        """Key -> the first n-subset with that key the frontier reaches."""
        entry = self.entry
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

    def check_budget(self, points: int, n: int) -> None:
        """Refuse when the n-subsets of this many points exceed the budget."""
        total = math.comb(points, n)
        if total > self.budget:
            raise ResourceError(
                f"{self.entry.entry_id}: {total} subsets of size {n} exceed budget {self.budget}"
            )

    def checked_model(self, size: int, n: int):
        """The sample of this size, once n-subsets of it fit the budget.

        Every sampler has at least size points, so C(size, n) is checked
        before the sample is built and C(model.size, n) after.
        """
        if n < 1:
            raise ParameterError(f"subset size must be >= 1, got {n}")
        self.check_budget(size, n)
        model = self.model(size)
        if n > model.size:
            raise ParameterError(
                f"{self.entry.entry_id}: sample of {model.size} points cannot host n={n}"
            )
        self.check_budget(model.size, n)
        return model

    def codes(self, size: int, n: int) -> frozenset[bytes]:
        model = self.checked_model(size, n)
        out = set()
        for subset in self._representatives(model, n).values():
            sub = induced_substructure(model, subset)
            lit = structure_encoding(sub)
            code = self._canon.get(lit)
            if code is None:
                code = canonical_form(sub)
                self._canon[lit] = code
            out.add(code)
        return frozenset(out)


def profile(entry, n_max: int, budget: int = DEFAULT_BUDGET) -> ProfileSequence:
    """Profile f_1..f_{n_max} of a catalogue entry with saturation checking.

    Accepts an entry object or a stable identifier string. A proven entry
    is counted at its base size only; an unproven one is rechecked at base
    + 2 and, if that differs, base + 4. budget bounds C(sample size, n) for
    every count; the base counts of every n, and the base + 2 counts of an
    unproven entry, are checked in order before any is computed, and on
    their sizes alone before any sample is built.
    """
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    proven = entry.saturation_proof is not None
    counter = _ClassCounter(entry, budget)
    extra = (0,) if proven else (0, 2)
    checks = [(entry.saturation_rule(n) + d, n) for n in range(1, n_max + 1) for d in extra]
    for size, n in checks:
        counter.check_budget(size, n)
    for size, n in checks:
        counter.checked_model(size, n)
    values = []
    sat = []
    for n in range(1, n_max + 1):
        base = entry.saturation_rule(n)
        s1 = counter.codes(base, n)
        if proven:
            values.append(len(s1))
            sat.append(base)
            continue
        s2 = counter.codes(base + 2, n)
        if s1 == s2:
            values.append(len(s1))
            sat.append(base)
            continue
        s3 = counter.codes(base + 4, n)
        if s2 == s3:
            values.append(len(s2))
            sat.append(base + 2)
            continue
        raise SaturationError(
            entry.entry_id,
            n,
            (len(s1), len(s2), len(s3)),
            (base, base + 2, base + 4),
            ((len(s1 - s2), len(s2 - s1)), (len(s2 - s3), len(s3 - s2))),
        )
    return ProfileSequence(entry.entry_id, tuple(values), tuple(sat))


def class_codes(entry, size: int, n: int, budget: int = DEFAULT_BUDGET) -> frozenset[bytes]:
    """Canonical codes of all n-point substructure classes of one sample."""
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    return _ClassCounter(entry, budget).codes(size, n)
