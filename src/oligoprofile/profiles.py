"""Profile enumeration: count substructure classes of sampled models.

profile(entry, n_max) computes, for each n up to n_max, the number of
distinct canonical codes among the induced substructures on all n-subsets
of a finite model sampled at the entry's saturation size. The code set is
recomputed on a strictly larger sample (rule size + 2); equal sets are the
saturation check, unequal ones trigger one retry two sizes further before a
SaturationError.

Subsets are enumerated as a frontier of sorted prefixes, one level per
length. Each level maps a prefix state (the entry's subset step, see
catalogue) to the first prefix that reached it, and only that prefix is
extended; without a step the state is the prefix itself and the scan is
exhaustive. The last level applies the entry's subset key to every
extension and keeps the first subset per key.

Counting never trusts the dedup key alone: keys only pick one
representative subset per key, canonical codes of the representatives are
what gets counted. Without a key the engine falls back to hashing literal
induced encodings, which is the same scheme with the identity key.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# catalogue.get_entry is looked up per call, so a wrapped one is honoured
from . import catalogue
from .errors import ParameterError, ResourceError, SaturationError
from .structures import canonical_form, induced_substructure, structure_encoding

DEFAULT_BUDGET = 10_000_000


def _prefix_step(state: tuple[int, ...], last: int | None, e: int) -> tuple[int, ...]:
    return state + (e,)


@dataclass(frozen=True)
class ProfileSequence:
    """Profile values f_1..f_n with the sampler size each stabilised at."""

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
        return cls(
            str(data["entry"]),
            tuple(int(v) for v in data["values"]),
            tuple(int(s) for s in data["saturated_at"]),
        )


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
        keyf = entry.subset_key_factory(model) if entry.subset_key_factory else None
        step = entry.subset_step_factory(model) if entry.subset_step_factory else _prefix_step
        size = model.size
        level: dict = {(): ()}
        for _ in range(n - 1):
            nxt: dict = {}
            for state, prefix in level.items():
                last = prefix[-1] if prefix else None
                for e in range(0 if last is None else last + 1, size):
                    s = step(state, last, e)
                    if s not in nxt:
                        nxt[s] = prefix + (e,)
            level = nxt
        reps: dict = {}
        for prefix in level.values():
            for e in range(prefix[-1] + 1 if prefix else 0, size):
                subset = prefix + (e,)
                if keyf is not None:
                    k = keyf(subset)
                else:
                    k = structure_encoding(induced_substructure(model, subset))
                if k not in reps:
                    reps[k] = subset
        return reps

    def codes(self, size: int, n: int) -> frozenset[bytes]:
        if n < 1:
            raise ParameterError(f"subset size must be >= 1, got {n}")
        model = self.model(size)
        if n > model.size:
            raise ParameterError(
                f"{self.entry.entry_id}: sample of {model.size} points cannot host n={n}"
            )
        total = math.comb(model.size, n)
        if total > self.budget:
            raise ResourceError(
                f"{self.entry.entry_id}: {total} subsets of size {n} exceed budget {self.budget}"
            )
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


def profile(entry, n_max: int, budget: int = DEFAULT_BUDGET, jobs: int = 1) -> ProfileSequence:
    """Profile f_1..f_{n_max} of a catalogue entry with saturation checking.

    Accepts an entry object or a stable identifier string. budget bounds
    C(sample size, n) for every count. jobs is accepted for compatibility
    and ignored: there is one serial enumeration path.
    """
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    if n_max < 1:
        raise ParameterError(f"n_max must be >= 1, got {n_max}")
    counter = _ClassCounter(entry, budget)
    values = []
    sat = []
    for n in range(1, n_max + 1):
        base = entry.saturation_rule(n)
        s1 = counter.codes(base, n)
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


def class_codes(
    entry, size: int, n: int, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> frozenset[bytes]:
    """Canonical codes of all n-point substructure classes of one sample.

    jobs is accepted for compatibility and ignored.
    """
    if isinstance(entry, str):
        entry = catalogue.get_entry(entry)
    return _ClassCounter(entry, budget).codes(size, n)


def profile_to_json(seq: ProfileSequence) -> str:
    return json.dumps(seq.to_json_dict(), indent=2, sort_keys=True) + "\n"
