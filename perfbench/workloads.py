"""The benchmark's workloads: seeded inputs, tasks and pinned reference checks.

A workload is a list of tasks. Each task does one piece of the program's
work, through `oligoprofile.cli.main` or a public library function, and
comes with a check of its output against references pinned here: closed
forms and oracle values frozen as literals, or the hidden order a glue
input was cut from. The references never come from the code under test at
check time, so a later change that breaks a value fails the check.

Every CLI call passes `--jobs 1`: the CLI falls back to the OLIGO_JOBS
environment variable otherwise, which would move `profile` onto its
process-pool path unnoticed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from oligoprofile import cli, posets
from oligoprofile.glueing import (
    fragments_to_json_dict,
    sample_circular_fragments,
    sample_linear_fragments,
)
from oligoprofile.posets import exhaustive_posets, random_poset
from oligoprofile.structures import FiniteStructure
from oligoprofile.witnesses import (
    decode_antichain,
    decode_binary_pattern,
    decode_composition,
)

WORKLOADS = ("profile_keyed", "profile_canon", "verify_glue_linearize")

# f_1..f_n and the sampler size each value saturated at, frozen from the
# closed forms (tree_count, compositions_count, constant 1) and the two
# local_order oracles of the test suite. Saturation sizes follow each
# entry's rule: n for tree_c, k*n for fibered_order:k, 2n+3 otherwise.
_REDUCT_SAT = tuple(2 * n + 3 for n in range(1, 9))
PROFILE_REFERENCE = {
    ("tree_c", 7): ((1, 1, 1, 2, 3, 6, 11), tuple(range(1, 8))),
    ("fibered_order:2", 10): (
        (1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
        tuple(2 * n for n in range(1, 11)),
    ),
    ("fibered_order:3", 8): ((1, 2, 4, 7, 13, 24, 44, 81), tuple(3 * n for n in range(1, 9))),
    ("local_order", 8): ((1, 1, 2, 2, 4, 6, 10, 16), _REDUCT_SAT),
    ("separation", 8): ((1,) * 8, _REDUCT_SAT),
    ("pure_set", 8): ((1,) * 8, _REDUCT_SAT),
    ("dlo", 8): ((1,) * 8, _REDUCT_SAT),
    ("betweenness", 8): ((1,) * 8, _REDUCT_SAT),
    ("circular", 8): ((1,) * 8, _REDUCT_SAT),
}

PROFILE_TASKS = {
    # The subset-key scan dominates: about 80 % of fibered_order:3 goes to
    # its key calls, and tree_c n=7 rechecks saturation on 23 leaves.
    "profile_keyed": (("tree_c", 7), ("fibered_order:2", 10), ("fibered_order:3", 8)),
    # Per-representative work: induce, encode and canonicalise for
    # local_order, 4-ary refinement and the sampler for separation.
    "profile_canon": (
        ("local_order", 8),
        ("separation", 8),
        ("pure_set", 8),
        ("dlo", 8),
        ("betweenness", 8),
        ("circular", 8),
    ),
}

# construction -> (n, expected member count, decoder)
WITNESS_TASKS = {
    "composition": (10, 2**9, decode_composition),
    "antichain": (11, 2**10, decode_antichain),
    "binary_pattern": (11, 2**11, decode_binary_pattern),
}

# (kind, element count) of each glue input; seeds come from the workload seed
GLUE_INPUTS = (("linear", 3000), ("linear", 2000), ("circular", 1000))

# The criterion-6 corpus: every poset up to 5 elements, then random posets
# of width at most 6 and sizes 1..40.
RANDOM_POSETS = 1000
POSET_MAX_WIDTH = 6


class Mismatch(Exception):
    """A task's output differs from its pinned reference."""


@dataclass(frozen=True)
class Task:
    """One unit of the program's work.

    run() does the work and returns a result that is not None;
    output(result) gives the bytes the program produced; check(result,
    data) raises Mismatch when they differ from the reference. Only run()
    is timed.
    """

    name: str
    run: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object, bytes], None]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _cli_task(name: str, argv: list[str], out: Path, check: Callable[[dict], None]) -> Task:
    full = argv + ["--jobs", "1", "--out", str(out)]

    def run() -> int:
        code = cli.main(full)
        _expect(code == 0, f"exit code {code} from {' '.join(argv)}")
        return code

    return Task(
        name=name,
        run=run,
        output=lambda _: out.read_bytes(),
        check=lambda _, data: check(json.loads(data)),
    )


def _profile_check(entry: str, n: int) -> Callable[[dict], None]:
    values, saturated = PROFILE_REFERENCE[(entry, n)]

    def check(doc: dict) -> None:
        _expect(doc.get("entry") == entry, f"entry {doc.get('entry')!r}")
        _expect(tuple(doc.get("values", ())) == values, f"{entry} values {doc.get('values')}")
        _expect(
            tuple(doc.get("saturated_at", ())) == saturated,
            f"{entry} saturated_at {doc.get('saturated_at')}",
        )

    return check


def _witness_check(construction: str, n: int, count: int, decoder) -> Callable[[dict], None]:
    def check(doc: dict) -> None:
        family, report = doc["family"], doc["report"]
        _expect(family["construction"] == construction and family["n"] == n, "family header")
        indices = [tuple(ix) for ix in family["indices"]]
        _expect(len(indices) == count, f"{construction}: {len(indices)} indices, want {count}")
        _expect(len(set(indices)) == count, f"{construction}: repeated indices")
        _expect(len(family["members"]) == count, f"{construction}: member count")
        _expect(report["collisions"] == [], f"{construction}: collisions reported")
        for member, index in zip(family["members"], indices):
            decoded = decoder(FiniteStructure.from_json_dict(member))
            _expect(decoded == index, f"{construction}: {index} decodes to {decoded}")

    return check


def normalized_linear(hidden: tuple[int, ...]) -> tuple[int, ...]:
    """The reading of a line of distinct integers that starts lower."""
    return hidden if hidden[0] < hidden[-1] else hidden[::-1]


def normalized_circular(hidden: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation over both directions of a cycle of distinct integers.

    With distinct elements it starts at the minimum and continues towards
    the smaller neighbour, so it costs linear time.
    """
    i = hidden.index(min(hidden))
    fwd = hidden[i:] + hidden[:i]
    return min(fwd, fwd[:1] + fwd[:0:-1])


def _glue_check(kind: str, arrangement: tuple[int, ...], ids: list[str]) -> Callable[[dict], None]:
    members = sorted(ids)

    def check(doc: dict) -> None:
        comps = doc["components"]
        _expect(len(comps) == 1, f"{len(comps)} components, want 1")
        comp = comps[0]
        _expect(comp["kind"] == kind, f"component kind {comp['kind']}, want {kind}")
        _expect(tuple(comp["arrangement"]) == arrangement, f"{kind} arrangement differs from hidden order")
        _expect(comp["members"] == members, "component members differ from the fragments")

    return check


def poset_corpus(seed: int) -> list:
    corpus = []
    for size in range(1, 6):
        corpus.extend(exhaustive_posets(size))
    for i in range(RANDOM_POSETS):
        size = 1 + (i * 7919) % 40
        corpus.append(random_poset(size, max_width=POSET_MAX_WIDTH, seed=seed + i))
    return corpus


def _linearize_task(corpus: list) -> Task:
    # Reference data per poset: strict pairs, and the round bound of
    # maximum incomparability degree plus one.
    refs = []
    for p in corpus:
        strict = [(a, b) for a, b in p.leq if a != b]
        comparable = [1] * p.size
        for a, b in strict:
            comparable[a] += 1
            comparable[b] += 1
        refs.append((p.size, p.leq, strict, p.size - min(comparable) + 1))

    def run() -> list:
        return [posets.linearize(p) for p in corpus]

    def output(results: list) -> bytes:
        return json.dumps([r.to_json_dict() for r in results]).encode()

    def check(results: list, data: bytes) -> None:
        _expect(len(results) == len(refs), "one result per poset")
        for idx, (result, (size, leq, strict, bound)) in enumerate(zip(results, refs)):
            classes = result.classes
            rank = {}
            for level, cls in enumerate(classes):
                for x in cls:
                    rank[x] = level
                _expect(
                    all((a, b) not in leq for a in cls for b in cls if a != b),
                    f"poset {idx}: class {cls} is not an antichain",
                )
            _expect(sorted(rank) == list(range(size)) and sum(map(len, classes)) == size,
                    f"poset {idx}: classes do not partition")
            _expect(all(rank[a] < rank[b] for a, b in strict), f"poset {idx}: order does not extend leq")
            rounds = len(result.trace)
            _expect(rounds <= bound, f"poset {idx}: {rounds} rounds, bound {bound}")

    return Task("linearize:criterion6", run, output, check)


def build(workload: str, seed: int, work: Path) -> list[Task]:
    """Generate the workload's inputs from seed under work and return its tasks.

    The same seed gives the same inputs. Glue inputs are written as JSON
    files here, so their cost belongs to set-up; the program sees only
    those files and the command-line arguments.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    run_seed = str(rng.getrandbits(31))
    tasks = []
    if workload in PROFILE_TASKS:
        for entry, n in PROFILE_TASKS[workload]:
            argv = ["profile", entry, "--n-max", str(n), "--format", "json", "--seed", run_seed]
            out = work / f"profile-{entry.replace(':', '_')}.json"
            tasks.append(_cli_task(f"profile:{entry}", argv, out, _profile_check(entry, n)))
        return tasks

    for construction, (n, count, decoder) in WITNESS_TASKS.items():
        argv = ["witness", construction, "--n", str(n), "--seed", run_seed]
        out = work / f"witness-{construction}.json"
        tasks.append(
            _cli_task(f"witness:{construction}", argv, out, _witness_check(construction, n, count, decoder))
        )
    for i, (kind, size) in enumerate(GLUE_INPUTS):
        sampler = sample_linear_fragments if kind == "linear" else sample_circular_fragments
        hidden, fragments = sampler(size, rng.getrandbits(32))
        normalize = normalized_linear if kind == "linear" else normalized_circular
        src = work / f"glue-{i}-in.json"
        src.write_text(json.dumps(fragments_to_json_dict(fragments)), encoding="utf-8")
        argv = ["glue", "--in", str(src), "--seed", run_seed]
        check = _glue_check(kind, normalize(tuple(hidden)), [f.fragment_id for f in fragments])
        tasks.append(_cli_task(f"glue:{kind}{size}", argv, work / f"glue-{i}-out.json", check))
    tasks.append(_linearize_task(poset_corpus(rng.getrandbits(31))))
    return tasks
