"""Linearize a corpus of random bounded-width posets and check every claim.

For each sampled poset the script verifies that the collapsed classes
are antichains partitioning the domain, that the class order extends
the input order, and that every collapse round leaves the quotient
strictly fewer incomparables per element than the round before, so the
round count stays within the incomparability-degree bound. The antichain
width does not bound the round count: a width-2 poset can take 3 rounds.

Example:
    python3 scripts/poset_experiment.py --count 200 --size 40 --width 6 --seed 7
"""

import argparse
import sys
from collections import Counter

from oligoprofile import OligoError, linearize, random_poset
from oligoprofile.posets import max_incomparability


def check_one(p) -> int:
    result = linearize(p)
    flat = sorted(x for c in result.classes for x in c)
    assert flat == list(range(p.size)), "classes do not partition the domain"
    position = {}
    for i, cls in enumerate(result.classes):
        for a in cls:
            position[a] = i
        for a in cls:
            for b in cls:
                assert a == b or p.incomparable(a, b), "class is not an antichain"
    for a, b in p.leq:
        if a != b:
            assert position[a] < position[b], "class order breaks the input order"
    previous = max_incomparability(p)
    for record in result.trace:
        assert record.quotient_incomparability < previous, (
            f"round {record.round_index} leaves incomparability "
            f"{record.quotient_incomparability}, not below {previous}"
        )
        previous = record.quotient_incomparability
    rounds = len(result.trace)
    assert rounds <= max_incomparability(p) + 1, "rounds exceed degree bound"
    return rounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--size", type=int, default=40)
    parser.add_argument("--width", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rounds_seen = Counter()
    for i in range(args.count):
        try:
            p = random_poset(args.size, args.width, seed=args.seed + i)
        except OligoError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        rounds_seen[check_one(p)] += 1
    print(f"{args.count} posets of size {args.size}, width <= {args.width}: all checks passed")
    for rounds in sorted(rounds_seen):
        print(f"  {rounds} rounds: {rounds_seen[rounds]} posets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
