"""Recover hidden orders from shuffled, randomly reversed windows.

Each case hides a linear or circular order, samples covering windows,
reverses some of them, shuffles, glues, and compares the recovered
arrangement with the hidden one up to direction (and rotation for
circles).

Example:
    python3 scripts/glue_recovery.py --cases 100 --max-size 200 --seed 3
"""

import argparse
import random
import sys
import time

from oligoprofile import glue
from oligoprofile.glueing import (
    normalize_circular,
    normalize_linear,
    sample_circular_fragments,
    sample_linear_fragments,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", type=int, default=100)
    parser.add_argument("--max-size", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    failures = 0
    t0 = time.perf_counter()
    for case in range(args.cases):
        circular = case % 2 == 1
        low = 8 if circular else 3
        size = rng.randint(low, max(low, args.max_size))
        seed = rng.getrandbits(32)
        if circular:
            hidden, fragments = sample_circular_fragments(size, seed)
            want = normalize_circular(hidden)
            kind = "circular"
        else:
            hidden, fragments = sample_linear_fragments(size, seed)
            want = normalize_linear(hidden)
            kind = "linear"
        components = glue(list(fragments))
        ok = (
            len(components) == 1
            and components[0].kind == kind
            and components[0].arrangement == want
        )
        if not ok:
            failures += 1
            print(f"case {case}: FAILED ({kind}, size {size}, seed {seed})")
    elapsed = time.perf_counter() - t0
    print(f"{args.cases} cases, {failures} failures, {elapsed:.2f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
