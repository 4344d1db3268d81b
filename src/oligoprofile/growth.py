"""Growth diagnostics for profile sequences.

Exact integer sequences (binary tree counts, bounded compositions, local
order necklaces), float-level estimators for the exponential growth rate
of a sequence, which `growth --format csv` prints gnuplot-ready, and the
table of named constants the package reproduces empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, int_at_least


# t_0 (unused) and t_1; tree_count extends the list as far as it is asked
_TREE_COUNTS = [0, 1]


def tree_count(n: int) -> int:
    """Number of unordered rooted binary trees with n leaves.

    t_1 = 1 and t_n sums t_i * t_{n-i} over i < n/2, plus the unordered
    pairs t_{n/2}(t_{n/2}+1)/2 when n is even. Exact integers throughout,
    computed bottom up and kept for later calls.
    """
    int_at_least("tree_count", "n", n, 1)
    t = _TREE_COUNTS
    for m in range(len(t), n + 1):
        total = sum(t[i] * t[m - i] for i in range(1, (m + 1) // 2))
        if m % 2 == 0:
            h = t[m // 2]
            total += h * (h + 1) // 2
        t.append(total)
    return t[n]


def compositions_count(n: int, max_part: int) -> int:
    """Number of compositions of n into parts of size at most max_part."""
    int_at_least("compositions_count", "n", n, 0)
    int_at_least("compositions_count", "max_part", max_part, 1)
    # acc[m] sums acc[m - j] over 1 <= j <= min(m, max_part); window holds
    # that sum for the next m
    acc = [1]
    window = 1
    for m in range(1, n + 1):
        acc.append(window)
        window += acc[m] - (acc[m - max_part] if m >= max_part else 0)
    return acc[n]


def _totient(d: int) -> int:
    """Euler's phi of d >= 1, exact, by trial division."""
    phi, rest, p = d, d, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def local_order_count(n: int) -> int:
    """Number of n-point classes of the local order (half-circle tournament).

    f_n = (1/2n) * sum over odd d | n of phi(d) * 2^(n/d), an exact integer:
    the classes are the binary necklaces of the out-degree sequence, so
    n * f_n / 2^n tends to 1/2 and the growth base is 2.
    """
    int_at_least("local_order_count", "n", n, 1)
    total = sum(_totient(d) << (n // d) for d in range(1, n + 1, 2) if n % d == 0)
    return total // (2 * n)


@dataclass(frozen=True)
class GrowthReport:
    """Ratio and root diagnostics for a positive integer sequence.

    values[i] is the term at index i+1. limit_estimate extrapolates the
    consecutive-ratio sequence one step: for ratios of the form
    L*(1 - c/n) the correction n*r_n - (n-1)*r_{n-1} returns L exactly,
    and on constant ratios it reduces to the last ratio. nth_roots give
    the cross-check values[n]**(1/n).
    """

    values: tuple[int, ...]
    nth_roots: tuple[float, ...]
    ratios: tuple[float, ...]
    limit_estimate: float
    monotone: bool

    def to_json_dict(self) -> dict:
        return {
            "values": [str(v) for v in self.values],
            "nth_roots": list(self.nth_roots),
            "ratios": list(self.ratios),
            "limit_estimate": self.limit_estimate,
            "monotone": self.monotone,
        }


def _nth_root(v: int, n: int) -> float:
    """v ** (1/n), through logarithms for terms past float range."""
    try:
        return v ** (1.0 / n)
    except OverflowError:
        return math.exp(math.log(v) / n)


def _terms(who: str, values, least: int) -> tuple[int, ...]:
    """values as a tuple of at least least positive ints, a bool not being one."""
    try:
        vals = tuple(values)
    except TypeError:
        raise DomainError(f"{who} needs an iterable of values, got {values!r}") from None
    if any(type(v) is not int for v in vals):
        raise DomainError(f"{who} needs int values, and a bool is not one")
    if len(vals) < least:
        raise DomainError(f"{who} needs at least {least} values, got {len(vals)}")
    if any(v <= 0 for v in vals):
        raise DomainError(f"{who} needs strictly positive values")
    return vals


def growth_estimate(values: list[int] | tuple[int, ...]) -> GrowthReport:
    vals = _terms("growth_estimate", values, 3)
    try:
        roots = tuple(_nth_root(v, i + 1) for i, v in enumerate(vals))
        ratios = tuple(b / a for a, b in zip(vals, vals[1:]))
    except OverflowError:
        raise DomainError("a root or ratio of the values exceeds float range") from None
    m = len(vals)
    limit = m * ratios[-1] - (m - 1) * ratios[-2]
    if not math.isfinite(limit):
        raise DomainError("a root or ratio of the values exceeds float range")
    return GrowthReport(
        values=vals,
        nth_roots=roots,
        ratios=ratios,
        limit_estimate=limit,
        monotone=all(a <= b for a, b in zip(vals, vals[1:])),
    )


_K_GRID = tuple(10 ** e for e in range(7))


def lower_bound_check(values, c: float, degree: int) -> bool:
    """Is f_n >= c**n / (K*n**degree + K) for some K on the powers-of-10 grid up to 1e6?

    Comparison runs in log space so huge exact terms stay usable.
    """
    vals = _terms("lower_bound_check", values, 0)
    if c <= 0:
        raise DomainError(f"growth base must be positive, got {c}")
    logc = math.log(c)
    for kk in _K_GRID:
        ok = True
        for i, v in enumerate(vals):
            n = i + 1
            lhs = math.log(v) + math.log(kk * n ** degree + kk)
            if lhs < n * logc:
                ok = False
                break
        if ok:
            return True
    return False


@dataclass(frozen=True)
class NamedConstant:
    key: str
    value: float
    note: str


GOLDEN_RATIO = (1 + 5 ** 0.5) / 2

CONSTANTS: tuple[NamedConstant, ...] = (
    NamedConstant("primitive_base", 2 ** 0.2, "2**(1/5), classical lower bound base for primitive profiles"),
    NamedConstant("tournament_base", 1.324, "improved general lower bound base via tournaments"),
    NamedConstant("tree_sqrt_base", 1.576, "square root of the binary tree growth constant"),
    NamedConstant("golden_ratio", GOLDEN_RATIO, "Fibonacci growth, realised by a fibered order with blocks of 2"),
    NamedConstant("local_order_ceiling", 2.0, "growth base no primitive bound can exceed; a local order sits near it"),
    NamedConstant("tree_growth", 2.483, "limit of t_{n+1}/t_n for binary tree counts"),
)


def constants_table() -> tuple[NamedConstant, ...]:
    return CONSTANTS
