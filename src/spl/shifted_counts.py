"""Counters for primes whose shifts carry a large prime factor.

Single-prime counters threshold P+(p-1) against p^theta or x^theta; the
k-tuple counter tallies ordered prime tuples (repeats allowed) whose
shifted gcd has a large prime factor. Two routes are provided for the
tuple count: a brute-force enumeration over all tuples, and a fast
enumeration keyed on the large prime r of the gcd. Every qualifying tuple
is found at exactly one r (the largest prime factor of its gcd is unique),
so the two routes must agree exactly.

All thresholds are decided by exact integer power comparison; theta enters
only as a reduced fraction so boundary cases are unambiguous.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass

import numpy as np

from .core_primes import floor_root, primes_in, primes_in_class
from .errors import ArgumentError, BudgetError

__all__ = [
    "Theta",
    "TupleCount",
    "threshold_test",
    "large_factor_count",
    "large_factor_count_fixed",
    "smooth_shift_count",
    "tuple_count_oracle",
    "tuple_count_fast",
    "count_tuples",
    "oracle_qualifying_products",
    "fast_qualifying_products",
]

_THETA_RE = re.compile(r"\s*(\d+)\s*/\s*(\d+)\s*\Z")


@dataclass(frozen=True)
class Theta:
    """A rational exponent theta = num/den with 0 < theta < 1, kept reduced."""

    num: int
    den: int

    def __post_init__(self):
        if self.den < 1 or self.num < 1:
            raise ArgumentError(
                f"theta needs a positive numerator and denominator, got {self.num}/{self.den}"
            )
        g = math.gcd(self.num, self.den)
        object.__setattr__(self, "num", self.num // g)
        object.__setattr__(self, "den", self.den // g)
        if self.num >= self.den:
            raise ArgumentError(f"theta must lie in (0, 1), got {self.num}/{self.den}")

    @property
    def as_real(self) -> float:
        return self.num / self.den

    @classmethod
    def parse(cls, text: str) -> "Theta":
        m = _THETA_RE.match(text)
        if not m:
            raise ArgumentError(f"theta must be given as 'a/b', got {text!r}")
        return cls(int(m.group(1)), int(m.group(2)))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


def threshold_test(r: int, n: int, theta: Theta) -> bool:
    """True iff r >= n**theta, decided exactly as r**den >= n**num."""
    return r ** theta.den >= n ** theta.num


# ---------------------------------------------------------------------------
# Greatest prime factors by a segmented pass; P+(p - 1) is memoized per cache.
# ---------------------------------------------------------------------------

_BLOCK = 1 << 17  # integers per gpf block, and entries per threshold chunk

_SHIFT_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _gpf_block(lo: int, hi: int, small: np.ndarray) -> np.ndarray:
    """P+(n) for lo <= n < hi (lo >= 1) as int64; P+(1) = 1.

    `small` holds the primes up to at least isqrt(hi - 1), ascending. Each
    such q writes itself at its multiples (ascending, so the largest wins)
    and multiplies `smooth` by q at every power q^e < hi, leaving in
    `smooth` the part of n made of those primes. The cofactor n // smooth
    has no prime factor <= isqrt(n), so it is 1 or the prime P+(n). No
    value exceeds n, so nothing overflows.
    """
    top = np.ones(hi - lo, dtype=np.int64)
    smooth = np.ones(hi - lo, dtype=np.int64)
    for q in small.tolist():
        if q * q >= hi:
            break
        top[-lo % q :: q] = q
        qe = q
        while qe < hi:
            smooth[-lo % qe :: qe] *= q
            qe *= q
    cof = np.arange(lo, hi, dtype=np.int64) // smooth
    return np.where(cof > 1, cof, top)


def _gpf_upto(cache, n: int) -> np.ndarray:
    """gpf[m] = largest prime factor of m for 2 <= m <= n; gpf[1] = 1, int64.

    One block: the tuple routes ask for n <= isqrt(x), which costs well
    under a millisecond to rebuild, so nothing is memoized.
    """
    small = primes_in(cache, 0, math.isqrt(n))
    return np.concatenate(([0], _gpf_block(1, n + 1, small)))


def _shift_gpf_pass(cache, ps: np.ndarray) -> np.ndarray:
    """P+(p - 1) for the ascending primes ps, by blocks of m = (p - 1) / 2.

    For odd p, P+(p - 1) = max(2, P+(m)); p = 2 gives P+(1) = 1. Only the
    current block and the primes up to isqrt(m) are held besides the result.
    """
    out = np.ones(len(ps), dtype=np.int64)
    i = int(np.searchsorted(ps, 3))  # skip p = 2
    if i == len(ps):
        return out
    m_lo, m_hi = (int(ps[i]) - 1) // 2, (int(ps[-1]) - 1) // 2 + 1
    small = primes_in(cache, 0, math.isqrt(m_hi - 1))
    for lo in range(m_lo, m_hi, _BLOCK):
        hi = min(lo + _BLOCK, m_hi)
        j = int(np.searchsorted(ps, 2 * hi + 1))  # ps[i:j] have m in [lo, hi)
        gpf = _gpf_block(lo, hi, small)
        out[i:j] = np.maximum(gpf[(ps[i:j] >> 1) - lo], 2)
        i = j
    return out


def _count_threshold(rs: np.ndarray, ns: np.ndarray, theta: Theta, op: str) -> int:
    """Count entries with rs >= ns**theta ("ge") or rs <= ns**theta ("le").

    A log comparison settles all pairs far from the boundary; near-boundary
    pairs fall back to the exact integer power test, so the result matches
    testing every pair exactly. The boundary margin scales with the log
    magnitudes (float error does too), with ~100x headroom over worst-case
    rounding. The float temporaries are built one chunk of _BLOCK entries
    at a time, so they stay small whatever len(rs) is.
    """
    count = 0
    for lo in range(0, len(rs), _BLOCK):
        r_part = rs[lo : lo + _BLOCK]
        n_part = ns[lo : lo + _BLOCK]
        left = theta.den * np.log(r_part.astype(np.float64))
        right = theta.num * np.log(n_part.astype(np.float64))
        t = left - right
        margin = 1e-13 * (np.abs(left) + np.abs(right)) + 1e-12
        if op == "ge":
            count += int(np.count_nonzero(t > margin))
        else:
            count += int(np.count_nonzero(t < -margin))
        for i in np.flatnonzero(np.abs(t) <= margin):
            lhs = int(r_part[i]) ** theta.den
            rhs = int(n_part[i]) ** theta.num
            ok = lhs >= rhs if op == "ge" else lhs <= rhs
            if ok:
                count += 1
    return count


def _shift_gpfs(cache, x):
    """(primes <= x, P+(p-1) for each) as aligned arrays.

    The P+(p - 1) array is memoized per cache, aligned with the ascending
    primes: a smaller x takes a prefix of it and a larger x extends it.
    """
    ps = primes_in(cache, 0, x)
    done = _SHIFT_MEMO.get(cache)
    if done is None:
        done = _SHIFT_MEMO[cache] = _shift_gpf_pass(cache, ps)
    elif len(done) < len(ps):
        fresh = _shift_gpf_pass(cache, ps[len(done) :])
        done = _SHIFT_MEMO[cache] = np.concatenate((done, fresh))
    return ps, done[: len(ps)]


def large_factor_count(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) >= p**theta}."""
    ps, rs = _shift_gpfs(cache, x)
    return _count_threshold(rs, ps, theta, "ge")


def large_factor_count_fixed(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) >= x**theta} (threshold fixed at x).

    r**den >= x**num iff r exceeds the largest n with n**den <= x**num - 1,
    an exact integer cutoff.
    """
    _, rs = _shift_gpfs(cache, x)
    cutoff = floor_root(int(x) ** theta.num - 1, theta.den)
    chunks = range(0, len(rs), _BLOCK)  # bounded temporaries, as in _count_threshold
    return sum(int(np.count_nonzero(rs[lo : lo + _BLOCK] > cutoff)) for lo in chunks)


def smooth_shift_count(cache, x: int, theta: Theta) -> int:
    """#{p <= x : P+(p-1) <= p**theta} (smooth shifted primes)."""
    ps, rs = _shift_gpfs(cache, x)
    return _count_threshold(rs, ps, theta, "le")


# ---------------------------------------------------------------------------
# k-tuple counters.
# ---------------------------------------------------------------------------


def _check_tuple_args(cache, x: int, k: int) -> None:
    if k < 2:
        raise ArgumentError(f"tuple counters need k >= 2, got {k}")
    cache._check(x)


def oracle_qualifying_products(
    cache,
    x: int,
    k: int,
    theta: Theta,
    *,
    ordered: bool = True,
    node_budget: int = 10**9,
) -> list:
    """Products of all qualifying tuples, one entry per tuple.

    Brute-force reference: enumerate every prime tuple with product <= x
    (depth-first with product pruning) and apply the threshold test to
    P+(gcd of the shifted entries). Intended for modest x; the node budget
    makes runaway enumerations fail loudly instead of hanging.
    """
    _check_tuple_args(cache, x, k)
    min_rest = 2 ** (k - 1)
    if x < 2 * min_rest:
        return []
    ps = primes_in(cache, 0, x // min_rest).tolist()
    # As in the fast route: the gcd of the shifts is below the smallest
    # member, which is at most x**(1/k) <= isqrt(x).
    gpf = _gpf_upto(cache, max(math.isqrt(x), 2))
    out = []
    budget = node_budget

    def visit(start: int, prod: int, g: int, depth: int):
        nonlocal budget
        rest = 2 ** (k - depth - 1)
        for i in range(start, len(ps)):
            p = ps[i]
            prod_p = prod * p
            if prod_p * rest > x:
                break
            budget -= 1
            if budget < 0:
                raise BudgetError("tuple enumeration exceeded the node budget")
            g_p = math.gcd(g, p - 1)
            if depth + 1 == k:
                if threshold_test(int(gpf[g_p]), prod_p, theta):
                    out.append(prod_p)
            else:
                visit(0 if ordered else i, prod_p, g_p, depth + 1)

    visit(0, 1, 0, 0)
    return out


def tuple_count_oracle(
    cache,
    x: int,
    k: int,
    theta: Theta,
    *,
    ordered: bool = True,
    node_budget: int = 10**9,
) -> int:
    """Brute-force count of qualifying k-tuples (ordered, repeats allowed)."""
    return len(
        oracle_qualifying_products(
            cache, x, k, theta, ordered=ordered, node_budget=node_budget
        )
    )


def _fast_products_for_r(cache, x: int, k: int, theta: Theta, ordered: bool, gpf, r: int) -> list:
    # The largest n <= x passing the threshold at r: n**num <= r**den.
    n_cap = floor_root(min(r**theta.den, x**theta.num), theta.num)
    if n_cap < (r + 1) ** k:
        return []
    # Every member is a prime = 1 (mod r), so each is >= r + 1 and none can
    # exceed n_cap // (r + 1)**(k - 1).
    qs = primes_in_class(cache, n_cap // (r + 1) ** (k - 1), r, 1).tolist()
    if not qs:
        return []
    q0 = qs[0]
    out = []

    def visit(start: int, prod: int, g: int, depth: int):
        rest = q0 ** (k - depth - 1)
        for i in range(start, len(qs)):
            q = qs[i]
            prod_q = prod * q
            if prod_q * rest > n_cap:
                break
            g_q = math.gcd(g, q - 1)
            if depth + 1 == k:
                if gpf[g_q] == r:
                    out.append(prod_q)
            else:
                visit(0 if ordered else i, prod_q, g_q, depth + 1)

    visit(0, 1, 0, 0)
    return out


def fast_qualifying_products(
    cache, x: int, k: int, theta: Theta, *, ordered: bool = True
) -> list:
    """Products of qualifying tuples via enumeration keyed on r = P+(gcd).

    For each prime r <= x**(1/k), tuples are drawn from primes q = 1 (mod r)
    with product capped at the largest n passing the threshold at r; a tuple
    is kept only when r is exactly the largest prime factor of the shifted
    gcd, so each qualifying tuple is produced exactly once.
    """
    _check_tuple_args(cache, x, k)
    # The gcd of a tuple's shifts is below its smallest member, which is at
    # most x**(1/k) <= isqrt(x): a table that far covers every lookup.
    gpf = _gpf_upto(cache, max(math.isqrt(x), 1))
    out = []
    for r in primes_in(cache, 0, floor_root(x, k)).tolist():
        out.extend(_fast_products_for_r(cache, x, k, theta, ordered, gpf, r))
    return out


def tuple_count_fast(cache, x: int, k: int, theta: Theta, *, ordered: bool = True) -> int:
    """Same count as tuple_count_oracle, via the r-keyed enumeration."""
    return len(fast_qualifying_products(cache, x, k, theta, ordered=ordered))


@dataclass(frozen=True)
class TupleCount:
    """A tuple-counter result tagged with the route that produced it.

    Either route degenerates at k = 1 to the single-prime self-relative
    counter, so k = 1 is rejected rather than special-cased.
    """

    x: int
    k: int
    theta: Theta
    ordered_count: int
    method: str


def count_tuples(cache, x: int, k: int, theta: Theta, *, method: str = "fast") -> TupleCount:
    if method == "oracle":
        n = tuple_count_oracle(cache, x, k, theta)
    elif method == "fast":
        n = tuple_count_fast(cache, x, k, theta)
    else:
        raise ArgumentError(f"method must be 'oracle' or 'fast', got {method!r}")
    return TupleCount(x=x, k=k, theta=theta, ordered_count=n, method=method)
