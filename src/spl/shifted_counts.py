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
import sys
import weakref
from dataclasses import dataclass

import numpy as np

from .core_primes import build_spf, floor_root, greatest_prime_factor, primes_in, primes_in_class
from .errors import ArgumentError, RangeError

__all__ = [
    "Theta",
    "threshold_test",
    "large_factor_count",
    "large_factor_count_fixed",
    "smooth_shift_count",
    "tuple_count_oracle",
    "tuple_count_fast",
    "tuple_sieve_limit",
    "oracle_qualifying_products",
    "fast_qualifying_products",
]

_THETA_RE = re.compile(r"\s*(\d+)\s*/\s*(\d+)\s*\Z")
THETA_DEN_CEILING = 10**4  # exact thresholds raise to the power den: cost grows with it


@dataclass(frozen=True)
class Theta:
    """A rational exponent theta = num/den in (0, 1), kept reduced, den <= THETA_DEN_CEILING."""

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
        if self.den > THETA_DEN_CEILING:
            raise RangeError(f"theta denominator {self.den} exceeds ceiling {THETA_DEN_CEILING}")

    @property
    def as_real(self) -> float:
        return self.num / self.den

    @classmethod
    def parse(cls, text: str) -> "Theta":
        m = _THETA_RE.match(text)
        if not m:
            raise ArgumentError(f"theta must be given as 'a/b', got {text!r}")
        try:
            return cls(*map(int, m.groups()))
        except ValueError:  # past Python's limit on the digits int() converts
            raise RangeError(f"theta terms are limited to {sys.get_int_max_str_digits()} digits") from None

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


def _gpf_block(ns: np.ndarray, small: np.ndarray) -> np.ndarray:
    """P+(n) for each n of the ascending int64 array ns (ns[0] >= 1) as int64; P+(1) = 1.

    The block is lo <= n < hi with lo = ns[0], hi = ns[-1] + 1. `small`
    holds the primes up to at least isqrt(hi - 1), ascending. Each such q
    writes itself at its multiples (ascending, so the largest wins), and
    `smooth` is multiplied by q at the multiples of every power q^e < hi,
    leaving in it the part of n made of those primes. A power shorter than
    the block is a strided write; a longer one has at most one multiple in
    the block, so all of those go in one multiply.at (which, unlike a
    fancy-indexed *=, applies two powers that hit the same n). The
    cofactor n // smooth, taken only at ns, has no prime factor <= isqrt(n),
    so it is 1 or the prime P+(n). No value exceeds n, so nothing overflows;
    q <= isqrt(hi) < 2**31 below SIEVE_CEILING, so `top` fits int32.
    """
    lo, hi = int(ns[0]), int(ns[-1]) + 1
    size = hi - lo
    top = np.ones(size, dtype=np.int32)
    smooth = np.ones(size, dtype=np.int64)
    qs = small[: np.searchsorted(small, math.isqrt(hi - 1), side="right")]
    for q in qs.tolist():
        top[-lo % q :: q] = q
        qe = q
        while qe < size:
            part = smooth[-lo % qe :: qe]
            part *= q  # on the view: `smooth[...] *= q` would also copy it back
            qe *= q
    # every power q^e < hi, level by level in e; the long ones go in one step
    base = qe = qs
    bases, powers = [base], [qe]
    while len(qe):
        more = qe <= (hi - 1) // base  # q^(e+1) < hi
        base = base[more]
        qe = qe[more] * base
        bases.append(base)
        powers.append(qe)
    base, qe = np.concatenate(bases), np.concatenate(powers)
    pos = -lo % qe
    hit = (qe >= size) & (pos < size)
    np.multiply.at(smooth, pos[hit], base[hit])
    at = ns - lo
    cof = ns // smooth[at]
    return np.where(cof > 1, cof, top[at])


def _gpf_upto(cache, n: int) -> np.ndarray:
    """gpf[m] = largest prime factor of m for 2 <= m <= n; gpf[1] = 1, int64.

    One block: the fast tuple route asks for n <= isqrt(x), which costs
    well under a millisecond to rebuild, so nothing is memoized.
    """
    small = primes_in(cache, 0, math.isqrt(n))
    return np.concatenate(([0], _gpf_block(np.arange(1, n + 1), small)))


def _shift_gpf_pass(cache, ps: np.ndarray, out: np.ndarray) -> None:
    """Write P+(p - 1) for the ascending primes ps into out, by blocks of m = (p - 1) / 2.

    For odd p, P+(p - 1) = max(2, P+(m)); p = 2 gives P+(1) = 1. Only the
    current block and the primes up to isqrt(m) are held besides the result;
    a block holding no prime's m is skipped.
    """
    i = int(np.searchsorted(ps, 3))  # skip p = 2
    out[:i] = 1
    if i == len(ps):
        return
    m_lo, m_hi = (int(ps[i]) - 1) // 2, (int(ps[-1]) - 1) // 2 + 1
    small = primes_in(cache, 0, math.isqrt(m_hi - 1))
    for lo in range(m_lo, m_hi, _BLOCK):
        j = int(np.searchsorted(ps, 2 * (lo + _BLOCK) + 1))  # ps[i:j] have m < lo + _BLOCK
        if j > i:
            out[i:j] = np.maximum(_gpf_block(ps[i:j] >> 1, small), 2)
            i = j


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
        # in place, so one chunk holds three float arrays: t (over left), right, margin
        t = np.log(r_part.astype(np.float64))
        t *= theta.den
        right = np.log(n_part.astype(np.float64))
        right *= theta.num
        margin = np.abs(t)
        margin += np.abs(right)
        margin *= 1e-13
        margin += 1e-12
        t -= right
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
    primes: a smaller x takes a prefix of it and a larger x extends it, the
    pass writing straight into the grown array (no second copy of it).
    """
    ps = primes_in(cache, 0, x)
    done = _SHIFT_MEMO.get(cache, np.ones(0, dtype=np.int64))
    if len(done) < len(ps):
        grown = np.empty(len(ps), dtype=np.int64)
        grown[: len(done)] = done
        _shift_gpf_pass(cache, ps[len(done) :], grown[len(done) :])
        done = _SHIFT_MEMO[cache] = grown
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


ORACLE_NODE_BUDGET = 10**9  # tuples the oracle may visit before it gives up


def tuple_sieve_limit(x: int, k: int) -> int:
    """The sieve limit the tuple counters need at (x, k).

    Raises ArgumentError for k < 2 before anything is sized.
    """
    if k < 2:
        raise ArgumentError(f"tuple counters need k >= 2, got {k}")
    return x


def oracle_qualifying_products(
    cache, x: int, k: int, theta: Theta, *, ordered: bool = True
) -> list:
    """Products of all qualifying tuples, one entry per tuple.

    Brute-force reference: enumerate every prime tuple with product <= x
    (depth-first with product pruning) and apply the threshold test to
    P+(gcd of the shifted entries), which it reads from its own table built
    by the factorizer, sharing no code with the fast route's `_gpf_block`.
    Intended for modest x; ORACLE_NODE_BUDGET makes runaway enumerations
    fail loudly instead of hanging.
    """
    cache._check(tuple_sieve_limit(x, k))
    min_rest = 2 ** (k - 1)
    if x < 2 * min_rest:
        return []
    ps = primes_in(cache, 0, x // min_rest).tolist()
    # As in the fast route: the gcd of the shifts is below the smallest
    # member, which is at most x**(1/k) <= isqrt(x).
    spf = build_spf(max(math.isqrt(x), 2))
    gpf = [0] + [greatest_prime_factor(n, spf) for n in range(1, len(spf))]
    out = []
    budget = ORACLE_NODE_BUDGET

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
                raise RangeError("tuple enumeration exceeded the node budget")
            g_p = math.gcd(g, p - 1)
            if depth + 1 == k:
                if threshold_test(gpf[g_p], prod_p, theta):
                    out.append(prod_p)
            else:
                visit(0 if ordered else i, prod_p, g_p, depth + 1)

    visit(0, 1, 0, 0)
    return out


def tuple_count_oracle(cache, x: int, k: int, theta: Theta, *, ordered: bool = True) -> int:
    """Brute-force count of qualifying k-tuples (ordered, repeats allowed)."""
    return len(oracle_qualifying_products(cache, x, k, theta, ordered=ordered))


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
    cache._check(tuple_sieve_limit(x, k))
    if x < 2**k:  # no k primes have a product below 2^k, as in the oracle
        return []
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
