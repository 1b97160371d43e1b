"""Simultaneous prime values of linear forms a_i*n + b_i.

Provides the counting function M(t) = #{p <= t : all forms prime at p}, its
local solution counts rho(p), the nonvanishing discriminant gating the sieve
majorant, the majorant itself, and both sides of the partial-summation
identity that converts sums of p^(-k) over qualifying primes into boundary
terms plus an integral against M.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_primes import SieveCache, factorize, floor_root, primes_in
from .errors import ArgumentError, RangeError
from .shifted_counts import Theta

__all__ = [
    "ShiftSystem",
    "make_system",
    "system_from_shifts",
    "local_rho",
    "form_sieve_limit",
    "count_simultaneous",
    "sieve_bound_value",
    "inverse_power_prime_sum",
    "abel_identity_rhs",
    "range_bounds_exact",
]

_CHUNK = 1 << 18  # primes per step of the forms scan


@dataclass(frozen=True)
class ShiftSystem:
    """A system of linear forms (a_i, b_i) with its discriminant-like invariant.

    The discriminant is stored signed; every product over its prime
    divisors uses the absolute value.
    """

    forms: tuple
    discriminant: int

    @property
    def g(self) -> int:
        return len(self.forms)

    @cached_property
    def distinct_prime_divisors(self) -> tuple:
        return tuple(p for p, _ in factorize(abs(self.discriminant)))


def make_system(forms) -> ShiftSystem:
    """Build a system from (a_i, b_i) pairs; rejects a vanishing discriminant."""
    forms = tuple((int(a), int(b)) for a, b in forms)
    if not forms:
        raise ArgumentError("a shift system needs at least one form")
    if any(a < 1 for a, _ in forms):
        raise ArgumentError("every coefficient a_i must be >= 1")
    e = 1
    for a, _ in forms:
        e *= a
    for r in range(len(forms)):
        ar, br = forms[r]
        for s in range(r + 1, len(forms)):
            as_, bs = forms[s]
            e *= ar * bs - as_ * br
    if e == 0:
        raise ArgumentError(f"degenerate system (zero discriminant): {forms}")
    return ShiftSystem(forms=forms, discriminant=e)


def system_from_shifts(shifts) -> ShiftSystem:
    """System h_i*p + 1 for the shifts; discriminant prod(h) * prod over i < j of (h_j - h_i).

    The forms are kept in descending h, so each pairwise determinant
    h_r*1 - h_s*1 of make_system is h_r - h_s > 0.
    """
    hs = [int(h) for h in shifts]
    if not hs or any(h < 1 for h in hs):
        raise ArgumentError(f"shifts must be positive integers, got {shifts}")
    return make_system((h, 1) for h in sorted(hs, reverse=True))


def local_rho(system: ShiftSystem, p: int) -> int:
    """#{n mod p : prod(a_i*n + b_i) = 0 (mod p)}."""
    roots = set()
    for a, b in system.forms:
        if a % p == 0:
            if b % p == 0:
                return p  # the form vanishes identically mod p
            continue
        roots.add((-b) * pow(a, -1, p) % p)
    return len(roots)


def form_sieve_limit(t, system: ShiftSystem):
    """The sieve limit that decides p and every a_i*p + b_i for all p <= t."""
    return max(t, *(a * t + b for a, b in system.forms))


def _qualifying_primes(cache: SieveCache, lo, hi, system: ShiftSystem) -> np.ndarray:
    """Primes lo < p <= hi at which every form is prime, ascending.

    The forms are evaluated one _CHUNK of primes at a time, and each form
    only at the primes the earlier forms kept, so no a*p + b array outgrows
    a chunk.
    """
    cache._check(form_sieve_limit(hi, system))
    ps = primes_in(cache, lo, hi)
    kept = [ps[:0]]
    for i in range(0, len(ps), _CHUNK):
        part = ps[i : i + _CHUNK]
        for a, b in system.forms:
            part = part[cache.is_prime(a * part + b)]
        kept.append(part)
    return np.concatenate(kept)


def count_simultaneous(cache: SieveCache, t: int, system: ShiftSystem) -> int:
    """M(t) = #{p <= t : a_i*p + b_i prime for every i}."""
    return len(_qualifying_primes(cache, 0, t, system))


def sieve_bound_value(y, system: ShiftSystem) -> float:
    """The sieve majorant without its implied constant.

    The product over the distinct prime divisors q of the discriminant of
    (1 - 1/q)^(rho(q) - g), times y / (log y)^(g + 1).
    """
    if y < 3:
        raise ArgumentError(f"majorant needs y >= 3, got {y}")
    g = system.g
    prod = 1.0
    for p in system.distinct_prime_divisors:
        prod *= (1.0 - 1.0 / p) ** (local_rho(system, p) - g)
    return prod * y / math.log(y) ** (g + 1)


# ---------------------------------------------------------------------------
# The partial-summation identity: exact boundaries, exact step integral.
# ---------------------------------------------------------------------------


def range_bounds_exact(x: int, k: int, theta: Theta):
    """Integer cutoffs (u_int, v_int): p qualifies iff u_int < p <= v_int.

    p <= x^(1/k) iff p^k <= x; p > (x/2)^theta iff 2^num * p^den > x^num,
    that is p^den > x^num // 2^num.
    Both are decided by exact integer comparisons. k is refused from 2^63 on,
    where the int64 powers p^k of the sums would overflow their exponent.
    """
    if k < 1:
        raise ArgumentError(f"the range p <= x^(1/k) needs k >= 1, got {k}")
    if k >= 2**63:
        raise RangeError(f"the range p <= x^(1/k) needs k < 2^63, got {k}")
    return floor_root(x**theta.num // 2**theta.num, theta.den), floor_root(x, k)


def _range_primes(cache, x, k, theta, system) -> np.ndarray:
    return _qualifying_primes(cache, *range_bounds_exact(x, k, theta), system)


def _inverse_powers(qs: np.ndarray, k: int) -> np.ndarray:
    """1.0 / (q**k) for each q of the ascending qs, rounded exactly as the int route rounds it.

    While q^k < 2^53 it is an exact float64, so one float division gives
    the same correctly rounded quotient; larger q^k keep the int route.
    """
    exact = int(np.searchsorted(qs, floor_root(2**53 - 1, k), side="right"))
    tail = [1.0 / (q**k) for q in qs[exact:].tolist()]
    return np.concatenate([1.0 / (qs[:exact] ** k).astype(np.float64), tail])


def inverse_power_prime_sum(cache, x: int, k: int, theta: Theta, system: ShiftSystem) -> float:
    """Sum of p^(-k) over (x/2)^theta < p <= x^(1/k) with all forms prime.

    No prime above range_bounds_exact's upper cutoff v enters, so a sieve
    reaching form_sieve_limit(v, system) covers both Abel sides.
    """
    return math.fsum(_inverse_powers(_range_primes(cache, x, k, theta, system), k))


def abel_identity_rhs(cache, x: int, k: int, theta: Theta, system: ShiftSystem) -> float:
    """The partial-summation form: boundary terms plus k * integral of M/t^(k+1).

    M is a step function, so the integral is evaluated exactly in closed
    form over its constancy intervals. The portion of the boundary terms
    and of the integral contributed by M(u) (the count below the lower
    endpoint) cancels identically and is dropped before rounding ever
    enters, so an empty range yields exactly 0.0. The surviving terms need
    only integer powers of primes and of x, since v = x^(1/k) has v^k = x.
    """
    qs = _range_primes(cache, x, k, theta, system)
    n = len(qs)
    if not n:
        return 0.0
    inv = np.append(_inverse_powers(qs, k), 1.0 / x)
    # fsum is exactly rounded in any order, so the pieces need no list
    pieces = np.arange(1, n + 1) * (inv[:-1] - inv[1:])
    return math.fsum(itertools.chain(pieces, [n * inv[n]]))
