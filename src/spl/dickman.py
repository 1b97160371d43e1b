"""Numerical Dickman function and the density/threshold quantities built on it.

The defining delay equation u*rho'(u) = -rho(u-1) integrates once into
rho(u) = (1/u) * integral_{u-1}^{u} rho(t) dt, which is stable to advance
forward on a uniform grid: each new value closes a quadrature window over
already-computed values, with the new point appearing linearly. The step is
2^-10, so each unit window spans exactly 1024 intervals, its quadrature
nodes sit on the grid, and the kink of rho at u = 1 is split off exactly
(rho is identically 1 below 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, RangeError, SolverError

__all__ = [
    "RhoTable",
    "build_rho_table",
    "STEP",
    "U_CEILING",
    "SOLVER_U",
    "rho",
    "limiting_density",
    "rho_over_t_integral",
    "solve_theta1",
    "solve_theta2",
]


STEP = 2.0**-10
_PER = 1024  # grid intervals per unit of u, 1 / STEP
# rho is exactly 0.0 in float64 from u ~ 132.65 at this step, so no query
# past here needs a table
U_CEILING = 133.0
THETA_BRACKET = (0.25, 0.45)
SOLVER_U = 1.0 / THETA_BRACKET[0]  # the largest u either threshold solver reads


@dataclass(frozen=True, eq=False)
class RhoTable:
    u_max: float
    values: np.ndarray  # rho at 0, STEP, 2*STEP, ..., u_max


def _implicit_weights(m: int, h: float):
    """Quadrature weights over m uniform intervals when the last node is unknown.

    Returns (weights for nodes 0..m-1, coefficient of the implicit node m).
    Composite Simpson when m is even; Simpson plus a 3/8 tail when odd;
    trapezoid for a single interval.
    """
    if m == 1:
        return np.array([h / 2.0]), h / 2.0
    w = np.zeros(m + 1)
    if m % 2 == 0:
        w[0] = w[m] = 1.0
        w[1:m:2] = 4.0
        w[2:m:2] = 2.0
        w *= h / 3.0
    else:
        if m > 3:
            w[0] = w[m - 3] = 1.0
            w[1 : m - 3 : 2] = 4.0
            w[2 : m - 3 : 2] = 2.0
            w *= h / 3.0
        w[m - 3 :] += (3.0 * h / 8.0) * np.array([1.0, 3.0, 3.0, 1.0])
    return w[:m], float(w[m])


def build_rho_table(u: float) -> RhoTable:
    """The table for a query at u, reaching floor(u) + 1 (at least 2).

    One unit past u keeps rho's stencil off the table's end. The table is
    filled forward, so its values equal those of any longer table, and so
    does every rho, density or root read from it.
    """
    if not math.isfinite(u):
        raise ArgumentError(f"u must be finite, got {u}")
    if u > U_CEILING:
        raise RangeError(f"u={u} is past {U_CEILING}, beyond which rho underflows to 0")
    reach = max(math.floor(u) + 1, 2)
    n = reach * _PER
    vals = np.ones(n + 1)

    w_full, c_full = _implicit_weights(_PER, STEP)
    for i in range(_PER + 1, n + 1):
        t = i * STEP
        if i <= 2 * _PER:
            # window [t-1, t] crosses the kink at 1; the part below 1 is
            # exactly 2 - t since rho = 1 there
            m = i - _PER
            base = (2 * _PER - i) * STEP
            w, c = _implicit_weights(m, STEP) if m != _PER else (w_full, c_full)
            s = float(np.dot(w, vals[_PER:i]))
            vals[i] = (base + s) / (t - c)
        else:
            s = float(np.dot(w_full, vals[i - _PER : i]))
            vals[i] = s / (t - c_full)
    return RhoTable(u_max=float(reach), values=vals)


def rho(table: RhoTable, u) -> float:
    """Cubic interpolation on the grid; exactly 1 for u <= 1.

    The 4-point stencil is kept inside the unit interval containing u, so
    it never spans the non-smooth points of rho at small integers.
    """
    if not math.isfinite(u):
        raise ArgumentError(f"u must be finite, got {u}")
    if u < 0:
        raise DomainError(f"rho is defined for u >= 0, got u={u}")
    if u > table.u_max * (1 + 1e-12):
        raise RangeError(f"u={u} outside table range [0, {table.u_max}]")
    if u <= 1:
        return 1.0
    n = len(table.values) - 1
    lo = _PER * int(math.floor(u))
    hi = lo + _PER
    if hi > n:
        hi = n
        lo = max(hi - _PER, 0)
    s = max(lo, min(int(u / STEP) - 1, hi - 3))
    pts = (np.arange(s, s + 4)) * STEP
    ys = table.values[s : s + 4]
    total = 0.0
    for a in range(4):
        basis = 1.0
        for b in range(4):
            if a != b:
                basis *= (u - pts[b]) / (pts[a] - pts[b])
        total += basis * ys[a]
    return total


def limiting_density(table: RhoTable, theta) -> float:
    """1 - rho(1/theta) for a Theta: the conjectured limiting density of T'_theta / pi."""
    return 1.0 - rho(table, 1.0 / theta.as_real)


def rho_over_t_integral(table: RhoTable, a, b) -> float:
    """Simpson quadrature of rho(t)/t over [a, b] at the table resolution."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ArgumentError(f"need finite a and b, got a={a}, b={b}")
    if a < 0 or b < a:
        raise ArgumentError(f"need 0 <= a <= b, got a={a}, b={b}")
    if b > table.u_max * (1 + 1e-12):
        raise RangeError(f"b={b} beyond table range {table.u_max}")
    if a == b:
        return 0.0
    if a == 0:
        raise DomainError("integrand 1/t is singular at 0; need a > 0")

    def f(t):
        return rho(table, t) / t

    ja = int(math.ceil(a / STEP - 1e-12))
    jb = int(math.floor(b / STEP + 1e-12))
    if ja >= jb:
        mid = 0.5 * (a + b)
        return (b - a) / 6.0 * (f(a) + 4.0 * f(mid) + f(b))
    ts = np.arange(ja, jb + 1) * STEP
    ys = table.values[ja : jb + 1] / ts
    known, last = _implicit_weights(jb - ja, STEP)  # all jb - ja + 1 nodes are known
    total = float(np.dot(np.append(known, last), ys))
    for lo, hi in ((a, ja * STEP), (jb * STEP, b)):
        if hi > lo:
            mid = 0.5 * (lo + hi)
            total += (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))
    return total


_TOL = 1e-10
_MAX_ITER = 300


def _bisect(f, lo: float, hi: float) -> float:
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= _TOL:
        return lo
    if abs(fhi) <= _TOL:
        return hi
    if (flo > 0) == (fhi > 0):
        raise SolverError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    mid = lo
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= _TOL:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise SolverError(f"bisection stalled at {mid}")


def solve_theta2(table: RhoTable) -> float:
    """Root of theta - 4*rho(1/theta) on THETA_BRACKET, to |f| <= 1e-10."""
    if table.u_max < SOLVER_U:
        raise RangeError(f"table must cover u_max >= {SOLVER_U} to bracket the root")
    return _bisect(lambda th: th - 4.0 * rho(table, 1.0 / th), *THETA_BRACKET)


def solve_theta1(table: RhoTable) -> float:
    """Root of theta - 4*int_{1/theta-1}^{1/theta} rho(t)/t dt on THETA_BRACKET."""
    if table.u_max < SOLVER_U:
        raise RangeError(f"table must cover u_max >= {SOLVER_U} to bracket the root")

    def objective(th):
        u = 1.0 / th
        return th - 4.0 * rho_over_t_integral(table, u - 1.0, u)

    return _bisect(objective, *THETA_BRACKET)
