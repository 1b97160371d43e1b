"""Numerical Dickman function and the density/threshold quantities built on it.

The defining delay equation u*rho'(u) = -rho(u-1) integrates once into
rho(u) = (1/u) * integral_{u-1}^{u} rho(t) dt, which is stable to advance
forward on a uniform grid: each new value closes a quadrature window over
already-computed values, with the new point appearing linearly. Windows are
grid-aligned (1/step must be an integer), so quadrature nodes always sit on
the grid and the kink of rho at u = 1 is split off exactly (rho is
identically 1 below 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError, DomainError, PrecisionError, RangeError, SolverError

__all__ = [
    "RhoTable",
    "build_rho_table",
    "rho",
    "limiting_density",
    "rho_over_t_integral",
    "solve_theta1",
    "solve_theta2",
]


@dataclass(frozen=True, eq=False)
class RhoTable:
    u_max: float
    step: float
    values: np.ndarray  # rho at 0, step, 2*step, ..., u_max


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


def build_rho_table(u_max: float = 8.0, step: float = 2.0**-10) -> RhoTable:
    if not (math.isfinite(u_max) and math.isfinite(step)):
        raise ArgumentError(f"table needs a finite u_max and step, got {u_max}, {step}")
    if step <= 0:
        raise ArgumentError(f"table needs step > 0, got {step}")
    if u_max < 2:
        raise ArgumentError(f"table needs u_max >= 2, got {u_max}")
    if step > 2.0**-8:
        raise PrecisionError(f"step {step} too coarse; need step <= 2^-8")
    per = 1.0 / step
    if abs(per - round(per)) > 1e-9:
        raise PrecisionError(
            f"1/step must be an integer so windows stay grid-aligned, got step={step}"
        )
    per = int(round(per))
    n = int(math.floor(u_max / step + 1e-9))
    try:
        vals = np.ones(n + 1)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's dimension limit
        raise CapacityError(f"cannot allocate a rho grid to u_max={u_max} at step={step}") from exc
    u_max = n * step

    w_full, c_full = _implicit_weights(per, step)
    for i in range(per + 1, n + 1):
        u = i * step
        if i <= 2 * per:
            # window [u-1, u] crosses the kink at 1; the part below 1 is
            # exactly 2 - u since rho = 1 there
            m = i - per
            base = (2 * per - i) * step
            w, c = _implicit_weights(m, step) if m != per else (w_full, c_full)
            s = float(np.dot(w, vals[per:i]))
            vals[i] = (base + s) / (u - c)
        else:
            s = float(np.dot(w_full, vals[i - per : i]))
            vals[i] = s / (u - c_full)
    return RhoTable(u_max=u_max, step=step, values=vals)


def rho(table: RhoTable, u) -> float:
    """Cubic interpolation on the grid; exactly 1 for u <= 1.

    The 4-point stencil is kept inside the unit interval containing u, so
    it never spans the non-smooth points of rho at small integers.
    """
    if u < 0 or u > table.u_max * (1 + 1e-12):
        raise RangeError(f"u={u} outside table range [0, {table.u_max}]")
    if u <= 1:
        return 1.0
    h = table.step
    per = int(round(1.0 / h))
    n = len(table.values) - 1
    lo = per * int(math.floor(u))
    hi = lo + per
    if hi > n:
        hi = n
        lo = max(hi - per, 0)
    s = max(lo, min(int(u / h) - 1, hi - 3))
    pts = (np.arange(s, s + 4)) * h
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
    u = 1.0 / theta.as_real
    if u > table.u_max * (1 + 1e-12):
        raise RangeError(f"1/theta = {u} beyond table range {table.u_max}")
    return 1.0 - rho(table, u)


def rho_over_t_integral(table: RhoTable, a, b) -> float:
    """Simpson quadrature of rho(t)/t over [a, b] at the table resolution."""
    if a < 0 or b < a:
        raise ArgumentError(f"need 0 <= a <= b, got a={a}, b={b}")
    if b > table.u_max * (1 + 1e-12):
        raise RangeError(f"b={b} beyond table range {table.u_max}")
    if a == b:
        return 0.0
    if a == 0:
        raise DomainError("integrand 1/t is singular at 0; need a > 0")
    h = table.step

    def f(t):
        return rho(table, t) / t

    ja = int(math.ceil(a / h - 1e-12))
    jb = int(math.floor(b / h + 1e-12))
    if ja >= jb:
        mid = 0.5 * (a + b)
        return (b - a) / 6.0 * (f(a) + 4.0 * f(mid) + f(b))
    ts = np.arange(ja, jb + 1) * h
    ys = table.values[ja : jb + 1] / ts
    known, last = _implicit_weights(jb - ja, h)  # all jb - ja + 1 nodes are known
    total = float(np.dot(np.append(known, last), ys))
    for lo, hi in ((a, ja * h), (jb * h, b)):
        if hi > lo:
            mid = 0.5 * (lo + hi)
            total += (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi))
    return total


def _bisect(f, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 300) -> float:
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= tol:
        return lo
    if abs(fhi) <= tol:
        return hi
    if (flo > 0) == (fhi > 0):
        raise SolverError(f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    mid = lo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    raise SolverError(f"bisection stalled at {mid}")


def solve_theta2(table: RhoTable) -> float:
    """Root of theta - 4*rho(1/theta) on [0.25, 0.45], to |f| <= 1e-10."""
    if table.u_max < 4:
        raise RangeError("table must cover u_max >= 4 to bracket the root")
    return _bisect(lambda th: th - 4.0 * rho(table, 1.0 / th), 0.25, 0.45)


def solve_theta1(table: RhoTable) -> float:
    """Root of theta - 4*int_{1/theta-1}^{1/theta} rho(t)/t dt on [0.25, 0.45]."""
    if table.u_max < 4:
        raise RangeError("table must cover u_max >= 4 to bracket the root")

    def objective(th):
        u = 1.0 / th
        return th - 4.0 * rho_over_t_integral(table, u - 1.0, u)

    return _bisect(objective, 0.25, 0.45)
