import os
from pathlib import Path

import numpy as np
import pytest

from spl.core_primes import build_sieve, build_spf
from spl.dickman import build_rho_table


@pytest.fixture(scope="session")
def cache():
    """Sieve covering the ordinary unit tests (forms up to 2e6)."""
    return build_sieve(2 * 10**6 + 1)


@pytest.fixture(scope="session")
def big_cache():
    """Sieve for the 1e7-scale runs (covers 4t+1 at t = 1e7)."""
    return build_sieve(4 * 10**7 + 2)


@pytest.fixture(scope="session")
def spf():
    return build_spf(10**6)


@pytest.fixture(scope="session")
def rho_table():
    return build_rho_table(7.0)  # rho on the grid up to u = 8


def child_env() -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, for a child Python.

    pytest's `pythonpath` setting reaches only its own process; a child
    started without this would import spl only if it is installed.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def reference_flags(n: int) -> bytearray:
    """Plain one-pass byte sieve, independent of the package internals."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
        p += 1
    return flags


def factor_trial(n: int) -> list:
    """(prime, exponent) pairs of n >= 1, ascending, by trial division by every d >= 2."""
    pairs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            pairs.append((d, e))
        d += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def gpf_trial(n: int) -> int:
    """Greatest prime factor by trial division; P+(1) = 1."""
    g = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            g = d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    return n if n > 1 else g


def assert_count_matches_products(count, products, x: int) -> None:
    """Assert count(y) == #{v in products : v <= y} for every y <= x.

    `count(y)` is a tuple count at cap y and `products` the qualifying
    products at cap x. A tuple qualifies or not whatever the cap, so both
    sides are step functions of y; checking them at x and at each distinct
    product v and v - 1 covers every y <= x, and passes exactly when the
    counted tuples have the same multiset of products.
    """
    ref = np.sort(np.asarray(products, dtype=np.int64))
    points = sorted({x, *ref.tolist(), *(ref - 1).tolist()})
    assert [count(y) for y in points] == np.searchsorted(ref, points, side="right").tolist()
