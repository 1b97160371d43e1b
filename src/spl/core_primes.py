"""Prime tables and prime-indexed summation primitives.

Everything here is plain multiplicative-number-theory plumbing: a packed
primality bitset built by a segmented sieve, a smallest-prime-factor table,
factorization helpers (greatest prime factor, Mobius, omega), counts of
primes in arithmetic progressions, and exactly rounded reciprocal sums.
All tables are immutable after construction. Only this module reads the
storage behind a sieve: everything else asks `SieveCache.is_prime` or
`primes_in`.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property
from math import floor, fsum, isqrt, log2
from pathlib import Path

import numpy as np

from .errors import ArgumentError, CapacityError, CoverageError, RangeError

__all__ = [
    "SieveCache",
    "SpfTable",
    "Factorization",
    "build_sieve",
    "build_spf",
    "primes_in",
    "primes_in_class",
    "prime_count",
    "prime_count_ap",
    "factorize",
    "greatest_prime_factor",
    "mobius",
    "omega",
    "recip_prime_sum_ap",
    "floor_root",
    "save_sieve",
    "load_sieve",
    "ensure_sieve",
    "sieve_cache_dir",
]

_SEGMENT_BITS = 1 << 18  # multiple of 64 so segments pack on word boundaries


def floor_root(t: int, e: int, c: int = 1) -> int:
    """Largest n >= 0 with c * n**e <= t, for integers e, c >= 1; exact at any size.

    A float estimate of log2 of the root gives a start just above it (kept
    to 64 significant bits, so any size fits a float), and integer Newton
    steps from above settle it: each step lands on or above the answer and
    below the previous value until the answer is reached.
    """
    if e < 1 or c < 1:
        raise ArgumentError(f"floor_root needs e, c >= 1, got e={e}, c={c}")
    if t < c:
        return 0
    q = t // c  # c * n**e <= t iff n**e <= t // c
    lg = log2(q) / e
    shift = max(int(lg) - 64, 0)
    n = (int(2 ** (lg - shift) * (1 + 2**-40 * (lg + 1))) + 1) << shift
    if n**e <= q:  # float error beyond the margin: take a sure upper bound
        n = 1 << -(-q.bit_length() // e)
    while True:
        step = ((e - 1) * n + q // n ** (e - 1)) // e
        if step >= n:
            return n
        n = step


@dataclass(frozen=True, eq=False)
class SieveCache:
    """Primality bitset: bit n of the packed words is 1 iff n is prime."""

    limit: int
    words: np.ndarray  # uint64, little-endian bit order within each word

    def is_prime(self, n):
        """Primality of n, an int or a 1-D integer array, read from the packed words.

        Values below 2 are not prime; a value above the limit raises
        RangeError. An array is read _SEGMENT_BITS values at a time, so no
        temporary grows with its length.
        """
        if np.ndim(n) == 0:
            n = int(n)
            self._check(n)
            return n >= 2 and bool((int(self.words[n >> 6]) >> (n & 63)) & 1)
        ns = np.asarray(n, dtype=np.int64)
        if len(ns):
            self._check(int(ns.max()))
        out = np.empty(len(ns), dtype=bool)
        octets = self.words.view(np.uint8)
        for lo in range(0, len(ns), _SEGMENT_BITS):
            part = np.maximum(ns[lo : lo + _SEGMENT_BITS], 0)  # bits 0 and 1 are clear
            out[lo : lo + _SEGMENT_BITS] = (octets[part >> 3] >> (part & 7)) & 1
        return out

    @cached_property
    def flags(self) -> np.ndarray:
        """Unpacked boolean view of the bitset, index = integer."""
        bits = np.unpackbits(
            self.words.view(np.uint8), count=self.limit + 1, bitorder="little"
        )
        return bits.view(np.bool_)

    @cached_property
    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending, int64."""
        return np.flatnonzero(self.flags)

    def _check(self, x) -> None:
        if x > self.limit:
            raise RangeError(f"query at {x} exceeds sieve limit {self.limit}")


def _simple_bool_sieve(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def build_sieve(limit: int, *, max_limit: int = 2**40) -> SieveCache:
    """Segmented sieve of Eratosthenes into a packed bitset.

    Peak working memory beyond the output words is O(sqrt(limit)): one
    base sieve up to sqrt(limit) plus one fixed-size segment buffer.
    """
    if limit < 2:
        raise CapacityError(f"sieve limit must be >= 2, got {limit}")
    if limit > max_limit:
        raise CapacityError(f"sieve limit {limit} exceeds ceiling {max_limit}")

    nbits = limit + 1
    nwords = (nbits + 63) >> 6
    try:
        words = np.zeros(nwords, dtype=np.uint64)
    except MemoryError as exc:
        raise CapacityError(f"cannot allocate bitset for limit {limit}") from exc
    byte_view = words.view(np.uint8)

    root = isqrt(limit)
    base_primes = [int(p) for p in np.flatnonzero(_simple_bool_sieve(max(root, 2)))]

    for lo in range(0, nbits, _SEGMENT_BITS):
        hi = min(lo + _SEGMENT_BITS, nbits)
        seg = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            seg[:2] = False
        for p in base_primes:
            start = p * p
            if start >= hi:
                break
            if start < lo:
                start = lo + (-lo) % p
            seg[start - lo :: p] = False
        packed = np.packbits(seg, bitorder="little")
        byte_view[lo >> 3 : (lo >> 3) + len(packed)] = packed

    return SieveCache(limit=limit, words=words)


@dataclass(frozen=True, eq=False)
class SpfTable:
    """spf[n] = smallest prime factor of n (2 <= n <= limit); spf[0] = spf[1] = 0."""

    limit: int
    spf: np.ndarray  # uint32


def build_spf(limit: int, *, max_limit: int = 10**7) -> SpfTable:
    if limit < 2:
        raise CapacityError(f"spf limit must be >= 2, got {limit}")
    if limit > max_limit:
        raise CapacityError(
            f"spf limit {limit} exceeds ceiling {max_limit} (4 bytes/entry)"
        )
    try:
        spf = np.zeros(limit + 1, dtype=np.uint32)
    except MemoryError as exc:
        raise CapacityError(f"cannot allocate spf table for limit {limit}") from exc
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rest = np.flatnonzero(spf == 0)  # 0, 1, and all primes
    spf[rest] = rest.astype(np.uint32)
    spf[:2] = 0
    return SpfTable(limit=limit, spf=spf)


def primes_in(cache: SieveCache, lo, hi) -> np.ndarray:
    """Primes p with lo < p <= hi, ascending. Bounds may be non-integral."""
    cache._check(hi)
    primes = cache.primes
    i = np.searchsorted(primes, lo, side="right")
    j = np.searchsorted(primes, hi, side="right")
    return primes[i:j]


def prime_count(cache: SieveCache, x) -> int:
    """pi(x): number of primes not exceeding x."""
    cache._check(x)
    return int(np.searchsorted(cache.primes, x, side="right"))


def primes_in_class(cache: SieveCache, x, m: int, a: int) -> np.ndarray:
    """Primes p <= x with p = a (mod m), ascending, int64. x may be non-integral.

    Reads every m-th entry of the flags view from a mod m: O(x/m) work, not a
    pass over all primes <= x.
    """
    if m < 1:
        raise ArgumentError(f"modulus must be >= 1, got {m}")
    cache._check(x)
    a0 = a % m
    stop = max(floor(x) + 1, 0)  # a negative stop would index from the end
    return a0 + m * np.flatnonzero(cache.flags[a0:stop:m])


def prime_count_ap(cache: SieveCache, x, m: int, a: int) -> int:
    """Number of primes p <= x with p = a (mod m)."""
    return len(primes_in_class(cache, x, m, a))


def recip_prime_sum_ap(cache: SieveCache, x, m: int, a: int) -> float:
    """Sum of 1/q over primes q <= x with q = a (mod m), exactly rounded."""
    return fsum((1.0 / primes_in_class(cache, x, m, a)).tolist())


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, exponent) pairs."""

    pairs: tuple
    value: int

    def __iter__(self):
        return iter(self.pairs)


def factorize(
    n: int, spf: SpfTable | None = None, cache: SieveCache | None = None
) -> Factorization:
    """Complete factorization of n >= 1.

    Uses the SPF table when n is covered, otherwise trial division by the
    primes up to sqrt(n). Raises CoverageError when neither
    table suffices.
    """
    if n < 1:
        raise ArgumentError(f"cannot factor {n}; need n >= 1")
    if n == 1:
        return Factorization(pairs=(), value=1)

    pairs = []
    if spf is not None and n <= spf.limit:
        table = spf.spf
        m = n
        while m > 1:
            p = int(table[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return Factorization(pairs=tuple(pairs), value=n)

    if cache is not None and cache.limit * cache.limit >= n:
        m = n
        for p in primes_in(cache, 1, isqrt(n)).tolist():
            if p * p > m:
                break
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                pairs.append((p, e))
        if m > 1:
            pairs.append((m, 1))
        pairs.sort()
        return Factorization(pairs=tuple(pairs), value=n)

    raise CoverageError(
        f"no table covers {n}: need spf.limit >= n or cache.limit >= sqrt(n)"
    )


def _distinct_primes(n: int) -> list:
    """Distinct primes dividing |n|, ascending, by trial division; [] for |n| <= 1."""
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def greatest_prime_factor(n: int, spf=None, cache=None) -> int:
    """P+(n); the convention for n = 1 is 1."""
    if n < 1:
        raise ArgumentError(f"greatest prime factor undefined for {n}")
    if n == 1:
        return 1
    return factorize(n, spf, cache).pairs[-1][0]


def mobius(n: int, spf=None, cache=None) -> int:
    fac = factorize(n, spf, cache)
    if any(e > 1 for _, e in fac.pairs):
        return 0
    return -1 if len(fac.pairs) % 2 else 1


def omega(n: int, spf=None, cache=None) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n, spf, cache).pairs)


# ---------------------------------------------------------------------------
# Sieve persistence: magic "SPL1", u32 LE version, u64 LE limit, u64 LE words.
# ---------------------------------------------------------------------------

_MAGIC = b"SPL1"
_FORMAT_VERSION = 1
_SIEVE_FILENAME = "sieve.spl"


def sieve_cache_dir() -> Path:
    return Path(os.environ.get("SPL_CACHE_DIR", "cache"))


def save_sieve(cache: SieveCache, path) -> None:
    """Write the bitset atomically (temp file then rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = (
        _MAGIC
        + struct.pack("<I", _FORMAT_VERSION)
        + struct.pack("<Q", cache.limit)
        + cache.words.astype("<u8").tobytes()
    )
    # A unique temp file per writer: concurrent builders never share one.
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o644)  # mkstemp's 0600 would hide a shared cache
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_sieve(path) -> SieveCache:
    """Read a sieve file: the 16-byte header is checked, then the words are read once."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != _MAGIC:
            raise ArgumentError(f"{path}: not a sieve cache file")
        if len(header) < 16:
            raise ArgumentError(f"{path}: truncated sieve file")
        version, limit = struct.unpack("<IQ", header[4:])
        if version != _FORMAT_VERSION:
            raise ArgumentError(f"{path}: unsupported format version {version}")
        nwords = (limit + 1 + 63) >> 6
        if os.fstat(fh.fileno()).st_size < 16 + 8 * nwords:
            raise ArgumentError(f"{path}: truncated sieve file")
        words = np.fromfile(fh, dtype="<u8", count=nwords)
    return SieveCache(limit=int(limit), words=words.astype(np.uint64, copy=False))


def ensure_sieve(limit: int, directory=None, *, max_limit: int = 2**40) -> SieveCache:
    """Load the cached sieve if it covers `limit`, else build and replace it."""
    directory = Path(directory) if directory is not None else sieve_cache_dir()
    path = directory / _SIEVE_FILENAME
    if path.exists():
        try:
            cached = load_sieve(path)
        except (ArgumentError, ValueError):
            cached = None
        if cached is not None and cached.limit >= limit:
            return cached
    fresh = build_sieve(limit, max_limit=max_limit)
    save_sieve(fresh, path)
    return fresh
