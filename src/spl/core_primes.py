"""Prime tables and prime-indexed summation primitives.

Everything here is plain multiplicative-number-theory plumbing: a packed
primality bitset built by a segmented sieve, the one small-prime wheel
pattern (it presieves the bitset and seeds the greatest-prime-factor
blocks of `shifted_counts`), a smallest-prime-factor table, the one
factorizer `factorize`, the primes in the progressions 1 mod m, and
exactly rounded reciprocal sums over them.
All tables are immutable after construction. Only this module reads the
storage behind a sieve, by three reads: `SieveCache.is_prime` (the packed
words), `primes_in` (the `primes` view) and `primes_in_class` (the `flags`
view). Everything else goes through them.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from math import fsum, isqrt, log2, log10
from pathlib import Path

import numpy as np

from .errors import ArgumentError, RangeError

__all__ = [
    "SieveCache",
    "build_sieve",
    "build_spf",
    "primes_in",
    "primes_in_class",
    "prime_count",
    "factorize",
    "recip_prime_sum_ap",
    "floor_root",
    "save_sieve",
    "load_sieve",
    "ensure_sieve",
    "sieve_cache_dir",
]

_BUILD_SEGMENT_BITS = 1 << 20  # multiple of 64 so build segments pack on word boundaries
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = 3**2 * 5 * 7 * 11 * 13  # 45045, the period of the small-prime pattern `_wheel`
SIEVE_CEILING = 2**40  # largest sieve limit build_sieve accepts
SPF_CEILING = 10**7  # largest spf limit build_spf accepts (4 bytes/entry)


def floor_root(t: int, e: int) -> int:
    """Largest n >= 0 with n**e <= t, for an integer e >= 1; exact at any size.

    A float estimate of log2 of the root gives a start just above it (kept
    to 64 significant bits, so any size fits a float), and integer Newton
    steps from above settle it: each step lands on or above the answer and
    below the previous value until the answer is reached.
    """
    if e < 1:
        raise ArgumentError(f"floor_root needs e >= 1, got e={e}")
    if t < 1:
        return 0
    if t.bit_length() <= e:  # 1 <= t < 2**e: the root is 1, and no power is built
        return 1
    lg = log2(t) / e
    shift = max(int(lg) - 64, 0)
    n = (int(2 ** (lg - shift) * (1 + 2**-40 * (lg + 1))) + 1) << shift
    if n**e <= t:  # float error beyond the margin: take a sure upper bound
        n = 1 << -(-t.bit_length() // e)
    while True:
        step = ((e - 1) * n + t // n ** (e - 1)) // e
        if step >= n:
            return n
        n = step


@dataclass(frozen=True, eq=False)
class SieveCache:
    """Primality bitset: bit n of the packed words is 1 iff n is prime."""

    limit: int
    words: np.ndarray  # uint64, little-endian bit order within each word

    def is_prime(self, ns: np.ndarray) -> np.ndarray:
        """Primality of each value of the 1-D integer array ns, read from the packed words.

        Values below 2 are not prime; a value above the limit raises
        RangeError. The array is read in one gather, so a caller bounds its
        temporaries by the length it passes.
        """
        ns = np.maximum(ns, 0)  # bits 0 and 1 are clear
        self._check(int(ns.max(initial=0)))
        return ((self.words.view(np.uint8)[ns >> 3] >> (ns & 7)) & 1).astype(bool)

    @cached_property
    def flags(self) -> np.ndarray:
        """Unpacked boolean view of the bitset, index = integer."""
        bits = np.unpackbits(self.words.view(np.uint8), count=self.limit + 1, bitorder="little")
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


@cache
def _wheel() -> tuple:
    """(smooth, top) over one period, n = 0 .. _WHEEL - 1, read-only and built once.

    smooth[n] = gcd(n, _WHEEL), the product of the wheel's capped prime
    powers (3**2, 5, 7, 11, 13) that divide n, and top[n] is the largest
    wheel prime dividing n, or 1. Both segmented loops (`build_sieve` and
    `shifted_counts._gpf_block`) copy their blocks from it through `_tile`.
    """
    smooth = np.ones(_WHEEL, dtype=np.uint16)
    top = np.ones(_WHEEL, dtype=np.uint8)
    for q in _WHEEL_PRIMES:  # ascending, so the largest prime dividing n writes `top` last
        top[::q] = q
        qe = q
        while _WHEEL % qe == 0:
            part = smooth[::qe]
            part *= q
            qe *= q
    smooth.setflags(write=False)
    top.setflags(write=False)
    return smooth, top


def _tile(pattern: np.ndarray, lo: int, out: np.ndarray) -> None:
    """out[i] = pattern[(lo + i) % len(pattern)], copied as wrapped slices of one period."""
    period = len(pattern)
    start = lo % period
    done = min(period - start, len(out))
    out[:done] = pattern[start : start + done]
    while done < len(out):
        step = min(period, len(out) - done)
        out[done : done + step] = pattern[:step]
        done += step


def _expand(cnt: np.ndarray) -> tuple:
    """(owner, rank) over groups of cnt[k] entries: entry i is number rank[i], from 0, of group owner[i]."""
    owner = np.repeat(np.arange(len(cnt)), cnt)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(cnt) - cnt, cnt)


def _check_sieve_limit(limit: int) -> None:
    if limit < 2:
        raise ArgumentError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_CEILING:
        # by its size past 64 bits: a computed limit such as a*t + b may have
        # more digits than Python converts to a string
        shown = limit if limit.bit_length() <= 64 else f"~10^{log10(limit):.1f}"
        raise RangeError(f"sieve limit {shown} exceeds ceiling {SIEVE_CEILING}")


def build_sieve(limit: int) -> SieveCache:
    """Segmented sieve of Eratosthenes into a packed bitset, presieved by the wheel.

    Each segment starts as a copy of the integers prime to the wheel primes
    3, 5, 7, 11 and 13 (`_wheel`'s smooth == 1), and 2 takes no write in it:
    its multiples are the even bits, cleared from the packed bytes. So only
    the base primes from 17 up to sqrt(limit) are strided writes. Multiples
    of a wheel prime and of 2 are composite at any limit, so the presieve is
    exact below 13**2 too, once the first segment's primes 2 .. 13 are set.
    Peak working memory beyond the output words is O(sqrt(limit)): one base
    sieve up to sqrt(limit), one wheel period and one segment buffer.
    """
    _check_sieve_limit(limit)
    nbits = limit + 1
    nwords = (nbits + 63) >> 6
    words = np.zeros(nwords, dtype=np.uint64)
    byte_view = words.view(np.uint8)

    root = isqrt(limit)
    base_primes = np.flatnonzero(_simple_bool_sieve(max(root, 2)))
    base_primes = base_primes[base_primes > _WHEEL_PRIMES[-1]].tolist()
    head = _simple_bool_sieve(_WHEEL_PRIMES[-1])  # 0 .. 13, where the wheel primes are prime
    coprime = _wheel()[0] == 1
    buffer = np.empty(min(_BUILD_SEGMENT_BITS, nbits), dtype=bool)

    for lo in range(0, nbits, _BUILD_SEGMENT_BITS):
        hi = min(lo + _BUILD_SEGMENT_BITS, nbits)
        seg = buffer[: hi - lo]
        _tile(coprime, lo, seg)
        if lo == 0:
            seg[: len(head)] = head[: len(seg)]
        for p in base_primes:
            start = p * p
            if start >= hi:
                break
            if start < lo:
                start = lo + (-lo) % p
            seg[start - lo :: p] = False
        packed = np.packbits(seg, bitorder="little")
        packed &= 0xAA  # segments start at even n: bits 1, 3, 5, 7 of a byte are its odd n
        if lo == 0:
            packed[0] |= 1 << 2  # 2 is prime
        byte_view[lo >> 3 : (lo >> 3) + len(packed)] = packed

    return SieveCache(limit=limit, words=words)


def build_spf(limit: int) -> np.ndarray:
    """uint32 array: spf[n] = smallest prime factor of n (2 <= n <= limit); spf[0] = spf[1] = 0."""
    if limit < 2:
        raise ArgumentError(f"spf limit must be >= 2, got {limit}")
    if limit > SPF_CEILING:
        raise RangeError(
            f"spf limit {limit} exceeds ceiling {SPF_CEILING} (4 bytes/entry)"
        )
    spf = np.zeros(limit + 1, dtype=np.uint32)
    # descending, so the smallest prime dividing n writes spf[n] last
    for p in np.flatnonzero(_simple_bool_sieve(isqrt(limit)))[::-1].tolist():
        spf[p * p :: p] = p
    rest = np.flatnonzero(spf == 0)  # 0, 1, and all primes
    spf[rest] = rest.astype(np.uint32)
    spf[:2] = 0
    return spf


def primes_in(cache: SieveCache, lo, hi) -> np.ndarray:
    """Primes p with lo < p <= hi, ascending. Bounds may be non-integral."""
    cache._check(hi)
    primes = cache.primes
    i = np.searchsorted(primes, lo, side="right")
    j = np.searchsorted(primes, hi, side="right")
    return primes[i:j]


def prime_count(cache: SieveCache, x) -> int:
    """pi(x): number of primes not exceeding x."""
    return len(primes_in(cache, 0, x))


def primes_in_class(cache: SieveCache, x: int, m: int) -> np.ndarray:
    """Primes p <= x with p = 1 (mod m), ascending, int64.

    Reads every m-th entry of the flags view from 1 mod m: O(x/m) work, not a
    pass over all primes <= x.
    """
    if m < 1:
        raise ArgumentError(f"modulus must be >= 1, got {m}")
    cache._check(x)
    a0 = 1 % m
    stop = max(x + 1, 0)  # a negative stop would index from the end
    return a0 + m * np.flatnonzero(cache.flags[a0:stop:m])


def recip_prime_sum_ap(cache: SieveCache, x: int, m: int) -> float:
    """Sum of 1/q over primes q <= x with q = 1 (mod m), exactly rounded."""
    return fsum((1.0 / primes_in_class(cache, x, m)).tolist())


def factorize(n: int, spf: np.ndarray | None = None) -> tuple:
    """Ascending (prime, exponent) pairs of n >= 1: the one route from an integer to its primes.

    Walks the SPF table when n < len(spf), else trial-divides by 2 and the
    odd numbers.
    """
    if n < 1:
        raise ArgumentError(f"cannot factor {n}; need n >= 1")
    pairs = []
    m = n
    if spf is not None and n < len(spf):
        while m > 1:
            p = int(spf[m])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return tuple(pairs)

    for d in chain((2,), range(3, isqrt(n) + 1, 2)):
        if d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            pairs.append((d, e))
    if m > 1:
        pairs.append((m, 1))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# Sieve persistence: magic "SPL1", u32 LE version, u64 LE limit, u64 LE words.
# ---------------------------------------------------------------------------

_MAGIC = b"SPL1"
_FORMAT_VERSION = 1
_SIEVE_FILENAME = "sieve.spl"


def sieve_cache_dir() -> Path:
    return Path(os.environ.get("SPL_CACHE_DIR", "cache"))


def save_sieve(cache: SieveCache, path) -> None:
    """Write the bitset atomically (temp file then rename): the header, then the words."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = _MAGIC + struct.pack("<IQ", _FORMAT_VERSION, cache.limit)
    # A unique temp file per writer: concurrent builders never share one.
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o644)  # mkstemp's 0600 would hide a shared cache
            fh.write(header)
            # the words go out from the array itself: no bytes copy is made
            cache.words.astype("<u8", copy=False).tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_sieve(path) -> SieveCache:
    """Map a sieve file's words read-only, once its 16-byte header is checked.

    Header and map come from one handle; save_sieve replaces a file, never
    rewrites it, so a mapped file is never truncated under a reader.
    """
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
        # a plain read-only array over the map: slices of an np.memmap pay Python-level hooks
        words = np.asarray(np.memmap(fh, dtype="<u8", mode="r", offset=16, shape=(nwords,)))
    return SieveCache(limit=int(limit), words=words)


def ensure_sieve(limit: int, directory=None) -> SieveCache:
    """A sieve of exactly `limit`: cut from the cached file if it covers `limit`, else built.

    A built sieve replaces the file; a cut one is a view of the mapped file,
    so a command reads only the pages of its own reach, whatever was cached.
    A limit build_sieve refuses is refused before the cache is read.
    """
    _check_sieve_limit(limit)
    directory = Path(directory) if directory is not None else sieve_cache_dir()
    path = directory / _SIEVE_FILENAME
    if path.exists():
        try:
            cached = load_sieve(path)
        except (ArgumentError, ValueError):
            cached = None
        if cached is not None and cached.limit >= limit:
            return SieveCache(limit, cached.words[: (limit >> 6) + 1])
    fresh = build_sieve(limit)
    save_sieve(fresh, path)
    return fresh
