import ast
import bisect
import mmap
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env, factor_trial, gpf_trial, reference_flags
from spl import core_primes
from spl.core_primes import (
    SieveCache,
    build_sieve,
    build_spf,
    ensure_sieve,
    factorize,
    floor_root,
    load_sieve,
    prime_count,
    primes_in,
    primes_in_class,
    recip_prime_sum_ap,
    save_sieve,
)
from spl.errors import ArgumentError, RangeError


def reference_words(n: int) -> np.ndarray:
    """The reference sieve to n as build_sieve packs it: bit n of little-endian uint64 words."""
    bits = np.frombuffer(bytes(reference_flags(n)), dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    return np.pad(packed, (0, -len(packed) % 8)).view("<u8")


class TestBuildSieve:
    def test_bits_up_to_ten(self):
        c = build_sieve(10)
        assert np.flatnonzero(c.is_prime(np.arange(11))).tolist() == [2, 3, 5, 7]

    def test_hundred_has_25_primes(self):
        assert int(build_sieve(100).flags.sum()) == 25

    def test_limit_below_two_rejected(self):
        with pytest.raises(ArgumentError, match="sieve limit must be >= 2"):
            build_sieve(1)

    def test_ceiling_rejected(self):
        with pytest.raises(RangeError, match="sieve limit .* exceeds ceiling"):
            build_sieve(2**41)

    def test_matches_reference_sieve(self):
        n = 10**5
        c = build_sieve(n)
        ref = reference_flags(n)
        assert np.array_equal(c.flags, np.frombuffer(bytes(ref), dtype=np.uint8).astype(bool))

    def test_segment_boundaries(self):
        # limits straddling the build segment size must not lose edge bits
        seg = core_primes._BUILD_SEGMENT_BITS
        for limit in (seg - 1, seg, seg + 1):
            c = build_sieve(limit)
            ref = reference_flags(limit)
            assert int(c.flags.sum()) == sum(ref)

    def test_build_segments_of_64_bits(self, monkeypatch):
        """Segment edges inside small sieves leave the words as the default build has them."""
        assert core_primes._BUILD_SEGMENT_BITS % 64 == 0
        limits = (2, 63, 64, 65, 127, 128, 1000, 4097)
        default = {n: build_sieve(n).words for n in limits}
        monkeypatch.setattr(core_primes, "_BUILD_SEGMENT_BITS", 64)
        for n in limits:
            c = build_sieve(n)
            assert np.array_equal(c.words, default[n])
            ref = np.frombuffer(bytes(reference_flags(n)), dtype=np.uint8).astype(bool)
            assert np.array_equal(c.flags, ref)

    def test_presieved_words_match_the_reference_at_every_small_limit(self):
        """Limits 2 .. 400, below and past 13**2: the wheel primes and 2 stay prime, 1 and 0 do not."""
        for limit in range(2, 401):
            c = build_sieve(limit)
            assert np.array_equal(c.words, reference_words(limit)), limit
            small = [q for q in (2, 3, 5, 7, 11, 13) if q <= limit]
            assert c.is_prime(np.array(small)).all() and not c.is_prime(np.array([0, 1])).any()

    def test_presieved_words_at_the_wheel_period(self):
        """Limits at k periods of the wheel and one either side, in one segment and across two."""
        period = core_primes._WHEEL
        for k in (1, 2, 3, 24):  # 24 periods pass the first build segment
            for limit in (k * period - 1, k * period, k * period + 1):
                assert np.array_equal(build_sieve(limit).words, reference_words(limit)), limit

    def test_build_holds_one_period_and_one_segment(self):
        """Beyond its words, a build holds the wheel's period and one segment, never a tiled copy."""
        seg = core_primes._BUILD_SEGMENT_BITS
        limit = 3 * seg + 12345
        core_primes._wheel()  # built once per process, outside the measured build
        tracemalloc.start()
        try:
            build_sieve(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        words = 8 * ((limit + 64) >> 6)
        # one bool segment, two segments' packed bytes (the last is held while the next
        # is packed) and the bool period, plus 64 kB for the rest
        assert peak - words < seg + 2 * (seg // 8) + core_primes._WHEEL + (64 << 10)

    def test_is_prime_range_checked(self):
        c = build_sieve(50)
        with pytest.raises(RangeError):
            c.is_prime(np.array([51]))
        with pytest.raises(RangeError):
            c.is_prime(np.array([3, 51, 5]))

    def test_is_prime_arrays_in_chunks(self):
        """An array, a strided view and an empty array read as the reference does; negatives are not prime."""
        n = 3000
        c = build_sieve(n)
        ref = reference_flags(n)
        ns = np.arange(-40, n + 1)
        want = [v >= 0 and bool(ref[v]) for v in ns.tolist()]
        assert c.is_prime(ns).tolist() == want
        assert c.is_prime(np.array([], dtype=np.int64)).tolist() == []
        assert c.is_prime(ns[::-3]).tolist() == want[::-3]


def _attribute_reads(path, attrs):
    """(enclosing function or method, attribute, line) of every read of one of attrs in path."""
    reads = []

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in attrs:
                reads.append((owner, child.attr, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            walk(child, child.name if inner else owner)

    walk(ast.parse(path.read_text(), str(path)), None)
    return reads


def test_only_core_primes_reads_the_prime_tables():
    """Other modules ask is_prime, primes_in or primes_in_class, so the storage can change in one place."""
    reads = [
        f"{path.name}:{line} .{attr}"
        for path in sorted(Path(core_primes.__file__).parent.glob("*.py"))
        if path.name != "core_primes.py"
        for _, attr, line in _attribute_reads(path, ("words", "flags", "primes"))
    ]
    assert reads == []


def test_each_sieve_view_has_one_reader():
    """In core_primes, `primes` is read by primes_in alone, `flags` by primes_in_class and `primes`."""
    readers = {}
    for owner, attr, _ in _attribute_reads(Path(core_primes.__file__), ("flags", "primes")):
        readers.setdefault(attr, set()).add(owner)
    assert readers == {"primes": {"primes_in"}, "flags": {"primes_in_class", "primes"}}


class TestSpf:
    def test_examples(self):
        spf = build_spf(12)
        assert spf[12] == 2 and spf[9] == 3 and spf[11] == 11
        assert build_spf(100)[91] == 7
        assert build_spf(2)[2] == 2

    def test_invariants_exhaustive(self, cache):
        spf = build_spf(10**4)
        assert spf[0] == 0 and spf[1] == 0
        ns = np.arange(2, 10**4 + 1)
        vals = spf[ns].astype(np.int64)
        assert np.all(ns % vals == 0)
        assert np.all((vals * vals <= ns) | (vals == ns))
        ps = primes_in(cache, 1, 10**4)
        assert np.array_equal(spf[ps].astype(np.int64), ps)

    def test_cap(self):
        with pytest.raises(RangeError, match="spf limit .* exceeds ceiling"):
            build_spf(10**7 + 1)
        with pytest.raises(ArgumentError, match="spf limit must be >= 2"):
            build_spf(1)


class TestPrimesIn:
    def test_examples(self, cache):
        assert primes_in(cache, 10, 20).tolist() == [11, 13, 17, 19]
        assert primes_in(cache, 2, 2).tolist() == []
        lo = (10**4 / 2) ** 0.25
        assert primes_in(cache, lo, 100)[0] == 11

    def test_beyond_cache(self, cache):
        with pytest.raises(RangeError):
            primes_in(cache, 0, cache.limit + 1)

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    @settings(deadline=None, max_examples=60)
    def test_split_is_disjoint_union(self, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        sieve = build_sieve(501)
        left = primes_in(sieve, lo, mid).tolist()
        right = primes_in(sieve, mid, hi).tolist()
        assert left + right == primes_in(sieve, lo, hi).tolist()
        assert not set(left) & set(right)


class TestPrimesInClass:
    def test_matches_filtered_prime_list(self):
        """At every x < 3000 and m <= 60, the class of 1 mod m is the filtered prime list."""
        sieve = build_sieve(3000)
        primes = sieve.primes
        for m in range(1, 61):
            ones = primes[primes % m == 1 % m].tolist()
            assert primes_in_class(sieve, 3000, m).dtype == np.int64
            for x in range(-2, 3000):
                want = ones[: bisect.bisect_right(ones, x)]
                assert primes_in_class(sieve, x, m).tolist() == want, (x, m)

    def test_modulus_beyond_x(self):
        sieve = build_sieve(1000)
        for m in (50, 51, 997, 10**6):
            assert primes_in_class(sieve, 50, m).tolist() == []
        assert primes_in_class(sieve, 1000, 996).tolist() == [997]
        assert np.array_equal(primes_in_class(sieve, 1000, 1), sieve.primes)

    def test_errors(self):
        sieve = build_sieve(100)
        with pytest.raises(RangeError):
            primes_in_class(sieve, 101, 3)
        with pytest.raises(ArgumentError):
            primes_in_class(sieve, 50, 0)
        with pytest.raises(ArgumentError):
            recip_prime_sum_ap(sieve, 50, 0)


class TestPrimeCount:
    def test_examples(self, cache):
        assert prime_count(cache, 10) == 4
        assert prime_count(cache, 2) == 1
        assert prime_count(cache, 10**6) == 78498

    def test_ten_million(self, big_cache):
        assert prime_count(big_cache, 10**7) == 664579

    def test_partition_over_residues(self, cache):
        """The class of 1 mod m, read from flags, and the other classes, read by is_prime, make pi(x)."""
        x = 10**4
        for m in (1, 2, 3, 4, 5, 12):
            others = sum(int(cache.is_prime(np.arange(a, x + 1, m)).sum()) for a in range(2, m + 1))
            assert len(primes_in_class(cache, x, m)) + others == prime_count(cache, x)

    def test_ap_examples(self, cache):
        assert len(primes_in_class(cache, 50, 3)) == 6
        assert len(primes_in_class(cache, 20, 4)) == 3
        assert len(primes_in_class(cache, 10, 2)) == 3

    def test_ap_zero_modulus(self, cache):
        with pytest.raises(ArgumentError):
            primes_in_class(cache, 10, 0)

    def test_range_errors(self, cache):
        with pytest.raises(RangeError):
            prime_count(cache, cache.limit + 1)
        with pytest.raises(RangeError):
            primes_in_class(cache, cache.limit + 1, 3)


class TestFactorize:
    def test_examples(self, spf):
        assert factorize(12, spf) == ((2, 2), (3, 1))
        assert factorize(1) == ()
        assert factorize(8633) == ((89, 1), (97, 1))

    def test_every_route_agrees(self, spf):
        """The SPF walk and the no-table loop both match test-side trial division."""
        ns = [2**k + d for k in range(1, 41) for d in (-1, 1)]
        ns += [p**e for p in (2, 3, 97, 1000003) for e in (1, 2, 5)] + [97**2 * 2]
        for n in ns:
            want = tuple(factor_trial(n))
            if n < len(spf):
                assert factorize(n, spf) == want
            assert factorize(n) == want

    def test_trial_division_beyond_spf(self, spf):
        n = 1000003 * 2  # 1000003 is prime and lies beyond the spf table
        assert factorize(n, spf) == ((2, 1), (1000003, 1))

    def test_reconstruction_random(self, spf):
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 10**6, 300).tolist():
            pairs = factorize(n, spf)
            prod = 1
            for p, e in pairs:
                prod *= p**e
            assert prod == n
            assert all(e >= 1 for _, e in pairs)
            assert list(pairs) == sorted(pairs)

    def test_no_covering_table(self):
        # the table does not cover n: trial division by 2 and the odd numbers
        assert factorize(10007 * 10009) == ((10007, 1), (10009, 1))
        assert factorize(97, build_spf(10)) == ((97, 1),)
        assert factorize(97, None) == ((97, 1),)

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            factorize(0)

    def test_last_pair_is_the_greatest_prime_factor(self, spf):
        """The oracle's P+ table reads factorize(n, spf)[-1][0]."""
        ns = range(2, 2000)
        assert [factorize(n, spf)[-1][0] for n in ns] == [gpf_trial(n) for n in ns]


class TestFloorRoot:
    @staticmethod
    def check(t, e):
        n = floor_root(t, e)
        assert n >= 0 and (n + 1) ** e > t
        assert n**e <= t or (n == 0 and t < 1)
        return n

    def test_boundaries(self):
        # perfect powers and their neighbours
        for e in range(1, 8):
            for a in range(1, 60):
                assert self.check(a**e, e) == a
                assert self.check(a**e - 1, e) == a - 1
                assert self.check(a**e + 1, e) == (a + 1 if e == 1 else a)
        # r^den == n^num: with r = a^num the root of r^den at num is a^den;
        # with x = 2 a^den, x^num // 2^num == (a^num)^den, as range_bounds_exact asks
        for num, den in ((1, 2), (2, 3), (3, 4), (2, 5), (7, 16), (13, 32)):
            for a in (2, 3, 5, 7):
                r = a**num
                assert self.check(r**den, num) == a**den
                assert self.check(r**den - 1, num) == a**den - 1
                x = 2 * a**den
                assert self.check(x**num // 2**num, den) == a**num
                assert self.check((x**num - 1) // 2**num, den) == a**num - 1
        # t = 2^k +- 1
        for k in range(1, 200):
            for d in (-1, 0, 1):
                for e in (1, 2, 3, 4, 7, 12):
                    self.check(2**k + d, e)
        # past the float range the start is scaled by a power of two
        assert self.check(10**400, 1) == 10**400
        assert self.check(10**4000, 2) == 10**2000
        assert floor_root(-5, 3) == floor_root(0, 3) == 0 < floor_root(1, 3) == 1
        # below 2**e the root is 1, with no power of that size built
        assert floor_root(100, 10**20) == 1

    @pytest.mark.parametrize("e", [0, -1])
    def test_rejects_exponent_below_one(self, e):
        with pytest.raises(ArgumentError):
            floor_root(100, e)

    @given(st.integers(0, 2**2000), st.integers(1, 40), st.integers(1, 2**80))
    @settings(deadline=None, max_examples=300)
    def test_random(self, t, e, c):
        self.check(t, e)
        # c * n**e <= t iff n**e <= t // c: a scaled root is the root of a quotient
        n = floor_root(t // c, e)
        assert c * n**e <= t < c * (n + 1) ** e


class TestRecipSums:
    def test_examples(self, cache):
        assert recip_prime_sum_ap(cache, 50, 3) == pytest.approx(0.354953, abs=1e-6)
        assert recip_prime_sum_ap(cache, 10, 5) == 0.0
        assert recip_prime_sum_ap(cache, 10, 2) == pytest.approx(1 / 3 + 1 / 5 + 1 / 7, abs=1e-6)

    def test_monotone_in_x(self, cache):
        vals = [recip_prime_sum_ap(cache, x, 3) for x in range(5, 500, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_range_error(self, cache):
        with pytest.raises(RangeError):
            recip_prime_sum_ap(cache, cache.limit + 1, 3)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        c = build_sieve(12345)
        path = tmp_path / "sieve.spl"
        save_sieve(c, path)
        back = load_sieve(path)
        assert back.limit == c.limit
        assert back.words.dtype == np.uint64
        assert np.array_equal(back.words, c.words)

    def test_header_layout(self, tmp_path):
        # the 16-byte header, then exactly the words
        for limit in (2, 63, 64, 100, 1000, 2**18 + 1):
            c = build_sieve(limit)
            path = tmp_path / f"sieve{limit}.spl"
            save_sieve(c, path)
            raw = path.read_bytes()
            assert raw[:4] == b"SPL1"
            assert int.from_bytes(raw[4:8], "little") == 1
            assert int.from_bytes(raw[8:16], "little") == limit
            assert raw[16:] == c.words.tobytes()

    @staticmethod
    def _spoiled(tmp_path, how):
        """A saved sieve file with a wrong magic, a wrong version or a short body."""
        path = tmp_path / "sieve.spl"
        save_sieve(build_sieve(10000), path)
        raw = path.read_bytes()
        if how == "magic":
            raw = b"NOPE" + raw[4:]
        elif how == "version":
            raw = raw[:4] + (2).to_bytes(4, "little") + raw[8:]
        elif how == "truncated":
            raw = raw[:-8]
        elif how == "header":
            raw = raw[:10]
        path.write_bytes(raw)
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.spl"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ArgumentError):
            load_sieve(path)

    @pytest.mark.parametrize("how", ["version", "header"])
    def test_wrong_version_or_short_header(self, tmp_path, how):
        with pytest.raises(ArgumentError):
            load_sieve(self._spoiled(tmp_path, how))

    def test_truncated_file(self, tmp_path):
        c = build_sieve(10000)
        path = tmp_path / "sieve.spl"
        save_sieve(c, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ArgumentError):
            load_sieve(path)

    @pytest.mark.parametrize("how", ["magic", "version", "truncated", "header"])
    def test_ensure_sieve_rebuilds_spoiled_file(self, tmp_path, how):
        path = self._spoiled(tmp_path, how)
        got = ensure_sieve(5000, tmp_path)
        assert got.limit == 5000
        assert np.array_equal(got.words, build_sieve(5000).words)
        back = load_sieve(path)
        assert back.limit == 5000 and np.array_equal(back.words, got.words)

    def test_load_maps_the_file_read_only(self, tmp_path):
        save_sieve(build_sieve(12345), tmp_path / "sieve.spl")
        def mapped(a):
            while isinstance(a, np.ndarray):
                a = a.base
            return isinstance(a, mmap.mmap)

        words = load_sieve(tmp_path / "sieve.spl").words
        # plain arrays over the map: slices of a memmap pay Python-level hooks
        assert type(words) is np.ndarray and not words.flags.writeable and mapped(words)
        cut = ensure_sieve(1000, tmp_path)  # a view of the map: nothing is copied
        assert type(cut.words) is np.ndarray and mapped(cut.words)
        assert len(cut.words) == 1000 // 64 + 1 and type(cut.flags) is np.ndarray

    def test_ensure_sieve_reuses_and_grows(self, tmp_path):
        first = ensure_sieve(1000, tmp_path)
        assert (tmp_path / "sieve.spl").exists()
        again = ensure_sieve(500, tmp_path)
        assert again.limit == 500  # cut from the file, which keeps its limit
        assert np.array_equal(again.primes, build_sieve(500).primes)
        assert load_sieve(tmp_path / "sieve.spl").limit == first.limit == 1000
        bigger = ensure_sieve(5000, tmp_path)
        assert bigger.limit == 5000
        assert load_sieve(tmp_path / "sieve.spl").limit == 5000

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        """A write that fails after the header leaves the old file and no temp file."""

        class Unwritable:
            def astype(self, *args, **kwargs):
                return self

            def tofile(self, fh):
                raise OSError("no space left")

        path = tmp_path / "sieve.spl"
        save_sieve(build_sieve(100), path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="no space left"):
            save_sieve(SieveCache(limit=100, words=Unwritable()), path)
        assert [f.name for f in tmp_path.iterdir()] == ["sieve.spl"]
        assert path.read_bytes() == before

    def test_concurrent_builders(self, tmp_path):
        """Two processes saving into one directory never clobber each other."""
        limits = (1_000_000, 1_200_000)
        script = (
            "import sys\n"
            "from spl.core_primes import build_sieve, save_sieve\n"
            "c = build_sieve(int(sys.argv[1]))\n"
            "for _ in range(200):\n"
            "    save_sieve(c, sys.argv[2])\n"
        )
        path = tmp_path / "sieve.spl"
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(n), str(path)], env=child_env())
            for n in limits
        ]
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
        assert list(tmp_path.glob("*.tmp")) == []
        assert [f.name for f in tmp_path.iterdir()] == ["sieve.spl"]
        back = load_sieve(path)
        assert back.limit in limits
        assert np.array_equal(back.words, build_sieve(back.limit).words)

    def test_env_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPL_CACHE_DIR", str(tmp_path / "envcache"))
        ensure_sieve(300)
        assert (tmp_path / "envcache" / "sieve.spl").exists()
