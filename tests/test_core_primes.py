import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gpf_trial, reference_flags
from spl import core_primes
from spl.core_primes import (
    _distinct_primes,
    build_sieve,
    build_spf,
    ensure_sieve,
    factorize,
    floor_root,
    greatest_prime_factor,
    load_sieve,
    mobius,
    omega,
    prime_count,
    prime_count_ap,
    primes_in,
    primes_in_class,
    recip_prime_sum_ap,
    save_sieve,
)
from spl.errors import ArgumentError, CapacityError, CoverageError, RangeError


class TestBuildSieve:
    def test_bits_up_to_ten(self):
        c = build_sieve(10)
        assert [n for n in range(11) if c.is_prime(n)] == [2, 3, 5, 7]

    def test_hundred_has_25_primes(self):
        assert int(build_sieve(100).flags.sum()) == 25

    def test_limit_below_two_rejected(self):
        with pytest.raises(CapacityError):
            build_sieve(1)

    def test_ceiling_rejected(self):
        with pytest.raises(CapacityError):
            build_sieve(2**41)

    def test_matches_reference_sieve(self):
        n = 10**5
        c = build_sieve(n)
        ref = reference_flags(n)
        assert np.array_equal(c.flags, np.frombuffer(bytes(ref), dtype=np.uint8).astype(bool))

    def test_segment_boundaries(self):
        # limits straddling the segment size must not lose edge bits
        for limit in (2**18 - 1, 2**18, 2**18 + 1):
            c = build_sieve(limit)
            ref = reference_flags(limit)
            assert int(c.flags.sum()) == sum(ref)

    def test_is_prime_range_checked(self):
        c = build_sieve(50)
        with pytest.raises(RangeError):
            c.is_prime(51)
        with pytest.raises(RangeError):
            c.is_prime(np.array([3, 51, 5]))

    def test_is_prime_arrays_in_chunks(self, monkeypatch):
        """Chunks of 7 values put chunk edges all over a range with negatives."""
        n = 3000
        c = build_sieve(n)
        ref = reference_flags(n)
        ns = np.arange(-40, n + 1)
        want = [v >= 0 and bool(ref[v]) for v in ns.tolist()]
        assert c.is_prime(ns).tolist() == want
        assert [c.is_prime(int(v)) for v in ns] == want
        assert c.is_prime(np.int64(2999)) is True
        assert c.is_prime(np.array([], dtype=np.int64)).tolist() == []
        monkeypatch.setattr(core_primes, "_SEGMENT_BITS", 7)
        assert c.is_prime(ns).tolist() == want
        assert c.is_prime(ns[::-3]).tolist() == want[::-3]


def test_only_core_primes_reads_the_prime_tables():
    """Other modules ask is_prime or primes_in, so the storage can change in one place."""
    reads = []
    for path in sorted(Path(core_primes.__file__).parent.glob("*.py")):
        if path.name == "core_primes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("flags", "primes"):
                reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert reads == []


class TestSpf:
    def test_examples(self):
        t = build_spf(12)
        assert t.spf[12] == 2 and t.spf[9] == 3 and t.spf[11] == 11
        assert build_spf(100).spf[91] == 7
        assert build_spf(2).spf[2] == 2

    def test_invariants_exhaustive(self, cache):
        t = build_spf(10**4)
        spf = t.spf
        assert spf[0] == 0 and spf[1] == 0
        ns = np.arange(2, 10**4 + 1)
        vals = spf[ns].astype(np.int64)
        assert np.all(ns % vals == 0)
        assert np.all((vals * vals <= ns) | (vals == ns))
        ps = primes_in(cache, 1, 10**4)
        assert np.array_equal(spf[ps].astype(np.int64), ps)

    def test_cap(self):
        with pytest.raises(CapacityError):
            build_spf(10**7 + 1)
        with pytest.raises(CapacityError):
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
        sieve = build_sieve(1000)
        primes = sieve.primes
        for m in range(1, 41):
            for a in (-7, -1, 0, 1, m - 1, m, m + 3, 2 * m + 1):
                a0 = a % m
                for x in (0, 1, 2, a0 - 1, a0, 99.5, 100, 500.999, sieve.limit):
                    upto = primes[primes <= math.floor(x)]
                    want = upto[upto % m == a0]
                    got = primes_in_class(sieve, x, m, a)
                    assert got.dtype == np.int64
                    assert got.tolist() == want.tolist(), (x, m, a)

    def test_modulus_beyond_x(self):
        sieve = build_sieve(1000)
        for m in (51, 997, 10**6):
            assert primes_in_class(sieve, 50, m, 7).tolist() == [7]
            assert primes_in_class(sieve, 50, m, 8).tolist() == []
            assert primes_in_class(sieve, 50, m, -1).tolist() == []
        assert primes_in_class(sieve, 1000, 1001, 997).tolist() == [997]

    def test_errors(self):
        sieve = build_sieve(100)
        with pytest.raises(RangeError):
            primes_in_class(sieve, 101, 3, 1)
        with pytest.raises(ArgumentError):
            primes_in_class(sieve, 50, 0, 1)
        with pytest.raises(ArgumentError):
            recip_prime_sum_ap(sieve, 50, 0, 1)


class TestPrimeCount:
    def test_examples(self, cache):
        assert prime_count(cache, 10) == 4
        assert prime_count(cache, 2) == 1
        assert prime_count(cache, 10**6) == 78498

    def test_ten_million(self, big_cache):
        assert prime_count(big_cache, 10**7) == 664579

    def test_partition_over_residues(self, cache):
        x = 10**4
        for m in (1, 2, 3, 4, 5, 12):
            total = sum(prime_count_ap(cache, x, m, a) for a in range(m))
            assert total == prime_count(cache, x)

    def test_ap_examples(self, cache):
        assert prime_count_ap(cache, 50, 3, 1) == 6
        assert prime_count_ap(cache, 20, 4, 1) == 3
        assert prime_count_ap(cache, 10, 2, 0) == 1

    def test_ap_zero_modulus(self, cache):
        with pytest.raises(ArgumentError):
            prime_count_ap(cache, 10, 0, 0)

    def test_range_errors(self, cache):
        with pytest.raises(RangeError):
            prime_count(cache, cache.limit + 1)
        with pytest.raises(RangeError):
            prime_count_ap(cache, cache.limit + 1, 3, 1)


class TestFactorize:
    def test_examples(self, spf, cache):
        assert factorize(12, spf).pairs == ((2, 2), (3, 1))
        assert factorize(1).pairs == ()
        assert factorize(8633, None, cache).pairs == ((89, 1), (97, 1))
        # the trial-division factorizer agrees on boundary shapes, sign-blind
        assert _distinct_primes(1) == _distinct_primes(-1) == []
        for p in (2, 3, 97, 1000003):
            assert _distinct_primes(p) == _distinct_primes(p**5) == [p]
        for n in [2**k + d for k in range(1, 41) for d in (-1, 1)] + [3**7, 97**2 * 2]:
            want = [q for q, _ in factorize(n, spf, cache).pairs] if n > 1 else []
            assert _distinct_primes(n) == _distinct_primes(-n) == want

    def test_trial_division_beyond_spf(self, spf, cache):
        n = 1000003 * 2  # 1000003 is prime and exceeds spf.limit
        fac = factorize(n, spf, cache)
        assert fac.pairs == ((2, 1), (1000003, 1))

    def test_reconstruction_random(self, spf, cache):
        rng = np.random.default_rng(7)
        for n in rng.integers(1, 10**6, 300).tolist():
            fac = factorize(n, spf, cache)
            prod = 1
            for p, e in fac.pairs:
                prod *= p**e
            assert prod == n == fac.value
            assert all(e >= 1 for _, e in fac.pairs)
            assert list(fac.pairs) == sorted(fac.pairs)

    def test_coverage_error(self):
        tiny = build_sieve(10)
        with pytest.raises(CoverageError):
            factorize(10007 * 10009, None, tiny)
        with pytest.raises(CoverageError):
            factorize(97, None, None)

    def test_zero_rejected(self):
        with pytest.raises(ArgumentError):
            factorize(0)


class TestFloorRoot:
    @staticmethod
    def check(t, e, c=1):
        n = floor_root(t, e, c)
        assert n >= 0 and c * (n + 1) ** e > t
        assert c * n**e <= t or (n == 0 and t < c)
        return n

    def test_boundaries(self):
        # perfect powers and their neighbours
        for e in range(1, 8):
            for a in range(1, 60):
                assert self.check(a**e, e) == a
                assert self.check(a**e - 1, e) == a - 1
                assert self.check(a**e + 1, e) == (a + 1 if e == 1 else a)
                assert self.check(3 * a**e, e, 3) == a
                assert self.check(3 * a**e - 1, e, 3) == a - 1
        # r^den == n^num: with r = a^num the root of r^den at num is a^den;
        # with x = 2 b^den, x^num == 2^num (b^num)^den
        for num, den in ((1, 2), (2, 3), (3, 4), (2, 5), (7, 16), (13, 32)):
            for a in (2, 3, 5, 7):
                r = a**num
                assert self.check(r**den, num) == a**den
                assert self.check(r**den - 1, num) == a**den - 1
                x = 2 * a**den
                assert self.check(x**num, den, 2**num) == a**num
                assert self.check(x**num - 1, den, 2**num) == a**num - 1
        # x = 2^k +- 1, with the scale factors the callers use
        for k in range(1, 200):
            for d in (-1, 0, 1):
                for e in (1, 2, 3, 4, 7, 12):
                    for c in (1, 2, 2**5, 3):
                        self.check(2**k + d, e, c)
        # past the float range the start is scaled by a power of two
        assert self.check(10**400, 1) == 10**400
        assert self.check(10**4000, 2) == 10**2000
        assert floor_root(-5, 3) == floor_root(0, 3) == floor_root(1, 3, 2) == 0

    @pytest.mark.parametrize("e, c", [(0, 1), (-1, 1), (2, 0), (2, -3)])
    def test_rejects_exponent_or_coefficient_below_one(self, e, c):
        with pytest.raises(ArgumentError):
            floor_root(100, e, c)

    @given(st.integers(0, 2**2000), st.integers(1, 40), st.integers(1, 2**80))
    @settings(deadline=None, max_examples=300)
    def test_random(self, t, e, c):
        self.check(t, e, c)


class TestDerivedArithmetic:
    def test_gpf_examples(self, spf):
        assert greatest_prime_factor(1) == 1
        assert greatest_prime_factor(12, spf) == 3
        assert greatest_prime_factor(100, spf) == 5

    def test_gpf_matches_factorization(self, spf, cache):
        for n in range(1, 2000):
            g = greatest_prime_factor(n, spf, cache)
            assert g == gpf_trial(n)
            assert (g == 1) == (n == 1)

    def test_mobius_omega_examples(self, spf):
        assert mobius(1, spf) == 1 and omega(1, spf) == 0
        assert mobius(30, spf) == -1 and omega(30, spf) == 3
        assert mobius(12, spf) == 0 and omega(12, spf) == 2

    def test_gpf_zero(self):
        with pytest.raises(ArgumentError):
            greatest_prime_factor(0)


class TestRecipSums:
    def test_examples(self, cache):
        assert recip_prime_sum_ap(cache, 50, 3, 1) == pytest.approx(0.354953, abs=1e-6)
        assert recip_prime_sum_ap(cache, 4, 5, 4) == 0.0
        assert recip_prime_sum_ap(cache, 10, 2, 1) == pytest.approx(1 / 3 + 1 / 5 + 1 / 7, abs=1e-6)

    def test_monotone_in_x(self, cache):
        vals = [recip_prime_sum_ap(cache, x, 3, 1) for x in range(5, 500, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_range_error(self, cache):
        with pytest.raises(RangeError):
            recip_prime_sum_ap(cache, cache.limit + 1, 3, 1)


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
        c = build_sieve(100)
        path = tmp_path / "sieve.spl"
        save_sieve(c, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SPL1"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 100
        assert len(raw) == 16 + 8 * len(c.words)

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

    def test_ensure_sieve_reuses_and_grows(self, tmp_path):
        first = ensure_sieve(1000, tmp_path)
        assert (tmp_path / "sieve.spl").exists()
        again = ensure_sieve(500, tmp_path)
        assert again.limit == first.limit  # reused, not rebuilt smaller
        bigger = ensure_sieve(5000, tmp_path)
        assert bigger.limit == 5000
        assert load_sieve(tmp_path / "sieve.spl").limit == 5000

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
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = tmp_path / "sieve.spl"
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(n), str(path)], env=env)
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
