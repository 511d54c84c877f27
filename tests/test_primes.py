import math
import random

import numpy as np
import pytest
import sympy

from beattylab import (ParameterError, factorize, is_prime, mobius, omega,
                       sieve_primes, squarefree_divisors)
from beattylab.primes import spf_table
from oracles import trial_factorize, trial_is_prime


def test_small_sieve_exhaustive():
    assert sieve_primes(10).primes().tolist() == [2, 3, 5, 7]
    assert sieve_primes(2).primes().tolist() == [2]


def test_prime_counts():
    assert sieve_primes(100).count() == 25
    assert sieve_primes(10 ** 6).count() == 78498


def test_sieve_matches_trial_division():
    t = sieve_primes(20_000)
    for n in range(20_000 + 1):
        assert t.is_prime(n) == trial_is_prime(n), n


def test_segmented_equals_single_block():
    limit = 10 ** 6
    seg = sieve_primes(limit, segment_size=1 << 12)
    block = sieve_primes(limit, segment_size=limit)
    assert np.array_equal(seg.primes(), block.primes())
    assert bytes(seg._bits) == bytes(block._bits)


def test_membership_array(table_3k):
    vals = np.array([1, 2, 3, 4, 997, 999, 2999], dtype=np.int64)
    got = table_3k.membership_array(vals).tolist()
    assert got == [False, True, True, False, True, False, True]
    # every value up to the limit, negatives and 0..2 included (floors can be negative)
    vals = np.arange(-7, 3001, dtype=np.int64)
    assert table_3k.membership_array(vals).tolist() == \
        [trial_is_prime(n) for n in range(-7, 3001)]


def test_count_upto(table_3k):
    assert table_3k.count(100) == 25
    assert table_3k.count(2) == 1
    with pytest.raises(ParameterError):
        table_3k.count(10 ** 7)


def test_sieve_guards():
    with pytest.raises(ParameterError):
        sieve_primes(1)
    with pytest.raises(ParameterError):
        sieve_primes(2 ** 40 + 1)


def test_is_prime_small_agrees_with_trial():
    for n in range(2_000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_against_sympy_random():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 1 << 62)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_known_values():
    assert is_prime(2)
    assert not is_prime(1)
    assert is_prime(2 ** 61 - 1)
    assert sympy.isprime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    with pytest.raises(ParameterError):
        is_prime(-1)
    with pytest.raises(ParameterError):
        is_prime(1 << 64)


def test_mobius_values():
    assert mobius(1) == 1 and omega(1) == 0
    assert mobius(6) == 1 and omega(6) == 2
    assert mobius(2) == -1
    assert mobius(4) == 0
    assert mobius(30) == -1


def test_mobius_fundamental_identity():
    # sum over divisors of mu(d) vanishes except at n = 1
    for n in range(1, 10_001):
        total = 0
        d = 1
        while d * d <= n:
            if n % d == 0:
                total += mobius(d)
                if d != n // d:
                    total += mobius(n // d)
            d += 1
        assert total == (1 if n == 1 else 0), n


def test_squarefree_divisors():
    assert squarefree_divisors(30) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert squarefree_divisors(1) == [1]
    with pytest.raises(ParameterError):
        squarefree_divisors(12)


def test_factorize():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(2 ** 61 - 1) == [(2 ** 61 - 1, 1)]
    # composite with both factors beyond the trial-division table
    with pytest.raises(ParameterError):
        factorize((2 ** 31 - 1) ** 2)


def test_spf_table_matches_trial_division():
    for limit in (0, 1, 2, 3, 4, 25, 2_000):
        spf = spf_table(limit).tolist()
        assert spf[:2] == [0, 1][: limit + 1]
        assert spf[2:] == [trial_factorize(n)[0][0] for n in range(2, limit + 1)]


def test_factorization_state_independent():
    # a large factorization must leave nothing behind that changes later results
    def check_small_range():
        for n in range(1, 2_001):
            fac = trial_factorize(n)
            assert factorize(n) == fac, n
            squarefree = all(e == 1 for _, e in fac)
            assert mobius(n) == ((-1) ** len(fac) if squarefree else 0), n
            if squarefree:
                small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
                assert squarefree_divisors(n) == sorted({*small, *(n // d for d in small)}), n
            else:
                with pytest.raises(ParameterError):
                    squarefree_divisors(n)

    check_small_range()
    assert sympy.isprime(10 ** 14 + 31) and factorize(10 ** 14 + 31) == [(10 ** 14 + 31, 1)]
    check_small_range()
    assert factorize(999983 * 1000003) == [(999983, 1), (1000003, 1)]
    check_small_range()
    with pytest.raises(ParameterError):
        factorize((2 ** 31 - 1) ** 2)


def test_prime_table_concurrent_readers(table_3k):
    from concurrent.futures import ThreadPoolExecutor
    vals = np.arange(0, 3000, dtype=np.int64)
    expected = table_3k.membership_array(vals).tolist()

    def probe(_):
        return (table_3k.membership_array(vals).tolist(), table_3k.count(1000))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    assert all(r == (expected, 168) for r in results)
