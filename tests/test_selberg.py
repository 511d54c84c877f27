import math
from fractions import Fraction

import pytest

from beattylab import (CertifiedReal, GuardViolation, ParameterError, big_g,
                       eighth_root_ceil, normalizer, pair_bound_check,
                       product_lower, quadratic_form_value, selberg_upper_bound,
                       selberg_weights, sieve_context, sifted_count)
from beattylab.primes import factorize
from beattylab.selberg import density

R = CertifiedReal.rational
SQRT2 = CertifiedReal.sqrt(2)
ZERO = R(0)


def test_big_g_values():
    assert big_g(2) == 1
    assert big_g(3) == Fraction(7, 4)          # 1 + g(2), g(2) = 3/4
    assert big_g(4) == Fraction(83, 36)        # + g(3) = 5/9
    assert big_g(5) == Fraction(83, 36)        # 4 is not square-free


def test_product_lower_values():
    assert product_lower(3) == 4
    assert product_lower(4) == 9
    with pytest.raises(ParameterError):
        product_lower(2)


def test_product_lower_fixture():
    # recorded constant: prod (1-g(p))^-1 / (log z)^2 at z = 1e4
    # (Mertens-type heuristic predicts (e^gamma)^2 ~ 3.17)
    val = float(product_lower(10 ** 4)) / math.log(10 ** 4) ** 2
    assert 3.0 < val < 3.3


def test_density_complete_multiplicativity():
    def g_full(m):
        out = Fraction(1)
        for p, e in factorize(m):
            out *= density(p) ** e
        return out

    import random
    rng = random.Random(4)
    for _ in range(100):
        m, n = rng.randint(1, 1000), rng.randint(1, 1000)
        assert g_full(m * n) == g_full(m) * g_full(n)
    for p in (2, 3, 5, 97):
        assert 0 < density(p) < 1


def test_big_g_monotone_and_at_least_one():
    prev = None
    for z in range(2, 60):
        g = big_g(z)
        assert g >= 1
        if prev is not None:
            assert g >= prev
        prev = g
    # strict growth when z passes a prime (the new square-free m = p enters)
    for p in (2, 3, 5, 7, 11, 13):
        assert big_g(p + 1) > big_g(p)


def test_normalizer_dominates_big_g():
    for z in (3, 5, 10, 30, 100):
        assert normalizer(z) >= big_g(z)


def test_lambda_identities():
    for z in (3, 5, 10, 30):
        ctx = sieve_context(z)
        assert ctx.lambdas[1] == 1
        assert quadratic_form_value(ctx) == 1 / ctx.normalizer
    # z = 3 pins the 2x2 case: support {1, 2}, optimum lambda_2 = -1, value 1/4
    ctx3 = sieve_context(3)
    assert ctx3.lambdas == {1: Fraction(1), 2: Fraction(-1)}
    assert quadratic_form_value(ctx3) == Fraction(1, 4) == 1 / normalizer(3)
    # z = 5: support {1, 2, 3}, J = 1 + 3 + 5/4 = 21/4
    assert normalizer(5) == Fraction(21, 4)
    assert quadratic_form_value(sieve_context(5)) == Fraction(4, 21)


def test_lambda_bounded_exhaustive_z30():
    lams = selberg_weights(30)
    assert set(lams) == {d for d in range(1, 30)
                         if all(d % (p * p) for p in (2, 3, 5))}
    for lam in lams.values():
        assert abs(lam) <= 1


def test_guards():
    with pytest.raises(GuardViolation):
        big_g(100_001)
    with pytest.raises(GuardViolation):
        sieve_context(201)
    with pytest.raises(ParameterError):
        sieve_context(1)


def test_sifted_count_edges():
    assert sifted_count(SQRT2, ZERO, 100, 2) == 100  # empty sieve
    s7 = sifted_count(SQRT2, ZERO, 1000, 7)
    s11 = sifted_count(SQRT2, ZERO, 1000, 11)
    assert s11 <= s7
    with pytest.raises(ParameterError):
        sifted_count(SQRT2, ZERO, 10, 11)


def test_sifted_count_against_decimal_oracle():
    # independently derived with 50-digit decimal floors and gcd: 113
    from decimal import Decimal, getcontext
    getcontext().prec = 50
    dec = Decimal(2).sqrt()
    oracle = sum(1 for n in range(1, 1001)
                 if math.gcd(n * int(dec * n), 6) == 1)
    assert sifted_count(SQRT2, ZERO, 1000, 5) == oracle == 113


def test_upper_bound_archived_values():
    # archived full exact runs at x = 1e5 (alpha = sqrt2)
    sb5 = selberg_upper_bound(SQRT2, ZERO, 10 ** 5, 5)
    assert sb5.sifted == 11112
    assert sb5.quadratic_form_bound == Fraction(8400526, 441)
    sb50 = selberg_upper_bound(SQRT2, ZERO, 10 ** 5, 50)
    assert sb50.sifted == 1852
    # tighter relative quality at larger z: Q * big_g(z) / x shrinks
    q5 = sb5.quadratic_form_bound * big_g(5) / 10 ** 5
    q50 = sb50.quadratic_form_bound * big_g(50) / 10 ** 5
    assert q50 < q5


def test_upper_bound_z2_is_x():
    sb = selberg_upper_bound(SQRT2, ZERO, 500, 2)
    assert sb.quadratic_form_bound == 500
    assert sb.expanded_bound == 500
    assert sb.sifted == 500


def test_upper_bound_consistency():
    for z in (5, 20):
        sb = selberg_upper_bound(SQRT2, ZERO, 2000, z)
        assert sb.sifted == sifted_count(SQRT2, ZERO, 2000, z)
        assert sb.expanded_bound == sb.quadratic_form_bound
        assert Fraction(sb.sifted) <= sb.quadratic_form_bound
        assert sb.main_term + sb.remainder_total == sb.expanded_bound
        assert sb.main_term == 2000 / sb.normalizer


def test_upper_bound_internal_identities_under_fuzz():
    # the function itself asserts the quadratic-form and accounting
    # identities; odd rational alphas and betas must not disturb them
    for alpha, beta in ((R(22, 7), R(1, 3)), (R(7, 5), R(-2, 5)),
                        (CertifiedReal.sqrt(3), R(1, 2))):
        for z in (7, 13):
            sb = selberg_upper_bound(alpha, beta, 500, z)
            assert Fraction(sb.sifted) <= sb.quadratic_form_bound


def test_upper_bound_nonzero_beta():
    beta = R(1, 2)
    sb = selberg_upper_bound(SQRT2, beta, 3000, 11)
    assert sb.sifted == sifted_count(SQRT2, beta, 3000, 11)
    assert Fraction(sb.sifted) <= sb.quadratic_form_bound
    rep = pair_bound_check(SQRT2, beta, 5000)
    assert rep.containment_ok
    assert rep.pair_count <= rep.sifted + rep.pairs_below_threshold


def test_eighth_root_ceil():
    assert eighth_root_ceil(10 ** 4) == 4
    assert eighth_root_ceil(10 ** 5) == 5
    assert eighth_root_ceil(256) == 2
    assert eighth_root_ceil(257) == 3
    assert eighth_root_ceil(1) == 1


def test_eighth_root_ceil_exact():
    brute, z = [], 1
    for x in range(1, 10 ** 4 + 1):
        while z ** 8 < x:
            z += 1
        brute.append(z)
    assert [eighth_root_ceil(x) for x in range(1, 10 ** 4 + 1)] == brute
    import random
    rng = random.Random(8)
    zs = list(range(2, 300)) + [10 ** k for k in range(3, 41)] + \
        [rng.randrange(2, 10 ** 40) for _ in range(200)]
    for z in zs:
        assert eighth_root_ceil(z ** 8 - 1) == z
        assert eighth_root_ceil(z ** 8) == z
        assert eighth_root_ceil(z ** 8 + 1) == z + 1
    # past the float range, and where a float start was off by millions
    for x in (10 ** 138, 10 ** 200, 10 ** 400):
        z = eighth_root_ceil(x)
        assert (z - 1) ** 8 < x <= z ** 8


def test_pair_bound_check():
    rep = pair_bound_check(SQRT2, ZERO, 10_000, z=10)
    assert rep.containment_ok
    assert rep.pair_count <= rep.sifted + rep.pairs_below_threshold
    assert rep.quadratic_form_bound is not None
    assert Fraction(rep.sifted) <= rep.quadratic_form_bound
    assert rep.pair_statistic <= rep.bound_statistic
    # default z is the rounded-up eighth root
    rep2 = pair_bound_check(SQRT2, ZERO, 10_000)
    assert rep2.z == 4 and rep2.containment_ok


def test_pair_bound_check_needs_x_3():
    # the table of limit 2 works; the statistic needs x >= 3
    with pytest.raises(ParameterError, match="x >= 3"):
        pair_bound_check(SQRT2, ZERO, 2)
