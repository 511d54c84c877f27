from fractions import Fraction

import pytest

from beattylab import (CertifiedReal, CongruenceQuery, GuardViolation,
                       ParameterError, count_direct, count_mobius,
                       deviation_report, main_term, mobius)

R = CertifiedReal.rational
SQRT2 = CertifiedReal.sqrt(2)
ZERO = R(0)


def test_d1_counts_everything():
    q = CongruenceQuery(SQRT2, ZERO, 100, 1)
    assert count_direct(q) == 100
    assert count_mobius(q) == 100


def test_rational_alpha_exact_case():
    # alpha = 1, beta = 0: counts n <= 9 with n^2 divisible by 3
    q = CongruenceQuery(R(1), ZERO, 9, 3)
    assert count_direct(q) == 3


def test_preregistered_oracle_counts():
    assert count_direct(CongruenceQuery(SQRT2, ZERO, 20, 2)) == 15
    assert count_direct(CongruenceQuery(SQRT2, ZERO, 1000, 6)) == 415
    assert count_direct(CongruenceQuery(SQRT2, ZERO, 1000, 30)) == 149


def test_mobius_decomposition_small_grid():
    alphas = (SQRT2, R(7, 5))
    betas = (ZERO, R(1, 2))
    for alpha in alphas:
        for beta in betas:
            for d in (6, 10, 15, 30):
                for x in (100, 1000):
                    q = CongruenceQuery(alpha, beta, x, d)
                    direct = count_direct(q)
                    assert count_mobius(q, variant="paper") == direct
                    assert count_mobius(q, variant="alternative") == direct


def test_mobius_fractional_path_agrees():
    q = CongruenceQuery(SQRT2, ZERO, 200, 6)
    assert count_mobius(q, via_fractional=True) == count_direct(q)
    qr = CongruenceQuery(R(7, 5), R(1, 2), 150, 10)
    assert count_mobius(qr, via_fractional=True) == count_direct(qr)


def test_counts_through_cf_enclosures():
    # a long-enough cf prefix certifies every floor the counts need
    cf = CertifiedReal.from_partial_quotients([1] + [2] * 40)
    q_cf = CongruenceQuery(cf, ZERO, 300, 6)
    q_exact = CongruenceQuery(SQRT2, ZERO, 300, 6)
    assert count_direct(q_cf) == count_direct(q_exact)
    assert count_mobius(q_cf) == count_direct(q_exact)


def test_count_monotone_in_x():
    prev = 0
    for x in (10, 50, 100, 400, 1000):
        c = count_direct(CongruenceQuery(SQRT2, ZERO, x, 6))
        assert c >= prev
        prev = c


def test_divisor_consistency():
    for d1, d2 in ((2, 3), (2, 15), (3, 10)):
        c12 = count_direct(CongruenceQuery(SQRT2, ZERO, 2000, d1 * d2))
        c1 = count_direct(CongruenceQuery(SQRT2, ZERO, 2000, d1))
        c2 = count_direct(CongruenceQuery(SQRT2, ZERO, 2000, d2))
        assert c12 <= min(c1, c2)


def test_query_validation():
    with pytest.raises(ParameterError):
        CongruenceQuery(SQRT2, ZERO, 100, 12)  # not square-free
    with pytest.raises(ParameterError):
        CongruenceQuery(SQRT2, ZERO, 0, 2)
    with pytest.raises(ParameterError):
        count_mobius(CongruenceQuery(SQRT2, ZERO, 10, 2), variant="bogus")


def test_main_term():
    assert main_term(1000, 1) == 1000
    assert main_term(10 ** 6, 6) == Fraction(10 ** 6, 6) * Fraction(3, 2) * Fraction(5, 3)
    assert main_term(10 ** 6, 6) == Fraction(1250000, 3)  # 416666 + 2/3
    assert main_term(600, 2) == 450
    with pytest.raises(ParameterError):
        main_term(100, 4)


def test_deviation_report_trivial_row():
    rows = deviation_report(SQRT2, ZERO, 1000, 1)
    assert len(rows) == 1
    assert rows[0].d == 1 and rows[0].abs_error == 0 and rows[0].normalized_error == 0


def test_deviation_report_columns():
    rows = deviation_report(SQRT2, ZERO, 2000, 10)
    ds = [r.d for r in rows]
    assert ds == [1, 2, 3, 5, 6, 7, 10]  # square-free only
    for r in rows:
        assert r.main == main_term(2000, r.d)
        assert r.abs_error == abs(r.count - r.main)
        assert r.normalized_error == r.abs_error * r.d / 2000
        direct = count_direct(CongruenceQuery(SQRT2, ZERO, 2000, r.d))
        assert r.count == direct


def test_deviation_report_makes_no_factorize_call(monkeypatch):
    import beattylab.primes
    expected = {}
    for x, d_max in ((1000, 1), (2000, 10), (10 ** 5, 100)):
        expected[x, d_max] = [
            (d, count_direct(CongruenceQuery(SQRT2, ZERO, x, d)), main_term(x, d))
            for d in range(1, d_max + 1) if mobius(d)]

    def no_factorize(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(beattylab.primes, "factorize", no_factorize)
    for (x, d_max), want in expected.items():
        rows = deviation_report(SQRT2, ZERO, x, d_max)
        assert [(r.d, r.count, r.main) for r in rows] == want


def test_deviation_report_guards():
    with pytest.raises(GuardViolation):
        deviation_report(SQRT2, ZERO, 100, 20_000)
    with pytest.raises(ParameterError):
        deviation_report(SQRT2, ZERO, 10, 20)


def test_normalized_error_decays_for_d2():
    # recorded trend, not a hard bound: error*d/x shrinks through the x ladder
    errs = []
    for x in (10 ** 3, 10 ** 4, 10 ** 5):
        q = CongruenceQuery(SQRT2, ZERO, x, 2)
        errs.append(abs(count_direct(q) - main_term(x, 2)) * 2 / x)
    assert errs[2] < errs[0]


# archived oracle run: golden-ratio deviation table at x = 1e6, d <= 50
PHI_DEV_1E6 = {
    1: 1000000, 2: 750001, 3: 555558, 5: 359998, 6: 416671, 7: 265307,
    10: 269998, 11: 173554, 13: 147928, 14: 198982, 15: 199994, 17: 114181,
    19: 102495, 21: 147397, 22: 130172, 23: 85066, 26: 110933, 29: 67778,
    30: 149993, 31: 63478, 33: 96425, 34: 85633, 35: 95505, 37: 53318,
    38: 76874, 39: 82186, 41: 48185, 42: 110559, 43: 45972, 46: 63801,
    47: 42095,
}


def test_phi_deviation_table_regression():
    rows = deviation_report(CertifiedReal.phi(), ZERO, 10 ** 6, 50)
    assert {r.d: r.count for r in rows} == PHI_DEV_1E6
    assert max(float(r.normalized_error) for r in rows) < 0.001
