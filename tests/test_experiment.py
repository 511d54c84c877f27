import math
from fractions import Fraction

import pytest

from beattylab import (CertifiedReal, ExperimentConfig, IntervalSet,
                       ParameterError, beatty_prime_pairs, exceptional_fraction,
                       integral_by_intervals, integral_enclosure, integral_exact,
                       integral_monte_carlo, j_interval, lower_bound_ratio,
                       sample_alphas, scan_alpha, scan_svg, sieve_primes)

F = Fraction
R = CertifiedReal.rational
ZERO = R(0)
SQRT2 = CertifiedReal.sqrt(2)


def cfg12(**kw):
    defaults = dict(c1=F(1), c2=F(2), beta=ZERO, x_grid=(100,), samples=100, seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ParameterError):
        cfg12(c1=F(0))
    with pytest.raises(ParameterError):
        cfg12(c1=F(3), c2=F(2))
    with pytest.raises(ParameterError):
        cfg12(x_grid=(100, 10))
    with pytest.raises(ParameterError):
        cfg12(samples=0)
    with pytest.raises(ParameterError):
        cfg12(delta=F(3, 2))


def test_integral_hand_fixture_x2():
    assert integral_exact(cfg12(), 2) == 1


def test_integral_degenerate_window():
    assert integral_exact(cfg12(c2=F(1)), 100) == 0


def test_integral_two_assembly_orders_agree():
    for x in (2, 30, 300):
        for beta in (ZERO, R(1, 2), R(-1, 3)):
            c = cfg12(beta=beta)
            assert integral_exact(c, x) == integral_by_intervals(c, x), (x, beta)
    narrow = ExperimentConfig(F(10, 7), F(29, 20), ZERO, (100,), 100, 0)
    assert integral_exact(narrow, 200) == integral_by_intervals(narrow, 200)


def test_integral_requires_rational_beta():
    with pytest.raises(ParameterError):
        integral_exact(cfg12(beta=SQRT2), 10)


def test_integral_window_fuzz():
    # random narrow/shifted windows stress the boundary-companion arithmetic
    import random
    rng = random.Random(60)
    for _ in range(50):
        c1 = F(rng.randint(1, 40), rng.randint(1, 12))
        c2 = c1 + F(rng.randint(1, 30), rng.randint(1, 20))
        beta = R(F(rng.randint(-8, 8), rng.randint(1, 6)))
        x = rng.randint(2, 120)
        cfg = ExperimentConfig(c1, c2, beta, (100,), 100, 0)
        assert integral_exact(cfg, x) == integral_by_intervals(cfg, x), \
            (c1, c2, beta, x)


def test_integral_enclosure_cf_beta():
    prefix = CertifiedReal.from_partial_quotients([0, 2, 2, 2, 2, 2, 2, 2])
    lo, hi = integral_enclosure(cfg12(beta=prefix), 50)
    assert lo <= hi
    # the bracket must contain the exact value at any rational inside beta's range
    blo, bhi = prefix.enclosure(16)
    mid = (blo + bhi) / 2
    assert lo <= integral_exact(cfg12(beta=R(mid)), 50) <= hi
    # rational beta degenerates to a point
    point = integral_enclosure(cfg12(), 50)
    assert point[0] == point[1] == integral_exact(cfg12(), 50)


def test_integral_enclosure_builds_one_table(sieve_calls):
    integral_enclosure(cfg12(beta=CertifiedReal.from_partial_quotients([0, 2, 2, 2])), 200)
    assert len(sieve_calls) == 1
    integral_enclosure(cfg12(beta=R(1, 3)), 200)
    assert len(sieve_calls) == 2
    # beta in [2/3, 3/4]: at x = 101 the companion 5/4*101 + 3/4 = 127 lies past 5/4*101 + 2/3
    lo, hi = integral_enclosure(cfg12(c2=F(5, 4), beta=CertifiedReal.from_partial_quotients(
        [0, 1, 2])), 101)
    assert sieve_calls[-1] == 127 and lo <= hi


def test_cf_beta_tables_for_monte_carlo_and_scan():
    beta = CertifiedReal.from_partial_quotients([0, 1] + [3] * 40)
    big = sieve_primes(2 * 600 + 2)
    c = cfg12(beta=beta, seed=5)
    assert integral_monte_carlo(c, 600) == integral_monte_carlo(c, 600, big)
    rows = scan_alpha(cfg12(beta=beta, samples=3, x_grid=(100, 600)), pins=("sqrt:2",))
    for r in rows:
        alpha = CertifiedReal.parse(r.alpha_spec)
        assert r.pair_count == beatty_prime_pairs(alpha, beta, r.x, big).count


def test_monte_carlo_deterministic_and_close():
    c = cfg12(samples=200, seed=31)
    a = integral_monte_carlo(c, 500)
    b = integral_monte_carlo(c, 500)
    assert a == b
    exact = float(integral_exact(c, 500))
    assert abs(a.mean - exact) <= 3 * a.stderr
    with pytest.raises(ParameterError):
        integral_monte_carlo(cfg12(samples=50), 100)


def test_sample_alphas_deterministic_in_range():
    c = cfg12(samples=64, seed=9)
    xs = sample_alphas(c)
    assert xs == sample_alphas(c)
    assert all(F(1) < a < F(2) for a in xs)
    assert len(set(xs)) == 64
    assert sample_alphas(cfg12(samples=64, seed=10)) != xs


def test_j_interval():
    I = IntervalSet.single(1, 2)
    assert j_interval(2, 3, ZERO, I) == IntervalSet.single(F(3, 2), 2)
    assert not j_interval(11, 2, ZERO, I)   # companion window below I
    assert not j_interval(2, 1, ZERO, I)    # q < 2 is never prime
    for p, q in ((3, 5), (7, 11), (13, 17)):
        assert j_interval(p, q, ZERO, I).measure() <= F(1, p)
    with pytest.raises(ParameterError):
        j_interval(4, 5, ZERO, I)
    with pytest.raises(ParameterError):
        j_interval(2, 3, SQRT2, I)


def test_integral_equals_step_function_sum(table_3k):
    # third assembly order: pistar(x; .) is a step function of alpha, so the
    # integral is sum over elementary cells of (count at midpoint) * length
    x = 50
    c = cfg12()
    breaks = {c.c1, c.c2}
    for p in table_3k.primes_upto(x).tolist():
        for q in table_3k.primes_upto(2 * p + 2).tolist():
            for v in (F(int(q), p), F(int(q) + 1, p)):
                if c.c1 < v < c.c2:
                    breaks.add(v)
    cuts = sorted(breaks)
    total = F(0)
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2
        count = beatty_prime_pairs(R(mid), ZERO, x, table_3k).count
        total += count * (hi - lo)
    assert total == integral_exact(c, x)


def test_integral_equals_j_interval_union(table_3k):
    # per-prime union of companion preimages reproduces the integral (x = 100)
    c = cfg12()
    total = F(0)
    I = IntervalSet.single(c.c1, c.c2)
    for p in table_3k.primes_upto(100).tolist():
        union = IntervalSet()
        for q in table_3k.primes_upto(2 * p + 1).tolist():
            union = union.union(j_interval(p, int(q), ZERO, I))
        total += union.measure()
    assert total == integral_exact(c, 100)


def test_lower_bound_ratio():
    rep = lower_bound_ratio(cfg12(), 1000)
    assert rep.ratio == pytest.approx(1.4031347426336, rel=1e-12)
    assert rep.ratio > 0
    assert rep.sum_inv_log_ratio > rep.ratio  # interior windows lose the 1/log(c1 p) edge
    with pytest.raises(ParameterError):
        lower_bound_ratio(cfg12(), 50)


def test_scan_pinned_delegates(table_3k):
    c = cfg12(samples=2, x_grid=(100, 1000))
    rows = scan_alpha(c, pins=("sqrt:2",))
    pinned = [r for r in rows if r.alpha_spec == "sqrt:2"]
    assert [r.pair_count for r in pinned] == [
        beatty_prime_pairs(SQRT2, ZERO, x, table_3k).count for x in (100, 1000)]
    for r in pinned:
        assert r.statistic == pytest.approx(r.pair_count * math.log(r.x) ** 2 / r.x)


def test_scan_threads_and_seed_determinism():
    c = cfg12(samples=6, x_grid=(50, 200))
    rows1 = scan_alpha(c, pins=("phi",), threads=1)
    rows4 = scan_alpha(c, pins=("phi",), threads=4)
    assert rows1 == rows4
    assert rows1 == scan_alpha(c, pins=("phi",), threads=2)


def test_pair_count_constant_between_breakpoints(table_3k):
    # pistar(x; alpha) is a step function of alpha: equal counts inside one cell
    x = 30
    breaks = set()
    for p in table_3k.primes_upto(x).tolist():
        for q in table_3k.primes_upto(2 * p + 2).tolist():
            for v in (F(int(q), p), F(int(q) + 1, p)):
                if F(1) <= v <= F(2):
                    breaks.add(v)
    bs = sorted(breaks)
    a, b = bs[3], bs[4]
    lo, hi = a + (b - a) / 3, a + 2 * (b - a) / 3
    c1 = beatty_prime_pairs(R(lo), ZERO, x, table_3k).count
    c2 = beatty_prime_pairs(R(hi), ZERO, x, table_3k).count
    assert c1 == c2


def test_exceptional_fraction_monotone():
    base = cfg12(samples=120, seed=4)
    reps = {d: exceptional_fraction(cfg12(samples=120, seed=4, delta=F(d, 10)), 500)
            for d in (2, 5, 8)}
    assert 0 <= reps[8].fraction <= reps[5].fraction <= reps[2].fraction <= 1
    assert reps[2].observed_max_statistic > 0
    for rep in reps.values():
        if rep.bound_shape is not None:
            assert 0 < rep.bound_shape < 1
    with pytest.raises(ParameterError):
        exceptional_fraction(base, 2)  # statistic needs x >= 3


def test_exceptional_fraction_zero_pairs_rare():
    # delta -> 1 means threshold 0: only alphas with no pairs at all qualify
    rep = exceptional_fraction(cfg12(samples=100, seed=8, delta=F(1)), 10 ** 4)
    assert rep.fraction == 0


def test_scan_svg():
    rows = scan_alpha(cfg12(samples=1, x_grid=(100, 1000)), pins=("sqrt:2",))
    svg = scan_svg(rows)
    assert svg.startswith("<svg ") or svg.startswith("<svg\n")
    assert 'version="1.1"' in svg
    assert svg.count("<polyline") == 2  # one pinned + one sampled
    assert "xlink" not in svg and "href" not in svg  # standalone, no assets
    with pytest.raises(ParameterError):
        scan_svg([])
