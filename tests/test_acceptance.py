"""Acceptance suite: one test per criterion, one PASS/FAIL line each (-s).

Large-x expected values were pre-registered with the standalone decimal /
trial-division oracles in oracles.py before the library was built; the
oracles are also re-run live here where the runtime budget allows.

Two drafted expectations turn out to be mathematically false as stated
and are pinned as strict xfails with the measured values printed, instead
of being silently weakened: the 0.5 growth floor applied to the display
sum big_g (it belongs to the weight normalizer, whose ratio does stay
above 0.5), and a monotone-increase clause for the normalized integral
(which approaches 1 from above). The attainable substance of both
criteria is asserted in the main tests alongside.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from beattylab import (CertifiedReal, CongruenceQuery, ExperimentConfig,
                       IntervalSet, beatty_prime_pairs, count_direct,
                       count_mobius, deviation_report, eighth_root_ceil,
                       integral_exact, integral_monte_carlo, lemma1_set,
                       lower_bound_ratio, normalized_statistic, normalizer,
                       product_lower, sandwich_check, scaling_preimage_bound,
                       selberg_upper_bound, sifted_count)
from oracles import SQRT2 as DEC_SQRT2
from oracles import decimal_beatty_pairs

F = Fraction
R = CertifiedReal.rational
ZERO = R(0)
HALF = R(1, 2)
SQRT2 = CertifiedReal.sqrt(2)
SQRT3 = CertifiedReal.sqrt(3)
PHI = CertifiedReal.phi()

# pre-registered brute-force oracle values (50-digit decimal + trial division)
PAIR_COUNT_SQRT2_1E4 = 161
PAIR_COUNT_SQRT2_1E6 = 6047


def _report(k, ok, detail, t0=None):
    took = f" [{time.time() - t0:.1f}s]" if t0 is not None else ""
    print(f"\nACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}{took}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_mobius_decomposition_exact():
    t0 = time.time()
    squarefree = [d for d in range(1, 31)
                  if all(d % (p * p) for p in (2, 3, 5))]
    checked = 0
    for alpha in (SQRT2, SQRT3, PHI, R(7, 5)):
        for beta in (ZERO, HALF):
            for x in (10 ** 2, 10 ** 3, 10 ** 4):
                for d in squarefree:
                    q = CongruenceQuery(alpha, beta, x, d)
                    direct = count_direct(q)
                    assert count_mobius(q, variant="paper") == direct, (d, x)
                    assert count_mobius(q, variant="alternative") == direct, (d, x)
                    checked += 1
    _report(1, True, f"count_mobius == count_direct exactly on {checked} "
                     f"queries (both index spellings)", t0)


def test_criterion_02_main_term_envelope_and_decay():
    t0 = time.time()
    worst = {}
    for x in (10 ** 4, 10 ** 6):
        rows = deviation_report(SQRT2, ZERO, x, 50)
        worst[x] = max(float(r.normalized_error) for r in rows)
    ok_envelope = all(float(r.normalized_error) <= 0.05
                      for r in deviation_report(SQRT2, ZERO, 10 ** 6, 50))
    ok_decay = worst[10 ** 6] < worst[10 ** 4]
    _report(2, ok_envelope and ok_decay,
            f"normalized error at x=1e6 <= 0.05 (max {worst[10**6]:.6f}); "
            f"decay vs x=1e4 (max {worst[10**4]:.6f})", t0)


def test_criterion_03_selberg_inequality_and_identity():
    t0 = time.time()
    runs = 0
    for alpha in (SQRT2, PHI):
        for x in (10 ** 4, 10 ** 5):
            for z in (eighth_root_ceil(x), 20, 50):
                sb = selberg_upper_bound(alpha, ZERO, x, z)
                assert F(sb.sifted) <= sb.quadratic_form_bound, (x, z)
                assert sb.expanded_bound == sb.quadratic_form_bound, (x, z)
                assert sb.sifted == sifted_count(alpha, ZERO, x, z), (x, z)
                runs += 1
    _report(3, True, f"sifted <= Q and pointwise == expanded (rational-exact) "
                     f"on {runs} (alpha, x, z) runs", t0)


def test_criterion_04_normalizer_growth(criterion_4_big_g):
    t0 = time.time()
    zs = (10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)
    jr, gr, cr = {}, {}, {}
    for z in zs:
        l2 = math.log(z) ** 2
        jr[z] = float(normalizer(z)) / l2
        gr[z] = float(criterion_4_big_g[z]) / l2
        cr[z] = float(criterion_4_big_g[z] / product_lower(z))
    ok = all(jr[z] >= 0.5 for z in zs)
    ok = ok and all(0.02 < cr[z] < 0.6 for z in zs)  # recorded comparison band
    detail = ("normalizer/(log z)^2 = "
              + ", ".join(f"{jr[z]:.3f}@{z}" for z in zs)
              + " all >= 0.5; recorded display-sum big_g ratios: "
              + ", ".join(f"{gr[z]:.3f}" for z in zs)
              + "; big_g/product_lower: "
              + ", ".join(f"{cr[z]:.4f}" for z in zs))
    _report(4, ok, detail, t0)


@pytest.mark.xfail(strict=True,
                   reason="the display sum big_g(z) = sum g(m) has "
                          "big_g/(log z)^2 ~ 0.35..0.19 for z >= 1e2; the 0.5 "
                          "floor is the sharp asymptotic constant of the "
                          "Lambda^2 normalizer sum h(m), not of big_g")
def test_criterion_04_display_sum_floor_fails(criterion_4_big_g):
    ratios = {z: float(criterion_4_big_g[z]) / math.log(z) ** 2
              for z in (10, 10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5)}
    print(f"\nACCEPTANCE 4 (display-sum clause): big_g ratios {ratios}")
    assert all(v >= 0.5 for v in ratios.values())


def test_criterion_05_integral_identity_and_monte_carlo():
    t0 = time.time()
    cfg = ExperimentConfig(F(1), F(2), ZERO, (10 ** 3,), 10 ** 4, 0)
    assert integral_exact(cfg, 2) == 1, "hand-derived x=2 fixture"
    exact = float(integral_exact(cfg, 10 ** 3))
    hits = 0
    for seed in range(20):
        c = ExperimentConfig(F(1), F(2), ZERO, (10 ** 3,), 10 ** 4, seed)
        mc = integral_monte_carlo(c, 10 ** 3)
        if abs(mc.mean - exact) <= 3 * mc.stderr:
            hits += 1
    _report(5, hits >= 19,
            f"integral(x=2) == 1 exactly; MC within 3*stderr in {hits}/20 "
            f"seeded repetitions (exact(1e3) = {exact:.6f})", t0)


def test_criterion_06_lower_bound_level_and_convergence():
    t0 = time.time()
    cfg = ExperimentConfig(F(1), F(2), ZERO, (10 ** 3,), 100, 0)
    r3 = lower_bound_ratio(cfg, 10 ** 3).ratio
    r4 = lower_bound_ratio(cfg, 10 ** 4).ratio
    r5 = lower_bound_ratio(cfg, 10 ** 5).ratio
    ok_level = r5 >= 0.9
    ok_convergence = abs(r5 - 1) < abs(r3 - 1)
    _report(6, ok_level and ok_convergence,
            f"ratio(1e5) = {r5:.4f} >= 0.9; |ratio-1| shrinks along "
            f"{r3:.4f} -> {r4:.4f} -> {r5:.4f} (the approach to 1 is from "
            f"above, so a monotone-increase reading of the trend inverts)", t0)


@pytest.mark.xfail(strict=True,
                   reason="the exact ratio decreases toward 1 from above "
                          "(1.4031@1e3 > 1.2693@1e4 > 1.1961@1e5), so "
                          "ratio(1e5) > ratio(1e3) is mathematically false")
def test_criterion_06_literal_trend_clause():
    cfg = ExperimentConfig(F(1), F(2), ZERO, (10 ** 3,), 100, 0)
    r3 = lower_bound_ratio(cfg, 10 ** 3).ratio
    r5 = lower_bound_ratio(cfg, 10 ** 5).ratio
    print(f"\nACCEPTANCE 6 (literal trend clause): ratio(1e3)={r3:.6f} "
          f"ratio(1e5)={r5:.6f}")
    assert r5 > r3


def test_criterion_07_statistic_matches_preregistered_oracle(table_1m5):
    t0 = time.time()
    x = 10 ** 6
    pc = beatty_prime_pairs(SQRT2, ZERO, x, table_1m5)
    stat = normalized_statistic(pc.count, x)
    live = len(decimal_beatty_pairs(DEC_SQRT2, x))
    ok = (pc.count == PAIR_COUNT_SQRT2_1E6 == live) and 0.5 <= stat <= 3.0
    # the smaller pre-registered point, also exact
    pc4 = beatty_prime_pairs(SQRT2, ZERO, 10 ** 4, table_1m5)
    ok = ok and pc4.count == PAIR_COUNT_SQRT2_1E4
    _report(7, ok,
            f"pi*(1e6) = {pc.count} == pre-registered {PAIR_COUNT_SQRT2_1E6} "
            f"== live decimal oracle {live}; statistic {stat:.4f} in [0.5, 3]; "
            f"pi*(1e4) = {pc4.count}", t0)


def test_criterion_08_scaling_preimage_bounds():
    t0 = time.time()
    import random
    rng = random.Random(20260808)
    for trial in range(100):
        den = rng.randint(2, 30)
        a = rng.randint(0, den - 1)
        b_num = rng.randint(a + 1, den)
        I = IntervalSet.single(F(a, den), F(b_num, den))
        b = F(rng.randint(1, 60), rng.randint(1, 12))
        l = F(rng.randint(1, 60), rng.randint(1, 12))
        J = lemma1_set(I, b, l)
        bound = scaling_preimage_bound(I, b, l)
        assert J.measure() <= bound, (trial, I, b, l)
    _report(8, True, "measure(preimage) obeys the two-case explicit bound "
                     "exactly on 100 seeded rational triples", t0)


def test_criterion_09_equidistribution_sandwich():
    t0 = time.time()
    results = []
    for alpha, a, q in ((SQRT2, 17, 12), (PHI, 13, 8)):
        for width in (F(1, 5), F(1, 7)):
            rep = sandwich_check(alpha, ZERO, 10 ** 3, width, a, q)
            results.append(rep.ok)
            assert rep.lower <= rep.middle <= rep.upper
    _report(9, all(results),
            "sandwich inequalities hold exactly for sqrt2@17/12 and "
            "phi@13/8, widths 1/5 and 1/7, y=1e3", t0)


def test_criterion_10_scan_determinism():
    t0 = time.time()
    base = [sys.executable, "-m", "beattylab.cli", "scan", "--c1", "1",
            "--c2", "2", "--beta", "rat:0/1", "--x-grid", "1000:5000",
            "--samples", "10", "--seed", "123", "--pin", "sqrt:2"]
    outs = []
    for threads in ("1", "4", "1"):
        proc = subprocess.run(base + ["--threads", threads],
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    ok = outs[0] == outs[1] == outs[2]
    _report(10, ok, "scan CSV bodies byte-identical across reruns and "
                    "--threads {1, 4}", t0)


def test_extra_fixture_scan_median_at_1e6():
    # regression pin for the sampled-alpha scan distribution at x = 1e6
    import statistics
    cfg = ExperimentConfig(F(1), F(2), ZERO, (10 ** 6,), 100, 0)
    from beattylab import scan_alpha
    rows = scan_alpha(cfg)
    stats = [r.statistic for r in rows]
    med = statistics.median(stats)
    assert all(s > 0 for s in stats)
    assert med == pytest.approx(1.151795, abs=2e-6)


def test_extra_fixture_integral_1e3_archived():
    # archived exact rational at x = 1e3, I = (1,2), beta = 0, and the
    # interval-union assembly of the same sum
    from beattylab import integral_by_intervals
    cfg = ExperimentConfig(F(1), F(2), ZERO, (10 ** 3,), 100, 0)
    v = integral_exact(cfg, 10 ** 3)
    assert float(v) == pytest.approx(29.405291660453145, rel=1e-14)
    assert v == integral_by_intervals(cfg, 10 ** 3)


def test_extra_pair_bound_ratio_table(table_1m5):
    # archived containment/ratio ladder for alpha = sqrt2
    from beattylab import pair_bound_check
    rows = {}
    for x in (10 ** 4, 10 ** 5, 10 ** 6):
        rep = pair_bound_check(SQRT2, ZERO, x)
        assert rep.containment_ok
        assert rep.pair_count <= rep.sifted + rep.pairs_below_threshold
        rows[x] = (rep.z, rep.pair_count, rep.sifted, rep.pair_statistic,
                   rep.bound_statistic)
    assert [rows[x][0] for x in sorted(rows)] == [4, 5, 6]
    assert rows[10 ** 6][1] == PAIR_COUNT_SQRT2_1E6
    for x, (z, pairs, sifted, stat, bstat) in rows.items():
        assert stat <= bstat, (x, stat, bstat)
    print("\npair-bound ratio table (x: z, pi*, sifted, stat, bound stat):",
          {x: (v[0], v[1], v[2], round(v[3], 4), round(v[4], 4))
           for x, v in rows.items()})
