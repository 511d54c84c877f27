"""Differential tests: the int64 floor kernel and the counts built on it
against exact scalar routes, on inputs chosen to sit near floor boundaries.

Hard lanes come from the convergent denominators q_k of alpha (alpha*q_k is
within 1/q_{k+1} of an integer) and their small multiples, with beta at, or
2^-128 beside, a rational of denominator <= 12. Every draw is seeded.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from beattylab import (CertifiedReal, CongruenceQuery, ExperimentConfig, GuardViolation,
                       ParameterError, continued_fraction, count_direct, deviation_report,
                       fractional_hits, integral_monte_carlo, sample_alphas,
                       selberg_upper_bound, sieve_primes, sifted_count)
from beattylab import congruence
from beattylab.certified import _HEADROOM, _MIN_SHIFT, _AffineEval
from beattylab.congruence import MASK_PRIME_LIMIT, divisibility_masks, masked_count
from beattylab.diophantine import _rational_hits

R = CertifiedReal.rational
TINY = Fraction(1, 1 << 128)
SQFREE = [k for k in range(2, 60) if all(k % (d * d) for d in range(2, 8))]
KINDS = ("rational", "dyadic", "quadratic", "twosqrt", "cf")
NMAX = 1 << 24  # keeps the kernel's bracket narrow: most lanes certify in int64


def near_rational(rng) -> Fraction:
    """A rational of denominator <= 12 in (-2, 2), or 2^-128 beside one."""
    d = rng.randint(1, 12)
    return Fraction(rng.randint(-2 * d, 2 * d), d) + rng.choice((0, 0, TINY, -TINY))


def quadratic(rng, k=None) -> CertifiedReal:
    k = k or rng.choice(SQFREE)
    mul = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
    return CertifiedReal.sqrt(k, mul, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))


def generators(kind: str, rng) -> tuple[CertifiedReal, CertifiedReal]:
    beta = R(near_rational(rng))
    if kind == "rational":
        alpha = R(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
    elif kind == "dyadic":
        alpha = R(Fraction(rng.randrange(1 << 127, 3 << 128) | 1, 1 << 128))
    elif kind == "quadratic":
        alpha = quadratic(rng)
        if rng.random() < 0.5:
            beta = quadratic(rng, alpha._k)
    elif kind == "twosqrt":
        alpha = quadratic(rng)
        beta = quadratic(rng, rng.choice([k for k in SQFREE if k != alpha._k]))
    else:  # a prefix long enough to certify every lane below NMAX
        qs = [rng.randint(0, 3)] + [rng.randint(1, 9) for _ in range(150)]
        alpha = CertifiedReal.from_partial_quotients(qs)
    return alpha, beta


def hard_ns(alpha: CertifiedReal, rng, count: int = 120) -> np.ndarray:
    """Convergent denominators of |alpha| below NMAX, small multiples, neighbours,
    and a few uniform draws."""
    # |alpha| to 128 bits has the convergents of |alpha| far past NMAX
    approx = abs(alpha.enclosure(128)[0]) or Fraction(1)
    qks = [k for _, k in continued_fraction(R(approx), 60).convergents if k < NMAX // 8]
    ns = {m * q + e for q in qks for m in range(1, 6) for e in (-1, 0, 1)}
    ns.update(rng.randrange(1, NMAX) for _ in range(count // 4))
    ns = sorted(n for n in ns if n >= 1)
    return np.array(rng.sample(ns, min(count, len(ns))), dtype=np.int64)


def scalar_floors(ev, ns):
    return [ev.floor(n) for n in ns.tolist()]


@pytest.mark.parametrize("kind", KINDS)
def test_floor_array_matches_scalar_floor(kind):
    rng = random.Random(f"floor:{kind}")
    for trial in range(25):
        alpha, beta = generators(kind, rng)
        ev = _AffineEval(alpha, beta, scale=rng.choice((1, 1, 2, 3)))
        ns = hard_ns(alpha, rng)
        if trial % 5 == 0:  # negative lanes: the bracket ends swap
            ns = np.concatenate([ns, -ns[: len(ns) // 2], np.array([0], dtype=np.int64)])
        got = ev.floor_array(ns)
        assert got.dtype == np.int64
        assert got.tolist() == scalar_floors(ev, ns), (kind, trial, alpha, beta)
        for n, f in zip(ns.tolist()[:8], got.tolist()[:8]):
            # the floor certificate, by exact sign tests
            assert ev.compare(n, Fraction(f)) >= 0 and ev.compare(n, Fraction(f + 1)) < 0


@pytest.mark.parametrize("alpha", [
    CertifiedReal.sqrt(2),
    R(Fraction(0xB504F333F9DE6484597D89B3754ABE9F, 1 << 127)),  # sqrt 2 to 128 bits
    CertifiedReal.parse("cf:1," + ",".join(["2"] * 120)),
])
def test_negative_lanes_pair_bracket_ends(alpha):
    # beta = alpha - 2^-100, so at n = -1 the value is -2^-100 with floor -1:
    # only a bracket that pairs the low end of alpha*n with the low end of
    # beta (they swap for n < 0) sees that
    ev = _AffineEval(alpha, alpha, shift=-Fraction(1, 1 << 100))
    ns = np.array([-1, -2, 1, 2, 3], dtype=np.int64)
    got = ev.floor_array(ns).tolist()
    assert got == scalar_floors(ev, ns) and got[0] == -1


@pytest.mark.parametrize("kind", KINDS)
def test_kernel_bracket_rounds_outward(kind):
    rng = random.Random(f"bracket:{kind}")
    for _ in range(40):
        alpha, beta = generators(kind, rng)
        ev = _AffineEval(alpha, beta, scale=rng.choice((1, 2, 5)))
        nmax = rng.choice((1, 1000, NMAX, 1 << 40))
        bracket = ev._int_bracket(nmax)
        if bracket is None:
            continue
        alo, ahi, blo, bhi, D = bracket
        a_lo, a_hi, b_lo, b_hi = ev._bounds(128)
        assert Fraction(alo, D) <= a_lo <= a_hi <= Fraction(ahi, D)
        assert Fraction(blo, D) <= b_lo <= b_hi <= Fraction(bhi, D)


def test_kernel_headroom_invariant():
    # at every size the shift keeps every lane inside int64, and the kernel
    # gives way to scalar floors only where fewer than _MIN_SHIFT bits fit
    ev = _AffineEval(CertifiedReal.sqrt(2), R(Fraction(5, 7)))
    for e in range(0, 63):
        nmax = (1 << e) - 1
        bracket = ev._int_bracket(nmax)
        if bracket is None:
            assert nmax > 1 << 40
            continue
        alo, ahi, blo, bhi, D = bracket
        assert D >= 1 << _MIN_SHIFT
        assert max(-alo, ahi) * nmax + max(-blo, bhi) < _HEADROOM
    assert ev._int_bracket((1 << 62) - 1) is None


def test_kernel_edge_near_int64_limit():
    alpha = CertifiedReal.sqrt(2)
    ev = _AffineEval(alpha, R(0))
    # n near 2^62/alpha: floor(alpha*n) stays below 2^62, the kernel cannot fit
    top = int(Fraction(1 << 62) / alpha.enclosure(128)[1])
    ns = np.array([top, top - 1, top - 12345, 3, 1], dtype=np.int64)
    assert ev._int_bracket(top) is None
    assert ev.floor_array(ns).tolist() == scalar_floors(ev, ns)
    # the largest nmax that still keeps a 16-bit shift, with lanes at both ends
    nmax = max(n for n in (1 << e for e in range(63)) if ev._int_bracket(n) is not None)
    ns = np.array([nmax, nmax - 1, 1, 2, 99991], dtype=np.int64)
    assert ev.floor_array(ns).tolist() == scalar_floors(ev, ns)
    # floors beyond int64 are refused, not wrapped
    with pytest.raises(ParameterError):
        _AffineEval(R(3), R(0)).floor_array(np.array([1 << 62], dtype=np.int64))


def test_kernel_alpha_with_200_bit_numerator():
    rng = random.Random(200)
    alpha = R((1 << 200) + rng.getrandbits(199), 1 << 199)
    for beta in (R(0), R(Fraction(1, 3)), R(Fraction(-7, 12) + TINY)):
        ev = _AffineEval(alpha, beta)
        ns = np.concatenate([hard_ns(alpha, rng), -np.arange(1, 20, dtype=np.int64)])
        assert ev.floor_array(ns).tolist() == scalar_floors(ev, ns)


# --- counts built on the kernel against the scalar formulas they replaced ---


def old_monte_carlo_counts(cfg, x, table):
    beta = cfg.beta.as_fraction()
    ps = table.primes_upto(x).tolist()
    prime_set = set(table.primes().tolist())
    counts = []
    for a in sample_alphas(cfg):
        if beta is not None:
            num, off = a.numerator * beta.denominator, beta.numerator * a.denominator
            den = a.denominator * beta.denominator
            counts.append(sum(1 for p in ps if (q := (num * p + off) // den) >= 2
                              and q in prime_set))
        else:
            ev = _AffineEval(R(a), cfg.beta)
            counts.append(sum(1 for p in ps if (q := ev.floor(p)) >= 2 and q in prime_set))
    return counts


@pytest.mark.parametrize("beta", ["rat:0/1", "rat:-5/12", "rat:7/11", "sqrt:3*1/2",
                                  "cf:0,3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3,2,3,8"])
def test_monte_carlo_matches_scalar_counts(beta):
    cfg = ExperimentConfig(Fraction(1, 2), Fraction(5, 2), CertifiedReal.parse(beta),
                           (300,), 100, 17)
    table = sieve_primes(800)
    counts = old_monte_carlo_counts(cfg, 300, table)
    mc = integral_monte_carlo(cfg, 300, table)
    n, mean = len(counts), sum(counts) / len(counts)
    var = sum((c - mean) ** 2 for c in counts) / (n - 1)
    assert mc.mean == 2 * mean and mc.stderr == 2 * math.sqrt(var / n)


def old_fractional_hits(alpha, beta, y, width):
    ev = _AffineEval(alpha, beta)
    return sum(1 for n in range(1, y + 1) if ev.compare(n, ev.floor(n) + width) < 0)


@pytest.mark.parametrize("kind", KINDS)
def test_fractional_hits_matches_scalar_formula(kind):
    rng = random.Random(f"hits:{kind}")
    for _ in range(6):
        alpha, beta = generators(kind, rng)
        width = Fraction(rng.randint(1, 11), 12) + rng.choice((0, TINY, -TINY))
        y = rng.randint(1, 400)
        assert fractional_hits(alpha, beta, y, width) == old_fractional_hits(alpha, beta, y, width)


def old_rational_hits(a, q, beta, y, windows):
    count = 0
    for n in range(1, y + 1):
        fr = (Fraction(a * n, q) + beta) % 1
        count += any(lo <= fr < hi for lo, hi in windows)
    return count


def test_rational_hits_matches_fraction_loop():
    rng = random.Random(41)
    for trial in range(60):
        # the last trials use a denominator past int64: the residues run on Python ints
        q = rng.randint(1, 60) if trial < 50 else rng.getrandbits(70) | 1
        a = rng.randint(1, 5 * q)
        beta = near_rational(rng) if trial % 3 else Fraction(rng.randint(-9, 9), q)
        w = Fraction(rng.randint(1, 2 * q), 2 * q + 1)
        windows = [(Fraction(1, q), w)] if w > Fraction(1, q) else []
        windows.append((Fraction(0), w / 2))
        windows.append((1 - Fraction(1, 2 * q), Fraction(1)))
        y = rng.randint(1, 300)
        assert _rational_hits(a, q, beta, y, windows) == old_rational_hits(a, q, beta, y, windows)
    # small residues under a modulus past int64 (q = 1, beta with a 70-bit denominator)
    windows = [(Fraction(0), Fraction(1, 2))]
    beta = Fraction(1, 1 << 70)
    assert _rational_hits(3, 1, beta, 50, windows) == old_rational_hits(3, 1, beta, 50, windows)


# --- congruence and Selberg counts: the divisibility masks against direct counts ---

COUNT_KINDS = ("rational", "quadratic", "phi")
BETAS = (R(0), R(1, 2))


def count_alpha(kind: str, rng) -> CertifiedReal:
    if kind == "rational":
        return R(rng.randint(1, 500), rng.randint(1, 300))
    return quadratic(rng) if kind == "quadratic" else CertifiedReal.phi()


def test_mask_prime_limit_edges():
    ps = sieve_primes(400).primes().tolist()[: MASK_PRIME_LIMIT + 1]
    ns = np.arange(1, 5_001, dtype=np.int64)
    fs = _AffineEval(CertifiedReal.phi(), R(1, 2)).floor_array(ns)
    masks, counts = divisibility_masks(ns, fs, ps[:MASK_PRIME_LIMIT])  # at the limit
    assert masks.min() >= 0 and counts.sum() == ns.size
    for bit in (0, 1, MASK_PRIME_LIMIT - 2, MASK_PRIME_LIMIT - 1):
        p = ps[bit]
        assert masked_count(masks, counts, 1 << bit) == int(((ns * fs) % p == 0).sum()), p
    with pytest.raises(GuardViolation, match=f"{MASK_PRIME_LIMIT + 1} primes"):
        divisibility_masks(ns, fs, ps)  # one past it


@pytest.mark.parametrize("d_max, mask_path", [(307, True), (311, False)])
def test_deviation_report_at_and_past_the_mask_limit(monkeypatch, d_max, mask_path):
    # the primes up to 307 are exactly MASK_PRIME_LIMIT; 311 is one more
    assert len(sieve_primes(d_max).primes()) == MASK_PRIME_LIMIT + (not mask_path)
    calls = []
    monkeypatch.setattr(congruence, "divisibility_masks",
                        lambda *a: calls.append(1) or divisibility_masks(*a))
    alpha, beta, x = CertifiedReal.sqrt(3), R(1, 2), 3_000
    rows = deviation_report(alpha, beta, x, d_max)
    assert bool(calls) == mask_path
    assert [r.count for r in rows] == \
        [count_direct(CongruenceQuery(alpha, beta, x, r.d)) for r in rows]


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_deviation_counts_match_direct(kind):
    rng = random.Random(f"deviation:{kind}")
    for trial in range(3):
        alpha = count_alpha(kind, rng)
        x = rng.randint(100, 20_000)
        d_max = rng.randint(2, 100)
        for beta in BETAS:
            rows = deviation_report(alpha, beta, x, d_max)
            direct = [count_direct(CongruenceQuery(alpha, beta, x, r.d)) for r in rows]
            assert [r.count for r in rows] == direct, (kind, trial, alpha, beta, x, d_max)
    # one d_max above the mask limit: the per-d fallback
    alpha, x = count_alpha(kind, rng), rng.randint(400, 2_000)
    rows = deviation_report(alpha, BETAS[1], x, 331)
    assert [r.count for r in rows] == \
        [count_direct(CongruenceQuery(alpha, BETAS[1], x, r.d)) for r in rows]


@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_selberg_sifted_matches_sifted_count(kind):
    rng = random.Random(f"selberg:{kind}")
    for trial in range(3):
        alpha = count_alpha(kind, rng)
        x = rng.randint(60, 20_000)
        z = rng.choice((2, 3, 7, 12, 30, 60))
        for beta in BETAS:
            bound = selberg_upper_bound(alpha, beta, x, z)
            assert bound.sifted == sifted_count(alpha, beta, x, z), (kind, trial, alpha, x, z)
    # the largest weight range: 46 primes in the mask
    alpha = count_alpha(kind, rng)
    bound = selberg_upper_bound(alpha, R(0), 2_000, 200)
    assert bound.sifted == sifted_count(alpha, R(0), 2_000, 200)
