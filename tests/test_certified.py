import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from beattylab import (BoundaryAmbiguous, CertifiedReal, ParameterError,
                       beatty_prime_pairs, continued_fraction, floor_affine,
                       fractional_in, normalized_statistic, sieve_primes)
from beattylab import certified
from beattylab.certified import _AffineEval, companion_limit
from oracles import PHI, SQRT2, SQRT3, decimal_beatty_pairs, decimal_floor

R = CertifiedReal.rational
ZERO = R(0)
HALF = R(1, 2)


def test_parse_grammar():
    assert CertifiedReal.parse("rat:7/5").as_fraction() == Fraction(7, 5)
    assert CertifiedReal.parse("rat:3").as_fraction() == 3
    assert CertifiedReal.parse("phi").spec_string() == "sqrt:5*1/2+1/2"
    assert CertifiedReal.parse("sqrt:2").spec_string() == "sqrt:2"
    assert CertifiedReal.parse("sqrt:2*3/4+-1/2").spec_string() == "sqrt:2*3/4+-1/2"
    assert CertifiedReal.parse("cf:1,2,2").spec_string() == "cf:1:2:2"
    assert CertifiedReal.parse("cf:1:2:2").spec_string() == "cf:1:2:2"
    for bad in ("nope", "rat:1/0", "sqrt:x", "cf:", "sqrt:2^2"):
        with pytest.raises(ParameterError):
            CertifiedReal.parse(bad)


def test_sqrt_normalization():
    # square parts move into the multiplier; perfect squares collapse to rationals
    assert CertifiedReal.sqrt(8).spec_string() == "sqrt:2*2/1"
    assert CertifiedReal.sqrt(9).as_fraction() == 3
    assert CertifiedReal.sqrt(4, mul=Fraction(1, 2)).as_fraction() == 1
    assert CertifiedReal.sqrt(2, mul=0, add=5).as_fraction() == 5


def test_floor_examples():
    assert floor_affine(R(1, 2), ZERO, 4) == 2
    assert floor_affine(CertifiedReal.sqrt(2), ZERO, 5) == 7
    assert floor_affine(CertifiedReal.sqrt(2), ZERO, 2) == 2
    with pytest.raises(ParameterError):
        floor_affine(R(1, 2), ZERO, 0)


def test_floor_rational_matches_integer_formula():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = rng.randint(1, 50), rng.randint(1, 20), rng.randint(-30, 30)
        alpha, beta = R(a, b), R(c, b)
        for n in rng.sample(range(1, 10_001), 25):
            assert floor_affine(alpha, beta, n) == (a * n + c) // b
    # and one pair exhaustively over every n <= 1e4
    a, b, c = 22, 7, -3
    ev = _AffineEval(R(a, b), R(c, b))
    ns = np.arange(1, 10_001, dtype=np.int64)
    assert ev.floor_array(ns).tolist() == [(a * n + c) // b for n in range(1, 10_001)]


@pytest.mark.parametrize("cr,dec", [
    (CertifiedReal.sqrt(2), SQRT2),
    (CertifiedReal.sqrt(3), SQRT3),
    (CertifiedReal.phi(), PHI),
    (CertifiedReal.sqrt(2, mul=Fraction(-1, 3), add=Fraction(7, 2)),
     Decimal(7) / 2 - SQRT2 / 3),
])
def test_floor_quadratic_matches_decimal(cr, dec):
    for beta_cr, beta_dec in ((ZERO, Decimal(0)), (HALF, Decimal("0.5"))):
        for n in range(1, 2001):
            assert floor_affine(cr, beta_cr, n) == decimal_floor(dec, n, beta_dec)


def test_floor_bracketing_certificate():
    # f <= alpha n + beta < f + 1, checked by exact sign evaluation
    rng = random.Random(3)
    alphas = [CertifiedReal.sqrt(2), CertifiedReal.sqrt(3), CertifiedReal.phi(),
              R(7, 5)]
    for alpha in alphas:
        ev = _AffineEval(alpha, HALF)
        for n in rng.sample(range(1, 5000), 30):
            f = ev.floor(n)
            assert ev.compare(n, Fraction(f)) >= 0
            assert ev.compare(n, Fraction(f + 1)) < 0


def test_floor_monotone_in_alpha():
    rng = random.Random(5)
    pool = [R(7, 5), R(3, 2), CertifiedReal.sqrt(2), CertifiedReal.sqrt(3),
            CertifiedReal.phi(), R(1), R(2)]
    keyed = sorted(pool, key=lambda c: c.enclosure(64)[0])
    for n in rng.sample(range(1, 2000), 20):
        floors = [floor_affine(c, HALF, n) for c in keyed]
        assert floors == sorted(floors)


def test_two_sqrt_path():
    alpha = CertifiedReal.sqrt(2)
    beta = CertifiedReal.sqrt(3, add=-1)  # sqrt(3) - 1
    dec_beta = SQRT3 - 1
    for n in range(1, 500):
        assert floor_affine(alpha, beta, n) == decimal_floor(SQRT2, n, dec_beta)
    assert fractional_in(alpha, beta, 1, 0, Fraction(1, 2)) == \
        ((SQRT2 + dec_beta) % 1 < Decimal("0.5"))


def test_fractional_in_examples():
    assert not fractional_in(R(1, 3), ZERO, 2, 0, Fraction(1, 2))
    assert fractional_in(CertifiedReal.sqrt(2), ZERO, 1,
                         Fraction(41, 100), Fraction(42, 100))
    assert fractional_in(CertifiedReal.sqrt(2), ZERO, 5, 0, Fraction(1, 10))
    with pytest.raises(ParameterError):
        fractional_in(R(1), ZERO, 1, Fraction(1, 2), Fraction(1, 2))


def test_fractional_in_rational_fuzz():
    # exact-rational fractional parts, including window-boundary hits
    rng = random.Random(23)
    for _ in range(300):
        alpha = Fraction(rng.randint(1, 60), rng.randint(1, 24))
        beta = Fraction(rng.randint(-30, 30), rng.randint(1, 24))
        n = rng.randint(1, 500)
        c1 = Fraction(rng.randint(0, 11), 12)
        c2 = Fraction(rng.randint(int(c1 * 12) + 1, 12), 12)
        frac = (alpha * n + beta) % 1
        assert fractional_in(R(alpha), R(beta), n, c1, c2) == (c1 <= frac < c2)


def test_cf_generator_certifies_and_fails_honestly():
    # 20 partial quotients of sqrt(2) certify small-n floors ...
    cf = CertifiedReal.from_partial_quotients([1] + [2] * 19)
    exact = CertifiedReal.sqrt(2)
    for n in range(1, 101):
        assert floor_affine(cf, ZERO, n) == floor_affine(exact, ZERO, n)
    # ... but a 2-term prefix cannot split floor(2 alpha) in [2.8, 3.0]
    short = CertifiedReal.from_partial_quotients([1, 2])
    with pytest.raises(BoundaryAmbiguous):
        floor_affine(short, ZERO, 2)
    with pytest.raises(ParameterError):
        CertifiedReal.from_partial_quotients([])
    with pytest.raises(ParameterError):
        CertifiedReal.from_partial_quotients([1, 0, 2])


def test_boundary_ambiguous_message_names_lane_bits_and_specs():
    # raised from floor_array's fix-up of the first lane it cannot certify
    ev = _AffineEval(CertifiedReal.parse("cf:1,2"), R(1, 3))
    with pytest.raises(BoundaryAmbiguous) as info:
        ev.floor_array(np.arange(1, 50, dtype=np.int64))
    msg = str(info.value)
    assert "n=4" in msg and "4096 bits" in msg
    assert "alpha=cf:1:2" in msg and "beta=rat:1/3" in msg
    with pytest.raises(BoundaryAmbiguous, match=r"cf:1:2 .*4096 bits"):
        CertifiedReal.parse("cf:1,2").compare_fraction(Fraction(7, 5))


def test_enclosure_refine_shrinks():
    cr = CertifiedReal.sqrt(2)
    lo, hi = cr.enclosure(128)
    assert hi - lo <= Fraction(1, 2 ** 128)
    assert lo < hi  # irrational: never a point
    width0 = hi - lo
    cr.refine()
    lo2, hi2 = cr._lo, cr._hi
    assert hi2 - lo2 <= width0 / 2
    assert lo2 <= hi2
    clone = cr.clone()
    assert clone.enclosure(cr._bits) == (lo2, hi2)


def doubling_bracket(convs, bits):
    """The cf bracket by the doubling rule: 2, 4, 8, ... leading convergents
    until the bracket is at most 2^-bits wide or the prefix runs out."""
    def bracket(n):
        head = convs[:n]
        if len(head) == 1:
            h, k = head[0]
            return Fraction(h, k), Fraction(h + 1, k)
        (h2, k2), (h1, k1) = head[-2], head[-1]
        return tuple(sorted((Fraction(h1, k1), Fraction(h1 + h2, k1 + k2))))

    n = 2
    lo, hi = bracket(n)
    while hi - lo > Fraction(1, 1 << bits) and n < len(convs):
        n = min(len(convs), 2 * n)
        lo, hi = bracket(n)
    return lo, hi


def test_cf_enclosure_matches_doubling_rule():
    rng = random.Random(300)
    qs = [rng.randint(0, 5)] + [rng.randint(1, 40) for _ in range(299)]
    convs = continued_fraction(CertifiedReal.from_partial_quotients(qs), 300).convergents
    for bits in (16, 64, 128, 512):
        fresh = CertifiedReal.from_partial_quotients(qs)
        assert fresh.enclosure(bits) == doubling_bracket(convs, bits), bits
    # a one-term prefix brackets [a0, a0 + 1]
    assert CertifiedReal.parse("cf:3").enclosure(64) == (3, 4)


def test_compare_fraction():
    s2 = CertifiedReal.sqrt(2)
    assert s2.compare_fraction(Fraction(141421356, 10 ** 8)) > 0
    assert s2.compare_fraction(Fraction(141421357, 10 ** 8)) < 0
    assert R(3, 7).compare_fraction(Fraction(3, 7)) == 0
    assert s2 > 1 and s2 < 2


def test_beatty_pairs_small(table_3k):
    pc = beatty_prime_pairs(CertifiedReal.sqrt(2), ZERO, 2, table_3k, want_pairs=True)
    assert pc.count == 1 and pc.pairs == [(2, 2)]
    pc = beatty_prime_pairs(CertifiedReal.sqrt(2), ZERO, 5, table_3k, want_pairs=True)
    assert (5, 7) in pc.pairs
    counts = [beatty_prime_pairs(CertifiedReal.sqrt(2), ZERO, x, table_3k).count
              for x in (10, 100, 500, 1000)]
    assert counts == sorted(counts)
    assert counts[1] == 7 and counts[3] == 31  # pre-registered oracle values


def test_beatty_pairs_match_decimal_oracle(table_30k):
    got = beatty_prime_pairs(CertifiedReal.phi(), ZERO, 10_000, table_30k,
                             want_pairs=True)
    expect = decimal_beatty_pairs(PHI, 10_000)
    assert got.count == len(expect) == 159
    assert got.pairs == expect


def test_beatty_pairs_guards(table_3k):
    with pytest.raises(ParameterError):
        beatty_prime_pairs(CertifiedReal.sqrt(2), ZERO, 3000, table_3k)
    with pytest.raises(ParameterError):
        beatty_prime_pairs(R(-1), ZERO, 10, table_3k)


def test_companion_limit_is_the_floor_or_one_more():
    # alpha > 1 and beta >= 0, so the limit is U itself, never max(2, x)
    rng = random.Random(21)
    cases = [
        (R(22, 7), ZERO), (R(7, 5), R(1, 3)),                       # rational
        (R(2 ** 128 + rng.getrandbits(128), 2 ** 128), HALF),        # 128-bit dyadic
        (CertifiedReal.sqrt(2), HALF), (CertifiedReal.phi(), R(2, 3)),  # quadratic
        (CertifiedReal.sqrt(3), CertifiedReal.sqrt(5, Fraction(1, 9))),  # two-sqrt
        (CertifiedReal.from_partial_quotients([1] + [2] * 60), ZERO),    # cf alpha
        (CertifiedReal.sqrt(2), CertifiedReal.from_partial_quotients([0] + [1, 3] * 40)),
    ]
    xs = [2, 3, 10, 999, 10 ** 6 + 3, 10 ** 9 + 7] + [rng.randrange(2, 10 ** 12) for _ in range(40)]
    for alpha, beta in cases:
        ev = _AffineEval(alpha, beta)
        for x in xs:
            f = ev.floor(x)
            assert companion_limit([ev], x) in (f, f + 1), (alpha, beta, x)


def test_companion_limit_edges():
    ev = _AffineEval(R(3, 2), ZERO)
    for x in (2, 4, 1000, 10 ** 6, 10 ** 12):  # alpha*x + beta exactly an integer
        assert companion_limit([ev], x) == 3 * x // 2
    assert companion_limit([_AffineEval(R(1, 2), ZERO), ev], 1000) == 1500
    assert companion_limit([_AffineEval(R(1, 2), R(-5))], 1) == 2
    assert companion_limit([], 7) == 7
    assert beatty_prime_pairs(R(3, 2), ZERO, 1000, sieve_primes(1500)).count > 0
    with pytest.raises(ParameterError, match=r"^prime table limit 1499 < "
                       r"max\(x, floor\(alpha\*x\+beta\)\) = 1500$"):
        beatty_prime_pairs(R(3, 2), ZERO, 1000, sieve_primes(1499))
    # a prefix too short to certify the floor still sizes a table
    short = _AffineEval(CertifiedReal.from_partial_quotients([1, 2]), ZERO)
    with pytest.raises(BoundaryAmbiguous):
        short.floor(10 ** 6)
    assert companion_limit([short], 10 ** 6) == 3 * 10 ** 6 // 2  # bracket [4/3, 3/2]


def test_negative_beta_companions_not_counted(table_3k):
    # beta pushing companions below 2 yields non-pairs, not errors
    pc = beatty_prime_pairs(R(1, 10), R(-1), 100, table_3k, want_pairs=True)
    assert all(q >= 2 for _, q in pc.pairs)


@pytest.mark.parametrize("alpha,beta", [
    (R(79, 40), ZERO), (R(7, 5), R(-5, 2)),
    (CertifiedReal.sqrt(2), HALF), (CertifiedReal.phi(), R(-3)),
    (CertifiedReal.from_partial_quotients([1] + [2] * 30), ZERO),
], ids=["rational", "rational-negative-beta", "quadratic", "phi-negative-beta", "cf"])
def test_beatty_pairs_blocked(monkeypatch, table_3k, alpha, beta):
    # the count and the pairs do not depend on how the primes are cut into blocks
    x = 1400  # 222 primes: a partial last block at every size below
    ev = _AffineEval(alpha, beta)
    expect = [(p, ev.floor(p)) for p in table_3k.primes_upto(x).tolist()]
    expect = [(p, q) for p, q in expect if table_3k.is_prime(q)]
    for block in (1, 7, 64, 1 << 18):
        monkeypatch.setattr(certified, "PAIR_BLOCK", block)
        for want in (False, True):
            pc = beatty_prime_pairs(alpha, beta, x, table_3k, want_pairs=want)
            assert pc.count == len(expect), block
            assert pc.pairs == (expect if want else None), block


def test_beatty_pairs_cf_alpha_fallback(table_3k):
    # cf-backed alpha: the kernel brackets it by its 128-bit enclosure
    cf = CertifiedReal.from_partial_quotients([1] + [2] * 30)
    exact = beatty_prime_pairs(CertifiedReal.sqrt(2), ZERO, 300, table_3k,
                               want_pairs=True)
    got = beatty_prime_pairs(cf, ZERO, 300, table_3k, want_pairs=True)
    assert got.count == exact.count and got.pairs == exact.pairs


def test_floor_array_matches_scalar():
    for alpha, beta in ((CertifiedReal.sqrt(2), HALF), (R(22, 7), ZERO),
                        (CertifiedReal.phi(), R(-3, 2))):
        ev = _AffineEval(alpha, beta)
        ns = np.arange(1, 400, dtype=np.int64)
        arr = ev.floor_array(ns)
        assert [ev.floor(int(n)) for n in ns] == arr.tolist()
    # coefficients past int64 take the 2^s bracket instead of the exact denominator
    big = R(2 ** 80 + 1, 2 ** 79)
    ev = _AffineEval(big, ZERO)
    ns = np.arange(1, 50, dtype=np.int64)
    assert ev.floor_array(ns).tolist() == [ev.floor(int(n)) for n in ns]


def test_normalized_statistic():
    assert normalized_statistic(0, 100) == 0.0
    x = 10 ** 6
    count = round(x / math.log(x) ** 2)
    assert normalized_statistic(count, x) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ParameterError):
        normalized_statistic(1, 2)
    # a Fraction count (an exact mean) is rounded once
    mean = Fraction(10 ** 30 + 1, 3 * 10 ** 27)
    assert normalized_statistic(mean, 1000) == float(mean) * math.log(1000) ** 2 / 1000
