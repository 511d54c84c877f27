"""Selberg Lambda^2 upper-bound sieve for the density g(p) = 2/p - 1/p^2.

Two sums of sieve data appear side by side and must not be conflated:

* ``big_g(z)``   = sum over square-free m < z of g(m)         (display sum)
* ``normalizer(z)`` = sum over square-free m < z of h(m), with
  h(p) = g(p)/(1 - g(p)) = (2p-1)/(p-1)^2.

The classical optimized weights lambda_d satisfy lambda_1 = 1,
|lambda_d| <= 1, and the exact diagonalization

    sum_{d1, d2} lambda_{d1} lambda_{d2} g(lcm(d1, d2)) = 1 / normalizer(z),

and normalizer(z) >= big_g(z) termwise, so the pointwise quadratic-form
bound is at least as sharp as x/big_g(z). All bound arithmetic is in
exact rationals; no floating point enters any inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certified import (CertifiedReal, _AffineEval, beatty_prime_pairs, companion_limit,
                        normalized_statistic)
from .congruence import divisibility_masks, mask_of, masked_count
from .errors import GuardViolation, ParameterError
from .primes import sieve_primes, squarefree_below

BIG_G_GUARD = 100_000
WEIGHTS_Z_GUARD = 200


def density(p: int) -> Fraction:
    """g(p) = 2/p - 1/p^2 = (2p - 1)/p^2."""
    return Fraction(2 * p - 1, p * p)


def weight_density(p: int) -> Fraction:
    """h(p) = g(p)/(1 - g(p)) = (2p - 1)/(p - 1)^2."""
    return Fraction(2 * p - 1, (p - 1) * (p - 1))


def density_squarefree(prime_factors) -> Fraction:
    out = Fraction(1)
    for p in prime_factors:
        out *= density(p)
    return out


def _tree_sum(fracs) -> Fraction:
    items = list(fracs)
    if not items:
        return Fraction(0)
    while len(items) > 1:
        nxt = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def big_g(z: int) -> Fraction:
    """Exact sum of g(m) over square-free m < z."""
    if z < 2:
        raise ParameterError("z must be >= 2")
    if z > BIG_G_GUARD:
        raise GuardViolation(f"z {z} exceeds exact-enumeration guard {BIG_G_GUARD}")
    return _tree_sum(density_squarefree(ps) for _, ps in squarefree_below(z))


def normalizer(z: int) -> Fraction:
    """Exact sum of h(m) over square-free m < z (the Lambda^2 main-term denominator)."""
    if z < 2:
        raise ParameterError("z must be >= 2")
    if z > BIG_G_GUARD:
        raise GuardViolation(f"z {z} exceeds exact-enumeration guard {BIG_G_GUARD}")

    def hval(ps):
        out = Fraction(1)
        for p in ps:
            out *= weight_density(p)
        return out

    return _tree_sum(hval(ps) for _, ps in squarefree_below(z))


def product_lower(z: int) -> Fraction:
    """prod_{p < z} (1 - g(p))^(-1) = prod p^2/(p-1)^2, exact."""
    if z < 3:
        raise ParameterError("z must be >= 3 so the product is nonempty")
    if z > BIG_G_GUARD:
        raise GuardViolation(f"z {z} exceeds guard {BIG_G_GUARD}")
    num = den = 1
    for p in sieve_primes(z - 1).primes().tolist():
        num *= p * p
        den *= (p - 1) * (p - 1)
    return Fraction(num, den)


@dataclass(frozen=True)
class SieveContext:
    """Weights and sums for sieving by the primes below z."""
    z: int
    primes: tuple[int, ...]
    gz: Fraction          # big_g(z)
    normalizer: Fraction  # sum of h(m), m < z square-free
    lambdas: dict[int, Fraction]  # square-free d < z -> lambda_d


def selberg_weights(z: int) -> dict[int, Fraction]:
    return sieve_context(z).lambdas


def sieve_context(z: int) -> SieveContext:
    """Build the classical optimized weights for sifting range z.

    lambda_d = mu(d) * (h(d)/g(d)) * J_d(z/d) / J(z), where J sums h over
    square-free integers (J_d restricted to e coprime to d with e*d < z).
    """
    if z < 2:
        raise ParameterError("z must be >= 2")
    if z > WEIGHTS_Z_GUARD:
        raise GuardViolation(f"z {z} exceeds weight-enumeration guard {WEIGHTS_Z_GUARD}")

    sf = list(squarefree_below(z))
    hv = {}
    gv = {}
    for m, ps in sf:
        h = g = Fraction(1)
        for p in ps:
            h *= weight_density(p)
            g *= density(p)
        hv[m], gv[m] = h, g
        # pin the two equivalent main-density spellings before any use
        alt = Fraction(1, m)
        for p in ps:
            alt *= Fraction(2 * p - 1, p)
        if alt != g:
            raise AssertionError(f"density identity failed at d={m}")  # pragma: no cover
    J = sum(hv.values())
    Gz = sum(gv.values())

    lambdas = {}
    for d, ps in sf:
        Jd = sum(hv[e] for e, _ in sf if e * d < z and math.gcd(e, d) == 1)
        mu = -1 if len(ps) % 2 else 1
        lambdas[d] = mu * (hv[d] / gv[d]) * Jd / J

    return SieveContext(z=z, primes=tuple(p for p, ps in sf if len(ps) == 1 and p == ps[0]),
                        gz=Gz, normalizer=J, lambdas=lambdas)


def quadratic_form_value(ctx: SieveContext) -> Fraction:
    """sum_{d1,d2} lambda_{d1} lambda_{d2} g(lcm(d1,d2)), directly."""
    ds = sorted(ctx.lambdas)
    gcache = {}

    def g_of(m):
        if m not in gcache:
            out = Fraction(1)
            mm = m
            for p in ctx.primes:
                if mm % p == 0:
                    out *= density(p)
                    while mm % p == 0:
                        mm //= p
            gcache[m] = out
        return gcache[m]

    total = Fraction(0)
    for d1 in ds:
        for d2 in ds:
            total += ctx.lambdas[d1] * ctx.lambdas[d2] * g_of(d1 * d2 // math.gcd(d1, d2))
    return total


def sifted_count(alpha: CertifiedReal, beta: CertifiedReal, x: int, z: int) -> int:
    """|{n <= x : gcd(n*floor(alpha n + beta), P(z)) = 1}| by direct gcd test."""
    if z > x:
        raise ParameterError("need z <= x")
    if x < 1:
        raise ParameterError("x must be >= 1")
    if z < 2:
        return x  # P(z) = 1: empty sieve
    pz = 1
    for p in sieve_primes(max(2, z - 1)).primes().tolist():
        if p < z:
            pz *= p
    if pz == 1:
        return x
    ev = _AffineEval(alpha, beta)
    fs = ev.floor_array(np.arange(1, x + 1, dtype=np.int64)).tolist()
    return sum(1 for n, f in enumerate(fs, start=1) if math.gcd(n * f, pz) == 1)


@dataclass(frozen=True)
class SieveBound:
    x: int
    z: int
    sifted: int
    quadratic_form_bound: Fraction  # pointwise sum of (sum_d lambda_d)^2
    expanded_bound: Fraction        # x/normalizer + bilinear remainder, same value
    main_term: Fraction             # x / normalizer(z)
    remainder_total: Fraction
    gz: Fraction
    normalizer: Fraction


def selberg_upper_bound(alpha: CertifiedReal, beta: CertifiedReal, x: int,
                        z: int) -> SieveBound:
    """Evaluate the Lambda^2 bound both ways and certify the exact identity.

    (a) Q = sum_{n <= x} (sum_{d | kernel(n)} lambda_d)^2, and
    (b) x/normalizer(z) + sum_{d1,d2} lambda lambda r_lcm with
        r_D = |A_D| - x*g(D) from the exact congruence counts.

    The two are the same quantity read in two orders and must agree
    exactly; sifted_count <= Q unconditionally.
    """
    if z > x:
        raise ParameterError("need z <= x")
    ctx = sieve_context(z)
    ns = np.arange(1, x + 1, dtype=np.int64)
    masks, counts = divisibility_masks(ns, _AffineEval(alpha, beta).floor_array(ns),
                                       ctx.primes)

    ds = sorted(ctx.lambdas)
    M = math.lcm(*(ctx.lambdas[d].denominator for d in ds))

    # lambda integer sums can exceed int64; accumulate per-mask in Python ints
    tvals = [0] * masks.size
    for d in ds:
        b, l = mask_of(d, ctx.primes), int(ctx.lambdas[d] * M)
        for i in np.flatnonzero((masks & b) == b).tolist():
            tvals[i] += l
    qnum = sum(c * t * t for c, t in zip(counts.tolist(), tvals))
    quadratic = Fraction(qnum, M * M)
    sifted = int(counts[masks == 0].sum())

    # expanded side: group lambda pairs by lcm, use exact congruence counts
    pair_coeff: dict[int, Fraction] = {}
    for d1 in ds:
        for d2 in ds:
            D = d1 * d2 // math.gcd(d1, d2)
            pair_coeff[D] = pair_coeff.get(D, Fraction(0)) + ctx.lambdas[d1] * ctx.lambdas[d2]

    expanded = Fraction(0)
    remainder = Fraction(0)
    qf_direct = Fraction(0)
    for D, coeff in pair_coeff.items():
        a_d = masked_count(masks, counts, mask_of(D, ctx.primes))
        gD = Fraction(1)
        DD = D
        for p in ctx.primes:
            if DD % p == 0:
                gD *= density(p)
                DD //= p
        r_d = a_d - x * gD
        qf_direct += coeff * gD
        remainder += coeff * r_d
        expanded += coeff * a_d

    if qf_direct != 1 / ctx.normalizer:
        raise AssertionError("quadratic-form identity violated (weights bug)")
    if expanded != quadratic:
        raise AssertionError("expanded bound != pointwise bound (accounting bug)")
    if sifted > quadratic:
        raise AssertionError("sifted count exceeds Lambda^2 bound (method violation)")

    return SieveBound(
        x=x, z=z, sifted=sifted,
        quadratic_form_bound=quadratic,
        expanded_bound=expanded,
        main_term=x / ctx.normalizer,
        remainder_total=remainder,
        gz=ctx.gz,
        normalizer=ctx.normalizer,
    )


def eighth_root_ceil(x: int) -> int:
    """Smallest z >= 1 with z^8 >= x, in integer arithmetic."""
    z = math.isqrt(math.isqrt(math.isqrt(max(x, 1))))  # exactly floor(x^(1/8))
    return z if z ** 8 >= x else z + 1


@dataclass(frozen=True)
class PairBoundReport:
    x: int
    z: int
    threshold: int            # primes >= threshold must land in the sifted set
    pair_count: int
    pairs_below_threshold: int
    containment_ok: bool
    sifted: int
    quadratic_form_bound: Fraction | None
    pair_statistic: float     # pi*(x) (log x)^2 / x
    bound_statistic: float | None


def pair_bound_check(alpha: CertifiedReal, beta: CertifiedReal, x: int,
                     z: int | None = None) -> PairBoundReport:
    """Check the containment driving the pair upper bound.

    Every prime pair (p, floor(alpha p + beta)) with
    p >= z + (z + 1 - beta)/alpha contributes an element of the sequence
    coprime to P(z); consequently pi*(x) is controlled by the sifted count
    plus the few below-threshold pairs.
    """
    if alpha.compare_fraction(Fraction(0)) <= 0:
        raise ParameterError("alpha must be positive")
    if z is None:
        z = eighth_root_ceil(x)
    ev = _AffineEval(alpha, beta)
    # smallest m with alpha*m + beta >= z + 1, certified
    m = 1
    while ev.compare(m, Fraction(z + 1)) < 0:
        m += 1
    threshold = z + m

    table = sieve_primes(companion_limit([ev], x))
    pc = beatty_prime_pairs(alpha, beta, x, table, want_pairs=True)

    pz = 1
    for p in table.primes().tolist():
        if p >= z:
            break
        pz *= p
    below = 0
    ok = True
    for p, q in pc.pairs:
        if p < threshold:
            below += 1
            continue
        if math.gcd(p * q, pz) != 1:
            ok = False
    sifted = sifted_count(alpha, beta, x, z)
    if pc.count > sifted + below:
        raise AssertionError("containment accounting violated")

    qbound = None
    bstat = None
    if z <= WEIGHTS_Z_GUARD:
        qbound = selberg_upper_bound(alpha, beta, x, z).quadratic_form_bound
        bstat = normalized_statistic(qbound, x)
    stat = normalized_statistic(pc.count, x)
    return PairBoundReport(
        x=x, z=z, threshold=threshold, pair_count=pc.count,
        pairs_below_threshold=below, containment_ok=ok, sifted=sifted,
        quadratic_form_bound=qbound, pair_statistic=stat, bound_statistic=bstat,
    )
