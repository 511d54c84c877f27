"""Continued fractions, Farey neighborhoods, and fractional-part hit counts.

This is the measure/equidistribution toolbox: exact preimages of
fractional-part conditions under scaling, convergent enclosures of
irrationals, unions of rational-centered neighborhoods on the unit
circle, and the rational-approximation sandwich for hit counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certified import _HEADROOM, CertifiedReal, _AffineEval, _floor_quad, _quad_parts
from .errors import GuardViolation, ParameterError
from .intervals import IntervalSet
from .primes import factorize

FAREY_QMAX_GUARD = 10_000


def scaling_preimage(I: IntervalSet, b, l) -> IntervalSet:
    """The set {alpha in (0, b) : {alpha/l} in I}, exactly.

    Each component [c1, c2) of I pulls back to the arithmetic family
    [(j+c1)l, (j+c2)l) for j = 0, 1, ..., clipped to [0, b).
    """
    b, l = Fraction(b), Fraction(l)
    if b <= 0 or l <= 0:
        raise ParameterError("need b > 0 and l > 0")
    pieces = []
    for c1, c2 in I:
        j = 0
        while (j + c1) * l < b:
            pieces.append(((j + c1) * l, min(b, (j + c2) * l)))
            j += 1
    return IntervalSet(pieces)


# established alias for the two-case measure bound construction
lemma1_set = scaling_preimage


def scaling_preimage_bound(I: IntervalSet, b, l) -> Fraction:
    """Explicit two-case upper bound for measure(scaling_preimage(I, b, l)).

    (floor(b/l) + 1) * l * mes(I) when l <= b, and l * mes(I) when l > b.
    """
    b, l = Fraction(b), Fraction(l)
    mes = I.measure()
    if l <= b:
        return (b // l + 1) * l * mes
    return l * mes


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a positive real."""
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]  # (h_i, k_i)
    exact: bool  # True when the expansion terminated (rational input)


def _convergents_of(quotients):
    h0, k0, h1, k1 = 0, 1, 1, 0
    out = []
    for a in quotients:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        out.append((h1, k1))
    return tuple(out)


def continued_fraction(alpha: CertifiedReal, count: int) -> ContinuedFraction:
    """First ``count`` partial quotients of alpha > 0, exactly.

    Rational alphas terminate early with their full (canonical) expansion;
    cf generators replay their stored prefix.
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if alpha.compare_fraction(Fraction(0)) <= 0:
        raise ParameterError("alpha must be positive")

    if alpha.kind == "cf":
        qs = alpha._quotients[:count]
        return ContinuedFraction(tuple(qs), _convergents_of(qs), exact=False)

    if alpha.kind == "rational":
        fr = alpha.as_fraction()
        qs = []
        num, den = fr.numerator, fr.denominator
        while den and len(qs) < count:
            a, r = divmod(num, den)
            qs.append(a)
            num, den = den, r
        return ContinuedFraction(tuple(qs), _convergents_of(qs), exact=(den == 0))

    # quadratic: iterate x -> 1/(x - floor(x)) in Q(sqrt(k)), all integer ops
    u, v, w, k = _quad_parts(alpha)
    qs = []
    for _ in range(count):
        a = _floor_quad(u, v, w, k)
        qs.append(a)
        u -= a * w
        # invert (u + v sqrt(k))/w: multiply by conjugate
        nu, nv = u * w, -v * w
        nw = u * u - v * v * k
        if nw == 0:  # value was exactly an integer; cannot happen for irrational k
            break
        if nw < 0:
            nu, nv, nw = -nu, -nv, -nw
        g = math.gcd(math.gcd(abs(nu), abs(nv)), nw)
        u, v, w = nu // g, nv // g, nw // g
    return ContinuedFraction(tuple(qs), _convergents_of(qs), exact=False)


def best_convergent_denominator(alpha: CertifiedReal, y: int) -> tuple[int, int]:
    """Largest convergent (h, k) of alpha with k <= y."""
    terms = 4
    best = None
    while terms <= 512:
        cf = continued_fraction(alpha, terms)
        below = [(h, k) for h, k in cf.convergents if k <= y]
        if below:
            best = below[-1]
        if cf.exact or (cf.convergents and cf.convergents[-1][1] > y):
            break
        terms *= 2
    if best is None:
        raise ParameterError(f"no convergent denominator <= {y}")
    return best


def _circle_pieces(start: Fraction, length: Fraction):
    """Half-open arc [start, start+length) on R/Z as intervals in [0, 1)."""
    if length <= 0:
        return []
    if length >= 1:
        return [(Fraction(0), Fraction(1))]
    s = start - start.__floor__()
    e = s + length
    if e <= 1:
        return [(s, e)]
    return [(s, Fraction(1)), (Fraction(0), e - 1)]


@dataclass(frozen=True)
class FareyUnion:
    d_prime: int
    q_max: int
    halfwidth: Fraction
    set: IntervalSet
    measure: Fraction
    subadditive_bound: Fraction  # sum of the individual neighborhood measures


def farey_union(d_prime: int, q_max: int, halfwidth) -> FareyUnion:
    """Union over coprime 1 <= a <= q <= q_max of {theta: |theta*q - a| <= halfwidth}.

    Neighborhoods live on the unit circle: the a = q term wraps through
    theta = 1 == 0. The union's exact measure is checked against the
    subadditivity bound sum_q phi(q) * 2*halfwidth/q before returning.
    """
    if d_prime < 1:
        raise ParameterError("d_prime must be >= 1")
    if q_max < 1:
        raise ParameterError("q_max must be >= 1")
    if q_max > FAREY_QMAX_GUARD:
        raise GuardViolation(f"q_max {q_max} exceeds enumeration guard {FAREY_QMAX_GUARD}")
    hw = Fraction(halfwidth)
    if hw < 0:
        raise ParameterError("halfwidth must be >= 0")

    pieces = []
    bound = Fraction(0)
    for q in range(1, q_max + 1):
        delta = hw / q
        phi_q = 0
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            phi_q += 1
            pieces.extend(_circle_pieces(Fraction(a, q) - delta, 2 * delta))
        bound += phi_q * 2 * delta
    union = IntervalSet(pieces)
    mes = union.measure()
    if mes > bound:
        raise AssertionError("subadditivity violated: union measure exceeds term sum")
    return FareyUnion(d_prime, q_max, hw, union, mes, bound)


def fractional_hits(alpha_prime: CertifiedReal, beta_prime: CertifiedReal,
                    y: int, width) -> int:
    """Exact count of 1 <= n <= y with {alpha'*n + beta'} in [0, width)."""
    width = Fraction(width)
    if not (0 < width <= 1):
        raise ParameterError("need 0 < width <= 1")
    if y < 1:
        raise ParameterError("y must be >= 1")
    if width == 1:
        return y
    # {v} < width  <=>  floor(v) != floor(v - width), since 0 < width < 1
    ns = np.arange(1, y + 1, dtype=np.int64)
    at = _AffineEval(alpha_prime, beta_prime).floor_array(ns)
    below = _AffineEval(alpha_prime, beta_prime, shift=-width).floor_array(ns)
    return int((at != below).sum())


@dataclass(frozen=True)
class HitsReport:
    y: int
    width: Fraction
    count: int
    expected: Fraction  # y * width
    conv_q: int
    bound: Fraction  # q*width + 2y/q + 2
    bound_ok: bool


def fractional_hits_report(alpha_prime: CertifiedReal, beta_prime: CertifiedReal,
                           y: int, width) -> HitsReport:
    """fractional_hits plus the convergent-quantified deviation bound."""
    width = Fraction(width)
    count = fractional_hits(alpha_prime, beta_prime, y, width)
    _, q = best_convergent_denominator(alpha_prime, y)
    expected = y * width
    bound = q * width + Fraction(2 * y, q) + 2
    ok = abs(count - expected) <= bound
    return HitsReport(y, width, count, expected, q, bound, ok)


def _rational_hits(a: int, q: int, beta: Fraction, y: int, windows) -> int:
    """Count n <= y with {a*n/q + beta} in the union of half-open windows.

    With beta = bn/bd and M = q*bd, {a*n/q + beta} = r/M for the residue
    r = (a*bd*n + bn*q) mod M, so a window [lo, hi) holds exactly the r
    with ceil(lo*M) <= r < ceil(hi*M). Residues run in int64 when M and
    (a*bd mod M)*y + (bn*q mod M) stay below the floor kernel's headroom,
    else on Python integers.
    """
    bn, bd = beta.numerator, beta.denominator
    M = q * bd
    step, offset = a * bd % M, bn * q % M
    fits = max(step * y + offset, M) < _HEADROOM
    ns = np.arange(1, y + 1, dtype=np.int64 if fits else object)
    r = (step * ns + offset) % M
    hit = np.zeros(y, dtype=bool)
    for lo, hi in windows:
        hit |= (r >= math.ceil(lo * M)) & (r < math.ceil(hi * M))
    return int(hit.sum())


@dataclass(frozen=True)
class SandwichReport:
    lower: int
    middle: int
    upper: int
    ok: bool


def sandwich_check(alpha_prime: CertifiedReal, beta_prime: CertifiedReal,
                   y: int, width, a: int, q: int) -> SandwichReport:
    """Verify the rational-approximation sandwich for hit counts.

    With a/q a convergent-quality approximation of alpha'
    (|alpha' - a/q| < 1/q^2 required), the exact counts satisfy

      #{ {an/q + b'} in [1/q, width - 1/q) }
        <= #{ {a'n + b'} in [0, width) }
        <= #{ {an/q + b'} in [0, width + 1/q) u [1 - 1/q, 1) }.
    """
    width = Fraction(width)
    if math.gcd(a, q) != 1:
        raise ParameterError("need gcd(a, q) = 1")
    if not (0 < width <= 1):
        raise ParameterError("need 0 < width <= 1")
    # precondition: |alpha' - a/q| < 1/q^2, certified exactly
    center = Fraction(a, q)
    eps = Fraction(1, q * q)
    if not (alpha_prime.compare_fraction(center - eps) > 0
            and alpha_prime.compare_fraction(center + eps) < 0):
        raise ParameterError(f"{a}/{q} is not a convergent-quality approximation")

    if beta_prime.as_fraction() is None:
        raise ParameterError("sandwich_check needs an exact rational beta'")
    beta = beta_prime.as_fraction()

    oq = Fraction(1, q)
    lower_windows = [(oq, width - oq)] if width - oq > oq else []
    upper_windows = [(Fraction(0), min(Fraction(1), width + oq))]
    if 1 - oq > width + oq:
        upper_windows.append((1 - oq, Fraction(1)))
    else:
        upper_windows = [(Fraction(0), Fraction(1))]

    lower = _rational_hits(a, q, beta, y, lower_windows) if lower_windows else 0
    middle = fractional_hits(alpha_prime, beta_prime, y, width)
    upper = _rational_hits(a, q, beta, y, upper_windows)
    return SandwichReport(lower, middle, upper, lower <= middle <= upper)


def euler_phi(q: int) -> int:
    out = q
    for p, _ in factorize(q):
        out -= out // p
    return out
