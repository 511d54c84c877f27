"""Independent routes the benchmark checks library outputs against.

Nothing here calls the library's sieve or its vector floor kernel. Floors
are computed in float64 from a rational enclosure and every lane whose
fractional part lies within `EPS` of a decision boundary is recomputed
exactly, with `Fraction` arithmetic for rational generators and with the
library's scalar `floor_affine` / `fractional_in` for irrational ones.
Primality comes from a plain numpy sieve of Eratosthenes.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

# Values pre-registered in the repository's tests (50-digit decimal
# brute force): pi*(x) for alpha = sqrt(2), beta = 0, and the exact
# alpha-integral over [1, 2] with beta = 0 at x = 1000.
PAIRS_SQRT2 = {10 ** 4: 161, 10 ** 6: 6047}
INTEGRAL_1E3 = 29.405291660453145

EPS = 1e-6          # float64 error of alpha*n + beta stays far below this for n < 1e9
MOD = (1 << 61) - 1  # prime modulus for the exact integral comparison


class Primes:
    """Boolean primality table and prime counts up to `limit`."""

    def __init__(self, limit: int):
        limit = max(int(limit), 2)
        sieve = np.ones(limit + 1, dtype=bool)
        sieve[:2] = False
        sieve[4::2] = False
        for p in range(3, math.isqrt(limit) + 1, 2):
            if sieve[p]:
                sieve[p * p::2 * p] = False
        self.limit = limit
        self.is_prime = sieve
        self.list = np.flatnonzero(sieve).astype(np.int64)

    def upto(self, x: int) -> np.ndarray:
        return self.list[:self.pi(x)]

    def pi(self, x: int) -> int:
        return int(np.searchsorted(self.list, x, side="right"))


def _approx(v) -> float:
    fr = v.as_fraction()
    if fr is None:
        lo, hi = v.enclosure(256)
        fr = (lo + hi) / 2
    return float(fr)


def floors(alpha, beta, ns: np.ndarray) -> np.ndarray:
    """floor(alpha*n + beta) for each n, exactly."""
    import beattylab
    ns = np.asarray(ns, dtype=np.int64)
    a, b = alpha.as_fraction(), beta.as_fraction()
    exact = a is not None and b is not None
    if exact:
        n1, n0, den = a.numerator * b.denominator, b.numerator * a.denominator, \
            a.denominator * b.denominator
        nmax = int(np.abs(ns).max()) if ns.size else 0
        if max((abs(n1) * nmax + abs(n0)).bit_length(), den.bit_length()) < 62:
            return (n1 * ns + n0) // den
    v = _approx(alpha) * ns.astype(np.float64) + _approx(beta)
    out = np.floor(v).astype(np.int64)
    frac = v - out
    for i in np.flatnonzero((frac < EPS) | (frac > 1 - EPS)).tolist():
        n = int(ns[i])
        out[i] = (a * n + b).__floor__() if exact else beattylab.floor_affine(alpha, beta, n)
    return out


def pair_hits(alpha, beta, ps: np.ndarray, primes: Primes) -> np.ndarray:
    """Boolean per prime p in `ps`: is floor(alpha*p + beta) prime."""
    qs = floors(alpha, beta, ps)
    hits = np.zeros(ps.shape, dtype=bool)
    ok = qs >= 2
    hits[ok] = primes.is_prime[qs[ok]]
    return hits


def congruence_count(alpha, beta, x: int, d: int) -> int:
    """#{n <= x : d | n*floor(alpha*n + beta)}, via d/gcd(d, n) | floor."""
    ns = np.arange(1, x + 1, dtype=np.int64)
    fs = floors(alpha, beta, ns)
    need = d // np.gcd(ns, d)
    return int((fs % need == 0).sum())


def hits_count(alpha, beta, y: int, width: Fraction) -> int:
    """#{n <= y : {alpha*n + beta} in [0, width)}."""
    import beattylab
    ns = np.arange(1, y + 1, dtype=np.int64)
    v = _approx(alpha) * ns.astype(np.float64) + _approx(beta)
    frac = v - np.floor(v)
    w = float(width)
    inside = frac < w
    unsure = (frac < EPS) | (frac > 1 - EPS) | (np.abs(frac - w) < EPS)
    for i in np.flatnonzero(unsure).tolist():
        inside[i] = beattylab.fractional_in(alpha, beta, int(ns[i]), 0, width)
    return int(inside.sum())


def sample_alphas(c1: Fraction, c2: Fraction, seed: int, samples: int) -> list[Fraction]:
    """The documented sampling stream: 128 bits of sha256(f"{seed}:{i}") per index."""
    out = []
    for i in range(samples):
        u = int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:16], "big")
        out.append(c1 + (c2 - c1) * Fraction(u, 1 << 128))
    return out


def integral_residue(c1: Fraction, c2: Fraction, beta: Fraction, x: int,
                     primes: Primes) -> tuple[int, float]:
    """The alpha-integral over [c1, c2] modulo MOD, and as a float.

    Uses the cumulative measure F(u) = |{t in [0, u] : floor(t) prime}|
    = pi(floor(u) - 1) + {u} [floor(u) prime], so that the integral is
    sum over primes p <= x of (F(c2 p + beta) - F(c1 p + beta)) / p.
    """
    D = c1.denominator * c2.denominator * beta.denominator
    ps = primes.upto(x)
    cum = np.concatenate(([0], np.cumsum(primes.is_prime, dtype=np.int64)))  # cum[m] = pi(m-1)

    def scaled_F(c: Fraction):
        # D * F(c p + beta) as an exact int64 array
        num = (c.numerator * (D // c.denominator)) * ps + beta.numerator * (D // beta.denominator)
        fl = num // D
        rem = num - fl * D
        return D * cum[fl] + rem * primes.is_prime[fl]

    g = scaled_F(c2) - scaled_F(c1)
    residue = 0
    for gp, p in zip(g.tolist(), ps.tolist()):
        if gp:
            residue = (residue + gp * pow(p, MOD - 2, MOD)) % MOD
    residue = residue * pow(D, MOD - 2, MOD) % MOD
    approx = float(np.sum(g / ps.astype(np.float64)) / D)
    return residue, approx


def residue_of(v: Fraction) -> int:
    return v.numerator % MOD * pow(v.denominator % MOD, MOD - 2, MOD) % MOD


def totient(q: int) -> int:
    out, m, p = q, q, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if prime_factors(p) == [p]]


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in prime_factors(n))


def main_term(x: int, d: int) -> Fraction:
    out = Fraction(x, d)
    for p in prime_factors(d):
        out *= Fraction(2 * p - 1, p)
    return out


def farey_measure(q_max: int, halfwidth: Fraction) -> Fraction:
    """Exact measure of the union of circle arcs |theta - a/q| <= halfwidth/q.

    Every endpoint (a*hd +- hn)/(q*hd) is an integer multiple of 1/M with
    M = lcm(1..q_max)*hd, so the sweep sorts and merges plain integers.
    """
    hn, hd = halfwidth.numerator, halfwidth.denominator
    lcm = math.lcm(*range(1, q_max + 1))
    M = lcm * hd
    pieces = []
    for q in range(1, q_max + 1):
        scale = lcm // q
        if 2 * hn * scale >= M:
            return Fraction(1)
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1:
                lo, hi = (a * hd - hn) * scale % M, (a * hd + hn) * scale % M
                if lo < hi:
                    pieces.append((lo, hi))
                else:  # wraps through 0
                    pieces += [(lo, M), (0, hi)]
    pieces.sort()
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in pieces:
        if cur_hi is not None and lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return Fraction(total, M)
