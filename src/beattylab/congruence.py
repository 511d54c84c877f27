"""Counts of n <= x with n*floor(alpha*n + beta) divisible by a square-free d.

Provides the direct count, its Mobius-decomposed evaluation (two index
spellings, which must agree exactly with the direct count), the
multiplicative main term (x/d) * prod_{p|d} (2 - 1/p), a deviation
table for watching the error term decay, and the divisibility-mask
histogram that the deviation table and the Selberg sums share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .certified import CertifiedReal, _AffineEval, fractional_in
from .errors import GuardViolation, ParameterError
from .primes import distinct_prime_factors, mobius, squarefree_below, squarefree_divisors

DEVIATION_DMAX_GUARD = 10_000
MASK_PRIME_LIMIT = 63  # one bit per prime in a non-negative int64 mask


@dataclass(frozen=True)
class CongruenceQuery:
    alpha: CertifiedReal
    beta: CertifiedReal
    x: int
    d: int

    def __post_init__(self):
        if self.x < 1:
            raise ParameterError("x must be >= 1")
        if self.d < 1 or mobius(self.d) == 0:
            raise ParameterError(f"d must be square-free and >= 1, got {self.d}")


def count_direct(q: CongruenceQuery) -> int:
    """|{1 <= n <= x : d | n * floor(alpha*n + beta)}| by direct loop."""
    ev = _AffineEval(q.alpha, q.beta)
    ns = np.arange(1, q.x + 1, dtype=np.int64)
    fs = ev.floor_array(ns)
    d = q.d
    return int((((ns % d) * (fs % d)) % d == 0).sum())


def _inner_count(alpha, beta, s: int, modulus: int, n_max: int) -> int:
    """#{1 <= n <= n_max : floor(alpha*s*n + beta) == 0 mod modulus}."""
    if n_max < 1:
        return 0
    if modulus == 1:
        return n_max
    ev = _AffineEval(alpha, beta, scale=s)
    fs = ev.floor_array(np.arange(1, n_max + 1, dtype=np.int64))
    return int((fs % modulus == 0).sum())


def _inner_count_fractional(alpha, beta, s: int, modulus: int, n_max: int) -> int:
    """Same inner count through the fractional-part equivalence.

    floor(alpha*s*n + beta) == 0 (mod m)  iff  {alpha*s*n/m + beta/m} in [0, 1/m),
    so the count is evaluated with fractional_in on the rescaled pair.
    """
    if n_max < 1:
        return 0
    if modulus == 1:
        return n_max
    if alpha.kind == "rational":
        a2 = CertifiedReal.rational(alpha.as_fraction() * s / modulus)
    elif alpha.kind == "quadratic":
        a2 = CertifiedReal.sqrt(alpha._k, alpha._mul * s / modulus, alpha._add * s / modulus)
    else:
        raise ParameterError("fractional-path count needs a rational or quadratic alpha")
    if beta.as_fraction() is None:
        raise ParameterError("fractional-path count needs an exact rational beta")
    b2 = CertifiedReal.rational(beta.as_fraction() / modulus)
    w = Fraction(1, modulus)
    return sum(1 for n in range(1, n_max + 1) if fractional_in(a2, b2, n, 0, w))


def count_mobius(q: CongruenceQuery, variant: str = "paper",
                 via_fractional: bool = False) -> int:
    """Mobius-decomposed evaluation of count_direct.

    variant="paper":        sum_{s|d} sum_{t|s}   mu(t) * N(s, d*t/s, x//s)
    variant="alternative":  sum_{s|d} sum_{t|d/s} mu(t) * N(s*t, d/s, x//(s*t))

    where N(s, m, y) counts n <= y with floor(alpha*s*n + beta) == 0 mod m.
    The two spellings are reindexings of one another and both must equal
    count_direct exactly.
    """
    if variant not in ("paper", "alternative"):
        raise ParameterError(f"unknown variant {variant!r}")
    inner = _inner_count_fractional if via_fractional else _inner_count
    total = 0
    cache: dict[tuple[int, int, int], int] = {}

    def N(s, m, y):
        key = (s, m, y)
        if key not in cache:
            cache[key] = inner(q.alpha, q.beta, s, m, y)
        return cache[key]

    if variant == "paper":
        for s in squarefree_divisors(q.d):
            for t in squarefree_divisors(s):
                mu = mobius(t)
                if mu:
                    total += mu * N(s, q.d * t // s, q.x // s)
    else:
        for s in squarefree_divisors(q.d):
            for t in squarefree_divisors(q.d // s):
                mu = mobius(t)
                if mu:
                    total += mu * N(s * t, q.d // s, q.x // (s * t))
    return total


def main_term(x: int, d: int) -> Fraction:
    """(x/d) * prod_{p | d} (2 - 1/p), exact."""
    if d < 1 or mobius(d) == 0:
        raise ParameterError(f"d must be square-free and >= 1, got {d}")
    return _main_term(x, d, distinct_prime_factors(d))


def _main_term(x: int, d: int, prime_factors) -> Fraction:
    return Fraction(x, d) * math.prod(Fraction(2 * p - 1, p) for p in prime_factors)


def divisibility_masks(ns: np.ndarray, fs: np.ndarray,
                       primes) -> tuple[np.ndarray, np.ndarray]:
    """Histogram (masks, counts) of the bitmasks {bit i : primes[i] | n*f} over lanes (n, f).

    Raises GuardViolation past MASK_PRIME_LIMIT primes.
    """
    if len(primes) > MASK_PRIME_LIMIT:
        raise GuardViolation(f"{len(primes)} primes exceed the {MASK_PRIME_LIMIT}-bit "
                             f"divisibility mask")
    masks = np.zeros(ns.size, dtype=np.int64)
    for bit, p in enumerate(primes):
        masks |= ((ns % p == 0) | (fs % p == 0)).astype(np.int64) << bit
    return np.unique(masks, return_counts=True)


def mask_of(m: int, primes) -> int:
    """The mask bits of the primes that divide m."""
    return sum(1 << bit for bit, p in enumerate(primes) if m % p == 0)


def masked_count(masks: np.ndarray, counts: np.ndarray, bits: int) -> int:
    """Number of lanes whose mask holds every bit of ``bits``."""
    return int(counts[(masks & bits) == bits].sum())


@dataclass(frozen=True)
class DeviationRow:
    d: int
    count: int
    main: Fraction
    abs_error: Fraction
    normalized_error: Fraction  # abs_error * d / x


def deviation_report(alpha: CertifiedReal, beta: CertifiedReal, x: int,
                     d_max: int) -> list[DeviationRow]:
    """One row per square-free d <= d_max comparing count to the main term.

    The lemma-scale regime is d_max <= x^(1/3); larger d_max is allowed
    (needed for cross-x decay comparisons) but the normalized errors
    outside the regime are diagnostic only.
    """
    if d_max < 1 or d_max > DEVIATION_DMAX_GUARD:
        raise GuardViolation(f"d_max must be in [1, {DEVIATION_DMAX_GUARD}]")
    if d_max > x:
        raise ParameterError("d_max must not exceed x")

    ev = _AffineEval(alpha, beta)
    ns = np.arange(1, x + 1, dtype=np.int64)
    fs = ev.floor_array(ns)

    sf = list(squarefree_below(d_max + 1))
    ps = sorted({p for _, d_primes in sf for p in d_primes})

    if len(ps) <= MASK_PRIME_LIMIT:
        masks, counts = divisibility_masks(ns, fs, ps)
        counts_by_d = {d: masked_count(masks, counts, mask_of(d, ps)) for d, _ in sf}
    else:  # too many primes for one mask: count each d directly
        counts_by_d = {d: int((((ns % d) * (fs % d)) % d == 0).sum()) for d, _ in sf}

    rows = []
    for d, d_primes in sf:
        cnt = counts_by_d[d]
        main = _main_term(x, d, d_primes)
        err = abs(cnt - main)
        rows.append(DeviationRow(d, cnt, main, err, err * d / x))
    return rows
