"""Exact prime generation, 64-bit primality, and multiplicative helpers.

One smallest-prime-factor table (``spf_table``) supplies the sieve's base
primes and the factorizations of small ranges. The sieve is a segmented,
odd-only Eratosthenes storing one bit per odd number; primality for
arbitrary 64-bit integers uses the fixed deterministic Miller-Rabin
witness set {2, 3, 5, ..., 37}, which is valid for every n < 3.3e24 and
hence for the whole unsigned 64-bit range. ``factorize`` keeps no state
between calls: each call sieves its own trial primes up to
min(sqrt(n), 10^7), so its cost depends on n alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

DEFAULT_SEGMENT = 1 << 20  # odd numbers per segment; keeps the inner loop cache-resident
SIEVE_LIMIT_CAP = 1 << 40

# Deterministic witnesses for n < 3.317e24 (covers 2^64).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class PrimeTable:
    """Immutable set of all primes up to ``limit``.

    Storage is a packed odd-only bit array plus the cached ascending
    prime list; both are fixed at construction, so instances are safe to
    share across threads.
    """

    __slots__ = ("limit", "_bits", "_primes")

    def __init__(self, limit: int, bits: np.ndarray, primes: np.ndarray):
        self.limit = limit
        self._bits = bits
        self._primes = primes

    def is_prime(self, n: int) -> bool:
        if n > self.limit:
            raise ParameterError(f"{n} exceeds table limit {self.limit}")
        if n < 2:
            return False
        if n == 2:
            return True
        if n % 2 == 0:
            return False
        i = (n - 3) >> 1
        return bool((self._bits[i >> 3] >> (i & 7)) & 1)

    __contains__ = is_prime

    def membership_array(self, values: np.ndarray) -> np.ndarray:
        """Vectorized is_prime over an int64 array (values must be <= limit)."""
        v = np.asarray(values, dtype=np.int64)
        if v.size and int(v.max()) > self.limit:
            raise ParameterError("membership query exceeds table limit")
        # bit index of odd v >= 3; other lanes read bit 0 and are masked below.
        # In-place steps: on large arrays a fresh temporary costs more than the op.
        i = v - 3
        i >>= 1
        np.maximum(i, 0, out=i)
        b = self._bits[i >> 3]
        b >>= (i & 7).astype(np.uint8)
        b &= (v & 1).astype(np.uint8)
        out = b.view(bool)
        out &= v >= 3
        out |= v == 2
        return out

    def primes(self) -> np.ndarray:
        """All primes <= limit, ascending, as an int64 array."""
        return self._primes

    def primes_upto(self, x: int) -> np.ndarray:
        return self._primes[: self.count(x)]

    def count(self, upto: int | None = None) -> int:
        """pi(upto); defaults to pi(limit)."""
        if upto is None:
            return int(self._primes.size)
        if upto > self.limit:
            raise ParameterError(f"count({upto}) exceeds table limit {self.limit}")
        return int(np.searchsorted(self._primes, upto, side="right"))


def spf_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every n in [0, limit] as an int64 array.

    Entries 0 and 1 hold 0 and 1; n >= 2 is prime iff spf[n] == n.
    """
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:  # no smaller prime divides p
            multiples = spf[p * p :: p]
            multiples[multiples == 0] = p
    unset = spf == 0
    spf[unset] = np.flatnonzero(unset)
    return spf


def squarefree_below(z: int):
    """Yield (m, primes of m ascending) for each square-free m in [1, z), from one spf_table."""
    spf = spf_table(max(z - 1, 0)).tolist()
    for m in range(1, z):
        mm = m
        ps = []
        while mm > 1:
            p = spf[mm]
            mm //= p
            if mm % p == 0:
                ps = None
                break
            ps.append(p)
        if ps is not None:
            yield m, tuple(ps)


def sieve_primes(limit: int, segment_size: int = DEFAULT_SEGMENT) -> PrimeTable:
    """Build a PrimeTable for [2, limit] with segmented construction.

    ``segment_size`` counts odd numbers per segment, so the peak working
    set of the marking loop is one bool per odd in the segment.
    """
    if limit < 2 or limit > SIEVE_LIMIT_CAP:
        raise ParameterError(f"limit must be in [2, 2^40], got {limit}")
    if segment_size < 8:
        raise ParameterError("segment_size must be >= 8")
    segment_size = (segment_size + 7) & ~7  # keep segment starts byte-aligned

    spf = spf_table(math.isqrt(limit))
    ns = np.arange(spf.size, dtype=np.int64)
    base_odd = ns[(spf == ns) & (ns > 2)]

    n_odds = max(0, (limit - 1) // 2)  # odds 3, 5, ..., <= limit
    # at least one byte, so membership_array can read bit 0 for every lane
    packed = np.zeros(max(1, (n_odds + 7) // 8), dtype=np.uint8)
    # one list, filled in place: pi(x) < 1.25506 x / ln x for x > 1 (Rosser-Schoenfeld),
    # and pages past the filled prefix are never touched, so never resident
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    primes[0] = 2
    n_primes = 1

    lo_idx = 0
    while lo_idx < n_odds:
        hi_idx = min(lo_idx + segment_size, n_odds)
        low = 3 + 2 * lo_idx
        seg = np.ones(hi_idx - lo_idx, dtype=bool)
        for p in base_odd.tolist():
            p2 = p * p
            if p2 > limit:
                break
            start = max(p2, ((low + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            si = (start - low) // 2
            if si < seg.size:
                seg[si :: p] = False
        # packed bit i of byte i>>3 is odd number 3 + 2*(8*(i>>3) + (i&7))
        chunk = np.packbits(seg, bitorder="little")
        packed[lo_idx // 8 : lo_idx // 8 + chunk.size] |= chunk
        idx = np.flatnonzero(seg)
        out = primes[n_primes : n_primes + idx.size]
        np.multiply(idx, 2, out=out)
        out += low
        n_primes += idx.size
        lo_idx = hi_idx

    return PrimeTable(limit, packed, primes[:n_primes])


def is_prime(n: int) -> bool:
    """Exact primality for 0 <= n < 2^64 (deterministic witness set)."""
    if n < 0 or n >= 1 << 64:
        raise ParameterError("is_prime requires 0 <= n < 2^64")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_FACTOR_TRIAL_CAP = 10_000_000  # trial primes never exceed this


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of 1 <= n < 2^63.

    Trial division by the primes up to min(sqrt(n), _FACTOR_TRIAL_CAP),
    sieved for this call; a remaining cofactor is accepted if it is itself
    prime (checked deterministically), otherwise the input is outside the
    supported range and rejected.
    """
    if n < 1 or n >= 1 << 63:
        raise ParameterError("factorize requires 1 <= n < 2^63")
    if n == 1:
        return []
    trial = sieve_primes(max(2, min(math.isqrt(n), _FACTOR_TRIAL_CAP))).primes()
    out = []
    m = n
    for p in trial.tolist():
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    if m > 1:
        if is_prime(m):
            out.append((m, 1))
        else:
            raise ParameterError(
                f"factorize({n}): composite cofactor {m} beyond trial-division range"
            )
    return out


def mobius(n: int) -> int:
    """Mobius function: 0 on square divisors, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ParameterError("mobius requires n >= 1")
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def omega(n: int) -> int:
    """Number of distinct prime factors."""
    if n < 1:
        raise ParameterError("omega requires n >= 1")
    return len(factorize(n))


def distinct_prime_factors(n: int) -> list[int]:
    return [p for p, _ in factorize(n)]


def squarefree_divisors(d: int) -> list[int]:
    """All divisors of a square-free d, ascending."""
    fac = factorize(d)
    if any(e > 1 for _, e in fac):
        raise ParameterError(f"{d} is not square-free")
    divs = [1]
    for p, _ in fac:
        divs += [v * p for v in divs]
    return sorted(divs)
