"""Independent brute-force oracles used by the tests.

Nothing here touches the package's floor/sieve machinery: floors come
from 50-digit decimal arithmetic, primality from trial division. The
large-x values these oracles produced were pre-registered before the
build and are frozen in the test modules; the oracles stay available so
any frozen number can be re-derived.
"""

import math
from decimal import Decimal, getcontext

getcontext().prec = 50

SQRT2 = Decimal(2).sqrt()
SQRT3 = Decimal(3).sqrt()
PHI = (1 + Decimal(5).sqrt()) / 2


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_is_prime(n)]


def trial_factorize(n: int) -> list[tuple[int, int]]:
    """[(p, e), ...] for n >= 1 by trial division with every d >= 2."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def decimal_floor(value: Decimal, n: int, shift: Decimal = Decimal(0)) -> int:
    """floor(value * n + shift) via 50-digit decimal; safe away from integers."""
    v = value * n + shift
    return int(v.to_integral_value(rounding="ROUND_FLOOR"))


def decimal_beatty_pairs(alpha: Decimal, x: int, beta: Decimal = Decimal(0)):
    """All pairs (p, floor(alpha p + beta)) with both entries prime, p <= x."""
    qmax = decimal_floor(alpha, x, beta) + 1
    sieve = bytearray([1]) * (qmax + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(qmax) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    pairs = []
    for p in range(2, x + 1):
        if not sieve[p]:
            continue
        q = decimal_floor(alpha, p, beta)
        if 2 <= q <= qmax and sieve[q]:
            pairs.append((p, q))
    return pairs
