"""Certified evaluation of floor(alpha*n + beta) and fractional-part tests.

Values come in three flavors:

* exact rationals,
* quadratic irrationals  add + mul*sqrt(k)  with k square-free, and
* finite continued-fraction prefixes (an unknown real known only to lie
  in the bracket spanned by its convergents).

Scalar floors are exact integer arithmetic. For integers A, B, W > 0 and
non-square k, sqrt(B^2 k) lies strictly between f = isqrt(B^2 k) and
f + 1, so

    floor((A + B*sqrt(k))/W)  =  (A + f) // W          if B > 0
                               =  (A - f - 1) // W      if B < 0

with no precision loss, ever; two different square roots are bracketed
and then certified by exact sign tests. Continued-fraction prefixes refine
a dyadic enclosure on a doubling schedule (128 -> 4096 bits) and raise
BoundaryAmbiguous when certification is impossible.

Arrays of floors go through one int64 kernel (``_AffineEval.floor_array``).
It brackets alpha*scale and beta by integers over a denominator D: D = W
with zero width when an exact rational fits in int64; otherwise D = 2^s,
with s chosen so that max|A|*nmax + max|B| < 2^62, and the ends are the
exact floor and ceiling of the value times D (rational and quadratic
parts) or the 128-bit enclosure rounded outward (cf parts). The floors of
both bracket ends are computed in int64; lanes where they agree are
certified, and only the lanes where they disagree go to the exact scalar
floor (which still raises BoundaryAmbiguous). No float is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BoundaryAmbiguous, ParameterError
from .primes import PrimeTable

PRECISION_START = 128
PRECISION_CAP = 4096

_HEADROOM = 1 << 62  # max|A|*nmax + max|B| in the int64 floor kernel stays below this
_MIN_SHIFT = 16      # fewest fraction bits worth a kernel pass; below it, scalar floors


def _sign_quad(c: int, b: int, k: int) -> int:
    """Exact sign of c + b*sqrt(k) for integers, k non-square >= 2 (or b == 0)."""
    if b == 0:
        return (c > 0) - (c < 0)
    if c == 0:
        return 1 if b > 0 else -1
    sb = 1 if b > 0 else -1
    sc = 1 if c > 0 else -1
    if sb == sc:
        return sb
    # opposite signs: |c| vs |b|sqrt(k); equality needs k a perfect square
    return sc if c * c > b * b * k else sb


def _sign_two_sqrt(c: int, b1: int, k1: int, b2: int, k2: int) -> int:
    """Exact sign of c + b1*sqrt(k1) + b2*sqrt(k2), distinct non-square k's."""
    if b1 == 0:
        return _sign_quad(c, b2, k2)
    if b2 == 0:
        return _sign_quad(c, b1, k1)
    su = _sign_quad(c, b1, k1)
    sv = 1 if b2 > 0 else -1
    if su == 0:
        return sv
    if su == sv:
        return su
    # compare |c + b1 sqrt(k1)|^2 with |b2 sqrt(k2)|^2, again a quad sign
    sd = _sign_quad(c * c + b1 * b1 * k1 - b2 * b2 * k2, 2 * c * b1, k1)
    if sd == 0:
        return 0
    return su if sd > 0 else sv


def _floor_quad(A: int, B: int, W: int, k: int) -> int:
    """floor((A + B*sqrt(k))/W), W > 0, k non-square >= 2 (or B == 0)."""
    if B == 0:
        return A // W
    f = math.isqrt(B * B * k)
    return (A + (f if B > 0 else -f - 1)) // W


def _floor_shifted(x: Fraction, s: int) -> int:
    """floor(x * 2^s) for s >= 0."""
    return (x.numerator << s) // x.denominator


def _squarefree_split(k: int) -> tuple[int, int]:
    """k = s^2 * k0 with k0 square-free; returns (k0, s). Plain trial division."""
    s = 1
    k0 = k
    d = 2
    while d * d <= k0:
        while k0 % (d * d) == 0:
            k0 //= d * d
            s *= d
        d += 1
    return k0, s


def convergents(quotients) -> list[tuple[int, int]]:
    """Convergents (h_i, k_i) of the continued fraction [a0; a1, a2, ...]."""
    h0, k0, h1, k1 = 0, 1, 1, 0  # (h_{-2}, k_{-2}), (h_{-1}, k_{-1})
    out = []
    for a in quotients:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        out.append((h1, k1))
    return out


class CertifiedReal:
    """A positive-or-negative real with certified comparisons and floors.

    Construct via the classmethods (``rational``, ``sqrt``, ``phi``,
    ``from_partial_quotients``, ``parse``). Instances cache a dyadic
    enclosure that ``refine()`` shrinks; clone before sharing across
    threads (the generator itself is immutable).
    """

    __slots__ = ("kind", "_fr", "_add", "_mul", "_k", "_quotients", "_bits", "_lo", "_hi")

    def __init__(self):
        raise TypeError("use CertifiedReal.rational/sqrt/phi/from_partial_quotients/parse")

    @classmethod
    def _blank(cls) -> "CertifiedReal":
        obj = object.__new__(cls)
        obj._bits = 0
        obj._lo = obj._hi = None
        return obj

    @classmethod
    def rational(cls, num, den=1) -> "CertifiedReal":
        obj = cls._blank()
        obj.kind = "rational"
        obj._fr = Fraction(num, den)
        return obj

    @classmethod
    def sqrt(cls, k: int, mul=1, add=0) -> "CertifiedReal":
        """Value add + mul*sqrt(k); normalizes square parts of k."""
        if k < 0:
            raise ParameterError("sqrt generator needs k >= 0")
        mul = Fraction(mul)
        add = Fraction(add)
        k0, s = _squarefree_split(k) if k > 1 else (k, 1)
        mul *= s
        if k0 == 1:
            return cls.rational(add + mul)
        if k0 == 0 or mul == 0:
            return cls.rational(add)
        obj = cls._blank()
        obj.kind = "quadratic"
        obj._add = add
        obj._mul = mul
        obj._k = k0
        return obj

    @classmethod
    def phi(cls) -> "CertifiedReal":
        """The golden ratio (1 + sqrt(5))/2."""
        return cls.sqrt(5, Fraction(1, 2), Fraction(1, 2))

    @classmethod
    def from_partial_quotients(cls, quotients) -> "CertifiedReal":
        qs = tuple(int(a) for a in quotients)
        if not qs:
            raise ParameterError("continued fraction needs at least one partial quotient")
        if any(a < 1 for a in qs[1:]):
            raise ParameterError("partial quotients a1, a2, ... must be >= 1")
        obj = cls._blank()
        obj.kind = "cf"
        obj._quotients = qs
        return obj

    @classmethod
    def parse(cls, text: str) -> "CertifiedReal":
        """Parse a spec string.

        Grammar: ``rat:<p>/<q>`` | ``sqrt:<k>[*<p>/<q>][+<p>/<q>]`` | ``phi``
        | ``cf:<a0>,<a1>,...`` (``:`` also accepted as the cf separator).
        The sqrt suffixes scale and shift sqrt(k): value = sqrt(k)*scale + shift.
        """
        t = text.strip()
        try:
            if t == "phi":
                return cls.phi()
            if t.startswith("rat:"):
                return cls.rational(Fraction(t[4:]))
            if t.startswith("cf:"):
                body = t[3:].replace(",", ":")
                return cls.from_partial_quotients(int(v) for v in body.split(":") if v != "")
            if t.startswith("sqrt:"):
                body = t[5:]
                # split off suffixes, first token is k
                scale = Fraction(1)
                shift = Fraction(0)
                i, n = 0, len(body)
                while i < n and (body[i].isdigit()):
                    i += 1
                k = int(body[:i])
                rest = body[i:]
                while rest:
                    op = rest[0]
                    if op not in "+*":
                        raise ParameterError(f"bad sqrt suffix in {text!r}")
                    j = 1
                    if j < len(rest) and rest[j] == "-":
                        j += 1
                    while j < len(rest) and (rest[j].isdigit() or rest[j] == "/"):
                        j += 1
                    val = Fraction(rest[1:j])
                    if op == "*":
                        scale *= val
                    else:
                        shift += val
                    rest = rest[j:]
                return cls.sqrt(k, scale, shift)
        except ParameterError:
            raise
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot parse real spec {text!r}: {exc}") from exc
        raise ParameterError(f"unknown real spec {text!r}")

    # --- introspection ---

    @property
    def is_exact(self) -> bool:
        return self.kind == "rational"

    def as_fraction(self) -> Fraction | None:
        return self._fr if self.kind == "rational" else None

    def spec_string(self) -> str:
        """Canonical spec-grammar rendering (comma-free, CSV-safe)."""
        if self.kind == "rational":
            return f"rat:{self._fr.numerator}/{self._fr.denominator}"
        if self.kind == "quadratic":
            s = f"sqrt:{self._k}"
            if self._mul != 1:
                s += f"*{self._mul.numerator}/{self._mul.denominator}"
            if self._add != 0:
                s += f"+{self._add.numerator}/{self._add.denominator}"
            return s
        return "cf:" + ":".join(str(a) for a in self._quotients)

    def __repr__(self):
        return f"CertifiedReal({self.spec_string()})"

    def clone(self) -> "CertifiedReal":
        obj = self._blank()
        obj.kind = self.kind
        for name in ("_fr", "_add", "_mul", "_k", "_quotients"):
            if hasattr(self, name):
                object.__setattr__(obj, name, getattr(self, name))
        obj._bits, obj._lo, obj._hi = self._bits, self._lo, self._hi
        return obj

    # --- enclosures ---

    def _cf_bracket(self, n_terms: int) -> tuple[Fraction, Fraction]:
        """Bracket of the value from the convergents of the first n_terms quotients."""
        convs = convergents(self._quotients[:n_terms])
        if len(convs) == 1:
            h, k = convs[0]
            return Fraction(h, k), Fraction(h + 1, k)
        (h2, k2), (h1, k1) = convs[-2], convs[-1]
        lo, hi = Fraction(h1, k1), Fraction(h1 + h2, k1 + k2)
        return (lo, hi) if lo <= hi else (hi, lo)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction]:
        """Dyadic bracket lo <= value <= hi; width <= 2^-bits when attainable.

        For cf generators the bracket can stay wider than requested once
        the prefix is exhausted; callers needing certification must check
        the width (see floor_affine).
        """
        if self.kind == "rational":
            return self._fr, self._fr
        if self._bits >= bits and self._lo is not None:
            return self._lo, self._hi
        if self.kind == "quadratic":
            m = bits + max(0, self._mul.numerator.bit_length()) + 2
            s = math.isqrt(self._k << (2 * m))
            root_lo = Fraction(s, 1 << m)
            root_hi = Fraction(s + 1, 1 << m)
            if self._mul > 0:
                lo, hi = self._add + self._mul * root_lo, self._add + self._mul * root_hi
            else:
                lo, hi = self._add + self._mul * root_hi, self._add + self._mul * root_lo
        else:
            target = Fraction(1, 1 << bits)
            n_terms = 2
            lo, hi = self._cf_bracket(n_terms)
            while hi - lo > target and n_terms < len(self._quotients):
                n_terms = min(len(self._quotients), n_terms * 2)
                lo, hi = self._cf_bracket(n_terms)
        self._bits, self._lo, self._hi = bits, lo, hi
        return lo, hi

    def refine(self) -> None:
        """Shrink the cached enclosure (double the working precision)."""
        self.enclosure(max(PRECISION_START, self._bits * 2))

    def compare_fraction(self, r: Fraction) -> int:
        """Exact sign of (self - r); raises BoundaryAmbiguous for cf ties."""
        r = Fraction(r)
        if self.kind == "rational":
            return (self._fr > r) - (self._fr < r)
        if self.kind == "quadratic":
            d = self._add - r
            c = d.numerator * self._mul.denominator
            b = self._mul.numerator * d.denominator
            return _sign_quad(c, b, self._k)
        bits = PRECISION_START
        while True:
            lo, hi = self.enclosure(bits)
            if lo > r:
                return 1
            if hi < r:
                return -1
            if bits >= PRECISION_CAP or hi - lo <= 0:
                raise BoundaryAmbiguous(
                    f"cannot separate {self.spec_string()} in [{lo}, {hi}] from {r} "
                    f"after {bits} bits")
            bits *= 2

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.compare_fraction(Fraction(other)) > 0
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.compare_fraction(Fraction(other)) < 0
        return NotImplemented


# --- affine machinery: value(n) = alpha*scale*n + beta ---


def _quad_parts(x: CertifiedReal) -> tuple[int, int, int, int]:
    """(u, v, w, k) with value = (u + v*sqrt(k))/w, w > 0; k = 0 for rationals."""
    if x.kind == "rational":
        return x._fr.numerator, 0, x._fr.denominator, 0
    w = x._add.denominator * x._mul.denominator
    u = x._add.numerator * x._mul.denominator
    v = x._mul.numerator * x._add.denominator
    return u, v, w, x._k


class _AffineEval:
    """Prepared evaluator for n -> floor(alpha*scale*n + beta + shift) and sign tests.

    ``shift`` is an exact rational added to beta; it lets a caller move the
    floor boundaries (fractional_hits) without building a new generator.
    """

    __slots__ = ("mode", "a1", "a0", "b1", "b0", "W", "k", "alpha", "beta",
                 "scale", "shift", "k_alpha", "k_beta")

    def __init__(self, alpha: CertifiedReal, beta: CertifiedReal, scale: int = 1,
                 shift=0):
        self.alpha, self.beta, self.scale = alpha, beta, scale
        self.shift = Fraction(shift)
        if alpha.kind != "cf" and beta.kind != "cf":
            ua, va, wa, ka = _quad_parts(alpha)
            ub, vb, wb, kb = _quad_parts(beta)
            rn, rd = self.shift.numerator, self.shift.denominator
            ub, vb, wb = ub * rd + rn * wb, vb * rd, wb * rd
            if ka and kb and ka != kb:
                self.mode = "twosqrt"
                self.k_alpha, self.k_beta = ka, kb
                # (ua + va sqrt(ka)) s n / wa + (ub + vb sqrt(kb)) / wb
                self.a1, self.a0 = ua * scale * wb, ub * wa
                self.b1, self.b0 = va * scale * wb, vb * wa  # b1 on ka, b0 on kb
                self.W = wa * wb
            else:
                self.mode = "quad" if (ka or kb) else "exact"
                self.k = ka or kb
                self.a1, self.a0 = ua * scale * wb, ub * wa
                self.b1 = va * scale * wb
                self.b0 = vb * wa
                self.W = wa * wb
        else:
            self.mode = "enclosure"

    def floor(self, n: int) -> int:
        if self.mode == "exact":
            return (self.a1 * n + self.a0) // self.W
        if self.mode == "quad":
            return _floor_quad(self.a1 * n + self.a0, self.b1 * n + self.b0, self.W, self.k)
        if self.mode == "twosqrt":
            return self._floor_twosqrt(n)
        return self._floor_enclosure(n)

    def compare(self, n: int, r: Fraction) -> int:
        """Exact sign of (alpha*scale*n + beta + shift - r)."""
        if self.mode == "enclosure":
            return self._compare_enclosure(n, r)
        rn, rd = r.numerator, r.denominator
        A = self.a1 * n + self.a0
        if self.mode == "exact":
            c = A * rd - rn * self.W
            return (c > 0) - (c < 0)
        if self.mode == "quad":
            return _sign_quad(A * rd - rn * self.W, (self.b1 * n + self.b0) * rd, self.k)
        return _sign_two_sqrt(A * rd - rn * self.W, self.b1 * n * rd, self.k_alpha,
                              self.b0 * rd, self.k_beta)

    # twosqrt: bracket the value cheaply, then certify with exact signs
    def _floor_twosqrt(self, n: int) -> int:
        r1 = math.isqrt(self.b1 * self.b1 * n * n * self.k_alpha)
        r2s = self.b0 * self.b0 * self.k_beta
        r2 = math.isqrt(r2s)
        lo = (self.a1 * n + self.a0 + (r1 if self.b1 * n >= 0 else -r1 - 1)
              + (r2 if self.b0 >= 0 else -r2 - 1)) // self.W
        for m in (lo, lo + 1, lo + 2):
            # certify m <= v < m+1
            if (_sign_two_sqrt((self.a1 * n + self.a0) - m * self.W, self.b1 * n,
                               self.k_alpha, self.b0, self.k_beta) >= 0
                    and _sign_two_sqrt((self.a1 * n + self.a0) - (m + 1) * self.W,
                                       self.b1 * n, self.k_alpha, self.b0, self.k_beta) < 0):
                return m
        raise AssertionError("two-sqrt floor bracketing failed")  # pragma: no cover

    def _bounds(self, bits: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """Exact rational brackets alo <= alpha*scale <= ahi, blo <= beta + shift <= bhi."""
        alo, ahi = self.alpha.enclosure(bits)
        blo, bhi = self.beta.enclosure(bits)
        alo, ahi = sorted((alo * self.scale, ahi * self.scale))
        return alo, ahi, blo + self.shift, bhi + self.shift

    def _ambiguous(self, n: int, what: str, bits: int) -> BoundaryAmbiguous:
        return BoundaryAmbiguous(
            f"{what} at n={n} after {bits} bits "
            f"(alpha={self.alpha.spec_string()}, beta={self.beta.spec_string()}, "
            f"scale={self.scale}, shift={self.shift})")

    def _floor_enclosure(self, n: int) -> int:
        bits = PRECISION_START
        while True:
            alo, ahi, blo, bhi = self._bounds(bits)
            lo, hi = sorted((alo * n, ahi * n))
            flo, fhi = (lo + blo).__floor__(), (hi + bhi).__floor__()
            if flo == fhi:
                return flo
            if bits >= PRECISION_CAP:
                raise self._ambiguous(n, f"floor(alpha*scale*n+beta) spans [{flo}, {fhi}]",
                                      bits)
            bits *= 2

    def _compare_enclosure(self, n: int, r: Fraction) -> int:
        bits = PRECISION_START
        while True:
            alo, ahi, blo, bhi = self._bounds(bits)
            lo, hi = sorted((alo * n, ahi * n))
            if lo + blo > r:
                return 1
            if hi + bhi < r:
                return -1
            if bits >= PRECISION_CAP:
                raise self._ambiguous(n, f"cannot separate alpha*scale*n+beta from {r}", bits)
            bits *= 2

    def _ends(self, s: int) -> tuple[int, int, int, int]:
        """Integers alo <= alpha*scale*2^s <= ahi and blo <= (beta + shift)*2^s <= bhi.

        Exact floors and ceilings in integer arithmetic for rational and
        quadratic parts; the 128-bit enclosure rounded outward for cf parts.
        """
        if self.mode == "enclosure":
            alo, ahi, blo, bhi = self._bounds(PRECISION_START)
            return (_floor_shifted(alo, s), -_floor_shifted(-ahi, s),
                    _floor_shifted(blo, s), -_floor_shifted(-bhi, s))
        ka, kb = (self.k_alpha, self.k_beta) if self.mode == "twosqrt" else (self.k, self.k)
        out = []
        for u, v, k in ((self.a1, self.b1, ka), (self.a0, self.b0, kb)):
            out += [_floor_quad(u << s, v << s, self.W, k),
                    -_floor_quad(-u << s, -v << s, self.W, k)]
        return tuple(out)

    def _int_bracket(self, nmax: int) -> tuple[int, int, int, int, int] | None:
        """Integers (alo, ahi, blo, bhi, D) with alo/D <= alpha*scale <= ahi/D and
        blo/D <= beta + shift <= bhi/D, and max|A|*nmax + max|B| < _HEADROOM.

        An exact rational that fits keeps D = W and zero width; otherwise
        D = 2^s with s as large as the headroom allows. None when fewer than
        _MIN_SHIFT fraction bits fit.
        """
        if self.mode == "exact" and max(abs(self.a1) * nmax + abs(self.a0), self.W) < _HEADROOM:
            a, b, D = self.a1, self.a0, self.W
            return a, a, b, b, D
        # the integer ends at s = 0 bound |alpha*scale| and |beta + shift|, so
        # 2^s * size < _HEADROOM bounds max|A|*nmax + max|B| at shift s
        alo, ahi, blo, bhi = self._ends(0)
        size = max(-alo, ahi) * nmax + max(-blo, bhi) + 1
        s = _HEADROOM.bit_length() - 1 - size.bit_length()
        if s < _MIN_SHIFT:
            return None
        return (*self._ends(s), 1 << s)

    def _floor_scalar(self, ns: np.ndarray) -> np.ndarray:
        out = [self.floor(n) for n in ns.tolist()]
        if out and max(-min(out), max(out)) >= 1 << 63:
            raise ParameterError("floor values exceed the int64 range")
        return np.array(out, dtype=np.int64)

    def floor_array(self, ns: np.ndarray) -> np.ndarray:
        """Certified floors over an int64 array of n values (any sign).

        One int64 pass per bracket end; lanes whose two floors differ are
        recomputed by the exact scalar ``floor``.
        """
        ns = np.asarray(ns, dtype=np.int64)
        if ns.size == 0:
            return np.empty(0, dtype=np.int64)
        nmin, nmax = int(ns.min()), int(ns.max())
        bracket = self._int_bracket(max(-nmin, nmax))
        if bracket is None:
            return self._floor_scalar(ns)
        alo, ahi, blo, bhi, D = bracket
        assert (max(-alo, ahi) * max(-nmin, nmax) + max(-blo, bhi) < _HEADROOM
                and 0 < D < _HEADROOM), "int64 headroom of the floor kernel"
        # in-place updates: a fresh temporary per step costs more than the arithmetic
        lo = alo * ns
        if alo == ahi and blo == bhi:
            lo += blo
            lo //= D
            return lo
        hi = ahi * ns
        if nmin < 0:  # alpha*n falls as alpha grows there: pair the ends again
            lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        lo += blo
        lo //= D
        hi += bhi
        hi //= D
        bad = np.flatnonzero(lo != hi)
        if bad.size:
            lo[bad] = self._floor_scalar(ns[bad])
        return lo


def floor_affine(alpha: CertifiedReal, beta: CertifiedReal, n: int) -> int:
    """Exactly floor(alpha*n + beta) for n >= 1, alpha > 0."""
    if n < 1:
        raise ParameterError("floor_affine requires n >= 1")
    return _AffineEval(alpha, beta).floor(n)


def fractional_in(alpha: CertifiedReal, beta: CertifiedReal, n: int,
                  c1, c2) -> bool:
    """Whether {alpha*n + beta} lies in [c1, c2), certified."""
    c1, c2 = Fraction(c1), Fraction(c2)
    if not (0 <= c1 < c2 <= 1):
        raise ParameterError("need 0 <= c1 < c2 <= 1")
    ev = _AffineEval(alpha, beta)
    q = ev.floor(n)
    # {v} >= c1  <=>  v >= q + c1 ; {v} < c2  <=>  v < q + c2
    if c1 > 0 and ev.compare(n, q + c1) < 0:
        return False
    return c2 >= 1 or ev.compare(n, q + c2) < 0


@dataclass(frozen=True)
class PairCount:
    """Result of a Beatty prime-pair count."""
    x: int
    count: int
    pairs: list[tuple[int, int]] | None = None


def pair_hits(ev: _AffineEval, ps: np.ndarray, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """Companions qs = floor(alpha*p + beta) over ps, and the mask of prime qs.

    Companions below 2 are never prime; every q must stay within the table.
    """
    qs = ev.floor_array(ps)
    return qs, table.membership_array(qs)


def beatty_prime_pairs(alpha: CertifiedReal, beta: CertifiedReal, x: int,
                       primes: PrimeTable, want_pairs: bool = False) -> PairCount:
    """Count primes p <= x whose companion floor(alpha*p + beta) is prime.

    Companions q < 2 are never prime and are excluded; q must stay within
    the supplied table (primes.limit >= max(x, floor(alpha*x + beta))).
    """
    if x < 1:
        raise ParameterError("x must be >= 1")
    if alpha.compare_fraction(Fraction(0)) <= 0:
        raise ParameterError("alpha must be positive")
    ev = _AffineEval(alpha, beta)
    qmax = ev.floor(x)
    if primes.limit < max(x, qmax):
        raise ParameterError(
            f"prime table limit {primes.limit} < max(x, floor(alpha*x+beta)) = {max(x, qmax)}"
        )
    ps = primes.primes_upto(x)
    qs, hits = pair_hits(ev, ps, primes)
    pairs = None
    if want_pairs:
        pairs = [(int(p), int(q)) for p, q in zip(ps[hits].tolist(), qs[hits].tolist())]
    return PairCount(x=x, count=int(hits.sum()), pairs=pairs)


def normalized_statistic(count: int, x: int) -> float:
    """count * (log x)^2 / x, the display statistic (double precision)."""
    if x < 3:
        raise ParameterError("normalized_statistic requires x >= 3")
    return count * math.log(x) ** 2 / x
