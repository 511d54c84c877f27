"""Finite unions of disjoint half-open intervals with exact rational endpoints.

Canonical form: sorted, disjoint, no empty members, adjacent intervals
merged; measure is the exact rational sum of lengths. Instances are
immutable values, safe to share.
"""

from __future__ import annotations

from fractions import Fraction


def _canonicalize(pairs):
    ivs = sorted((Fraction(a), Fraction(b)) for a, b in pairs if Fraction(a) < Fraction(b))
    out = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


class IntervalSet:
    __slots__ = ("_ivs",)

    def __init__(self, pairs=()):
        object.__setattr__(self, "_ivs", _canonicalize(pairs))

    def __setattr__(self, *a):  # immutable value semantics
        raise AttributeError("IntervalSet is immutable")

    @classmethod
    def single(cls, lo, hi) -> "IntervalSet":
        return cls([(lo, hi)])

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._ivs

    def __iter__(self):
        return iter(self._ivs)

    def __len__(self):
        return len(self._ivs)

    def __bool__(self):
        return bool(self._ivs)

    def __eq__(self, other):
        return isinstance(other, IntervalSet) and self._ivs == other._ivs

    def __hash__(self):
        return hash(self._ivs)

    def __repr__(self):
        body = " u ".join(f"[{a}, {b})" for a, b in self._ivs)
        return f"IntervalSet({body or 'empty'})"

    def measure(self) -> Fraction:
        return sum((b - a for a, b in self._ivs), Fraction(0))

    def contains_point(self, x) -> bool:
        x = Fraction(x)
        return any(a <= x < b for a, b in self._ivs)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._ivs + other._ivs)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        a, b = self._ivs, other._ivs
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def complement_in(self, lo, hi) -> "IntervalSet":
        """Complement relative to the window [lo, hi)."""
        lo, hi = Fraction(lo), Fraction(hi)
        out = []
        cursor = lo
        for a, b in self._ivs:
            if b <= lo:
                continue
            if a >= hi:
                break
            if cursor < min(a, hi):
                out.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalSet(out)

    def clip(self, lo, hi) -> "IntervalSet":
        return self.intersect(IntervalSet.single(lo, hi))
