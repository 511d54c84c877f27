"""Theorem-scale experiments: alpha-integrals of pair counts, scans, Monte Carlo.

The central identity: for I = [c1, c2] and rational beta,

    integral over I of pistar(x; alpha) d(alpha)
        = sum over primes p <= x, primes q in (c1 p + beta - 1, c2 p + beta]
          of  mes( [(q - beta)/p, (q + 1 - beta)/p) intersect I ),

evaluated here in exact rational arithmetic two independent ways (window
arithmetic vs. explicit interval unions). Sampled alphas are dyadic
rationals with 128 fractional bits: exactly representable, floor-exact,
and indistinguishable from irrationals at any in-range x.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .certified import (CertifiedReal, _AffineEval, companion_limit, normalized_statistic,
                        pair_hits)
from .errors import ParameterError
from .intervals import IntervalSet
from .primes import PrimeTable, is_prime, sieve_primes
from .selberg import _tree_sum

SAMPLE_BITS = 128


@dataclass(frozen=True)
class ExperimentConfig:
    c1: Fraction
    c2: Fraction
    beta: CertifiedReal
    x_grid: tuple[int, ...] = (1000,)
    samples: int = 100
    seed: int = 0
    delta: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        object.__setattr__(self, "x_grid", tuple(int(x) for x in self.x_grid))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.c1 <= self.c2:
            raise ParameterError("need 0 < c1 <= c2")
        if list(self.x_grid) != sorted(self.x_grid) or any(x < 1 for x in self.x_grid):
            raise ParameterError("x_grid must be ascending positive integers")
        if self.samples < 1:
            raise ParameterError("samples must be >= 1")
        if not 0 <= self.delta <= 1:
            raise ParameterError("delta must be in [0, 1]")


@dataclass(frozen=True)
class ScanRow:
    alpha_spec: str
    x: int
    pair_count: int
    statistic: float


def j_interval(p: int, q: int, beta: CertifiedReal, I: IntervalSet) -> IntervalSet:
    """{alpha in I : floor(alpha p + beta) = q} = [(q-b)/p, (q+1-b)/p) clipped to I."""
    if not is_prime(p):
        raise ParameterError(f"p = {p} is not prime")
    if q < 2:
        return IntervalSet()
    b = beta.as_fraction()
    if b is None:
        raise ParameterError("j_interval needs an exact rational beta")
    return IntervalSet.single(Fraction(q - b, p), Fraction(q + 1 - b, p)).intersect(I)


def _require_exact_beta(cfg: ExperimentConfig) -> Fraction:
    b = cfg.beta.as_fraction()
    if b is None:
        raise ParameterError(
            "exact integral needs rational beta; use integral_enclosure instead")
    return b


def _top_eval(cfg: ExperimentConfig) -> _AffineEval:
    """Evaluator at alpha = c2: its companions bound those of every alpha in [c1, c2]."""
    return _AffineEval(CertifiedReal.rational(cfg.c2), cfg.beta)


def integral_exact(cfg: ExperimentConfig, x: int,
                   primes: PrimeTable | None = None) -> Fraction:
    """Exact rational value of the pair-count integral over [c1, c2].

    Interior companions q (window fully inside I) contribute 1/p each and
    are counted through pi-differences; only the O(1) boundary companions
    per prime need clipped-measure arithmetic.
    """
    beta = _require_exact_beta(cfg)
    table = primes if primes is not None else sieve_primes(companion_limit([_top_eval(cfg)], x))
    c1, c2 = cfg.c1, cfg.c2

    terms = []
    for p in table.primes_upto(x).tolist():
        A = c1 * p + beta
        B = c2 * p + beta
        q_lo = (A - 1).__floor__() + 1
        q_hi = B.__floor__()
        if q_hi < 2:
            continue
        qA = -((-A).__floor__())  # ceil(A)
        qB = (B - 1).__floor__()
        lo_int, hi_int = max(qA, 2), qB
        if lo_int <= hi_int:
            n_interior = table.count(hi_int) - table.count(lo_int - 1)
            if n_interior:
                terms.append(Fraction(n_interior, p))
        boundary = set(range(max(q_lo, 2), min(qA, q_hi + 1)))
        boundary.update(range(max(qB + 1, max(q_lo, 2)), q_hi + 1))
        for q in boundary:
            if not table.is_prime(q):
                continue
            lo = max(c1, Fraction(q - beta, p))
            hi = min(c2, Fraction(q + 1 - beta, p))
            if lo < hi:
                terms.append(hi - lo)
    return _tree_sum(terms)


def integral_by_intervals(cfg: ExperimentConfig, x: int,
                          primes: PrimeTable | None = None) -> Fraction:
    """Same integral assembled the other way: sum_p mes(union_q J_{p,q} cap I)."""
    beta = _require_exact_beta(cfg)
    table = primes if primes is not None else sieve_primes(companion_limit([_top_eval(cfg)], x))
    I = IntervalSet.single(cfg.c1, cfg.c2)
    total = Fraction(0)
    for p in table.primes_upto(x).tolist():
        q_lo = (cfg.c1 * p + beta - 1).__floor__() + 1
        q_hi = (cfg.c2 * p + beta).__floor__()
        union = IntervalSet([piece for q in range(max(2, q_lo), q_hi + 1) if table.is_prime(q)
                             for piece in j_interval(p, q, cfg.beta, I)])
        total += union.measure()
    return total


def integral_enclosure(cfg: ExperimentConfig, x: int,
                       bits: int = 128) -> tuple[Fraction, Fraction]:
    """Certified enclosure of the integral for inexact (cf/quadratic) beta.

    Evaluates the exact sum at both dyadic endpoints of beta's enclosure
    and widens by the Lipschitz slack of the sum in beta.
    """
    if cfg.beta.as_fraction() is not None:
        v = integral_exact(cfg, x)
        return v, v
    blo, bhi = cfg.beta.enclosure(bits)
    subs = [ExperimentConfig(cfg.c1, cfg.c2, CertifiedReal.rational(b),
                             cfg.x_grid, cfg.samples, cfg.seed, cfg.delta) for b in (blo, bhi)]
    table = sieve_primes(companion_limit([_top_eval(subs[1])], x))  # bhi's table covers blo
    raw = [integral_exact(sub, x, table) for sub in subs]
    # the sum is continuous piecewise-linear in beta with |slope| bounded by
    # sum_p (n_p + 1) * 2/p <= (2*(c2 - c1) + 6) * x, since n_p <= (c2-c1)p + 2
    slack = (bhi - blo) * (2 * (cfg.c2 - cfg.c1) + 6) * x
    return min(raw) - slack, max(raw) + slack


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    stderr: float
    samples: int
    seed: int


def sample_alphas(cfg: ExperimentConfig) -> list[Fraction]:
    """Deterministic dyadic samples, uniform on (c1, c2), one per index.

    Each index draws its own 128-bit stream from sha256(seed, index), so
    results are independent of evaluation order and thread schedule.
    """
    width = cfg.c2 - cfg.c1
    out = []
    for i in range(cfg.samples):
        digest = hashlib.sha256(f"{cfg.seed}:{i}".encode()).digest()
        u = int.from_bytes(digest[:SAMPLE_BITS // 8], "big")
        out.append(cfg.c1 + width * Fraction(u, 1 << SAMPLE_BITS))
    return out


def integral_monte_carlo(cfg: ExperimentConfig, x: int,
                         primes: PrimeTable | None = None) -> MonteCarloResult:
    """Plain Monte Carlo estimate of the integral with a seeded dyadic stream."""
    if cfg.samples < 100:
        raise ParameterError("Monte Carlo needs samples >= 100")
    table = primes if primes is not None else sieve_primes(companion_limit([_top_eval(cfg)], x))
    ps = table.primes_upto(x)
    counts = []
    for a in sample_alphas(cfg):
        _, hits = pair_hits(_AffineEval(CertifiedReal.rational(a), cfg.beta), ps, table)
        counts.append(int(hits.sum()))
    width = float(cfg.c2 - cfg.c1)
    n = len(counts)
    mean = sum(counts) / n
    var = sum((c - mean) ** 2 for c in counts) / (n - 1) if n > 1 else 0.0
    return MonteCarloResult(mean=width * mean,
                            stderr=width * math.sqrt(var / n),
                            samples=n, seed=cfg.seed)


@dataclass(frozen=True)
class RatioReport:
    x: int
    integral: Fraction
    ratio: float              # integral * (log x)^2 / (x * (c2 - c1))
    sum_inv_log_ratio: float  # sum_{p <= x} 1/log p, same normalization


def lower_bound_ratio(cfg: ExperimentConfig, x: int,
                      primes: PrimeTable | None = None) -> RatioReport:
    """Normalized integral, with the prime-harmonic comparison series."""
    if x < 100:
        raise ParameterError("lower_bound_ratio needs x >= 100")
    table = primes if primes is not None else sieve_primes(companion_limit([_top_eval(cfg)], x))
    val = integral_exact(cfg, x, table)
    s = sum(1.0 / math.log(p) for p in table.primes_upto(x).tolist())
    return RatioReport(x=x, integral=val,
                       ratio=normalized_statistic(val / (cfg.c2 - cfg.c1), x),
                       sum_inv_log_ratio=normalized_statistic(s, x))


def scan_alpha(cfg: ExperimentConfig, pins: tuple[str, ...] = (),
               threads: int = 1) -> list[ScanRow]:
    """Pair counts and statistics for pinned + sampled alphas over the x grid.

    Deterministic under (seed, samples, pins): sampled alphas derive from
    per-index streams and results are emitted in input order regardless
    of thread count.
    """
    if threads < 1:
        raise ParameterError("threads must be >= 1")
    xmax = max(cfg.x_grid)
    alphas = [CertifiedReal.parse(spec) for spec in pins]
    alphas += [CertifiedReal.rational(a) for a in sample_alphas(cfg)]
    jobs = [(cr.spec_string(), _AffineEval(cr, cfg.beta)) for cr in alphas]

    table = sieve_primes(companion_limit([ev for _, ev in jobs], xmax))
    ps = table.primes_upto(xmax)

    def run(job):
        spec, ev = job
        _, hits = pair_hits(ev, ps, table)
        rows = []
        for x in cfg.x_grid:
            idx = int(table.count(x))
            count = int(hits[:idx].sum())
            rows.append(ScanRow(spec, x, count, normalized_statistic(count, x)))
        return rows

    if threads == 1:
        nested = [run(j) for j in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            nested = list(pool.map(run, jobs))
    return [row for rows in nested for row in rows]


@dataclass(frozen=True)
class ExceptionalReport:
    x: int
    delta: Fraction
    fraction: Fraction        # share of sampled alphas at or below (1 - delta)
    observed_max_statistic: float
    bound_shape: float | None  # (C-1)/(C-1+delta/2) with C = observed max, if C > 1


def exceptional_fraction(cfg: ExperimentConfig, x: int) -> ExceptionalReport:
    """Empirical share of sampled alphas with statistic <= 1 - delta."""
    if cfg.samples < 100:
        raise ParameterError("exceptional_fraction needs samples >= 100")
    rows = scan_alpha(ExperimentConfig(cfg.c1, cfg.c2, cfg.beta, (x,),
                                       cfg.samples, cfg.seed, cfg.delta))
    stats = [r.statistic for r in rows]
    threshold = 1.0 - float(cfg.delta)
    below = sum(1 for s in stats if s <= threshold)
    cmax = max(stats) if stats else 0.0
    shape = None
    if cmax > 1:
        shape = (cmax - 1) / (cmax - 1 + float(cfg.delta) / 2)
    return ExceptionalReport(x=x, delta=cfg.delta,
                             fraction=Fraction(below, len(stats)),
                             observed_max_statistic=cmax, bound_shape=shape)


_SVG_COLORS = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#2c3e50")


def scan_svg(rows: list[ScanRow], width: int = 640, height: int = 400) -> str:
    """Minimal standalone SVG 1.1: statistic vs log10(x), one polyline per alpha."""
    if not rows:
        raise ParameterError("no rows to plot")
    specs = []
    for r in rows:
        if r.alpha_spec not in specs:
            specs.append(r.alpha_spec)
    xs = [math.log10(r.x) for r in rows]
    ys = [r.statistic for r in rows]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [1.0])
    pad = 40

    def sx(v):
        return pad + (width - 2 * pad) * ((v - x0) / (x1 - x0) if x1 > x0 else 0.5)

    def sy(v):
        return height - pad - (height - 2 * pad) * ((v - y0) / (y1 - y0) if y1 > y0 else 0.5)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" '
        f'text-anchor="middle">log10(x)</text>',
        f'<text x="12" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {height // 2})">count (log x)^2 / x</text>',
    ]
    for i, spec in enumerate(specs):
        pts = [(sx(math.log10(r.x)), sy(r.statistic)) for r in rows if r.alpha_spec == spec]
        pts.sort()
        path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 4}" y="{pad + 14 * i}" font-size="10" '
                     f'fill="{color}">{spec[:24]}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
