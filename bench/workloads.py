"""The benchmark's workloads: seeded inputs, the ops that run them, and their checks.

Four parts (scan, pairs, congruence, integral) make the ops; each of the two
workloads mixes two of them (`Mix`, `WORKLOADS`). Every input of a part comes
from `random.Random(f"{part}:{seed}")`; the library
receives only the generated spec strings and numbers. Ops are laid out in
cycles with a fixed mix of op types. Each sized parameter (x, y, z, dmax,
samples, qmax) is drawn by stratified sampling over 16 equal bins (in log
space for ranges that span decades), visited in the same bit-reversed order
under every seed, and each cost-relevant choice (generator kind, number of
prime factors of d, sampled alphas per scan) follows a fixed pattern. The
seed picks the value inside each bin and every other input (square-free k,
windows, shifts, sampling seeds, d within its class). Any stretch of a run therefore has
the same size mix under every seed: the median and tail latency of a mix
of ops whose costs span decades are unstable otherwise. The first ops of a
run are pinned: the pre-registered checks and the largest inputs (so the
peak memory of a run does not depend on the seed).

An op's `run()` parses its specs and calls the library; its `check(out, ctx)`
compares the output with an independent route (`reference`) or with a
sibling op's output, and raises `CheckFailed` on a mismatch.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import numpy as np

import beattylab as B
import beattylab.cli  # noqa: F401  (the pairs workload calls beattylab.cli.main)

import reference as ref

R = B.CertifiedReal.parse
SQFREE_K = [k for k in range(2, 51) if ref.squarefree(k)]
VEC_SQRT_CAP = 1 << 52  # float64 isqrt bound of the quadratic vector floor path


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Op:
    """One call into the library with its inputs fixed.

    `type` names the op kind, `desc` renders the inputs canonically (the
    determinism self-check compares it), `params` feeds the composition
    report, and `ref_limit` is the prime range the check needs.
    """

    __slots__ = ("type", "desc", "params", "run", "check", "ref_limit", "digest", "part")

    def __init__(self, type_, params, run, check, ref_limit=2, digest=None):
        self.part = None  # the part of a mixed workload that made the op
        self.type = type_
        self.params = params
        self.desc = type_ + " " + " ".join(f"{k}={v}" for k, v in params.items())
        self.run = run
        self.check = check
        self.ref_limit = ref_limit
        # what of the output the check needs, kept until the checks run after
        # the timed loop (a whole output would weigh on the run's peak memory)
        self.digest = digest or (lambda out: out)


class Stratified:
    """Draws on [lo, hi) from 16 equal bins, one seeded uniform value inside each bin.

    Bins are visited in bit-reversed order of a counter: every aligned run of
    2^a draws takes one value from each of 2^a coarse bins, so a prefix of
    any length is close to balanced.
    """

    BITS = 4

    def __init__(self, rng, lo, hi, log=False, integer=False):
        self.rng, self.log, self.integer = rng, log, integer
        self.lo, self.hi = (math.log(lo), math.log(hi)) if log else (lo, hi)
        self.i = 0

    def draw(self):
        k = 1 << self.BITS
        j = int(f"{self.i % k:0{self.BITS}b}"[::-1], 2)
        self.i += 1
        v = self.lo + (j + self.rng.random()) / k * (self.hi - self.lo)
        v = math.exp(v) if self.log else v
        return int(v) if self.integer else v


class Cycle:
    """Items in turn, so each item's share of any stretch of draws is fixed."""

    def __init__(self, items):
        self.items, self.i = list(items), 0

    def draw(self):
        self.i += 1
        return self.items[(self.i - 1) % len(self.items)]


def _frac_spec(fr: Fraction) -> str:
    return f"rat:{fr.numerator}/{fr.denominator}"


def quadratic_spec(rng, x=None, shift=True, below_one=False):
    """sqrt(k)/m (+ s): k square-free <= 50, m = ceil(sqrt(k)/2) so sqrt(k)/m is in (1, 2].

    With `below_one` the value is sqrt(k)/(floor(sqrt(k)) + 1) in (0, 1). With
    `x`, k and the shift are limited so that every lane n <= x stays on the
    vector floor path (coefficient of sqrt(k) squared times k below 2^52).
    """
    den = rng.choice((1, 2)) if shift else 1
    ks = SQFREE_K
    if x is not None:
        ks = [k for k in SQFREE_K if k * (den * x) ** 2 < VEC_SQRT_CAP]
        if not ks:
            den = 1
            ks = [k for k in SQFREE_K if k * x * x < VEC_SQRT_CAP]
    k = rng.choice(ks)
    m = math.isqrt(k) + 1 if below_one else math.ceil(math.sqrt(k) / 2)
    spec = f"sqrt:{k}*1/{m}"
    if den == 2:
        spec += "+1/2"
    return spec


def rational_spec(rng, lo: Fraction, hi: Fraction, qmax: int = 50) -> str:
    while True:
        q = rng.randint(2, qmax)
        p = rng.randint(math.ceil(lo * q), math.floor(hi * q))
        fr = Fraction(p, q)
        if fr.denominator > 1 and lo <= fr <= hi:
            return _frac_spec(fr)


def dyadic_spec(rng) -> str:
    """A 128-bit dyadic rational in [1/2, 3)."""
    n = (1 << 127) + rng.randrange(5 << 127)
    return _frac_spec(Fraction(n | 1, 1 << 128))


def cf_spec(rng) -> str:
    """A continued-fraction prefix in [1, 3) whose last convergent denominator exceeds 2^256.

    That bracket is narrower than 2^-512, so a floor at n <= 1e6 certifies
    unless alpha*n + beta lies within 2^-490 of an integer.
    """
    qs = [rng.randint(1, 2)]
    k0, k1 = 0, 1
    while k1 < 1 << 256:
        a = rng.randint(1, 9)
        qs.append(a)
        k0, k1 = k1, a * k1 + k0
    return "cf:" + ":".join(map(str, qs))


def window(rng) -> tuple[Fraction, Fraction]:
    """A rational alpha window [c1, c2] inside [1/2, 3], endpoints in eighths."""
    i = rng.randint(4, 22)
    j = rng.randint(i + 2, 24)
    return Fraction(i, 8), Fraction(j, 8)


def half_window(rng) -> tuple[Fraction, Fraction]:
    """A window of width 1/2 inside [1/2, 3]; integral_by_intervals costs about width * x^2."""
    c1 = Fraction(rng.randint(4, 20), 8)
    return c1, c1 + Fraction(1, 2)


def small_rational(rng) -> Fraction:
    """A rational in [0, 1) with denominator at most 8."""
    b = rng.randint(1, 8)
    return Fraction(rng.randint(0, b - 1), b)


def eighth_root_ceil(x: int) -> int:
    z = 1
    while z ** 8 < x:
        z += 1
    return z


# ------------------------------------------------------------------ scan

SCAN_GRID = (10 ** 4, 10 ** 5, 10 ** 6)
SCAN_PIN = "sqrt:2"
SCAN_TABLE_LIMIT = 3 * 10 ** 6 + 2  # covers floor(alpha*x + beta) for alpha < 3, beta < 1


class Scan:
    """scan_alpha calls alternating with beatty_prime_pairs on one shared table.

    Why: the certified floor kernel does about 95% of the work and the sieve
    under 2%, so a faster floor kernel shows here; every generator kind is
    exercised (the B ops cycle through them).
    """

    tail_pct = 75
    kinds = ("rational", "dyadic", "quadratic", "twosqrt", "cf")
    # sampled alphas of the scan_alpha calls of one cycle: the same in every cycle.
    # Sorted by cost, a cycle is the five pair counts, then the scans by samples;
    # one scan with 4 samples covers the 6th of 11 ops and two with 6 cover the
    # 8th and 9th, so the median and the p75 sit inside one op class, not on the
    # edge between two classes whose costs differ.
    samples = (4, 5, 6, 7, 8, 6)
    split = ("certified takes most of the op time, primes.sieve_primes little",
             lambda sh: sh.get("certified", 0) > 0.5 and sh.get("primes.sieve_primes", 0) < 0.05)

    def __init__(self, rng):
        self.rng = rng
        self.table = None

    def setup(self):
        self.table = B.sieve_primes(SCAN_TABLE_LIMIT)

    def pinned(self):
        return []

    def cycle(self):
        # A B A B ... A: one more scan than pair counts, so the median op is a
        # scan_alpha call rather than the midpoint between the two op kinds
        ops = []
        for kind, samples in zip(self.kinds, self.samples):
            ops.append(self.scan_op(samples))
            ops.append(self.pairs_op(kind))
        ops.append(self.scan_op(self.samples[-1]))
        return ops

    def scan_op(self, samples):
        c1, c2 = window(self.rng)
        seed = self.rng.getrandbits(32)

        def run():
            cfg = B.ExperimentConfig(c1, c2, R("rat:0/1"), SCAN_GRID, samples, seed)
            return B.scan_alpha(cfg, pins=(SCAN_PIN,))

        def check(rows, ctx):
            specs = [R(SCAN_PIN).spec_string()] + [
                _frac_spec(a) for a in ref.sample_alphas(c1, c2, seed, samples)]
            expect(len(rows) == len(specs) * len(SCAN_GRID), "scan row count")
            primes = ctx.primes
            ps = primes.upto(SCAN_GRID[-1])
            zero = R("rat:0/1")
            for j, spec in enumerate(specs):
                hits = ref.pair_hits(R(spec), zero, ps, primes)
                for i, x in enumerate(SCAN_GRID):
                    row = rows[j * len(SCAN_GRID) + i]
                    count = int(hits[:primes.pi(x)].sum())
                    expect(row.alpha_spec == spec and row.x == x, f"scan row order at {spec}")
                    expect(row.pair_count == count, f"scan {spec} x={x}: {row.pair_count} != {count}")
                    expect(row.statistic == count * math.log(x) ** 2 / x, "scan statistic")
                    if spec == specs[0] and x in ref.PAIRS_SQRT2:
                        expect(count == ref.PAIRS_SQRT2[x], "pre-registered sqrt(2) pair count")

        return Op("scan_alpha", {"c1": c1, "c2": c2, "samples": samples, "seed": seed,
                                 "x": SCAN_GRID[-1]},
                  run, check, ref_limit=3 * SCAN_GRID[-1] + 2)

    def pairs_op(self, kind):
        rng = self.rng
        beta = "rat:0/1"
        x = 10 ** 6
        if kind == "rational":
            alpha, beta = rational_spec(rng, Fraction(1, 2), Fraction(3)), \
                _frac_spec(small_rational(rng))
        elif kind == "dyadic":
            alpha = dyadic_spec(rng)
        elif kind == "quadratic":
            alpha = quadratic_spec(rng)
        elif kind == "twosqrt":
            alpha = quadratic_spec(rng, shift=False)
            k_alpha = int(alpha[5:].split("*")[0])
            while True:
                beta = quadratic_spec(rng, shift=False, below_one=True)
                if int(beta[5:].split("*")[0]) != k_alpha:
                    break
            x = 10 ** 5
        else:
            alpha = cf_spec(rng)
            x = 10 ** 5
        def run():
            return B.beatty_prime_pairs(R(alpha), R(beta), x, self.table)

        def check(pc, ctx):
            hits = ref.pair_hits(R(alpha), R(beta), ctx.primes.upto(x), ctx.primes)
            expect(pc.count == int(hits.sum()), f"pairs {kind} {alpha}: {pc.count} != {hits.sum()}")

        return Op("beatty_prime_pairs", {"kind": kind, "alpha": alpha, "beta": beta, "x": x},
                  run, check, ref_limit=3 * x + 2)


# ------------------------------------------------------------------ pairs

class Pairs:
    """`beattylab pairs --alpha A --x X --out F`, in-process through beattylab.cli.main.

    Why: each op builds its own sieve up to about alpha*x and takes the
    vector floor path, so primes and cli do most of the work; a change to
    the floor kernel should leave this workload unchanged.
    """

    tail_pct = 90
    split = ("primes (sieve plus membership) is the largest layer",
             lambda sh: max((v, k) for k, v in sh.items() if "." not in k)[1] == "primes")

    def __init__(self, rng):
        self.rng = rng
        self.x = {kind: Stratified(rng, 10 ** 6, 3 * 10 ** 7, log=True, integer=True)
                  for kind in ("quadratic", "rational")}
        self.phi = Cycle((True,) + (False,) * 4)
        self.out_dir = None

    def setup(self):
        self.out_dir = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
        os.makedirs(self.out_dir, exist_ok=True)

    def pinned(self):
        # the pre-registered count, then the largest sieve the workload can ask for
        return [self.op(SCAN_PIN, 10 ** 6, "quadratic"),
                self.op("rat:79/40", 3 * 10 ** 7 - 1, "rational")]

    def cycle(self):
        ops = []
        for kind in ("quadratic", "rational"):
            x = self.x[kind].draw()
            if kind == "rational":
                alpha = rational_spec(self.rng, Fraction(1), Fraction(2))
            elif self.phi.draw() and 20 * x * x < VEC_SQRT_CAP:
                alpha = "phi"
            else:
                alpha = quadratic_spec(self.rng, x=x)
            ops.append(self.op(alpha, x, kind))
        return ops

    def op(self, alpha, x, kind):
        def run():
            path = os.path.join(self.out_dir, "pairs.csv")
            rc = B.cli.main(["pairs", "--alpha", alpha, "--x", str(x), "--out", path])
            with open(path) as fh:
                return rc, fh.read()

        def check(out, ctx):
            rc, text = out
            expect(rc == 0, f"pairs exit code {rc}")
            lines = text.splitlines()
            expect(lines[0] == "alpha_spec,beta_spec,x,count,statistic" and len(lines) == 2,
                   "pairs CSV layout")
            spec, beta, xs, count, stat = lines[1].split(",")
            expect(spec == R(alpha).spec_string() and beta == "rat:0/1" and int(xs) == x,
                   "pairs CSV inputs")
            hits = ref.pair_hits(R(alpha), R("rat:0/1"), ctx.primes.upto(x), ctx.primes)
            expect(int(count) == int(hits.sum()), f"pairs {alpha} x={x}: {count} != {hits.sum()}")
            expect(stat == repr(int(count) * math.log(x) ** 2 / x), "pairs statistic")
            if alpha == SCAN_PIN and x in ref.PAIRS_SQRT2:
                expect(int(count) == ref.PAIRS_SQRT2[x], "pre-registered sqrt(2) pair count")

        return Op("cli.pairs", {"kind": kind, "alpha": alpha, "x": x}, run, check,
                  ref_limit=2 * x + 2)


# ------------------------------------------------------------------ congruence

class Congruence:
    """Congruence counts, their Mobius decomposition, and the Selberg sieve sums.

    Why: the floor kernel runs over the dense range n <= x, followed by
    numpy masks and Fraction sums whose cost grows with x. One query with a
    square-free modulus near 1e12 sits at a fixed early position, so the
    state-dependent factorize slowdown shows at a realistic size.
    """

    tail_pct = 90
    split = ("congruence and selberg take most of the op time",
             lambda sh: sh.get("congruence", 0) + sh.get("selberg", 0) > 0.5)

    def __init__(self, rng):
        self.rng = rng
        self.dev_x = Stratified(rng, 10 ** 5, 10 ** 6, log=True, integer=True)
        self.dev_dmax = Stratified(rng, 30, 101, integer=True)
        self.query_x = Stratified(rng, 10 ** 4, 10 ** 5, log=True, integer=True)
        self.sieve_x = Stratified(rng, 10 ** 4, 10 ** 6, log=True, integer=True)
        self.sieve_z = Stratified(rng, 0, 1)
        self.pbc_x = Stratified(rng, 10 ** 4, 10 ** 6, log=True, integer=True)
        self.sums_z = Stratified(rng, 10 ** 3, 2 * 10 ** 4, log=True, integer=True)
        # one alpha-kind and beta stream per op family, so each family sees every kind
        self.alpha_kind = {f: Cycle(("quadratic", "rational", "quadratic", "phi"))
                           for f in ("dev", "query", "sieve", "pbc")}
        self.beta_spec = {f: Cycle(("rat:0/1", "rat:1/2", "rat:1/2", "rat:0/1"))
                          for f in ("dev", "query", "sieve", "pbc")}
        # square-free d <= 210 by number of prime factors: 1, 2, and 3 or 4
        by_omega = {}
        for d in range(2, 211):
            if ref.squarefree(d):
                by_omega.setdefault(min(len(ref.prime_factors(d)), 3), []).append(d)
        self.d_class = Cycle(by_omega[w] for w in sorted(by_omega))

    def setup(self):
        pass

    def alpha(self, family):
        kind = self.alpha_kind[family].draw()
        if kind == "rational":
            return "rat:7/5"
        return "phi" if kind == "phi" else quadratic_spec(self.rng)

    def beta(self, family):
        return self.beta_spec[family].draw()

    def pinned(self):
        def prime_near(n):
            while ref.prime_factors(n) != [n]:
                n += 1
            return n

        p1 = prime_near(990_000 + self.rng.randrange(9_000))
        p2 = prime_near(1_000_000 + self.rng.randrange(9_000))
        # the pre-registered count, the large modulus, then the largest inputs
        return [self.pbc_op(SCAN_PIN, "rat:0/1", 10 ** 4)] + \
            self.query_ops(quadratic_spec(self.rng), "rat:0/1", 50_000, p1 * p2) + \
            [self.dev_op(quadratic_spec(self.rng), "rat:1/2", 10 ** 6, 100)] + \
            self.sieve_ops(quadratic_spec(self.rng), "rat:1/2", 10 ** 6, z=60) + \
            [self.pbc_op(quadratic_spec(self.rng), "rat:0/1", 10 ** 6)]

    def cycle(self):
        ops = [self.dev_op(self.alpha("dev"), self.beta("dev"), self.dev_x.draw(),
                           self.dev_dmax.draw())]
        ops += self.query_ops(self.alpha("query"), self.beta("query"), self.query_x.draw(),
                              self.rng.choice(self.d_class.draw()))
        ops += self.sieve_ops(self.alpha("sieve"), self.beta("sieve"), self.sieve_x.draw())
        ops.append(self.pbc_op(self.alpha("pbc"), self.beta("pbc"), self.pbc_x.draw()))
        ops += self.sums_ops(self.sums_z.draw())
        return ops

    def dev_op(self, alpha, beta, x, dmax):
        probe = self.rng.choice([d for d in range(2, dmax + 1) if ref.squarefree(d)])

        def run():
            return B.deviation_report(R(alpha), R(beta), x, dmax)

        def check(rows, ctx):
            ds = [d for d in range(1, dmax + 1) if ref.squarefree(d)]
            expect([r.d for r in rows] == ds, "deviation rows")
            for r in rows:
                main = ref.main_term(x, r.d)
                expect(r.main == main and r.abs_error == abs(r.count - main)
                       and r.normalized_error == r.abs_error * r.d / x, f"deviation row d={r.d}")
            expect(rows[0].count == x, "deviation d=1")
            for d in (probe, ds[-1]):
                got = next(r.count for r in rows if r.d == d)
                want = ref.congruence_count(R(alpha), R(beta), x, d)
                expect(got == want, f"deviation d={d}: {got} != {want}")

        return Op("deviation_report", {"alpha": alpha, "beta": beta, "x": x, "d": dmax},
                  run, check)

    def query_ops(self, alpha, beta, x, d):
        shared = {}
        ops = []
        for name, call in (("count_direct", lambda q: B.count_direct(q)),
                           ("count_mobius.paper", lambda q: B.count_mobius(q, "paper")),
                           ("count_mobius.alternative",
                            lambda q: B.count_mobius(q, "alternative"))):
            def run(call=call):
                return call(B.CongruenceQuery(R(alpha), R(beta), x, d))

            def check(count, ctx, name=name):
                if "want" not in shared:
                    shared["want"] = ref.congruence_count(R(alpha), R(beta), x, d)
                expect(count == shared["want"], f"{name} d={d}: {count} != {shared['want']}")
                if name == "count_direct":
                    shared["direct"] = count
                elif "direct" in shared:
                    expect(count == shared["direct"], f"{name} != count_direct at d={d}")

            ops.append(Op(name, {"alpha": alpha, "beta": beta, "x": x, "d": d}, run, check))
        return ops

    def sieve_ops(self, alpha, beta, x, z=None):
        if z is None:
            z0 = eighth_root_ceil(x)
            z = z0 + int(self.sieve_z.draw() * (61 - z0))
        shared = {}

        def sifted_ref():
            if "sifted" not in shared:
                ns = np.arange(1, x + 1, dtype=np.int64)
                fs = ref.floors(R(alpha), R(beta), ns)
                keep = np.ones(x, dtype=bool)
                for p in ref.primes_upto(z - 1):
                    keep &= (ns % p != 0) & (fs % p != 0)
                shared["sifted"] = int(keep.sum())
            return shared["sifted"]

        def run_bound():
            return B.selberg_upper_bound(R(alpha), R(beta), x, z)

        def check_bound(sb, ctx):
            expect(sb.expanded_bound == sb.quadratic_form_bound, "selberg pointwise != expanded")
            expect(sb.sifted <= sb.quadratic_form_bound, "sifted above the Lambda^2 bound")
            expect(sb.main_term == x / sb.normalizer, "selberg main term")
            expect(sb.sifted == sifted_ref(), f"selberg sifted {sb.sifted} != {sifted_ref()}")
            shared["bound"] = sb.sifted

        def run_sifted():
            return B.sifted_count(R(alpha), R(beta), x, z)

        def check_sifted(count, ctx):
            expect(count == sifted_ref(), f"sifted_count {count} != {sifted_ref()}")
            if "bound" in shared:
                expect(count == shared["bound"], "sifted_count != SieveBound.sifted")

        params = {"alpha": alpha, "beta": beta, "x": x, "z": z}
        return [Op("selberg_upper_bound", params, run_bound, check_bound),
                Op("sifted_count", params, run_sifted, check_sifted)]

    def pbc_op(self, alpha, beta, x):
        def run():
            return B.pair_bound_check(R(alpha), R(beta), x)

        def check(rep, ctx):
            expect(rep.containment_ok, "pair_bound_check containment")
            expect(rep.pair_count <= rep.sifted + rep.pairs_below_threshold,
                   "pair count above sifted + below-threshold pairs")
            hits = ref.pair_hits(R(alpha), R(beta), ctx.primes.upto(x), ctx.primes)
            expect(rep.pair_count == int(hits.sum()), f"pair_bound_check pi* {rep.pair_count}")
            if alpha == SCAN_PIN and beta == "rat:0/1" and x in ref.PAIRS_SQRT2:
                expect(rep.pair_count == ref.PAIRS_SQRT2[x], "pre-registered sqrt(2) pair count")

        return Op("pair_bound_check", {"alpha": alpha, "beta": beta, "x": x}, run, check,
                  ref_limit=3 * x + 2)

    def sums_ops(self, z):
        shared = {}

        def residues():
            if not shared:
                g = h = 0
                for m in range(1, z):
                    ps = ref.prime_factors(m)
                    if math.prod(ps) != m:
                        continue
                    gm = hm = 1
                    for p in ps:
                        gm = gm * (2 * p - 1) * pow(p * p, -1, ref.MOD) % ref.MOD
                        hm = hm * (2 * p - 1) * pow((p - 1) ** 2, -1, ref.MOD) % ref.MOD
                    g, h = (g + gm) % ref.MOD, (h + hm) % ref.MOD
                num = den = 1
                for p in ref.primes_upto(z - 1):
                    num, den = num * p * p, den * (p - 1) ** 2
                shared.update(big_g=g, normalizer=h, product_lower=Fraction(num, den))
            return shared

        ops = []
        for name in ("big_g", "normalizer", "product_lower"):
            def run(name=name):
                return getattr(B, name)(z)

            def check(v, ctx, name=name):
                want = residues()[name]
                got = v if name == "product_lower" else ref.residue_of(v)
                expect(got == want, f"{name}({z}) differs from the independent sum")
                shared[name + ".out"] = v
                g, n, p = (shared.get(k + ".out") for k in ("big_g", "normalizer", "product_lower"))
                expect(g is None or n is None or n >= g, "normalizer < big_g")
                expect(n is None or p is None or p >= n, "product_lower < normalizer")

            ops.append(Op(name, {"z": z}, run, check))
        return ops


# ------------------------------------------------------------------ integral

class Integral:
    """Exact and sampled alpha-integrals, fractional-part hit counts, Farey unions.

    Why: this workload works one element at a time (Fraction arithmetic,
    IntervalSet canonicalisation, scalar floors and compares, scalar
    PrimeTable lookups) and builds no large arrays, so a vector-kernel
    change that slows the scalar path shows here.
    """

    tail_pct = 75
    split = ("experiment, intervals and diophantine take most of the op time",
             lambda sh: sh.get("experiment", 0) + sh.get("intervals", 0)
             + sh.get("diophantine", 0) > 0.5)

    def __init__(self, rng):
        self.rng = rng
        self.exact_x = Stratified(rng, 10 ** 4, 10 ** 5, log=True, integer=True)
        self.iv_x = Stratified(rng, 200, 601, integer=True)
        self.mc_x = Stratified(rng, 10 ** 3, 10 ** 4, log=True, integer=True)
        self.mc_s = Stratified(rng, 100, 401, integer=True)
        self.mcq_x = Stratified(rng, 10 ** 3, 10 ** 4, log=True, integer=True)
        self.mcq_s = Stratified(rng, 100, 401, integer=True)
        self.hits_y = {kind: Stratified(rng, 10 ** 4, 5 * 10 ** 4, log=True, integer=True)
                       for kind in ("quadratic", "cf")}
        self.farey_q = Stratified(rng, 50, 201, integer=True)
        self.farey_j = Cycle(range(1, 5))
        self.sandwich_y = Stratified(rng, 10 ** 3, 10 ** 4 + 1, log=True, integer=True)

    def setup(self):
        pass

    def pinned(self):
        # the pre-registered integral, then the largest Farey union (the peak memory)
        return [self.exact_op(Fraction(1), Fraction(2), Fraction(0), 10 ** 3),
                self.farey_op(200, j=4)]

    def cycle(self):
        rng = self.rng
        ops = [self.exact_op(*window(rng), small_rational(rng), self.exact_x.draw()),
               self.intervals_op(*half_window(rng), small_rational(rng), self.iv_x.draw())]
        for _ in range(2):
            ops.append(self.mc_op(*window(rng), _frac_spec(small_rational(rng)),
                                  self.mc_x.draw(), self.mc_s.draw()))
        ops.append(self.mc_op(*window(rng), quadratic_spec(rng, shift=False, below_one=True),
                              self.mcq_x.draw(), self.mcq_s.draw()))
        ops.append(self.hits_op(quadratic_spec(rng), "quadratic"))
        ops.append(self.hits_op(cf_spec(rng), "cf"))
        ops.append(self.farey_op(self.farey_q.draw()))
        ops.append(self.sandwich_op(quadratic_spec(rng), self.sandwich_y.draw()))
        return ops

    @staticmethod
    def _cfg(c1, c2, beta_spec, x, samples=100, seed=0):
        return B.ExperimentConfig(c1, c2, R(beta_spec), (x,), samples, seed)

    def exact_op(self, c1, c2, beta, x):
        def run():
            return B.integral_exact(self._cfg(c1, c2, _frac_spec(beta), x), x)

        def check(v, ctx):
            residue, approx = ref.integral_residue(c1, c2, beta, x, ctx.primes)
            expect(ref.residue_of(v) == residue, f"integral_exact x={x} differs mod 2^61-1")
            expect(math.isclose(float(v), approx, rel_tol=1e-9), "integral_exact float value")
            if (c1, c2, beta, x) == (1, 2, 0, 10 ** 3):
                expect(math.isclose(float(v), ref.INTEGRAL_1E3, rel_tol=1e-14),
                       "pre-registered integral at x=1e3")

        return Op("integral_exact", {"c1": c1, "c2": c2, "beta": beta, "x": x}, run, check,
                  ref_limit=3 * x + 2)

    def intervals_op(self, c1, c2, beta, x):
        def run():
            return B.integral_by_intervals(self._cfg(c1, c2, _frac_spec(beta), x), x)

        def check(v, ctx):
            want = B.integral_exact(self._cfg(c1, c2, _frac_spec(beta), x), x)
            expect(v == want, f"integral_by_intervals x={x} != integral_exact")
            residue, _ = ref.integral_residue(c1, c2, beta, x, ctx.primes)
            expect(ref.residue_of(v) == residue, "integral_by_intervals differs mod 2^61-1")

        return Op("integral_by_intervals", {"c1": c1, "c2": c2, "beta": beta, "x": x},
                  run, check, ref_limit=3 * x + 2)

    def mc_op(self, c1, c2, beta, x, samples):
        seed = self.rng.getrandbits(32)

        def run():
            return B.integral_monte_carlo(self._cfg(c1, c2, beta, x, samples, seed), x)

        def check(mc, ctx):
            ps = ctx.primes.upto(x)
            counts = [int(ref.pair_hits(R(_frac_spec(a)), R(beta), ps, ctx.primes).sum())
                      for a in ref.sample_alphas(c1, c2, seed, samples)]
            width = float(c2 - c1)
            mean = sum(counts) / samples
            var = sum((c - mean) ** 2 for c in counts) / (samples - 1)
            expect(mc.samples == samples and mc.mean == width * mean
                   and mc.stderr == width * math.sqrt(var / samples),
                   f"integral_monte_carlo x={x} samples={samples}")

        kind = "quadratic" if beta.startswith("sqrt") else "rational"
        return Op("integral_monte_carlo", {"beta_kind": kind, "c1": c1, "c2": c2, "beta": beta,
                                           "x": x, "samples": samples, "seed": seed},
                  run, check, ref_limit=3 * x + 3)

    def hits_op(self, alpha, kind):
        y = self.hits_y[kind].draw()
        beta = small_rational(self.rng)
        width = Fraction(1, self.rng.randint(2, 20))

        def run():
            return B.fractional_hits_report(R(alpha), R(_frac_spec(beta)), y, width)

        def check(rep, ctx):
            expect(rep.bound_ok, "HitsReport.bound_ok")
            want = ref.hits_count(R(alpha), R(_frac_spec(beta)), y, width)
            expect(rep.count == want, f"fractional_hits {alpha[:24]} y={y}: {rep.count} != {want}")
            expect(rep.expected == y * width, "fractional_hits expected")

        return Op("fractional_hits_report", {"kind": kind, "alpha": alpha, "beta": beta,
                                             "y": y, "width": width}, run, check)

    def farey_op(self, q_max, j=None):
        halfwidth = Fraction(1, (j or self.farey_j.draw()) * q_max)

        def run():
            return B.farey_union(1, q_max, halfwidth)

        def digest(fu):
            return fu.measure, fu.subadditive_bound, fu.set.measure()

        def check(out, ctx):
            measure, sub_bound, set_measure = out
            bound = sum(ref.totient(q) * 2 * halfwidth / q for q in range(1, q_max + 1))
            expect(sub_bound == bound, "farey subadditive bound")
            expect(measure == set_measure == ref.farey_measure(q_max, halfwidth),
                   f"farey_union measure at qmax={q_max}")
            expect(measure <= bound, "farey measure above its bound")

        return Op("farey_union", {"qmax": q_max, "halfwidth": halfwidth}, run, check,
                  digest=digest)

    def sandwich_op(self, alpha, y):
        beta = small_rational(self.rng)
        width = Fraction(1, self.rng.randint(2, 10))

        def run():
            a, q = B.best_convergent_denominator(R(alpha), math.isqrt(y))
            return a, q, B.sandwich_check(R(alpha), R(_frac_spec(beta)), y, width, a, q)

        def check(out, ctx):
            a, q, rep = out
            expect(rep.ok and rep.lower <= rep.middle <= rep.upper, "sandwich order")
            want = ref.hits_count(R(alpha), R(_frac_spec(beta)), y, width)
            expect(rep.middle == want, f"sandwich middle {rep.middle} != {want}")

        return Op("sandwich_check", {"alpha": alpha, "beta": beta, "y": y, "width": width},
                  run, check)


PARTS = {"scan": Scan, "pairs": Pairs, "congruence": Congruence, "integral": Integral}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mix:
    """Parts run in one closed loop: a cycle is each part's cycle, repeated `reps` times.

    Each part draws from its own `random.Random(f"{part}:{seed}")`, so it gets
    the inputs it would get alone. Mixing lets the benchmark hold two
    workloads of a minute each instead of four shorter ones: on a shared
    2-core VM the speed of pure-Python code drifted by +-25% over one to two
    minutes, and only runs of about a minute average that out.
    """

    def __init__(self, seed, parts, tail_pct):
        self.parts = [(name, PARTS[name](random.Random(f"{name}:{seed}")), reps)
                      for name, reps in parts]
        self.tail_pct = tail_pct

    @property
    def out_dir(self):
        return next((p.out_dir for _, p, _ in self.parts if getattr(p, "out_dir", None)), None)

    def setup(self):
        for _, part, _ in self.parts:
            part.setup()

    def pinned(self):
        return [_tag(op, name) for name, part, _ in self.parts for op in part.pinned()]

    def cycle(self):
        return [_tag(op, name) for name, part, reps in self.parts
                for _ in range(reps) for op in part.cycle()]


def _tag(op, part):
    op.part = part
    return op


# scan_integral works one element at a time in Python: the certified list
# fallback (dyadic, twosqrt and cf floors), Fraction sums, IntervalSet
# canonicalisation and scalar floors. pairs_congruence runs the vector floor
# path, numpy sieves and masks and the Selberg sums; it runs eight pairs cycles
# (16 CLI ops, about 1 s) per congruence cycle (about 1 s), so that primes and
# cli keep a large share of its time.
WORKLOADS = {
    "scan_integral": dict(parts=(("scan", 1), ("integral", 1)), tail_pct=75),
    "pairs_congruence": dict(parts=(("pairs", 8), ("congruence", 1)), tail_pct=90),
}


class Schedule:
    """The op sequence of one workload under one seed: pinned ops, then cycles, generated lazily."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.workload = Mix(seed, **WORKLOADS[workload])
        self.ops = list(self.workload.pinned())
        self.n_pinned = len(self.ops)
        self.cycle_len = 0

    def setup(self, n_ops: int) -> None:
        self.workload.setup()
        self.op(n_ops - 1)

    def op(self, i: int) -> Op:
        while len(self.ops) <= i:
            cycle = self.workload.cycle()
            if self.cycle_len not in (0, len(cycle)):
                raise ValueError("a workload's cycles must all have the same length")
            self.cycle_len = len(cycle)
            self.ops += cycle
        return self.ops[i]

    def whole_cycles(self, n_done: int) -> int:
        """The number of leading ops that make up the pinned ops and whole cycles."""
        return self.n_pinned + (n_done - self.n_pinned) // self.cycle_len * self.cycle_len


class CheckContext:
    """Reference primes covering every op that ran, built once after the timed loop."""

    def __init__(self, ops):
        self.primes = ref.Primes(max(op.ref_limit for op in ops))


def composition(ops) -> dict:
    """Ops per type, generator kinds, and the ranges of the sized parameters."""
    out: dict = {"ops_per_type": {}, "kinds": {}, "ranges": {}}
    for op in ops:
        out["ops_per_type"][op.type] = out["ops_per_type"].get(op.type, 0) + 1
        kind = op.params.get("kind") or op.params.get("beta_kind")
        if kind:
            key = f"{op.type}.{kind}"
            out["kinds"][key] = out["kinds"].get(key, 0) + 1
        for key in ("x", "y", "d", "z", "samples", "qmax"):
            if key in op.params:
                v = op.params[key]
                lo, hi = out["ranges"].get(key, (v, v))
                out["ranges"][key] = (min(lo, v), max(hi, v))
    return out
