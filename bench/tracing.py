"""Spans around calls into beattylab's modules, installed from outside the package, and
the per-layer metrics derived from them.

`Tracer.install()` replaces each traced function with a wrapper in every
beattylab module that binds it (for example both `beattylab.primes.sieve_primes`
and the `sieve_primes` that `beattylab.experiment` imported), and each traced
method on its class. `Tracer.remove()` puts the originals back. A name that
the package no longer has is listed in `Tracer.absent` and its metrics are
left out; the run goes on.

Spans are kept in memory as parallel arrays (name, parent, start, end, work,
generator kind) and can be written out with `Tracer.write()`. A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

_PRIMES = None


def _pi(x) -> int:
    """Prime count up to x (x <= 1e5), from a table built on first use."""
    global _PRIMES
    if _PRIMES is None:
        from reference import Primes
        _PRIMES = Primes(10 ** 5)
    return _PRIMES.pi(x)


# (module, attribute or Class.method, span name, work function or None)
# A work function maps (args, kwargs) to the amount of work of one call.
TARGETS = [
    ("primes", "sieve_primes", "primes.sieve_primes", lambda a, k: a[0]),
    ("primes", "PrimeTable.membership_array", "primes.membership_array",
     lambda a, k: len(a[1])),
    ("primes", "factorize", "primes.factorize", None),
    ("primes", "mobius", "primes.mobius", None),
    ("primes", "omega", "primes.omega", None),
    ("primes", "distinct_prime_factors", "primes.distinct_prime_factors", None),
    ("primes", "squarefree_divisors", "primes.squarefree_divisors", None),
    ("certified", "_AffineEval.floor_array", "certified.floor_array",
     lambda a, k: len(a[1])),
    ("certified", "beatty_prime_pairs", "certified.beatty_prime_pairs", lambda a, k: a[2]),
    ("intervals", "IntervalSet.__init__", "intervals.IntervalSet.__init__", None),
    ("intervals", "IntervalSet.single", "intervals.IntervalSet.single", None),
    ("intervals", "IntervalSet.union", "intervals.IntervalSet.union", None),
    ("intervals", "IntervalSet.intersect", "intervals.IntervalSet.intersect", None),
    ("intervals", "IntervalSet.measure", "intervals.IntervalSet.measure", None),
    ("intervals", "IntervalSet.complement_in", "intervals.IntervalSet.complement_in", None),
    ("intervals", "IntervalSet.clip", "intervals.IntervalSet.clip", None),
    ("congruence", "count_direct", "congruence.count_direct", None),
    ("congruence", "count_mobius", "congruence.count_mobius", None),
    ("congruence", "deviation_report", "congruence.deviation_report", lambda a, k: a[2]),
    ("congruence", "main_term", "congruence.main_term", None),
    ("selberg", "selberg_upper_bound", "selberg.selberg_upper_bound", None),
    ("selberg", "sifted_count", "selberg.sifted_count", None),
    ("selberg", "pair_bound_check", "selberg.pair_bound_check", None),
    ("selberg", "sieve_context", "selberg.sieve_context", None),
    ("selberg", "big_g", "selberg.big_g", None),
    ("selberg", "normalizer", "selberg.normalizer", None),
    ("selberg", "product_lower", "selberg.product_lower", None),
    ("diophantine", "fractional_hits", "diophantine.fractional_hits", lambda a, k: a[2]),
    ("diophantine", "fractional_hits_report", "diophantine.fractional_hits_report", None),
    ("diophantine", "best_convergent_denominator",
     "diophantine.best_convergent_denominator", None),
    ("diophantine", "continued_fraction", "diophantine.continued_fraction", None),
    ("diophantine", "farey_union", "diophantine.farey_union", None),
    ("diophantine", "sandwich_check", "diophantine.sandwich_check", None),
    ("experiment", "scan_alpha", "experiment.scan_alpha", None),
    ("experiment", "sample_alphas", "experiment.sample_alphas", None),
    ("experiment", "integral_exact", "experiment.integral_exact", lambda a, k: _pi(a[1])),
    ("experiment", "integral_by_intervals", "experiment.integral_by_intervals", None),
    ("experiment", "integral_monte_carlo", "experiment.integral_monte_carlo",
     lambda a, k: a[0].samples * _pi(a[1])),
    ("cli", "main", "cli.main", None),
]

KINDS = ("rational", "dyadic", "quadratic", "twosqrt", "cf", "other")


def generator_kind(alpha, beta) -> str:
    """Generator kind of a floor evaluator's (alpha, beta) pair.

    rational: exact with both denominators below 2^64; dyadic: exact with a
    larger denominator (the 128-bit sampled alphas); quadratic: one square
    root; twosqrt: alpha and beta with different square roots; cf: a
    continued-fraction prefix on either side.
    """
    kinds = (getattr(alpha, "kind", None), getattr(beta, "kind", None))
    if "cf" in kinds:
        return "cf"
    if kinds == ("quadratic", "quadratic"):
        return "twosqrt" if getattr(alpha, "_k", 0) != getattr(beta, "_k", 0) else "quadratic"
    if "quadratic" in kinds:
        return "quadratic"
    if kinds == ("rational", "rational"):
        dens = [v.as_fraction().denominator for v in (alpha, beta)]
        return "dyadic" if max(dens).bit_length() > 64 else "rational"
    return "other"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("H")
        self.t0 = array("q")
        self.t1 = array("q")
        self.work = array("d")
        self.kind = array("b")
        self._stack: list[int] = [-1]
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.installed = False

    # --- spans ---

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.work.append(0.0)
        self.kind.append(-1)
        self.t1.append(0)
        self._stack.append(sid)
        self.t0.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self):
        return len(self.t0)

    def describe(self, sid, work_fn, is_floor, args, kwargs) -> None:
        """Record a finished span's work and generator kind; a call whose
        arguments no longer fit the work function just records none."""
        try:
            if work_fn is not None:
                self.work[sid] = work_fn(args, kwargs)
            if is_floor:
                ev = args[0]
                kind = generator_kind(getattr(ev, "alpha", None), getattr(ev, "beta", None))
                self.kind[sid] = KINDS.index(kind)
        except (AttributeError, IndexError, KeyError, TypeError):
            pass

    def _wrap(self, fn, span: str, work_fn):
        nid = self.name_id(span)
        is_floor = span == "certified.floor_array"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
                tracer.describe(sid, work_fn, is_floor, args, kwargs)

        return wrapper

    # --- installing and removing wrappers ---

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("wrappers already installed")
        mods = [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "beattylab" or name.startswith("beattylab."))]
        self.absent = []
        for modname, attr, span, work_fn in TARGETS:
            mod = sys.modules.get(f"beattylab.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    self.absent.append(span)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, span, work_fn))
                else:
                    new = self._wrap(raw, span, work_fn)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(span)
                continue
            new = self._wrap(fn, span, work_fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._patches.append((m, key, fn))
                        setattr(m, key, new)
        self.installed = True

    def remove(self) -> None:
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches = []
        self.installed = False

    # --- output ---

    def write(self, path) -> None:
        """Write one tab-separated line per span: id, parent, name, start_ns, end_ns, work, kind."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\twork\tkind\n")
            for i in range(len(self.t0)):
                k = self.kind[i]
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.t0[i]}\t"
                         f"{self.t1[i]}\t{self.work[i]!r}\t{KINDS[k] if k >= 0 else ''}\n")

    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus the durations of direct children."""
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out


# Per-layer metrics. A `<layer>.self_s` metric is the mean self time per op
# of the listed spans; a rate is the spans' work divided by their self time.
# A metric is left out when its first span was not installed.
SELF_S = {
    "primes.sieve_primes": ("primes.sieve_primes",),
    "primes.membership_array": ("primes.membership_array",),
    "primes.factorize": ("primes.factorize", "primes.mobius", "primes.omega",
                         "primes.distinct_prime_factors", "primes.squarefree_divisors"),
    "certified.floor_array": ("certified.floor_array",),
    "experiment.scan_alpha": ("experiment.scan_alpha",),
    "experiment.integral_exact": ("experiment.integral_exact",),
    "experiment.integral_by_intervals": ("experiment.integral_by_intervals",),
    "experiment.integral_monte_carlo": ("experiment.integral_monte_carlo",),
    "intervals": tuple(t[2] for t in TARGETS if t[0] == "intervals"),
    "diophantine.fractional_hits": ("diophantine.fractional_hits",),
    "diophantine.farey_union": ("diophantine.farey_union",),
    "congruence.count_direct": ("congruence.count_direct",),
    "congruence.count_mobius": ("congruence.count_mobius",),
    "congruence.deviation_report": ("congruence.deviation_report",),
    "selberg.selberg_upper_bound": ("selberg.selberg_upper_bound",),
    "selberg.sifted_count": ("selberg.sifted_count",),
    "selberg.pair_bound_check": ("selberg.pair_bound_check",),
    "selberg.sieve_sums": ("selberg.big_g", "selberg.normalizer", "selberg.product_lower"),
    "cli.main": ("cli.main",),
}
RATES = {  # metric -> span whose work per second of self time it is
    "primes.sieve_primes.ints_per_s": "primes.sieve_primes",
    "primes.membership_array.lanes_per_s": "primes.membership_array",
    "experiment.integral_exact.primes_per_s": "experiment.integral_exact",
    "experiment.integral_monte_carlo.lanes_per_s": "experiment.integral_monte_carlo",
    "diophantine.fractional_hits.n_per_s": "diophantine.fractional_hits",
    "congruence.deviation_report.n_per_s": "congruence.deviation_report",
}
PAIR_PARENTS = ("certified.beatty_prime_pairs", "experiment.scan_alpha")


def layer_metrics(tracer: Tracer, roots: list[int], untraced_s: float, traced_s: float,
                  ambiguous: int) -> dict:
    """Per-layer metrics, layer shares of op time, and floor lanes per generator kind.

    `roots` are the benchmark's op spans; every library span sits under one.
    Counts and self times are per op (divided by the number of traced ops);
    rates and ns/lane are totals over the run. A metric of a layer the
    workload never called reads 0.
    """
    self_ns = tracer.self_times()
    n_ops = max(len(roots), 1)
    root_set = set(roots)
    calls, self_by, work_by = {}, {}, {}
    kind_ns, kind_lanes = [0] * len(KINDS), [0.0] * len(KINDS)
    pair_parent_ids = {tracer.name_id(s) for s in PAIR_PARENTS}
    for i, nid in enumerate(tracer.name):
        if i in root_set:
            continue
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        self_by[name] = self_by.get(name, 0) + self_ns[i]
        work_by[name] = work_by.get(name, 0.0) + tracer.work[i]
        k, p = tracer.kind[i], tracer.parent[i]
        if k >= 0 and p >= 0 and tracer.name[p] in pair_parent_ids:
            kind_ns[k] += self_ns[i]
            kind_lanes[k] += tracer.work[i]

    absent = set(tracer.absent)
    m = {}
    for layer, spans in SELF_S.items():
        if spans[0] not in absent:
            m[layer + ".self_s"] = sum(self_by.get(s, 0) for s in spans) / 1e9 / n_ops
    for metric, span in RATES.items():
        if span not in absent:
            t = self_by.get(span, 0)
            m[metric] = work_by.get(span, 0.0) / (t / 1e9) if t else 0.0
    if "primes.factorize" not in absent:
        m["primes.factorize.calls"] = calls.get("primes.factorize", 0) / n_ops
    if "certified.floor_array" not in absent:
        lanes = work_by.get("certified.floor_array", 0.0)
        m["certified.floor_array.lanes"] = lanes / n_ops
        m["certified.floor_array.ns_per_lane"] = \
            self_by.get("certified.floor_array", 0) / lanes if lanes else 0.0
        for k, kind in enumerate(KINDS[:-1]):
            m[f"certified.pairs.{kind}.ns_per_lane"] = \
                kind_ns[k] / kind_lanes[k] if kind_lanes[k] else 0.0
    m["certified.errors"] = ambiguous
    if SELF_S["intervals"][0] not in absent:
        m["intervals.calls"] = sum(calls.get(s, 0) for s in SELF_S["intervals"]) / n_ops
    m["trace.overhead_frac"] = 1 - untraced_s / traced_s if traced_s else 0.0

    lanes = {KINDS[k]: 0 for k in range(len(KINDS))}
    for i, k in enumerate(tracer.kind):
        if k >= 0:
            lanes[KINDS[k]] += int(tracer.work[i])
    return {"metrics": m, "layer_share": layer_shares(tracer, roots, self_ns),
            "floor_lanes_per_kind": lanes,
            "self_exceeds_wall": sum(1 for r in roots if self_ns[r] < 0)}


def layer_shares(tracer: Tracer, roots: list[int], self_ns: list[int] | None = None) -> dict:
    """Each layer's self time under the op spans `roots`, as a share of their wall time.

    `bench` is the op spans' own self time (time outside any library call);
    `primes.sieve_primes` is also given on its own.
    """
    if self_ns is None:
        self_ns = tracer.self_times()
    root_of = {r: r for r in roots}
    for i, p in enumerate(tracer.parent):  # a parent span always precedes its children
        if p >= 0 and p in root_of:
            root_of[i] = root_of[p]
    op_ns = sum(tracer.t1[r] - tracer.t0[r] for r in roots) or 1
    shares = {"bench": sum(self_ns[r] for r in roots) / op_ns, "primes.sieve_primes": 0.0}
    for i, nid in enumerate(tracer.name):
        if i in root_of and root_of[i] != i:
            name = tracer.names[nid]
            shares[name.split(".")[0]] = shares.get(name.split(".")[0], 0.0) + self_ns[i] / op_ns
            if name == "primes.sieve_primes":
                shares[name] += self_ns[i] / op_ns
    return shares
