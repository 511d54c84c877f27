"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py

1. The input generator gives identical inputs for the same seed, and other
   inputs for another seed.
2. Installing the trace wrappers replaces every traced binding and removing
   them restores every binding of every beattylab module and class exactly.
3. Library outputs are byte-identical (by repr) before, with, and after the
   wrappers, on the pinned ops and the first cycle of every workload.
4. Per op, the self times of the library spans sum to no more than the op's
   wall time.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11
    sys.set_int_max_str_digits(2_000_000)

import beattylab  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, Schedule  # noqa: E402

FAILED = []


def report(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILED.append(what)


def bindings() -> dict:
    """Every name bound in a beattylab module or in a class those modules define."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "beattylab" or name.startswith("beattylab.")):
            continue
        for key, val in vars(mod).items():
            out[(name, key)] = val
            if isinstance(val, type) and val.__module__ == name:
                for attr, member in vars(val).items():
                    out[(name, key, attr)] = member
    return out


def main() -> int:
    for w in WORKLOADS:
        a = [Schedule(w, 7).op(i).desc for i in range(300)]
        b = [Schedule(w, 7).op(i).desc for i in range(300)]
        c = [Schedule(w, 8).op(i).desc for i in range(300)]
        report(a == b and a != c, f"{w}: same seed, same inputs; other seed, other inputs")

    before = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    during = bindings()
    changed = {k for k in before if before[k] is not during.get(k)}
    report(not tracer.absent and len(changed) >= len(tracing.TARGETS),
           f"install wraps {len(changed)} bindings for {len(tracing.TARGETS)} targets, "
           f"absent: {tracer.absent}")
    report(beattylab.experiment.sieve_primes is not before[("beattylab.primes", "sieve_primes")],
           "an importing module's binding is wrapped too (beattylab.experiment.sieve_primes)")
    tracer.remove()
    after = bindings()
    report(all(after.get(k) is v for k, v in before.items()) and after.keys() == before.keys(),
           "remove restores every binding")

    for w in WORKLOADS:
        sched = Schedule(w, 3)
        sched.setup(sched.n_pinned + 1)
        n = sched.n_pinned + sched.cycle_len
        plain, traced, again = [], [], []
        tracer = tracing.Tracer()
        roots = []
        for i in range(n):
            op = sched.op(i)
            plain.append(repr(op.run()))
            tracer.install()
            roots.append(tracer.open(tracer.name_id("op." + op.type)))
            traced.append(repr(op.run()))
            tracer.close(roots[-1])
            tracer.remove()
            again.append(repr(op.run()))
        report(plain == traced == again, f"{w}: {n} ops give byte-identical outputs "
                                         "without, with and after the wrappers")
        self_ns = tracer.self_times()
        subtree = {r: 0 for r in roots}
        for i, p in enumerate(tracer.parent):
            r = p
            while r >= 0 and r not in subtree:
                r = tracer.parent[r]
            if r >= 0:
                subtree[r] += self_ns[i]
        report(all(subtree[r] <= tracer.t1[r] - tracer.t0[r] for r in roots),
               f"{w}: per-op library self times sum to at most the op wall time "
               f"({len(tracer)} spans)")
        out_dir = getattr(sched.workload, "out_dir", None)
        if out_dir:
            import shutil
            shutil.rmtree(out_dir, ignore_errors=True)
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
