"""One benchmark run of one workload in a fresh interpreter.

Started by run.py. Prints `ready` once set-up is done (import, input
generation, shared tables), then runs the closed loop: one client, the
next op starts when the previous one returns, until `--seconds` have
passed. Outputs are checked after the loop, so checks cost no measured
time. The last line printed is a JSON summary for run.py.

With `--trace 1` every op runs twice, untraced and traced in alternating
order (ABBA), so the tracing overhead is measured on the same ops; the
spans come only from the traced executions and are written to
`.bench_out/` at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PRE_GENERATED_OPS = 512
TAIL_LADDER = (99, 95, 90, 75, 50)


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks (numpy's default method)."""
    pos = (len(sorted_vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def latency_stats(lat, tail_pct):
    """Median and tail latency; the tail uses the workload's percentile while at
    least ten samples lie beyond it, else the highest ladder step that has ten."""
    vals = sorted(lat)
    for pct in (tail_pct,) + tuple(p for p in TAIL_LADDER if p < tail_pct):
        tail = percentile(vals, pct)
        beyond = sum(1 for v in vals if v > tail)
        if beyond >= 10 or pct == TAIL_LADDER[-1]:
            break
    return {"op_p50_s": percentile(vals, 50), "op_tail_s": tail, "tail_pct": pct,
            "tail_beyond": beyond, "ops": len(vals)}


def run_op(op):
    t0 = time.perf_counter()
    try:
        out, err = op.run(), None
    except Exception as exc:  # an op that raises is a failed op, and the run goes on
        out, err = None, f"{op.part}: {op.desc[:160]}: {type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def check_ops(ops, outs, errs):
    from workloads import CheckContext
    ctx = CheckContext(ops)
    failures = list(e for e in errs if e)
    for op, out, err in zip(ops, outs, errs):
        if err:
            continue
        try:
            op.check(out, ctx)
        except Exception as exc:  # a check that cannot complete fails the op
            failures.append(f"{op.part}: {op.desc[:160]}: {type(exc).__name__}: {exc}")
    return failures


def plain_run(sched, seconds):
    """The timed closed loop. Throughput and latencies cover the pinned ops and
    the whole cycles done by the deadline, so every run measures the same op
    mix; ops of the cycle cut off by the deadline still count as attempted
    and are checked."""
    ops, outs, errs, lat, ends = [], [], [], [], []
    t_start = time.perf_counter()
    t_end = t_start + seconds
    while time.perf_counter() < t_end:
        op = sched.op(len(ops))
        out, err, dt = run_op(op)
        ends.append(time.perf_counter())
        ops.append(op)
        outs.append(None if err else op.digest(out))
        errs.append(err)
        lat.append(dt)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = sched.whole_cycles(len(ops))
    if measured <= sched.n_pinned:
        measured = len(ops)  # not one whole cycle: use every op
    failures = check_ops(ops, outs, errs)
    res = {"attempted": len(ops), "failed": len(failures), "failures": failures[:10],
           "ops_per_s": measured / (ends[measured - 1] - t_start),
           "measured_ops": measured, "cycle_len": sched.cycle_len,
           "peak_rss_mib": peak_rss_mib}
    res.update(latency_stats(lat[:measured], sched.workload.tail_pct))
    res["parts"] = part_stats(sched, ops[:measured], lat[:measured], failures, ops)
    return ops, res


def part_stats(sched, ops, lat, failures, attempted):
    """Per part of the mix: ops per second spent in its ops, its median and tail
    latency at the part's own percentile, and its attempted and failed ops."""
    out = {}
    for name, part, _ in sched.workload.parts:
        mine = [dt for op, dt in zip(ops, lat) if op.part == name]
        out[name] = {"busy_s": sum(mine), "ops_per_busy_s": len(mine) / sum(mine),
                     "attempted": sum(op.part == name for op in attempted),
                     "failed": sum(f.startswith(name + ": ") for f in failures),
                     **latency_stats(mine, part.tail_pct)}
    return out


def traced_run(sched, seconds, spans_path):
    import tracing

    tracer = tracing.Tracer()
    ops, outs, errs, mismatches, roots = [], [], [], [], []
    untraced = traced = 0.0
    ambiguous = 0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        op = sched.op(len(ops))
        root_name = tracer.name_id("op." + op.type)
        result = {}
        # alternate which execution goes first, so warm-up favours neither
        for with_trace in ((False, True) if len(ops) % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                root = tracer.open(root_name)
                out, err, dt = run_op(op)
                tracer.close(root)
                tracer.remove()
                roots.append(root)
                traced += dt
                ambiguous += bool(err and "BoundaryAmbiguous" in err)
            else:
                out, err, dt = run_op(op)
                untraced += dt
            result[with_trace] = (out, err)
        (out_u, err_u), (out_t, err_t) = result[False], result[True]
        if repr(out_u) != repr(out_t) or bool(err_u) != bool(err_t):
            mismatches.append(f"{op.desc[:160]}: traced output differs from untraced")
        ops.append(op)
        outs.append(None if err_u else op.digest(out_u))
        errs.append(err_u or err_t)
    failures = check_ops(ops, outs, errs) + mismatches
    layers = tracing.layer_metrics(tracer, roots, untraced, traced, ambiguous)
    if layers["self_exceeds_wall"]:
        failures.append(f"{layers['self_exceeds_wall']} ops whose span self times exceed "
                        "the op wall time")
    if spans_path:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        tracer.write(spans_path)
    # each part's layer split, on the layer shares of that part's ops only
    split, confirmed = {}, {}
    for name, part, _ in sched.workload.parts:
        shares = tracing.layer_shares(tracer, [r for r, op in zip(roots, ops) if op.part == name])
        claim, holds = part.split
        split[name] = {"claim": claim, "layer_share": shares}
        confirmed[name] = holds(shares)
    return ops, {"attempted": len(ops), "failed": len(failures), "failures": failures[:10],
                 "absent": tracer.absent, "spans": len(tracer), "spans_file": spans_path,
                 "split": split, "split_confirmed": confirmed, **layers}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    if hasattr(sys, "set_int_max_str_digits"):  # Python >= 3.11
        sys.set_int_max_str_digits(2_000_000)
    import beattylab
    if not os.path.abspath(beattylab.__file__).startswith(src + os.sep):
        raise SystemExit(f"beattylab imported from {beattylab.__file__}, not from {src}")
    from workloads import Schedule, composition
    sched = Schedule(args.workload, args.seed)
    sched.setup(PRE_GENERATED_OPS)
    print("ready", flush=True)
    try:
        if args.setup_only:
            return
        if args.trace:
            spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.tsv")
            ops, res = traced_run(sched, args.seconds, spans)
        else:
            ops, res = plain_run(sched, args.seconds)
    finally:
        out_dir = getattr(sched.workload, "out_dir", None)
        if out_dir:
            import shutil
            shutil.rmtree(out_dir, ignore_errors=True)
    import numpy
    res["composition"] = composition(ops)
    res["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(res, default=str), flush=True)


if __name__ == "__main__":
    main()
