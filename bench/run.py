"""beattylab benchmark: one workload, one run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {scan_integral,pairs_congruence} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`.
Each run starts fresh interpreters (bench/worker.py): with --trace 0,
SETUP_RUNS - 1 of them only time set-up; the last one also runs the closed
loop for S seconds and checks every output. With --trace 0 the result holds the end-to-end metrics
(setup_s, ops_per_s, op_p50_s, op_tail_s, peak_rss_mib); failed ops are the
`failed` count and the failed_frac line. With --trace 1 it holds the
per-layer metrics from a traced run. The lines before the last one are a
readable table and a `record:` JSON line with the machine, the command, the
composition of the inputs and the full worker report. The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan_integral", "pairs_congruence")
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, set-up probes included
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mib": "MiB", "failed_frac": "ratio"}


def spawn(args, setup_only: bool, deadline: float):
    """Start a worker; return (process, set-up seconds, killer timer)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    # one thread: no idle BLAS pool beside the single client
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, timer)
        raise RuntimeError(f"worker did not become ready (exit {proc.returncode})")
    return proc, setup_s, timer


def finish(proc, timer) -> str:
    """Read the rest of a worker's output and wait for it to end."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return rest


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "beattylab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")
    if not os.path.isfile(os.path.join(ROOT, "src", "beattylab", "__init__.py")):
        print(f"error: no beattylab sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    for _ in range(SETUP_RUNS - 1 if args.trace == 0 else 0):
        proc, setup_s, timer = spawn(args, True, deadline)
        finish(proc, timer)
        setups.append(setup_s)
    proc, setup_s, timer = spawn(args, False, deadline)
    setups.append(setup_s)
    report = json.loads(finish(proc, timer).strip().splitlines()[-1])

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = report["metrics"]
        units = {}
    else:
        metrics = {"setup_s": statistics.median(setups), "ops_per_s": report["ops_per_s"],
                   "op_p50_s": report["op_p50_s"], "op_tail_s": report["op_tail_s"],
                   "peak_rss_mib": report["peak_rss_mib"]}
        units = UNITS
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "command": [os.path.basename(sys.executable)] + sys.argv,
              "machine": {**machine(), **report.pop("versions")},
              "setup_runs_s": setups, **report}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {_unit(name, units)}")
    if args.trace:
        for part, split in report["split"].items():
            print(f"  {part}: layer shares of op time: " + ", ".join(
                f"{k} {v:.3f}" for k, v in sorted(split["layer_share"].items(),
                                                  key=lambda kv: -kv[1])))
            print(f"  {part}: layer split ({split['claim']}): "
                  f"{'confirmed' if report['split_confirmed'][part] else 'NOT confirmed'}")
    else:
        print(f"  {'failed_frac':48s} {failed / max(attempted, 1):>16.6g} ratio")
        print(f"  {'(op_tail_s percentile, samples beyond, ops)':48s} "
              f"p{report['tail_pct']}, {report['tail_beyond']}, {report['ops']}")
        for part, p in report["parts"].items():
            print(f"  {part}: ops per busy second {p['ops_per_busy_s']:.6g} 1/s, "
                  f"op_p50_s {p['op_p50_s']:.6g} s, op_tail_s {p['op_tail_s']:.6g} s "
                  f"(p{p['tail_pct']}), failed_frac {p['failed'] / max(p['attempted'], 1):.6g}, "
                  f"{p['ops']} ops")
    for msg in report["failures"]:
        print(f"  failed: {msg}")
    print("record: " + json.dumps(record, default=str))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": _unit(k, units)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit(name: str, units: dict) -> str:
    if name in units:
        return units[name]
    for suffix, unit in ((".self_s", "s"), ("_per_s", "1/s"), (".ns_per_lane", "ns"),
                         (".overhead_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
