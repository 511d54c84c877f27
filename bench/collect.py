"""Run the benchmark over many seeds and summarise each metric by median and quartiles.

    python3 bench/collect.py --workloads scan_integral --seeds 1-10 --seconds 55 \
        [--trace] [--out results.json]
    python3 bench/collect.py --compare first.json second.json [--traced traced.json] \
        --out bench/baseline.json

The first form runs `bench/run.py` once per (workload, seed), one after
another, and prints for every metric its median, quartiles and spread
(q3 - q1) / median, the quantity the benchmark's bounds are set against.
With --out the runs and the summary are written as JSON.

The second form compares two such files of untraced runs of the same code
against the bounds in BENCHMARK.json, by the rule in `RULE`, and writes the
baseline: both summaries, the drift and verdict of every metric, the
composition of each workload's first run and, with --traced, the per-layer
results of a file of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RULE = ("spread = (q3 - q1) / median of a set's runs (statistics.quantiles, n=4). "
        "drift = how much worse the second set's median is than the first's, as a share "
        "of the first (negative: better). spread_ok: the spread of both sets is at most "
        "the bound. steady: the spread of both sets is below a third of the bound. "
        "drift_ok: the drift is at most the bound. ok: drift_ok, and spread_ok for every "
        "metric but setup_s, whose spread is not bounded.")
TRACED_KEYS = ("metrics", "layer_share", "split", "split_confirmed", "floor_lanes_per_kind",
               "composition", "spans", "attempted", "failed")


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def compare(first: dict, second: dict, traced: dict | None) -> dict:
    """Baseline from two sets of untraced runs (and optionally traced runs), by `RULE`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    seeds = [f"seeds_{min(f['seeds'])}_{max(f['seeds'])}" for f in (first, second)]
    out = {"rule": RULE, "command": "python3 bench/run.py --workload <name> --seed <n> "
                                    f"--seconds {first['seconds']} --trace <0|1>",
           "machine": first["runs"][0]["record"]["machine"], "run_seconds": first["seconds"],
           "sets": {seeds[0]: first["summary"], seeds[1]: second["summary"]},
           "verdicts": {}, "composition": {}, "traced": {}}
    for workload, s1 in first["summary"].items():
        s2 = second["summary"][workload]
        out["verdicts"][workload] = v = {}
        for name, a in s1.items():
            b, m = s2[name], metrics[name]
            drift = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                drift = -drift
            spread = max(a["spread"], b["spread"])
            v[name] = {"drift": drift, "spread_ok": spread <= m["bound"],
                       "steady": spread < m["bound"] / 3, "drift_ok": drift <= m["bound"]}
            v[name]["ok"] = v[name]["drift_ok"] and (v[name]["spread_ok"] or name == "setup_s")
    out["all_ok"] = all(m["ok"] for v in out["verdicts"].values() for m in v.values())
    for run in first["runs"]:
        out["composition"].setdefault(run["record"]["workload"], run["record"]["composition"])
    for run in (traced or {}).get("runs", []):
        rec = run["record"]
        out["traced"][rec["workload"]] = {"seed": rec["seed"], **{k: rec[k] for k in TRACED_KEYS}}
    return out


def print_verdicts(out: dict) -> None:
    first, second = out["sets"].values()
    for workload, v in out["verdicts"].items():
        for name, m in v.items():
            a, b = first[workload][name], second[workload][name]
            print(f"  {workload:10s} {name:14s} median {a['median']:.6g} / {b['median']:.6g}  "
                  f"spread {a['spread']:.3f} / {b['spread']:.3f}  drift {m['drift']:+.3f}  "
                  f"{'ok' if m['ok'] else 'NOT ok'}{'' if m['steady'] else ' (not steady)'}")
    print(f"all ok: {out['all_ok']}")
    for workload, t in out["traced"].items():
        print(f"  {workload:10s} traced: split confirmed {t['split_confirmed']}, "
              f"trace.overhead_frac {t['metrics']['trace.overhead_frac']:.4f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="scan_integral,pairs_congruence")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), default=None)
    ap.add_argument("--traced", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    if args.compare:
        files = []
        for path in args.compare + ([args.traced] if args.traced else []):
            with open(path) as fh:
                files.append(json.load(fh))
        out = compare(files[0], files[1], files[2] if args.traced else None)
        print_verdicts(out)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(out, fh, indent=1, default=str)
                fh.write("\n")
        return 0

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE))
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(ln for ln in lines if ln.startswith("record: "))[8:])
            runs.append({"result": result, "record": record})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()
                           if not args.trace), flush=True)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload:10s} {name:48s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1, default=str)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
