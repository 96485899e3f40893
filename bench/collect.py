"""Run the benchmark on several seeds and summarize it.

    python3 bench/collect.py --seeds 1-10 --out bench/results/baseline.json

For every workload it runs `run.py --trace 0` once per seed, then one
`--trace 1` run on the first seed.  For each end-to-end metric it reports
the median, the quartiles (statistics.quantiles, n=4) and their distance
as a share of the median (the spread), next to the metric's bound from
BENCHMARK.json; it also keeps the traced run's per-layer numbers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    """(report, result) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit("run failed (%s seed %d trace %d): %s"
                         % (workload, seed, trace, done.stderr[-2000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": bound, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds,
           "workloads": {}}
    for name in names:
        t0 = time.time()
        values, runs = {}, []
        for seed in seeds:
            report, result = run(name, seed, bench["run_seconds"], 0)
            out.setdefault("metadata", report["metadata"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         "failed_frac": report["failed_frac"],
                         "negative_control_rejected":
                             report["negative_control"]["rejected"],
                         "wall_clock": report["wall_clock"]})
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, json.dumps({m: round(v["value"], 5) for m, v
                                          in result["metrics"].items()}),
                  flush=True)
        report, result = run(name, seeds[0], bench["run_seconds"], 1)
        wl = {
            "end_to_end": {m: summarize(v, bounds[m])
                           for m, v in values.items()},
            "runs": runs,
            "traced": {"seed": seeds[0], "correct": result["correct"],
                       "per_layer": {m: v["value"] for m, v
                                     in result["metrics"].items()},
                       "notes": report["per_layer_notes"],
                       "trace_cost": report["trace_cost"],
                       "never_called": report["never_called"]},
        }
        out["workloads"][name] = wl
        for m, s in wl["end_to_end"].items():
            print("%-13s %-17s median %-12.6g spread %.4f bound %.2f" % (
                name, m, s["median"], s["spread"], s["bound"]), flush=True)
        print("%s: %.0f s" % (name, time.time() - t0), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
