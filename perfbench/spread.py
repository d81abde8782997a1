"""Run a workload once per seed and report how far its metrics spread.

    python3 perfbench/spread.py --workload calls --seeds 1-10 --seconds 30

Each run is ``run.py --trace 0`` in its own process, one after another.
For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median: the
spread that BENCHMARK.json's ``bound`` has to cover.  ``--json FILE``
also writes the runs and their summary, which ``--baseline`` merges
into ``baseline.json`` (with the traced run of the first seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    """``"1-10"`` or ``"1,4,7"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload, seed, seconds, trace):
    """The result object ``run.py`` prints last."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results):
    """Median, quartiles and spread of every metric over ``results``."""
    summary = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric] = {
            "unit": results[0]["metrics"][metric]["unit"],
            "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
        }
    return summary


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def write_baseline(workload, seeds, seconds, summary):
    """Merge this workload's summary and its traced run into
    ``baseline.json``."""
    path = os.path.join(HERE, "baseline.json")
    with open(path, encoding="utf-8") as f:
        baseline = json.load(f)
    baseline["run_seconds"] = seconds
    baseline["seeds"] = seeds
    baseline["end_to_end"][workload] = summary
    run_once(workload, seeds[0], seconds, 1)
    stem = os.path.join(HERE, "out", f"{workload}-seed{seeds[0]}-full")
    with open(stem + ".profile.json", encoding="utf-8") as f:
        profile = json.load(f)
    entry = {
        "metrics": {k: v["value"] for k, v in profile["per_layer"].items()},
        "layer_shares": {
            k: v["share"] for k, v in profile["layer_shares"].items()
        },
        "tracing_overhead": profile["overhead"],
        "digest_traced_equals_untraced": profile["digest"]["equal"],
    }
    if "ingest_layer_shares" in profile:
        entry["ingest_layer_shares"] = {
            k: v["share"] for k, v in profile["ingest_layer_shares"].items()
        }
    baseline["per_layer"][workload] = entry
    with open(path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["calls", "churn", "live"])
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--json", help="write the runs and summary here")
    parser.add_argument("--baseline", action="store_true",
                        help="merge the result into baseline.json")
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} failed")
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
        ), flush=True)
    summary = summarize(results)
    limits = bounds()
    for metric, entry in summary.items():
        print(f"{args.workload:<6} {metric:<14} median {entry['median']:>10.4f}"
              f" {entry['unit']:<4} spread {entry['spread']:.3f}"
              f" (bound {limits[metric]}, a third {limits[metric] / 3:.3f})")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "results": results, "summary": summary}, f, indent=1)
    if args.baseline:
        write_baseline(args.workload, args.seeds, args.seconds, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
