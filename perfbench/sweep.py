"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --seeds 0-9 [--trace-seeds 0-1] [--workloads a,b] [--out FILE]

For every workload it runs perfbench/run.py once per seed of --seeds
untraced and once per seed of --trace-seeds traced, one run at a time,
and keeps the result line and the record line (machine, calibration,
digest). For each untraced metric it reports the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread: the
interquartile distance as a share of the median. With --out the whole
record is written as JSON; perfbench/baseline.json was made this way.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    runs = []
    plan = [(0, parse_seeds(args.seeds))]
    if args.trace_seeds:
        plan.append((1, parse_seeds(args.trace_seeds)))
    for trace, seeds in plan:
        for workload in args.workloads.split(","):
            for seed in seeds:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=300)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                lines = proc.stdout.strip().splitlines()
                result, record = json.loads(lines[-1]), json.loads(lines[-2])
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             "result": result, "record": record})
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()) if not trace else ""
                print(f"{workload} seed {seed} trace {trace} correct={result['correct']} "
                      f"digest={record['digest']} calib={statistics.median(record['calibration_ms']):.2f} {values}",
                      flush=True)

    digests: dict = {}
    for run in runs:
        digests.setdefault((run["workload"], run["seed"]), set()).add(run["record"]["digest"])
    for (workload, seed), seen in digests.items():
        if len(seen) > 1:  # same code and seed must give the same outputs bit for bit
            print(f"{workload} seed {seed}: digests differ between runs: {sorted(seen)}")

    values: dict = {}
    for run in runs:
        if not run["trace"]:
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(run["workload"], {}).setdefault(name, []).append(metric["value"])
    summary = {w: {m: summarize(v) for m, v in ms.items()} for w, ms in values.items()}
    for workload, metrics in summary.items():
        for name, stats in metrics.items():
            print(f"{workload:16s} {name:18s} median {stats['median']:.5g} spread {stats['spread']:.4f}")
    if args.out:
        record = {"machine": runs[0]["record"]["machine"], "seconds": args.seconds,
                  "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
