"""dynroute benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in its own worker
process (one client, one thread, BLAS pinned to one thread) that drives
dynroute's public entry points. With --trace 0 the result holds the
end-to-end metrics of BENCHMARK.json; set-up is repeated in separate
processes and its median reported. Times are scaled to a reference host
speed by a calibration kernel timed around every slice of the run (see
worker.py). With --trace 1 the worker wraps the same entry points from
perfbench/tracing.py and the result holds the per-layer metrics.

Every metric is printed by name with its unit, then a record line with
the machine, the calibration kernel times, the uncalibrated timings and
the output digest, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3  # set-ups per untraced run, the measuring worker's included
DEADLINE_S = 170.0


def machine_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pinned_threads": PINNED_THREADS,
    }


def run_worker(args, role: str, index: int, deadline: float) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(
            cmd + ["--start-ns", str(time.monotonic_ns())],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_units(spec: dict, trace: int) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "dynroute" / "__init__.py").is_file():
        print("error: src/dynroute not found; run from a dynroute checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS, here and in the workers
        os.environ[var] = str(PINNED_THREADS)
    os.environ.pop("DYNROUTE_SEED", None)  # the seed comes from --seed only

    try:
        setups = [] if args.trace else [
            run_worker(args, "setup", i, deadline) for i in range(SETUPS - 1)
        ]
        result = run_worker(args, "measure", SETUPS - 1, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    if not args.trace:
        setups.append(result)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["ok_share"] = 1.0 - failed / attempted
    units = declared_units(spec, args.trace)
    if set(units) != set(metrics):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  {result['samples']} operations in 10 slices; latencies are per-slice "
          f"p50 and p{result['tail_pct']}, median over the slices")
    print(f"  failed_share = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for error in result["errors"]:
        print(f"  check failed: {error}")
    print(json.dumps({
        "machine": machine_record(),
        "calibration_ms": result["calibration_ms"],
        "raw": {**result["raw"], "setup_s": [s["setup_raw_s"] for s in setups]},
        "setup_s_each": [s["setup_s"] for s in setups],
        "digest": result["digest"],
    }))
    print(json.dumps({
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
