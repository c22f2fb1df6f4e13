"""One workload process: set up, measure, check, print one JSON line.

Started by run.py with BLAS pinned to one thread. With ``--role setup``
it stops after set-up and reports only the set-up time. ``--start-ns``
is the parent's CLOCK_MONOTONIC reading just before this process was
started, so set-up time counts from process start, before any import.

The timed phase runs as SLICES equal slices with a fixed numpy kernel
(workloads.calibration_ms) timed before, between and after them. Each
slice's times are divided by its host slowness: the mean kernel time
around it over the kernel's time on the reference host. Each timing
metric is then the median over the slices. On a shared host whose speed
drifts by up to 2x from minute to minute this keeps runs made in
different phases comparable, while a change to dynroute's own speed
moves the metrics in full. The uncalibrated timings go to the record.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLICES = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--start-ns", type=int, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import dynroute

    if not Path(dynroute.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dynroute imported from {dynroute.__file__}, not from this checkout")
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = tracing.Tracer() if args.trace else None
    workload.setup(tracer)
    setup_raw_s = (time.monotonic_ns() - args.start_ns) / 1e9
    calibration = [workloads.calibration_ms()]
    setup_s = setup_raw_s * workloads.CALIBRATION_REF_MS / calibration[0]
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    # untraced slices only, or untraced and traced slices in turn, so a
    # host phase falls on both alike
    phases = []
    for i in range(SLICES):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            phases.append(workload.run(args.seconds / SLICES, tracer if traced else None))
        finally:
            if traced:
                tracer.restore()
        calibration.append(workloads.calibration_ms())

    raw = _timings(phases, workload.tail_pct) if tracer is None else {}
    for i, phase in enumerate(phases):
        phase.slowness = (calibration[i] + calibration[i + 1]) / 2 / workloads.CALIBRATION_REF_MS
    if tracer is None:
        metrics = _timings(phases, workload.tail_pct)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain, traced = phases[0::2], phases[1::2]
        overhead = (_rate(plain) / _rate(traced) - 1.0) * 100.0
        metrics = tracer.metrics(sum(p.attempted for p in traced), overhead, workload.root_span)

    errors = workload.check()
    if tracer is not None and abs(tracer.accounted_share(workload.root_span) - 1.0) > 1e-6:
        errors.append("traced self times do not add up to the traced operation time")
    print(json.dumps({
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "metrics": metrics,
        "raw": raw,
        "calibration_ms": calibration,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases) + (1 if errors else 0),
        "errors": errors,
        "digest": workload.digest(),
        "samples": sum(len(p.latencies) for p in phases),
        "tail_pct": workload.tail_pct,
    }))
    return 0


def _timings(phases, tail_pct: float) -> dict[str, float]:
    """Timing metrics, each the median over the slices."""
    return {
        "throughput_img_s": statistics.median(p.throughput() for p in phases),
        "latency_ms_p50": statistics.median(p.latency(50) for p in phases) * 1e3,
        "latency_ms_tail": statistics.median(p.latency(tail_pct) for p in phases) * 1e3,
    }


def _rate(phases) -> float:
    """Images per second of timed operations over several phases, at
    reference host speed."""
    return sum(sum(p.sizes) for p in phases) / sum(sum(p.latencies) / p.slowness for p in phases)


if __name__ == "__main__":
    sys.exit(main())
