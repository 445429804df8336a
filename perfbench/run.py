#!/usr/bin/env python3
"""Benchmark of cvconf: the rate-distance sweep, the quadrature, the single-announcement path.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``quadrature``, ``single-point`` (see README.md).  The
run sets up the workload, then repeats whole rounds of it until
``--seconds`` have passed, checks every round's outputs, and prints as its
last line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.

    python3 perfbench/run.py --regenerate     # rewrite perfbench/reference.json

The package is imported from ``src/`` of the checkout this file sits in;
without it the run fails.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread in this process and every process it starts: the sweep's
# two workers would otherwise run four threads on two cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "announcements_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s_to_10pct_2km": "s",
}


def import_program() -> None:
    """Put the checkout's src/ and this directory first on the path and import cvconf."""
    if not (SRC / "cvconf" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvconf package under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import cvconf
    if Path(cvconf.__file__).resolve().parent != SRC / "cvconf":
        raise SystemExit(f"error: imported cvconf from {cvconf.__file__}, not from {SRC}")


def setup_probe(name: str, seed: int, tiny: bool) -> None:
    """Import, build the inputs, warm up; print the seconds since start-up."""
    import_program()
    import workloads
    workloads.WORKLOADS[name](seed, tiny).setup()
    print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))


def measure_setup(name: str, seed: int, tiny: bool) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    import_program()
    setup_s = measure_setup(name, seed, tiny)
    import spans
    import workloads

    workload = workloads.WORKLOADS[name](seed, tiny)
    workload.setup()
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    tracer = spans.Tracer(tag, OUT) if traced else None
    trace_file = OUT / f"{name}.trace.jsonl"
    if traced:
        trace_file.unlink(missing_ok=True)

    rounds, traced_rounds, plain_rounds, layer_rounds = [], [], [], []
    checks: dict[str, bool] = {}
    started = time.perf_counter()
    index = 0
    # With tracing, rounds alternate untraced and traced, starting untraced,
    # so the overhead is measured on the same machine state.
    while True:
        tracing = traced and index % 2 == 1
        if tracing:
            tracer.run_id = f"{tag}-r{index}"
            spans.install(tracer)
        try:
            result = workload.round(index)
        finally:
            if tracing:
                spans.uninstall()
        if tracing:
            # The round's spans, the workers' included, are complete now:
            # turn them into metrics, append them to the trace file, drop them.
            spans.collect_workers(tracer)
            layer_rounds.append(spans.layer_metrics(tracer.spans, os.getpid()))
            tracer.write(trace_file, append=True)
            tracer.spans.clear()
            traced_rounds.append(result)
        else:
            plain_rounds.append(result)
        rounds.append(result)
        if result.complete:
            for check, ok in workload.check(index, result).items():
                checks[check] = checks.get(check, True) and bool(ok)
        index += 1
        if time.perf_counter() - started >= seconds and (not traced or index >= 2):
            break

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    ok_rounds = [r for r in plain_rounds if r.complete]
    if traced:
        metrics = {key: statistics.median(m[key] for m in layer_rounds) for key in layer_rounds[0]}
        # The first round also pays for first-touch allocation; leave it out
        # of the untraced side when there is another untraced round.
        untraced = plain_rounds[1:] or plain_rounds
        metrics["trace.overhead_s"] = (statistics.median(r.wall for r in traced_rounds)
                                       - statistics.median(r.wall for r in untraced))
        ok_all = [r for r in rounds if r.complete]
        metrics["rates.mc_2km.rel_var"] = (workload.relative_variance_2km(ok_all)
                                           if hasattr(workload, "relative_variance_2km") and ok_all
                                           else 0.0)
        units = {key: layer_unit(key) for key in metrics}
    elif ok_rounds:
        # Totals over the timed region: the machine's speed drifts by tens
        # of percent over seconds to minutes, and a total averages over it.
        cpu_s = sum(r.cpu for r in ok_rounds) / len(ok_rounds)
        metrics = {
            "setup_s": setup_s,
            "announcements_per_s": (sum(workloads.announcements(r) for r in ok_rounds)
                                    / sum(r.wall for r in ok_rounds)),
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb(),
            "cpu_s_to_10pct_2km": workload.efficiency(ok_rounds, cpu_s),
        }
        units = END_TO_END_UNITS
    else:
        metrics, units = {}, {}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), "tiny": tiny,
        "rounds": len(rounds), "round_wall_s": [r.wall for r in rounds],
        "round_cpu_s": [r.cpu for r in rounds], "checks": checks,
        "round_parts": [r.parts for r in rounds],
        "round_values": [{k: v for k, v in r.outputs.items() if isinstance(v, float)}
                         for r in rounds],
        "errors": [e for r in rounds for e in r.errors],
    }
    with open(OUT / f"{tag}.result.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    print(json.dumps(record), file=sys.stderr)
    return {
        "correct": bool(checks) and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(value), "unit": units[key]} for key, value in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("fraction") or name.endswith("rel_var"):
        return "ratio"
    return "count"


def regenerate() -> None:
    """Recompute every reference value the benchmark uses; about four minutes on two cores."""
    import_program()
    import workloads
    from cvconf.rates import estimate_rates_mc, quadrature_cross_check

    quad = {}
    for d in (0.0, 2.0):
        params = workloads.symmetric(d)
        quad[f"{d:g}"] = {str(n): quadrature_cross_check(params, n).value for n in (8, 16, 24, 32)}
        print(f"quadrature {d:g} km: {quad[f'{d:g}']}", file=sys.stderr)
    q2 = quad["2"]
    # If the n-node error falls at least linearly with the panel width
    # (the integrand has a kink on the post-selection boundary), then
    # |Q_n - Q| <= |Q_n/2 - Q_n|, and |Q_8 - Q| <= 2 |Q_8 - Q_16|.
    q2["tolerance"] = {"8": 2.0 * abs(q2["8"] - q2["16"]), "16": abs(q2["8"] - q2["16"])}
    n = 1 << 22
    _, post = estimate_rates_mc(workloads.symmetric(2.0), n, seed=20240, n_workers=2)
    reference = {
        "quadrature": quad,
        "mc_2km": {"samples": n, "seed": 20240, "value": post.value, "std_error": post.std_error,
                   "variance_per_sample": post.std_error ** 2 * n},
    }
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    print(json.dumps(reference))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["sweep", "quadrature", "single-point"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--regenerate", action="store_true", help="rewrite reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.regenerate:
        regenerate()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.tiny)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
