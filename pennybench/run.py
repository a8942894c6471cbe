"""End-to-end benchmark of the Penny reproduction.

    python3 pennybench/run.py --workload compile-suite|campaign|figures \
        [--seed 2020] [--seconds 20] [--trace 0|1] [--tiny]

Runs whole rounds of one workload, at least two and about ``--seconds``
seconds of them, checks the outputs, prints every metric by name with
its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no tracer installed;
with ``--trace 1`` they are the per-layer ones, from a separate traced
round (see ``layers.py``), and the round's Chrome trace
is written to ``pennybench/out/trace-<workload>.json``.

``--tiny`` shrinks every workload to a few kernels and injections; the
benchmark's own tests use it.  See README.md for the metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("compile-suite", "campaign", "figures")
#: setup is measured this many times in fresh processes, besides this one
SETUP_PROBES = 8
#: every run times at least this many rounds and reports their median
MIN_ROUNDS = 2

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "checkpoints": "count",
    "protected_instructions": "count",
    "penny_overhead_gmean": "x",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workload(args):
    """Import the program from this checkout and build the workload."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, not {src}")
    from pennybench.workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, args.tiny, OUT_DIR)


def setup_probe(args) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def timed_run(workload, seconds: float):
    """Whole rounds, at least MIN_ROUNDS, while the next one would end
    less than half a round past ``seconds``: a run's length stays near
    ``seconds`` whatever a round costs, and no run rests on one round."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(workload.run_round())
        if len(rounds) == 1:
            # Later rounds' footprint grows with the results this process
            # keeps for the checks, and the number of rounds varies.
            rss = peak_rss_mb()
        half = statistics.median(r.wall_s for r in rounds) / 2
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start + half >= seconds):
            break
    failed = workload.check(rounds)
    values = workload.metrics(rounds)
    values["peak_rss_mb"] = rss
    return rounds, failed, values, []


def traced_run(workload):
    from pennybench import layers

    # The traced round runs inline, so that the campaign's calls are
    # visible.  A round before the untraced one keeps one-time costs
    # (lazy imports, first allocations) out of the comparison: the
    # campaign's 2-worker round, or a warm-up round elsewhere.
    if workload.name == "campaign":
        inline, warmup = {"workers": 1}, None
        pooled = workload.run_round(workers=2)
    else:
        inline, pooled = {}, None
        warmup = workload.run_round()
    untraced = workload.run_round(**inline)
    with layers.LayerProbe() as probe:
        traced = workload.run_round(**inline)
    metrics = layers.layer_metrics(workload, probe, traced, untraced, pooled)
    problems = layers.write_trace(
        os.path.join(OUT_DIR, f"trace-{workload.name}.json"), probe
    )
    if workload.name == "campaign":
        mismatch = layers.injected_runs_match(probe, traced)
        if mismatch:
            problems.append(f"trace: {mismatch}")
    rounds = [r for r in (warmup, pooled, untraced, traced) if r is not None]
    return rounds, workload.check(rounds), metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload = load_workload(args)
    except ImportError as exc:
        print(f"pennybench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        from pennybench import layers

        rounds, failed, values, problems = traced_run(workload)
        units = {name: unit for name, unit, _ in layers.catalog()}
    else:
        rounds, failed, values, problems = timed_run(workload, args.seconds)
        samples = [setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
        values["setup_s"] = statistics.median(samples)
        units = END_TO_END

    for problem in sorted(failed.values()) + problems:
        print(f"pennybench: FAILED {problem}", file=sys.stderr)
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:48} {value:>16.6g} {unit}")
    attempted = sum(r.ops for r in rounds)
    walls = " ".join(f"{r.wall_s:.3f}" for r in rounds)
    print(f"{'rounds':48} {len(rounds):>16} count  (wall s: {walls})")
    print(f"{'attempted':48} {attempted:>16} count")
    print(f"{'failed':48} {len(failed):>16} count")
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
