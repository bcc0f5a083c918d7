"""Benchmark of the approxcommute package: three workloads, one process each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

The package is imported from `src/` of the checkout this file sits in. One
run sets the workload up, then repeats its fixed work in whole rounds until
`--seconds` have passed, checks the first round's outputs against brute
force and requires every later round to reproduce them. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
ops_per_s, peak_rss_mb); their times are scaled to a reference machine
speed, which speed.py samples while they are measured. With `--trace 1` the
first half of the time runs untraced and the second half with every traced
function wrapped; the metrics are the per-layer ones, per round, plus
trace.overhead_s, all in plain seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: numpy's thread pools are fixed when it is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import REFERENCE_UNIT_S, SpeedGauge  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "approxcommute" / "__init__.py"
OUT_DIR = HERE / "out"
# setup_s is the median over at least this many fresh processes: two before
# the timed rounds, one after each round and the rest at the end
SETUP_PROBES = 8


def use_checkout_package() -> None:
    """Import approxcommute from this checkout's src/, or exit with an error."""
    if not PACKAGE_INIT.is_file():
        sys.exit(f"error: no package source at {PACKAGE_INIT}")
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import approxcommute

    if Path(approxcommute.__file__).resolve() != PACKAGE_INIT.resolve():
        sys.exit(f"error: imported approxcommute from {approxcommute.__file__}, not {PACKAGE_INIT}")


def probe_setup_seconds(workload: str, seed: int, count: int, gauge: SpeedGauge) -> list[float]:
    """Times from starting a fresh process to the end of its workload set-up,
    at the reference speed."""
    def probe() -> float:
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        return ready

    times = []
    for _ in range(count):
        ready, _, scale = gauge.time_call(probe, ticks=False)
        times.append(ready * scale)
    return times


def measure(workload, seconds: float, tracer=None, gauge=None, between_rounds=None):
    """Whole rounds, as many as fit in `seconds` (at least one).

    A round starts only if a round of median length would still end within
    `seconds`, so a run overshoots its time only when the machine slows down.
    `between_rounds` runs after each round, outside the rounds and the time
    they are given. With a `gauge`, each round's time is also scaled to the
    reference speed. Returns the round times, the scaled round times (the
    same as the round times without a gauge), the first round's raw outputs
    (the ones that are checked in full), every round's summary, and the peak
    resident memory after the first round, which does not depend on how many
    rounds fit.
    """
    times, scaled, summaries = [], [], []
    first = peak_rss_mb = None
    start = time.perf_counter()
    paused = 0.0
    while not times or time.perf_counter() - start - paused + statistics.median(times) <= seconds:
        if tracer is not None:
            tracer.new_round()
        if gauge is None:
            t0 = time.perf_counter()
            raw = workload.run_round()
            times.append(time.perf_counter() - t0)
            scaled.append(times[-1])
        else:
            raw, elapsed, scale = gauge.time_call(workload.run_round)
            times.append(elapsed)
            scaled.append(elapsed * scale)
        if first is None:
            first = raw
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summaries.append(workload.summarize(raw))
        if between_rounds is not None:
            t0 = time.perf_counter()
            between_rounds()
            paused += time.perf_counter() - t0
    return times, scaled, first, summaries, peak_rss_mb


def tally(summaries) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all rounds, and rounds that differ."""
    problems = [
        f"round {i + 1} differs from round 1"
        for i, s in enumerate(summaries) if s != summaries[0]
    ]
    return sum(s[0] for s in summaries), sum(s[1] for s in summaries), problems


def check_first_round(workload, raw) -> list[str]:
    from oracles import CheckFailed

    try:
        workload.check(raw)
    except CheckFailed as exc:
        return [str(exc)]
    return []


def _seconds(values) -> str:
    return " ".join(f"{t:.3f}" for t in values)


def end_to_end(workload, args):
    def probe(count):
        probes.extend(probe_setup_seconds(args.workload, args.seed, count, gauge))

    gauge = SpeedGauge()
    probes = []
    probe(2)
    workload.setup()
    workload.prepare()
    times, scaled, first, summaries, peak_rss_mb = measure(
        workload, args.seconds, gauge=gauge, between_rounds=lambda: probe(1)
    )
    probe(max(0, SETUP_PROBES - len(probes)))
    setup_s = statistics.median(probes)
    wall_s = statistics.median(scaled)
    attempted, failed, problems = tally(summaries)
    problems += check_first_round(workload, first)
    ops_per_round, _, fingerprint = summaries[0]
    print(f"rounds: {len(times)}  round times (s): {_seconds(times)}")
    print(f"round times at the reference speed (s): {_seconds(scaled)}")
    print(f"setup probes at the reference speed (s): {_seconds(probes)}")
    print(f"calibration unit (ms): median {statistics.median(gauge.samples) * 1e3:.3f} "
          f"over {len(gauge.samples)} samples, reference {REFERENCE_UNIT_S * 1e3:.3f}")
    print(f"output sha256: {fingerprint}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops_per_round / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed, problems


def traced(workload, args):
    from tracer import Tracer, metric_names

    workload.setup()
    workload.prepare()
    plain_times, _, first, plain_summaries, _ = measure(workload, args.seconds / 2)
    with Tracer() as tracer:
        traced_times, _, _, traced_summaries, _ = measure(workload, args.seconds / 2, tracer)
    attempted, failed, problems = tally(plain_summaries + traced_summaries)
    problems += check_first_round(workload, first)
    layers = tracer.layer_metrics(len(traced_times))
    self_total = tracer.self_time_total()
    if self_total > sum(traced_times):
        problems.append(f"self times {self_total:.3f} s exceed traced wall {sum(traced_times):.3f} s")
    layers["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write_spans(spans)
    print(f"untraced round times (s): {_seconds(plain_times)}")
    print(f"traced round times (s): {_seconds(traced_times)}")
    print(f"spans written to {spans}")
    for name in tracer.missing:
        print(f"WARNING: traced function not found, its metrics read 0: {name}")
    metrics = {name: (layers[name], unit) for name, unit in metric_names()}
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "witness", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    run = traced if args.trace else end_to_end
    metrics, attempted, failed, problems = run(workload, args)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name}: {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
