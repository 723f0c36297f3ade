"""The wipdyn benchmark.

    python3 bench/run.py --workload {scenario,compare,check} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the wipdyn sources under
``src/`` there and writes only below ``.bench_work/``.  The workloads are
described in ``workloads.py``.  Every output is verified, and each failed
verification counts into ``failed`` out of ``attempted``.

``--trace 0`` gives the end-to-end metrics, all untraced:

* ``setup_s``: median over fresh interpreters, one after each round, of
  importing wipdyn and building the workload's inputs;
* ``wall_s``: median seconds of one pass of the workload;
* ``step_us.<model>``: median microseconds per RK4 step of ``simulate`` for
  each model on the workload's own inputs (the oracle over its first 300
  steps), timed in a probe that follows each pass;
* ``peak_rss_mb``: peak resident memory of a child process running one pass.

``setup_s``, ``wall_s`` and ``step_us`` are scaled to nominal machine speed
(``speed.py``).

``--trace 1`` gives the per-layer metrics of ``layers.py``: a few untraced
rounds, then rounds with every layer wrapped, then the replays.  Its
``tracing_overhead`` is the traced over the untraced median pass time.

The line before the result records the environment (Python, numpy, cores,
BLAS threads, commit, source lines) and the median kernel time over nominal,
so raw times are the scaled ones times that figure.  The last line is the
result object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "step_us.full": "us/step",
    "step_us.reduced": "us/step",
    "step_us.oracle": "us/step",
    "peak_rss_mb": "MB",
}
MIN_ROUNDS = 5
CHILD_TIMEOUT_S = 120


def _child(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                          capture_output=True, text=True, cwd=env.ROOT,
                          timeout=CHILD_TIMEOUT_S, check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"bench child {argv[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def untraced(runner, gauge, seconds: float) -> dict:
    import workloads

    child_dir = runner.work / "child"
    child_dir.mkdir()
    child = _child("pass", runner.inputs.workload, str(runner.inputs.seed), str(child_dir))
    runner.attempted += child["attempted"]
    runner.failed += child["failed"]
    runner.reference = child["outputs"]  # every pass here must repeat the child's
    measured, setup = [], []
    for r in workloads.rounds(runner, seconds, MIN_ROUNDS, gauge):
        measured.append(r)
        # The machine's speed drifts over seconds; a set-up sample after each
        # round spreads them over the run like the other samples.
        seconds_raw, factor = gauge.scale(
            lambda: _child("setup", str(runner.config_path))["setup_s"])
        setup.append(seconds_raw * factor)
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(r[0] for r in measured)}
    for m in ("full", "reduced", "oracle"):
        metrics[f"step_us.{m}"] = statistics.median(r[1][m] for r in measured)
    metrics["peak_rss_mb"] = child["peak_rss_mb"]
    return metrics


def traced(runner, gauge, seconds: float) -> dict:
    import layers
    import workloads

    plain = list(workloads.rounds(runner, seconds / 3, 2, gauge))
    tracer = layers.Tracer()
    traced_rounds, windows = [], []
    with tracer.installed():
        for r in workloads.rounds(runner, seconds * 2 / 3, 2, gauge):
            traced_rounds.append(r)
            windows.append(runner.last_window)
    metrics, counts = layers.summarise(tracer, windows)
    runner.check(f"per-pass counts repeat exactly ({sorted(counts)})", len(counts) == 1)

    s, seed = runner.scenario, runner.inputs.seed
    (metrics["dynamics_full.full_rhs.us"],
     metrics["dynamics_reduced.reduced_rhs.us"]) = layers.replay_rhs(
        runner.last_full, s.profile, s.p, seed)
    err = layers.referee_error(s.p, seed)
    metrics["oracle.referee_err"] = err
    runner.check(f"oracle referee error {err:.3e} within {workloads.MAX_ABS:g}",
                 err <= workloads.MAX_ABS)
    metrics["tracing_overhead"] = (statistics.median(r[0] for r in traced_rounds)
                                   / statistics.median(r[0] for r in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("scenario", "compare", "check"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not env.prepare():
        print(f"bench: no wipdyn sources under {env.SRC}", file=sys.stderr)
        return 2

    import layers
    import speed
    import workloads

    work = env.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = workloads.Runner(workloads.make_inputs(args.workload, args.seed), work)
        gauge = speed.Gauge()
        if args.trace:
            values, units = traced(runner, gauge, args.seconds), layers.PER_LAYER
        else:
            values, units = untraced(runner, gauge, args.seconds), END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"environment": env.describe(),
                      "kernel_vs_nominal": statistics.median(gauge.slowness)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
