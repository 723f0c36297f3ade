"""Child processes of the benchmark, each a fresh interpreter.

    python3 bench/child.py setup <config.json>
        Imports wipdyn and builds the workload's inputs from the config
        (load_config, Params.from_dict, initial state, TorqueProfile), stopping
        before the first step.  Prints the seconds this took.
    python3 bench/child.py pass <workload> <seed> <work dir>
        Runs one verified pass of the workload.  Prints the process's peak
        resident memory, the checks it made and the digests of its outputs.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import env


def main(argv: list[str]) -> int:
    if not env.prepare():
        print("bench: no wipdyn sources under src/", file=sys.stderr)
        return 2
    if argv[0] == "setup":
        t0 = time.perf_counter()
        import workloads
        from wipdyn import cli

        workloads.build(cli.load_config(argv[1]))
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    import workloads

    runner = workloads.Runner(workloads.make_inputs(argv[1], int(argv[2])), Path(argv[3]))
    runner.run_pass()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak_mb, "attempted": runner.attempted,
                      "failed": runner.failed, "outputs": runner.reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
