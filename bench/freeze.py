"""Freeze the expected output of every benchmark job into expected.json.

    python3 bench/freeze.py

Runs every job of every workload at both sizes once and writes the
summaries the benchmark compares against.  Run it only on a commit whose outputs are
known to be right: the frozen values are the benchmark's correctness check.
"""

import json
import sys

import run
import workloads


def main():
    expected = {}
    for name in workloads.WORKLOADS:
        for size in workloads.SIZES:
            inputs, _ = run.setup(name, 0, size)
            expected.update(inputs.checks)
            for job in inputs.jobs:
                expected[job.key] = job.summary(job.run())
            print(f"{name} {size}: {len(inputs.jobs)} jobs", file=sys.stderr)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
