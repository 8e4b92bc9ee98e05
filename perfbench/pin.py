#!/usr/bin/env python3
"""Recompute the output digests pinned in ``perfbench/digests.json``.

Usage, from the root of a checkout::

    python3 perfbench/pin.py

Runs every pinned experiment locally with ``repro run --json`` (never
through the service) at the benchmark's default seed: the suite
experiments at the suite's request budget, and every distinct service
job the default seed generates for up to ``PIN_BLOCKS`` blocks.  Run it
only when a change is meant to alter results.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from collections import defaultdict

import run as bench

#: Service blocks covered: runs of up to PIN_BLOCKS x UNIT_S seconds.
PIN_BLOCKS = 8


def main() -> int:
    groups: dict[tuple[int, int], set[str]] = defaultdict(set)
    for experiment in bench.SUITE:
        groups[bench.DEFAULT_SEED, bench.SUITE_REQUESTS].add(experiment)
    for experiment, seed, requests in bench.service_jobs(
            bench.DEFAULT_SEED, PIN_BLOCKS):
        groups[seed, requests].add(experiment)
    digests = {}
    for (seed, requests), experiments in sorted(groups.items()):
        names = sorted(experiments)
        argv = [sys.executable, "-m", "repro.cli", "run", *names, "--json",
                "--requests", str(requests), "--seed", str(seed)]
        print(" ".join(argv[1:]), file=sys.stderr)
        proc = subprocess.run(argv, cwd=bench.ROOT, env=bench.child_env(),
                              capture_output=True, text=True, check=True)
        for experiment, text in bench.split_results(proc.stdout):
            key = bench.result_key(experiment, seed, requests)
            digests[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    doc = {"seed": bench.DEFAULT_SEED,
           "suite_requests": bench.SUITE_REQUESTS,
           "digests": dict(sorted(digests.items()))}
    (bench.HERE / "digests.json").write_text(
        json.dumps(doc, indent=2) + "\n")
    print(f"pinned {len(digests)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
