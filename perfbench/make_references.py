"""Regenerate ``references.json``: every workload at every stored seed.

Run from the repository root::

    python3 perfbench/make_references.py

Each workload runs at every seed of ``run.STORED_SEEDS`` under both its
timed and its cross-check strategy; the two must agree row for row
before anything is written. Regenerating is only legitimate for a
change that means to alter simulated results; a change that claims
rows stay byte-identical must leave this file untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    run.load_program(Path.cwd())
    from repro.scenarios import run_scenario
    from workloads import WORKLOADS

    payload = {"format": 1, "workloads": {}}
    for name, workload in WORKLOADS.items():
        by_seed = {}
        for seed in run.STORED_SEEDS:
            tables = [
                run_scenario(workload.spec, seed=seed, jobs=jobs)
                for jobs in (workload.jobs, workload.cross_jobs)
            ]
            lines = [run.canonical_rows(t.rows) for t in tables]
            if lines[0] != lines[1]:
                print(
                    f"{name} seed {seed}: {workload.jobs} and "
                    f"{workload.cross_jobs} rows differ",
                    file=sys.stderr,
                )
                return 1
            by_seed[str(seed)] = {
                "sha256": run.digest(lines[0]),
                "rows": [json.loads(line) for line in lines[0]],
            }
            print(f"{name} seed {seed}: {run.digest(lines[0])}", flush=True)
        payload["workloads"][name] = by_seed
    run.REFERENCES.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
