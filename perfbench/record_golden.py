#!/usr/bin/env python3
"""Write golden.json: every job's values at the default seed.

The committed golden.json was recorded from the seed commit of clockring.
Record again only when a change alters results on purpose, and say so in
the change; the gate in run.py compares every run against this file.

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads as wl

    values = {}
    for make in wl.WORKLOADS.values():
        for job in make(DEFAULT_SEED):
            job_values, problems = job.run()
            if problems:
                print(f"error: {job.name}: " + "; ".join(problems), file=sys.stderr)
                return 1
            values.update({f"{job.name}/{k}": v for k, v in job_values.items()})
    golden = {"default_seed": DEFAULT_SEED, "values": values}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
