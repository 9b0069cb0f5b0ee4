"""Record the desk_scatter reference values, one set per EPS_SWEEP amplitude.

    python3 bench/make_reference.py

Runs the desk ``cetlab scatter`` once per amplitude (about 25 s each on
a 2-core Xeon) and rewrites bench/reference.json.  Rerun it only when a
change is meant to alter the desk results, and say so in the change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for epsilon in workloads.EPS_SWEEP:
        config = workloads.write_desk_config(epsilon, run.WORK_DIR)
        code, result, residuals = workloads.desk_scatter(config)
        if code != 0:
            print(f"scatter failed at eps={epsilon!r}", file=sys.stderr)
            return 1
        reference[repr(epsilon)] = workloads.scatter_scalars(result, residuals)
    path = os.path.join(run.BENCH_DIR, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
