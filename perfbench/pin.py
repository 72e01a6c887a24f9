"""Write digests.json: the sha256 of every job's output at this commit.

    python3 perfbench/pin.py

Runs one pass of every workload with the digest comparison off and writes
the digests only if every job passes its invariant checks.  Rerun it only
when a job is added, or when an intended change to the output is reviewed.
"""

import json
import sys
import time

from run import HERE, spawn_worker
from workloads import WORKLOADS


def main() -> int:
    digests, failed = {}, False
    for workload in WORKLOADS:
        _, out, err, code = spawn_worker(["--workload", workload, "--no-digests"], time.monotonic() + 600)
        if code != 0:
            print(f"{workload}: worker failed: {err}", file=sys.stderr)
            return 1
        for job in json.loads(out.strip().splitlines()[-1])["jobs"]:
            digests[job["name"]] = job["sha256"]
            for problem in job["problems"]:
                print(f"{workload}: {job['name']}: {problem}", file=sys.stderr)
                failed = True
    if failed:
        return 1
    with open(HERE / "digests.json", "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
