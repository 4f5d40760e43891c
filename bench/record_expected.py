"""Write expected.json: the output fingerprints of one untraced pass of each
workload at seed 0 (item outputs do not depend on the seed).

usage: python3 bench/record_expected.py

The reference is recorded once, at a commit whose outputs are trusted; a
later change that alters any fingerprint is a change of program output.
"""

import json
import os
import shutil
import sys

import run


def main() -> int:
    expected = {}
    for workload in run.WORKLOADS:
        scratch = run.ROOT / ".bench_work" / f"record-{workload}-{os.getpid()}"
        try:
            _, result = run.spawn(workload, 0, "plain", scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        expected[workload] = {}
        for key, _, _, _, fingerprint, error in result["items"]:
            if error is not None:
                print(f"error: {workload} {key}: {error}", file=sys.stderr)
                return 1
            if fingerprint is not None:
                expected[workload][key] = fingerprint
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
