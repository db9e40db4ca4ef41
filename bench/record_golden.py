"""Record golden record digests for the two sampling workloads.

    python3 bench/record_golden.py --seeds 64

Digests are taken from the code in this checkout, so run it only on a
commit whose records are known good; every later benchmark run compares its
records against them bit for bit. Each recorded output must first pass the
same chi-square check that guards seeds without a digest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64, help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args()
    workloads = run._import_package()
    golden = workloads.load_golden()
    for cls in (workloads.SamplePhoton, workloads.SampleGeneric):
        for seed in range(args.seeds):
            workload = cls(seed)
            workload.golden = None
            output = workload.run()
            if workload.check(output).failed:
                raise SystemExit(f"{cls.name} seed {seed} fails the chi-square check")
            digests = golden.setdefault(cls.name, {}).setdefault(str(workload.shots), {})
            digests[str(seed)] = workload.reference
            print(cls.name, seed, workload.reference, flush=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("CVTELEPORT_CUTOFF", None)
    sys.exit(main())
