"""Record the checked-in reference outputs of a workload.

Usage, from the repository root:

    python3 bench/record.py --workload mc_family

Runs one study per input variant (with the variant as seed) and stores
its operations, each with its truth verdict, in
``bench/reference/<workload>.json``.  Re-record only for a change that is
meant to change the program's outputs, and say so where the change is
described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import check
from run import BUILD, StudyError, run_study
from workloads import VARIANTS, WORKLOADS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    args = ap.parse_args(argv)

    stored = {}
    for v in range(VARIANTS):
        try:
            study = run_study(args.workload, v, 0,
                              os.path.join(BUILD, f"record-{os.getpid()}-{v}"))
        except StudyError as exc:
            print(f"variant {v}: {exc}", file=sys.stderr)
            return 1
        ops = check.with_truth(study["ops"])
        stored[str(v)] = ops
        failing = sum(1 for op in ops if op["truth"])
        print(f"variant {v}: {len(ops)} ops, {failing} failing by truth")
    write_reference(check.reference_path(args.workload), args.workload, stored)
    return 0


def write_reference(path: str, workload: str, variants: dict):
    """JSON with one operation per line, so a re-record diffs line by line."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    blocks = []
    for v in sorted(variants, key=int):
        ops = ",\n".join(json.dumps(op, sort_keys=True, separators=(",", ":"))
                         for op in variants[v])
        blocks.append(f'"{v}": [\n{ops}\n]')
    with open(path, "w") as fh:
        fh.write('{"workload": "%s", "variants": {\n%s\n}}\n'
                 % (workload, ",\n".join(blocks)))


if __name__ == "__main__":
    sys.exit(main())
