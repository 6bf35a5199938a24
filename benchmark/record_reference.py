#!/usr/bin/env python3
"""Record the reference artifact digests the traced run compares against.

    python3 benchmark/record_reference.py

Runs one op per workload and seed 0..REFERENCE_SEEDS-1 and stores the
sha256 of each command's JSON+CSV bytes in ``benchmark/reference.json``.
Re-record only when a change to the outputs is intended and stated in
CHANGES.md.
"""

from __future__ import annotations

import json
import sys

from run import (OUT, REFERENCE, REFERENCE_SEEDS, WORKLOADS, Ops, import_cli,
                 write_configs)


def main():
    cli = import_cli()
    ref = {"workloads": {}}
    for workload in sorted(WORKLOADS):
        recorded = {}
        for seed in range(REFERENCE_SEEDS):
            work = OUT / "reference" / workload / str(seed)
            ops = Ops(cli, write_configs(work, workload, seed), work / "out")
            ops.run()
            if ops.failed:
                print(f"{workload} seed {seed}: op failed", file=sys.stderr)
                return 1
            recorded[str(seed)] = ops.digests()
            print(workload, seed, flush=True)
        ref["workloads"][workload] = recorded
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
