"""Record the sha256 of every workload artifact into ``reference.json``.

    python3 perfbench/record_reference.py FIRST_SEED STOP_SEED [WORKLOAD ...]

Runs one full-size pass of every workload (or of those named) for each
seed in ``range(FIRST_SEED, STOP_SEED)`` and stores the hashes by
workload and seed.  Record only at a commit whose artifacts are the accepted ones:
afterwards the benchmark counts every artifact that differs from this
file in ``artifacts_changed``.  A pass whose output checks fail is not
recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import workloads as W


def main(argv) -> int:
    first, stop = int(argv[0]), int(argv[1])
    names = argv[2:] or W.WORKLOADS
    if not W.program_present():
        print(f"no latmech sources under {W.ROOT}", file=sys.stderr)
        return 2
    reference = W.load_reference()
    workdir = W.WORK_ROOT / f"record-{os.getpid()}"
    try:
        for seed in range(first, stop):
            for name in names:
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                wl = W.make_workload(name, seed)
                wl.write_inputs(workdir)
                p = W.run_pass(wl, workdir, W.child_env(workdir), time.monotonic() + 600)
                problems = W.check_outputs(wl, workdir)
                if problems:
                    print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr)
                    continue
                reference.setdefault(name, {})[str(seed)] = dict(sorted(p.hashes.items()))
                print(f"{name} seed {seed}: {len(p.hashes)} artifacts, "
                      f"failed {p.failed}", flush=True)
            W.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
