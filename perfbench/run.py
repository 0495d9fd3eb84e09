"""Benchmark runner for the ``latmech`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

``--trace 0`` runs the workload's pass in a closed loop, one command at a
time, each a fresh process, for ``--seconds`` seconds (at least one
pass), and reports the end-to-end metrics.  ``--trace 1`` runs the
traced layer suite and the pass at ``--jobs 1`` and ``--jobs 2``, and
reports the per-layer metrics.  ``--workload all`` runs every workload
in turn.  ``--smoke`` runs every workload once at a tiny size, both
ways, and checks that every metric in ``BENCHMARK.json`` is reported
with its unit.  The last line of standard output is one JSON object.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads as W  # first: it pins BLAS threads before numpy loads

import numpy as np  # noqa: E402

SETUP_REPS = 5           # process starts timed before the loop; one more between passes
TIME_LIMIT = 165.0      # seconds a run may take before it stops starting work


def environment(seed: int) -> dict:
    commit = None
    if (W.ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(W.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "seed": seed,
        "jobs": {"timed": W.TIMED_JOBS, "traced": [1, W.JOBS]},
        "blas_threads": {var: os.environ[var] for var in W.BLAS_VARS},
    }


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure(wl: W.Workload, seconds: float, workdir, env: dict, deadline: float) -> dict:
    """The closed loop with tracing off.  Times are in reference seconds
    (see ``RefClock``); the wall-clock medians are printed beside them."""
    wl.write_inputs(workdir)
    # One core for this process and every command it starts, so that the
    # clock's sampling thread measures the core the commands run on.
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    try:
        return _loop(wl, seconds, workdir, env, deadline)
    finally:
        os.sched_setaffinity(0, cores)


def _loop(wl: W.Workload, seconds: float, workdir, env: dict, deadline: float) -> dict:
    clock = W.RefClock()
    setup, setup_wall = [], []

    def time_setup():
        res, speed = clock.run(lambda: W.run_process(W.setup_argv(), workdir, env,
                                                     deadline - time.monotonic()))
        if res.exit_code != 0:
            raise RuntimeError("python3 -c 'import latmech.cli' failed")
        setup_wall.append(res.wall_s)
        setup.append(res.cpu_s * speed)

    for _ in range(SETUP_REPS):
        time_setup()
    passes, problems = [], []
    stop = time.monotonic() + seconds
    while True:
        p = W.run_pass(wl, workdir, env, deadline, clock=clock)
        passes.append(p)
        problems += W.check_outputs(wl, workdir)
        # no pass that would end more than half a pass after the stop
        longest = max(q.wall_s for q in passes)
        now = time.monotonic()
        if now + 0.5 * longest >= stop or now + 1.5 * longest > deadline:
            break
        time_setup()

    first = passes[0]
    changed = set(W.reference_changes(wl, first.hashes, W.load_reference()))
    for p in passes[1:]:
        changed |= {rel for rel in set(p.hashes) | set(first.hashes)
                    if p.hashes.get(rel) != first.hashes.get(rel)}
    golden_changed = []
    if wl.name == "certify":
        names, golden_changed = W.golden_gate(workdir, env, deadline)
        print(f"golden samples: {len(names) - len(golden_changed)}/{len(names)} identical")
    for rel in sorted(changed):
        print(f"artifact changed: {rel}")
    for rel in golden_changed:
        print(f"golden sample changed: docs/samples/{rel}")

    attempted = sum(len(p.results) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for name in sorted({n for p in passes for n in p.failed}):
        print(f"command failed: latmech {name}")
    refs = [p.ref_s for p in passes]
    print(f"wall clock: pass {statistics.median(p.wall_s for p in passes):.4g} s, "
          f"setup {statistics.median(setup_wall):.4g} s; host speed "
          f"{statistics.mean(clock.speeds):.3f} of the reference "
          f"({len(clock.speeds)} samples)")
    return {
        "metrics": {
            "run_s": _metric(statistics.median(refs), "s"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "work_per_s": _metric(statistics.median(p.units / p.ref_s for p in passes),
                                  "1/s"),
            "peak_rss_mb": _metric(max(r.rss_mb for p in passes for r in p.results), "MB"),
        },
        "samples": {"run_s": len(refs), "setup_s": len(setup), "work_per_s": len(refs),
                    "peak_rss_mb": attempted},
        "extra": {"failed_frac": _metric(failed / attempted, "frac"),
                  "artifacts_changed": _metric(len(changed) + len(golden_changed), "count")},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "correct": not problems and not changed and not golden_changed,
    }


def traced(wl: W.Workload, workdir, env: dict, deadline: float) -> dict:
    import layers

    sys.path.insert(0, str(W.SRC))
    metrics, attempted, failed, problems, spans = layers.traced_run(wl, workdir, env, deadline)
    out = W.WORK_ROOT / "traces" / f"{wl.name}-seed{wl.seed}-{wl.size}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"environment": environment(wl.seed),
                               "spans": [vars(s) for s in spans]}) + "\n")
    print(f"wrote {len(spans)} spans to {out.relative_to(W.ROOT)}")
    return {"metrics": metrics, "samples": {}, "extra": {}, "attempted": attempted,
            "failed": failed, "problems": problems, "correct": not problems}


def run_one(name: str, seed: int, seconds: float, trace: int, size: str, deadline: float) -> dict:
    wl = W.make_workload(name, seed, size)
    workdir = W.WORK_ROOT / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = W.child_env(workdir)
        if trace:
            out = traced(wl, workdir, env, deadline)
        else:
            out = measure(wl, seconds, workdir, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in out["problems"]:
        print(f"check failed: {problem}")
    for key, m in {**out["metrics"], **out["extra"]}.items():
        n = out["samples"].get(key)
        print(f"{name:12s} {key:34s} {m['value']:.6g} {m['unit']}" + (f" (n={n})" if n else ""))
    return out


def smoke(seed: int) -> tuple:
    """Every workload once at a tiny size, traced and untraced.  Returns
    the results and the metrics of BENCHMARK.json not reported with their
    unit."""
    spec = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    missing, outs = [], {}
    for name in W.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run_one(name, seed, 0, trace, "tiny", time.monotonic() + TIME_LIMIT)
            outs[f"{name}/trace{trace}"] = out
            for m in spec[kind]:
                got = out["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    missing.append(f"{name} --trace {trace}: {m['name']} [{m['unit']}]")
    for line in missing:
        print(f"missing metric: {line}")
    return outs, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not W.program_present():
        print(f"perfbench: no latmech sources under {W.ROOT}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    missing = []
    if args.smoke:
        outs, missing = smoke(args.seed)
    else:
        names = W.WORKLOADS if args.workload == "all" else (args.workload,)
        outs = {name: run_one(name, args.seed, args.seconds, args.trace, "full",
                              time.monotonic() + TIME_LIMIT) for name in names}
    if len(outs) == 1:
        metrics = outs[args.workload]["metrics"]
    else:
        metrics = {f"{key}/{m}": v for key, o in outs.items()
                   for m, v in {**o["metrics"], **o["extra"]}.items()}
    print(json.dumps({"correct": not missing and all(o["correct"] for o in outs.values()),
                      "attempted": sum(o["attempted"] for o in outs.values()),
                      "failed": sum(o["failed"] for o in outs.values()),
                      "metrics": metrics}))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
