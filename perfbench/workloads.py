"""Workload inputs, command passes, output checks and the golden-sample gate.

Every workload is a list of ``latmech`` command lines (one *pass*) built
from generated inputs.  The inputs depend only on the workload seed and
the size (``full`` for measurement, ``tiny`` for the smoke mode).  Each
command runs as a fresh ``python3 -m latmech.cli`` process, exactly as a
user runs it, with BLAS threads pinned to one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:      # before numpy loads; children inherit the pinning
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

JOBS = 2                 # --jobs of the parallel pass in the traced run
TIMED_JOBS = 1           # --jobs of the timed loop: one busy core, the one the clock samples
ETA = 0.05
WORKLOADS = ("sweep-iso", "sweep-aniso", "softmode", "certify")
SALT = {name: i + 1 for i, name in enumerate(WORKLOADS)}   # input streams per workload


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["LATMECH_OUTDIR"] = str(workdir)
    env["TMPDIR"] = str(workdir)
    return env


def program_present() -> bool:
    return (SRC / "latmech" / "cli.py").is_file() and (ROOT / "docs" / "formats.md").is_file()


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


@dataclass
class Result:
    exit_code: int
    wall_s: float
    cpu_s: float             # user + system seconds, its own and its reaped children's
    rss_mb: float


def run_process(argv, cwd: Path, env: dict, timeout: float, log=None) -> Result:
    """Run one process to completion and return its exit code, wall time,
    CPU time and peak resident set size (CPU time and size cover every
    child it reaped too, such as ``--jobs`` pool workers).  On timeout the whole
    process group is killed and the exit code is -9."""
    out = open(log, "ab") if log else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(max(timeout, 0.0), os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if log:
            out.close()
    return Result(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# the reference clock
# ---------------------------------------------------------------------------

# Typical CPU seconds of one calibration unit on the 2-core VM the
# benchmark was sized on; see RefClock.
REF_UNIT_S = 2.6e-3
SAMPLE_PERIOD_S = 0.1


def calib_unit() -> float:
    """CPU seconds this thread spends on a fixed mix of interpreter and
    small-array numpy work, like the program's own."""
    t0 = time.thread_time()
    s = 0.0
    for i in range(20_000):
        s += (i % 7) * 0.5
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(150):
        a = np.sin(a) * 0.5 + a @ a * 1e-3
    return time.thread_time() - t0


class RefClock:
    """Measures a process in seconds at a reference machine speed.

    The shared host the benchmark runs on changes speed by up to half
    within seconds, and by a fifth over minutes, so a command's wall time
    says as much about the neighbours as about the program.  While a
    process runs, a thread of the runner, on the same core, times a
    fixed calibration unit every ``SAMPLE_PERIOD_S`` (CPU time of the
    thread, so the time the core gives the process does not count).  The
    process's CPU time is scaled by the mean host speed over those
    samples, ``REF_UNIT_S`` over the unit's time.  Both sides are CPU
    time, so neither the share of the core that other processes take nor
    the sampling itself (about 3% of the core) counts; a slower core
    (busy neighbours on the same physical core) shows in both and cancels.
    The program cannot change the unit's work, so a program that does
    less work reads fewer reference seconds, and a slower host does not."""

    def __init__(self):
        self.speeds = []

    def run(self, fn):
        """``fn()`` while sampling; returns ``(fn(), mean host speed)``."""
        speeds = [REF_UNIT_S / calib_unit()]
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_PERIOD_S):
                speeds.append(REF_UNIT_S / calib_unit())

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            out = fn()
        finally:
            stop.set()
            sampler.join()
        speeds.append(REF_UNIT_S / calib_unit())
        self.speeds += speeds
        return out, sum(speeds) / len(speeds)


def latmech_argv(args) -> list:
    return [sys.executable, "-m", "latmech.cli", *args]


def setup_argv() -> list:
    return [sys.executable, "-c", "import latmech.cli"]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def _strata(rng, n: int) -> np.ndarray:
    """One uniform draw in each of ``n`` equal strata of [0, 1), in order."""
    return (np.arange(n) + rng.uniform(size=n)) / n


def iso_matrices(rng, n: int) -> list:
    """Isotropic compressions ``c R(phi)`` inside the reachable twist range
    of kagome and rotating-squares (both reach every ``0 < c <= 1``),
    with ``c`` stratified over [0.3, 0.98]."""
    cs = 0.3 + 0.68 * _strata(rng, n)
    return [c * _rotation(rng.uniform(0.0, 2 * math.pi)) for c in cs]


def aniso_matrices(rng, n: int) -> list:
    """``R(a) diag(s1, +-s2) R(b)`` with ``s1 - s2`` in [0.1, 0.35].

    The solve time depends on ``s1``, on the gap and on the material
    angle ``b``, so these form one fixed centred Latin hypercube over
    ``s1`` in [0.75, 1.35], the gap, and ``b`` in [0, pi/3) (kagome is
    invariant under rotation by pi/3), and the seed draws only the frame
    rotation ``a``: every seed holds the same easy and hard values, so
    the time of a pass does not depend on the seed.  Every fourth ``s1``
    stratum has ``det < 0``."""
    mid = (np.arange(n) + 0.5) / n
    s1 = 0.75 + 0.6 * mid
    gap = 0.1 + 0.25 * mid[(np.arange(n) * 3 + 1) % n]
    b = math.pi / 3 * mid[(np.arange(n) * 3 + 2) % n]
    mats = []
    for i in range(n):
        sign = -1.0 if i % 4 == 3 else 1.0
        mats.append(_rotation(rng.uniform(0.0, 2 * math.pi))
                    @ np.diag([s1[i], sign * (s1[i] - gap[i])])
                    @ _rotation(b[i]))
    return mats


def eps_ladder(rng, size: str) -> list:
    """Denominators of the soft-mode cell sizes: 16, 32, 64, 128 (tiny:
    6, 9, 12, 16), each shifted by 0-2 so that seeds differ.  The tiny
    ladder spans a factor of at least two: over a narrower range of coarse
    cells the energy per area is not monotone in the cell size."""
    base = (16, 32, 64, 128) if size == "full" else (6, 9, 12, 16)
    return [b + int(rng.integers(0, 3)) for b in base]


@dataclass
class Command:
    args: list
    artifacts: list          # files the command must write, relative to the workdir
    expected_exit: int = 0

    @property
    def name(self) -> str:
        words = [self.args[0]] + [a for a in self.args[1:3] if a in ("--search", "--isotropic", "--strip")]
        return " ".join(words)


@dataclass
class Workload:
    name: str
    seed: int
    size: str
    commands: list                           # one pass
    inputs: dict = field(default_factory=dict)  # file name -> JSON-able content
    units: float = 0.0                       # work units per pass, when fixed by the inputs

    def write_inputs(self, workdir: Path) -> None:
        for name, payload in self.inputs.items():
            (workdir / name).write_text(json.dumps(payload))

    def with_jobs(self, jobs: int) -> "Workload":
        """The same pass with every ``--jobs`` value replaced."""
        cmds = []
        for cmd in self.commands:
            args = list(cmd.args)
            if "--jobs" in args:
                args[args.index("--jobs") + 1] = str(jobs)
            cmds.append(Command(args, cmd.artifacts, cmd.expected_exit))
        return Workload(self.name, self.seed, self.size, cmds, self.inputs, self.units)


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    rng = np.random.default_rng([SALT[name], seed])
    s = str(seed)
    full = size == "full"
    if name == "sweep-iso":
        ks = "1,2" if full else "1"
        lams = iso_matrices(rng, 1)
        cmds = [Command(["density-sweep", "--spec", spec, "--grid", "file:iso.json",
                         "--k", ks, "--seed", s, "--jobs", str(TIMED_JOBS),
                         "--out", f"iso_{spec}.csv"], [f"iso_{spec}.csv"])
                for spec in ("kagome", "rotating-squares")]
        return Workload(name, seed, size, cmds, {"iso.json": [m.tolist() for m in lams]},
                        units=2 * len(ks.split(",")))
    if name == "sweep-aniso":
        n, ks = (4, "1,2,3") if full else (1, "1")
        lams = aniso_matrices(rng, n)
        cmds = [Command(["density-sweep", "--grid", "file:aniso.json", "--k", ks,
                         "--seed", s, "--jobs", str(TIMED_JOBS), "--out", "aniso.csv"],
                        ["aniso.csv"])]
        return Workload(name, seed, size, cmds, {"aniso.json": [m.tolist() for m in lams]},
                        units=n * len(ks.split(",")))
    if name == "softmode":
        dens = eps_ladder(rng, size)
        sweeps = "200" if full else "20"
        cmds = [Command(["soft-mode", "--eps", ",".join(f"1/{d}" for d in dens),
                         "--sweeps", sweeps, "--jobs", str(TIMED_JOBS), "--dump-dir", "dumps",
                         "--out", "soft_mode.csv"],
                        ["soft_mode.csv"] + [f"dumps/{dump_name(1 / d)}" for d in dens])]
        return Workload(name, seed, size, cmds)
    if name == "certify":
        theta1 = round(float(rng.uniform(2.1, 2.4)), 6)
        lam = np.eye(2) + 0.05 * rng.standard_normal((2, 2))
        lam_arg = ",".join(repr(float(v)) for v in lam.ravel())
        ineq = [] if full else ["--lam-step", "0.1", "--theta-step", "0.01"]
        trials = [] if full else ["--trials", "50"]
        cmds = [
            Command(["inequalities", *ineq, "--out", "inequalities.csv"], ["inequalities.csv"]),
            Command(["verify-bounds", *trials, "--seed", s, "--out", "bounds.csv"],
                    ["bounds.csv"]),
            Command(["verify-bounds", "--isotropic", *trials, "--seed", s,
                     "--out", "bounds_isotropic.csv"], ["bounds_isotropic.csv"]),
            Command(["mechanism", *([] if full else ["--grid-points", "5"]),
                     "--out", "mechanisms.csv"], ["mechanisms.csv"]),
            Command(["mechanism", "--search", "--k", "2", "--seed", s,
                     *([] if full else ["--restarts", "4"]), "--out", "search.csv"],
                    ["search.csv"]),
            Command(["domain-wall", "--strip", "--theta1", repr(theta1),
                     "--half-width", "40" if full else "5", "--out", "domain_wall.csv"],
                    ["domain_wall.csv"]),
            Command(["energy", "--k", "64" if full else "4", "--lam", lam_arg,
                     "--psi-amp", "0.02", "--seed", s, "--out", "energy.csv"],
                    ["energy.csv"]),
            Command(["build", "--out", "kagome.json"], ["kagome.json"]),
        ]
        return Workload(name, seed, size, cmds)
    raise ValueError(f"unknown workload {name!r}")


def dump_name(eps: float) -> str:
    """The file name ``latmech soft-mode --dump-dir`` gives the dump at ``eps``."""
    return f"soft_mode_eps_{eps:.6g}.json".replace("/", "_")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    ref_s: float             # CPU seconds at the reference speed (0 without a clock)
    results: list            # Result per command
    failed: list             # commands with an unexpected exit code or a missing artifact
    hashes: dict             # artifact -> sha256
    artifact_bytes: int
    units: float


def run_pass(wl: Workload, workdir: Path, env: dict, deadline: float,
             tracer=None, clock: RefClock | None = None) -> PassResult:
    """Run the workload's commands one at a time and hash what they wrote.
    Artifacts of a previous pass are removed first, so a command that
    stops writing one is seen.  With a ``clock``, each command's CPU time
    is also converted to reference seconds."""
    for cmd in wl.commands:
        for rel in cmd.artifacts:
            (workdir / rel).unlink(missing_ok=True)
    results, failed, ref = [], [], 0.0
    wall = 0.0
    for cmd in wl.commands:
        argv = latmech_argv(cmd.args)
        with tracer.span(f"cli.{cmd.args[0]}") if tracer else nullcontext():
            if clock:
                res, speed = clock.run(lambda: run_process(
                    argv, workdir, env, deadline - time.monotonic(), workdir / "commands.log"))
                ref += res.cpu_s * speed
            else:
                res = run_process(argv, workdir, env, deadline - time.monotonic(),
                                  workdir / "commands.log")
        results.append(res)
        wall += res.wall_s
        missing = [a for a in cmd.artifacts if not (workdir / a).is_file()]
        if res.exit_code != cmd.expected_exit or missing:
            failed.append(cmd.name)
    hashes, nbytes = {}, 0
    for cmd in wl.commands:
        for rel in cmd.artifacts:
            path = workdir / rel
            if path.is_file():
                hashes[rel] = sha256(path)
                nbytes += path.stat().st_size
    units = wl.units
    if wl.name == "softmode":
        units = 0
        for rel in wl.commands[0].artifacts[1:]:
            if (workdir / rel).is_file():
                units += len(json.loads((workdir / rel).read_text())["nodes"])
    elif wl.name == "certify":
        units = len(wl.commands) - len(failed)
    return PassResult(wall, ref, results, failed, hashes, nbytes, units)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(wl: Workload, workdir: Path) -> list:
    """Properties the outputs must have for any seed.  Returns problems."""
    problems = []

    def need(ok, what):
        if not ok:
            problems.append(f"{wl.name}: {what}")

    def sweep_rows(rel, lams, ks):
        path = workdir / rel
        if not path.is_file():
            return []
        rows = _rows(path)
        need(len(rows) == len(lams) * len(ks), f"{rel} has {len(rows)} rows")
        for row in rows:
            lam = lams[int(row["index"])]
            got = [float(row[c]) for c in ("lam11", "lam12", "lam21", "lam22")]
            need(np.allclose(got, np.ravel(lam), rtol=0, atol=1e-15),
                 f"{rel} row {row['index']} echoes another matrix")
            up, sp, pe = (float(row[c]) for c in
                          ("upper_density", "upper_spring_part", "upper_penalty_part"))
            need(abs(up - sp - pe) <= 1e-12 * max(1.0, abs(up)),
                 f"{rel} row {row['index']} parts do not sum to the upper value")
        return rows

    if wl.name == "sweep-iso":
        lams = wl.inputs["iso.json"]
        ks = wl.commands[0].args[wl.commands[0].args.index("--k") + 1].split(",")
        for cmd in wl.commands:
            for row in sweep_rows(cmd.artifacts[0], lams, ks):
                # reachable isotropic compressions are exact mechanisms
                need(float(row["upper_density"]) <= 1e-12,
                     f"{cmd.artifacts[0]} row {row['index']} costs energy")
    elif wl.name == "sweep-aniso":
        lams = wl.inputs["aniso.json"]
        ks = wl.commands[0].args[wl.commands[0].args.index("--k") + 1].split(",")
        for row in sweep_rows("aniso.csv", lams, ks):
            need(float(row["upper_density"]) > 1e-6,
                 f"aniso.csv row {row['index']} found a zero-energy anisotropic state")
    elif wl.name == "softmode":
        path = workdir / "soft_mode.csv"
        if path.is_file():
            rows = _rows(path)
            need(len(rows) == len(wl.commands[0].artifacts) - 1,
                 f"soft_mode.csv has {len(rows)} rows")
            energy = [float(r["energy_per_area"]) for r in rows]
            # the soft-mode energy vanishes as the cell size shrinks
            need(energy[-1] < energy[0], "energy_per_area at the finest cell size "
                 "is not below the coarsest")
    elif wl.name == "certify":
        for rel in ("inequalities.csv", "bounds.csv", "bounds_isotropic.csv"):
            if (workdir / rel).is_file():
                for row in _rows(workdir / rel):
                    need(float(row["min_slack"]) >= -1e-12, f"{rel} {row[next(iter(row))]} slack < 0")
        if (workdir / "mechanisms.csv").is_file():
            for row in _rows(workdir / "mechanisms.csv"):
                need(float(row["averaged_energy"]) <= 1e-20, "twist certificate costs energy")
        if (workdir / "search.csv").is_file():
            need(len(_rows(workdir / "search.csv")) > 0, "mechanism search found nothing")
    return problems


# ---------------------------------------------------------------------------
# reference hashes and the golden-sample gate
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


def reference_changes(wl: Workload, hashes: dict, reference: dict) -> list:
    """Artifacts whose sha256 differs from the one recorded for this
    workload and seed.  Empty when no reference was recorded for it, and
    then a line says that this gate was skipped."""
    if wl.size != "full":
        return []
    ref = reference.get(wl.name, {}).get(str(wl.seed))
    if ref is None:
        print(f"no reference for {wl.name} seed {wl.seed}: sha256 gate skipped")
        return []
    return sorted(rel for rel, digest in hashes.items()
                  if rel in ref and ref[rel] != digest)


def golden_invocations() -> list:
    """The ``latmech`` invocations quoted in ``docs/formats.md``."""
    text = (ROOT / "docs" / "formats.md").read_text()
    cmds = []
    for block in re.findall(r"```\n(.*?)```", text, flags=re.S):
        line = block.replace("\\\n", " ").strip()
        if line.startswith("latmech "):
            cmds.append(shlex.split(line)[1:])
    return cmds


def golden_gate(workdir: Path, env: dict, deadline: float) -> tuple:
    """Rerun every documented invocation with the same relative paths and
    compare each file in ``docs/samples`` byte for byte.  Returns
    ``(files compared, files that differ or are missing)``."""
    samples = ROOT / "docs" / "samples"
    gdir = workdir / "golden"
    (gdir / "docs" / "samples").mkdir(parents=True, exist_ok=True)
    cmds = golden_invocations()
    with ThreadPoolExecutor(JOBS) as pool:
        list(pool.map(lambda args: run_process(
            latmech_argv(args), gdir, env, deadline - time.monotonic()), cmds))
    names = sorted(p.name for p in samples.iterdir() if p.is_file())
    changed = [n for n in names
               if not (gdir / "docs" / "samples" / n).is_file()
               or sha256(gdir / "docs" / "samples" / n) != sha256(samples / n)]
    return names, changed
