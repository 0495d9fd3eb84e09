"""The traced run: spans around calls into each ``latmech`` module.

Spans are opened only here, around public calls, never inside the
program.  Each span records its name, trace id, parent span, start and
end; spans stay in memory until the run ends.  The suite is replayed
once without spans, and the difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import workloads as W

LAYERS = ("lattice", "energy", "geometry", "mechanisms", "cellsolver", "softmodes", "cli")
RUNGS = ("eps16", "eps32", "eps64", "eps128")    # metric names of the soft-mode ladder


@dataclass
class Span:
    trace_id: str
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.trace_id = "-"

    @contextmanager
    def item(self, trace_id: str):
        """Spans opened inside share ``trace_id``: one workload item."""
        outer, self.trace_id = self.trace_id, trace_id
        try:
            yield
        finally:
            self.trace_id = outer

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(self.trace_id, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def copy(self) -> "Tracer":
        out = Tracer()
        out.spans = list(self.spans)
        return out

    def durations(self, name: str) -> list:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self) -> dict:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent_id is not None:
                child[s.parent_id] += s.duration
        out = dict.fromkeys(LAYERS, 0.0)
        for s, c in zip(self.spans, child):
            layer = s.name.split(".", 1)[0]
            if layer in out:
                out[layer] += s.duration - c
        return out


class NullTracer:
    """The same interface, recording nothing: the untraced replay."""

    def item(self, trace_id):
        return nullcontext()

    def span(self, name):
        return nullcontext()


@dataclass
class Counts:
    """Counts the suite's calls report; keyed, so a replay rewrites them."""
    short_circuit: dict = field(default_factory=dict)   # (matrix, k) -> bool
    lbfgs_iters: dict = field(default_factory=dict)     # k -> iterations
    search: tuple = (0, 1)                              # (hits, restarts)
    nodes: dict = field(default_factory=dict)           # rung -> nodes
    maps: dict = field(default_factory=dict)            # rung -> LatticeMap


def suite(seed: int, size: str) -> tuple:
    """The calls into every module on the workloads' generated inputs (the
    first matrices of both sweeps, the soft-mode ladder, the certify
    parameters), as ``(items, counts)``.  Each item is ``(trace_id, fn)``;
    ``fn(tracer)`` makes the calls of one workload item and can be
    replayed."""
    from latmech.cellsolver import estimate_density, verify_isotropic_bound, verify_jensen_bounds
    from latmech.energy import domain_energy, energy_breakdown, smoothed_energy_grad
    from latmech.geometry import scalar_inequality_report
    from latmech.lattice import (LatticeSpec, PeriodicDeformation, Supercell,
                                 build_kagome, build_rotating_squares)
    from latmech.mechanisms import (domain_wall_mechanism, search_mechanisms,
                                    twist_admissible_range, twist_mechanism)
    from latmech.softmodes import default_target, modulate, weak_limit_check

    full = size == "full"
    reps = 5 if full else 1
    cnt = Counts()
    kagome_json = build_kagome().to_json()
    rs_json = build_rotating_squares().to_json()
    iso = np.array(W.make_workload("sweep-iso", seed, size).inputs["iso.json"])
    aniso = np.array(W.make_workload("sweep-aniso", seed, size).inputs["aniso.json"])
    dens = W.eps_ladder(np.random.default_rng([W.SALT["softmode"], seed]), size)
    wall = next(c.args for c in W.make_workload("certify", seed, size).commands
                if c.args[0] == "domain-wall")
    theta1 = float(wall[wall.index("--theta1") + 1])
    rng = np.random.default_rng([99, seed])
    thetas = rng.uniform(0.1, 1.2, reps)
    spec = LatticeSpec.from_json(kagome_json)
    cells = {k: Supercell(spec, k) for k in (1, 2, 3, 4, 64)}
    psis = {k: 0.1 * rng.standard_normal((cells[k].n_nodes, 2)) for k in cells}
    # a spec whose identity-keyed caches are filled, as in a long-lived process
    warm = LatticeSpec.from_json(kagome_json)
    estimate_density(warm, iso[0], W.ETA, k=1, rng_seed=seed)
    target = default_target()

    def lattice(tr):
        for _ in range(reps):
            with tr.span("lattice.spec_load"):
                LatticeSpec.from_json(kagome_json)
        for k in (1, 2, 3, 64):
            for _ in range(reps if k < 64 else 2):
                with tr.span(f"lattice.supercell.k{k}"):
                    Supercell(spec, k)

    def energy(tr):
        for k in (1, 2, 3):
            for _ in range(reps):
                with tr.span(f"energy.smoothed_grad.k{k}"):
                    smoothed_energy_grad(cells[k], aniso[0], psis[k], W.ETA, 0.02)
        for k in (1, 4, 64):
            defm = PeriodicDeformation(cells[k], aniso[0], psis[k])
            for _ in range(reps):
                with tr.span(f"energy.breakdown.k{k}"):
                    energy_breakdown(defm, W.ETA)

    def mechanisms(tr):
        for th in thetas:
            with tr.span("mechanisms.twist"):
                twist_mechanism(spec, float(th))
        with tr.span("mechanisms.admissible_range"):
            twist_admissible_range(LatticeSpec.from_json(rs_json))
        restarts = 8 if full else 2
        with tr.span("mechanisms.search"):
            hits = search_mechanisms(spec, 2, restarts=restarts, rng_seed=seed)
        cnt.search = (len(hits), restarts)
        with tr.span("mechanisms.wall_strip"):
            domain_wall_mechanism(theta1, half_width=40 if full else 5)

    def iso_task(i, k):
        def fn(tr):
            with tr.span("cellsolver.solve_cold"):
                with tr.span("lattice.spec_load"):
                    cold = LatticeSpec.from_json(kagome_json)
                estimate_density(cold, iso[i], W.ETA, k=k, rng_seed=seed)
            with tr.span("cellsolver.solve_warm"):
                est = estimate_density(warm, iso[i], W.ETA, k=k, rng_seed=seed)
            cnt.short_circuit[("iso", i, k)] = est.solver_trace["short_circuit"]
        return fn

    def aniso_task(k):
        def fn(tr):
            with tr.span("cellsolver.solve_aniso"):
                est = estimate_density(warm, aniso[0], W.ETA, k=k, rng_seed=seed)
            cnt.short_circuit[("aniso", 0, k)] = est.solver_trace["short_circuit"]
            cnt.lbfgs_iters[k] = int(est.solver_trace["iterations"])
        return fn

    def certify(tr):
        rs = LatticeSpec.from_json(rs_json)
        with tr.span("cellsolver.jensen"):
            verify_jensen_bounds(rs, n_trials=200 if full else 20, rng_seed=seed)
        with tr.span("cellsolver.isotropic_bound"):
            verify_isotropic_bound(rs, W.ETA, aniso[:2], k=1, rng_seed=seed)
        with tr.span("geometry.inequalities"):
            scalar_inequality_report(lam_step=0.02 if full else 0.1,
                                     theta_step=0.002 if full else 0.01)

    def soft_rung(rung, d):
        def fn(tr):
            with tr.span(f"softmodes.modulate.{rung}"):
                lmap = modulate(warm, target, 1.0 / d, relax_sweeps=200 if full else 20)
            with tr.span(f"energy.domain_energy.{rung}"):
                domain_energy(lmap, target.polygon, W.ETA)
            cnt.maps[rung] = lmap
            cnt.nodes[rung] = len(lmap.values)
        return fn

    def weak_limit(tr):
        with tr.span("softmodes.weak_limit"):
            weak_limit_check([cnt.maps[r] for r in RUNGS], target)

    items = [("lattice", lattice), ("energy", energy), ("mechanisms", mechanisms)]
    items += [(f"sweep-iso/{i}/k{k}", iso_task(i, k)) for i in range(len(iso)) for k in (1, 2)]
    items += [(f"sweep-aniso/0/k{k}", aniso_task(k)) for k in ((1, 2, 3) if full else (1,))]
    items += [("certify", certify)]
    items += [(f"softmode/{rung}", soft_rung(rung, d)) for rung, d in zip(RUNGS, dens)]
    items += [("softmode/weak-limit", weak_limit)]
    return items, cnt


@dataclass
class SuiteRun:
    tracer: Tracer
    counts: Counts
    traced_s: float
    untraced_s: float


@functools.cache
def run_suite(seed: int, size: str) -> SuiteRun:
    """The suite, traced and replayed untraced.  Its figures depend on the
    seed and size only, so one process runs it once for every workload."""
    items, cnt = suite(seed, size)
    tr, null = Tracer(), NullTracer()
    traced = untraced = 0.0
    for n, (trace_id, fn) in enumerate(items):
        # each item runs traced and untraced back to back, alternating
        # which goes first, so drift in machine speed cancels
        for t in ((tr, null) if n % 2 == 0 else (null, tr)):
            t0 = time.perf_counter()
            with t.item(trace_id):
                fn(t)
            if t is tr:
                traced += time.perf_counter() - t0
            else:
                untraced += time.perf_counter() - t0
    return SuiteRun(tr, cnt, traced, untraced)


def traced_run(wl: W.Workload, workdir, env: dict, deadline: float) -> tuple:
    """Returns ``(metrics, attempted, failed, problems, spans)``.

    Layer calls run in this process (once per seed and size); then the
    workload's own pass runs at ``--jobs 1`` and ``--jobs 2`` as separate
    processes (certify has no ``--jobs`` flag, so its two passes are
    identical).  Both passes must write the same bytes."""
    import latmech

    if not str(latmech.__file__).startswith(str(W.SRC)):
        raise RuntimeError(f"latmech imported from {latmech.__file__}, not {W.SRC}")
    layer_run = run_suite(wl.seed, wl.size)
    tr, cnt = layer_run.tracer.copy(), layer_run.counts
    wl.write_inputs(workdir)
    passes = {}
    for jobs in (1, W.JOBS):
        with tr.item(f"cli/jobs{jobs}"):
            passes[jobs] = W.run_pass(wl.with_jobs(jobs), workdir, env, deadline, tracer=tr)
    one, two = passes[1], passes[W.JOBS]
    problems = W.check_outputs(wl, workdir)
    if one.hashes != two.hashes:
        differ = sorted(set(one.hashes.items()) ^ set(two.hashes.items()))
        problems.append(f"{wl.name}: --jobs 1 and --jobs {W.JOBS} differ in {sorted({d[0] for d in differ})}")
    problems += [f"{wl.name}: artifact changed: {rel}"
                 for rel in W.reference_changes(wl, two.hashes, W.load_reference())]
    failed = len(one.failed) + len(two.failed)
    attempted = len(one.results) + len(two.results)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("lattice.spec_load_s", median(tr.durations("lattice.spec_load")), "s")
    for k in (1, 2, 3, 64):
        put(f"lattice.supercell_s.k{k}", median(tr.durations(f"lattice.supercell.k{k}")), "s")
    for k in (1, 2, 3):
        put(f"energy.smoothed_grad_s.k{k}", median(tr.durations(f"energy.smoothed_grad.k{k}")), "s")
    for k in (1, 4, 64):
        put(f"energy.breakdown_s.k{k}", median(tr.durations(f"energy.breakdown.k{k}")), "s")
    for rung in RUNGS:
        put(f"energy.domain_energy_s.{rung}", median(tr.durations(f"energy.domain_energy.{rung}")), "s")
    put("geometry.inequalities_s", median(tr.durations("geometry.inequalities")), "s")
    for name in ("twist", "admissible_range", "search", "wall_strip"):
        put(f"mechanisms.{name}_s", median(tr.durations(f"mechanisms.{name}")), "s")
    put("mechanisms.search_hit_frac", cnt.search[0] / cnt.search[1], "frac")
    for name in ("solve_cold", "solve_warm", "jensen", "isotropic_bound"):
        put(f"cellsolver.{name}_s", median(tr.durations(f"cellsolver.{name}")), "s")
    put("cellsolver.lbfgs_iters", sum(cnt.lbfgs_iters.values()), "count")
    put("cellsolver.short_circuit_frac",
        sum(cnt.short_circuit.values()) / len(cnt.short_circuit), "frac")
    for rung in RUNGS:
        put(f"softmodes.modulate_s.{rung}", median(tr.durations(f"softmodes.modulate.{rung}")), "s")
        put(f"softmodes.nodes.{rung}", cnt.nodes[rung], "count")
    put("softmodes.weak_limit_s", median(tr.durations("softmodes.weak_limit")), "s")
    put("cli.parallel_efficiency", one.wall_s / (W.JOBS * two.wall_s), "frac")
    put("cli.artifact_bytes", two.artifact_bytes, "bytes")
    for layer, value in tr.self_times().items():
        put(f"{layer}.self_s", value, "s")
    put("trace.spans", len(tr.spans), "count")
    put("trace.overhead_frac",
        (layer_run.traced_s - layer_run.untraced_s) / layer_run.untraced_s, "frac")
    return m, attempted, failed, problems, tr.spans
