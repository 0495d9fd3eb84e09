"""Command-line front end: build lattices, evaluate energies, search
mechanisms, sweep the effective density, verify bounds, assemble domain
walls, and run soft-mode scaling experiments.

Artifacts are deterministic CSV/JSON files (floats printed with 17
significant digits, fixed row order), so identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 usage error, 2
precondition/build error or out of memory, 3 a verified bound came back
with negative slack, 4 an unexpected internal error (traceback on
stderr).

This module is the one file boundary: the library takes and returns
JSON text, ``_read`` reads the ``--spec`` and ``--grid file:`` files,
``_out_path`` checks every output before any work without touching the
disk, and ``_write`` alone makes directories and writes files.

Every command is its own short process, so this module imports at top
level only what every command needs (spec loading from
:mod:`latmech.lattice`); each command imports the solver modules it runs
when it runs.  Before numpy loads, it sets each BLAS thread-count variable
that the environment leaves unset to 1: the solvers' matrices are tiny, and
the threads of a BLAS in every ``--jobs`` worker only oversubscribe the
cores.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import re
import sys
import traceback
from itertools import chain

# one BLAS thread per process, unless the user's environment says otherwise:
# set before numpy loads its BLAS, and inherited by every --jobs worker
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in _BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

import numpy as np

from .lattice import (
    LatticeSpec,
    MechanismError,
    PeriodicDeformation,
    Supercell,
    VARIANT_KINDS,
    _check_size,
    build_kagome,
    build_rotating_squares,
    build_variant,
    kabsch_rotations,
    unique_rows,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


# a number (float or fraction syntax, inf and nan included) or a
# comma-separated list of them
_NUMBER = r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?:/\d+)?|inf(?:inity)?|nan)"
_NUMBER_LIST = rf"{_NUMBER}(?:,{_NUMBER})*\Z"


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, and which
    reads an argument that starts with ``-`` as a value, not an option,
    when it is a number or a list of numbers (``--eta -inf``,
    ``--lam -1,0,0,-1``), as it reads ``--eta=-inf``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own test takes only plain negative decimals such as -1;
        # compiled here, not on import (re caches it for the subparsers)
        self._negative_number_matcher = re.compile(_NUMBER_LIST, re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _column(col):
    """The cells of one CSV column as ``_fmt`` prints them, made as the
    writer reads them.  A float, integer or boolean array is read through
    a memoryview, which hands out one Python number at a time (as fast as
    ``tolist()``, and no column is held as a list); any other column goes
    cell by cell through ``_fmt``."""
    if isinstance(col, np.ndarray) and col.dtype.kind == "f":
        return map("{:.17g}".format, memoryview(col.astype(np.float64, copy=False)))
    if isinstance(col, np.ndarray) and col.dtype.kind in "iub" and col.dtype.isnative:
        return map("{:d}".format, memoryview(col))
    return map(_fmt, col)


def _csv(header, columns) -> str:
    """CSV text: ``header``, then row ``i`` of the equal-length
    ``columns`` per line, each cell as ``_fmt`` prints it (a table held
    as rows passes ``zip(*rows)``)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(_column, columns)))
    return buf.getvalue()


def _read(flag: str, path: str) -> str:
    """The text of the ``flag`` input file ``path``: the only code that
    reads a file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"{flag} {path!r} cannot be read: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, making its missing parent directories:
    the only code that writes to the file system."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _out_path(args, default_name: str, *files) -> str:
    """The artifact path: ``--out``, or ``default_name`` in
    ``$LATMECH_OUTDIR``.  The one check of the run's output files: the
    artifact, ``--manifest``, ``--dump`` and the ``(flag, path)`` pairs
    ``files``.  Each command calls it after its input checks and before
    any work.  It raises ``ValueError``, naming the flag, when an output
    flag is empty, two outputs resolve to one file, one runs through
    another (which would then have to be a directory), one names a
    directory, or its missing directory could not be made, and changes
    nothing on disk: ``_write`` makes the directory when it writes the
    file."""
    for key in ("out", "manifest", "dump", "dump_dir"):
        if getattr(args, key, None) == "":
            raise ValueError(f"--{key.replace('_', '-')} is empty")
    path, out = getattr(args, "out", None), "--out"
    if path is None:
        path = os.path.join(os.environ.get("LATMECH_OUTDIR", "."), default_name)
        out = "--out (its $LATMECH_OUTDIR default)"
    seen = {}
    for flag, name in [(out, path), ("--manifest", getattr(args, "manifest", None)),
                       ("--dump", getattr(args, "dump", None)), *files]:
        if not name:
            continue
        real, this = os.path.realpath(name), f"{flag} {name!r}"
        if real in seen:
            raise ValueError(f"{seen[real]} and {this} name one file")
        for other, that in seen.items():
            if os.path.commonpath([real, other]) in (real, other):
                inner, outer = (this, that) if len(real) > len(other) else (that, this)
                raise ValueError(f"{inner} runs through the output {outer}")
        seen[real] = this
        if os.path.isdir(name) or not os.path.basename(name):
            raise ValueError(f"{this} is a directory")
        # os.makedirs fails unless the nearest existing part of the
        # directory is a directory this process can write in
        parent = top = os.path.dirname(name)
        while top and not os.path.exists(top):
            top = os.path.dirname(top)
        if not os.path.isdir(top or "."):
            reason = "File exists" if top == parent else "Not a directory"
        elif top != parent and not os.access(top or ".", os.W_OK | os.X_OK):
            reason = "Permission denied"
        else:
            continue
        raise ValueError(f"{this}: cannot make its directory {parent!r}: {reason}")
    return path


def _finish(args, path: str, text: str) -> None:
    """Write the artifact ``text`` to ``path``, then the run configuration
    (every option the command parsed) to ``--manifest`` when one is given,
    and report the artifact."""
    _write(path, text)
    manifest = getattr(args, "manifest", None)
    if manifest:
        options = {key: val for key, val in vars(args).items()
                   if key not in ("func", "command", "manifest")}
        _write(manifest, json.dumps({"command": args.command, "options": options},
                                    sort_keys=True, indent=2) + "\n")
    print(f"wrote {path}")


def _load_spec(args) -> LatticeSpec:
    """The ``--spec`` lattice: a builtin, a variant kind built with
    ``--params``, or the text of a spec JSON file."""
    name = args.spec
    params = {}
    for item in args.params.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        if not _:
            raise ValueError(f"malformed --params entry {item!r}; expected key=value")
        try:
            value = float(val)
        except ValueError:
            value = None
        if value is None or not np.isfinite(value):
            raise ValueError(f"--params entry {item!r} is not a finite number")
        key = key.strip()
        if key in params:
            raise ValueError(f"--params entry {item!r} repeats the key {key!r}")
        params[key] = value
    if params and name not in VARIANT_KINDS:
        raise ValueError("--params only applies to variant kinds")
    if name == "kagome":
        return build_kagome()
    if name == "rotating-squares":
        return build_rotating_squares()
    if name in VARIANT_KINDS:
        valid = inspect.signature(VARIANT_KINDS[name]).parameters
        unknown = sorted(set(params) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown --params key {', '.join(map(repr, unknown))} for {name}; "
                f"valid keys: {', '.join(valid)}"
            )
        return build_variant(name, **params)
    if not name.endswith(".json"):
        raise ValueError(
            f"unknown spec {name!r}; use a builtin (kagome, rotating-squares), "
            f"a variant kind ({', '.join(sorted(VARIANT_KINDS))}), or a JSON path"
        )
    text = _read("--spec", name)
    try:
        return LatticeSpec.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--spec {name!r} is not valid JSON: {exc}") from None


def _grid_file(path: str) -> list:
    """The ``--grid file:PATH`` matrices: a JSON list of 2x2 rows."""
    try:
        rows = json.loads(_read("--grid", path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"--grid {path!r} is not valid JSON: {exc}") from None
    if not isinstance(rows, list):
        raise ValueError(f"grid file {path} must hold a JSON list of 2x2 matrices, "
                         f"got {type(rows).__name__}")
    if not rows:
        raise ValueError(f"grid file {path} holds an empty list")
    mats = []
    for i, m in enumerate(rows):
        try:
            mat = np.asarray(m, dtype=float)
        except (TypeError, ValueError):
            mat = None
        if mat is None or mat.shape != (2, 2):
            raise ValueError(f"grid file {path}: entry {i} is not a 2x2 matrix")
        if not np.isfinite(mat).all():
            raise ValueError(f"grid file {path}: entry {i} is not finite: {m!r}")
        mats.append(mat)
    return mats


def _parse_matrix(text: str) -> np.ndarray:
    items = text.split(",")
    vals = []
    for item in items:
        try:
            vals.append(float(item))
        except ValueError:
            raise ValueError(f"matrix entry {item.strip()!r} is not a number") from None
    if len(vals) != 4:
        raise ValueError("matrix must be four comma-separated numbers, row-major")
    for item, val in zip(items, vals):
        if not np.isfinite(val):
            raise ValueError(f"matrix entry {item.strip()!r} is not finite")
    return np.array(vals).reshape(2, 2)


def _parse_ks(text: str):
    """The ``--k`` supercell sizes: integers of at least 1, none twice,
    and none whose ``k x k`` supercell passes the grid limit."""
    seen = {}
    for item in text.split(","):
        try:
            k = int(item)
        except ValueError:
            raise ValueError(f"--k entry {item!r} is not an integer") from None
        if k < 1:
            raise ValueError(f"--k entry {item!r} must be at least 1")
        _check_size(k * k, f"the supercell cells of --k entry {item!r}")
        if k in seen:
            raise ValueError(f"--k entries {seen[k]!r} and {item!r} repeat the "
                             f"supercell size {k}")
        seen[k] = item
    return list(seen)


def _check_seed(args) -> None:
    """Reject a negative ``--seed``, which numpy's generators refuse."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def _parse_eps(text: str):
    """The ``--eps`` cell sizes, each a finite positive number in float or
    fraction syntax."""
    # imported here: only soft-mode reads fractions, and every process imports this module
    from fractions import Fraction

    out = []
    for item in text.split(","):
        try:
            eps = float(Fraction(item.strip()))
        except ZeroDivisionError:
            raise ValueError(f"--eps entry {item!r} divides by zero") from None
        except (ValueError, OverflowError):
            raise ValueError(f"--eps entry {item!r} is not a finite number") from None
        if not eps > 0:
            raise ValueError(f"--eps entry {item!r} must be positive, got {eps:g}")
        out.append(eps)
    return out


def _file_name(text: str) -> str:
    """``text`` as the name of one file: each ``/`` becomes ``_``, so a
    default output name makes no directory."""
    return text.replace("/", "_")


def _dump_name(eps: float) -> str:
    return _file_name(f"soft_mode_eps_{eps:.6g}.json")


def _check_ladder(text: str, eps_list) -> None:
    """Reject two ``--eps`` entries that agree to the 6 significant digits
    the dump file names carry: a repeated rung adds a duplicate CSV row,
    overwrites its dump and leaves the decay fit degenerate."""
    seen = {}
    for item, eps in zip((item.strip() for item in text.split(",")), eps_list):
        name = _dump_name(eps)
        if name in seen:
            first, first_eps = seen[name]
            why = (f"repeat the cell size {_fmt(eps)}" if eps == first_eps else
                   f"agree to 6 significant digits ({eps:.6g}) and would share "
                   f"the dump file name {name}")
            raise ValueError(f"--eps entries {first!r} and {item!r} {why}")
        seen[name] = item, eps


def _jobs(args, n_tasks: int) -> int:
    """``--jobs``, by default the CPUs this process may run on (its
    affinity mask where the platform has one), capped at ``n_tasks``."""
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return min(jobs, n_tasks)


def _pool_map(fn, payloads, jobs: int):
    """``[fn(*p) for p in payloads]``, in ``jobs`` forked worker processes
    when there are two or more jobs and tasks.  Payloads and results cross
    processes by pickle: a spec or lattice map is rebuilt there by its own
    constructor (see ``LatticeSpec.__reduce__``)."""
    if jobs <= 1 or len(payloads) <= 1:
        return [fn(*p) for p in payloads]
    import multiprocessing  # only a parallel run pays for the import

    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return pool.starmap(fn, payloads)


# JSON text of non-finite floats, as the json module writes them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NODE_COLUMNS = ("node", "offset1", "offset2", "ref_x", "ref_y", "x", "y")


def _json_numbers(col) -> list:
    """The JSON text of each entry of a 1-D int64 or float64 array: the
    shortest round-trip repr, with NaN/Infinity/-Infinity for non-finite
    floats.  Each distinct bit pattern is formatted once (floats are told
    apart by their int64 view, so 0.0 and -0.0 stay apart)."""
    floats = col.dtype.kind == "f"
    uniq, inverse = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
    uniq = uniq.view(np.float64) if floats else uniq
    text = list(map(repr, uniq.tolist()))
    for i in np.flatnonzero(~np.isfinite(uniq)).tolist():
        text[i] = _NONFINITE[text[i]]
    return np.array(text, dtype=object)[inverse].tolist()


def _json_row(indent: int, width: int) -> str:
    """``%`` template of a JSON list of ``width`` numbers at ``indent``."""
    pad = " " * indent
    return f"{pad}[\n" + ",\n".join([f"{pad} %s"] * width) + f"\n{pad}]"


def _json_table(row: str, columns) -> str:
    """A top-level list of ``json.dumps(..., indent=1)``: one ``row``
    template per item, filled from ``columns`` row by row."""
    n = len(columns[0])
    if n == 0:
        return "[]"
    cells = chain.from_iterable(zip(*map(_json_numbers, columns)))
    return "[\n" + ",\n".join([row] * n) % tuple(cells) + "\n ]"


def _dump_geometry(lmap, path: str) -> None:
    """Plot-ready geometry of a :class:`~latmech.energy.LatticeMap`: node
    positions, spring edges, and the rigid rotation angle of each
    penalized triangle.  The text is what
    ``json.dumps(payload, indent=1, sort_keys=True)`` writes, built
    straight from the arrays (see ``docs/formats.md``)."""
    spec = lmap.spec
    o1, o2 = unique_rows(lmap.keys[:, 1:]).T
    edges = unique_rows(lmap.placed(spec.spring_keys, o1, o2)[1].T)
    tri_rows = lmap.placed(spec.penalized_keys, o1, o2)[1].T
    R = kabsch_rotations(lmap.reference_positions[tri_rows], lmap.positions[tri_rows])
    angles = np.arctan2(R[:, 1, 0], R[:, 0, 0])
    triangle = ('  {\n   "angle": %s,\n   "nodes": '
                + _json_row(3, tri_rows.shape[1]).lstrip() + "\n  }")
    nodes = [*lmap.keys.T, *lmap.reference_positions.T, *lmap.positions.T]
    text = "".join([
        "{\n",
        f' "edges": {_json_table(_json_row(2, edges.shape[1]), edges.T)},\n',
        f' "epsilon": {json.dumps(lmap.epsilon)},\n',
        ' "node_columns": [\n', ",\n".join(f'  "{c}"' for c in _NODE_COLUMNS), "\n ],\n",
        f' "nodes": {_json_table(_json_row(2, len(nodes)), nodes)},\n',
        f' "triangles": {_json_table(triangle, [angles, *tri_rows.T])}\n',
        "}\n",
    ])
    _write(path, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    spec = _load_spec(args)
    path = _out_path(args, f"{spec.name}.json")
    print(f"{spec.name}: {spec.n_basic} nodes, {len(spec.spring_keys)} springs, "
          f"{len(spec.penalized_keys)} penalized triangles, "
          f"cell area {_fmt(spec.cell_area)}")
    _finish(args, path, spec.to_json() + "\n")
    return EXIT_OK


def _cmd_energy(args) -> int:
    from .energy import _check_eta, energy_breakdown

    if not 0 <= args.psi_amp < np.inf:
        raise ValueError(f"--psi-amp must be finite and >= 0, got {args.psi_amp:g}")
    _check_seed(args)
    _parse_ks(str(args.k))     # density-sweep's rule for one --k entry
    spec = _load_spec(args)
    _check_eta(args.eta, spec.penalized_area, args.k * args.k)
    path = _out_path(args, "energy.csv")
    cell = Supercell(spec, args.k)
    lam = _parse_matrix(args.lam) if args.lam else np.eye(2)
    if args.psi_amp > 0:
        rng = np.random.default_rng(args.seed)
        psi = args.psi_amp * rng.standard_normal((cell.n_nodes, 2))
    else:
        psi = np.zeros((cell.n_nodes, 2))
    # an overflow shows as a total that is not finite, so it is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        bd = energy_breakdown(PeriodicDeformation(cell, lam, psi), args.eta)
    if not np.isfinite(bd.averaged):
        raise ValueError(f"the exact energy overflows at --lam {args.lam or '1,0,0,1'} and "
                         f"--psi-amp {args.psi_amp:g}")
    print(f"spring total {_fmt(bd.spring_total)}, penalty total "
          f"{_fmt(bd.penalty_total)}, averaged density {_fmt(bd.averaged)}")
    # a row per penalized triangle per cell, triangle by triangle
    n_tri, cells = bd.per_triangle_spring.shape
    c = np.tile(np.arange(cells), n_tri)
    _finish(args, path, _csv(
        ["cell_i", "cell_j", "triangle", "spring_energy", "step_penalty"],
        [c // bd.k, c % bd.k, np.repeat(np.arange(n_tri), cells),
         bd.per_triangle_spring.ravel(), bd.per_triangle_penalty.ravel()]))
    return EXIT_OK


def _certificate_row(kind, label, cert):
    return [kind, label, cert.energy, cert.max_spring_residual, cert.min_det,
            cert.lam[0, 0], cert.lam[0, 1], cert.lam[1, 0], cert.lam[1, 1],
            cert.sigma1, cert.sigma2, cert.det_sign, cert.isotropy_defect]


_CERT_HEADER = ["kind", "parameter", "averaged_energy", "max_spring_residual",
                "min_det", "lam11", "lam12", "lam21", "lam22",
                "sigma1", "sigma2", "det_sign", "isotropy_defect"]


def _cmd_mechanism(args) -> int:
    from .energy import LatticeMap
    from .mechanisms import _twist_mechanisms, search_mechanisms, twist_admissible_range

    _check_seed(args)
    _parse_ks(str(args.k))     # density-sweep's rule for one --k entry
    if args.theta is not None and not np.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta:g}")
    if args.search:
        if args.restarts < 1:
            raise ValueError(f"--restarts must be at least 1, got {args.restarts}")
    elif args.theta is None and args.grid_points < 1:
        raise ValueError(f"--grid-points must be at least 1, got {args.grid_points}")
    elif args.theta is None:
        _check_size(args.grid_points, "the twist angles of --grid-points")
    spec = _load_spec(args)
    path = _out_path(args, "mechanisms.csv")
    rows = []
    last = None
    if args.search:
        hits = search_mechanisms(spec, args.k, restarts=args.restarts, rng_seed=args.seed)
        for i, mech in enumerate(hits):
            rows.append(_certificate_row(mech.kind, f"hit{i}", mech.certificate))
        print(f"{len(hits)} mechanism(s) found in {args.restarts} restarts at k={args.k}")
        if hits:
            last = hits[0]
    else:
        lo, hi = twist_admissible_range(spec)
        print(f"admissible twist range ({_fmt(lo)}, {_fmt(hi)})")
        thetas = ([args.theta] if args.theta is not None
                  else np.linspace(lo + 1e-6, hi - 1e-6, args.grid_points).tolist())
        for th, last in zip(thetas, _twist_mechanisms(spec, thetas, args.k)):
            rows.append(_certificate_row(last.kind, _fmt(th), last.certificate))
    # the CSV goes last, so a dump that fails leaves none
    if args.dump and last is not None:
        cells = [(i, j) for i in range(args.k + 1) for j in range(args.k + 1)]
        _dump_geometry(LatticeMap.from_periodic(last.deformation, 1.0, cells), args.dump)
        print(f"wrote geometry dump {args.dump}")
    _finish(args, path, _csv(_CERT_HEADER, zip(*rows)))
    return EXIT_OK


def _density_task(spec, lams, eta, ks, restarts, seed):
    """The density solves of one grid chunk: per gradient of ``lams``, one
    per ``k`` of ``ks``, each projected to the six numbers that its CSV row
    and its trouble note read: a whole ``DensityEstimate`` would carry its
    minimizer and ``Supercell`` (1-8 KB per solve) back through the pool."""
    from .cellsolver import _estimate_densities

    return [[(est.upper, est.upper_spring, est.upper_penalty,
              est.solver_trace["unconverged_stages"], est.solver_trace["stalled_stages"],
              est.solver_trace["twist_bracket_gap"]) for est in ests]
            for ests in _estimate_densities(spec, lams, eta, ks, restarts, seed)]


def _cmd_density_sweep(args) -> int:
    # imported before the pool forks, so each worker inherits the solver
    from .cellsolver import _SHORT_TOL, _check_cell_eta, _check_cell_lams, lambda_grid
    from .geometry import lower_bracket

    _check_seed(args)
    if args.restarts < 0:
        raise ValueError(f"--restarts must be >= 0, got {args.restarts}")
    ks = _parse_ks(args.k)
    spec = _load_spec(args)
    _check_cell_eta(spec, args.eta, max(ks))
    lams = (_grid_file(args.grid.split(":", 1)[1]) if args.grid.startswith("file:")
            else lambda_grid(args.grid, rng_seed=args.seed))
    _check_cell_lams(spec, lams, max(ks))
    # one task per contiguous chunk of the grid, one chunk per job, each
    # running the whole k-list; no row of a stack reads another
    jobs = _jobs(args, len(lams))
    cuts = [len(lams) * i // jobs for i in range(jobs + 1)]
    payloads = [(spec, lams[a:b], args.eta, ks, args.restarts, args.seed)
                for a, b in zip(cuts, cuts[1:])]
    path = _out_path(args, _file_name(f"density_{args.grid.replace(':', '_')}.csv"))
    solved = chain.from_iterable(_pool_map(_density_task, payloads, jobs))
    rows, trouble = [], []
    for li, (lam, per_k) in enumerate(zip(lams, solved)):
        bracket = lower_bracket(lam)
        by_k = dict(zip(ks, per_k))
        for k, (upper, spring, penalty, unconverged, stalled, gap) in by_k.items():
            ratio = upper / bracket if bracket > 1e-12 else float("nan")
            rows.append([li, lam[0, 0], lam[0, 1], lam[1, 0], lam[1, 1], k,
                         args.eta, upper, spring, penalty, bracket, ratio])
            notes = []
            if unconverged:
                notes.append(f"{unconverged} unconverged L-BFGS stage(s)")
            if stalled:
                notes.append(f"{stalled} stalled L-BFGS stage(s)")
            if gap is not None:
                notes.append(f"failed twist bracket, contraction gap {gap:.3g}")
            # a d-periodic state is k-periodic for d | k, so upper(k) <= upper(d)
            # up to the rounding of two supercells' sums of one state
            notes += [f"upper above k={d}'s" for d in ks
                      if d < k and k % d == 0
                      and upper - by_k[d][0] > max(_SHORT_TOL, 1e-9 * by_k[d][0])]
            if notes:
                trouble.append(f"({li}, {k}) {', '.join(notes)}")
    uppers = [r[7] for r in rows]
    print(f"{len(lams)} matrices x k={ks}: max upper {_fmt(max(uppers))}, "
          f"min upper {_fmt(min(uppers))}")
    if trouble:
        print(f"latmech density-sweep: solver trouble at (index, k): {'; '.join(trouble)}",
              file=sys.stderr)
    _finish(args, path, _csv(
        ["index", "lam11", "lam12", "lam21", "lam22", "supercell_k", "eta",
         "upper_density", "upper_spring_part", "upper_penalty_part",
         "stretch_bracket", "upper_over_bracket"], zip(*rows)))
    return EXIT_OK


def _cmd_verify_bounds(args) -> int:
    from .cellsolver import (_check_cell_eta, lambda_grid, orientation_threshold,
                             verify_isotropic_bound, verify_jensen_bounds)

    _check_seed(args)
    _check_size(args.k_max * args.k_max, f"the supercell cells of --k-max {args.k_max}")
    spec = _load_spec(args)
    # checked on every run, so a bad --eta never passes unread
    _check_cell_eta(spec, args.eta, 1)    # verify-bounds --isotropic solves at k=1
    path = _out_path(args, "bounds.csv")
    reports = verify_jensen_bounds(spec, n_trials=args.trials,
                                   k_max=args.k_max, rng_seed=args.seed)
    checked = [reports[name] for name in sorted(reports)]
    rows = [[rep.name, rep.n_trials, rep.min_slack,
             "" if rep.equality_gap is None else _fmt(rep.equality_gap)] for rep in checked]
    if args.isotropic:
        iso = verify_isotropic_bound(spec, args.eta, lambda_grid("noniso"),
                                     k=1, rng_seed=args.seed)
        checked.append(iso)
        rows.append(["isotropy-energy-gap", iso.n_trials, iso.c_fit, ""])
    # the least of the min_slack column; np.min keeps a NaN, min would skip it
    worst = float(np.min([row[2] for row in rows]))
    print(f"{len(rows)} bounds verified on {spec.name}; worst slack {_fmt(worst)} "
          f"(eta threshold {_fmt(orientation_threshold(spec))})")
    _finish(args, path, _csv(["bound", "trials", "min_slack", "equality_gap"], zip(*rows)))
    return EXIT_OK if all(rep.holds for rep in checked) else EXIT_VERIFICATION


def _cmd_domain_wall(args) -> int:
    from .mechanisms import domain_wall_angles, domain_wall_mechanism

    theta = domain_wall_angles(args.theta1, n=args.n)
    path = _out_path(args, "domain_wall.csv")
    # the CSV goes last, so a strip that fails its checks leaves none
    if args.strip:
        wall = domain_wall_mechanism(args.theta1, half_width=args.half_width,
                                     rows=args.rows)
        print(f"strip m={args.half_width}: misfit {_fmt(wall.max_misfit)}, "
              f"spring residual {_fmt(wall.max_spring_residual)}, "
              f"min det {_fmt(wall.min_det)}")
        print(f"far-field compression left {_fmt(wall.compression_left)} / "
              f"right {_fmt(wall.compression_right)} "
              f"(gap {_fmt(wall.far_field_gap)}), limit angle {_fmt(wall.theta_limit)}")
    _finish(args, path, _csv(["column", "twist_angle"], [np.arange(len(theta)), theta]))
    return EXIT_OK


def _cmd_soft_mode(args) -> int:
    # imported before the pool forks, so each worker inherits modulate
    from .energy import _cell_box, _check_eta
    from .softmodes import (_probe_margin, default_target, ladder_exponents, modulate,
                            soft_mode_report)

    if args.sweeps < 0:
        raise ValueError(f"--sweeps must be >= 0, got {args.sweeps}")
    spec = _load_spec(args)
    target = default_target()
    eps_list = _parse_eps(args.eps)
    _check_ladder(args.eps, eps_list)
    _check_eta(args.eta, spec.penalized_area, 1)
    _probe_margin(spec, target, max(eps_list))    # the weak-limit probes of the coarsest rung
    # the cell window of the finest rung, counted in Python floats, which overflow to inf
    lo, hi = _cell_box(spec, target.polygon, min(eps_list))
    cells = math.prod(h - l + 1 for l, h in zip(lo.tolist(), hi.tolist()))
    _check_size(cells, f"the window cells of the finest --eps rung {min(eps_list):.6g}")
    jobs = _jobs(args, len(eps_list))
    dumps = ([("--dump-dir", os.path.join(args.dump_dir, _dump_name(eps))) for eps in eps_list]
             if args.dump_dir else [])
    path = _out_path(args, "soft_mode.csv", *dumps)
    payloads = [(spec, target, eps, args.sweeps) for eps in eps_list]
    maps = _pool_map(modulate, payloads, jobs)
    rep = soft_mode_report(maps, target, args.eta)
    dens = rep.energy_densities
    if len(dens) < 2:
        print("a single rung; decay exponent undefined")
    elif not rep.exponent_defined:
        print("an energy at or below the solver floor 1e-10; decay exponent undefined")
    else:
        print(f"fitted decay exponent {_fmt(rep.fitted_exponent)}; "
              f"final/first {_fmt(rep.final_over_first)}")
        if len(dens) > 2:
            steps, fine, fine_eps = ladder_exponents(eps_list, dens)
            print(f"successive exponents {', '.join(f'{s:.4g}' for s in steps)}; "
                  f"fit over the finest {len(fine_eps)} rungs "
                  f"(eps <= {max(fine_eps):.6g}) {fine:.4g}")
    # the CSV goes last, so a dump that fails leaves none
    if dumps:
        for lmap, (_, dump) in zip(maps, dumps):
            _dump_geometry(lmap, dump)
        print(f"wrote {len(maps)} geometry dumps to {args.dump_dir}")
    _finish(args, path, _csv(
        ["epsilon", "n_cells", "energy_per_area", "max_cell_energy",
         "probe_l2_error", "cr_residual", "max_conformal_factor", "n_boxes"], zip(*rep.rows())))
    return EXIT_OK


def _cmd_inequalities(args) -> int:
    from .geometry import scalar_inequality_report

    path = _out_path(args, "inequalities.csv")
    reports = scalar_inequality_report(lam_step=args.lam_step,
                                       theta_step=args.theta_step)
    rows = []
    for rep in reports:
        arg = list(rep.argmin) + [""] * (2 - len(rep.argmin))
        rows.append([rep.name, rep.min_slack, arg[0], arg[1]])
    # the least of the min_slack column; np.min keeps a NaN, min would skip it
    worst = float(np.min([row[1] for row in rows]))
    print(f"{len(rows)} inequalities; worst slack {_fmt(worst)}")
    _finish(args, path, _csv(["inequality", "min_slack", "argmin_1", "argmin_2"], zip(*rows)))
    return EXIT_OK if all(rep.holds for rep in reports) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="latmech", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p, spec_default=None):
        if spec_default is not None:
            p.add_argument("--spec", default=spec_default,
                           help="builtin name, variant kind, or spec JSON path")
            p.add_argument("--params", default="",
                           help="variant parameters, e.g. alpha=1.2,size_ratio=0.8")
        p.add_argument("--out", help="output path (default: $LATMECH_OUTDIR)")
        p.add_argument("--manifest", help="also write the run configuration JSON here")

    p = sub.add_parser("build", help="write a lattice spec as JSON")
    common(p, spec_default="kagome")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("energy", help="evaluate one periodic deformation")
    common(p, spec_default="kagome")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--lam", help="affine part, row-major a,b,c,d (default identity)")
    p.add_argument("--psi-amp", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("mechanism", help="twist certificates or a mechanism search")
    common(p, spec_default="kagome")
    p.add_argument("--theta", type=float, help="single twist angle")
    p.add_argument("--grid-points", type=int, default=50,
                   help="certificate grid over the admissible range")
    p.add_argument("--search", action="store_true", help="random-restart search")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", help="write deformed geometry JSON here")
    p.set_defaults(func=_cmd_mechanism)

    p = sub.add_parser("density-sweep", help="effective-density upper bounds on a grid")
    common(p, spec_default="kagome")
    p.add_argument("--grid", default="iso",
                   help="iso | diag | noniso | random:N | file:PATH")
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--k", default="1,2", help="comma-separated supercell sizes")
    p.add_argument("--restarts", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int,
                   help="worker processes, one contiguous grid chunk each "
                        "(default: the CPUs this process may use)")
    p.set_defaults(func=_cmd_density_sweep)

    p = sub.add_parser("verify-bounds", help="explicit-constant bound verification")
    common(p, spec_default="rotating-squares")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--isotropic", action="store_true",
                   help="also fit the isotropy energy-gap constant (slower)")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("domain-wall", help="wall angle recursion and strip assembly")
    common(p)
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--strip", action="store_true", help="assemble and certify the strip")
    p.add_argument("--half-width", type=int, default=15)
    p.add_argument("--rows", type=int, default=4)
    p.set_defaults(func=_cmd_domain_wall)

    p = sub.add_parser("soft-mode", help="conformal-target modulation scaling")
    common(p, spec_default="kagome")
    p.add_argument("--eps", default="1/8,1/16,1/32,1/64",
                   help="comma-separated cell sizes (fractions allowed)")
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--sweeps", type=int, default=200)
    p.add_argument("--jobs", type=int,
                   help="worker processes (default: the CPUs this process may use)")
    p.add_argument("--dump-dir", help="write per-epsilon geometry dumps here")
    p.set_defaults(func=_cmd_soft_mode)

    p = sub.add_parser("inequalities", help="scalar inequality slack certificates")
    common(p)
    p.add_argument("--lam-step", type=float, default=0.01)
    p.add_argument("--theta-step", type=float, default=0.001)
    p.set_defaults(func=_cmd_inequalities)

    return parser


def _run(args) -> int:
    """Run the parsed command; its exit code."""
    try:
        return args.func(args)
    except (ValueError, MechanismError, OSError) as exc:
        print(f"latmech {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        # numpy names the allocation that failed; a plain MemoryError is empty
        why = f": {exc}" if str(exc) else ""
        print(f"latmech {args.command}: error: out of memory{why}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception:
        traceback.print_exc()
        print(f"latmech {args.command}: internal error", file=sys.stderr)
        return EXIT_INTERNAL


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` when ``None``);
    the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    code = _run(args)
    if argv is None:
        # run as the program (the latmech script, python -m latmech.cli), the
        # process exits next: its files are written and closed, so moving
        # every object to the permanent generation only spares the exit's
        # final collection a walk over the heap the OS takes back anyway;
        # main(argv) run in a longer process freezes nothing
        import gc

        gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
