"""Command-line interface: exit codes, determinism, and artifact formats."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import orphan_spring_json, percolating_units_json

import latmech.cli as cli
from latmech import cellsolver, geometry, mechanisms, softmodes
from latmech.energy import LatticeMap
from latmech.lattice import LatticeSpec, build_kagome, rotation


def run(argv):
    """Invoke the CLI in-process; normalize SystemExit to a return code."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_errors_exit_1(tmp_path):
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["energy", "--k", "notanint"]) == 1
    assert run(["domain-wall"]) == 1            # missing required --theta1


def test_precondition_errors_exit_2(tmp_path):
    out = str(tmp_path / "x")
    assert run(["build", "--spec", "no-such-lattice", "--out", out]) == 2
    assert run(["energy", "--eta", "-0.5", "--out", out]) == 2
    assert run(["domain-wall", "--theta1", "1.0", "--out", out]) == 2
    # the generic quadrilateral has no counter-rotation
    assert run(["mechanism", "--spec", "quad-squares",
                "--params", "alpha=1.2,s=0.4,q=0.6",
                "--theta", "0.3", "--out", out]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["build", "--spec", str(bad), "--out", out]) == 2
    orphan = tmp_path / "orphan.json"
    orphan.write_text(orphan_spring_json())
    assert run(["build", "--spec", str(orphan), "--out", out]) == 2


@pytest.mark.parametrize("argv, named", [
    (["soft-mode", "--eps", "1/0"], "'1/0'"),
    (["domain-wall", "--theta1", "2.3", "--n", "0"], "got 0"),
    (["domain-wall", "--theta1", "2.3", "--strip", "--half-width", "0"], "got 0 and 4"),
    (["domain-wall", "--theta1", "2.3", "--strip", "--rows", "0"], "got 15 and 0"),
    (["domain-wall", "--theta1", "2.3", "--strip", "--rows", "1"], "rows >= 2, got 15 and 1"),
    (["mechanism", "--grid-points", "0"], "--grid-points must be at least 1, got 0"),
    (["mechanism", "--k", "0"], "--k entry '0' must be at least 1"),
    (["inequalities", "--lam-step", "0"], "lam_step must be positive, got 0"),
    (["soft-mode", "--sweeps", "-3", "--jobs", "1"], "--sweeps must be >= 0, got -3"),
    (["density-sweep", "--restarts", "-1", "--jobs", "1"], "--restarts must be >= 0, got -1"),
    (["density-sweep", "--grid", "random:0"], "at least 1 matrix, got 'random:0'"),
    (["mechanism", "--search", "--restarts", "0"], "--restarts must be at least 1, got 0"),
    (["verify-bounds", "--trials", "0"], "trials and k_max must be >= 1, got 0 and 3"),
    (["verify-bounds", "--k-max", "0"], "trials and k_max must be >= 1, got 1000 and 0"),
    (["inequalities", "--lam-step", "inf"], "lam_step must be finite, got inf"),
    (["inequalities", "--lam-step", "4"], "lam_step must be at most 3, the largest "
                                          "stretch, got 4"),
    (["inequalities", "--theta-step", "inf"], "theta_step must be finite, got inf"),
    (["inequalities", "--theta-step", "7"], "theta_step must be below pi/3 so the "
                                            "three-direction sweep holds two angles, got 7"),
    (["inequalities", "--theta-step", "1.0472"], "holds two angles, got 1.0472"),
    (["energy", "--eta", "nan"], "penalty strength eta must be positive, got nan"),
    (["density-sweep", "--grid", "random:2", "--k", "1", "--eta", "nan", "--jobs", "1"],
     "penalty strength eta must be positive, got nan"),
    (["density-sweep", "--grid", "random:2", "--k", "1", "--eta", "0", "--jobs", "1"],
     "penalty strength eta must be positive, got 0"),
    (["verify-bounds", "--isotropic", "--trials", "1", "--k-max", "1", "--eta", "nan"],
     "penalty strength eta must be positive, got nan"),
    (["verify-bounds", "--isotropic", "--trials", "1", "--k-max", "1", "--eta", "-1"],
     "penalty strength eta must be positive, got -1"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "-1"],
     "penalty strength eta must be positive, got -1"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "0"],
     "penalty strength eta must be positive, got 0"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "nan"],
     "penalty strength eta must be positive, got nan"),
    (["density-sweep", "--jobs", "0"], "--jobs must be at least 1, got 0"),
    (["soft-mode", "--jobs", "-1"], "--jobs must be at least 1, got -1"),
    (["density-sweep", "--grid", "random:x"],
     "random grid needs an integer count, got 'random:x'"),
    (["energy", "--psi-amp", "nan"], "--psi-amp must be finite and >= 0, got nan"),
    (["energy", "--psi-amp", "-0.05"], "--psi-amp must be finite and >= 0, got -0.05"),
    (["energy", "--psi-amp", "inf"], "--psi-amp must be finite and >= 0, got inf"),
    (["energy", "--lam", "inf,0,0,1"], "matrix entry 'inf' is not finite"),
    (["energy", "--lam", "1,0,0,nan"], "matrix entry 'nan' is not finite"),
    (["mechanism", "--theta", "nan"], "--theta must be finite, got nan"),
    (["mechanism", "--theta", "inf"], "--theta must be finite, got inf"),
    (["mechanism", "--theta", "-inf", "--dump", "g.json"], "--theta must be finite, got -inf"),
    # named before the grid file is read or a pool starts
    (["density-sweep", "--grid", "file:no-such-grid.json", "--restarts", "-2", "--jobs", "2"],
     "--restarts must be >= 0, got -2"),
    (["soft-mode", "--eps", "1/8,1/16", "--sweeps", "-1", "--jobs", "2"],
     "--sweeps must be >= 0, got -1"),
    (["soft-mode", "--spec", "no-such-spec", "--sweeps", "-1", "--jobs", "1"],
     "--sweeps must be >= 0, got -1"),
    (["energy", "--eta", "inf", "--lam", "1,0.2,0,-0.5"],
     "penalty strength eta must be positive, got inf"),
    (["density-sweep", "--grid", "random:1", "--k", "1", "--eta", "inf", "--jobs", "1"],
     "penalty strength eta must be positive, got inf"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "inf"],
     "penalty strength eta must be positive, got inf"),
    (["verify-bounds", "--isotropic", "--trials", "1", "--k-max", "1", "--eta", "inf"],
     "penalty strength eta must be positive, got inf"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "inf"],
     "penalty strength eta must be positive, got inf"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta=-inf"],
     "penalty strength eta must be positive, got -inf"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "nan"],
     "penalty strength eta must be positive, got nan"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "0"],
     "penalty strength eta must be positive, got 0"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "-1"],
     "penalty strength eta must be positive, got -1"),
    # a negative value in exponent, inf or list form is the option's value
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "-inf"],
     "penalty strength eta must be positive, got -inf"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--eta", "-1e-3"],
     "penalty strength eta must be positive, got -0.001"),
    (["energy", "--eta", "-inf"], "penalty strength eta must be positive, got -inf"),
    (["energy", "--eta", "-1e-3"], "penalty strength eta must be positive, got -0.001"),
    (["density-sweep", "--grid", "random:1", "--k", "1", "--eta", "-1e-3", "--jobs", "1"],
     "penalty strength eta must be positive, got -0.001"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "-inf"],
     "penalty strength eta must be positive, got -inf"),
    # positive, but small enough that a triangle's penalty overflows
    (["energy", "--lam", "1,0.2,0,-0.5", "--eta", "1e-320"],
     "penalty strength eta 1e-320 is so small that the penalty unit area/eta overflows"),
    # each unit is finite, but not their sum over the k x k cells
    (["energy", "--k", "4", "--lam", "1,0.2,0,-0.5", "--eta", "3e-308"],
     "penalty strength eta 3e-308 is so small that the penalty total of 16 cells "
     "with every triangle reversed overflows"),
    (["soft-mode", "--eps", "1/8", "--sweeps", "0", "--jobs", "1", "--eta", "1e-320"],
     "penalty strength eta 1e-320 is so small that the penalty unit area/eta overflows"),
    (["density-sweep", "--grid", "random:1", "--k", "1", "--restarts", "0", "--eta", "1e-320",
      "--jobs", "1"], "penalty strength eta 1e-320 is so small that the smoothed slope "
                      "area/(eta*tau) at tau=0.003 overflows"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--isotropic", "--eta", "1e-320"],
     "penalty strength eta 1e-320 is so small that the smoothed slope "
     "area/(eta*tau) at tau=0.003 overflows"),
    (["energy", "--psi-amp", "-1e-3"], "--psi-amp must be finite and >= 0, got -0.001"),
    (["energy", "--lam", "-inf,0,0,1"], "matrix entry '-inf' is not finite"),
    (["energy", "--lam", "a,0,0,1"], "matrix entry 'a' is not a number"),
    (["soft-mode", "--eps", "nan"], "--eps entry 'nan' is not a finite number"),
    (["soft-mode", "--eps", "1/8,inf"], "--eps entry 'inf' is not a finite number"),
    (["soft-mode", "--eps", "1/8,abc"], "--eps entry 'abc' is not a finite number"),
    (["soft-mode", "--eps", "1e400"], "--eps entry '1e400' is not a finite number"),
    (["soft-mode", "--eps", "0,1/8", "--jobs", "2"], "--eps entry '0' must be positive, got 0"),
    (["soft-mode", "--eps", "-1/8"], "--eps entry '-1/8' must be positive, got -0.125"),
    (["soft-mode", "--eps", "1/8,1e-400"], "--eps entry '1e-400' must be positive, got 0"),
    (["density-sweep", "--grid", "random:1", "--k", "1", "--jobs", "1", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    # named before the grid file is read (this one does not exist)
    (["density-sweep", "--grid", "file:no-such-grid.json", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["verify-bounds", "--trials", "1", "--k-max", "1", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["energy", "--psi-amp", "0.1", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["mechanism", "--search", "--restarts", "1", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["density-sweep", "--grid", "random:1", "--k", "1,,2", "--jobs", "1"],
     "--k entry '' is not an integer"),
    (["density-sweep", "--grid", "random:1", "--k", "1,x", "--jobs", "1"],
     "--k entry 'x' is not an integer"),
    (["density-sweep", "--grid", "file:no-such-grid.json", "--k", "2,0"],
     "--k entry '0' must be at least 1"),
    (["density-sweep", "--grid", "random:1", "--k", "1,1", "--jobs", "1"],
     "--k entries '1' and '1' repeat the supercell size 1"),
    (["density-sweep", "--grid", "file:no-such-grid.json", "--k", "2,1,02"],
     "--k entries '2' and '02' repeat the supercell size 2"),
    (["energy", "--k", "0"], "--k entry '0' must be at least 1"),
    (["energy", "--k", "-2", "--psi-amp", "0.1"], "--k entry '-2' must be at least 1"),
    (["mechanism", "--k", "0", "--theta", "0.3"], "--k entry '0' must be at least 1"),
    (["mechanism", "--search", "--restarts", "1", "--k", "0"],
     "--k entry '0' must be at least 1"),
])
def test_out_of_range_numbers_exit_2(tmp_path, capsys, argv, named):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    # no result printed before the error
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("eps, named", [
    ("1/8,0.125", "'1/8' and '0.125' repeat the cell size 0.125"),
    ("1/16,1/8,1/16", "'1/16' and '1/16' repeat the cell size 0.0625"),
    ("1/3,0.3333333", "'1/3' and '0.3333333' agree to 6 significant digits "
                      "(0.333333) and would share the dump file name "
                      "soft_mode_eps_0.333333.json"),
])
def test_soft_mode_repeated_rung_exits_2_before_modulating(tmp_path, capsys, monkeypatch,
                                                           eps, named):
    def no_modulation(*args, **kwargs):
        raise AssertionError("modulate ran")

    monkeypatch.setattr(softmodes, "modulate", no_modulation)
    out, dumps = tmp_path / "x.csv", tmp_path / "D"
    assert run(["soft-mode", "--eps", eps, "--jobs", "1", "--dump-dir", str(dumps),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--eps entries {named}" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert not dumps.exists()


@pytest.mark.parametrize("argv, named", [
    (["--eps", "0,1/8"], "--eps entry '0' must be positive, got 0"),
    (["--eps", "1/8,-1/16"], "--eps entry '-1/16' must be positive, got -0.0625"),
    (["--eps", "1/8,nan"], "--eps entry 'nan' is not a finite number"),
    (["--eps", "1/8,1/16", "--eta", "0"], "penalty strength eta must be positive, got 0"),
    (["--eps", "1/8,1/16", "--dump-dir", "FILE"],
     "--dump-dir '<dir>/FILE/soft_mode_eps_0.125.json': cannot make its directory "
     "'<dir>/FILE': File exists"),
    # the coarsest rung's weak-limit probes need a margin of 1.25 * 1/4 * 2
    (["--eps", "1/4,1/64"], "target domain too small for the probe margin 0.625 of the "
                            "coarsest cell size 0.25"),
])
def test_soft_mode_bad_input_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                     argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("modulation or a pool ran")

    monkeypatch.setattr(softmodes, "modulate", no_work)
    monkeypatch.setattr(cli, "_pool_map", no_work)
    (tmp_path / "FILE").write_text("kept")
    argv = [str(tmp_path / "FILE") if a == "FILE" else a for a in argv]
    out = tmp_path / "x.csv"
    assert run(["soft-mode", "--jobs", "2", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert named in err.replace(str(tmp_path), "<dir>")
    assert "Traceback" not in err
    assert not out.exists()
    assert (tmp_path / "FILE").read_text() == "kept"


@pytest.mark.parametrize("eps, named", [
    ("1/8,1e-5", "--eps cell size 1e-05 needs a window of 4.55e+09 lattice cells, "
                 "more than 1e+07"),
    ("1e-5,1/8", "--eps cell size 1e-05 needs a window of 4.55e+09"),
    ("1/8,1e-300", "--eps cell size 1e-300 needs a window of inf lattice cells"),
    ("1/8,1e-320", "--eps cell size 9.99989e-321 needs a window of nan lattice cells"),
])
def test_soft_mode_rung_too_fine_to_allocate_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, eps, named):
    # the allocation site fails if reached: no rung, not even 1/8, is modulated
    def no_work(*args, **kwargs):
        raise AssertionError("a cell window, modulation or a pool ran")

    for module, name in ((softmodes, "_cell_window"), (softmodes, "modulate"),
                         (cli, "_pool_map")):
        monkeypatch.setattr(module, name, no_work)
    out, dumps = tmp_path / "x.csv", tmp_path / "D"
    assert run(["soft-mode", "--eps", eps, "--jobs", "1", "--dump-dir", str(dumps),
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("eps, refused", [("1/8,1/4000", False), ("1/8,1/5000", True)])
def test_soft_mode_cell_window_limit_sits_between_neighbouring_rungs(tmp_path, capsys,
                                                                    monkeypatch, eps, refused):
    # 1/4000 needs 7.3e6 cells, 1/5000 1.1e7; modulation, faked, shows the check passed
    def reached(*args, **kwargs):
        raise ValueError("modulate reached")

    monkeypatch.setattr(softmodes, "modulate", reached)
    assert run(["soft-mode", "--eps", eps, "--jobs", "1", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert ("--eps cell size 0.0002 needs a window of 1.14e+07" in err) == refused
    assert ("modulate reached" in err) != refused


@pytest.mark.parametrize("argv, named", [
    (["energy", "--k", "100000"], "--k entry '100000' must be at most 3162, so that its "
                                  "supercell holds at most 1e+07 cells"),
    (["energy", "--k", "3163"], "--k entry '3163' must be at most 3162"),
    (["mechanism", "--k", "100000", "--theta", "0.3"], "--k entry '100000' must be at most 3162"),
    (["mechanism", "--k", "100000"], "--k entry '100000' must be at most 3162"),
    (["mechanism", "--search", "--restarts", "1", "--k", "100000"],
     "--k entry '100000' must be at most 3162"),
    (["density-sweep", "--grid", "iso", "--k", "1,100000", "--jobs", "1"],
     "--k entry '100000' must be at most 3162"),
], ids=["energy", "energy-3163", "mechanism-theta", "mechanism-grid", "mechanism-search",
        "density-sweep"])
def test_supercell_too_large_to_allocate_exits_2_before_any_work(tmp_path, capsys,
                                                                 monkeypatch, argv, named):
    # the allocation sites fail if reached; mechanism --k 100000 would
    # otherwise build about 1e10 cell tuples in _twist_plan
    def no_work(*args, **kwargs):
        raise AssertionError("a supercell, twist plan or pool was made")

    for module, name in ((cli, "Supercell"), (mechanisms, "_twist_plan"), (cli, "_pool_map")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["build", "--out", "x.json", "--manifest", "x.json"],
     "--out 'x.json' and --manifest 'x.json' name one file"),
    (["build", "--out", "./x.json", "--manifest", "x.json"],
     "--out './x.json' and --manifest 'x.json' name one file"),
    (["mechanism", "--theta", "0.3", "--dump", "y.csv", "--out", "y.csv"],
     "--out 'y.csv' and --dump 'y.csv' name one file"),
    (["soft-mode", "--jobs", "1", "--dump-dir", "D", "--out", "D/soft_mode_eps_0.125.json"],
     "--out 'D/soft_mode_eps_0.125.json' and --dump-dir 'D/soft_mode_eps_0.125.json' "
     "name one file"),
    (["energy", "--manifest", "out/energy.csv"],
     "--out (its $LATMECH_OUTDIR default) 'out/energy.csv' and --manifest "
     "'out/energy.csv' name one file"),
], ids=["out-manifest", "dot-slash", "out-dump", "out-dump-dir", "default-out"])
def test_two_outputs_naming_one_file_exit_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                           argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    for module, name in ((mechanisms, "twist_mechanism"), (softmodes, "modulate"),
                         (cli, "_pool_map"), (cli, "PeriodicDeformation")):
        monkeypatch.setattr(module, name, no_work)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LATMECH_OUTDIR", "out")
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# each output flag, as ``(flag, file name, argv)``: ``argv(target, d)`` runs a
# command whose ``flag`` names the file ``target``, with its other outputs in
# the directory ``d``; the --dump-dir file is the dump of the one rung 1/8
OUTPUT_FLAGS = {
    "build --out": ("--out", "k.json", lambda t, d: ["build", "--out", t]),
    "inequalities --out": ("--out", "i.csv", lambda t, d: [
        "inequalities", "--lam-step", "0.1", "--theta-step", "0.05", "--out", t]),
    "mechanism --out": ("--out", "m.csv", lambda t, d: [
        "mechanism", "--theta", "0.4", "--out", t]),
    "--manifest": ("--manifest", "run.json", lambda t, d: [
        "build", "--out", f"{d}/k.json", "--manifest", t]),
    "--dump": ("--dump", "g.json", lambda t, d: [
        "mechanism", "--theta", "0.4", "--dump", t, "--out", f"{d}/m.csv"]),
    "--dump-dir": ("--dump-dir", cli._dump_name(1 / 8), lambda t, d: [
        "soft-mode", "--eps", "1/8", "--sweeps", "5", "--jobs", "1",
        "--dump-dir", os.path.dirname(t), "--out", f"{d}/s.csv"]),
}


@pytest.mark.parametrize("case", ["directory", "missing-parent", "blocked-parent"])
@pytest.mark.parametrize("output", sorted(OUTPUT_FLAGS))
def test_every_output_path_is_planned_before_any_work(tmp_path, capsys, monkeypatch,
                                                      output, case):
    """An output that is an existing directory, or whose directory cannot
    be made, exits 2 naming its flag before any work; a missing directory
    is made."""
    flag, name, argv = OUTPUT_FLAGS[output]
    target = tmp_path / {"directory": "sub", "missing-parent": "new/sub",
                         "blocked-parent": "FILE/sub"}[case] / name
    argv = argv(str(target), str(tmp_path))
    if case == "missing-parent":
        assert run(argv) == 0
        # every path the run names is there: the target, the other outputs
        # and, for --dump-dir, the directory
        assert target.is_file()
        assert all(Path(a).exists() for a in argv if a.startswith(str(tmp_path)))
        return

    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    for module, func in ((geometry, "scalar_inequality_report"),
                         (mechanisms, "twist_admissible_range"),
                         (mechanisms, "twist_mechanism"), (softmodes, "modulate"),
                         (cli, "_pool_map")):
        monkeypatch.setattr(module, func, no_work)
    if case == "directory":
        target.mkdir(parents=True)
        named = f"{flag} {str(target)!r} is a directory"
    else:
        (tmp_path / "FILE").write_text("kept")
        named = f"{flag} {str(target)!r}: cannot make its directory {str(target.parent)!r}: "
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    # no artifact; the regular file in the blocked path is left as it was
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == (
        [] if case == "directory" else ["FILE"])
    assert case == "directory" or (tmp_path / "FILE").read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["soft-mode", "--jobs", "0", "--dump-dir", "newD"],
    ["density-sweep", "--jobs", "0", "--out", "newD/x.csv"],
    ["mechanism", "--grid-points", "0", "--out", "newD/m.csv", "--dump", "newG/g.json"],
    ["verify-bounds", "--spec", "missing.json", "--out", "newD/b.csv"],
    ["domain-wall", "--theta1", "1.0", "--out", "newD/w.csv"],
    ["inequalities", "--lam-step", "0", "--out", "n1/x.csv"],
    ["verify-bounds", "--trials", "0", "--out", "n2/x.csv"],
    ["domain-wall", "--theta1", "2.2", "--strip", "--half-width", "0", "--out", "n3/x.csv"],
], ids=["soft-mode-jobs", "density-sweep-jobs", "grid-points", "spec", "theta1",
        "lam-step", "trials", "half-width"])
def test_failed_input_check_leaves_no_file_or_directory(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LATMECH_OUTDIR", raising=False)
    assert run(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["build", "--out", "d/"], "--out 'd/' is a directory"),
    (["build", "--out="], "--out is empty"),
    (["inequalities", "--out="], "--out is empty"),
    (["build", "--out", "k.json", "--manifest="], "--manifest is empty"),
    (["mechanism", "--theta", "0.4", "--out", "m.csv", "--dump="], "--dump is empty"),
    (["soft-mode", "--eps", "1/8", "--jobs", "1", "--out", "s.csv", "--dump-dir="],
     "--dump-dir is empty"),
    (["build", "--out", "a.json", "--manifest", "a.json/m.json"],
     "--manifest 'a.json/m.json' runs through the output --out 'a.json'"),
    (["mechanism", "--theta", "0.3", "--dump", "g.json", "--out", "g.json/m.csv"],
     "--out 'g.json/m.csv' runs through the output --dump 'g.json'"),
    (["soft-mode", "--eps", "1/8", "--jobs", "1", "--dump-dir", "d", "--out", "d"],
     "--dump-dir 'd/soft_mode_eps_0.125.json' runs through the output --out 'd'"),
], ids=["trailing-separator", "build-out", "inequalities-out", "manifest", "dump", "dump-dir",
        "manifest-in-out", "out-in-dump", "dump-dir-in-out"])
def test_output_that_names_no_file_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                          argv, named):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran")

    for module, func in ((geometry, "scalar_inequality_report"),
                         (mechanisms, "twist_admissible_range"),
                         (mechanisms, "twist_mechanism"), (softmodes, "modulate"),
                         (cli, "_pool_map")):
        monkeypatch.setattr(module, func, no_work)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, named", [
    (["--lam-step", "1e-300"], "lam_step must be at least 0.000949, so that its grid holds "
                               "at most 1e+07 points, got 1e-300"),
    (["--lam-step", "1e-4"], "lam_step must be at least 0.000949"),
    (["--theta-step", "1e-300"], "theta_step must be at least 6.28e-07, so that its grid "
                                 "holds at most 1e+07 points, got 1e-300"),
], ids=["lam-1e-300", "lam-1e-4", "theta-1e-300"])
def test_inequality_step_too_fine_for_a_grid_exits_2(tmp_path, capsys, monkeypatch,
                                                     argv, named):
    # refused before the stretch grid is built
    def no_grid(step):
        raise AssertionError("grid built")

    monkeypatch.setattr(geometry, "_pair_grid", no_grid)
    monkeypatch.chdir(tmp_path)
    assert run(["inequalities", *argv, "--out", "n/x.csv"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_density_default_name_of_a_grid_file_makes_no_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LATMECH_OUTDIR", "outs")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "g.json").write_text("[[[1, 0], [0, 1]]]")
    assert run(["density-sweep", "--grid", "file:sub/g.json", "--k", "1", "--jobs", "1"]) == 0
    assert [p.name for p in (tmp_path / "outs").iterdir()] == ["density_file_sub_g.json.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["outs", "sub"]


@pytest.mark.parametrize("out, reason", [
    ("FILE/k.json", "'FILE': File exists"),
    ("FILE/sub/k.json", "'FILE/sub': Not a directory"),
    ("new/sub/k.json", "'new/sub': Permission denied"),
], ids=["file-exists", "not-a-directory", "permission-denied"])
def test_unmakeable_output_directory_gives_the_makedirs_reason(tmp_path, capsys, monkeypatch,
                                                              out, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_text("kept")
    # as if the working directory could not be written, which root can always
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    assert run(["build", "--out", out]) == 2
    captured = capsys.readouterr()
    assert f"--out {out!r}: cannot make its directory {reason}" in captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["FILE"]


def test_outputs_in_new_directories_are_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["build", "--out", "e/f/k.json", "--manifest", "g/m.json"]) == 0
    assert json.loads((tmp_path / "e/f/k.json").read_text())["name"] == "kagome"
    assert json.loads((tmp_path / "g/m.json").read_text())["command"] == "build"


@pytest.mark.parametrize("argv, named", [
    (["--spec", "missing.json", "--params", "alpha=1"], "--params only applies to variant kinds"),
    (["--spec", "kagome", "--params", "alpha=1"], "--params only applies to variant kinds"),
    (["--spec", "missing.json"], "--spec 'missing.json' cannot be read: No such file or directory"),
    (["--spec", "D.json"], "--spec 'D.json' cannot be read: Is a directory"),
], ids=["params-missing-file", "params-builtin", "missing-file", "directory"])
def test_spec_input_errors_name_their_flag(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D.json").mkdir()
    assert run(["build", *argv, "--out", "k.json"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize("content, named", [
    ("[]", "holds an empty list"),
    ('{"lam": [[1, 0], [0, 1]]}', "must hold a JSON list of 2x2 matrices, got dict"),
    ("[[[1, 0], [0, 1]], [1, 2, 3]]", "entry 1 is not a 2x2 matrix"),
    ("[[[1, 0], [0, 1]], [[Infinity, 0], [0, 1]]]",
     "entry 1 is not finite: [[inf, 0], [0, 1]]"),
    ("[[[0.9, 0], [0, NaN]]]", "entry 0 is not finite: [[0.9, 0], [0, nan]]"),
], ids=["empty", "not-a-list", "not-2x2", "infinite", "nan"])
def test_bad_grid_file_exits_2_before_writing(tmp_path, capsys, content, named):
    grid = tmp_path / "grid.json"
    grid.write_text(content)
    out = tmp_path / "x.csv"
    assert run(["density-sweep", "--grid", f"file:{grid}", "--jobs", "1",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"grid file {grid}" in err
    assert named in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("grid, named", [
    ("nosuch.json", "--grid 'nosuch.json' cannot be read: No such file or directory"),
    ("D", "--grid 'D' cannot be read: Is a directory"),
    ("bad.json", "--grid 'bad.json' is not valid JSON: Expecting ',' delimiter: "
                 "line 2 column 1 (char 10)"),
], ids=["missing", "directory", "malformed"])
def test_unreadable_grid_file_exits_2_naming_it(tmp_path, capsys, monkeypatch, grid, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "D").mkdir()
    (tmp_path / "bad.json").write_text("[[[1, 0]]\n[[0, 1]]]")
    assert run(["density-sweep", "--grid", f"file:{grid}", "--jobs", "1",
                "--out", "x.csv"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


def test_density_sweep_reads_a_grid_file(tmp_path):
    rows = [[[1.0, 0.2], [0.0, 0.9]], [[0.7, 0.0], [0.0, 1.1]]]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(rows))
    out = tmp_path / "x.csv"
    assert run(["density-sweep", "--grid", f"file:{grid}", "--k", "1", "--restarts", "1",
                "--jobs", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[1:5] == ["lam11", "lam12", "lam21", "lam22"]
    assert [[float(v) for v in line.split(",")[1:5]] for line in lines[1:]] == [
        [v for row in m for v in row] for m in rows]


@pytest.mark.parametrize("text, named", [
    ("[{}]", "bad lattice JSON: the top level is list, not an object"),
    ("5", "bad lattice JSON: the top level is int, not an object"),
    (json.dumps({**json.loads(build_kagome().to_json()), "springs": [1]}),
     "bad lattice JSON: spring entry 0 is int, not an object"),
], ids=["list", "number", "spring-entry"])
def test_spec_json_that_is_no_object_exits_2(tmp_path, capsys, text, named):
    spec = tmp_path / "f.json"
    spec.write_text(text)
    out = tmp_path / "k.json"
    assert run(["build", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_percolating_rigid_units_sweep_but_have_no_twist(tmp_path, capsys):
    spec = tmp_path / "allpen.json"
    spec.write_text(percolating_units_json())
    argv = ["density-sweep", "--spec", str(spec), "--grid", "diag", "--k", "1",
            "--restarts", "1"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(argv + ["--jobs", "1", "--out", a]) == 0
    assert run(argv + ["--jobs", "2", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert len(Path(a).read_text().splitlines()) == 37
    assert run(["verify-bounds", "--spec", str(spec), "--trials", "20", "--k-max", "1",
                "--isotropic", "--out", str(tmp_path / "bounds.csv")]) == 0
    capsys.readouterr()
    for cmd in (["mechanism"], ["soft-mode", "--eps", "1/8"]):
        assert run(cmd + ["--spec", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "a rigid unit contains a lattice translate of itself" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("params, named", [
    ("foo=1", "unknown --params key 'foo' for rhombus-squares; "
              "valid keys: angle, size_ratio, size"),
    ("size=nan", "--params entry 'size=nan' is not a finite number"),
    ("angle=1.1,size_ratio=inf", "--params entry 'size_ratio=inf' is not a finite number"),
    ("size=-inf", "--params entry 'size=-inf' is not a finite number"),
    ("angle=abc", "--params entry 'angle=abc' is not a finite number"),
    ("angle=", "--params entry 'angle=' is not a finite number"),
    ("angle=1,angle=2", "--params entry 'angle=2' repeats the key 'angle'"),
    ("angle=1,size=0.75, angle=1", "--params entry ' angle=1' repeats the key 'angle'"),
])
def test_bad_variant_params_exit_2(tmp_path, capsys, params, named):
    out = tmp_path / "x.json"
    assert run(["build", "--spec", "rhombus-squares", "--params", params,
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def _python(*lines) -> None:
    """Run ``lines`` in a fresh interpreter that imports this checkout's
    latmech; the test fails when they raise."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", "\n".join(lines)], check=True, env=env)


# defines loads(argv): run one command, which must exit 0, and return the
# latmech modules it loaded
_LOADS = [
    "import sys",
    "import latmech.cli as cli",
    "def loads(argv):",
    "    before = set(sys.modules)",
    "    assert cli.main(argv) == 0, argv",
    "    return {m for m in set(sys.modules) - before if m.startswith('latmech')}",
]


def test_cli_imports_no_scipy_until_a_solver_runs(tmp_path):
    """Each command loads only the modules it runs: the CLI alone loads
    the spec module, each of scipy's compiled solver modules waits for the
    first solve that uses it (the twist inversion's brentq, then L-BFGS)
    and no scipy package is ever imported, numpy.random waits for a random
    draw, and numpy.ma never loads."""
    grid = tmp_path / "det_neg.json"
    grid.write_text(json.dumps([[[1.1, 0.0], [0.0, -0.8]]]))
    _python(
        *_LOADS,
        "SCIPY = {'scipy', 'scipy.optimize', 'scipy.special'}",
        "assert 'scipy' not in sys.modules, 'scipy imported by latmech.cli'",
        "loaded = sorted(m for m in sys.modules if m.startswith('latmech'))",
        "assert loaded == ['latmech', 'latmech.cli', 'latmech.lattice'], loaded",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by latmech.cli'",
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported by latmech.cli'",
        f"assert loads(['build', '--out', {str(tmp_path / 'spec.json')!r}]) == set()",
        "assert 'scipy' not in sys.modules, 'scipy imported by build'",
        # the certificate commands that need no solver
        f"assert loads(['inequalities', '--lam-step', '0.1', '--theta-step', '0.01', "
        f"'--out', {str(tmp_path / 'ineq.csv')!r}]) == {{'latmech.geometry'}}",
        "assert 'scipy' not in sys.modules, 'scipy imported by inequalities'",
        f"assert loads(['energy', '--k', '2', "
        f"'--out', {str(tmp_path / 'energy0.csv')!r}]) == {{'latmech.energy'}}",
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported by energy, no draw'",
        # reachable isotropic compressions short-circuit on the twist seed
        *[f"assert cli.main(['density-sweep', '--spec', {spec!r}, '--grid', 'iso', "
          f"'--k', '1,2', '--jobs', '1', "
          f"'--out', {str(tmp_path / (spec + '.csv'))!r}]) == 0"
          for spec in ("kagome", "rotating-squares")],
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert scipy == ['scipy.optimize._zeros'], scipy",
        *[f"assert {name!r} not in sys.modules, '{name} imported by density-sweep --grid iso'"
          for name in ("numpy.random", "numpy.ma", "latmech.softmodes")],
        f"assert cli.main(['mechanism', '--dump', {str(tmp_path / 'geom.json')!r}, "
        f"'--out', {str(tmp_path / 'mech.csv')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported by mechanism --dump'",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by mechanism --dump'",
        f"assert cli.main(['domain-wall', '--theta1', '2.2', '--strip', '--half-width', '5', "
        f"'--out', {str(tmp_path / 'wall.csv')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported by domain-wall --strip'",
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by domain-wall --strip'",
        f"assert cli.main(['verify-bounds', '--trials', '20', "
        f"'--out', {str(tmp_path / 'bounds.csv')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported by verify-bounds'",
        f"assert cli.main(['energy', '--k', '2', '--psi-amp', '0.05', "
        f"'--out', {str(tmp_path / 'energy.csv')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported by energy'",
        # a reflection has no twist seed: its seeds are polished by L-BFGS
        f"assert cli.main(['density-sweep', '--grid', 'file:' + {str(grid)!r}, "
        f"'--k', '1', '--restarts', '0', '--jobs', '1', "
        f"'--out', {str(tmp_path / 'det_neg.csv')!r}]) == 0",
        "assert not SCIPY & set(sys.modules), 'scipy imported by density-sweep'",
        "calls = sys.modules['latmech.energy']._scipy_extension.cache_info().currsize",
        "assert calls >= 1, 'density-sweep polished without L-BFGS'",
        f"assert cli.main(['verify-bounds', '--isotropic', '--trials', '5', "
        f"'--out', {str(tmp_path / 'iso_bounds.csv')!r}]) == 0",
        "assert not SCIPY & set(sys.modules), 'scipy imported by verify-bounds --isotropic'",
        f"assert cli.main(['mechanism', '--search', '--k', '1', '--restarts', '2', "
        f"'--out', {str(tmp_path / 'search.csv')!r}]) == 0",
        "assert not SCIPY & set(sys.modules), 'scipy imported by mechanism --search'",
    )
    # a fresh process, as every density-sweep run loads the cell solver
    _python(
        *_LOADS,
        f"new = loads(['soft-mode', '--eps', '1/8', '--sweeps', '5', '--jobs', '1', "
        f"'--dump-dir', {str(tmp_path / 'D')!r}, "
        f"'--out', {str(tmp_path / 'soft.csv')!r}])",
        "assert 'latmech.cellsolver' not in new, 'cellsolver imported by soft-mode'",
        "assert 'scipy' not in sys.modules, 'scipy imported by soft-mode'",
    )


def test_cli_imports_neither_multiprocessing_nor_fractions_until_used(tmp_path):
    """Every process imports the CLI: the pool and the --eps fractions are
    imported by the runs that use them only."""
    _python(
        "import sys",
        "import latmech.cli as cli",
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported by latmech.cli'",
        "assert 'fractions' not in sys.modules, 'fractions imported by latmech.cli'",
        f"assert cli.main(['density-sweep', '--grid', 'iso', '--k', '1', '--jobs', '1', "
        f"'--out', {str(tmp_path / 'iso.csv')!r}]) == 0",
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported by --jobs 1'",
        f"assert cli.main(['soft-mode', '--eps', '1/8', '--sweeps', '5', '--jobs', '1', "
        f"'--out', {str(tmp_path / 'soft.csv')!r}]) == 0",
        "assert 'fractions' in sys.modules, 'soft-mode read --eps without fractions'",
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing imported by soft-mode'",
    )


def test_verification_failure_exits_3(tmp_path, monkeypatch):
    # force a negative slack through the inequalities subcommand
    from latmech.geometry import ScalarInequalityReport

    def fake(lam_step, theta_step):
        return [ScalarInequalityReport("forced", -1e-6, (0.0,))]

    monkeypatch.setattr(geometry, "scalar_inequality_report", fake)
    assert run(["inequalities", "--out", str(tmp_path / "ineq.csv")]) == 3


def test_nan_inequality_slack_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN slack is no certificate, although it never compares below 0
    from latmech.geometry import ScalarInequalityReport

    def nan_slack(lam_step, theta_step):
        return [ScalarInequalityReport("forced", float("nan"), (0.0,))]

    monkeypatch.setattr(geometry, "scalar_inequality_report", nan_slack)
    out = tmp_path / "ineq.csv"
    assert run(["inequalities", "--out", str(out)]) == 3
    assert "forced,nan,0," in out.read_text().splitlines()
    assert "worst slack nan\n" in capsys.readouterr().out


def test_nan_isotropy_constant_exits_3(tmp_path, monkeypatch, capsys):
    # a NaN constant is no certificate, although no slack compares below 0
    from latmech.cellsolver import IsotropicBoundReport

    def nan_fit(spec, eta, lams, k, rng_seed):
        return IsotropicBoundReport(ratios=np.array([np.nan]), c_fit=float("nan"),
                                    n_trials=1)

    monkeypatch.setattr(cellsolver, "verify_isotropic_bound", nan_fit)
    out = tmp_path / "bounds.csv"
    assert run(["verify-bounds", "--trials", "4", "--k-max", "1", "--isotropic",
                "--out", str(out)]) == 3
    assert "isotropy-energy-gap,1,nan," in out.read_text().splitlines()
    assert "worst slack nan " in capsys.readouterr().out


def test_worst_slack_is_the_least_positive_slack(tmp_path, monkeypatch, capsys):
    # every slack positive: the least of them, not a clamp at 0
    from latmech.geometry import ScalarInequalityReport

    def positive(lam_step, theta_step):
        return [ScalarInequalityReport("a", 0.5, (0.0,)),
                ScalarInequalityReport("b", 0.25, (0.0, 1.0))]

    monkeypatch.setattr(geometry, "scalar_inequality_report", positive)
    assert run(["inequalities", "--out", str(tmp_path / "ineq.csv")]) == 0
    assert "2 inequalities; worst slack 0.25\n" in capsys.readouterr().out


def test_zero_isotropy_constant_prints_zero_and_exits_3(tmp_path, monkeypatch, capsys):
    # c_fit == 0 is no certificate; the worst slack is that 0, not an invented -1
    from latmech.cellsolver import IsotropicBoundReport

    def zero_fit(spec, eta, lams, k, rng_seed):
        return IsotropicBoundReport(ratios=np.array([0.0]), c_fit=0.0, n_trials=1)

    monkeypatch.setattr(cellsolver, "verify_isotropic_bound", zero_fit)
    out = tmp_path / "bounds.csv"
    assert run(["verify-bounds", "--trials", "4", "--k-max", "1", "--isotropic",
                "--out", str(out)]) == 3
    slacks = [float(line.split(",")[2]) for line in out.read_text().splitlines()[1:]]
    assert slacks[-1] == 0.0 and min(slacks[:-1]) > 0
    assert "worst slack 0 " in capsys.readouterr().out


def test_unexpected_error_exits_4(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(geometry, "scalar_inequality_report", boom)
    assert run(["inequalities", "--out", str(tmp_path / "ineq.csv")]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert "RuntimeError: boom" in err


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_build_round_trips_spec(tmp_path):
    out = tmp_path / "spec.json"
    manifest = tmp_path / "manifest.json"
    assert run(["build", "--spec", "rhombus-squares", "--params",
                "angle=1.3,size_ratio=0.6", "--out", str(out),
                "--manifest", str(manifest)]) == 0
    spec = LatticeSpec.from_json(out.read_text())
    assert spec.name == "rhombus-squares"

    config = json.loads(manifest.read_text())
    assert config["command"] == "build"
    assert config["options"]["spec"] == "rhombus-squares"
    assert json.dumps(config, sort_keys=True, indent=2) + "\n" == manifest.read_text()


def test_energy_csv_and_determinism(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["energy", "--spec", "kagome", "--k", "2", "--eta", "0.05",
            "--lam", "0.9,0.1,0.0,1.1", "--psi-amp", "0.3", "--seed", "7"]
    assert run(argv + ["--out", a]) == 0
    assert run(argv + ["--out", b]) == 0
    data = Path(a).read_bytes()
    assert data == Path(b).read_bytes()
    header = data.decode().splitlines()[0]
    assert header == "cell_i,cell_j,triangle,spring_energy,step_penalty"
    assert len(data.decode().splitlines()) == 1 + 2 * 2 * 2  # classes x cells


def test_negative_lam_reads_as_its_value(tmp_path):
    # argparse alone takes -1,0,0,-1 for an option and exits 1
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["energy", "--lam", "-1,0,0,-1", "--out", str(a)]) == 0
    assert run(["energy", "--lam=-1,0,0,-1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_mechanism_grid_and_dump(tmp_path):
    out = str(tmp_path / "mech.csv")
    dump = str(tmp_path / "geom.json")
    assert run(["mechanism", "--spec", "rotating-squares", "--theta", "0.4",
                "--dump", dump, "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    assert {"averaged_energy", "sigma1", "min_det"} <= set(header)

    geom = json.loads(Path(dump).read_text())
    assert set(geom) >= {"nodes", "edges", "triangles"}
    assert len(geom["nodes"]) > 0
    # deformed positions contract by about cos(0.4)
    cert_row = dict(zip(header, lines[1].split(",")))
    assert abs(float(cert_row["sigma1"]) - np.cos(0.4)) <= 1e-10


def test_geometry_dump_writes_the_indented_json_text(tmp_path):
    # a small map with non-finite coordinates and no penalized triangle
    # placed: the writer must give json's indent=1, sort_keys text exactly
    spec = LatticeSpec.from_json(cli.build_kagome().to_json())
    keys = np.array([[0, 0, 0], [0, 7, 7], [1, 0, 0], [2, 5, 5]])
    pos = np.array([[0.25, -0.0], [np.nan, 1e300], [np.inf, -np.inf], [1 / 3, 2.5e-17]])
    lmap = LatticeMap(spec, 0.0625, keys, pos)
    path = tmp_path / "geom.json"
    cli._dump_geometry(lmap, str(path))
    payload = {
        "epsilon": 0.0625,
        "node_columns": ["node", "offset1", "offset2", "ref_x", "ref_y", "x", "y"],
        "nodes": [k + r + p for k, r, p in zip(keys.tolist(),
                                               lmap.reference_positions.tolist(),
                                               pos.tolist())],
        "edges": [[0, 2]],
        "triangles": [],
    }
    assert path.read_text() == json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_mechanism_dump_matches_json_text(tmp_path):
    dump = tmp_path / "geom.json"
    assert run(["mechanism", "--spec", "kagome", "--theta", "0.3", "--k", "2",
                "--dump", str(dump), "--out", str(tmp_path / "m.csv")]) == 0
    text = dump.read_text()
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
    assert len(json.loads(text)["triangles"]) > 0


def test_mechanism_grid_covers_requested_points(tmp_path):
    out = str(tmp_path / "grid.csv")
    assert run(["mechanism", "--spec", "kagome", "--grid-points", "10",
                "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 11


def test_density_sweep_parallel_determinism(tmp_path):
    argv = ["density-sweep", "--grid", "random:3", "--k", "1",
            "--restarts", "1", "--seed", "3"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(argv + ["--jobs", "1", "--out", a]) == 0
    assert run(argv + ["--jobs", "2", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    lines = Path(a).read_text().splitlines()
    assert lines[0].startswith("index,lam11")
    assert len(lines) == 4


def test_density_sweep_twist_seeded_jobs_determinism(tmp_path):
    # reachable isotropic compressions: every solve seeds from the twist
    # table, which --jobs 2 builds before forking the workers
    grid = tmp_path / "iso.json"
    grid.write_text(json.dumps([(c * rotation(phi)).tolist()
                                for c in (0.95, 0.8, 0.6) for phi in (0.0, 1.1)]))
    argv = ["density-sweep", "--spec", "kagome", "--grid", f"file:{grid}",
            "--k", "1,2"]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert run(argv + ["--jobs", "1", "--out", a]) == 0
    assert run(argv + ["--jobs", "2", "--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    assert len(Path(a).read_text().splitlines()) == 13


def test_density_sweep_reports_solver_trouble(tmp_path, capsys, monkeypatch):
    lams = [0.7 * np.eye(2), np.eye(2), np.diag([1.2, 0.8])]
    argv = ["density-sweep", "--spec", "kagome", "--k", "1", "--restarts", "1", "--jobs", "1"]
    for n in (2, 3):
        (tmp_path / f"grid{n}.json").write_text(json.dumps([m.tolist() for m in lams[:n]]))
    # two short-circuiting rows: no trouble to report
    assert run(argv + ["--grid", f"file:{tmp_path / 'grid2.json'}",
                       "--out", str(tmp_path / "clean.csv")]) == 0
    assert "solver trouble" not in capsys.readouterr().err
    # a table that claims c = 0.7 is reached near theta = 0.15 (see
    # test_failed_twist_bracket_is_reported), and L-BFGS cut at one iteration
    fake = (np.linspace(0.0, 0.2, 5), np.linspace(1.0, 0.5, 5))
    monkeypatch.setattr(cellsolver, "_twist_contraction_table", lambda spec: fake)
    monkeypatch.setattr(cellsolver, "_MAXITER", 1)
    out = tmp_path / "trouble.csv"
    assert run(argv + ["--grid", f"file:{tmp_path / 'grid3.json'}", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    lines = [line for line in err if "solver trouble" in line]
    assert len(lines) == 1
    line = lines[0]
    assert line.startswith("latmech density-sweep: solver trouble at (index, k): ")
    first, last = line.split(": ", 2)[2].split("; ")
    assert first.startswith("(0, 1) ") and "failed twist bracket, contraction gap 0.28" in first
    assert last.startswith("(2, 1) ") and "unconverged L-BFGS stage(s)" in last
    assert "twist" not in last
    assert len(out.read_text().splitlines()) == 4


def test_density_sweep_trouble_crosses_the_pool_unchanged(tmp_path, capsys, monkeypatch):
    # the trouble case of test_density_sweep_reports_solver_trouble, at --jobs 1 and 2
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([m.tolist() for m in
                                (0.7 * np.eye(2), np.eye(2), np.diag([1.2, 0.8]))]))
    fake = (np.linspace(0.0, 0.2, 5), np.linspace(1.0, 0.5, 5))
    monkeypatch.setattr(cellsolver, "_twist_contraction_table", lambda spec: fake)
    monkeypatch.setattr(cellsolver, "_MAXITER", 1)
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert run(["density-sweep", "--spec", "kagome", "--k", "1", "--restarts", "1",
                    "--grid", f"file:{grid}", "--jobs", jobs, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        runs.append(([line for line in err if "solver trouble" in line], out.read_bytes()))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == 1 and "failed twist bracket" in runs[0][0][0]


def test_density_sweep_reports_stalls_apart_from_unconverged(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([np.diag([1.2, 0.8]).tolist()]))
    out = tmp_path / "stall.csv"
    assert run(["density-sweep", "--spec", "kagome", "--k", "1", "--restarts", "1",
                "--jobs", "1", "--grid", f"file:{grid}", "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("latmech density-sweep: solver trouble at (index, k): (0, 1) ")
    assert "stalled L-BFGS stage(s)" in err[0]
    assert "unconverged" not in err[0]


def test_density_sweep_names_an_upper_above_a_divisors(tmp_path, capsys, monkeypatch):
    # a d-periodic state is k-periodic when d divides k: matrix 0's upper at
    # k = 2 and 4 is above k = 1's, and at k = 4 above k = 2's; matrix 1's
    # uppers differ by rounding only, and k = 3 has no divisor in --k but 1
    uppers = {(0, 1): 0.5, (0, 2): 0.5 + 1e-6, (0, 3): 0.25, (0, 4): 0.75,
              (1, 1): 0.2, (1, 2): 0.2 + 1e-16, (1, 3): 0.2, (1, 4): 0.2}

    def fake_task(spec, lams, eta, ks, restarts, seed):
        return [[(uppers[int(lam[0, 0] > 0.9), k], 0.0, 0.0, 0, 0, None) for k in ks]
                for lam in lams]

    monkeypatch.setattr(cli, "_density_task", fake_task)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([np.diag([0.8, 1.1]).tolist(), np.diag([1.1, 0.8]).tolist()]))
    out = tmp_path / "d.csv"
    assert run(["density-sweep", "--grid", f"file:{grid}", "--k", "4,2,1,3", "--jobs", "1",
                "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["latmech density-sweep: solver trouble at (index, k): "
                   "(0, 4) upper above k=2's, upper above k=1's; (0, 2) upper above k=1's"]
    uppers_csv = [float(line.split(",")[7]) for line in out.read_text().splitlines()[1:]]
    assert uppers_csv == [uppers[i, k] for i in (0, 1) for k in (4, 2, 1, 3)]


def test_density_sweep_bytes_do_not_depend_on_jobs(tmp_path, capsys):
    # 5 matrices cut into 1, 2 and 3 chunks, 2 and 3 of them uneven; one is a
    # reachable compression that screening short-circuits
    grid = tmp_path / "grid.json"
    lams = [np.diag([1.2, 0.8]), 0.6 * rotation(0.9), np.diag([1.1, -0.8]),
            np.array([[1.0, 0.4], [0.0, 1.0]]), np.diag([0.9, 0.7])]
    grid.write_text(json.dumps([lam.tolist() for lam in lams]))
    out = tmp_path / "d.csv"
    runs = []
    for jobs in ("1", "2", "3"):
        assert run(["density-sweep", "--spec", "kagome", "--k", "1,2", "--restarts", "1",
                    "--grid", f"file:{grid}", "--jobs", jobs, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, captured.err, out.read_bytes()))
    assert runs[0] == runs[1] == runs[2]
    rows = runs[0][2].decode().splitlines()[1:]
    assert len(rows) == 10 and float(rows[2].split(",")[7]) <= 1e-13
    # a grid shorter than --jobs: one chunk, its whole k-list in one task
    one = tmp_path / "one.json"
    one.write_text(json.dumps([np.diag([1.1, -0.8]).tolist()]))
    runs = []
    for jobs in ("1", "3"):
        assert run(["density-sweep", "--spec", "kagome", "--k", "1,2,3", "--restarts", "1",
                    "--grid", f"file:{one}", "--jobs", jobs, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        runs.append((captured.out, captured.err, out.read_bytes()))
    assert runs[0] == runs[1]
    assert [row.split(",")[5] for row in runs[0][2].decode().splitlines()[1:]] == ["1", "2", "3"]


def test_density_sweep_sends_one_task_per_grid_chunk(tmp_path, monkeypatch):
    # 5 matrices at --jobs 2: two contiguous chunks, each with the whole k-list
    tasks = []
    real = cli._pool_map

    def recorded(fn, payloads, jobs):
        tasks.extend((len(p[1]), p[3]) for p in payloads)
        return real(fn, payloads, 1)

    monkeypatch.setattr(cli, "_pool_map", recorded)
    assert run(["density-sweep", "--spec", "kagome", "--grid", "random:5", "--k", "2,1",
                "--restarts", "0", "--jobs", "2", "--out", str(tmp_path / "d.csv")]) == 0
    assert tasks == [(2, [2, 1]), (3, [2, 1])]


@pytest.mark.parametrize("affinity, want", [(True, 1), (False, 2)])
def test_jobs_default_to_the_cpus_the_process_may_use(monkeypatch, affinity, want):
    # one CPU in the affinity mask of a two-CPU machine: one job; without an
    # affinity call on the platform, the CPU count
    args = type("Args", (), {"jobs": None})()
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    if affinity:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._jobs(args, 8) == want
    assert cli._jobs(args, 1) == 1


def test_importing_the_cli_sets_one_blas_thread_unless_the_user_chose(tmp_path):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    code = ("import json, os, latmech.cli; "
            f"print(json.dumps([os.environ.get(v) for v in {names!r}]))")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    for preset, want in (({}, ["1"] * 5),
                         ({"OPENBLAS_NUM_THREADS": "3"}, ["1", "3", "1", "1", "1"])):
        done = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == want


def test_verify_bounds_csv(tmp_path):
    out = str(tmp_path / "bounds.csv")
    assert run(["verify-bounds", "--spec", "rotating-squares",
                "--trials", "50", "--k-max", "2", "--out", out]) == 0
    text = Path(out).read_text()
    assert "diag-stretch" in text
    assert "weighted-rest" in text


def test_verify_bounds_isotropic(tmp_path):
    out = str(tmp_path / "bounds.csv")
    assert run(["verify-bounds", "--spec", "rotating-squares", "--trials", "20",
                "--k-max", "1", "--isotropic", "--out", out]) == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in Path(out).read_text().splitlines()[1:]}
    assert "isotropy-energy-gap" in rows
    assert float(rows["isotropy-energy-gap"][2]) > 0


# sha256 of ``verify-bounds --spec SPEC`` at the default 1000 trials, and of
# ``--isotropic --trials 50`` on rotating squares, recorded before the
# Jensen trials were evaluated as stacked arrays
VERIFY_BOUNDS_SHA256 = {
    ("kagome",): "7f96e35e4a5c6245cd489e4c26efc73a6ee48bad146198b7990081ff41981f28",
    ("rotating-squares",): "af43b133bcc5cdf70acb5a819bf733d3c945ebffe2077fa6a26ac7cedd0c8b09",
    ("isosceles-kagome",): "24ea99fb7ce0dc46f7b8362f30f68e73ce6a0ab96db97d91b749bf61f722d115",
    ("general-kagome",): "24ea99fb7ce0dc46f7b8362f30f68e73ce6a0ab96db97d91b749bf61f722d115",
    ("rhombus-squares",): "6297edeccb9e76faa1aad549601d3b22b0ba4ea37686a8fd31489a1734633444",
    ("quad-squares",): "ce50fc770fd74cf2ff4bd28c768b25b0106fe0f5a30f74d81d71d8fd9b3d8817",
    ("rotating-squares", "--isotropic", "--trials", "50"):
        "2ef645ae54aa196ec899ba32df9283c2decf20917ead7f5274439daf75accb05",
}


@pytest.mark.parametrize("args", sorted(VERIFY_BOUNDS_SHA256))
def test_verify_bounds_pinned_bytes(tmp_path, args):
    out = tmp_path / "bounds.csv"
    assert run(["verify-bounds", "--spec", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_BOUNDS_SHA256[args]


def test_domain_wall_angles_csv(tmp_path):
    out = str(tmp_path / "wall.csv")
    assert run(["domain-wall", "--theta1", "2.2", "--n", "20",
                "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "column,twist_angle"
    assert len(lines) == 22
    assert float(lines[1].split(",")[1]) == pytest.approx(2 * np.pi / 3)


def test_domain_wall_strip(tmp_path, capsys):
    out = str(tmp_path / "wall.csv")
    assert run(["domain-wall", "--theta1", "2.2", "--n", "12", "--strip",
                "--half-width", "5", "--rows", "3", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "misfit" in printed


def test_soft_mode_csv(tmp_path):
    out = str(tmp_path / "soft.csv")
    assert run(["soft-mode", "--eps", "1/8,1/16", "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0].startswith("epsilon,n_cells,energy_per_area")
    assert len(lines) == 3
    e1 = float(lines[1].split(",")[2])
    e2 = float(lines[2].split(",")[2])
    assert e2 < e1


def test_soft_mode_single_rung_says_why(tmp_path, capsys):
    out = str(tmp_path / "soft.csv")
    assert run(["soft-mode", "--eps", "1/8", "--jobs", "1", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "a single rung; decay exponent undefined" in printed
    assert "solver floor" not in printed
    assert float(Path(out).read_text().splitlines()[1].split(",")[2]) > 1e-10


def test_soft_mode_prints_ladder_asymptotics(tmp_path, capsys):
    out = str(tmp_path / "soft.csv")
    assert run(["soft-mode", "--eps", "1/16,1/8,1/32", "--sweeps", "50", "--jobs", "1",
                "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "fitted decay exponent" in printed
    line = next(ln for ln in printed.splitlines() if ln.startswith("successive exponents"))
    assert "fit over the finest 2 rungs (eps <= 0.0625)" in line
    steps = line.split(";")[0].split()[2:]
    assert len(steps) == 2


# sha256 of ``soft-mode --eps 1/8,1/12 --sweeps 50 --jobs 1 --dump-dir D``:
# the CSV and both geometry dumps, recorded before the lattice maps moved
# from dicts to arrays
SOFT_MODE_PINNED = {
    "soft_mode.csv": "c80a9ec83310868faac573111c56332608674db2799c1eae1b2322b1a9b714f9",
    "D/soft_mode_eps_0.125.json":
        "8c8833a7e09896aaac4354607da9d0a064ec57b0f1231fa20d724b51719ae90b",
    "D/soft_mode_eps_0.0833333.json":
        "63a234f1f9b09a6923c1b1e3cea3099f754e3e003592f9df233aa5ba50cf3f47",
}
SOFT_MODE_PINNED_ARGV = ["soft-mode", "--eps", "1/8,1/12", "--sweeps", "50"]


def _soft_mode_run(tmp_path, jobs):
    out = tmp_path / f"jobs{jobs}"
    assert run(SOFT_MODE_PINNED_ARGV + ["--jobs", str(jobs),
                                        "--dump-dir", str(out / "D"),
                                        "--out", str(out / "soft_mode.csv")]) == 0
    return {name: (out / name).read_bytes() for name in SOFT_MODE_PINNED}


def test_soft_mode_pinned_bytes(tmp_path):
    got = _soft_mode_run(tmp_path, 1)
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in got.items()} == SOFT_MODE_PINNED


def test_soft_mode_parallel_determinism(tmp_path):
    assert _soft_mode_run(tmp_path, 1) == _soft_mode_run(tmp_path, 2)


# sha256 of ``soft-mode --eps 1/17,1/33,1/65 --dump-dir D`` at the default
# 200 sweeps: the CSV, the three geometry dumps, and stdout with the run's
# directory written as ``<dir>``, recorded before the soft-mode rows moved
# into ``soft_mode_report``
SOFT_MODE_LADDER_PINNED = {
    "stdout": "849b87f4cb6aea69a95d010bf27ea704964308cf64bc08869b5916395cb6ba06",
    "soft_mode.csv": "f738468295d6eee530e77e1ef79c5447785e1a80ae3f08583ffd7ecc8e46a9c4",
    "D/soft_mode_eps_0.0588235.json":
        "3f8b7eb2444db2b23f18228c46ebf0ee56a096de8d39c8f3dc9017685b55d562",
    "D/soft_mode_eps_0.030303.json":
        "3e0dae4e773bda6e71a2e1a4e0e835950c705a74706f59db3f658d487eb9dce9",
    "D/soft_mode_eps_0.0153846.json":
        "c5d454fe1bb72166e238cf3f3d554b5f488c2833fa9adcd3471fbb2de25912f8",
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_soft_mode_ladder_pinned_bytes(tmp_path, capsys, jobs):
    # at --jobs 2 the target travels to the pool workers
    assert run(["soft-mode", "--eps", "1/17,1/33,1/65", "--jobs", str(jobs),
                "--dump-dir", str(tmp_path / "D"),
                "--out", str(tmp_path / "soft_mode.csv")]) == 0
    got = {"stdout": capsys.readouterr().out.replace(str(tmp_path), "<dir>").encode()}
    for name in ("soft_mode.csv", *(f"D/{cli._dump_name(1 / d)}" for d in (17, 33, 65))):
        got[name] = (tmp_path / name).read_bytes()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in got.items()} == SOFT_MODE_LADDER_PINNED


def test_inequalities_csv(tmp_path):
    out = str(tmp_path / "ineq.csv")
    assert run(["inequalities", "--lam-step", "0.1", "--theta-step", "0.05",
                "--out", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "inequality,min_slack,argmin_1,argmin_2"
    assert len(lines) == 6
    assert all(float(line.split(",")[1]) >= -1e-12 for line in lines[1:])


# sha256 of ``inequalities`` at its default grid (lam_step 0.01,
# theta_step 0.001), recorded before the three-direction sweep was
# streamed one angle at a time
INEQUALITIES_DEFAULT_SHA256 = "05be6211d7ea86915df02f69256c0b21007c05d63780e384ffac0264e97b44ea"


def test_inequalities_default_grid_pinned_bytes(tmp_path):
    out = tmp_path / "ineq.csv"
    assert run(["inequalities", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INEQUALITIES_DEFAULT_SHA256


# sha256 of ``density-sweep --grid iso --jobs 1`` (every row a reachable
# isotropic compression), recorded before the seeds were screened ahead of
# L-BFGS, with the twist inverted by ``scipy.optimize.brentq``: the compiled
# ``_brentq`` it calls, loaded by file, inverts the twist now
DENSITY_ISO_SHA256 = {
    ("kagome", "1,2"): "87482174b22b2c35751c0baa1d2be38f6ed27bee143212d3998cb7fe9cde2217",
    ("rotating-squares", "1"):
        "eced6ed8688249e7801f39829e22bffca0d58a956ba264f6981d6a6633f9fab3",
}


@pytest.mark.parametrize("spec,ks", sorted(DENSITY_ISO_SHA256))
def test_density_sweep_iso_pinned_bytes(tmp_path, spec, ks):
    out = tmp_path / "iso.csv"
    assert run(["density-sweep", "--spec", spec, "--grid", "iso", "--k", ks,
                "--jobs", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DENSITY_ISO_SHA256[spec, ks]


def test_outdir_environment_default(tmp_path, monkeypatch):
    monkeypatch.setenv("LATMECH_OUTDIR", str(tmp_path))
    assert run(["build", "--spec", "kagome"]) == 0
    assert (tmp_path / "kagome.json").exists()
