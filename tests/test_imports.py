"""Every top-level import of a ``latmech`` module is used, every public
name feeds a command, a demo, the bench or an acceptance criterion,
every defaulted parameter or dataclass field is set by some reader, and
every dataclass field is read by one.

The project depends on no lint tool, so this parses each module (the
package ``__init__``, which re-exports, aside) and fails on an imported
name that the module never reads.  It also parses the package, the
demos, the bench and the acceptance tests, and fails on a name in a
module's ``__all__`` that none of them reads (a few references that the
unit tests check against aside, each listed with its reason).  It also
fails on a defaulted parameter of a ``latmech`` function that no call
in those readers sets to a value other than its default's own
expression, and likewise on a defaulted field of a dataclass, which an
attribute store sets too: an option with one value in use is a constant
(a few options aside, each listed with its reason), and on a dataclass
field whose name no reader reads as an attribute (a few results that
the unit tests and pins check aside, each listed with its reason).
Last, it fails when the CLI, which every command's process imports,
imports a ``latmech`` module other than ``lattice`` at top level, or
when the package loads a module before one of its names is read, or
when any code but the CLI's ``_read`` and ``_write`` opens a file, in
any mode, or makes a directory.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "latmech"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# what a user runs or an acceptance criterion reads; the unit tests are not among them
READERS = sorted(p for d in ("src/latmech", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

# public names that only unit tests read, kept as independent references
UNIT_TEST_REFERENCES = {
    "lambda_from_averages": "the affine part recovered from the marker averages, which "
                            "checks the averaging identity",
}

# dataclass fields that only unit tests or pins read, kept as results
UNREAD_FIELDS = {
    ("CellBoundsReport", "C1"): "a fitted sandwich constant, checked by the unit tests and pins",
    ("CellBoundsReport", "C2"): "a fitted sandwich constant, checked by the unit tests and pins",
    ("CellBoundsReport", "D2"): "a fitted sandwich constant, checked by the unit tests and pins",
    ("CellBoundsReport", "n_zero_energy"): "the samples D2 is calibrated on, counted by the "
                                           "unit tests and pins",
    ("DensityEstimate", "minimizer"): "the best field, which the unit tests re-evaluate and "
                                      "tile and the pins hash",
    ("DomainWall", "compression_profile"): "the compression per column, which a unit test "
                                           "checks and the pins hash",
    ("DomainWall", "theta"): "the column angles of the strip, which the pins hash",
    ("DomainWall", "vertical_compression"): "which a unit test compares with the far field "
                                            "and the pins hash",
    ("IsotropicBoundReport", "ratios"): "every trial ratio, which a unit test bounds by "
                                        "c_fit and the pins hash",
    ("Mechanism", "params"): "the restart that found a searched mechanism, which the pins hash",
    ("MechanismCertificate", "eta_ref"): "the penalty strength of the certified energy, "
                                         "checked by a unit test and the pins",
    ("RigidityEstimate", "n_admissible"): "the samples under the energy cap, which a unit "
                                          "test counts",
    ("SandwichReport", "ratios"): "every fitted ratio, which a unit test counts",
}

# options that no reader sets to a second value, kept as options
_REPLACED = ("ROADMAP items 1-3 replace this function; its unit tests and pins run it "
             "at other sizes than the acceptance tests")
UNSET_OPTIONS = {
    ("verify_isotropic_bound", "k"): "perfbench/layers.py passes k=1 by keyword, so the "
                                      "option goes when the bench changes",
    **{(name, param): _REPLACED for name, params in (
        ("check_cell_bounds", ("n_samples", "eta", "seed", "extra_deformations")),
        ("rigidity_constant", ("alpha", "n_samples", "seed")),
        ("sandwich_report", ("eta", "k_list", "restarts", "eta_factor")),
    ) for param in params},
}


def _unused_imports(tree) -> list:
    """``(line, name)`` of each name bound by a top-level import and never
    read in the module; a name listed in ``__all__`` counts as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(_public_names(tree))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _public_names(tree) -> list:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


# the oldest Python that pyproject.toml's requires-python admits
PYTHON_FLOOR = tuple(int(v) for v in re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(),
    re.MULTILINE).groups())


@pytest.mark.parametrize("path", sorted(p for d in ("src", "tests", "demos", "perfbench")
                                        for p in (ROOT / d).rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_on_the_oldest_supported_python(path):
    """Every file parses with the grammar of the oldest supported Python.

    This catches syntax only (a ``except*`` or a PEP 695 ``type``
    statement, say), not a call into a library function that only newer
    Pythons have."""
    ast.parse(path.read_text(), str(path), feature_version=PYTHON_FLOOR)


def test_newer_syntax_is_caught():
    # except* is Python 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=PYTHON_FLOOR)


def test_modules_are_found():
    assert [p.name for p in MODULES if p.name == "cli.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os, numpy as np\n"
                     "from .a import b, c as d\n"
                     "__all__ = ['b']\n"
                     "def f():\n"
                     "    import sys\n"
                     "    return np.zeros(1)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "d")]


def _latmech_imports(tree) -> list:
    """``(line, module)`` of each top-level import of a ``latmech``
    module or package name, relative or absolute: ``from .energy import
    x``, ``from . import energy``, ``from latmech.energy import x``,
    ``from latmech import energy`` and ``import latmech.energy`` all give
    ``energy``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[1]) for alias in node.names
                      if alias.name.startswith("latmech.")]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if not node.level:
                if parts[0] != "latmech":
                    continue
                parts = parts[1:]
            found += ([(node.lineno, parts[0])] if parts and parts[0]
                      else [(node.lineno, alias.name) for alias in node.names])
    return found


def test_cli_imports_only_the_spec_module_at_top_level():
    """Every command is a process that imports the CLI, so the CLI imports
    only ``lattice`` (spec loading) at top level, and each command the
    solver modules it runs."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert {module for _, module in _latmech_imports(tree)} == {"lattice"}


def test_top_level_solver_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\n"
                     "from .lattice import LatticeSpec\n"
                     "from .energy import LatticeMap\n"
                     "from . import geometry, softmodes\n"
                     "import latmech.mechanisms\n"
                     "from latmech.cellsolver import estimate_density\n"
                     "def f():\n"
                     "    from .cellsolver import lambda_grid\n")
    assert _latmech_imports(tree) == [(3, "lattice"), (4, "energy"), (5, "geometry"),
                                      (5, "softmodes"), (6, "mechanisms"), (7, "cellsolver")]


def test_package_loads_each_module_on_first_access():
    """``import latmech`` loads no submodule; its ``__all__`` is the
    modules' ``__all__`` lists in module order (70 names), each name the
    defining module's object, and ``from latmech import *`` binds them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c",
                    "import sys, latmech\n"
                    "loaded = [m for m in sys.modules if m.startswith('latmech.')]\n"
                    "assert loaded == [], loaded\n"], check=True, env=env)

    import latmech
    from latmech import cellsolver, energy, geometry, lattice, mechanisms, softmodes

    modules = (lattice, energy, geometry, mechanisms, cellsolver, softmodes)
    assert latmech.__all__ == [*(n for m in modules for n in m.__all__), "__version__"]
    assert len(latmech.__all__) == 70
    star = {}
    exec("from latmech import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(latmech.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(latmech, name) is getattr(module, name) is star[name]
    assert star["__version__"] == latmech.__version__ == "0.1.0"


def _unread(public, trees) -> list:
    """The names of ``public`` that no tree reads as a bare name or an
    attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(set(public) - read)


def test_every_public_name_is_read():
    public = [name for path in MODULES for name in _public_names(ast.parse(path.read_text()))]
    assert len(public) > 50
    # equal, not a subset: a reference that a reader comes to read leaves the list
    assert (_unread(public, (ast.parse(path.read_text(), str(path)) for path in READERS))
            == sorted(UNIT_TEST_REFERENCES))


def test_unread_public_name_is_caught():
    tree = ast.parse("__all__ = ['f', 'g', 'h', 'K']\n"
                     "def f():\n    pass\n"
                     "def h():\n    pass\n"
                     "class K:\n    pass\n"
                     "g = K()\n"
                     "obj.h = 1\n"
                     "f()\n")
    assert _unread(_public_names(tree), [tree]) == ["g", "h"]
    # a unit test that reads them would clear both, so a name that only a
    # unit test reads is caught because the readers hold no unit test
    unit_test = ast.parse("assert g.attr == h()\n")
    assert _unread(_public_names(tree), [tree, unit_test]) == []
    assert [p.name for p in READERS if p.parent.name == "tests"] == ["test_acceptance.py"]


def _is_dataclass(decorator) -> bool:
    """Whether ``decorator`` is ``@dataclass`` or ``@dataclass(...)``."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", None) == "dataclass"


def _init_false(value) -> bool:
    """Whether ``value`` is ``field(..., init=False, ...)``."""
    return (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
            and any(kw.arg == "init" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in value.keywords))


def _defaulted(tree) -> list:
    """``(name, parameter, position, default, field)`` of each defaulted
    parameter of a ``def`` and each defaulted field of a ``@dataclass``
    (one with ``init=False`` aside): ``name`` is what a call names (the
    class, for ``__init__`` and for a field), ``position`` the index among
    a call's positional arguments (a method's ``self`` aside), ``None``
    for a keyword-only parameter, ``default`` the ``ast.dump`` of the
    default's expression, and ``field`` whether it is a dataclass field,
    which an attribute store sets too."""
    out = []
    for owner in ast.walk(tree):
        if isinstance(owner, ast.ClassDef) and any(map(_is_dataclass, owner.decorator_list)):
            fields = [node for node in owner.body if isinstance(node, ast.AnnAssign)
                      and isinstance(node.target, ast.Name) and not _init_false(node.value)]
            out += [(owner.name, node.target.id, i, ast.dump(node.value), True)
                    for i, node in enumerate(fields) if node.value is not None]
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = (owner.name if node.name == "__init__" and isinstance(owner, ast.ClassDef)
                    else node.name)
            a = node.args
            pos = a.posonlyargs + a.args
            shift = int(bool(pos) and pos[0].arg in ("self", "cls"))
            first = len(pos) - len(a.defaults)
            out += [(name, pos[i].arg, i - shift, ast.dump(a.defaults[i - first]), False)
                    for i in range(first, len(pos))]
            out += [(name, arg.arg, None, ast.dump(default), False)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return out


def _calls(trees) -> dict:
    """Every call in ``trees``, grouped by the bare or attribute name it
    calls, and the value of every attribute store, under ``"." + attr``."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for t in ast.walk(target):
                        if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store):
                            calls.setdefault("." + t.attr, []).append(node.value)
    return calls


def _unset_options(defaulted, calls, exempt) -> list:
    """``(name, parameter)`` of each defaulted parameter that no call of
    that name sets, by keyword, by position or through ``*``/``**``, and,
    for a dataclass field, that no attribute store of its name sets; a
    call or a store that passes the default's own expression does not set
    it."""
    def passed(name, param, position, default, field):
        if field and any(ast.dump(value) != default for value in calls.get("." + param, ())):
            return True
        for call in calls.get(name, ()):
            if any(kw.arg is None or (kw.arg == param and ast.dump(kw.value) != default)
                   for kw in call.keywords):
                return True
            if any(isinstance(arg, ast.Starred) for arg in call.args):
                return True
            if (position is not None and len(call.args) > position
                    and ast.dump(call.args[position]) != default):
                return True
        return False

    return sorted({(name, param) for name, param, *rest in defaulted
                   if name not in exempt and not passed(name, param, *rest)})


def test_every_option_is_set_by_some_call():
    from latmech.lattice import VARIANT_KINDS

    # the variant builders' keywords arrive from the command line's --params
    exempt = {builder.__name__ for builder in VARIANT_KINDS.values()}
    defaulted = [d for path in MODULES for d in _defaulted(ast.parse(path.read_text()))]
    calls = _calls(ast.parse(path.read_text(), str(path)) for path in READERS)
    assert len(defaulted) > 50
    # equal, not a subset: an option that a reader comes to set leaves the list
    assert _unset_options(defaulted, calls, exempt) == sorted(UNSET_OPTIONS)


def test_unset_option_is_caught():
    defs = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                     "class K:\n"
                     "    def __init__(self, x=0):\n        pass\n"
                     "    def m(self, y=1, z=2):\n        pass\n"
                     "def g(v=0):\n    pass\n"
                     "def h(w=0):\n    pass\n"
                     "def p(s=1.0, t=C):\n    pass\n")
    # p's defaults passed back, by keyword and by position, set nothing
    reader = ast.parse("f(0, 5, d=4)\nK()\nobj.m(5)\ng(**opts)\nh(*args)\n"
                       "p(t=C)\np(1.0)\n")
    unset = [("K", "x"), ("f", "c"), ("m", "z"), ("p", "s"), ("p", "t")]
    assert _unset_options(_defaulted(defs), _calls([reader]), exempt=set()) == unset
    assert _unset_options(_defaulted(defs), _calls([reader]), exempt={"K"}) == unset[1:]
    # a unit test that sets them would clear both, so an option that only a
    # unit test sets is caught because the readers hold no unit test
    unit_test = ast.parse("p(s=2.0, t=D)\n")
    assert _unset_options(_defaulted(defs), _calls([reader, unit_test]),
                          exempt=set()) == unset[:3]
    # a dataclass field with a default is set by a keyword, a position or an
    # attribute store of another value; one with init=False is no option
    fields = ast.parse("@dataclass(frozen=True)\nclass R:\n    a: int\n    b: int = 0\n"
                       "    c: int = 1\n    d: int = 2\n    e: int = field(init=False)\n"
                       "    f: list = field(default_factory=list)\n    g: int = 3\n"
                       "class Plain:\n    h: int = 0\n")
    reader = ast.parse("R(1, 5)\nR(1, c=2)\nr.d = 2\nr.e = 5\nr.g = 4\nq.h = 1\n")
    assert _unset_options(_defaulted(fields), _calls([reader]), exempt=set()) == [
        ("R", "d"), ("R", "f")]
    assert [d[:3] for d in _defaulted(fields)] == [
        ("R", "b", 1), ("R", "c", 2), ("R", "d", 3), ("R", "f", 4), ("R", "g", 5)]


def _fields(tree) -> list:
    """``(class, field)`` of each field of each ``@dataclass`` in ``tree``."""
    return [(owner.name, node.target.id) for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef) and any(map(_is_dataclass, owner.decorator_list))
            for node in owner.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]


def _unread_fields(fields, trees) -> list:
    """The ``(class, field)`` pairs of ``fields`` whose name no tree reads
    as an attribute of anything but ``args``, a command's parsed options."""
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and getattr(node.value, "id", None) != "args"}
    return sorted({f for f in fields if f[1] not in read})


def test_every_dataclass_field_is_read():
    """A report carries results, not its caller's inputs: every field is
    read by a command, a demo, the bench or an acceptance test.

    A check by name is a floor: a field goes unseen when any attribute of
    its name is read, so it could not see ``DensityEstimate.lam`` echo
    its caller's input, because ``PeriodicDeformation.lam`` is read."""
    fields = [f for path in MODULES for f in _fields(ast.parse(path.read_text()))]
    assert len(fields) > 100
    # equal, not a subset: a field that a reader comes to read leaves the list
    assert (_unread_fields(fields, (ast.parse(path.read_text(), str(path)) for path in READERS))
            == sorted(UNREAD_FIELDS))


def test_unread_field_is_caught():
    tree = ast.parse("@dataclass(frozen=True)\nclass R:\n    a: int\n    b: int\n"
                     "    c: int = 0\n    d: int = field(init=False)\n"
                     "class Plain:\n    e: int = 0\n")
    assert _fields(tree) == [("R", "a"), ("R", "b"), ("R", "c"), ("R", "d")]
    # a store or a read off the parsed options is no read
    reader = ast.parse("x = r.a\nr.c = 1\nprint(args.b, obj.d, q.e)\n")
    assert _unread_fields(_fields(tree), [reader]) == [("R", "b"), ("R", "c")]
    # a field that echoes an input, put back into a report, is caught
    source = (SRC / "mechanisms.py").read_text()
    anchor = "    theta_limit: float\n"
    mutant = source.replace(anchor, anchor + "    rows_echo: int\n")
    assert mutant.count("rows_echo") == 1
    readers = [ast.parse(path.read_text()) for path in READERS if path.name != "mechanisms.py"]
    assert _unread_fields(_fields(ast.parse(mutant)), readers + [ast.parse(mutant)]) == sorted(
        [f for f in UNREAD_FIELDS if f[0] in ("DomainWall", "Mechanism",
                                               "MechanismCertificate")]
        + [("DomainWall", "rows_echo")])


# the calls that read or write a file or make a directory, bare or as an attribute
_FILE_CALLS = {"open", "makedirs", "mkdir", "read_text", "read_bytes", "write_text",
               "write_bytes"}


def _file_access(tree) -> list:
    """``(line, owner, name)`` of each call in ``_FILE_CALLS`` (``open``
    in any mode): ``owner`` is the name of the top-level function or class
    it sits in, ``None`` at module level."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in _FILE_CALLS:
                    found.append((node.lineno, getattr(top, "name", None), name))
    return sorted(found)


def test_only_cli_read_and_write_touch_files():
    """The CLI is the one file boundary: ``cli._read`` reads the input
    files, ``cli._write`` makes directories and writes the outputs, and no
    other code touches the file system; the library takes and returns
    JSON text."""
    paths = sorted(SRC.glob("*.py"))    # the package __init__ too
    access = {path.stem: _file_access(ast.parse(path.read_text(), str(path)))
              for path in paths}
    assert sorted((owner, name) for _, owner, name in access.pop("cli")) == [
        ("_read", "open"), ("_write", "makedirs"), ("_write", "open")]
    assert access == {path.stem: [] for path in paths if path.stem != "cli"}


def test_file_access_is_caught():
    tree = ast.parse("import os\n"
                     "with open(p) as fh:\n    pass\n"
                     "def f(p, mode):\n    return open(p, mode)\n"
                     "class K:\n    def m(self):\n        os.makedirs(d, exist_ok=True)\n"
                     "os.mkdir(d)\n"
                     "path.write_text(s)\n"
                     "path.read_bytes()\n"
                     "os.path.exists(p)\n")
    assert _file_access(tree) == [(2, None, "open"), (5, "f", "open"), (8, "K", "makedirs"),
                                  (9, None, "mkdir"), (10, None, "write_text"),
                                  (11, None, "read_bytes")]
    # a grid file reader put back into lambda_grid is caught
    source = (SRC / "cellsolver.py").read_text()
    assert _file_access(ast.parse(source)) == []
    anchor = '    if kind.startswith("random:"):\n'
    mutant = source.replace(anchor, '    if kind.startswith("file:"):\n'
                                    '        with open(kind[5:]) as fh:\n'
                                    '            return json.load(fh)\n' + anchor)
    assert mutant.count("open(") == 1
    assert [(owner, name) for _, owner, name in _file_access(ast.parse(mutant))] == [
        ("lambda_grid", "open")]
