"""Every demo runs to completion.  The demos check their own claims with
``assert``, so exit status 0 means those claims hold.  The README's quick
start runs too, and its commented values are checked."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_gives_what_its_comments_claim():
    # the README's one Python block: an exact twist, the same compression at
    # zero energy through the twist inversion, and an uneven stretch's cost
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    mech, iso, est, lam = (names[key] for key in ("mech", "iso", "est", "lam"))
    assert mech.certificate.energy < 1e-31 and iso.upper < 1e-31     # ~1e-32
    assert np.allclose(mech.certificate.lam, np.cos(0.5) * np.eye(2), rtol=0, atol=1e-15)
    assert round(est.upper, 3) == 0.031
    assert names["lower_bracket"](lam) == pytest.approx(0.2, abs=1e-12)
