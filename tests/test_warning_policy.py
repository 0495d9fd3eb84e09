"""One warning policy for every test run: the filters live in
``pyproject.toml`` alone, so the plain tier-1 command fails a test on
every warning that the CI run fails it on."""

from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
ERRORS = ("ResourceWarning", "pytest.PytestUnraisableExceptionWarning", "RuntimeWarning",
          "DeprecationWarning", "PendingDeprecationWarning", "FutureWarning")


def test_warning_filters_live_in_pyproject_alone(request):
    assert request.config.getini("filterwarnings") == [f"error::{name}" for name in ERRORS]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "python -X dev -m pytest" in workflow
    assert " -W " not in workflow


def test_a_floating_point_warning_fails_its_test():
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        np.float64(1.0) / np.float64(0.0)
