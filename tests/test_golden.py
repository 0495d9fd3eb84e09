"""The invocations quoted in ``docs/formats.md`` reproduce ``docs/samples``
byte for byte."""

import re
import shlex
from pathlib import Path

import latmech.cli as cli

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "docs" / "samples"


def documented_invocations():
    """The argument lists of the ``latmech`` code blocks in formats.md."""
    text = (ROOT / "docs" / "formats.md").read_text()
    blocks = re.findall(r"^```\n(latmech .*?)^```", text, flags=re.M | re.S)
    return [shlex.split(block.replace("\\\n", " "))[1:] for block in blocks]


def test_documented_invocations_reproduce_samples(tmp_path, monkeypatch):
    argvs = documented_invocations()
    assert len(argvs) == 8
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LATMECH_OUTDIR", raising=False)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
    made = tmp_path / "docs" / "samples"
    expected = sorted(p.name for p in SAMPLES.iterdir())
    assert sorted(p.name for p in made.iterdir()) == expected
    for name in expected:
        assert (made / name).read_bytes() == (SAMPLES / name).read_bytes(), name
