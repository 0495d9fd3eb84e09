"""The invocations quoted in ``docs/formats.md`` reproduce ``docs/samples``
byte for byte, and the document names every command-line option."""

import argparse
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


def subcommand_options():
    """``(subcommand, option)`` for every long option of every subcommand."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, opt) for name, p in sub.choices.items() for action in p._actions
            for opt in action.option_strings if opt.startswith("--") and opt != "--help"]


def test_every_option_is_documented():
    text = (ROOT / "docs" / "formats.md").read_text()
    options = subcommand_options()
    assert len(options) > 40
    missing = [(name, opt) for name, opt in options
               if not re.search(re.escape(opt) + r"(?![\w-])", text)]
    assert missing == []
