"""Every demo script and every README command line runs to completion against src."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from orthospec import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_COMMANDS = [line.split()[1:] for line in (ROOT / "README.md").read_text().splitlines()
                   if line.startswith("orthospec ")]


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_exits_0(argv, tmp_path, capsys):
    argv = list(argv)
    config = argv.index("--config") + 1
    argv[config] = str(ROOT / argv[config])
    argv[argv.index("--out") + 1] = str(tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
