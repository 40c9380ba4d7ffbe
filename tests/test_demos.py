"""Every demo script, and the package docstring's example, runs to completion."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import flowids

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr


def test_package_docstring_example_runs(capsys):
    example = textwrap.dedent(flowids.__doc__.split("The usual round trip:")[1])
    exec(compile(example, "flowids.__doc__", "exec"), {})
    assert "encoder" in capsys.readouterr().out
