"""The quick demos run to the end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo, args, writes",
    [
        ("containment.py", [], []),
        ("roundtrip.py", ["out"], ["out/original.pgm", "out/decoded_1.000%.pgm"]),
    ],
)
def test_demo_runs(demo, args, writes, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout
    for name in writes:
        assert (tmp_path / name).is_file(), name
