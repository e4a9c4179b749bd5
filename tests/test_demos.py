"""The quick demos run to the end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# each CSV demo writes 12 rows: 3 schemes x 4 rates, or 3 schemes x 2 targets x 2 rates
CSV_HEADERS = {
    "sweep.py": "scheme,error_rate,mean_ssim,ci90_half_width,density",
    "isolation.py": "scheme,target,error_rate,mean_ssim,ci90_half_width",
}


@pytest.mark.parametrize(
    "demo, args, writes",
    [
        ("containment.py", [], []),
        ("roundtrip.py", ["out"], ["out/original.pgm", "out/decoded_1.000%.pgm"]),
        ("sweep.py", ["sweep.csv"], ["sweep.csv"]),
        ("isolation.py", ["iso.csv"], ["iso.csv"]),
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
    if demo in CSV_HEADERS:
        lines = (tmp_path / writes[0]).read_text().splitlines()
        assert lines[0] == CSV_HEADERS[demo]
        assert len(lines) == 1 + 12
