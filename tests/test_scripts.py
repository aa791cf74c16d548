"""Smoke runs of the scripts under ``scripts/``: each exits 0 and writes output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize(
    "name, argv, written",
    [("census_table.py", ["--n", "3", "--m", "2", "--out", "census.csv"], "census.csv"),
     ("cone_atlas.py", ["--n", "2", "--m", "3", "--outdir", "atlas"], "atlas")],
    ids=["census_table", "cone_atlas"])
def test_script_writes_output(tmp_path, name, argv, written):
    proc = run_script(name, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / written
    files = [out] if out.is_file() else sorted(out.iterdir())
    assert files and all(f.stat().st_size > 0 for f in files)


# sha256 of census_table.py's CSV for --n 3 4 5, one per --m
CENSUS_CSV_PINS = {
    2: "7668cfd238b9c786045f39a879af8a0807d4f5d77cc9a6ab7b3e531be89d37e5",
    3: "d3ef1ae3f3f07abc3ed08ba4f77fbbf03307c68d368c764c03ba5ca19a1f5767",
}


@pytest.mark.parametrize("m", sorted(CENSUS_CSV_PINS))
def test_census_table_csv_pinned(tmp_path, m):
    proc = run_script("census_table.py", "--n", "3", "4", "5", "--m", str(m),
                      "--out", "census.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    data = (tmp_path / "census.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == CENSUS_CSV_PINS[m]


def test_cone_atlas_fails_with_a_failed_latex_export(tmp_path):
    # a directory in place of the LaTeX file makes that export exit 2
    (tmp_path / "atlas" / "wti-n2-m3.tex").mkdir(parents=True)
    proc = run_script("cone_atlas.py", "--n", "2", "--m", "3",
                      "--outdir", "atlas", cwd=tmp_path)
    assert proc.returncode == 2
    assert "input error" in proc.stderr


def test_semistable_demo_prints_report(tmp_path):
    proc = run_script("semistable_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
