"""Smoke runs of the scripts under ``scripts/``: each exits 0 and writes output."""

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
