#!/usr/bin/env python3
"""Export an atlas of stability-cone systems across a parameter sweep.

Writes one JSON artifact per (system, n, m) cell into --outdir, plus a
LaTeX rendering for the weak-triangle systems, and prints a row-count /
facet-count table.  Everything is exact; reruns produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from dihedralcalc.cli import main as cli_main
from dihedralcalc.cones import gen_wti, redundancy_audit


@dataclass
class AtlasConfig:
    n_values: list[int] = field(default_factory=lambda: [2, 3, 4, 5])
    m_values: list[int] = field(default_factory=lambda: [3, 4])
    systems: list[str] = field(default_factory=lambda: ["wti", "sti", "km", "bk"])
    outdir: Path = Path("cone-atlas")


def export_cell(cfg: AtlasConfig, system: str, n: int, m: int) -> int:
    """Write the cell's JSON artifact, and its LaTeX rendering for WTI;
    returns the first non-zero CLI exit code, else 0."""
    outs = ("json", "latex") if system == "wti" else ("json",)
    for out in outs:
        ext = "json" if out == "json" else "tex"
        dest = cfg.outdir / f"{system}-n{n}-m{m}.{ext}"
        code = cli_main(["cone", "--system", system, "--n", str(n),
                         "--m", str(m), "--out", out, "--dest", str(dest)])
        if code != 0:
            return code
    return 0


def run(cfg: AtlasConfig) -> int:
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    print(f"{'system':>8} {'n':>3} {'m':>3} {'rows':>5} {'facets':>7}")
    for n in cfg.n_values:
        for m in cfg.m_values:
            audit = redundancy_audit(gen_wti(n, m))
            for system in cfg.systems:
                code = export_cell(cfg, system, n, m)
                if code != 0:
                    return code
                rows = "-"
                if system == "wti":
                    rows = len(audit.entries)
                    print(f"{system:>8} {n:>3} {m:>3} {rows:>5} "
                          f"{audit.facets:>7}")
                else:
                    print(f"{system:>8} {n:>3} {m:>3} {rows:>5} {'':>7}")
    print(f"\nartifacts in {cfg.outdir}/")
    return 0


def parse_args(argv=None) -> AtlasConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--m", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--outdir", type=Path, default=Path("cone-atlas"))
    args = parser.parse_args(argv)
    return AtlasConfig(n_values=args.n, m_values=args.m, outdir=args.outdir)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
