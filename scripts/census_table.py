#!/usr/bin/env python3
"""Ball-intersection census vs pre-ring product, tabulated as CSV.

For each classified radius vector on an antipodal chamber tuple
(``building.census_sweep``), grows the graph until the intersection count
stabilizes (or provably keeps growing) and records it next to the
pre-ring product coefficient the count is supposed to realize: empty
product <-> 0, a single point <-> coefficient 1, a growing family <->
infinite coefficient.  Exits 1 if any outcome disagrees.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from dihedralcalc.building import census_sweep, census_to_csv


@dataclass
class CensusConfig:
    n_values: tuple[int, ...] = (3, 4, 5)
    m: int = 3
    out: Path = Path("census.csv")


def run(cfg: CensusConfig) -> int:
    rows = []
    agree = 0
    for n in cfg.n_values:
        for radii, l, expected, out in census_sweep(n, cfg.m):
            agree += out.outcome == expected
            rows.append({
                "n": n, "radii": radii, "grassmannian": l,
                "counts": out.counts, "outcome": out.outcome,
                # the table writes an infinite coefficient as "inf"
                "product_coefficient": "inf" if expected == "growing" else expected,
            })
    cfg.out.write_text(census_to_csv(rows))
    print(f"{agree}/{len(rows)} census outcomes match the pre-ring product")
    print(f"table written to {cfg.out}")
    return 0 if agree == len(rows) else 1


def parse_args(argv=None) -> CensusConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("census.csv"))
    args = parser.parse_args(argv)
    return CensusConfig(tuple(args.n), args.m, args.out)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
