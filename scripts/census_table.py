#!/usr/bin/env python3
"""Ball-intersection census vs pre-ring product, tabulated as CSV.

For each radius vector on a seeded antipodal chamber tuple, grows the
graph until the intersection count stabilizes (or provably keeps
growing) and records it next to the pre-ring product coefficient the
count is supposed to realize: empty product <-> 0, a single point <->
coefficient 1, a growing family <-> infinite coefficient.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

from dihedralcalc.building import ChamberGraph, census_classified, \
    census_prediction, census_rounds, census_to_csv, find_antipodal_tuple
from dihedralcalc.prering import GrassPreRing


@dataclass
class CensusConfig:
    n_values: tuple[int, ...] = (3, 4, 5)
    m: int = 3
    seed: int = 11
    out: Path = Path("census.csv")


def run(cfg: CensusConfig) -> int:
    rows = []
    agree = total = 0
    for n in cfg.n_values:
        ring = GrassPreRing(n)
        tup = find_antipodal_tuple(ChamberGraph.apartment(n, seed=cfg.seed),
                                   cfg.m)
        for radii in itertools.combinations_with_replacement(
                range(1, n), cfg.m):
            if not census_classified(n, radii):
                continue
            expected = census_prediction(ring, radii)
            # the table writes an infinite coefficient as "inf"
            label = "inf" if expected == "growing" else expected
            for l in (1, 2):
                out = census_rounds(tup.graph, tup.chambers, list(radii), l)
                total += 1
                agree += out.outcome == expected
                rows.append({
                    "n": n, "radii": list(radii), "grassmannian": l,
                    "counts": out.counts, "outcome": out.outcome,
                    "product_coefficient": label,
                })
    cfg.out.write_text(census_to_csv(rows))
    print(f"{agree}/{total} census outcomes match the pre-ring product")
    print(f"table written to {cfg.out}")
    return 0 if agree == total else 1


def parse_args(argv=None) -> CensusConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[3, 4, 5])
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, default=Path("census.csv"))
    args = parser.parse_args(argv)
    return CensusConfig(tuple(args.n), args.m, args.seed, args.out)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
