#!/usr/bin/env python3
"""Entanglement spectra over the cut angle for oscillator-level fillings and
for the two-fermion ground/excited interpolation (four panels across the
topological transition)."""

import argparse
import math
import sys
from pathlib import Path

from psesk.cli import main as cli


def run(out: Path) -> int:
    """Run every command; the largest exit code, 0 when all succeed."""
    codes = []
    for name, occ in [("gs_pair", "0,1"), ("gs_four", "0,1,2,3"), ("es_four", "1,2,3,4")]:
        codes.append(cli(["spectrum", "--ho-slater", occ, "--theta-points", "256",
                          "--gnuplot", "--out", str(out / name)]))
    phi = 2.0 * math.pi / 3.0
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    for tag, t in [("t000", 0.0), ("t030", 0.3), ("tcrit", t_crit), ("t100", 1.0)]:
        codes.append(cli(["spectrum", "--interpolated", f"{t},{phi}", "--theta-points", "512",
                          "--gnuplot", "--out", str(out / f"interp_{tag}")]))
    return max(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/flat_bands", type=Path)
    sys.exit(run(parser.parse_args().out))
