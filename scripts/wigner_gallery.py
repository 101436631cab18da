#!/usr/bin/env python3
"""Wigner fields: the first three oscillator eigenstates, two coherent
states, and the one-particle density of the interpolation family across its
transition (the pinch-off at the origin)."""

import argparse
import math
import sys
from pathlib import Path

from psesk.cli import main as cli


def run(out: Path) -> int:
    """Run every command; the largest exit code, 0 when all succeed."""
    codes = []
    for n in (0, 1, 2):
        codes.append(cli(["wigner", "--ho-slater", str(n), "--gnuplot",
                          "--out", str(out / f"eig{n}")]))
    for tag, w in [("real", "3"), ("imag", "0,3")]:
        codes.append(cli(["wigner", "--coherent", w, "--gnuplot",
                          "--out", str(out / f"coherent_{tag}")]))
    phi = 2.0 * math.pi / 3.0
    t_crit = (2.0 / math.pi) * math.atan(math.sqrt(2.0))
    for tag, t in [("t000", 0.0), ("t030", 0.3), ("tcrit", t_crit), ("t100", 1.0)]:
        codes.append(cli(["wigner", "--interpolated", f"{t},{phi}", "--gnuplot",
                          "--out", str(out / f"interp_{tag}")]))
    return max(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/wigner", type=Path)
    sys.exit(run(parser.parse_args().out))
