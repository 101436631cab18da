#!/usr/bin/env python3
"""Entanglement entropy of the two-fermion interpolation over (t, theta):
the polar-plot dataset whose maximum saturates the 2 ln 2 bound at the
gap-closing point."""

import argparse
import math
import sys
from pathlib import Path

from psesk.cli import main as cli


def run(out: Path) -> int:
    """Run every command; the largest exit code, 0 when all succeed."""
    phi = 2.0 * math.pi / 3.0
    return cli(["entropy-surface", "--interpolated", f"0,{phi}",
                "--t-points", "201", "--theta-points", "256", "--out", str(out)])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/entropy_polar", type=Path)
    sys.exit(run(parser.parse_args().out))
