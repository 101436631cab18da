#!/usr/bin/env python3
"""Bound states, entanglement spectra, and winding numbers for the four
inversion-symmetric wells (N = 6 and 7), plus the symmetry-breaking
Rosen-Morse well."""

import argparse
import sys
from pathlib import Path

from psesk.cli import main as cli

WELLS = ("sho", "anharmonic", "double_well", "poschl_teller")


def run(out: Path) -> int:
    """Run every command; the largest exit code, 0 when all succeed."""
    codes = []
    for kind in WELLS + ("rosen_morse",):
        codes.append(cli(["solve-potential", "--potential", kind, "--levels", "7",
                          "--out", str(out / kind / "levels")]))
        for n in (6, 7):
            codes.append(cli(["spectrum", "--potential", kind, "--particles", str(n),
                              "--theta-points", "256", "--gnuplot",
                              "--out", str(out / kind / f"spectrum_n{n}")]))
    for kind in WELLS:
        codes.append(cli(["winding", "--potential", kind, "--particles", "6",
                          "--out", str(out / kind / "winding_n6")]))
    return max(codes)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/wells", type=Path)
    sys.exit(run(parser.parse_args().out))
