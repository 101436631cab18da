"""Phase-space entanglement spectra of 1D free-fermion Slater determinants.

The entanglement cut is a half plane in classical phase space; rotating it
by an angle theta (a fractional Fourier transform of the state) sweeps
continuously from the position cut to the momentum cut.  All entanglement
data derive from the cut Gramian of the occupied orbitals, evaluated in a
truncated harmonic-oscillator basis where the rotation is diagonal.

The top level exports what the command line, the scripts and the README
example call; the oracles are imported from their own modules.
"""

from .chiral import (ParitySortedState, detect_gap_closings, flat_band_count, parity_sort,
                     winding_number)
from .entanglement import (PSESDataset, entanglement_energies, entanglement_entropy,
                           pses_sweep, schmidt_values)
from .overlap import HOOverlapTable, ho_overlap_table, rotated_overlap
from .phasespace import WignerField, coherent_wigner, frft_ho, wigner_of_state
from .potentials import BoundStateSet, bound_states, hamiltonian_matrix, potential
from .states import SlaterState, ho_slater, interpolated_state

__version__ = "0.1.0"

__all__ = [
    "HOOverlapTable",
    "PSESDataset",
    "ParitySortedState",
    "BoundStateSet",
    "SlaterState",
    "WignerField",
    "bound_states",
    "coherent_wigner",
    "detect_gap_closings",
    "entanglement_energies",
    "entanglement_entropy",
    "flat_band_count",
    "frft_ho",
    "hamiltonian_matrix",
    "ho_overlap_table",
    "ho_slater",
    "interpolated_state",
    "parity_sort",
    "potential",
    "pses_sweep",
    "rotated_overlap",
    "schmidt_values",
    "wigner_of_state",
    "winding_number",
]
