"""Phase-space entanglement spectra of 1D free-fermion Slater determinants.

The entanglement cut is a half plane in classical phase space; rotating it
by an angle theta (a fractional Fourier transform of the state) sweeps
continuously from the position cut to the momentum cut.  All entanglement
data derive from the cut Gramian of the occupied orbitals, evaluated in a
truncated harmonic-oscillator basis where the rotation is diagonal.
"""

from .chiral import (
    ParitySortedState,
    detect_gap_closings,
    flat_band_count,
    inversion_matrix,
    minimum_block_gap,
    parity_sort,
    winding_number,
)
from .entanglement import (
    PSESDataset,
    entanglement_energies,
    entanglement_entropy,
    entanglement_hamiltonian,
    pses_sweep,
    schmidt_values,
)
from .hobasis import expand_function, gauss_hermite, ho_wavefunction
from .overlap import (
    HOOverlapTable,
    ho_overlap_table,
    rotated_overlap,
    translated_overlap,
)
from .phasespace import (
    WignerField,
    coherent_wigner,
    frft_direct,
    frft_ho,
    frft_kernel,
    marginal_position,
    wigner_mn,
    wigner_of_state,
    wigner_pure,
)
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
    "entanglement_hamiltonian",
    "expand_function",
    "flat_band_count",
    "frft_direct",
    "frft_ho",
    "frft_kernel",
    "gauss_hermite",
    "hamiltonian_matrix",
    "ho_overlap_table",
    "ho_slater",
    "ho_wavefunction",
    "interpolated_state",
    "inversion_matrix",
    "marginal_position",
    "minimum_block_gap",
    "parity_sort",
    "potential",
    "pses_sweep",
    "rotated_overlap",
    "schmidt_values",
    "translated_overlap",
    "wigner_mn",
    "wigner_of_state",
    "wigner_pure",
    "winding_number",
]
