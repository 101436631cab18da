"""Fractional Fourier transform and Wigner quasiprobability fields.

The phase-space rotation by theta acts on a state's oscillator coefficient
vector as alpha_n -> e^{i n theta} alpha_n (frft_ho, the production path,
exact); the equivalent integral kernel

    U_theta(x, y) = [pi (1 - e^{2 i theta})]^{-1/2}
                    * exp(-(i/2) cot(theta) (x^2 + y^2) + i x y / sin(theta))

(principal branch) reproduces those eigenphases for every theta not a
multiple of pi and carries the phase convention pi/4 - theta/2 on (0, pi).
It exists as the brute-force oracle and for states supplied as raw samples.

Wigner fields come from the position-space kernel K(a, b) = <a|rho|b>
(wigner_of_state): W(x, p) = 2 int du e^{-2ip(u - x)} K(u, 2x - u), a dense
Fourier sum on one lattice that holds every mirror point 2x - u, so p may be
any points.  (QuTiP's "fft" wigner, Johansson, Nation & Nori, CPC 184, 1234
(2013), transforms the same kernel by FFT onto its own p grid.)  The sum is
streamed over blocks of ROW_BLOCK lattice points: no step holds the whole
kernel or the whole phase matrix e^{-2ipu}.  The closed form for basis-state
pairs (z = (x+ip)/sqrt2) is the oracle:

    W_mn(x, p) = 2 (-1)^m sqrt(m!/n!) (2 conj(z))^{n-m}
                 * exp(-2|z|^2) L_m^{n-m}(4 |z|^2),     n >= m,

the conjugate power being fixed by rotation covariance W -> W o g^{-1}
(equivalently by the wavefunction-integral form, whose brute-force
quadrature wigner_pure is the second oracle):

    W(x, p) = integral dx' e^{-i p x'} psi*(x - x'/2) psi(x + x'/2).

Every field is sampled on the x and p axes its caller passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hobasis import ho_stack

__all__ = [
    "DegenerateAngle",
    "EdgeLeakage",
    "WignerField",
    "frft_kernel",
    "frft_ho",
    "frft_direct",
    "compose_kernels_quadrature",
    "wigner_mn",
    "wigner_of_state",
    "wigner_pure",
    "coherent_wigner",
    "coherent_expansion",
    "marginal_position",
]

ANGLE_EPS = 1e-6
EDGE_DECAY = 1e-10
ROW_BLOCK = 64  # lattice points, and field rows, of one step of the Wigner sum
COMPOSE_ORDER = 96  # Gauss-Hermite points of compose_kernels_quadrature


class DegenerateAngle(Exception):
    """The kernel degenerates to a distribution at multiples of pi."""


class EdgeLeakage(Exception):
    """Samples do not decay at the grid edges; quadrature would alias."""


@dataclass(frozen=True)
class WignerField:
    """Samples W(x_i, p_j) on a rectangular grid, values shape (len x, len p).

    is_diagonal marks fields of Hermitian operators (real up to roundoff).
    """

    x: np.ndarray
    p: np.ndarray
    values: np.ndarray
    is_diagonal: bool


def _axes(x, p) -> tuple[np.ndarray, np.ndarray]:
    """x and p as 1-D float arrays."""
    return tuple(np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, p))


def _angle_defect(theta: float) -> float:
    return abs(theta / math.pi - round(theta / math.pi))


def frft_kernel(theta: float, x, y):
    """Rotation kernel U_theta(x, y); broadcasts over array x, y.

    Raises DegenerateAngle within 1e-6 of a multiple of pi, where the kernel
    is a delta distribution rather than a function.
    """
    if _angle_defect(theta) * math.pi < ANGLE_EPS:
        raise DegenerateAngle(f"theta={theta} is within {ANGLE_EPS} of a multiple of pi")
    x = np.asarray(x)
    y = np.asarray(y)
    pref = 1.0 / np.sqrt(math.pi * (1.0 - np.exp(2j * theta)))
    cot = 1.0 / math.tan(theta)
    csc = 1.0 / math.sin(theta)
    return pref * np.exp(-0.5j * cot * (x * x + y * y) + 1j * csc * x * y)


def frft_ho(coeffs, theta: float) -> np.ndarray:
    """Rotate in the oscillator basis: alpha_n -> e^{i n theta} alpha_n."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return coeffs * np.exp(1j * np.arange(len(coeffs)) * theta)


def frft_direct(values: np.ndarray, x: np.ndarray, theta: float) -> np.ndarray:
    """Rotate sampled wavefunction values by kernel quadrature (the oracle).

    The samples must decay below 1e-10 at the grid edges.  Angles within
    1e-6 of a multiple of pi route to the exact limits: identity at even
    multiples, inversion psi(x) -> psi(-x) at odd multiples (which needs a
    symmetric grid).
    """
    values = np.asarray(values, dtype=complex)
    x = np.asarray(x, dtype=float)
    if max(abs(values[0]), abs(values[-1])) > EDGE_DECAY:
        raise EdgeLeakage("samples exceed 1e-10 at the grid edges")
    if _angle_defect(theta) * math.pi < ANGLE_EPS:
        half_turns = round(theta / math.pi)
        if half_turns % 2 == 0:
            return values.copy()
        if abs(x[0] + x[-1]) > 1e-9:
            raise ValueError("inversion limit requires a symmetric grid")
        return values[::-1].copy()
    dx = x[1] - x[0]
    w = np.full(len(x), dx)
    w[0] = w[-1] = dx / 2.0
    return frft_kernel(theta, x[:, None], x[None, :]) @ (values * w)


def compose_kernels_quadrature(theta1: float, theta2: float, x: float, y: float) -> complex:
    """Quadrature of integral dz U_theta1(x, z) U_theta2(z, y).

    The integrand is a pure chirp in z whose tails never decay on the real
    line, so the path is rotated through the stationary point
    z_s = (x csc theta1 + y csc theta2) / (cot theta1 + cot theta2) by
    e^{-i sign(c) pi/4}; along that line the modulus decays as a Gaussian
    and Gauss-Hermite quadrature of COMPOSE_ORDER converges at machine precision.  The path
    choice cannot bias the value (the integrand is entire), only the rate.
    """
    from .hobasis import reweighted_rule

    c = 1.0 / math.tan(theta1) + 1.0 / math.tan(theta2)
    if abs(c) < 1e-12:
        raise DegenerateAngle("composed angle is a multiple of pi")
    b = x / math.sin(theta1) + y / math.sin(theta2)
    z_star = b / c
    rho = np.exp(-1j * np.sign(c) * math.pi / 4.0) * math.sqrt(2.0 / abs(c))
    u, w = reweighted_rule(COMPOSE_ORDER)
    z = z_star + rho * u
    vals = frft_kernel(theta1, x, z) * frft_kernel(theta2, z, y)
    return complex(rho * np.sum(w * vals))


def _log_fact(n: int) -> float:
    return math.lgamma(n + 1)


def wigner_mn(m: int, n: int, x, p):
    """Wigner function of the basis-state pair |phi_n><phi_m|.

    Real for m = n; for n < m uses W_mn = conj(W_nm).  Broadcasts over
    arrays x, p.  The Laguerre sum loses digits at high index near the
    origin: at n ~ 1000 and |z| ~ 0.01 it is good only to ~3.5e-11
    (W_{1023,1023} at (x, p) = (-0.005, 0.01)), so it cannot check fields
    to 1e-12 there.
    """
    from .specfun import assoc_laguerre

    if m < 0 or n < 0:
        raise ValueError("indices must be nonnegative")
    if n < m:
        return np.conj(wigner_mn(n, m, x, p))
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    nu = n - m
    r2 = 0.5 * (x * x + p * p)  # |z|^2
    pref = 2.0 * (-1.0) ** m * math.exp(0.5 * (_log_fact(m) - _log_fact(n)))
    body = pref * np.exp(-2.0 * r2) * assoc_laguerre(m, nu, 4.0 * r2)
    if nu == 0:
        return body
    zbar = (x - 1j * p) / math.sqrt(2.0)
    return (2.0 * zbar) ** nu * body


def _operator_matrix(op) -> np.ndarray:
    arr = np.asarray(op, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise ValueError("expected coefficients or a square operator matrix")


def _grid_step(x: np.ndarray) -> float:
    """Step of an ascending uniform grid of finite points (1 for one point)."""
    if x.ndim == 1 and len(x) and np.all(np.isfinite(x)):
        dx = (x[-1] - x[0]) / max(len(x) - 1, 1) or 1.0
        off_grid = np.max(np.abs(x - x[0] - dx * np.arange(len(x))))
        if dx > 0 and off_grid <= 1e-12 * np.max(np.abs(x)):
            return dx
    raise ValueError("x must be one point or an ascending uniform grid")


def _lattice_field(rho, used, xs, step, ps, h, reach) -> np.ndarray:
    """W at rows xs (one point, or uniform with this step) and columns ps.

    Sums G[i, a] e^{-2i u_a p}, G[i, a] = K(u_a, 2 x_i - u_a), over a
    lattice u_a of step <= h that covers [-reach, reach], then multiplies by
    2 h e^{2i x p}.  Each block of B = ROW_BLOCK lattice points forms its rows
    of K (B x L), its columns of G (n_x x B) and its slab of e^{-2i u p}
    (B x n_p), and adds their product into the field B rows at a time.
    Beyond phi, left = phi^T rho and the field, the work space is
    O(B (L + n_x + n_p)) for L lattice points, n_x rows and n_p columns.
    """
    m = math.ceil(2.0 * step / h) if len(xs) > 1 else 1  # 2 x_i - u_a stays on the lattice
    h = 2.0 * step / m if len(xs) > 1 else h
    a = np.arange(-math.floor((reach + xs[0]) / h), math.floor((reach - xs[0]) / h) + 1)
    u = xs[0] + a * h
    phi = ho_stack(used[-1], u)[used]
    left = phi.T @ rho
    i = np.arange(len(xs))[:, None]
    field = np.zeros((len(xs), len(ps)), dtype=complex)
    for lo in range(0, len(u), ROW_BLOCK):
        j = np.arange(lo, min(lo + ROW_BLOCK, len(u)))
        mirror = i * m - 2 * int(a[0]) - j  # lattice index of 2 x_i - u_j
        inside = (mirror >= 0) & (mirror < len(u))
        block = left[j] @ phi
        # "clip" keeps an outside mirror's index in range; where() zeroes its entry
        kernel = np.where(inside, np.take(block, (j - lo) * len(u) + mirror, mode="clip"), 0.0)
        # a real kernel meets e^{-2iup} as pairs of reals: half the work of a complex product
        slab = np.exp(np.outer(-2j * u[j], ps)).view(kernel.dtype)
        for r in range(0, len(xs), ROW_BLOCK):
            field[r : r + ROW_BLOCK].view(kernel.dtype)[...] += kernel[r : r + ROW_BLOCK] @ slab
    for r in range(0, len(xs), ROW_BLOCK):
        field[r : r + ROW_BLOCK] *= (2.0 * h) * np.exp(np.outer(2j * xs[r : r + ROW_BLOCK], ps))
    return field


def wigner_of_state(op, x: np.ndarray, p: np.ndarray) -> WignerField:
    """Assemble the Wigner field of a state or basis-space operator.

    ``op`` may be a 1-D coefficient vector (pure state) or a square matrix
    rho in the oscillator basis (e.g. a one-particle density matrix, or
    |psi><phi| for a cross field).  Hermitian input yields a real field and
    sets is_diagonal.  ``x`` must be ascending and uniform (or one
    point); ``p`` may be any points.

    The kernel's lattice sum is exact for a step h <= pi / (max|p| + reach):
    past reach = sqrt(2 M + 1) + 9, M the highest index in use plus one, the
    phi_n and the field vanish.  Rows finer than h / 2 form interleaved subgrids.
    """
    rho = _operator_matrix(op)
    x, p = _axes(x, p)
    dx = _grid_step(x)
    hermitian = bool(np.max(np.abs(rho - rho.conj().T)) <= 1e-12)
    values = np.zeros((len(x), len(p)), dtype=float if hermitian else complex)
    used = np.flatnonzero(np.any(rho != 0, axis=0) | np.any(rho != 0, axis=1))
    reach = math.sqrt(2.0 * used[-1] + 3.0) + 9.0 if len(used) else -math.inf
    rows = np.flatnonzero(np.abs(x) <= reach)
    cols = np.flatnonzero(np.abs(p) <= reach)
    if len(rows) and len(cols):
        rho = rho[np.ix_(used, used)]
        rho = rho if np.any(rho.imag) else rho.real
        h = math.pi / (np.max(np.abs(p[cols])) + reach)
        q = max(1, int(min(0.5 * h, len(rows) * dx) / dx))
        for r in range(q):
            sub = rows[r::q]
            field = _lattice_field(rho, used, x[sub], q * dx, p[cols], h, reach)
            values[np.ix_(sub, cols)] = field.real if hermitian else field
    return WignerField(x=x, p=p, values=values, is_diagonal=hermitian)


def wigner_pure(
    samples: np.ndarray,
    sample_x: np.ndarray,
    x: np.ndarray,
    p: np.ndarray,
    bra_samples: Optional[np.ndarray] = None,
) -> WignerField:
    """Brute-force Wigner field from position-space samples (the oracle).

    W(x, p) = integral dx' e^{-i p x'} psi*(x - x'/2) psi(x + x'/2) on the
    uniform sample grid, with x' restricted to even multiples of the sample
    spacing so both shifted arguments stay on-grid.  Evaluation points must
    coincide with sample points.  ``bra_samples`` switches to the cross
    field of |psi><phi| with phi the bra.
    """
    samples = np.asarray(samples, dtype=complex)
    sample_x = np.asarray(sample_x, dtype=float)
    bra = samples if bra_samples is None else np.asarray(bra_samples, dtype=complex)
    for arr in (samples, bra):
        if max(abs(arr[0]), abs(arr[-1])) > EDGE_DECAY:
            raise EdgeLeakage("samples exceed 1e-10 at the grid edges")
    x, p = _axes(x, p)
    dx = sample_x[1] - sample_x[0]
    idx = np.rint((x - sample_x[0]) / dx).astype(int)
    if np.max(np.abs(sample_x[np.clip(idx, 0, len(sample_x) - 1)] - x)) > 1e-9:
        raise ValueError("evaluation points must lie on the sample grid")
    n_samp = len(sample_x)
    k_max = n_samp - 1
    k = np.arange(-k_max, k_max + 1)
    phase = np.exp(-2j * np.outer(p, k * dx))  # x' = 2 k dx
    padded_ket = np.zeros(3 * n_samp, dtype=complex)
    padded_ket[n_samp : 2 * n_samp] = samples
    padded_bra = np.zeros(3 * n_samp, dtype=complex)
    padded_bra[n_samp : 2 * n_samp] = bra
    values = np.empty((len(x), len(p)), dtype=complex)
    for row, i in enumerate(idx):
        center = n_samp + i
        corr = np.conj(padded_bra[center - k_max : center + k_max + 1][::-1])
        corr = corr * padded_ket[center - k_max : center + k_max + 1]
        values[row] = 2.0 * dx * (phase @ corr)
    diagonal = bra_samples is None
    return WignerField(x=x, p=p, values=values, is_diagonal=diagonal)


def coherent_wigner(w: complex, x: np.ndarray, p: np.ndarray) -> WignerField:
    """Wigner field of the coherent state centered at z = w: 2 e^{-2|z-w|^2}."""
    x, p = _axes(x, p)
    z = (x[:, None] + 1j * p[None, :]) / math.sqrt(2.0)
    with np.errstate(over="ignore"):  # far from w the exponent is -inf: the field is 0
        values = 2.0 * np.exp(-2.0 * np.abs(z - w) ** 2)
    return WignerField(x=x, p=p, values=values.astype(complex), is_diagonal=True)


def coherent_expansion(w: complex, basis_size: int) -> np.ndarray:
    """Coherent-state coefficients alpha_n = e^{-|w|^2/2} w^n / sqrt(n!)."""
    n = np.arange(basis_size)
    mod = abs(w)
    if mod == 0.0:
        coeffs = np.zeros(basis_size, dtype=complex)
        coeffs[0] = 1.0
        return coeffs
    log_mod = n * math.log(mod) - 0.5 * np.array([_log_fact(int(k)) for k in n]) - 0.5 * mod**2
    phases = np.exp(1j * n * np.angle(w))
    return np.exp(log_mod) * phases


def marginal_position(field: WignerField) -> np.ndarray:
    """integral dp/(2 pi) W(x, p) per x row (trapezoid).

    Equals |psi(x)|^2 for diagonal fields (returned real) and phi*(x) psi(x)
    for cross fields (returned complex).
    """
    marg = np.trapezoid(field.values, field.p, axis=1) / (2.0 * math.pi)
    if field.is_diagonal:
        if np.max(np.abs(marg.imag)) > 1e-10:
            raise ValueError("diagonal field has a non-negligible imaginary marginal")
        return marg.real
    return marg
