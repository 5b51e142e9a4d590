"""Heisenberg chains: Hamiltonian, thermal witness bound, thermodynamic proxies.

Units: hbar = k = 1 and g^2 mu_B^2 = 1; sigma are Pauli operators.

Basis state s of an N-site chain is the integer whose bits, most significant
first, are the spins of sites 0..N-1 (bit 0 is sigma^z = +1). Every bond
term is sigma_i . sigma_j = 2 SWAP_ij - I, and SWAP_ij is the permutation of
basis states that exchanges bits i and j. The bond sum
C = sum_bonds sigma_i . sigma_j and M_z = sum_i sigma_i^z therefore commute:
a swap keeps the number of down spins, so C is block diagonal in the S^z
sectors (C(N, k) states with k spins down, M_z = N - 2k). ``chain_spectrum``
diagonalizes C sector by sector with one real ``eigvalsh`` each, and
``thermal_table`` evaluates every thermal average over a beta grid from the
per-level pairs (c, m), since H = J C + B M_z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Cut, HermitianMatrix, SystemShape, _pt_array
from .witnesses import DECOMPOSABLE_MULTI, OP_LEQ_I, Witness

N_CAP = 8


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and parameters of one spin chain run."""

    n_sites: int
    coupling: float
    field: float = 0.0
    beta: float = 0.0
    periodic: bool = False

    def __post_init__(self):
        _check_length(self.n_sites)
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")


def bonds(n_sites: int, periodic: bool) -> list:
    """Nearest-neighbor bonds; the wrap bond is dropped at N = 2."""
    out = [(i, i + 1) for i in range(n_sites - 1)]
    if periodic and n_sites > 2:
        out.append((n_sites - 1, 0))
    return out


def _check_length(n_sites: int) -> None:
    if n_sites < 2 or n_sites > N_CAP:
        raise ValueError(f"chain length {n_sites} is outside 2..{N_CAP}")


def _swap_sites(states: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Basis states after exchanging the spins of sites i and j."""
    a, b = n - 1 - i, n - 1 - j
    flip = ((states >> a) ^ (states >> b)) & 1
    return states ^ ((flip << a) | (flip << b))


def _down_counts(n: int) -> np.ndarray:
    """Number of down spins in each basis state."""
    states = np.arange(2**n)
    return sum((states >> k) & 1 for k in range(n))


def _swap_matrix(i: int, j: int, n: int) -> np.ndarray:
    """Dense SWAP_ij on the 2^n chain space."""
    states = np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[_swap_sites(states, i, j, n), states] = 1.0
    return out


def _bond_term(i: int, j: int, n: int) -> np.ndarray:
    """Dense sigma_i . sigma_j = 2 SWAP_ij - I."""
    return 2 * _swap_matrix(i, j, n) - np.eye(2**n)


def xxx_hamiltonian(spec: ChainSpec) -> HermitianMatrix:
    """H = J sum_bonds sigma_i . sigma_j + B sum_i sigma_i^z."""
    n = spec.n_sites
    h = np.zeros((2**n, 2**n), dtype=complex)
    for i, j in bonds(n, spec.periodic):
        h += spec.coupling * _bond_term(i, j, n)
    h += spec.field * np.diag(n - 2.0 * _down_counts(n))
    return HermitianMatrix(h, SystemShape([2] * n))


def toth_witness(n_sites: int, periodic: bool) -> Witness:
    """W = (N I + sum_bonds sigma.sigma) / (2N); satisfies W <= I.

    Decomposes as P + sum_b Q_b^{T_i} with P a multiple of the identity
    and each Q_b proportional to a two-site maximally entangled projector,
    so the witness is blind to PPT states across every bond cut.
    """
    _check_length(n_sites)
    n = n_sites
    bond_list = bonds(n, periodic)
    dim = 2**n
    shape = SystemShape([2] * n)
    op = n * np.eye(dim, dtype=complex)
    for i, j in bond_list:
        op += _bond_term(i, j, n)
    op /= 2 * n
    p = HermitianMatrix(np.eye(dim) * (n - len(bond_list)) / (2 * n), shape)
    qs = []
    cuts = []
    for i, j in bond_list:
        qs.append(HermitianMatrix(_pt_array(_swap_matrix(i, j, n), [2] * n, [i]) / n, shape))
        cuts.append(Cut([i]))
    return Witness(
        op=HermitianMatrix(op, shape),
        kind=DECOMPOSABLE_MULTI,
        bounds=(np.inf, 1.0),
        parts={"P": p, "Q": qs},
        cuts=cuts,
        trace_norm_choice=OP_LEQ_I,
    )


def chain_spectrum(n_sites: int, periodic: bool):
    """Per-level eigenvalues (c, m) of C = sum_bonds sigma.sigma and of M_z.

    Levels come sector by sector, k = 0..N spins down: the C(N, k)
    eigenvalues of C restricted to the sector, each paired with
    m = N - 2k. Any H = J C + B M_z has the spectrum J c + B m.
    """
    _check_length(n_sites)
    n = n_sites
    bond_list = bonds(n, periodic)
    states = np.arange(2**n)
    downs = _down_counts(n)
    local = np.empty(2**n, dtype=int)
    cs, ms = [], []
    for k in range(n + 1):
        sector = states[downs == k]
        cols = np.arange(len(sector))
        local[sector] = cols
        block = -float(len(bond_list)) * np.eye(len(sector))
        for i, j in bond_list:
            block[local[_swap_sites(sector, i, j, n)], cols] += 2.0
        cs.append(np.linalg.eigvalsh(block))
        ms.append(np.full(len(sector), n - 2.0 * k))
    return np.concatenate(cs), np.concatenate(ms)


@dataclass(frozen=True)
class ThermalTable:
    """Thermal averages of one chain, one entry per beta of the grid."""

    n_sites: int
    coupling: float
    field: float
    beta: np.ndarray
    energy: np.ndarray  # U = <H>
    magnetization: np.ndarray  # M = <M_z>
    bond_sum: np.ndarray  # <C>
    mz_square: np.ndarray  # <M_z^2>

    @property
    def witness_value(self) -> np.ndarray:
        """-Tr(W rho) for the Toth witness W = (N I + C) / (2N)."""
        return -(self.n_sites + self.bond_sum) / (2 * self.n_sites)

    @property
    def estimate(self) -> np.ndarray:
        """-(U - B M)/(2 N J) - 1/2; equals the witness value at every field."""
        if self.coupling == 0:
            raise ValueError("coupling must be nonzero")
        u_bonds = self.energy - self.field * self.magnetization
        return -u_bonds / (2 * self.n_sites * self.coupling) - 0.5

    @property
    def chi_exact(self) -> np.ndarray:
        return self.beta * (self.mz_square - self.magnetization**2)

    @property
    def chi_witness_form(self) -> np.ndarray:
        return self.beta * (self.n_sites + self.bond_sum / 3.0)


def thermal_table(c, m, coupling: float, field: float, betas) -> ThermalTable:
    """Boltzmann averages over ``betas`` from the spectrum of ``chain_spectrum``.

    Weights are exp(-beta (E - E_min)) with E = J c + B m, the same
    max-shift as ``states.thermal``.
    """
    betas = np.asarray(betas, dtype=float)
    if not np.all(np.isfinite(betas) & (betas >= 0)):
        raise ValueError("beta must be finite and nonnegative")
    if not (np.isfinite(coupling) and np.isfinite(field)):
        raise ValueError("J and B must be finite")
    e = coupling * c + field * m
    w = np.exp(-np.outer(betas, e - e.min()))
    w /= w.sum(axis=1, keepdims=True)
    return ThermalTable(
        n_sites=len(c).bit_length() - 1,
        coupling=coupling,
        field=field,
        beta=betas,
        energy=w @ e,
        magnetization=w @ m,
        bond_sum=w @ c,
        mz_square=w @ (m * m),
    )


def _spec_table(spec: ChainSpec) -> ThermalTable:
    c, m = chain_spectrum(spec.n_sites, spec.periodic)
    return thermal_table(c, m, spec.coupling, spec.field, [spec.beta])


def rg_witness_lower_thermal(spec: ChainSpec) -> float:
    """max{0, -Tr(W rho)} with the fixed witness; lower-bounds R_G."""
    return max(0.0, float(_spec_table(spec).witness_value[0]))


def thermo_estimate(spec: ChainSpec):
    """Witness bound rebuilt from energy U and magnetization M.

    Returns (estimate, U, M) with estimate = -(U - B M)/(2 N J) - 1/2.
    It equals -Tr(W rho) at every field, not only at B = 0, up to
    rounding: U - B M = J <sum_bonds sigma.sigma> for any B.
    """
    t = _spec_table(spec)
    return float(t.estimate[0]), float(t.energy[0]), float(t.magnetization[0])


def susceptibility(spec: ChainSpec):
    """Zero-field susceptibility, exact and in witness form.

    chi_exact is the fluctuation formula beta (<Mz^2> - <Mz>^2);
    chi_witness_form is beta (N + (1/3) sum_bonds <sigma.sigma>).
    With Mz = sum_i sigma_i^z the free-spin value is N beta, and the high-
    temperature series is chi = N beta - 2 beta^2 J n_bonds + O(beta^3).
    """
    if spec.field != 0:
        raise ValueError("susceptibility is defined at zero field")
    if spec.beta <= 0:
        raise ValueError("beta must be positive")
    t = _spec_table(spec)
    return float(t.chi_exact[0]), float(t.chi_witness_form[0])
