import itertools
import math

import numpy as np
import pytest

from entwit.linalg import HermitianMatrix, SystemShape
from entwit.spin import (
    ChainSpec,
    bonds,
    chain_spectrum,
    rg_witness_lower_thermal,
    susceptibility,
    thermal_table,
    thermo_estimate,
    toth_witness,
    xxx_hamiltonian,
)
from entwit.states import thermal
from entwit.witnesses import evaluate


def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(1, 1.0)
    with pytest.raises(ValueError):
        ChainSpec(9, 1.0)
    with pytest.raises(ValueError):
        ChainSpec(4, 1.0, beta=-1.0)


def test_bond_sets():
    assert bonds(2, periodic=False) == [(0, 1)]
    assert bonds(2, periodic=True) == [(0, 1)]
    assert bonds(4, periodic=True) == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_two_site_spectrum():
    h = xxx_hamiltonian(ChainSpec(2, 1.0))
    w = np.linalg.eigvalsh(h.mat)
    assert np.allclose(w, [-3, 1, 1, 1])


def test_field_commutes_with_total_sz():
    h0 = xxx_hamiltonian(ChainSpec(3, 1.0, field=0.0, periodic=True))
    hb = xxx_hamiltonian(ChainSpec(3, 1.0, field=0.7, periodic=True))
    sz = hb.mat - h0.mat
    assert np.abs(h0.mat @ sz - sz @ h0.mat).max() < 1e-12


def test_spectrum_spin_flip_symmetric():
    h = xxx_hamiltonian(ChainSpec(3, 1.0, periodic=True))
    w = np.linalg.eigvalsh(h.mat)
    flip = np.zeros((8, 8))
    for i in range(8):
        flip[7 - i, i] = 1.0
    assert np.allclose(flip @ h.mat @ flip, h.mat)
    assert np.allclose(w, np.linalg.eigvalsh(flip @ h.mat @ flip))


def test_toth_witness_bounded_by_identity():
    for n in range(2, 9):
        for periodic in (False, True):
            w = toth_witness(n, periodic)
            assert np.linalg.eigvalsh(w.op.mat)[-1] <= 1 + 1e-12


def test_toth_on_singlet_ground_state():
    # open N=2 ground state is the singlet; Tr(W rho) = (2 - 6/2)/4... = -1/4
    spec = ChainSpec(2, 1.0, beta=200.0)
    rho = thermal(xxx_hamiltonian(spec), spec.beta)
    w = toth_witness(2, periodic=False)
    assert evaluate(w, rho) == pytest.approx(-0.25, abs=1e-12)
    assert rg_witness_lower_thermal(spec) == pytest.approx(0.25, abs=1e-12)


def test_witness_lower_bound_behavior():
    assert rg_witness_lower_thermal(ChainSpec(4, 1.0, beta=0.0, periodic=True)) == 0.0
    v = rg_witness_lower_thermal(ChainSpec(4, 1.0, beta=20.0, periodic=True))
    assert v > 0.1
    # ferromagnetic ground state is a product state
    assert rg_witness_lower_thermal(ChainSpec(4, -1.0, beta=50.0)) == 0.0
    # bounded by R_G of the singlet at N=2
    assert rg_witness_lower_thermal(ChainSpec(2, 1.0, beta=100.0)) <= 1.0


def test_witness_bound_monotone_in_temperature():
    vals = [
        rg_witness_lower_thermal(ChainSpec(4, 1.0, beta=b, periodic=True))
        for b in np.linspace(0.1, 8.0, 12)
    ]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(vals, vals[1:]))


def test_thermo_estimate_identity_at_zero_field():
    for n in (2, 3, 4, 6):
        for beta in (0.3, 1.0, 5.0):
            spec = ChainSpec(n, 1.0, beta=beta, periodic=(n > 2))
            est, u, m = thermo_estimate(spec)
            w = toth_witness(n, spec.periodic)
            rho = thermal(xxx_hamiltonian(spec), beta)
            assert est == pytest.approx(-evaluate(w, rho), abs=1e-12)
            assert m == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        thermo_estimate(ChainSpec(2, 0.0, beta=1.0))


def test_thermo_estimate_limits():
    est, u, m = thermo_estimate(ChainSpec(4, 1.0, beta=0.0, periodic=True))
    assert est == pytest.approx(-0.5, abs=1e-12)
    assert u == pytest.approx(0.0, abs=1e-10)
    spec = ChainSpec(4, 1.0, field=0.01, beta=30.0, periodic=True)
    est, _, _ = thermo_estimate(spec)
    rho = thermal(xxx_hamiltonian(spec), spec.beta)
    wv = -evaluate(toth_witness(4, True), rho)
    assert abs(est - wv) <= 0.02


def test_susceptibility_limits():
    chi, _ = susceptibility(ChainSpec(4, 1.0, beta=1e-4, periodic=True))
    assert chi == pytest.approx(4 * 1e-4, rel=1e-2)
    chi, chi_w = susceptibility(ChainSpec(2, 1.0, beta=60.0))
    assert chi == pytest.approx(0.0, abs=1e-8)
    # antiferromagnetic correlators pull the witness form below Curie
    assert chi_w < 2 * 60.0
    with pytest.raises(ValueError):
        susceptibility(ChainSpec(4, 1.0, field=0.1, beta=1.0))
    with pytest.raises(ValueError):
        susceptibility(ChainSpec(4, 1.0, beta=0.0))


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _kron_at(op, i, n):
    return np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (n - i - 1)))


def _kron_bond(i, j, n):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for s in _PAULIS:
        out += _kron_at(s, i, n) @ _kron_at(s, j, n)
    return out


def _kron_mz(n):
    return sum(_kron_at(_PAULIS[2], i, n) for i in range(n))


def _kron_pt(mat, n, site):
    t = np.swapaxes(mat.reshape((2,) * (2 * n)), site, site + n)
    return t.reshape(mat.shape)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_sector_spectrum_matches_dense_hamiltonian():
    for n in range(2, 9):
        for periodic in (False, True):
            c, m = chain_spectrum(n, periodic)
            values, counts = np.unique(m, return_counts=True)
            downs = (n - values[::-1]) / 2
            assert list(downs) == list(range(n + 1))
            assert list(counts[::-1]) == [math.comb(n, k) for k in range(n + 1)]
            dense = np.linalg.eigvalsh(xxx_hamiltonian(ChainSpec(n, 1.0, periodic=periodic)).mat)
            assert np.abs(np.sort(c) - dense).max() <= 1e-12


def test_thermal_table_matches_dense_path():
    for n, periodic in itertools.product((3, 4, 6, 8), (False, True)):
        c, m = chain_spectrum(n, periodic)
        w = toth_witness(n, periodic)
        mz = _kron_mz(n)
        for coupling in (1.0, -1.0):
            for field in (0.0, 0.3):
                betas = [0.0, 0.5, 5.0, 20.0]
                table = thermal_table(c, m, coupling, field, betas)
                for k, beta in enumerate(betas):
                    spec = ChainSpec(n, coupling, field, beta, periodic)
                    h = xxx_hamiltonian(spec)
                    state = thermal(h, beta)
                    rho = state.mat
                    u = np.trace(h.mat @ rho).real
                    m1 = np.trace(mz @ rho).real
                    m2 = np.trace(mz @ mz @ rho).real
                    wv = -evaluate(w, state)
                    bond_sum = -2 * n * wv - n
                    want = {
                        "energy": u,
                        "magnetization": m1,
                        "witness_value": wv,
                        "estimate": wv,
                        "chi_exact": beta * (m2 - m1 * m1),
                        "chi_witness_form": beta * (n + bond_sum / 3.0),
                    }
                    for name, value in want.items():
                        got = getattr(table, name)[k]
                        assert abs(got - value) <= 1e-10, (n, coupling, field, beta, name)


def test_dense_builders_bit_identical_to_kronecker():
    for n in (2, 3, 5, 8):
        for periodic in (False, True):
            spec = ChainSpec(n, 0.7, -0.3, periodic=periodic)
            h = np.zeros((2**n, 2**n), dtype=complex)
            for i, j in bonds(n, periodic):
                h += spec.coupling * _kron_bond(i, j, n)
            h += spec.field * _kron_mz(n)
            ref = HermitianMatrix(h, SystemShape([2] * n))
            assert _same_bits(xxx_hamiltonian(spec).mat, ref.mat)

            w = toth_witness(n, periodic)
            bond_list = bonds(n, periodic)
            op = n * np.eye(2**n, dtype=complex)
            for i, j in bond_list:
                op += _kron_bond(i, j, n)
            op /= 2 * n
            assert _same_bits(w.op.mat, HermitianMatrix(op).mat)
            p = np.eye(2**n) * (n - len(bond_list)) / (2 * n)
            assert _same_bits(w.parts["P"].mat, HermitianMatrix(p).mat)
            assert len(w.parts["Q"]) == len(bond_list)
            for q, (i, j) in zip(w.parts["Q"], bond_list):
                swap = (_kron_bond(i, j, n) + np.eye(2**n)) / 2
                assert _same_bits(q.mat, HermitianMatrix(_kron_pt(swap, n, i) / n).mat)


def test_spectrum_and_table_reject_bad_input():
    c, m = chain_spectrum(4, True)
    with pytest.raises(ValueError):
        thermal_table(c, m, 1.0, 0.0, [0.0, -0.5])
    for coupling, field, beta in ((1.0, 0.0, np.inf), (1.0, 0.0, np.nan), (np.nan, 0.0, 1.0),
                                  (1.0, np.nan, 1.0), (np.inf, 0.0, 1.0), (1.0, -np.inf, 1.0)):
        with pytest.raises(ValueError):
            thermal_table(c, m, coupling, field, [0.0, beta])
    with pytest.raises(ValueError):
        thermal_table(c, m, 0.0, 0.0, [1.0]).estimate
    with pytest.raises(ValueError):
        chain_spectrum(9, False)
