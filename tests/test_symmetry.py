import math

import numpy as np
import pytest

from entwit.linalg import Cut, HermitianMatrix, SystemShape
from entwit.measures import e_nm_ppt, isotropic_e_n1
from entwit.states import isotropic, max_entangled, random_density, rng_stream
from entwit.symmetry import symmetric_witness_opt, twirl_uustar
from entwit.witnesses import evaluate, validate


def plus(d):
    v = max_entangled(d).vec
    return np.outer(v, v.conj())


def test_twirl_fixed_points():
    for d in (2, 3):
        p = HermitianMatrix(plus(d), SystemShape((d, d)))
        assert np.abs(twirl_uustar(p, d).mat - p.mat).max() <= 1e-12
        eye = HermitianMatrix(np.eye(d * d), SystemShape((d, d)))
        assert np.abs(twirl_uustar(eye, d).mat - eye.mat).max() <= 1e-12


def test_twirl_idempotent_and_trace_preserving():
    rng = rng_stream(11)
    for d in (2, 3):
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        h = HermitianMatrix((g + g.conj().T) / 2)
        t1 = twirl_uustar(h, d)
        t2 = twirl_uustar(t1, d)
        assert np.abs(t1.mat - t2.mat).max() <= 1e-12
        assert np.trace(t1.mat).real == pytest.approx(
            np.trace(h.mat).real, abs=1e-12
        )


def test_twirl_product_state_gives_isotropic():
    for d, seed in ((2, 1), (3, 2)):
        ra = random_density(d, seed).mat
        rb = random_density(d, seed + 10).mat
        prod = HermitianMatrix(np.kron(ra, rb), SystemShape((d, d)))
        f = float(np.real(np.trace(plus(d) @ prod.mat)))
        p = (f * d * d - 1.0) / (d * d - 1.0)
        got = twirl_uustar(prod, d)
        assert np.abs(got.mat - isotropic(d, p).mat).max() <= 1e-12


def test_twirl_dimension_check():
    with pytest.raises(ValueError):
        twirl_uustar(HermitianMatrix(np.eye(6)), 2)


def test_lp_matches_closed_form():
    for d in (2, 3, 4):
        for n in (0.5, 1.0, d - 1.0, float(d), 2.0 * d):
            for p in np.linspace(0.0, 1.0, 20):
                got = symmetric_witness_opt(d, float(p), n, 1.0).value
                assert got == pytest.approx(
                    isotropic_e_n1(d, float(p), n), abs=1e-10
                )


def test_lp_matches_sdp():
    for d, p, n, m in (
        (2, 0.8, 1.0, 1.0),
        (2, 0.6, 0.5, 2.0),
        (3, 0.5, 1.0, 1.0),
        (3, 0.9, math.inf, 1.0),
        (3, 0.7, 2.0, math.inf),
    ):
        rho = isotropic(d, p)
        want = e_nm_ppt(rho, [Cut([0])], n, m).value
        got = symmetric_witness_opt(d, p, n, m).value
        assert got == pytest.approx(want, abs=1e-5)


def test_lp_zero_cases():
    # nonnegative witnesses detect nothing; separable region gives zero
    assert symmetric_witness_opt(3, 0.9, 0.0, 1.0).value == 0.0
    for p in (0.0, 0.1, 1.0 / (3 + 1)):
        assert symmetric_witness_opt(3, p, 1.0, 1.0).value <= 1e-12


def test_lp_witness_is_consistent():
    for d, p, n, m in ((2, 0.9, 1.0, 1.0), (3, 0.8, math.inf, 1.0)):
        res = symmetric_witness_opt(d, p, n, m)
        rep = validate(res.witness)
        assert rep.ok, rep.violations
        assert evaluate(res.witness, isotropic(d, p)) == pytest.approx(
            -res.value, abs=1e-12
        )


def test_lp_input_validation():
    with pytest.raises(ValueError):
        symmetric_witness_opt(1, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        symmetric_witness_opt(3, 1.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        symmetric_witness_opt(3, 0.5, math.inf, math.inf)
    with pytest.raises(ValueError):
        symmetric_witness_opt(3, 0.5, -1.0, 1.0)
    for n, m in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            symmetric_witness_opt(3, 0.5, n, m)
