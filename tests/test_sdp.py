import numpy as np
import pytest

from entwit.sdp import (
    HermitianSdp,
    SdpProblem,
    SdpStatus,
    hermitian_basis,
    solve,
)


def min_eig_problem(h: np.ndarray) -> SdpProblem:
    d = h.shape[0]
    return SdpProblem([d], [h], [np.eye(d)[None, :, :]], [1.0])


def rand_sym(seed: int, d: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((d, d))
    return (g + g.T) / 2


def test_trace_min_analytic():
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    sol = solve(SdpProblem([2], [np.eye(2)], [a], [1.0]))
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.pobj == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(sol.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)


def test_min_eigenvalue_form():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = solve(min_eig_problem(c))
    assert sol.pobj == pytest.approx(-1.0, abs=1e-6)
    # sigma_y: purely imaginary off-diagonal, same spectrum
    sol = solve(SdpProblem([2], [[[0, -1j], [1j, 0]]], [np.eye(2)[None]], [1.0]))
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.pobj == pytest.approx(-1.0, abs=1e-6)


def test_min_eig_suite_and_invariants():
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(2000 + s)
        d = int(rng.integers(2, 8))
        g = rng.standard_normal((d, d))
        if s % 2:
            g = g + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        sol = solve(min_eig_problem(h))
        assert sol.status is SdpStatus.OPTIMAL
        lam = np.linalg.eigvalsh(h)[0]
        worst = max(worst, abs(sol.pobj - lam))
        # solution invariants
        assert np.linalg.eigvalsh(sol.x_blocks[0])[0] >= -1e-8
        assert np.linalg.eigvalsh(sol.z_blocks[0])[0] >= -1e-8
        assert abs(sol.pobj - sol.dobj) <= 1e-6 * (1 + abs(sol.dobj))
        resid = abs(np.trace(sol.x_blocks[0]) - 1.0)
        assert resid <= 2e-7
        # complementarity at the optimum
        xz = sol.x_blocks[0] @ sol.z_blocks[0]
        assert np.linalg.norm(xz) <= 1e-6 * max(1.0, abs(sol.pobj))
        # conic weak duality along the whole run
        assert all(rec["conic"] > 0 for rec in sol.history)
    assert worst <= 1e-6


def test_deterministic_rerun():
    h = rand_sym(3, 5)
    s1 = solve(min_eig_problem(h))
    s2 = solve(min_eig_problem(h))
    assert np.array_equal(s1.x_blocks[0], s2.x_blocks[0])
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.z_blocks[0], s2.z_blocks[0])
    assert s1.iterations == s2.iterations


def test_multi_block_lp():
    # min x0 + 2 x1 s.t. x0 + x1 = 1 as two 1x1 blocks
    a0 = np.ones((1, 1, 1))
    a1 = np.ones((1, 1, 1))
    prob = SdpProblem(
        [1, 1], [np.array([[1.0]]), np.array([[2.0]])], [a0, a1], [1.0]
    )
    sol = solve(prob)
    assert sol.pobj == pytest.approx(1.0, abs=1e-6)
    assert sol.x_blocks[0][0, 0] == pytest.approx(1.0, abs=1e-5)


def test_gram_rejection_and_shape_checks():
    a = np.stack([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        SdpProblem([2], [np.eye(2)], [a], [1.0, 1.0])
    with pytest.raises(ValueError):
        SdpProblem([2], [np.array([[0.0, 1.0], [0.0, 0.0]])],
                   [np.eye(2)[None, :, :]], [1.0])
    # symmetric but not Hermitian
    with pytest.raises(ValueError):
        SdpProblem([2], [np.array([[0.0, 1j], [1j, 0.0]])],
                   [np.eye(2)[None, :, :]], [1.0])


def test_statuses():
    # x >= 0 with x = -1 has no primal point
    prob = SdpProblem([1], [np.zeros((1, 1))], [np.ones((1, 1, 1))], [-1.0])
    assert solve(prob).status is SdpStatus.PRIMAL_INFEASIBLE
    # unbounded below: free trace direction
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    prob = SdpProblem([2], [-np.eye(2)], [a], [1.0])
    assert solve(prob).status is SdpStatus.DUAL_INFEASIBLE
    # starved iteration budget
    sol = solve(min_eig_problem(rand_sym(1, 6)), max_iter=2)
    assert sol.status is SdpStatus.ITERATION_LIMIT


def test_history_records():
    sol = solve(min_eig_problem(rand_sym(9, 4)))
    assert sol.history[0]["iter"] == 0
    assert len(sol.history) == sol.iterations + 1
    keys = {"iter", "mu", "pobj", "dobj", "rp", "rd", "conic"}
    assert keys <= set(sol.history[0])
    # residuals decrease substantially over the run
    assert sol.history[-1]["rp"] < 1e-6
    assert sol.history[-1]["mu"] < sol.history[0]["mu"]


def test_hermitian_basis_orthonormal():
    for d in (2, 3, 4):
        basis = hermitian_basis(d)
        assert len(basis) == d * d
        for i, a in enumerate(basis):
            assert np.abs(a - a.conj().T).max() < 1e-14
            for j, bb in enumerate(basis):
                ip = np.real(np.trace(a @ bb))
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-14)


def test_builder_hermitian_min_eig():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        hs = HermitianSdp()
        hs.add_psd_var("x", d)
        hs.add_scalar_equality({"x": np.eye(d)}, 1.0)
        hs.set_cost({"x": h})
        sol = hs.solve()
        assert sol.pobj == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-6)
        x = hs.value(sol, "x")
        assert np.abs(x - x.conj().T).max() < 1e-12
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.eigvalsh(x)[0] >= -1e-9


def test_builder_matrix_equality_and_duals():
    # feasibility problem: X psd with X = R for a fixed psd R
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = g @ g.conj().T / 10
    hs = HermitianSdp()
    hs.add_psd_var("x", 3)
    hs.add_matrix_equality("pin", {"x": lambda e: e}, r)
    hs.set_cost({"x": np.eye(3)})
    sol = hs.solve()
    assert np.abs(hs.value(sol, "x") - r).max() < 1e-6
    assert sol.pobj == pytest.approx(np.trace(r).real, abs=1e-6)
    # dual of the pin group satisfies the dual equality C - A*(y) = Z
    y_mat = hs.dual_matrix(sol, "pin")
    slack = hs.dual_slack(sol, "x")
    assert np.abs((np.eye(3) - y_mat) - slack).max() < 1e-6


def test_builder_scalar_vars():
    # min 3 u + v s.t. u + v = 2, u, v >= 0
    hs = HermitianSdp()
    hs.add_scalar_var("u")
    hs.add_scalar_var("v")
    hs.add_scalar_equality({"u": 1.0, "v": 1.0}, 2.0)
    hs.set_cost({"u": 3.0, "v": 1.0})
    sol = hs.solve()
    assert sol.pobj == pytest.approx(2.0, abs=1e-6)
    assert hs.value(sol, "u") == pytest.approx(0.0, abs=1e-6)
    assert hs.value(sol, "v") == pytest.approx(2.0, abs=1e-6)
    with pytest.raises(ValueError):
        hs.add_scalar_var("u")

