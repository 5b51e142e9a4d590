import dataclasses

import numpy as np
import pytest

from entwit import sdp
from entwit.linalg import Cut, SystemShape, _pt_array
from entwit.measures import (
    _fit_witness,
    e_nm_ppt,
    rains_fidelity,
    rg_dps2,
    rr_ppt,
    ssr_nonlocality,
)
from entwit.sdp import (
    HermitianSdp,
    SdpProblem,
    SdpStatus,
    SolverError,
    hermitian_basis,
    solve,
)
from entwit.states import random_density


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


def built_e_nm_ppt_problem() -> SdpProblem:
    """The problem e_nm_ppt builds for n = 2, m = 1: blocks P, Q, S, T."""
    built = []
    build = HermitianSdp.build

    def spy(self):
        built.append(build(self))
        return built[-1]

    rho = random_density(6, 5, SystemShape((2, 3)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HermitianSdp, "build", spy)
        e_nm_ppt(rho, [Cut([0])], 2.0, 1.0)
    return built[0]


def test_deterministic_rerun():
    nm_prob = built_e_nm_ppt_problem()
    assert nm_prob.blocks == [6, 6, 6, 6]
    for prob in (min_eig_problem(rand_sym(3, 5)), nm_prob):
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.status is SdpStatus.OPTIMAL
        for a, b in zip(s1.x_blocks + s1.z_blocks, s2.x_blocks + s2.z_blocks):
            assert np.array_equal(a, b)
        assert np.array_equal(s1.y, s2.y)
        assert s1.iterations == s2.iterations
        assert s1.history == s2.history


def rand_herm(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rand_pd(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T + 0.1 * np.eye(d)


def reference_problem(seed: int, dims=(2, 2)):
    """Dense stacks over blocks of sizes d, d, 3, 2, 1 with m = d^2 + 11 rows.

    For d = prod(dims) = 4: rows 0-15 are +PT(E_k) on block 0 and -PT(E_k)
    on block 1 (one basis coordinate each, as in e_nm_ppt); row 16 is the
    trace row on block 0; rows 17-21 put four random basis coordinates on
    block 2 (as in DPS2); rows 22-26 are dense random Hermitian on block 2
    and random on the 1 x 1 block, except row 24 there. Block 3 has only
    zero rows. A larger d shifts the later rows down.
    """
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    n2 = d * d
    sizes = [d, d, 3, 2, 1]
    m = n2 + 11
    a = [np.zeros((m, nb, nb), dtype=complex) for nb in sizes]
    for k, e in enumerate(hermitian_basis(d)):
        a[0][k] = _pt_array(e, dims, (0,))
        a[1][k] = -a[0][k]
    a[0][n2] = np.eye(d)
    basis3 = hermitian_basis(3)
    for i in range(n2 + 1, n2 + 6):
        for k in rng.choice(9, size=4, replace=False):
            a[2][i] += rng.standard_normal() * basis3[k]
    for i in range(n2 + 6, m):
        a[2][i] = rand_herm(rng, 3)
        a[4][i] = rng.standard_normal() if i != n2 + 8 else 0.0
    c = [rand_herm(rng, nb) for nb in sizes]
    return sizes, SdpProblem(sizes, c, a, rng.standard_normal(m)), a


def assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize(
    "seed, dims", [(0, (2, 2)), (1, (2, 2)), (2, (2, 2)), (3, (3, 3))],
    ids=["0", "1", "2", "3x3"],
)
def test_sparse_operators_match_dense_formulas(seed, dims):
    sizes, prob, a = reference_problem(seed, dims)
    # each PT row is one basis coordinate +-1, the trace row d
    d = sizes[0]
    assert [np.count_nonzero(blk.vals) for blk in prob.a_rows[:2]] == [d * d + d, d * d]
    # the trace row makes block 0 d slots wide, so its row sums add slots
    assert prob.a_rows[0].vals.shape[1] == d
    # at 3x3 the Schur assembly of block 0 takes more than one slice
    assert (prob.a_rows[0].span > sdp.SCHUR_SLICE) == (dims == (3, 3))
    assert np.allclose(np.abs(prob.a_rows[1].vals), 1.0, rtol=1e-15, atol=0)
    assert not prob.a_rows[3].vals.any()
    rng = np.random.default_rng(100 + seed)
    x = [rand_pd(rng, nb) for nb in sizes]
    zi = [rand_pd(rng, nb) for nb in sizes]
    y = rng.standard_normal(prob.m)
    # A(X) on Hermitian and on general square matrices (the solver applies
    # A to products such as X R Z^-1)
    general = [xb @ zb for xb, zb in zip(x, zi)]
    for mats in (x, general):
        want = sum(np.einsum("iab,ba->i", ab, w).real for ab, w in zip(a, mats))
        assert_close(sdp._apply(prob, mats), want)
    for got, ab in zip(sdp._adjoint(prob, y), a):
        assert_close(got, np.einsum("i,iab->ab", y, ab))
    want = sum(
        np.einsum("ab,ibc,cd,jda->ij", xb, ab, zib, ab).real
        for xb, ab, zib in zip(x, a, zi)
    )
    assert_close(sdp._schur(prob, x, zi), want)


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


def test_builder_returns_only_optimal(monkeypatch):
    hs = HermitianSdp()
    hs.add_psd_var("x", 2)
    hs.add_scalar_equality({"x": np.eye(2)}, 1.0)
    hs.set_cost({"x": np.diag([1.0, 2.0])})
    # a stall that ends within a tiny gap of the optimum is still no optimum
    stalled = dataclasses.replace(hs.solve(), status=SdpStatus.ITERATION_LIMIT)
    with monkeypatch.context() as mp:
        mp.setattr(sdp, "solve", lambda prob, tol: stalled)
        with pytest.raises(SolverError):
            hs.solve()


@pytest.mark.parametrize("max_iter", [sdp.MAX_ITER, 2])
def test_solution_is_last_iterate(max_iter):
    sol = solve(min_eig_problem(rand_sym(9, 4)), max_iter=max_iter)
    last = sol.history[-1]
    assert sol.status is (SdpStatus.OPTIMAL if max_iter > 2 else SdpStatus.ITERATION_LIMIT)
    assert (sol.pobj, sol.dobj, sol.gap) == (last["pobj"], last["dobj"], last["conic"])


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


def test_builder_images_read_equalities_back():
    # x -> D x D plus a slack s pinned to R, and one scalar row tr(x) + v = 2;
    # the images give the rhs, and rhs minus the slack with the slack skipped
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = g @ g.conj().T / 10 + np.eye(3)
    dm = np.diag([1.0, 2.0, 0.5])
    hs = HermitianSdp()
    hs.add_psd_var("x", 3)
    hs.add_psd_var("s", 3)
    hs.add_scalar_var("v")
    hs.add_matrix_equality("pin", {"x": lambda e: dm @ e @ dm, "s": lambda e: e}, r)
    hs.add_scalar_equality({"x": np.eye(3), "v": 1.0}, 2.0)
    hs.set_cost({"x": -np.eye(3), "v": 1.0})
    sol = hs.solve()
    x, s, v = (hs.value(sol, name) for name in ("x", "s", "v"))
    full = hs.images(sol, [None, None])
    assert np.abs(full[0] - r).max() < 1e-6
    assert full[1] == pytest.approx(2.0, abs=1e-6)
    pin, row = hs.images(sol, ["s", "v"])
    assert np.abs(pin - (r - s)).max() < 1e-6
    assert np.abs(pin - dm @ x @ dm).max() < 1e-12
    assert row == pytest.approx(2.0 - v, abs=1e-6)
    assert row == pytest.approx(np.trace(x).real, abs=1e-12)


@pytest.mark.parametrize("rhs, slack", [
    (np.diag([1.0, 2.0]), "s"),  # not a multiple of I
    (-np.eye(2), "s"),  # not positive
    (np.eye(2), None),  # an exact row must be a lone scalar row
])
def test_fit_witness_rejects_unrepairable_equalities(rhs, slack):
    rho = random_density(2, 3)
    with pytest.raises(ValueError):
        _fit_witness(rho, {"x": 2, "s": 2}, {"x": rho.mat},
                     [({"x": lambda e: e, "s": lambda e: e}, rhs, slack)],
                     lambda blocks: blocks["x"])


def test_builder_rejects_non_hermitian_data():
    hs = HermitianSdp()
    hs.add_psd_var("x", 2)
    # pinning X to a non-Hermitian matrix has no solution; it must not be
    # replaced by its Hermitian part
    with pytest.raises(ValueError):
        hs.add_matrix_equality("pin", {"x": lambda e: e}, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        hs.add_matrix_equality("pin", {"x": lambda e: e @ np.diag([1.0, 2.0])}, np.eye(2))
    with pytest.raises(ValueError):
        hs.add_scalar_equality({"x": [[1.0, 1j], [1j, 1.0]]}, 1.0)


def test_set_cost_rejects_undeclared_variable():
    hs = HermitianSdp()
    hs.add_psd_var("x", 1)
    hs.add_scalar_equality({"x": 1.0}, 1.0)
    with pytest.raises(ValueError):
        hs.set_cost({"y": 1.0})


class _Built(Exception):
    """Stops a measure once its SDP is built."""


def _bitwise(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _r23():
    return random_density(6, 9, SystemShape((2, 3)))


def _r22():
    return random_density(4, 8, SystemShape((2, 2)))


@pytest.mark.parametrize(
    "measure",
    [
        lambda: e_nm_ppt(_r23(), [Cut([0])], 2.0, 1.0),
        lambda: rr_ppt(_r23(), Cut([1])),
        lambda: rains_fidelity(_r22(), Cut([0])),
        lambda: ssr_nonlocality(_r22()),
        lambda: rg_dps2(_r23(), Cut([1])),
    ],
    ids=["e_nm_ppt", "rr_ppt", "rains_fidelity", "ssr_nonlocality", "rg_dps2"],
)
def test_builder_rows_match_dense_adapter(monkeypatch, measure):
    # the builder maps the stack of basis matrices once per term; the same
    # maps applied one basis matrix at a time into dense constraint stacks
    # must give bit for bit the same problem through SdpProblem
    sizes, rows, built = {}, [], []
    orig = {name: getattr(HermitianSdp, name)
            for name in ("add_psd_var", "add_matrix_equality", "add_scalar_equality", "build")}

    def add_psd_var(self, name, dim):
        sizes[name] = dim
        orig["add_psd_var"](self, name, dim)

    def add_matrix_equality(self, group, terms, rhs):
        rows.extend({name: adj(e) for name, adj in terms.items()}
                    for e in hermitian_basis(rhs.shape[0]))
        orig["add_matrix_equality"](self, group, terms, rhs)

    def add_scalar_equality(self, terms, rhs):
        rows.append({name: np.atleast_2d(g) for name, g in terms.items()})
        orig["add_scalar_equality"](self, terms, rhs)

    def build(self):
        built.append(orig["build"](self))
        raise _Built

    for name, fn in (("add_psd_var", add_psd_var), ("add_matrix_equality", add_matrix_equality),
                     ("add_scalar_equality", add_scalar_equality), ("build", build)):
        monkeypatch.setattr(HermitianSdp, name, fn)
    with pytest.raises(_Built):
        measure()
    prob = built[0]
    a = []
    for name, nb in sizes.items():
        stack = np.zeros((len(rows), nb, nb), dtype=complex)
        for i, row in enumerate(rows):
            if name in row:
                stack[i] = row[name]
        a.append(stack)
    dense = SdpProblem(list(sizes.values()), prob.c_blocks, a, prob.b)
    assert prob.blocks == dense.blocks
    for got, want in zip(prob.a_rows, dense.a_rows, strict=True):
        assert (got.lo, got.span) == (want.lo, want.span)
        for field_name in ("cols", "vals", "nz_rows", "row_vals"):
            assert _bitwise(getattr(got, field_name), getattr(want, field_name)), field_name


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



def test_schur_cancels_z_inverse_off_the_constraint_support():
    # Constraints live on Sym^2(C^2), as DPS2's M1 block lives on A (x)
    # Sym^2(B); Z^-1 is 1e12 on the antisymmetric vector, which no A_i
    # reaches. Forming X (x) Z^-1 before applying A misses by 4e-5 here.
    rng = np.random.default_rng(4)
    r = 1 / np.sqrt(2)
    iso = np.array([[1, 0, 0], [0, r, 0], [0, r, 0], [0, 0, 1]])
    anti = np.array([0, r, -r, 0])
    a = np.stack([iso @ e @ iso.T for e in hermitian_basis(3)])
    prob = SdpProblem([4], [np.eye(4)], [a], np.ones(9))
    zs = rand_pd(rng, 3)
    zi = iso @ np.linalg.inv(zs) @ iso.T + 1e12 * np.outer(anti, anti)
    x = rand_pd(rng, 4)
    want = np.einsum(
        "ab,ibc,cd,jda->ij", *(t.astype(np.clongdouble) for t in (x, a, zi, a))
    ).real.astype(float)
    got = sdp._schur(prob, [x], [zi])
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
