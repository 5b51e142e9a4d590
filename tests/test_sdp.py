import ctypes
import dataclasses
import sys
import threading
import types

import numpy as np
import pytest

from entwit import sdp
from entwit.cli import main
from entwit.linalg import Cut, SystemShape, _pt_array
from entwit.measures import (
    _fit_witness,
    e_nm_ppt,
    e_nm_ppt_stack,
    negativity_stack,
    rains_fidelity,
    rg_dps2,
    rg_ppt_closed,
    rr_ppt,
    ssr_nonlocality,
)
from entwit.sdp import (
    HermitianSdp,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverError,
    hermitian_basis,
    solve,
)
from entwit.states import (
    DensityMatrix,
    horodecki_3x3,
    isotropic,
    random_density,
    stream_densities,
    stream_seeds,
    w_ghz_mix,
)


def solve_one(built: tuple, cost_blocks) -> SdpSolution:
    """solve on the stack of one problem, built as (rows, b), with these per-block costs."""
    prob, b = built
    return solve(prob, [np.asarray(c)[None] for c in cost_blocks], b)[0]


def scalar_rows(sizes, a, b) -> tuple:
    """The (problem, b) of sum_j <a[j][i], X_j> = b[i] over blocks of these sizes.

    Each row is a 1 x 1 builder equality with the adjoint maps e -> e *
    a[j][i], so its coordinates are those of the matrices themselves.
    """
    hs = HermitianSdp({f"x{j}": nb for j, nb in enumerate(sizes)})
    for i, bi in enumerate(b):
        hs.add_matrix_equality({f"x{j}": lambda e, g=aj[i]: e * g for j, aj in enumerate(a)},
                               [[bi]])
    return hs.build()


def trace_one(d: int) -> HermitianSdp:
    """The builder of one d x d variable x with the 1 x 1 row tr(x) = 1."""
    hs = HermitianSdp({"x": d})
    hs.add_matrix_equality({"x": lambda e: e * np.eye(d)}, [[1.0]])
    return hs


def trace_one_problem(d: int) -> tuple:
    """The constraint tr X = 1 on one d x d block, as (problem, b)."""
    return trace_one(d).build()


def min_eig(h: np.ndarray) -> SdpSolution:
    """min <H, X> over tr X = 1, X psd: lambda_min(H)."""
    return solve_one(trace_one_problem(h.shape[0]), [h])


def rand_sym(seed: int, d: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((d, d))
    return (g + g.T) / 2


def test_trace_min_analytic():
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    sol = solve_one(scalar_rows([2], [a], [1.0]), [np.eye(2)])
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.pobj == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(sol.x_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)


def test_min_eigenvalue_form():
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = min_eig(c)
    assert sol.pobj == pytest.approx(-1.0, abs=1e-6)
    # sigma_y: purely imaginary off-diagonal, same spectrum
    sol = solve_one(trace_one_problem(2), [[[0, -1j], [1j, 0]]])
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
        sol = min_eig(h)
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


def captured_solve(measure) -> tuple:
    """The (problem, cost stacks, b) of the one sdp.solve call that measure() makes."""
    calls = []
    real = sdp.solve

    def spy(prob, costs, b):
        calls.append((prob, costs, b))
        return real(prob, costs, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve", spy)
        measure()
    assert len(calls) == 1
    return calls[0]


def built_e_nm_ppt_problem() -> tuple:
    """The problem, cost stack and b e_nm_ppt builds for n = 2, m = 1: blocks P, Q, S, T."""
    rho = random_density(6, 5, SystemShape((2, 3)))
    return captured_solve(lambda: e_nm_ppt(rho, [Cut([0])], 2.0, 1.0))


def test_deterministic_rerun():
    nm_prob, nm_costs, nm_b = built_e_nm_ppt_problem()
    assert nm_prob.blocks == [6, 6, 6, 6]
    prob5, b5 = trace_one_problem(5)
    for prob, costs, b in ((prob5, [rand_sym(3, 5)[None]], b5), (nm_prob, nm_costs, nm_b)):
        s1, = solve(prob, costs, b)
        s2, = solve(prob, costs, b)
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
    """Constraint matrices over blocks of sizes d, d, 3, 2, 1 with m = d^2 + 11 rows.

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
    return sizes, scalar_rows(sizes, a, rng.standard_normal(m))[0], a


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
    assert prob.a_rows[0].vals.shape[0] == d
    # the operators act on a stack of problems; at 3x3 the Schur assembly of
    # block 0 for a stack of three takes more than one slice of columns
    count = 3
    step = sdp.SCHUR_SLICE // (count * d * d)
    assert (prob.a_rows[0].span > step) == (dims == (3, 3))
    assert np.allclose(np.abs(prob.a_rows[1].vals), 1.0, rtol=1e-15, atol=0)
    assert not prob.a_rows[3].vals.any()
    rng = np.random.default_rng(100 + seed)
    x = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in sizes]
    zi = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in sizes]
    y = rng.standard_normal((count, prob.m))
    # A(X) on Hermitian and on general square matrices (the solver applies
    # A to products such as X R Z^-1)
    general = [xb @ zb for xb, zb in zip(x, zi)]
    schur = sdp._schur(prob, x, zi)
    for k in range(count):
        for mats in (x, general):
            want = sum(np.einsum("iab,ba->i", ab, w[k]).real for ab, w in zip(a, mats))
            assert_close(sdp._apply(prob, mats)[k], want)
        for got, ab in zip(sdp._adjoint(prob, y), a):
            assert_close(got[k], np.einsum("i,iab->ab", y[k], ab))
        want = sum(
            np.einsum("ab,ibc,cd,jda->ij", xb[k], ab, zib[k], ab).real
            for xb, ab, zib in zip(x, a, zi)
        )
        assert_close(schur[k], want)


def dense_rows(blk) -> np.ndarray:
    """The block's constraint matrices A_i, for i in lo .. lo + span - 1, from cols and vals."""
    mats = sdp._basis(blk.basis.nb).mats
    return np.einsum("si,siab->iab", blk.vals, mats[blk.cols])


@pytest.mark.parametrize(
    "measure, runs, distinct, width",
    [
        # S + P + Q^Gamma = I and T - P - Q^Gamma = 2 I: blocks P and Q repeat
        # their rows negated, as one contiguous run
        (lambda: e_nm_ppt(_r23(), [Cut([0])], 2.0, 1.0), [2, 2, 1, 1], [36] * 4, 1),
        # F, F^Gamma and -F^Gamma: F's rows repeat permuted, in short runs
        (lambda: rains_fidelity(_r22(), Cut([0])), [19, 1, 1, 1], [16] * 4, 1),
        # one trace row over P and Q, six slots wide, and no repeats
        (lambda: rr_ppt(_r23(), Cut([1])), [1, 1], [1, 1], 6),
        # mixed block sizes; the partial trace repeats rows of Sw, and zeroes
        # 8 of its 36, which get no column
        (lambda: rg_dps2(_r22(), Cut([0])), [8, 1, 1, 1], [20, 36, 36, 36], 4),
    ],
    ids=["e_nm_ppt", "rains_fidelity", "rr_ppt", "rg_dps2"],
)
def test_schur_over_distinct_rows(monkeypatch, measure, runs, distinct, width):
    prob, _, _ = captured_solve(measure)
    assert [len(blk.runs) for blk in prob.a_rows] == runs
    assert [len(blk.nz_rows) for blk in prob.a_rows] == distinct
    assert max(blk.vals.shape[0] for blk in prob.a_rows) == width
    count = 3
    rng = np.random.default_rng(7)
    x = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    zi = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    schur = sdp._schur(prob, x, zi)
    want = np.zeros((count, prob.m, prob.m))
    for blk, xb, zib in zip(prob.a_rows, x, zi):
        a = dense_rows(blk)
        rows = slice(blk.lo, blk.lo + blk.span)
        want[:, rows, rows] += np.einsum("kab,ibc,kcd,jda->kij", xb, a, zib, a).real
        # a repeated row's column is an exact copy, up to sign, of its first
        # occurrence's column
        part = np.zeros((count, prob.m, prob.m))
        blk.add_schur(xb, zib, part)
        assert np.array_equal(blk.sign[:, None, None] * a[blk.first], a)
        assert np.array_equal(part[:, blk.lo + np.arange(blk.span)],
                              blk.sign[:, None] * part[:, blk.lo + blk.first])
    for k in range(count):
        assert_close(schur[k], want[k])
    # slices of one or seven columns cut the runs; the entries stay the same
    for cols in (1, 7):
        monkeypatch.setattr(sdp, "SCHUR_SLICE", cols * count * max(prob.blocks) ** 2)
        assert np.array_equal(sdp._schur(prob, x, zi), schur)


# The solver gathers basis coordinates with np.take; these references gather
# them with advanced indexing, in the same arithmetic.


def _svec_indexed(tab, mats: np.ndarray) -> np.ndarray:
    shape = np.shape(mats)[:-2] + (tab.width,)
    re = np.ascontiguousarray(mats, dtype=tab.dtype).view(float).reshape(shape)
    return re[..., tab.at[0]] * tab.w[0] + re[..., tab.at[1]] * tab.w[1]


def _smat_indexed(tab, u: np.ndarray) -> np.ndarray:
    parts = u[..., tab.k_of] * tab.coef
    mat = parts if tab.real else parts[..., : tab.n2] + 1j * parts[..., tab.n2 :]
    return mat.reshape(np.shape(u)[:-1] + (tab.nb, tab.nb))


def _slots_summed(t: np.ndarray) -> np.ndarray:
    for s in range(1, t.shape[2]):
        t[:, :, 0] += t[:, :, s]
    return t[:, :, 0]


def _apply_indexed(prob, mats) -> np.ndarray:
    out = np.zeros((len(mats[0]), prob.m))
    for blk, w in zip(prob.a_rows, mats):
        t = blk.vals.T * _svec_indexed(blk.basis, w)[:, blk.cols.T]
        out[:, blk.lo : blk.lo + blk.span] += _slots_summed(t)
    return out


def _schur_indexed(prob, x, zi) -> np.ndarray:
    """_schur with every distinct row's column formed at once, then added or
    subtracted, by its sign, into the row of each of its occurrences."""
    out_t = np.zeros((len(x[0]), prob.m, prob.m))
    for blk, xb, zib in zip(prob.a_rows, x, zi):
        nb = blk.basis.nb
        v = (blk.row_vals.reshape(-1, nb) @ zib).reshape(zib.shape[:1] + blk.row_vals.shape)
        f = np.matmul(xb[:, :, blk.nz_rows].transpose(0, 2, 1, 3), v)
        col = _slots_summed(_svec_indexed(blk.basis, f)[:, :, blk.cols] * blk.vals)
        filled = blk.vals[0] != 0
        distinct = np.flatnonzero((blk.first == np.arange(blk.span)) & filled)
        for r in np.flatnonzero(filled):
            dst = out_t[:, blk.lo + r, blk.lo : blk.lo + blk.span]
            src = col[:, np.searchsorted(distinct, blk.first[r])]
            if blk.sign[r] < 0:
                dst -= src
            else:
                dst += src
    return out_t.transpose(0, 2, 1)


# One problem of each kind the measures ship, by its test id.
SHIPPED_PROBLEMS = {
    "e_nm_ppt-2x2": lambda: e_nm_ppt(_r22(), [Cut([0])], 2.0, 1.0),
    "e_nm_ppt-2x3": lambda: e_nm_ppt(_r23(), [Cut([0])], 2.0, 1.0),
    "e_nm_ppt-inf-2x2": lambda: e_nm_ppt(_r22(), [Cut([0])], np.inf, 1.0),
    "e_nm_ppt-inf-2x3": lambda: e_nm_ppt(_r23(), [Cut([0])], np.inf, 1.0),
    # the trace row, six slots wide
    "rr_ppt": lambda: rr_ppt(_r23(), Cut([1])),
    # F's rows repeat permuted, in many short runs
    "rains_fidelity-3x3": lambda: rains_fidelity(random_density(9, 3, SystemShape((3, 3))), Cut([0])),
    # 1 x 1 blocks
    "ssr_nonlocality": lambda: ssr_nonlocality(_r22()),
    # mixed block sizes and multi-slot rows
    "rg_dps2": lambda: rg_dps2(_r22(), Cut([0])),
}


@pytest.mark.parametrize("measure", SHIPPED_PROBLEMS.values(), ids=SHIPPED_PROBLEMS.keys())
def test_take_kernels_match_advanced_indexing(measure):
    # entry for entry, signed zeros included, on the problems the measures build
    prob, _, _ = captured_solve(measure)
    count = 3
    rng = np.random.default_rng(11)
    x = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    zi = [np.stack([rand_pd(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    # problem 0 is real, so its antisymmetric coordinates are zeros
    for xb, zib in zip(x, zi):
        xb[0], zib[0] = xb[0].real, zib[0].real
    for nb, xb in zip(prob.blocks, x):
        tab = sdp._basis(nb)
        u = _svec_indexed(tab, xb)
        assert _bitwise(sdp._svec(tab, xb), u)
        # and coordinates, then entries, that are zeros of either sign
        zeros = np.where(rng.random(u.shape) < 0.3, np.copysign(0.0, rng.standard_normal(u.shape)), u)
        for w in (u, zeros):
            assert _bitwise(sdp._smat(tab, w), _smat_indexed(tab, w))
        mats = _smat_indexed(tab, zeros)
        assert _bitwise(sdp._svec(tab, mats), _svec_indexed(tab, mats))
    # A(X) also on the general products X R Z^-1 the solver applies it to
    for mats in (x, [xb @ zib for xb, zib in zip(x, zi)]):
        assert _bitwise(sdp._apply(prob, mats), _apply_indexed(prob, mats))
    assert _bitwise(sdp._schur(prob, x, zi), _schur_indexed(prob, x, zi))


def captured_images(measure) -> tuple:
    """The builder, solutions, skip list and images of the one images call measure() makes."""
    calls = []
    real = HermitianSdp.images

    def spy(self, sols, skip):
        out = real(self, sols, skip)
        calls.append((self, sols, skip, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HermitianSdp, "images", spy)
        measure()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("measure", SHIPPED_PROBLEMS.values(), ids=SHIPPED_PROBLEMS.keys())
def test_images_match_dense_rows(measure):
    # each equality's image, from the solver's sparse rows, against the dense
    # constraint matrices applied to each solution's blocks
    hs, sols, skip, got = captured_images(measure)
    prob, _ = hs.build()
    names = list(hs._blocks)
    for (_, size, start), drop, img in zip(hs._rows, skip, got, strict=True):
        u = np.zeros((len(sols), size * size))
        for j, (name, nb, blk) in enumerate(zip(names, prob.blocks, prob.a_rows)):
            if name == drop:
                continue
            a = np.zeros((prob.m, nb, nb), dtype=complex)
            a[blk.lo : blk.lo + blk.span] = dense_rows(blk)
            x = np.stack([sol.x_blocks[j] for sol in sols])
            u += np.einsum("iab,kba->ki", a[start : start + size * size], x).real
        want = np.einsum("ki,iab->kab", u, np.array(hermitian_basis(size)))
        assert img.shape == want.shape
        assert (np.abs(img - want) <= 1e-14 * (1.0 + np.abs(want))).all()
    # an empty stack has empty images
    assert [img.shape for img in hs.images([], skip)] == [(0, size, size)
                                                          for _, size, _ in hs._rows]


def test_singular_schur_stack_raises():
    # one singular matrix fails the whole stack, as does a non-finite
    # solution, through numpy's Cholesky routines and through the fallback
    for chol in (sdp._lapack(), None):
        ms = np.stack([np.eye(3), np.diag([1.0, 1.0, 0.0])])
        with pytest.raises(SolverError, match="numerically singular"):
            sdp._schur_solver(ms, chol)(np.ones((2, 3)))
        with pytest.raises(SolverError, match="numerically singular"):
            sdp._schur_solver(np.stack([np.eye(3)] * 2), chol)(
                np.array([[1.0, 2.0, 3.0], [np.inf, 0, 0]]))


def test_indefinite_schur_stack_raises():
    # nonsingular but not positive definite: no Cholesky factor on either
    # path, and no second factorization to fall back on
    for chol in (sdp._lapack(), None):
        ms = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(SolverError, match="numerically singular"):
            sdp._schur_solver(ms, chol)(np.ones((2, 3)))


def test_lapack_rejects_a_wrong_factor_routine(monkeypatch):
    # dpotrf called on the upper triangle leaves the lower one unfactored, so
    # the self-check must drop the routines; the real ones pass it
    if sdp._lapack.__wrapped__() is None:
        pytest.skip("numpy's Cholesky routines do not resolve here")
    from numpy.linalg import _umath_linalg as ext
    lib = ctypes.CDLL(ext.__file__)
    name = next(f"{prefix}dpotrf{suffix}" for prefix in ("scipy_", "") for suffix in ("_64_", "_")
                if hasattr(lib, f"{prefix}dpotrf{suffix}"))
    potrf = getattr(lib, name)
    potrf.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 4 + [ctypes.c_size_t]

    def upper(uplo, *args):
        return potrf(b"U", *args)

    routines = {name: upper, name.replace("potrf", "potrs"): getattr(lib, name.replace("potrf", "potrs"))}
    monkeypatch.setattr(sdp.ctypes, "CDLL", lambda path: types.SimpleNamespace(**routines))
    assert sdp._lapack.__wrapped__() is None


def test_lapack_self_check_with_the_triangular_solve(monkeypatch):
    # with dtrsv resolved beside it, a dpotrf on the upper triangle still
    # fails the self-check, and the real pair passes it
    if sdp._lapack.__wrapped__() is None:
        pytest.skip("numpy's Cholesky routines do not resolve here")
    from numpy.linalg import _umath_linalg as ext
    lib = ctypes.CDLL(ext.__file__)
    name = next(f"{prefix}dpotrf{suffix}" for prefix in ("scipy_", "") for suffix in ("_64_", "_")
                if hasattr(lib, f"{prefix}dpotrf{suffix}"))
    potrf, trsv = getattr(lib, name), getattr(lib, name.replace("dpotrf", "dtrsv"))
    potrf.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 4 + [ctypes.c_size_t]

    def upper(uplo, *args):
        return potrf(b"U", *args)

    for factor, ok in ((upper, False), (potrf, True)):
        routines = {name: factor, name.replace("dpotrf", "dtrsv"): trsv}
        monkeypatch.setattr(sdp.ctypes, "CDLL", lambda path: types.SimpleNamespace(**routines))
        assert (sdp._lapack.__wrapped__() is not None) is ok


def test_factor_once_checks_its_buffers():
    # LAPACK works on raw addresses, so a stack or right-hand side of
    # another layout is refused before any call
    chol = sdp._lapack()
    if chol is None:
        pytest.skip("numpy's Cholesky routines do not resolve here")
    for bad in (np.ones((2, 3, 3), dtype=np.float32), np.asfortranarray(np.ones((2, 3, 3))),
                np.ones((2, 3, 4))):
        with pytest.raises(ValueError, match="C-contiguous"):
            sdp._schur_solver(bad, chol)
    solve_each = sdp._schur_solver(np.stack([np.eye(3)] * 2), chol)
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_each(np.ones((2, 4)))
    with pytest.raises(ValueError, match="right-hand sides"):
        solve_each(np.ones((1, 3)))


def openblas_lapack() -> bool:
    """Whether numpy's build names an OpenBLAS LAPACK."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):
        return False
    return "openblas" in lapack.get("name", "").lower()


def schur_spy(monkeypatch, at: int) -> list:
    """Record the Schur stack of the at-th _schur_solver call before and after it is
    factored, with every (rhs, dy) solved from it; the list holds them as
    [stack, factored, [(rhs, dy), ...]]."""
    real = sdp._schur_solver
    seen, calls = [], []

    def spy(schur_t, chol):
        calls.append(None)
        if len(calls) != at:
            return real(schur_t, chol)
        stack = schur_t.copy()
        solve_each = real(schur_t, chol)
        seen[:] = [stack, schur_t.copy(), []]

        def logged(rhs):
            dy = solve_each(rhs)
            seen[2].append((rhs.copy(), dy))
            return dy

        return logged

    monkeypatch.setattr(sdp, "_schur_solver", spy)
    return seen


def stacked_problem() -> list:
    """e_nm_ppt at n = 2, m = 1 on a stack of three 2x3 states."""
    shape = SystemShape((2, 3))
    rhos = np.stack([random_density(6, 40 + s, shape).mat for s in range(3)])
    return e_nm_ppt_stack(rhos, shape, [Cut([0])], 2.0, 1.0)


@pytest.mark.parametrize("measure", [*SHIPPED_PROBLEMS.values(), stacked_problem],
                         ids=[*SHIPPED_PROBLEMS, "e_nm_ppt-2x3-stack-of-3"])
def test_factor_once_matches_np_linalg_cholesky(monkeypatch, measure):
    # on an iterate from the middle of the run, each buffer holds
    # np.linalg.cholesky's factor of its Schur matrix, bit for bit, and the
    # predictor's and the corrector's dy from it solve the system to rounding
    if sdp._lapack() is None:
        pytest.skip("the Schur systems are solved by np.linalg.solve here")
    seen = schur_spy(monkeypatch, 5)
    measure()
    stack, factored, solved = seen
    ms = stack.transpose(0, 2, 1)
    assert np.array_equal(np.tril(factored.transpose(0, 2, 1)), np.linalg.cholesky(ms))
    assert len(solved) == 2
    for rhs, dy in solved:
        assert dy.shape == rhs.shape == (len(stack), len(stack[0]))
        for m_k, r, d in zip(ms, rhs, dy):
            resid = np.abs(m_k @ d - r).max()
            assert resid <= 1e-12 * np.linalg.norm(m_k, np.inf) * np.abs(d).max()


def test_solve_without_lapack_matches_statuses_and_objectives(monkeypatch):
    # rg_ppt on 2x3 states, which leave the stack at different iterations;
    # the LU fallback rounds otherwise than the Cholesky factors, so only
    # statuses, iteration counts and objectives are compared (the iterates
    # differ by up to 1e-5 relative on degenerate optimal faces)
    shape = SystemShape((2, 3))
    rhos = np.stack([random_density(6, 700 + s, shape).mat for s in range(6)])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, shape, [Cut([0])], np.inf, 1.0))
    factored = solve(prob, costs, b)
    assert len({sol.iterations for sol in factored}) > 1
    monkeypatch.setattr(sdp, "_lapack", lambda: None)
    for got, want in zip(solve(prob, costs, b), factored, strict=True):
        assert got.status is want.status
        assert got.iterations == want.iterations
        for g, w in ((got.pobj, want.pobj), (got.dobj, want.dobj)):
            assert abs(g - w) <= 1e-9 * (1.0 + abs(w))


def counted_cholesky(monkeypatch) -> dict:
    """Count the solver's calls of numpy's dpotrf and dpotrs, and of np.linalg.solve."""
    calls = dict.fromkeys(("potrf", "potrs", "np.linalg.solve"), 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    chol = sdp._lapack()
    if chol is not None:
        potrf, potrs, itype = chol
        monkeypatch.setattr(sdp, "_lapack",
                            lambda: (counted("potrf", potrf), counted("potrs", potrs), itype))
    monkeypatch.setattr(np.linalg, "solve", counted("np.linalg.solve", np.linalg.solve))
    return calls


def assert_cholesky_once(monkeypatch):
    """Solve the stacked problem: each Schur matrix factored by Cholesky once per
    iteration, with two triangular solves from it, and no np.linalg.solve."""
    # the lookup and the self-check succeed, and the solver uses them
    assert sdp._lapack() is not None
    prob, costs, b = captured_solve(stacked_problem)
    calls = counted_cholesky(monkeypatch)
    sols = solve(prob, costs, b)
    iterations = sum(sol.iterations for sol in sols)
    assert iterations > len(sols)
    # one factorization per problem per iteration, and two triangular solves
    assert calls == {"potrf": iterations, "potrs": 2 * iterations, "np.linalg.solve": 0}


@pytest.mark.skipif(not openblas_lapack(), reason="numpy's LAPACK is not OpenBLAS")
def test_factor_once_runs_on_openblas(monkeypatch):
    assert_cholesky_once(monkeypatch)


@pytest.mark.skipif(not openblas_lapack(), reason="numpy's LAPACK is not OpenBLAS")
def test_two_blas_threads_factor_once_on_one_lane(monkeypatch):
    # the BLAS thread count sets the lanes only, not how the Schur systems are solved
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert not sdp._one_blas_thread()
    assert sdp._lanes() == 1
    assert_cholesky_once(monkeypatch)


def test_multi_block_lp():
    # min x0 + 2 x1 s.t. x0 + x1 = 1 as two 1x1 blocks
    a0 = np.ones((1, 1, 1))
    a1 = np.ones((1, 1, 1))
    sol = solve_one(scalar_rows([1, 1], [a0, a1], [1.0]), [[[1.0]], [[2.0]]])
    assert sol.pobj == pytest.approx(1.0, abs=1e-6)
    assert sol.x_blocks[0][0, 0] == pytest.approx(1.0, abs=1e-5)


def test_gram_rejection_and_shape_checks():
    a = np.stack([np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        scalar_rows([2], [a], [1.0, 1.0])
    # coordinates that do not match the block sizes and m
    with pytest.raises(ValueError, match="coordinates have shape"):
        SdpProblem([2], [np.zeros((1, 9))])
    with pytest.raises(ValueError):
        solve_one(trace_one_problem(2), [np.array([[0.0, 1.0], [0.0, 0.0]])])
    # symmetric but not Hermitian
    with pytest.raises(ValueError):
        solve_one(trace_one_problem(2), [np.array([[0.0, 1j], [1j, 0.0]])])


@pytest.mark.parametrize("ratio, dependent", [(0.9, True), (1.1, False)])
def test_independence_bar_on_nearly_parallel_rows(monkeypatch, ratio, dependent):
    # rows E_00 and E_00 + sqrt(s) E_11 have the Gram matrix [[1, 1], [1, 1 + s]],
    # with s set so that lambda_min is ratio times the bar 1e-10 lambda_max;
    # the eigenvalues are computed only when the Cholesky test fails
    s = 0.0
    for _ in range(5):
        top = (2.0 + s) / (1.0 + ratio * 1e-10)
        s = ratio * 1e-10 * top * top
    coords = np.zeros((2, 4))
    coords[:, 0] = 1.0
    coords[1, 1] = np.sqrt(s)
    w = np.linalg.eigvalsh(coords @ coords.T)
    assert (w[0] <= 1e-10 * max(1.0, w[-1])) == dependent
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(None) or real(a))
    if dependent:
        with pytest.raises(ValueError, match=r"linearly dependent \(gram eigenvalue 1\.8"):
            SdpProblem([2], [coords])
        assert len(calls) == 1
    else:
        SdpProblem([2], [coords])
        assert not calls


def pin_corner() -> tuple:
    """X_00 = 1 on one 2 x 2 block, as (problem, b): unbounded below for the cost -I."""
    a = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    return scalar_rows([2], [a], [1.0])


def test_statuses(monkeypatch):
    # x >= 0 with x = -1 has no primal point
    prob = scalar_rows([1], [np.ones((1, 1, 1))], [-1.0])
    assert solve_one(prob, [np.zeros((1, 1))]).status is SdpStatus.PRIMAL_INFEASIBLE
    # unbounded below: free trace direction
    assert solve_one(pin_corner(), [-np.eye(2)]).status is SdpStatus.DUAL_INFEASIBLE
    # starved iteration budget
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    sol = min_eig(rand_sym(1, 6))
    assert sol.status is SdpStatus.ITERATION_LIMIT


FAR = 2 * sdp.DIVERGE_NORM  # the largest entry of a diverged iterate
RAY = 2 * sdp.DIVERGE_OBJ  # an objective run past the ray bar, at zero data norms


@pytest.mark.parametrize("rec,norm,want", [
    # residuals and gap meet DEFAULT_TOL
    ({"rp": 0.0, "rd": 0.0, "conic": 0.0}, 1.0, SdpStatus.OPTIMAL),
    # an optimal iterate ends OPTIMAL even past DIVERGE_NORM
    ({"rp": 0.0, "rd": 0.0, "conic": 0.0}, FAR, SdpStatus.OPTIMAL),
    # primal feasible, the primal objective runs down
    ({"rp": 0.0, "rd": 1.0, "pobj": -RAY}, FAR, SdpStatus.DUAL_INFEASIBLE),
    # dual feasible, the dual objective runs up
    ({"rp": 1.0, "rd": 0.0, "dobj": RAY}, FAR, SdpStatus.PRIMAL_INFEASIBLE),
    # diverged without a ray: neither side feasible, or an objective short of the bar
    ({"rp": 1.0, "rd": 1.0, "pobj": -RAY, "dobj": RAY}, FAR, SdpStatus.ITERATION_LIMIT),
    ({"rp": 0.0, "rd": 1.0, "pobj": -RAY / 4}, FAR, SdpStatus.ITERATION_LIMIT),
    ({"rp": 1.0, "rd": 0.0, "dobj": RAY / 4}, FAR, SdpStatus.ITERATION_LIMIT),
    # the iteration budget is spent
    ({"iter": sdp.MAX_ITER}, 1.0, SdpStatus.ITERATION_LIMIT),
    # the run goes on
    ({}, 1.0, None),
    ({"rp": 1.0, "rd": 1.0, "pobj": -RAY, "dobj": RAY}, 1.0, None),
])
def test_status_rule(rec, norm, want):
    # an iterate that meets neither residual bar nor the gap bar, unless rec
    # says otherwise; b and the cost have norm zero, so each bar is DEFAULT_TOL
    base = {"iter": 5, "mu": 1.0, "pobj": 1.0, "dobj": 0.0, "rp": 1.0, "rd": 1.0, "conic": 1.0}
    assert sdp._status({**base, **rec}, norm, 0.0, 0.0) is want


def test_unbounded_costs_end_dual_infeasible():
    # min <C, X> s.t. X_00 = 1 is feasible, and unbounded below when C_11 < 0;
    # the primal residual meets tol there while the primal objective runs away
    rng = np.random.default_rng(5)
    costs = [rand_herm(rng, 2) for _ in range(6)]
    assert [c[1, 1].real < 0 for c in costs] == [False, True, True, True, True, False]
    sols = [solve_one(pin_corner(), [c]) for c in costs]
    want = [SdpStatus.OPTIMAL] + [SdpStatus.DUAL_INFEASIBLE] * 4 + [SdpStatus.OPTIMAL]
    assert [sol.status for sol in sols] == want
    for sol in sols[1:5]:
        # tol (1 + |b|) with b = [1]
        assert sol.history[-1]["rp"] <= sdp.DEFAULT_TOL * 2
        assert sol.pobj < -sdp.DIVERGE_OBJ


def test_builder_returns_only_optimal(monkeypatch):
    hs = trace_one(2)
    cost = {"x": np.diag([1.0, 2.0])}
    # a stall that ends within a tiny gap of the optimum is still no optimum
    stalled = dataclasses.replace(hs.solve(cost)[0], status=SdpStatus.ITERATION_LIMIT)
    with monkeypatch.context() as mp:
        mp.setattr(sdp, "solve", lambda prob, costs, b: [stalled])
        with pytest.raises(SolverError):
            hs.solve(cost)


@pytest.mark.parametrize("max_iter", [sdp.MAX_ITER, 2])
def test_solution_is_last_iterate(monkeypatch, max_iter):
    monkeypatch.setattr(sdp, "MAX_ITER", max_iter)
    sol = min_eig(rand_sym(9, 4))
    last = sol.history[-1]
    assert sol.status is (SdpStatus.OPTIMAL if max_iter > 2 else SdpStatus.ITERATION_LIMIT)
    assert (sol.pobj, sol.dobj, sol.gap) == (last["pobj"], last["dobj"], last["conic"])


def test_history_records():
    sol = min_eig(rand_sym(9, 4))
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
        hs = trace_one(d)
        sol, = hs.solve({"x": h})
        assert sol.pobj == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-6)
        x = hs.blocks(sol)[0]["x"]
        assert np.abs(x - x.conj().T).max() < 1e-12
        assert np.trace(x).real == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.eigvalsh(x)[0] >= -1e-9


def test_builder_matrix_equality_and_duals():
    # feasibility problem: X psd with X = R for a fixed psd R
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = g @ g.conj().T / 10
    hs = HermitianSdp({"x": 3})
    hs.add_matrix_equality({"x": lambda e: e}, r)
    sol, = hs.solve({"x": np.eye(3)})
    x, slack = (blocks["x"] for blocks in hs.blocks(sol))
    assert np.abs(x - r).max() < 1e-6
    assert sol.pobj == pytest.approx(np.trace(r).real, abs=1e-6)
    # the pin's rows are the basis coordinates, so its dual is sum_k y_k E_k,
    # and it satisfies the dual equality C - A*(y) = Z
    y_mat = sum(yk * e for yk, e in zip(sol.y, hermitian_basis(3), strict=True))
    assert np.abs((np.eye(3) - y_mat) - slack).max() < 1e-6


def test_builder_images_read_equalities_back():
    # x -> D x D plus a slack s pinned to R, and one 1 x 1 row tr(x) + v = 2;
    # the images give the rhs, and rhs minus the slack with the slack skipped
    rng = np.random.default_rng(21)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    r = g @ g.conj().T / 10 + np.eye(3)
    dm = np.diag([1.0, 2.0, 0.5])
    hs = HermitianSdp({"x": 3, "s": 3, "v": 1})
    hs.add_matrix_equality({"x": lambda e: dm @ e @ dm, "s": lambda e: e}, r)
    hs.add_matrix_equality({"x": lambda e: e * np.eye(3), "v": lambda e: e}, [[2.0]])
    sol, = hs.solve({"x": -np.eye(3), "v": 1.0})
    x, s, v = (hs.blocks(sol)[0][name] for name in ("x", "s", "v"))
    full = hs.images([sol], [None, None])
    assert [img.shape for img in full] == [(1, 3, 3), (1, 1, 1)]
    assert np.abs(full[0][0] - r).max() < 1e-6
    assert np.abs(full[1][0] - 2.0).max() < 1e-6
    (pin,), (row,) = hs.images([sol], ["s", "v"])
    assert np.abs(pin - (r - s)).max() < 1e-6
    assert np.abs(pin - dm @ x @ dm).max() < 1e-12
    assert row.shape == v.shape == (1, 1)
    assert np.abs(row - (2.0 - v)).max() < 1e-6
    assert np.abs(row - np.trace(x)).max() < 1e-12
    # a stack's images are those of each of its solutions alone, bit for bit
    sols = hs.solve({"x": np.stack([-np.eye(3), -dm]), "v": [1.0, 2.0]})
    stacked = hs.images(sols, ["s", None])
    assert [img.shape for img in stacked] == [(2, 3, 3), (2, 1, 1)]
    for k, sol_k in enumerate(sols):
        alone = hs.images([sol_k], ["s", None])
        assert all(_bitwise(a[k : k + 1], b) for a, b in zip(stacked, alone, strict=True))
    # the built rows are the only copy of the terms: a second build returns
    # them, and an equality added after the build would not be among them
    prob, _ = hs.build()
    assert hs.build()[0] is prob
    with pytest.raises(ValueError, match="built"):
        hs.add_matrix_equality({"v": lambda e: e}, [[1.0]])


@pytest.mark.parametrize("rhs, slack", [
    (np.eye(2), "s"),  # a matrix: the equality gives c, not c I
    (np.array(-1.0), "s"),  # not positive
    (np.array(1.0), None),  # a 1 x 1 row, but the terms map into 2 x 2 blocks
    (np.array(np.nan), "s"),
    (np.array([1.0, 2.0]), "s"),  # two values for one state
])
def test_fit_witness_rejects_unrepairable_equalities(rhs, slack):
    rho = random_density(2, 3)
    with pytest.raises(ValueError):
        _fit_witness(rho.mat[None], rho.shape, {"x": 2, "s": 2}, {"x": rho.mat[None]},
                     [({"x": lambda e: e, "s": lambda e: e}, rhs, slack)],
                     lambda blocks: blocks["x"])
    # an exact row must be a lone scalar row
    with pytest.raises(ValueError, match="lone"):
        _fit_witness(rho.mat[None], rho.shape, {"x": 2, "s": 1}, {"x": rho.mat[None]},
                     [({"x": lambda e: e * np.eye(2)}, 1.0, None),
                      ({"x": lambda e: e, "s": lambda e: e}, 1.0, "s")],
                     lambda blocks: blocks["x"])


def test_builder_rejects_non_hermitian_data():
    hs = HermitianSdp({"x": 2})
    # pinning X to a non-Hermitian matrix has no solution; it must not be
    # replaced by its Hermitian part
    with pytest.raises(ValueError):
        hs.add_matrix_equality({"x": lambda e: e}, np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        hs.add_matrix_equality({"x": lambda e: e @ np.diag([1.0, 2.0])}, np.eye(2))
    # a 1 x 1 row with a non-Hermitian coefficient or a complex rhs
    with pytest.raises(ValueError):
        hs.add_matrix_equality({"x": lambda e: e * np.array([[1.0, 1j], [1j, 1.0]])}, [[1.0]])
    with pytest.raises(ValueError):
        hs.add_matrix_equality({"x": lambda e: e * np.eye(2)}, [[1j]])


def test_builder_rejects_undeclared_variable():
    hs = HermitianSdp({"x": 1})
    with pytest.raises(ValueError):
        hs.add_matrix_equality({"x": lambda e: e, "y": lambda e: e}, [[1.0]])
    hs.add_matrix_equality({"x": lambda e: e}, [[1.0]])
    with pytest.raises(ValueError):
        hs.solve({"y": 1.0})
    with pytest.raises(ValueError):
        hs.solve({"x": 1.0, "y": 1.0})


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
    # maps applied one basis matrix at a time, converted with _svec, must
    # give bit for bit the same problem through SdpProblem
    sizes, rows, built = {}, [], []
    orig = {name: getattr(HermitianSdp, name)
            for name in ("__init__", "add_matrix_equality", "build")}

    def init(self, variables):
        sizes.update(variables)
        orig["__init__"](self, variables)

    def add_matrix_equality(self, terms, rhs):
        rows.extend({name: adj(e) for name, adj in terms.items()}
                    for e in hermitian_basis(np.shape(rhs)[-1]))
        orig["add_matrix_equality"](self, terms, rhs)

    def build(self):
        built.append(orig["build"](self)[0])
        raise _Built

    for name, fn in (("__init__", init), ("add_matrix_equality", add_matrix_equality),
                     ("build", build)):
        monkeypatch.setattr(HermitianSdp, name, fn)
    with pytest.raises(_Built):
        measure()
    prob = built[0]
    coords = []
    for name, nb in sizes.items():
        stack = np.zeros((len(rows), nb, nb), dtype=complex)
        for i, row in enumerate(rows):
            if name in row:
                stack[i] = row[name]
        coords.append(sdp._svec(sdp._basis(nb), stack))
    dense = SdpProblem(list(sizes.values()), coords)
    assert prob.blocks == dense.blocks
    for got, want in zip(prob.a_rows, dense.a_rows, strict=True):
        assert got is not want
        assert (got.lo, got.span) == (want.lo, want.span)
        assert got.runs == want.runs
        for field_name in ("cols", "vals", "first", "sign", "nz_rows", "row_vals"):
            assert _bitwise(getattr(got, field_name), getattr(want, field_name)), field_name


def test_builder_scalar_vars():
    # min 3 u + v s.t. u + v = 2, u, v >= 0: two 1 x 1 blocks and a 1 x 1 row
    hs = HermitianSdp({"u": 1, "v": 1})
    hs.add_matrix_equality({"u": lambda e: e, "v": lambda e: e}, [[2.0]])
    sol, = hs.solve({"u": 3.0, "v": 1.0})
    assert sol.pobj == pytest.approx(2.0, abs=1e-6)
    x, _ = hs.blocks(sol)
    assert x["u"].shape == x["v"].shape == (1, 1)
    assert np.abs(x["u"] - 0.0).max() < 1e-6
    assert np.abs(x["v"] - 2.0).max() < 1e-6


def test_schur_cancels_z_inverse_off_the_constraint_support():
    # Constraints live on Sym^2(C^2), as DPS2's M1 block lives on A (x)
    # Sym^2(B); Z^-1 is 1e12 on the antisymmetric vector, which no A_i
    # reaches. Forming X (x) Z^-1 before applying A misses by 4e-5 here.
    rng = np.random.default_rng(4)
    r = 1 / np.sqrt(2)
    iso = np.array([[1, 0, 0], [0, r, 0], [0, r, 0], [0, 0, 1]])
    anti = np.array([0, r, -r, 0])
    a = np.stack([iso @ e @ iso.T for e in hermitian_basis(3)])
    prob, _ = scalar_rows([4], [a], np.ones(9))
    zs = rand_pd(rng, 3)
    zi = iso @ np.linalg.inv(zs) @ iso.T + 1e12 * np.outer(anti, anti)
    x = rand_pd(rng, 4)
    want = np.einsum(
        "ab,ibc,cd,jda->ij", *(t.astype(np.clongdouble) for t in (x, a, zi, a))
    ).real.astype(float)
    got = sdp._schur(prob, [x[None]], [zi[None]])[0]
    assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def assert_same_solution(got: SdpSolution, want: SdpSolution):
    assert got.status is want.status
    assert got.iterations == want.iterations
    for a, b in zip([got.y, *got.x_blocks, *got.z_blocks], [want.y, *want.x_blocks, *want.z_blocks],
                    strict=True):
        assert np.array_equal(a, b)
    assert got.history == want.history


def assert_stack_matches_singles(prob: SdpProblem, costs, b) -> list:
    """Each problem of the stacked solve is bit-identical to its solve as a stack of one.

    b is sliced with the costs: problem k runs alone with its own row b[k].
    """
    stacked = solve(prob, costs, b)
    assert len(stacked) == len(costs[0])
    rows = np.broadcast_to(b, (len(stacked), prob.m))
    for k, got in enumerate(stacked):
        assert_same_solution(got, solve(prob, [c[k : k + 1] for c in costs], rows[k])[0])
    return stacked


def test_stacked_rg_ppt_matches_single_solves():
    shape = SystemShape((2, 3))
    rhos = np.stack([random_density(6, 300 + s, shape).mat for s in range(50)])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, shape, [Cut([0])], np.inf, 1.0))
    sols = assert_stack_matches_singles(prob, costs, b)
    assert all(sol.status is SdpStatus.OPTIMAL for sol in sols)
    # the stack holds problems of different lengths, so some leave it early
    assert len({sol.iterations for sol in sols}) > 1


@pytest.mark.parametrize("n", [1.0, 2.0, np.inf])
def test_stacked_example1_grid_matches_single_solves(n):
    states = [w_ghz_mix(q) for q in np.linspace(0.0, 1.0, 11)]
    rhos = np.stack([s.mat for s in states])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, states[0].shape, [Cut([0])], n, 1.0))
    assert len(costs[0]) == 11
    assert_stack_matches_singles(prob, costs, b)


@pytest.mark.parametrize("seed, index", [(1001, 473), (7, 492), (7, 1215)])
def test_rg_ppt_converges_through_slow_barrier_steps(seed, index):
    # fig56's 3x3 states whose barrier parameter shrank by less than half on
    # three iterates in a row (at seed 1001, index 473: 2.0e-5, 1.84e-5,
    # 1.16e-5, 8.85e-6 by iteration 10) and then converged
    shape = SystemShape((3, 3))
    rhos = stream_densities(9, stream_seeds(seed, index, index + 1))
    results = []
    prob, costs, b = captured_solve(
        lambda: results.extend(e_nm_ppt_stack(rhos, shape, [Cut([0])], np.inf, 1.0)))
    assert solve(prob, costs, b)[0].status is SdpStatus.OPTIMAL
    value = results[0].value
    neg = negativity_stack(rhos, shape.local_dims, (0,))[0][0]
    assert rg_ppt_closed(DensityMatrix(rhos[0], shape), Cut([0])).value <= value + 1e-9
    assert neg <= value <= 3 * neg


def test_stacked_solve_drops_finished_problems(monkeypatch):
    # bounded costs that take 6 to 14 iterations, and one cost that is
    # unbounded below and ends in 3; a budget of 12 stops the slowest problem,
    # so the stack ends with a mix of statuses and most leave it early
    costs = np.array([np.eye(2), -np.eye(2), np.diag([1.0, 2.0]), [[1.0, 0.9], [0.9, 1.0]],
                      [[0.0, 1.0], [1.0, 1e-3]], [[0.0, 1.0], [1.0, 1e-2]],
                      [[0.0, 1j], [-1j, 0.1]]], dtype=complex)
    monkeypatch.setattr(sdp, "MAX_ITER", 12)
    prob, b = pin_corner()
    sols = assert_stack_matches_singles(prob, [costs], b)
    assert [(sol.status, sol.iterations) for sol in sols] == [
        (SdpStatus.OPTIMAL, 6), (SdpStatus.DUAL_INFEASIBLE, 3), (SdpStatus.OPTIMAL, 6),
        (SdpStatus.OPTIMAL, 6), (SdpStatus.ITERATION_LIMIT, 12), (SdpStatus.OPTIMAL, 12),
        (SdpStatus.OPTIMAL, 11)]
    # a starved budget of two stops every problem, the unbounded one too
    monkeypatch.setattr(sdp, "MAX_ITER", 2)
    sols = assert_stack_matches_singles(prob, [costs], b)
    assert [sol.status for sol in sols] == [SdpStatus.ITERATION_LIMIT] * 7


def test_stacked_builder_names_the_failing_problem():
    hs = HermitianSdp({"x": 2})
    hs.add_matrix_equality({"x": lambda e: e * np.diag([1.0, 0.0])}, [[1.0]])
    sols = hs.solve({"x": np.stack([np.eye(2), np.diag([1.0, 2.0])])})
    assert [sol.status for sol in sols] == [SdpStatus.OPTIMAL] * 2
    # problem 1 of the stack is unbounded below
    with pytest.raises(SolverError, match=r"dual-infeasible on problem 1 of 3"):
        hs.solve({"x": np.stack([np.eye(2), -np.eye(2), np.diag([1.0, 2.0])])})
    # every failing problem is named, and the stack fails as a whole
    with pytest.raises(SolverError, match=r"status dual-infeasible on problem 1 of 3; "
                                          r"dual-infeasible on problem 2 of 3$"):
        hs.solve({"x": np.stack([np.eye(2), -np.eye(2), -np.eye(2)])})


def test_dependent_rows_raise_on_every_build():
    a = np.stack([np.eye(2), np.eye(2)])
    for _ in range(3):
        with pytest.raises(ValueError, match="linearly dependent"):
            scalar_rows([2], [a], [1.0, 1.0])


def test_stack_with_per_problem_b_matches_single_solves():
    # problems that share their rows and differ in both b and C
    rng = np.random.default_rng(12)
    prob, _ = pin_corner()
    costs = np.stack([rand_herm(rng, 2) for _ in range(6)])
    b = rng.uniform(0.5, 2.0, (6, 1))
    sols = assert_stack_matches_singles(prob, [costs], b)
    for sol, bk in zip(sols, b[:, 0]):
        if sol.status is SdpStatus.OPTIMAL:
            assert sol.x_blocks[0][0, 0].real == pytest.approx(bk, abs=1e-6)
    assert SdpStatus.OPTIMAL in {sol.status for sol in sols}
    # isotropic d = 3 at three n: the right-hand side of T - W = nI differs
    shape = SystemShape((3, 3))
    grid = [(n, p) for n in (0.5, 1.0, 2.0) for p in (0.4, 0.9)]
    rhos = np.stack([isotropic(3, p).mat for _, p in grid])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, shape, [Cut([0])], [n for n, _ in grid], 1.0))
    assert b.shape == (6, prob.m)
    assert len({row.tobytes() for row in b}) == 3
    sols = assert_stack_matches_singles(prob, costs, b)
    assert all(sol.status is SdpStatus.OPTIMAL for sol in sols)


def test_b_must_match_the_costs():
    prob, b = trace_one_problem(2)
    costs = [np.stack([np.eye(2)] * 3)]
    assert len(solve(prob, costs, b)) == len(solve(prob, costs, np.ones((3, 1)))) == 3
    for bad in (np.ones((2, 1)), np.ones((3, 2)), np.ones(2), np.ones((1, 3, 1))):
        with pytest.raises(ValueError):
            solve(prob, costs, bad)
    # equalities whose rhs stacks differ in length
    hs = trace_one(2)
    hs.add_matrix_equality({"x": lambda e: e * np.diag([1.0, 0.0])}, np.ones((2, 1, 1)))
    hs.add_matrix_equality({"x": lambda e: e * np.array([[0.0, 1.0], [1.0, 0.0]])},
                           np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        hs.build()


@pytest.mark.parametrize("argv, checks", [
    # one stack for the finite n of the whole (n, p) grid, one for n = inf,
    # whatever the order of --n-list; n = 0 builds nothing
    (["isotropic", "--d", "3", "--p-count", "3"], 1),
    (["isotropic", "--d", "2", "--p-count", "3", "--n-list", "1,inf,2"], 2),
    (["isotropic", "--d", "2", "--p-count", "3", "--n-list", "0,1,inf"], 2),
    # one build per (cut, n != 0): a cut's finite n could share a stack, but
    # one stack of 22 problems at m = 128 peaks 7 % higher in memory than two
    # stacks of 11 (41.2 against 44.1 MB), while a build costs about 1.5 ms
    (["example1", "--q-count", "3"], 9),
    (["example1", "--q-count", "3", "--n-list", "0.5,1,2,inf"], 12),
    (["fig7q", "--a-grid", "0.1:0.9:3", "--e-grid", "0.9:1.0:2"], 1),
], ids=["isotropic", "isotropic-inf-between", "isotropic-zero", "example1", "example1-n-list",
        "fig7q"])
def test_rows_checked_once_per_row_set_run(monkeypatch, tmp_path, argv, checks):
    calls = []
    real = SdpProblem._check_independence

    def counted(self):
        calls.append(self.m)
        real(self)

    monkeypatch.setattr(SdpProblem, "_check_independence", counted)
    assert main(["reproduce", *argv, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == checks


def test_stack_above_the_schur_bound_runs_as_sub_stacks(monkeypatch):
    states = [w_ghz_mix(q) for q in np.linspace(0.0, 1.0, 11)]
    rhos = np.stack([s.mat for s in states])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, states[0].shape, [Cut([0])], 1.0, 1.0))
    whole = solve(prob, costs, b)
    sizes = []
    real = sdp._solve_stack

    def spy(prob, c, b):
        sizes.append(len(c[0]))
        return real(prob, c, b)

    monkeypatch.setattr(sdp, "_solve_stack", spy)
    # the W-GHZ mixtures are real, so they run on the real rows, sized by their m
    monkeypatch.setattr(sdp, "SCHUR_STACK_ENTRIES", 4 * prob.real_problem.m**2 + 1)
    monkeypatch.setattr(sdp, "_lanes", lambda: 1)
    split = assert_stack_matches_singles(prob, costs, b)
    assert sizes[:3] == [4, 4, 3]
    for got, want in zip(split, whole, strict=True):
        assert_same_solution(got, want)
    # two lanes share the bound: six sub-stacks of at most two problems,
    # in whichever order the lanes take them
    sizes.clear()
    monkeypatch.setattr(sdp, "_lanes", lambda: 2)
    split = assert_stack_matches_singles(prob, costs, b)
    assert sorted(sizes[:6], reverse=True) == [2, 2, 2, 2, 2, 1]
    for got, want in zip(split, whole, strict=True):
        assert_same_solution(got, want)


def test_real_and_complex_groups_size_their_own_sub_stacks(monkeypatch):
    # seven real isotropic states (m = 20 on the real rows) and four random
    # ones (m = 32): each group splits by its own m, the real one in float64
    shape = SystemShape((2, 2))
    rhos = np.stack([isotropic(2, p).mat for p in np.linspace(0.6, 1.0, 7)]
                    + [random_density(4, 600 + s, shape).mat for s in range(4)])
    prob, costs, b = captured_solve(lambda: e_nm_ppt_stack(rhos, shape, [Cut([0])], 2.0, 1.0))
    assert (prob.real_problem.m, prob.m) == (20, 32)
    whole = solve(prob, costs, b)
    calls = []
    real = sdp._solve_stack

    def spy(prob, c, b):
        out = real(prob, c, b)
        arrays = c + [w for sol in out for w in sol.x_blocks + sol.z_blocks]
        calls.append((prob.m, len(c[0]), {w.dtype for w in arrays}))
        return out

    monkeypatch.setattr(sdp, "_solve_stack", spy)
    monkeypatch.setattr(sdp, "SCHUR_STACK_ENTRIES", 2 * prob.m**2 + 1)
    for lanes, want in ((1, [(20, 5), (20, 2), (32, 2), (32, 2)]),
                        (2, [(20, 2)] * 3 + [(20, 1)] + [(32, 1)] * 4)):
        calls.clear()
        monkeypatch.setattr(sdp, "_lanes", lambda lanes=lanes: lanes)
        split = assert_stack_matches_singles(prob, costs, b)
        assert sorted((m, size) for m, size, _ in calls[: len(want)]) == sorted(want)
        # float64 iterates and costs on the real rows, complex128 on all rows
        assert all(dtypes == {np.dtype(float if m == 20 else complex)} for m, _, dtypes in calls)
        for got, want_sol in zip(split, whole, strict=True):
            assert_same_solution(got, want_sol)
            assert all(w.dtype == complex for w in got.x_blocks + got.z_blocks)


@pytest.mark.parametrize("lanes", [2, 3])
def test_lanes_match_single_solves(monkeypatch, lanes):
    # rg_ppt on 2x3 states, whose problems leave their sub-stacks at
    # different iterations; at most four problems' Schur matrices at once
    shape = SystemShape((2, 3))
    rhos = np.stack([random_density(6, 500 + s, shape).mat for s in range(20)])
    prob, costs, b = captured_solve(
        lambda: e_nm_ppt_stack(rhos, shape, [Cut([0])], np.inf, 1.0))
    whole = solve(prob, costs, b)
    sizes = []
    real = sdp._solve_stack

    def spy(prob, c, b):
        sizes.append(len(c[0]))
        return real(prob, c, b)

    monkeypatch.setattr(sdp, "_solve_stack", spy)
    monkeypatch.setattr(sdp, "SCHUR_STACK_ENTRIES", 4 * prob.m**2)
    monkeypatch.setattr(sdp, "_lanes", lambda: lanes)
    threads = threading.active_count()
    split = assert_stack_matches_singles(prob, costs, b)
    assert threading.active_count() == threads
    assert sum(sizes[: 20 // (4 // lanes)]) == 20
    assert max(sizes) == 4 // lanes
    for got, want in zip(split, whole, strict=True):
        assert_same_solution(got, want)


def lane_stack(monkeypatch, fail: dict) -> tuple:
    """Four pin_corner problems as four sub-stacks on two lanes, with b = 1, 2, 3, 4.

    Sub-stack k (b = k + 1) runs as fail[k](real, prob, c, b) if k is in
    fail, else as itself; each call logs its k.
    """
    prob, _ = pin_corner()
    calls = []
    real = sdp._solve_stack

    def spy(prob, c, b):
        k = int(b[0, 0]) - 1
        calls.append(k)
        return fail[k](real, prob, c, b) if k in fail else real(prob, c, b)

    monkeypatch.setattr(sdp, "_solve_stack", spy)
    monkeypatch.setattr(sdp, "SCHUR_STACK_ENTRIES", 2 * prob.m**2)
    monkeypatch.setattr(sdp, "_lanes", lambda: 2)
    costs = [np.stack([np.diag([1.0, 2.0])] * 4)]
    return prob, costs, np.arange(1.0, 5.0)[:, None], calls


def test_helper_lane_error_reaches_the_caller(monkeypatch):
    caller = threading.get_ident()
    caller_in, helper_ran = threading.Event(), threading.Event()
    real_schur = sdp._schur_solver
    sdp._lapack()  # its self-check runs before the spy goes in

    def singular_off_the_caller(schur_t, lu):
        if threading.get_ident() != caller:
            helper_ran.set()
            schur_t = np.zeros_like(schur_t)
        return real_schur(schur_t, lu)

    def one_each(real, *args):
        if threading.get_ident() != caller:
            assert caller_in.wait(10)
            return real(*args)
        caller_in.set()
        assert helper_ran.wait(10)
        out = real(*args)
        # a helper lane ends only after it has recorded its error, so the
        # caller takes its next sub-stack only once the failure is known
        for helper in threading.enumerate():
            if helper.name == "entwit-sdp-lane":
                helper.join(10)
                assert not helper.is_alive()
        return out

    monkeypatch.setattr(sdp, "_schur_solver", singular_off_the_caller)
    # the helper lane starts its sub-stack once the caller has taken one,
    # and the caller's waits until the helper's has hit its singular Schur
    # system, so the failure is the helper's and the caller's succeeds
    prob, costs, b, calls = lane_stack(monkeypatch, dict.fromkeys(range(4), one_each))
    threads = threading.active_count()
    with pytest.raises(SolverError, match="numerically singular"):
        solve(prob, costs, b)
    assert threading.active_count() == threads
    assert helper_ran.is_set()
    # the lanes take no sub-stack after the failure
    assert sorted(calls) == [0, 1]


def test_lowest_failed_sub_stack_raises(monkeypatch):
    # sub-stack 1 fails only after sub-stack 2 has failed; 1's error wins,
    # as a serial loop raises it, and no lane takes sub-stack 3
    started, failed = threading.Event(), threading.Event()

    def first(real, *args):
        assert started.wait(10)
        return real(*args)

    def second(real, *args):
        started.set()
        assert failed.wait(10)
        raise SolverError("sub-stack 1")

    def third(real, *args):
        failed.set()
        raise SolverError("sub-stack 2")

    prob, costs, b, calls = lane_stack(monkeypatch, {0: first, 1: second, 2: third})
    threads = threading.active_count()
    with pytest.raises(SolverError, match="sub-stack 1"):
        solve(prob, costs, b)
    assert threading.active_count() == threads
    assert sorted(calls) == [0, 1, 2]


@pytest.mark.parametrize("lanes", [1, 8])
def test_lanes_take_every_item_once(lanes):
    # more lanes than CPUs and a short switch interval: a lost update of the
    # shared position would run an item twice or never; one lane is the
    # calling thread alone, taking the items in order
    calls = []
    interval = sys.getswitchinterval()
    threads = threading.active_count()
    try:
        sys.setswitchinterval(1e-6)
        out = sdp._run_lanes(lambda i: calls.append(i) or np.sqrt(float(i)), range(2000), lanes)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert (calls if lanes == 1 else sorted(calls)) == list(range(2000))
    assert out == [np.sqrt(float(i)) for i in range(2000)]


def test_one_lane_stops_at_the_first_failure():
    # one lane runs no item after the first that fails, and raises its error
    calls = []

    def work(i):
        calls.append(i)
        if i in (3, 5):
            raise SolverError(f"item {i}")
        return i

    threads = threading.active_count()
    with pytest.raises(SolverError, match="item 3"):
        sdp._run_lanes(work, range(8), 1)
    assert threading.active_count() == threads
    assert calls == [0, 1, 2, 3]


@pytest.mark.parametrize("env, lanes", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 3),
    ({"OMP_NUM_THREADS": "1"}, 3),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 3),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
    ({"OMP_NUM_THREADS": "4"}, 1),
    ({}, 1),
])
def test_lanes_only_over_one_blas_thread(monkeypatch, env, lanes):
    # OpenBLAS takes the first of these set to a positive integer, and all
    # CPUs when none is; lanes on top of BLAS threads only compete with them
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(sdp.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert sdp._lanes() == lanes


def m_spy(monkeypatch) -> list:
    """Record the m of every problem that reaches _solve_stack."""
    ms = []
    real = sdp._solve_stack

    def spy(prob, c, b):
        ms.append(prob.m)
        return real(prob, c, b)

    monkeypatch.setattr(sdp, "_solve_stack", spy)
    return ms


def real_data(measure) -> tuple:
    """The builder, skip list, problem, costs and b of the solve measure() makes,
    with the data made real: the real part of each cost, and b zero on the
    imaginary rows."""
    calls = []
    real = sdp.solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "solve", lambda prob, costs, b: calls.append((costs, b)) or real(prob, costs, b))
        hs, _, skip, _ = captured_images(measure)
    (costs, b), = calls
    prob = hs.build()[0]
    imag = np.ones(prob.m, dtype=bool)
    imag[prob.real_rows] = False
    return hs, skip, prob, [np.real(c) + 0j for c in costs], np.where(imag, 0.0, b)


# The shipped problems whose rows are real or imaginary, one at least
# imaginary, with real data; the isotropic and fig7q states are real.
REAL_PROBLEMS = {
    **{name: (lambda measure=measure: real_data(measure)) for name, measure in SHIPPED_PROBLEMS.items()
       if name not in ("rr_ppt", "ssr_nonlocality")},
    "isotropic-d3": lambda: real_data(lambda: e_nm_ppt(isotropic(3, 0.9), [Cut([0])], 2.0, 1.0)),
    "fig7q-dps2": lambda: real_data(lambda: rg_dps2(
        DensityMatrix(0.95 * horodecki_3x3(0.3).mat + 0.05 * np.eye(9) / 9.0, SystemShape((3, 3))),
        Cut([0]))),
}


@pytest.mark.parametrize("case", REAL_PROBLEMS.values(), ids=REAL_PROBLEMS.keys())
def test_real_rows_match_the_full_rows(monkeypatch, case):
    # solve runs real data on the real rows alone; against _solve_stack on
    # every row it ends alike, with the same objective and images, and a y
    # that is exactly zero on the dropped rows
    hs, skip, prob, costs, b = case()
    rows = prob.real_rows
    assert 0 < len(rows) < prob.m
    ms = m_spy(monkeypatch)
    sols = solve(prob, costs, b)
    assert ms == [len(rows)]
    full = sdp._solve_stack(prob, [sdp._herm(c) for c in costs], np.broadcast_to(b, (len(sols), prob.m)))
    dropped = np.setdiff1d(np.arange(prob.m), rows)
    for got, want in zip(sols, full, strict=True):
        assert got.status is want.status is SdpStatus.OPTIMAL
        assert got.iterations == want.iterations
        assert abs(got.pobj - want.pobj) <= 1e-9 * (1.0 + abs(want.pobj))
        assert got.y.shape == (prob.m,)
        assert not got.y[dropped].any()
        assert not any(xb.imag.any() for xb in got.x_blocks + got.z_blocks)
    # the two Cholesky factors round differently, and the iterates carry
    # that to the optimal face: up to 6.2e-11 here (e_nm_ppt-2x3), 6.9e-15
    # on isotropic d = 3
    for g, w in zip(hs.images(sols, skip), hs.images(full, skip), strict=True):
        assert np.abs(g - w).max() <= 1e-10
    # the real rows are built once, from the problem's own
    assert prob.real_problem is prob.real_problem
    assert [blk.basis.nb for blk in prob.real_problem.a_rows] == prob.blocks


def rand_pd_real(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return g @ g.T + 0.1 * np.eye(d)


@pytest.mark.parametrize("case", REAL_PROBLEMS.values(), ids=REAL_PROBLEMS.keys())
def test_real_kernels_match_advanced_indexing(case):
    # the kernels on the real rows and basis, with float64 X and Z^-1, entry
    # for entry, signed zeros included
    _, _, full, _, _ = case()
    prob = full.real_problem
    count = 3
    rng = np.random.default_rng(12)
    x = [np.stack([rand_pd_real(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    zi = [np.stack([rand_pd_real(rng, nb) for _ in range(count)]) for nb in prob.blocks]
    for blk, xb in zip(prob.a_rows, x):
        tab = blk.basis
        nb = tab.nb
        assert tab is sdp._basis(nb, real=True)
        assert (tab.dim, tab.width, tab.dtype) == (nb * (nb + 1) // 2, nb * nb, np.float64)
        u = _svec_indexed(tab, xb)
        assert _bitwise(sdp._svec(tab, xb), u)
        # the real coordinates are the Hermitian ones at k < nb and nb + 2p
        k = np.arange(nb * nb)
        assert _bitwise(u, sdp._svec(sdp._basis(nb), xb)[:, (k < nb) | ((k - nb) % 2 == 0)])
        zeros = np.where(rng.random(u.shape) < 0.3, np.copysign(0.0, rng.standard_normal(u.shape)), u)
        for w in (u, zeros):
            assert _bitwise(sdp._smat(tab, w), _smat_indexed(tab, w))
        mats = _smat_indexed(tab, zeros)
        assert mats.dtype == np.float64
        assert _bitwise(sdp._svec(tab, mats), _svec_indexed(tab, mats))
    for mats in (x, [xb @ zib for xb, zib in zip(x, zi)]):
        assert _bitwise(sdp._apply(prob, mats), _apply_indexed(prob, mats))
    assert _bitwise(sdp._schur(prob, x, zi), _schur_indexed(prob, x, zi))


def test_real_and_complex_problems_share_a_stack(monkeypatch):
    # the real problem runs on the real rows and the complex one on all of
    # them, in one solve call, and each gets the bytes of its solve alone
    prob, costs, b = captured_solve(lambda: e_nm_ppt(isotropic(3, 0.9), [Cut([0])], 2.0, 1.0))
    rho = random_density(9, 4, SystemShape((3, 3)))
    _, other, _ = captured_solve(lambda: e_nm_ppt(rho, [Cut([0])], 2.0, 1.0))
    assert not any(np.imag(c).any() for c in costs) and any(np.imag(c).any() for c in other)
    ms = m_spy(monkeypatch)
    both = [np.concatenate([c, o]) for c, o in zip(costs, other)]
    assert_stack_matches_singles(prob, both, b)
    assert sorted(ms[:2]) == [len(prob.real_rows), prob.m]
    # complex first: the solutions still come back in input order
    flipped = [np.concatenate([o, c]) for c, o in zip(costs, other)]
    for got, want in zip(solve(prob, flipped, b), solve(prob, both, b)[::-1], strict=True):
        assert_same_solution(got, want)


def two_by_two(mixed: bool) -> tuple:
    """tr X = 1 and Im X_01 = 0 on one 2 x 2 block, with (if mixed) a third
    row Re X_01 + Im X_01 = 0, which touches a symmetric and an
    antisymmetric coordinate."""
    a = [np.eye(2), np.array([[0, 1j], [-1j, 0]])]
    if mixed:
        a.append(np.array([[0, 1 + 1j], [1 - 1j, 0]]))
    return scalar_rows([2], [np.array(a)], [1.0] + [0.0] * (len(a) - 1))


@pytest.mark.parametrize("mixed, cost, b, m", [
    # real data: the imaginary row is dropped
    (False, np.diag([1.0, 2.0]), [1.0, 0.0], 1),
    # a row that mixes real and imaginary coordinates
    (True, np.diag([1.0, 2.0]), [1.0, 0.0, 0.0], 3),
    # a cost with a nonzero imaginary part
    (False, np.array([[1.0, 0.5j], [-0.5j, 2.0]]), [1.0, 0.0], 2),
    # a nonzero b on an imaginary row
    (False, np.diag([1.0, 2.0]), [1.0, 0.1], 2),
], ids=["real", "mixed-row", "complex-cost", "imaginary-b"])
def test_only_real_data_runs_on_the_real_rows(monkeypatch, mixed, cost, b, m):
    prob, _ = two_by_two(mixed)
    assert (prob.real_rows is None) is mixed
    ms = m_spy(monkeypatch)
    sol, = solve(prob, [np.asarray(cost, dtype=complex)[None]], b)
    assert ms == [m]
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.y.shape == (prob.m,)
    # rows without an imaginary one run whole too
    prob, b = trace_one_problem(2)
    assert prob.real_rows is None
    solve(prob, [np.eye(2)[None]], b)
    assert ms[-1] == prob.m == 1
