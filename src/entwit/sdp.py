"""Primal-dual interior-point solver for small semidefinite programs.

Standard form over block-diagonal complex Hermitian matrices:

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i,   X_b >= 0,

with <A, X> = Re tr(AX), the real inner product on Hermitian matrices;
real symmetric data is the special case with zero imaginary part. The
search direction is the HKM/HRVW one with a Mehrotra predictor-corrector.

Constraints are declared and stored by their coordinates in the
orthonormal Hermitian basis E_k of hermitian_basis, never as dense
matrices; only the nonzero ones are kept, per row as indices and values
padded with zeros to the widest row of the block. Every constraint the
measures build has one to a few nonzero coordinates per row. A(X) and
A^T(y) are then a gather and a scatter. The
Schur matrix M_ij = Re tr(X A_i Z^-1 A_j) is assembled per block as
A_b H_b^T, where row i of H_b holds the coordinates of X A_i Z^-1; that
product is formed from the few nonzero rows of A_i, first A_i Z^-1 and
then X times it (sparse Schur assembly after Fujisawa, Kojima and Nakata,
Math. Prog. 79, 1997). The order matters: when Z^-1 is huge on a subspace
that no A_i reaches (a dual slack without an interior point), that part
cancels in A_i Z^-1, while forming the basis Gram of X (x) Z^-1 first would
carry it into every entry. The Schur system itself is dense. Every step is
deterministic, so a rerun on the same inputs is bit-identical.

solve returns the iterate it stopped at. It reports OPTIMAL only when the
residuals and the relative gap meet tol; the first iterate that meets tol
is also the one with the smallest merit. A run whose barrier parameter
stops shrinking at the double-precision floor ends ITERATION_LIMIT. The
HermitianSdp builder holds only the constraints: the variables, declared
once as a dict of block sizes, and the equalities. Every equality is a
matrix equality, whose target-space basis the builder maps through each
term's adjoint at once; a scalar row is the 1 x 1 case. The cost enters at
build and solve, and solve returns only OPTIMAL solutions. The builder
reads the primal and dual-slack blocks back from a solution, and each
equality's image sum_v L_v(X_v) from the same basis coordinates.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import HERM_ATOL

DEFAULT_TOL = 1e-7
MAX_ITER = 200
DIVERGE_NORM = 1e8


class SolverError(RuntimeError):
    """Raised when a measure needs an optimum but the solver returned none."""


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    DUAL_INFEASIBLE = "dual-infeasible"
    ITERATION_LIMIT = "iteration-limit"


class _Basis:
    """Index tables of the orthonormal Hermitian basis E_k of size nb.

    The order is that of hermitian_basis: the nb diagonal units, then for
    each pair i < j the symmetric element (e_ij + e_ji)/sqrt 2 followed by
    the antisymmetric one (-i e_ij + i e_ji)/sqrt 2. In the float view of a
    complex matrix M (real and imaginary parts interleaved), coordinate k
    of M is <E_k, M> = w[0, k] M[at[0, k]] + w[1, k] M[at[1, k]]. For smat,
    the real part of flat entry f of X is coef[f] u[k_of[f]] and its
    imaginary part is coef[n2 + f] u[k_of[n2 + f]].
    """

    def __init__(self, nb: int):
        n2 = nb * nb
        r = 1.0 / np.sqrt(2.0)
        at = np.zeros((2, n2), dtype=np.intp)
        w = np.zeros((2, n2))
        k_of = np.zeros(2 * n2, dtype=np.intp)
        coef = np.zeros(2 * n2)
        for i in range(nb):
            at[:, i] = 2 * (i * nb + i)
            w[0, i] = 1.0
            k_of[i * nb + i] = i
            coef[i * nb + i] = 1.0
        k = nb
        for i in range(nb):
            for j in range(i + 1, nb):
                up, lo = i * nb + j, j * nb + i
                at[:, k] = (2 * lo, 2 * up)
                w[:, k] = (r, r)
                at[:, k + 1] = (2 * lo + 1, 2 * up + 1)
                w[:, k + 1] = (r, -r)
                k_of[[up, lo]] = k
                coef[[up, lo]] = r
                k_of[[n2 + up, n2 + lo]] = k + 1
                coef[[n2 + up, n2 + lo]] = (-r, r)
                k += 2
        self.nb = nb
        self.n2 = n2
        self.at, self.w, self.k_of, self.coef = at, w, k_of, coef
        for arr in (at, w, k_of, coef):
            arr.flags.writeable = False

    @functools.cached_property
    def mats(self) -> np.ndarray:
        """The basis matrices, stacked as a read-only (n2, nb, nb) array."""
        out = _smat(self, np.eye(self.n2))
        out.flags.writeable = False
        return out


@functools.lru_cache(maxsize=None)
def _basis(nb: int) -> _Basis:
    return _Basis(nb)


def _svec(tab: _Basis, mats: np.ndarray) -> np.ndarray:
    """Coordinates <E_k, M> = Re tr(E_k M) over the last two axes.

    For a non-Hermitian M these are the coordinates of its Hermitian part.
    """
    shape = np.shape(mats)[:-2] + (2 * tab.n2,)
    re = np.ascontiguousarray(mats, dtype=complex).view(float).reshape(shape)
    return re[..., tab.at[0]] * tab.w[0] + re[..., tab.at[1]] * tab.w[1]


def _smat(tab: _Basis, u: np.ndarray) -> np.ndarray:
    """The Hermitian matrix sum_k u_k E_k, over the last axis of u."""
    parts = u[..., tab.k_of] * tab.coef
    mat = parts[..., : tab.n2] + 1j * parts[..., tab.n2 :]
    return mat.reshape(np.shape(u)[:-1] + (tab.nb, tab.nb))


def _smat_rows(tab: _Basis, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows rows[i] of the Hermitian matrix sum_k u[i, k] E_k, for each i."""
    f = rows[..., None] * tab.nb + np.arange(tab.nb)
    i = np.arange(len(u))[:, None, None]
    re, im = (u[i, tab.k_of[g]] * tab.coef[g] for g in (f, tab.n2 + f))
    return re + 1j * im


def _hermitian(mats, shape: tuple, what: str) -> np.ndarray:
    """mats as a complex array; ValueError unless it has this shape and is Hermitian."""
    mats = np.asarray(mats, dtype=complex)
    if mats.shape != shape:
        raise ValueError(f"{what} has shape {mats.shape}, not {shape}")
    if mats.size and np.abs(mats - np.swapaxes(mats, -1, -2).conj()).max() > HERM_ATOL:
        raise ValueError(f"{what} is not Hermitian")
    return mats


def _padded(mask: np.ndarray):
    """Each row's True indices, ascending and zero-padded to the widest row
    (one slot at least), and the mask of the slots that hold one."""
    counts = mask.sum(axis=1)
    real = np.arange(counts.max(initial=1)) < counts[:, None]
    idx = np.zeros(real.shape, dtype=np.intp)
    idx[real] = np.nonzero(mask)[1]
    return idx, real


def _slot_sum(t: np.ndarray) -> np.ndarray:
    """t summed over its slot axis 1, slot by slot in place into t[:, 0]."""
    for j in range(1, t.shape[1]):
        t[:, 0] += t[:, j]
    return t[:, 0]


# add_schur forms its products for this many Schur columns at a time, so its
# temporaries have one small size that the allocator reuses every iteration;
# sized by the block they can be mapped from the OS and faulted in each time.
SCHUR_SLICE = 64


class _BlockRows:
    """One block's constraints in a padded row layout.

    Built from the (m, n2) basis coordinates of the block's rows; the block
    covers the rows lo .. lo + span - 1. Row i (relative to lo) keeps its
    nonzero coordinates as indices cols[i] and values vals[i], and the
    nonzero rows of its matrix A_i = sum_k a_ik E_k, for the Schur matrix,
    as indices nz_rows[i] and entries row_vals[i]. Both are padded with zero
    indices and zero values to the widest row, so a row sum is a slot sum.
    """

    def __init__(self, tab: _Basis, coords: np.ndarray):
        used = np.flatnonzero(coords.any(axis=1))
        block = coords[used[0] : used[-1] + 1] if used.size else coords[:0]
        keep = block != 0
        self.cols, real = _padded(keep)
        self.vals = np.zeros(real.shape)
        self.vals[real] = block[keep]
        # the nonzero rows of A_i are the matrix rows its nonzero coordinates touch
        nonzero = np.zeros((block.shape[0], tab.nb), dtype=bool)
        i, k = np.nonzero(keep)
        nonzero[i[:, None], tab.at[:, k].T // (2 * tab.nb)] = True
        self.nz_rows, real = _padded(nonzero)
        self.row_vals = _smat_rows(tab, block, self.nz_rows)
        self.row_vals[~real] = 0.0
        self.basis = tab
        self.lo = int(used[0]) if used.size else 0
        self.span = block.shape[0]

    def add_schur(self, x: np.ndarray, zi: np.ndarray, out: np.ndarray) -> None:
        """out[i, j] += Re tr(X A_i Z^-1 A_j) over this block's rows.

        A_i Z^-1 is formed first from the nonzero rows of A_i; Z^-1 can be
        huge on a subspace no A_i reaches (a dual slack without an interior
        point), and that part cancels in this product before X scales it.
        """
        nb = self.basis.nb
        v = (self.row_vals.reshape(-1, nb) @ zi).reshape(self.row_vals.shape)
        span = slice(self.lo, self.lo + self.span)
        for j in range(0, self.span, SCHUR_SLICE):
            cols = slice(j, min(j + SCHUR_SLICE, self.span))
            f = np.matmul(x[:, self.nz_rows[cols]].transpose(1, 0, 2), v[cols])
            # coordinates of X A_i Z^-1 at each slot's coordinate, scaled in
            # place: a fresh product array costs more
            h = _svec(self.basis, f).T[self.cols]
            h *= self.vals[..., None]
            out[span, self.lo + cols.start : self.lo + cols.stop] += _slot_sum(h)


class SdpProblem:
    """Validated problem data.

    blocks: sizes of the diagonal blocks.
    c_blocks: Hermitian cost matrix per block.
    a_blocks: per block, an (m, nb, nb) array stacking the Hermitian
        constraint matrices; row i across all blocks forms one equality.
        It is kept only as the nonzero basis coordinates of each row
        (a_rows, one _BlockRows per block); HermitianSdp passes those
        coordinates through _from_coords instead.
    b: right-hand side, length m.
    """

    def __init__(self, blocks, c_blocks, a_blocks, b):
        coords = [_svec(_basis(nb), _hermitian(a, (np.size(b), nb, nb), "constraint block"))
                  for nb, a in zip(map(int, blocks), a_blocks, strict=True)]
        self._setup(blocks, c_blocks, coords, b)

    @classmethod
    def _from_coords(cls, blocks, c_blocks, coords, b) -> SdpProblem:
        """The problem whose row i on block b has basis coordinates coords[b][i]."""
        prob = cls.__new__(cls)
        prob._setup(blocks, c_blocks, coords, b)
        return prob

    def _setup(self, blocks, c_blocks, coords, b):
        self.blocks = [int(n) for n in blocks]
        self.b = np.asarray(b, dtype=float).reshape(-1)
        self.c_blocks = [_herm(_hermitian(c, (nb, nb), "cost block"))
                         for nb, c in zip(self.blocks, c_blocks, strict=True)]
        self.a_rows = [_BlockRows(_basis(nb), u) for nb, u in zip(self.blocks, coords, strict=True)]
        self._check_independence()

    def _check_independence(self):
        m = self.b.size
        if m == 0:
            return
        eye = [np.eye(nb) for nb in self.blocks]
        w = np.linalg.eigvalsh(_schur(self, eye, eye))
        if w[0] <= 1e-10 * max(1.0, w[-1]):
            raise ValueError(
                "equality constraints are linearly dependent "
                f"(gram eigenvalue {w[0]:.3e})"
            )

    @property
    def m(self) -> int:
        return self.b.size

    @property
    def dim_total(self) -> int:
        return sum(self.blocks)


@dataclass
class SdpSolution:
    status: SdpStatus
    x_blocks: list
    y: np.ndarray
    z_blocks: list
    pobj: float
    dobj: float
    gap: float
    iterations: int
    history: list = field(default_factory=list)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = Re tr(AB) for Hermitian A; Re tr(A^H B) in general."""
    return float(np.vdot(a, b).real)


def _apply(prob: SdpProblem, mats) -> np.ndarray:
    """A(X)_i = sum_b <A_ib, X_b>."""
    out = np.zeros(prob.m)
    for blk, w in zip(prob.a_rows, mats):
        t = blk.vals * _svec(blk.basis, w)[blk.cols]
        out[blk.lo : blk.lo + blk.span] += _slot_sum(t)
    return out


def _adjoint(prob: SdpProblem, y: np.ndarray) -> list:
    """A^T(y)_b = sum_i y_i A_ib, summed slot layer by slot layer."""
    out = []
    for blk in prob.a_rows:
        t = blk.vals.T * y[blk.lo : blk.lo + blk.span]
        u = np.bincount(blk.cols.T.ravel(), t.ravel(), minlength=blk.basis.n2)
        out.append(_smat(blk.basis, u))
    return out


def _schur(prob: SdpProblem, x, zi, out=None) -> np.ndarray:
    """M_ij = sum_b Re tr(X_b A_ib Z_b^-1 A_jb), in out if given; the Gram of A at X = Z = I."""
    out = np.empty((prob.m, prob.m)) if out is None else out
    out.fill(0.0)
    for blk, xb, zib in zip(prob.a_rows, x, zi):
        blk.add_schur(xb, zib, out)
    return out


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _isqrt(s: np.ndarray) -> np.ndarray:
    """A factor F with F F^H = S^-1 (S^-1/2 up to a unitary), eigenvalues floored."""
    w, v = np.linalg.eigh(s)
    return v / np.sqrt(np.maximum(w, w[-1] * 1e-15))


def _max_step(isqrts, ds_blocks) -> float:
    """Largest t with S + t dS psd, via lambda_min(S^-1/2 dS S^-1/2), given _isqrt(S)."""
    t = np.inf
    for isqrt, ds in zip(isqrts, ds_blocks):
        lam = float(np.linalg.eigvalsh(_herm(isqrt.conj().T @ ds @ isqrt))[0])
        if lam < -1e-14:
            t = min(t, -1.0 / lam)
    return t


def _solve_schur(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for _ in range(4):
        try:
            sol = np.linalg.solve(m + jitter * np.eye(m.shape[0]) if jitter else m, rhs)
            if np.all(np.isfinite(sol)):
                return sol
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-12 * max(1.0, np.trace(m) / m.shape[0]))
    raise SolverError("schur system is numerically singular")


def solve(prob: SdpProblem, tol: float = DEFAULT_TOL, max_iter: int = MAX_ITER) -> SdpSolution:
    """Run the predictor-corrector loop from the fixed interior start."""
    m = prob.m
    n_tot = prob.dim_total
    b = prob.b
    norm_b = float(np.abs(b).max(initial=0.0))
    norm_c = float(np.sqrt(sum(_inner(c, c) for c in prob.c_blocks)))
    tau = 1.0 + max(norm_b, norm_c)
    x = [tau * np.eye(nb, dtype=complex) for nb in prob.blocks]
    z = [tau * np.eye(nb, dtype=complex) for nb in prob.blocks]
    y = np.zeros(m)
    schur = np.empty((m, m))

    status = SdpStatus.ITERATION_LIMIT
    history = []
    iterations = 0
    prev_mu = np.inf
    stall_count = 0
    best_merit = np.inf
    for k in range(max_iter + 1):
        conic = sum(_inner(xb, zb) for xb, zb in zip(x, z))
        mu = conic / n_tot
        pobj = sum(_inner(c, xb) for c, xb in zip(prob.c_blocks, x))
        dobj = float(b @ y)
        rp = b - _apply(prob, x)
        ady = _adjoint(prob, y)
        rd = [c - a - zb for c, a, zb in zip(prob.c_blocks, ady, z)]
        rp_norm = float(np.abs(rp).max(initial=0.0))
        rd_norm = float(np.sqrt(sum(_inner(r, r) for r in rd)))
        history.append(
            {
                "iter": k,
                "mu": mu,
                "pobj": pobj,
                "dobj": dobj,
                "rp": rp_norm,
                "rd": rd_norm,
                "conic": conic,
            }
        )
        iterations = k
        rel_gap = conic / (1.0 + max(abs(pobj), abs(dobj)))
        merit = max(
            rp_norm / (1.0 + norm_b), rd_norm / (1.0 + norm_c), rel_gap
        )
        best_merit = min(best_merit, merit)
        res_ok = rp_norm <= tol * (1.0 + norm_b) and rd_norm <= tol * (1.0 + norm_c)
        if res_ok and rel_gap <= tol:
            status = SdpStatus.OPTIMAL
            break
        # Past the double-precision floor mu stops shrinking; further steps
        # drift off the central path, so cut the run.
        stall_count = stall_count + 1 if mu > 0.5 * prev_mu else 0
        prev_mu = mu
        if stall_count >= 3 and best_merit <= 1e-3:
            break
        norm_x = max(float(np.abs(xb).max()) for xb in x)
        norm_zy = max(
            float(np.abs(y).max(initial=0.0)),
            max(float(np.abs(zb).max()) for zb in z),
        )
        if max(norm_x, norm_zy) > DIVERGE_NORM:
            if not res_ok:
                status = (
                    SdpStatus.DUAL_INFEASIBLE
                    if norm_x >= norm_zy
                    else SdpStatus.PRIMAL_INFEASIBLE
                )
            break
        if k == max_iter:
            break

        zi = [_herm(np.linalg.inv(zb)) for zb in z]
        _schur(prob, x, zi, schur)

        a_xrz = _apply(prob, [xb @ r @ zib for xb, r, zib in zip(x, rd, zi)])
        x_isqrt, z_isqrt = [_isqrt(xb) for xb in x], [_isqrt(zb) for zb in z]
        rhs_aff = b + a_xrz
        dy_aff = _solve_schur(schur, rhs_aff)
        ady_aff = _adjoint(prob, dy_aff)
        dz_aff = [r - a for r, a in zip(rd, ady_aff)]
        dx_aff = [
            _herm(-xb - xb @ dzb @ zib) for xb, dzb, zib in zip(x, dz_aff, zi)
        ]
        ap_aff = min(1.0, _max_step(x_isqrt, dx_aff))
        ad_aff = min(1.0, _max_step(z_isqrt, dz_aff))
        mu_aff = sum(
            _inner(xb + ap_aff * dxb, zb + ad_aff * dzb)
            for xb, dxb, zb, dzb in zip(x, dx_aff, z, dz_aff)
        ) / n_tot
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        cross = [dxb @ dzb @ zib for dxb, dzb, zib in zip(dx_aff, dz_aff, zi)]
        rhs = b - sigma * mu * _apply(prob, zi) + a_xrz + _apply(prob, cross)
        dy = _solve_schur(schur, rhs)
        ady2 = _adjoint(prob, dy)
        dz = [r - a for r, a in zip(rd, ady2)]
        dx = [
            _herm(sigma * mu * zib - xb - xb @ dzb @ zib - cr)
            for zib, xb, dzb, cr in zip(zi, x, dz, cross)
        ]
        ap = min(1.0, 0.98 * _max_step(x_isqrt, dx))
        ad = min(1.0, 0.98 * _max_step(z_isqrt, dz))
        x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
        y = y + ad * dy
        z = [zb + ad * dzb for zb, dzb in zip(z, dz)]

    return SdpSolution(
        status=status,
        x_blocks=x,
        y=y,
        z_blocks=z,
        pobj=pobj,
        dobj=dobj,
        gap=conic,
        iterations=iterations,
        history=history,
    )


def hermitian_basis(d: int) -> list:
    """Orthonormal basis of d x d Hermitian matrices under tr(ab)."""
    return [e.copy() for e in _basis(d).mats]


class HermitianSdp:
    """The constraints of a complex Hermitian SDP in standard block form.

    variables maps each name to its block size, in declaration order; every
    variable is one PSD Hermitian block, and a nonnegative scalar is a 1 x 1
    block. Each equality is kept as the basis coordinates of its terms and
    right-hand side, with its target size; a scalar row is the 1 x 1 case.
    The cost is not held: build and solve take it, so one builder serves
    every cost over the same constraints.
    """

    def __init__(self, variables: dict):
        self._blocks = {name: int(nb) for name, nb in variables.items()}
        self._rows = []  # per equality: ({var: row coordinates}, rhs coordinates, size)

    def _size(self, name: str) -> int:
        if name not in self._blocks:
            raise ValueError(f"undeclared variable {name}")
        return self._blocks[name]

    def add_matrix_equality(self, terms: dict, rhs: np.ndarray):
        """sum_v L_v(X_v) = rhs over Hermitian matrices.

        ``terms`` maps each variable to its adjoint map e -> L_v*(e), called
        once on the stack of all basis matrices e of the target space. A
        scalar row sum_v tr(G_v X_v) = c is the 1 x 1 case: rhs [[c]], and
        adjoint maps e -> e * G_v on the (1, 1, 1) stack.
        """
        tab = _basis(np.shape(rhs)[0])
        coords = {}
        for name, adj in terms.items():
            nb = self._size(name)
            coords[name] = _svec(_basis(nb), _hermitian(adj(tab.mats), (tab.n2, nb, nb),
                                                        f"term of {name}"))
        rhs = _svec(tab, _hermitian(rhs, (tab.nb,) * 2, "equality rhs"))
        self._rows.append((coords, rhs, tab.nb))

    def build(self, cost: dict) -> SdpProblem:
        """The problem min sum_v <C_v, X_v>; cost maps variables to C_v, zero if absent."""
        cost = {name: np.reshape(c, (self._size(name),) * 2) for name, c in cost.items()}
        b = np.concatenate([np.zeros(0)] + [rhs for _, rhs, _ in self._rows])
        coords = {name: np.zeros((b.size, nb * nb)) for name, nb in self._blocks.items()}
        start = 0
        for terms, rhs, _ in self._rows:
            for name, u in terms.items():
                coords[name][start : start + rhs.size] = u
            start += rhs.size
        c_blocks = [cost.get(name, np.zeros((nb, nb))) for name, nb in self._blocks.items()]
        return SdpProblem._from_coords(self._blocks.values(), c_blocks, coords.values(), b)

    def solve(self, cost: dict, tol: float = DEFAULT_TOL) -> SdpSolution:
        """Build with this cost and solve; return only an OPTIMAL solution.

        Any other status, a stall at the numerical floor included, raises
        SolverError.
        """
        sol = solve(self.build(cost), tol=tol)
        if sol.status is not SdpStatus.OPTIMAL:
            raise SolverError(f"solver ended with status {sol.status.value}")
        return sol

    def blocks(self, sol: SdpSolution) -> tuple:
        """The primal blocks X_v and the dual slacks Z_v of sol, each a dict by variable."""
        return dict(zip(self._blocks, sol.x_blocks)), dict(zip(self._blocks, sol.z_blocks))

    def images(self, sol: SdpSolution, skip: list) -> list:
        """Per equality k, sum_v L_v(X_v) at sol over every v but skip[k] (a name or None).

        Coordinate <E_i, L_v(X_v)> = <L_v*(E_i), X_v> is a stored row times
        svec(X_v).
        """
        x = {v: _svec(_basis(nb), xb) for (v, nb), xb in zip(self._blocks.items(), sol.x_blocks)}
        out = []
        for (terms, rhs, size), drop in zip(self._rows, skip, strict=True):
            u = sum((a @ x[v] for v, a in terms.items() if v != drop), np.zeros(rhs.size))
            out.append(_smat(_basis(size), u))
        return out
