"""Dense primal-dual interior-point solver for small semidefinite programs.

Standard form over block-diagonal complex Hermitian matrices:

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i,   X_b >= 0,

with <A, X> = Re tr(AX), the real inner product on Hermitian matrices;
real symmetric data is the special case with zero imaginary part. The
search direction is the HKM/HRVW one with a Mehrotra predictor-corrector;
everything is dense numpy, so a rerun on the same inputs is bit-identical.
The HermitianSdp builder assembles such problems from matrix-valued
equalities and reads primal and dual matrices back from a solution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-7
MAX_ITER = 200
DIVERGE_NORM = 1e8
HERM_ATOL = 1e-9


class SolverError(RuntimeError):
    """Raised when a measure needs an optimum but the solver returned none."""


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    DUAL_INFEASIBLE = "dual-infeasible"
    ITERATION_LIMIT = "iteration-limit"


class SdpProblem:
    """Validated problem data.

    blocks: sizes of the diagonal blocks.
    c_blocks: Hermitian cost matrix per block.
    a_blocks: per block, an (m, nb, nb) array stacking the Hermitian
        constraint matrices; row i across all blocks forms one equality.
    b: right-hand side, length m.
    """

    def __init__(self, blocks, c_blocks, a_blocks, b):
        self.blocks = [int(n) for n in blocks]
        self.b = np.asarray(b, dtype=float).reshape(-1)
        m = self.b.size
        self.c_blocks = []
        self.a_blocks = []
        for nb, c, a in zip(self.blocks, c_blocks, a_blocks, strict=True):
            c = np.asarray(c, dtype=complex)
            a = np.asarray(a, dtype=complex)
            if c.shape != (nb, nb) or a.shape != (m, nb, nb):
                raise ValueError("block data has inconsistent shapes")
            if np.abs(c - c.conj().T).max(initial=0.0) > HERM_ATOL:
                raise ValueError("cost block is not Hermitian")
            a_h = a.conj().transpose(0, 2, 1)
            if a.size and np.abs(a - a_h).max() > HERM_ATOL:
                raise ValueError("constraint block is not Hermitian")
            self.c_blocks.append(_herm(c))
            self.a_blocks.append((a + a_h) / 2)
        self._check_independence()

    def _check_independence(self):
        m = self.b.size
        if m == 0:
            return
        g = np.zeros((m, m))
        for a in self.a_blocks:
            r = a.reshape(m, -1)
            g += _re_gram(r, r)
        w = np.linalg.eigvalsh(g)
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


def _re_gram(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Re(F A^H) for row stacks F, A: entry ij is Re sum_kl F_ik conj(A_jk)."""
    return f.real @ a.real.T + f.imag @ a.imag.T


def _apply(a_blocks, mats) -> np.ndarray:
    """A(X)_i = sum_b <A_ib, X_b>."""
    out = 0.0
    for a, w in zip(a_blocks, mats):
        out = out + np.einsum("iab,ba->i", a, w).real
    return np.asarray(out)


def _adjoint(a_blocks, y):
    return [np.einsum("i,iab->ab", y, a) for a in a_blocks]


def _herm(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _max_step(s_blocks, ds_blocks) -> float:
    """Largest t with S + t dS psd, via lambda_min(S^-1/2 dS S^-1/2)."""
    t = np.inf
    for s, ds in zip(s_blocks, ds_blocks):
        w, v = np.linalg.eigh(s)
        w = np.maximum(w, w[-1] * 1e-15)
        isqrt = v / np.sqrt(w)
        lam = float(np.linalg.eigvalsh(_herm(isqrt.conj().T @ ds @ isqrt))[0])
        if lam < -1e-14:
            t = min(t, -1.0 / lam)
    return t


def _solve_schur(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    jitter = 0.0
    for _ in range(4):
        try:
            sol = np.linalg.solve(m + jitter * np.eye(m.shape[0]), rhs)
            if np.all(np.isfinite(sol)):
                return sol
        except np.linalg.LinAlgError:
            pass
        jitter = max(jitter * 100.0, 1e-12 * max(1.0, np.trace(m) / m.shape[0]))
    raise SolverError("schur system is numerically singular")


def _meets_optimal(prob, x, y, z, pobj, dobj, tol, norm_b, norm_c) -> bool:
    """Certify the published optimality bar on a stalled endpoint."""
    rp = prob.b - _apply(prob.a_blocks, x)
    if float(np.abs(rp).max(initial=0.0)) > tol * (1.0 + norm_b):
        return False
    ady = _adjoint(prob.a_blocks, y)
    rd = [c - a - zb for c, a, zb in zip(prob.c_blocks, ady, z)]
    if np.sqrt(sum(_inner(r, r) for r in rd)) > tol * (1.0 + norm_c):
        return False
    if abs(pobj - dobj) > 1e-6 * (1.0 + abs(dobj)):
        return False
    comp = np.sqrt(sum(np.linalg.norm(xb @ zb) ** 2 for xb, zb in zip(x, z)))
    return comp <= 1e-6


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

    status = SdpStatus.ITERATION_LIMIT
    history = []
    iterations = 0
    prev_mu = np.inf
    stall_count = 0
    best = None
    best_merit = np.inf
    for k in range(max_iter + 1):
        conic = sum(_inner(xb, zb) for xb, zb in zip(x, z))
        mu = conic / n_tot
        pobj = sum(_inner(c, xb) for c, xb in zip(prob.c_blocks, x))
        dobj = float(b @ y)
        rp = b - _apply(prob.a_blocks, x)
        ady = _adjoint(prob.a_blocks, y)
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
        if merit < best_merit:
            best_merit = merit
            best = ([xb.copy() for xb in x], y.copy(), [zb.copy() for zb in z])
        res_ok = rp_norm <= tol * (1.0 + norm_b) and rd_norm <= tol * (1.0 + norm_c)
        if res_ok and rel_gap <= tol:
            status = SdpStatus.OPTIMAL
            break
        # Past the double-precision floor mu stops shrinking; further steps
        # drift off the central path, so cut the run and keep the best point.
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
        # M_ij = Re tr(X A_i Z^-1 A_j) = <F_i, A_j> with F_i = X A_i Z^-1
        schur = np.zeros((m, m))
        for a, xb, zib in zip(prob.a_blocks, x, zi):
            f = np.matmul(xb, np.matmul(a, zib))
            schur += _re_gram(f.reshape(m, -1), a.reshape(m, -1))

        xrz = [xb @ r @ zib for xb, r, zib in zip(x, rd, zi)]
        rhs_aff = b + _apply(prob.a_blocks, xrz)
        dy_aff = _solve_schur(schur, rhs_aff)
        ady_aff = _adjoint(prob.a_blocks, dy_aff)
        dz_aff = [r - a for r, a in zip(rd, ady_aff)]
        dx_aff = [
            _herm(-xb - xb @ dzb @ zib) for xb, dzb, zib in zip(x, dz_aff, zi)
        ]
        ap_aff = min(1.0, _max_step(x, dx_aff))
        ad_aff = min(1.0, _max_step(z, dz_aff))
        mu_aff = sum(
            _inner(xb + ap_aff * dxb, zb + ad_aff * dzb)
            for xb, dxb, zb, dzb in zip(x, dx_aff, z, dz_aff)
        ) / n_tot
        sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

        cross = [dxb @ dzb @ zib for dxb, dzb, zib in zip(dx_aff, dz_aff, zi)]
        rhs = (
            b
            - sigma * mu * _apply(prob.a_blocks, zi)
            + _apply(prob.a_blocks, xrz)
            + _apply(prob.a_blocks, cross)
        )
        dy = _solve_schur(schur, rhs)
        ady2 = _adjoint(prob.a_blocks, dy)
        dz = [r - a for r, a in zip(rd, ady2)]
        dx = [
            _herm(sigma * mu * zib - xb - xb @ dzb @ zib - cr)
            for zib, xb, dzb, cr in zip(zi, x, dz, cross)
        ]
        ap = min(1.0, 0.98 * _max_step(x, dx))
        ad = min(1.0, 0.98 * _max_step(z, dz))
        x = [xb + ap * dxb for xb, dxb in zip(x, dx)]
        y = y + ad * dy
        z = [zb + ad * dzb for zb, dzb in zip(z, dz)]

    if status not in (SdpStatus.PRIMAL_INFEASIBLE, SdpStatus.DUAL_INFEASIBLE) and best:
        x, y, z = best
    conic = sum(_inner(xb, zb) for xb, zb in zip(x, z))
    pobj = sum(_inner(c, xb) for c, xb in zip(prob.c_blocks, x))
    dobj = float(b @ y)
    if status is SdpStatus.ITERATION_LIMIT and _meets_optimal(
        prob, x, y, z, pobj, dobj, tol, norm_b, norm_c
    ):
        status = SdpStatus.OPTIMAL
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
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    r = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = r
            out.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = -1j * r
            e[j, i] = 1j * r
            out.append(e)
    return out


class HermitianSdp:
    """Assembles complex Hermitian SDPs into the standard block form.

    Variables are either PSD Hermitian matrices or nonnegative scalars;
    each is one block, a scalar being a 1 x 1 block.
    Matrix-valued equalities are expanded over an orthonormal Hermitian
    basis of the target space; each expansion remembers its row range so
    the matrix-shaped dual variable can be reassembled from y.
    """

    def __init__(self):
        self._vars = {}
        self._order = []
        self._rows = []
        self._rhs = []
        self._cost = {}
        self._groups = {}

    def add_psd_var(self, name: str, dim: int):
        if name in self._vars:
            raise ValueError(f"duplicate variable {name}")
        self._vars[name] = ("herm", dim)
        self._order.append(name)

    def add_scalar_var(self, name: str):
        if name in self._vars:
            raise ValueError(f"duplicate variable {name}")
        self._vars[name] = ("scalar", 1)
        self._order.append(name)

    def add_matrix_equality(self, group: str, terms: dict, rhs: np.ndarray):
        """sum_v L_v(X_v) = rhs over Hermitian matrices.

        ``terms`` maps a matrix variable to the adjoint map e -> L_v*(e)
        (a callable) and a scalar variable to its coefficient matrix G_v.
        """
        r = rhs.shape[0]
        basis = hermitian_basis(r)
        start = len(self._rows)
        for e in basis:
            row = {}
            for name, spec in terms.items():
                kind, _ = self._vars[name]
                if kind == "herm":
                    row[name] = np.asarray(spec(e))
                else:
                    row[name] = float(np.real(np.trace(e @ spec)))
            self._rows.append(row)
            self._rhs.append(float(np.real(np.trace(e @ rhs))))
        self._groups[group] = (start, len(self._rows), r)

    def add_scalar_equality(self, terms: dict, rhs: float):
        """sum_v tr(G_v X_v) + sum scalars = rhs, one row."""
        row = {}
        for name, spec in terms.items():
            kind, _ = self._vars[name]
            if kind == "herm":
                row[name] = np.asarray(spec)
            else:
                row[name] = float(spec)
        self._rows.append(row)
        self._rhs.append(float(rhs))

    def set_cost(self, terms: dict):
        self._cost = dict(terms)

    def build(self) -> SdpProblem:
        m = len(self._rows)
        blocks = [self._vars[name][1] for name in self._order]
        c_blocks = []
        a_blocks = []
        for name, nb in zip(self._order, blocks):
            cost = self._cost.get(name, np.zeros((nb, nb)))
            c_blocks.append(np.reshape(cost, (nb, nb)))
            a = np.zeros((m, nb, nb), dtype=complex)
            for i, row in enumerate(self._rows):
                if name in row:
                    a[i] = np.reshape(row[name], (nb, nb))
            a_blocks.append(a)
        return SdpProblem(blocks, c_blocks, a_blocks, np.array(self._rhs))

    def solve(self, tol: float = DEFAULT_TOL) -> SdpSolution:
        sol = solve(self.build(), tol=tol)
        if sol.status is SdpStatus.OPTIMAL:
            return sol
        # A stall at the numerical floor still yields a usable endpoint; the
        # callers certify values through feasible rescaling, so accept it when
        # the duality gap is small even if short of the optimality bar.
        rel_gap = sol.gap / (1.0 + max(abs(sol.pobj), abs(sol.dobj)))
        if sol.status is SdpStatus.ITERATION_LIMIT and rel_gap <= 1e-4:
            return sol
        raise SolverError(f"solver ended with status {sol.status.value}")

    def _index(self, name: str) -> int:
        return self._order.index(name)

    def value(self, sol: SdpSolution, name: str):
        """Primal value of a variable: Hermitian matrix or scalar."""
        xb = sol.x_blocks[self._index(name)]
        return float(xb[0, 0].real) if self._vars[name][0] == "scalar" else xb

    def dual_slack(self, sol: SdpSolution, name: str):
        """Hermitian dual slack of a matrix variable (or scalar slack)."""
        zb = sol.z_blocks[self._index(name)]
        return float(zb[0, 0].real) if self._vars[name][0] == "scalar" else zb

    def dual_matrix(self, sol: SdpSolution, group: str) -> np.ndarray:
        """Matrix-shaped dual of an add_matrix_equality group."""
        start, stop, r = self._groups[group]
        basis = hermitian_basis(r)
        out = np.zeros((r, r), dtype=complex)
        for yk, e in zip(sol.y[start:stop], basis):
            out += yk * e
        return out
