"""Primal-dual interior-point solver for small semidefinite programs.

Standard form over block-diagonal complex Hermitian matrices:

    minimize    sum_b <C_b, X_b>
    subject to  sum_b <A_ib, X_b> = b_i,   X_b >= 0,

with <A, X> = Re tr(AX), the real inner product on Hermitian matrices;
real symmetric data is the special case with zero imaginary part. The
search direction is the HKM/HRVW one with a Mehrotra predictor-corrector;
one routine, _direction, forms the Newton step and its step lengths for
both the predictor and the corrector.

Constraints are declared and stored by their coordinates in the
orthonormal Hermitian basis E_k of hermitian_basis, never as dense
matrices; only the nonzero ones are kept, per row as indices and values
padded with zeros to the widest row of the block, in one slot-major table
per block. Every constraint the measures build has one to a few nonzero
coordinates per row. A(X) and A^T(y) are then a gather and a scatter, and
one reader, _BlockRows.row_sums, does every gather and slot sum over the
rows, for A(X) and for the Schur assembly alike. Every coordinate gather is
an np.take on index tables built once (those of _Basis, whose smat tables
are derived from its svec ones, and of each block's rows); it copies the
values that advanced indexing would, in less time.
The Schur matrix M_ij = Re tr(X A_i Z^-1 A_j) is assembled per block as
A_b H_b^T, where row i of H_b holds the coordinates of X A_i Z^-1; that
product is formed from the few nonzero rows of A_i, first A_i Z^-1 and
then X times it (sparse Schur assembly after Fujisawa, Kojima and Nakata,
Math. Prog. 79, 1997). The order matters: when Z^-1 is huge on a subspace
that no A_i reaches (a dual slack without an interior point), that part
cancels in A_i Z^-1, while forming the basis Gram of X (x) Z^-1 first would
carry it into every entry. Rows equal up to sign (e_nm_ppt's two bounds
repeat P and Q^Gamma negated) give Schur columns equal up to sign, so only
the distinct ones are formed. The Schur system itself is dense, and each
Schur matrix is stored column-major, LAPACK's order: column j is written as
one contiguous row of a transposed buffer. M is symmetric positive definite
at every interior iterate, so each iteration factors every Schur matrix once
by Cholesky, in place from its lower triangle, with numpy's own LAPACK
dpotrf, and solves the predictor's and the corrector's right-hand sides
from that factor, as SDPT3 does (Toh, Todd and Tutuncu, Optim. Methods
Softw. 11, 545, 1999), by two BLAS dtrsv calls, with L and then L^T. A
matrix without a Cholesky factor raises SolverError; nothing retries it by
LU. Two conditions fall back to a stacked np.linalg.cholesky, as the same
test, and one stacked np.linalg.solve per right-hand side: the routines do
not resolve through numpy's linalg extension, or they fail a one-time check
against np.linalg.cholesky and np.linalg.solve on a fixed system. Every step is deterministic, so a rerun
on the same inputs, at the same BLAS thread count, is bit-identical.

Constraints reach the solver only through the HermitianSdp builder, which
holds the variables, declared once as a dict of block sizes, and the
equalities. Every equality is a matrix equality, whose target-space basis
the builder maps through each term's adjoint at once; a scalar row is the
1 x 1 case, so an explicit constraint matrix G on variable v is the row
{v: lambda e: e * G}. build gives the SdpProblem of those rows, checked for
independence once, and the right-hand side b. Rows are shared by stacking:
problems with the same rows run as one stack, whatever their b. The
Hermitian check of every term image, right-hand side and cost, and the
Hermitian part (M + M^H)/2 that solve takes of the costs and the loop of
its steps, are linalg's _check_herm and _herm; term images and right-hand
sides are only checked, as _svec takes their coordinates as they stand.

Costs and right-hand sides reach the solver only through solve(prob, costs,
b): one predictor-corrector loop over a stack of K problems that share
their constraint rows and differ in the cost and in b, with a leading
problem axis on every iterate; each problem gets the arithmetic of a solve
on its own, so a problem's solution does not depend on the rest of the
stack. solve runs a long stack as sub-stacks, several at once on as many
lanes (the calling thread and helper threads, which live only for that
call) as the CPUs allow when the BLAS runs one thread per call; LAPACK,
BLAS and ufunc calls release the interpreter lock. The Schur matrices of
the sub-stacks that run at once hold at most SCHUR_STACK_ENTRIES doubles
together, which caps the memory at large m, and every problem's bytes are
those of its solve alone, whatever the lane count, and whatever the other
problems of the stack, real or complex (below). A problem leaves the stack
when it ends, and solve returns the iterate it stopped at. One rule,
_status, ends a run, read from the history record of each iterate: it
reports OPTIMAL only when the residuals and the relative gap meet
DEFAULT_TOL; otherwise a run ends when its iterates diverge or after
MAX_ITER iterations. HermitianSdp.solve returns only OPTIMAL solutions.
The builder reads the primal and dual-slack blocks back from a solution,
and each equality's image sum_v L_v(X_v), over a stack of solutions at
once, by applying the built problem's rows with _apply, the gather and
slot sum of the solve; those rows are the only copy of the coordinates
once built.

A problem with real data runs on its real rows alone. A real row touches
only diagonal and symmetric basis coordinates, an imaginary row only
antisymmetric ones. When every row is one or the other, and a problem's
cost blocks are real and its b is zero on the imaginary rows, complex
conjugation X -> conj(X) maps its feasible points to feasible points of the
same objective; this is the symmetry reduction of Gatermann and Parrilo (J.
Pure Appl. Algebra 192, 95, 2004) for that antiunitary symmetry. From the
real start every iterate is then real, each imaginary row holds
identically (<A_i, X> = 0 = b_i), and the Schur entries between real and
imaginary rows are zero, so the imaginary part of the Newton system
decouples with dy = 0 there. solve runs such a problem on
SdpProblem.real_problem, the real rows only, built on first use from the
problem's own rows with no second independence check, over the real basis
of the diagonal and symmetric elements alone (_basis(nb, real=True)). Its
loop runs in float64: X, Z, Z^-1, the eigendecompositions, the inverses and
every product are real arrays, half the memory of complex ones and a
fraction of their arithmetic. solve returns its y with zeros on the dropped
rows and its X and Z blocks as complex arrays again, which is exact, so
images still applies the full rows. This takes m from 512 to 272 at
isotropic d = 4, from 324 to 171 for fig7q's DPS2 problems and from 128 to
72 for example1's, and the Schur assembly and its factorization shrink
with m. The values differ from those of the complex loop on the full rows
by rounding only: real products and the smaller Cholesky factor sum in
another order.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_herm, _herm

DEFAULT_TOL = 1e-7
MAX_ITER = 200
# A run whose iterates pass DIVERGE_NORM has diverged. A side whose residual
# meets DEFAULT_TOL has a ray when its objective has run past DIVERGE_OBJ
# times 1 + the data norm: the primal objective down for an unbounded problem
# (dual infeasible), the dual objective up for a primal infeasible one.
DIVERGE_NORM = 1e8
DIVERGE_OBJ = 1e4


class SolverError(RuntimeError):
    """Raised when a measure needs an optimum but the solver returned none."""


class SdpStatus(enum.Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal-infeasible"
    DUAL_INFEASIBLE = "dual-infeasible"
    ITERATION_LIMIT = "iteration-limit"


class _Basis:
    """Index tables of the orthonormal basis E_k of the nb x nb Hermitian
    matrices, or with real=True of the real symmetric ones.

    The order is that of hermitian_basis: the nb diagonal units, then for
    each pair i < j the symmetric element (e_ij + e_ji)/sqrt 2 followed by
    the antisymmetric one (-i e_ij + i e_ji)/sqrt 2; the real basis drops
    the antisymmetric ones, so its dim = nb(nb + 1)/2 coordinates are the
    Hermitian ones at k < nb and nb + 2p, as nb + p. A matrix is read as
    its width floats: the real and imaginary parts of a complex one
    interleaved (width 2 nb^2), or the nb^2 entries of a real one.
    Coordinate k of M is <E_k, M> = w[0, k] M[at[0, k]] + w[1, k]
    M[at[1, k]] in that float view; these svec tables are the only ones
    written out. For smat, the real part of flat entry f of X is coef[f]
    u[k_of[f]] and, for a complex basis, its imaginary part is coef[n2 + f]
    u[k_of[n2 + f]]; k_of and coef are the svec tables inverted, each
    nonzero weight w[j, k] placing coordinate k at the float entry at[j, k].
    """

    def __init__(self, nb: int, real: bool = False):
        n2 = nb * nb
        r = 1.0 / np.sqrt(2.0)
        at = np.zeros((2, n2), dtype=np.intp)
        w = np.zeros((2, n2))
        for i in range(nb):
            at[:, i] = 2 * (i * nb + i)
            w[0, i] = 1.0
        k = nb
        for i in range(nb):
            for j in range(i + 1, nb):
                up, lo = i * nb + j, j * nb + i
                at[:, k] = (2 * lo, 2 * up)
                w[:, k] = (r, r)
                at[:, k + 1] = (2 * lo + 1, 2 * up + 1)
                w[:, k + 1] = (r, -r)
                k += 2
        if real:  # the diagonal and symmetric elements, on real parts alone
            keep = (np.arange(n2) < nb) | ((np.arange(n2) - nb) % 2 == 0)
            at, w = at[:, keep] // 2, w[:, keep]
        per = 1 if real else 2  # floats per entry
        # the inverse: float entry at[j, k] is the real part of flat entry
        # at[j, k] // per, or its imaginary part if at[j, k] % per, with weight w[j, k]
        k_of = np.zeros(per * n2, dtype=np.intp)
        coef = np.zeros(per * n2)
        used = w != 0
        part = (at % per * n2 + at // per)[used]
        k_of[part] = np.nonzero(used)[1]
        coef[part] = w[used]
        self.nb, self.n2, self.real = nb, n2, real
        self.dim, self.width = at.shape[1], per * n2
        self.dtype = np.dtype(float if real else complex)
        self.at, self.w, self.k_of, self.coef = at, w, k_of, coef
        for arr in (at, w, k_of, coef):
            arr.flags.writeable = False

    @property
    def mats(self) -> np.ndarray:
        """The basis matrices, stacked as a new (dim, nb, nb) array.

        Not cached: a resident copy (1 MB at nb = 16), made during a build,
        kept the heap beneath it from shrinking and raised the peak memory
        of the solve that follows by 3 MB at m = 512.
        """
        return _smat(self, np.eye(self.dim))


@functools.lru_cache(maxsize=None)
def _basis(nb: int, real: bool = False) -> _Basis:
    return _Basis(nb, real)


def _svec(tab: _Basis, mats: np.ndarray) -> np.ndarray:
    """Coordinates <E_k, M> = Re tr(E_k M) over the last two axes.

    For a non-Hermitian M these are the coordinates of its Hermitian part
    (symmetric part, on a real basis).
    """
    shape = np.shape(mats)[:-2] + (tab.width,)
    re = np.ascontiguousarray(mats, dtype=tab.dtype).view(float).reshape(shape)
    return (np.take(re, tab.at[0], axis=-1) * tab.w[0]
            + np.take(re, tab.at[1], axis=-1) * tab.w[1])


def _smat(tab: _Basis, u: np.ndarray) -> np.ndarray:
    """The matrix sum_k u_k E_k, over the last axis of u."""
    parts = np.take(u, tab.k_of, axis=-1) * tab.coef
    mat = parts if tab.real else parts[..., : tab.n2] + 1j * parts[..., tab.n2 :]
    return mat.reshape(np.shape(u)[:-1] + (tab.nb, tab.nb))


def _smat_rows(tab: _Basis, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows rows[i] of the matrix sum_k u[i, k] E_k, for each i."""
    f = rows[..., None] * tab.nb + np.arange(tab.nb)
    offset = np.arange(len(u))[:, None, None] * tab.dim  # of row i in the flat u
    parts = [np.take(u, offset + np.take(tab.k_of, g)) * np.take(tab.coef, g)
             for g in ((f,) if tab.real else (f, tab.n2 + f))]
    return parts[0] if tab.real else parts[0] + 1j * parts[1]


def _padded(mask: np.ndarray):
    """Each row's True indices, ascending and zero-padded to the widest row
    (one slot at least), and the mask of the slots that hold one."""
    counts = mask.sum(axis=1)
    real = np.arange(counts.max(initial=1)) < counts[:, None]
    idx = np.zeros(real.shape, dtype=np.intp)
    idx[real] = np.nonzero(mask)[1]
    return idx, real


def _slot_sum(t: np.ndarray) -> np.ndarray:
    """t summed over its slot axis -2, slot by slot in place into t[..., 0, :]."""
    for j in range(1, t.shape[-2]):
        t[..., 0, :] += t[..., j, :]
    return t[..., 0, :]


# add_schur forms its products for a slice of Schur columns whose temporaries
# hold about SCHUR_SLICE matrix entries over the whole stack (64 columns of
# one 16 x 16 problem), so they have one small size that the allocator reuses
# every iteration; sized by the block or the stack they can be mapped from the
# OS and faulted in each time.
SCHUR_SLICE = 64 * 16 * 16
# solve runs a stack as sub-stacks whose m x m Schur matrices, over the
# sub-stacks that run at once on its lanes, hold at most this many doubles
# together (4 MB: two problems at m = 512), so its memory does not grow with
# the stack or the CPU count at large m, where the Schur assembly and its
# Cholesky factorization bound the time.
SCHUR_STACK_ENTRIES = 2**19


class _BlockRows:
    """One block's constraints in a padded, slot-major row layout.

    Built from the basis coordinates of the block's rows, an (m, dim) array
    whose row 0 is the problem's row offset; the block covers the rows lo
    .. lo + span - 1. Row i (relative to lo) keeps its nonzero coordinates
    as indices cols[:, i] and values vals[:, i], padded with zero indices
    and zero values to the widest row, so a row sum is a slot sum. cols and vals have shape (slots, span), each slot one
    contiguous row: row_sums, the one reader of A(X) and of the Schur
    assembly, and A^T(y)'s scatter all take them in that order.

    Rows equal up to sign (the same cols, and the same or exactly negated
    vals; no other factor, since c x is not exact) give Schur columns equal
    up to sign. Row i is sign[i] times row first[i], its first occurrence;
    the distinct rows are the nonzero first occurrences. runs lists the
    stretches (row, distinct index, length, np.add or np.subtract) that map
    contiguous nonzero rows onto contiguous distinct rows, one run if no row
    repeats and none is zero. Each distinct row keeps the nonzero rows of its
    matrix A_i = sum_k a_ik E_k as indices nz_rows and entries row_vals,
    padded likewise.
    """

    def __init__(self, tab: _Basis, coords: np.ndarray, offset: int = 0):
        used = np.flatnonzero(coords.any(axis=1))
        block = coords[used[0] : used[-1] + 1] if used.size else coords[:0]
        keep = block != 0
        cols, real = _padded(keep)
        vals = np.zeros(real.shape)
        vals[real] = block[keep]
        self.cols, self.vals = np.ascontiguousarray(cols.T), np.ascontiguousarray(vals.T)
        # each row signed so that its first value is positive (+ 0.0 turns
        # the padding's -0.0 back into 0.0), and its first occurrence as such
        lead = np.where(vals[:, 0] < 0, -1.0, 1.0)
        signed = np.hstack([cols, lead[:, None] * vals + 0.0])
        _, at, inverse = np.unique(signed, axis=0, return_index=True, return_inverse=True)
        self.first = at[inverse.reshape(-1)]
        self.sign = lead * lead[self.first]
        # a zero row adds nothing: it gets no column and no run
        filled = vals[:, 0] != 0
        distinct = np.flatnonzero((self.first == np.arange(len(block))) & filled)
        pos = np.searchsorted(distinct, self.first)
        # row r extends row r - 1's run if it maps one further with the same sign
        extends = np.zeros(len(block), dtype=bool)
        extends[1:] = ((np.diff(pos) == 1) & (np.diff(self.sign) == 0)
                       & filled[1:] & filled[:-1])
        bounds = np.append(np.flatnonzero(~extends), len(block))
        self.runs = tuple((int(a), int(pos[a]), int(b - a),
                           np.subtract if self.sign[a] < 0 else np.add)
                          for a, b in zip(bounds[:-1], bounds[1:]) if filled[a])
        # the nonzero rows of A_i are the matrix rows its nonzero coordinates touch
        nonzero = np.zeros((block.shape[0], tab.nb), dtype=bool)
        i, k = np.nonzero(keep)
        nonzero[i[:, None], tab.at[:, k].T // (tab.width // tab.nb)] = True
        self.nz_rows, real = _padded(nonzero[distinct])
        self.row_vals = _smat_rows(tab, block[distinct], self.nz_rows)
        self.row_vals[~real] = 0.0
        self.basis = tab
        self.lo = offset + (int(used[0]) if used.size else 0)
        self.span = block.shape[0]

    def row_sums(self, u: np.ndarray) -> np.ndarray:
        """sum_k a_ik u_k for every row i of the block, over the last axis of u.

        The coordinates at each slot of every row are gathered and scaled in
        place (a fresh product array costs more), then summed slot by slot.
        """
        t = np.take(u, self.cols, axis=-1)
        t *= self.vals
        return _slot_sum(t)

    def add_schur(self, x: np.ndarray, zi: np.ndarray, out_t: np.ndarray) -> None:
        """out_t[k, j, i] += Re tr(X_k A_i Z_k^-1 A_j) over this block's rows.

        x, zi and out_t carry a leading problem axis k; out_t is the Schur
        matrix transposed, so column j goes in as one contiguous row. A_i
        Z^-1 is formed first from the nonzero rows of A_i; Z^-1 can be huge
        on a subspace no A_i reaches (a dual slack without an interior
        point), and that part cancels in this product before X scales it.
        Columns are formed for the distinct rows only, and each run adds or
        subtracts them as one slab; negation is exact, so every entry has
        the bits of a column formed from its own row.
        """
        nb = self.basis.nb
        v = (self.row_vals.reshape(-1, nb) @ zi).reshape(zi.shape[:1] + self.row_vals.shape)
        span = slice(self.lo, self.lo + self.span)
        count = len(self.nz_rows)
        step = max(1, SCHUR_SLICE // (len(zi) * nb * nb))
        for j in range(0, count, step):
            stop = min(j + step, count)
            f = np.matmul(np.take(x, self.nz_rows[j:stop], axis=2).transpose(0, 2, 1, 3),
                          v[:, j:stop])
            col = self.row_sums(_svec(self.basis, f))
            for row, first, length, add in self.runs:
                lo, hi = max(j, first), min(stop, first + length)
                if lo < hi:
                    dst = out_t[:, self.lo + row + lo - first : self.lo + row + hi - first, span]
                    add(dst, col[:, lo - j : hi - j], out=dst)


class SdpProblem:
    """The validated constraint rows of a stack of problems; costs and b go to solve.

    blocks: sizes of the diagonal blocks.
    coords: per block, an (m, nb * nb) array whose row i holds the
        coordinates of that block's constraint matrix A_i in the basis of
        hermitian_basis(nb); row i across all blocks forms one equality.
        HermitianSdp.build gives them. They are kept only as their nonzero
        entries (a_rows, one _BlockRows per block).

    The rows are checked for linear independence once, here, whatever the
    number of problems later solved over them; each problem of a stack
    brings its own right-hand side to solve. real_rows and real_problem,
    built on first use, are the rows solve runs a real-data problem on.
    """

    def __init__(self, blocks, coords):
        self.blocks = [int(n) for n in blocks]
        self.m = len(coords[0])
        for nb, u in zip(self.blocks, coords, strict=True):
            if u.shape != (self.m, nb * nb):
                raise ValueError(f"block coordinates have shape {u.shape}, not {(self.m, nb * nb)}")
        self.a_rows = tuple(_BlockRows(_basis(nb), u) for nb, u in zip(self.blocks, coords))
        self._check_independence()

    @functools.cached_property
    def real_rows(self):
        """The indices of the real rows if every row is real or imaginary and
        one at least is imaginary, else None.

        A real row touches only diagonal and symmetric basis coordinates (k <
        nb, or k - nb even), an imaginary row only antisymmetric ones.
        """
        kinds = np.zeros((2, self.m), dtype=bool)  # per row: any real, any imaginary coordinate
        for blk in self.a_rows:
            nb = blk.basis.nb
            imag = (blk.cols >= nb) & ((blk.cols - nb) % 2 == 1)
            used = blk.vals != 0
            kinds[:, blk.lo : blk.lo + blk.span] |= [(used & ~imag).any(axis=0), (used & imag).any(axis=0)]
        if (kinds[0] & kinds[1]).any() or not kinds[1].any():
            return None
        return np.flatnonzero(kinds[0])

    @functools.cached_property
    def real_problem(self) -> SdpProblem:
        """The problem of the real rows alone, in order, built from a_rows
        over the real basis of each block, on which solve runs in float64.

        Any subset of independent rows is independent, so it is not checked
        again; each block's coordinates are dense only while its rows build.
        """
        rows = self.real_rows
        a_rows = []
        for blk in self.a_rows:
            nb = blk.basis.nb
            lo, hi = np.searchsorted(rows, [blk.lo, blk.lo + blk.span])
            kept = rows[lo:hi] - blk.lo
            cols, vals = blk.cols[:, kept], blk.vals[:, kept]
            used = vals != 0
            tab = _basis(nb, real=True)
            coords = np.zeros((hi - lo, tab.dim))
            k = cols[used]  # diagonal k < nb, or symmetric k = nb + 2p, at nb + p
            coords[np.nonzero(used)[1], np.where(k < nb, k, (k + nb) // 2)] = vals[used]
            a_rows.append(_BlockRows(tab, coords, int(lo)))
        sub = SdpProblem.__new__(SdpProblem)
        sub.blocks, sub.m, sub.a_rows = self.blocks, len(rows), tuple(a_rows)
        return sub

    def _check_independence(self):
        """ValueError when the rows' Gram matrix G has lambda_min <= 1e-10 max(1, lambda_max).

        G - t I, for t = 1e-10 max(1, the largest absolute column sum of G),
        has a Cholesky factor only when lambda_min > t, and that sum bounds
        lambda_max, so a factorization that succeeds accepts the rows. It is
        the solver's own, in place, so G is the only m x m array held; the
        eigenvalues of a fresh G decide, and name the smallest, only when it
        fails.
        """
        if self.m == 0:
            return
        eye = [np.eye(nb)[None] for nb in self.blocks]
        gram_t = np.empty((1, self.m, self.m))
        gram = _schur(self, eye, eye, gram_t)[0]
        # summed in slices of rows of the buffer, G's columns: np.abs of the
        # whole matrix would be a second m x m array
        top = max(float(np.abs(gram_t[0, i : i + 64]).sum(axis=1).max()) for i in range(0, self.m, 64))
        gram[np.diag_indices(self.m)] -= 1e-10 * max(1.0, top)
        try:
            _schur_solver(gram_t, _lapack())
        except SolverError:
            w = np.linalg.eigvalsh(_schur(self, eye, eye, gram_t)[0])
            if w[0] <= 1e-10 * max(1.0, w[-1]):
                raise ValueError(
                    "equality constraints are linearly dependent "
                    f"(gram eigenvalue {w[0]:.3e})"
                ) from None


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


def _vdots(a: list, b: list) -> list:
    """sum_b <A_b[k], B_b[k]> per problem k, over two lists of block stacks.

    <A, B> = Re tr(AB) for Hermitian A, Re tr(A^H B) in general: one np.vdot
    per problem and block, so each problem's sum is that of a stack of one.
    """
    return [sum(float(np.vdot(ab[k], bb[k]).real) for ab, bb in zip(a, b))
            for k in range(len(a[0]))]


# The operators below act on a stack of problems: every X_b, Z_b and the
# Schur matrices carry a leading problem axis, y and A(X) are (K, m).


def _apply(prob: SdpProblem, mats) -> np.ndarray:
    """A(X)_i = sum_b <A_ib, X_b>, per problem."""
    out = np.zeros((len(mats[0]), prob.m))
    for blk, w in zip(prob.a_rows, mats):
        out[:, blk.lo : blk.lo + blk.span] += blk.row_sums(_svec(blk.basis, w))
    return out


def _adjoint(prob: SdpProblem, y: np.ndarray) -> list:
    """A^T(y)_b = sum_i y_i A_ib per problem, summed slot layer by slot layer.

    One np.bincount per block scatters every problem's terms, problem k into
    the bins offset by k dim; each bin adds its terms in order, as a call per
    problem would.
    """
    out = []
    count = len(y)
    for blk in prob.a_rows:
        dim = blk.basis.dim
        t = blk.vals * y[:, None, blk.lo : blk.lo + blk.span]
        idx = (np.arange(count)[:, None] * dim + blk.cols.ravel()).ravel()
        u = np.bincount(idx, t.ravel(), minlength=count * dim).reshape(count, dim)
        out.append(_smat(blk.basis, u))
    return out


def _schur(prob: SdpProblem, x, zi, out_t=None) -> np.ndarray:
    """M_ij = sum_b Re tr(X_b A_ib Z_b^-1 A_jb) per problem, column-major.

    The matrices are assembled transposed into out_t, a (K, m, m) buffer
    (a new one if not given), and returned as its transposed view.
    At X = Z = I it is the Gram matrix of the rows.
    """
    out_t = np.empty((len(x[0]), prob.m, prob.m)) if out_t is None else out_t
    out_t.fill(0.0)
    for blk, xb, zib in zip(prob.a_rows, x, zi):
        blk.add_schur(xb, zib, out_t)
    return out_t.transpose(0, 2, 1)


def _isqrt(s: np.ndarray) -> np.ndarray:
    """A factor F with F F^H = S^-1 (S^-1/2 up to a unitary), eigenvalues floored."""
    w, v = np.linalg.eigh(s)
    return v / np.sqrt(np.maximum(w, w[:, -1:] * 1e-15))[:, None, :]


def _max_step(isqrts, ds_blocks) -> np.ndarray:
    """Largest t with S + t dS psd, via lambda_min(S^-1/2 dS S^-1/2), given _isqrt(S)."""
    t = np.full(len(isqrts[0]), np.inf)
    for isqrt, ds in zip(isqrts, ds_blocks):
        lam = np.linalg.eigvalsh(_herm(isqrt.conj().swapaxes(-1, -2) @ ds @ isqrt))[:, 0]
        neg = lam < -1e-14
        t[neg] = np.minimum(t[neg], -1.0 / lam[neg])
    return t


def _schur_solver(schur_t: np.ndarray, chol):
    """The function rhs -> dy, with M_k dy_k = rhs_k for each Schur matrix M_k of the stack.

    schur_t is the C-contiguous (K, m, m) buffer that _schur fills, each M_k
    column-major. With chol, the routines of _lapack, each M_k is factored
    here by Cholesky, once and in place, from its lower triangle (the
    entries i >= j, LAPACK's uplo "L"), and each call runs only the
    triangular solves, one cho_solve per problem; without it, one stacked
    np.linalg.cholesky checks the matrices here and each call is one stacked
    np.linalg.solve on them as they stand. Either way each problem's dy does
    not depend on the rest of the stack, and a matrix that is not
    numerically positive definite, or a non-finite dy, raises SolverError.
    """
    if chol is None:
        ms = schur_t.transpose(0, 2, 1)
        try:
            np.linalg.cholesky(ms)
        except np.linalg.LinAlgError as err:
            raise SolverError("schur system is numerically singular") from err

        def solve_each(rhs):
            try:
                return _finite(np.linalg.solve(ms, rhs[..., None])[..., 0])
            except np.linalg.LinAlgError as err:
                raise SolverError("schur system is numerically singular") from err

        return solve_each
    potrf, cho_solve, itype = chol
    count, m = schur_t.shape[:2]
    # LAPACK reads and writes through raw addresses
    if schur_t.dtype != np.float64 or schur_t.shape != (count, m, m) or not schur_t.flags.c_contiguous:
        raise ValueError("the Schur stack must be a C-contiguous (K, m, m) float64 array")
    size = np.dtype(itype).itemsize
    # the order m, the vector stride 1, then an info slot per problem
    ints = np.zeros(2 + count, dtype=itype)
    ints[:2] = m, 1
    n, one = ints.ctypes.data, ints.ctypes.data + size
    per_problem = [(schur_t.ctypes.data + k * schur_t.strides[0], n + (2 + k) * size)
                   for k in range(count)]
    for a, info in per_problem:
        potrf(b"L", n, a, n, info, 1)
    if ints[2:].any():
        raise SolverError("schur system is numerically singular")

    # held keeps the arrays behind the addresses alive as long as solve_each
    def solve_each(rhs, held=(schur_t, ints)):
        dy = np.array(rhs, dtype=float, order="C")
        if dy.shape != (count, m):
            raise ValueError(f"right-hand sides have shape {dy.shape}, not {(count, m)}")
        at, step = dy.ctypes.data, dy.strides[0]
        for k, (a, _) in enumerate(per_problem):
            cho_solve(n, a, at + k * step, one)
        return _finite(dy)

    return solve_each


def _finite(dy: np.ndarray) -> np.ndarray:
    if not np.isfinite(dy).all():
        raise SolverError("schur system is numerically singular")
    return dy


@functools.lru_cache(maxsize=None)
def _lapack():
    """numpy's own LAPACK dpotrf, a solve from its factor, and the integer dtype, or None.

    The routines resolve through numpy's linalg extension, so dpotrf is the
    routine behind np.linalg.cholesky: numpy 2 wheels name them
    scipy_dpotrf_64_, numpy 1 wheels dpotrf_64_, and the extension's _ilp64
    gives the integer width. The solve, cho_solve(n, a, x, inc), overwrites
    the vector at x with M^-1 x by two BLAS dtrsv calls on the factor L at
    a, with L and then with L^T; n and inc are the addresses of the order
    and of the stride 1. On numpy's OpenBLAS, one BLAS thread, these took
    32.5 us per problem at m = 512 against 96.7 us for LAPACK's dpotrs on
    one right-hand side, and differed from it by at most 5e-18. Looked up at
    the first solve, not at import. None where the names do not resolve,
    or where, on a fixed pair of positive definite systems with two
    right-hand sides each, the factor differs in any bit from
    np.linalg.cholesky's or a solve is off np.linalg.solve's by more than
    1e-12 relative.
    """
    try:
        from numpy.linalg import _umath_linalg as ext
        lib = ctypes.CDLL(ext.__file__)
        ilp64 = bool(ext._ilp64)
    except (ImportError, AttributeError, OSError):
        return None
    suffix = "_64_" if ilp64 else "_"
    for prefix in ("scipy_", ""):
        potrf, trsv = (getattr(lib, f"{prefix}{name}{suffix}", None) for name in ("dpotrf", "dtrsv"))
        if potrf is not None and trsv is not None:
            break
    else:
        return None
    # the trailing lengths of the character arguments, for Fortran-built LAPACKs
    potrf.argtypes = [ctypes.c_char_p] + [ctypes.c_void_p] * 4 + [ctypes.c_size_t]
    trsv.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 5 + [ctypes.c_size_t] * 3
    potrf.restype = trsv.restype = None

    def cho_solve(n, a, x, inc):
        trsv(b"L", b"N", b"N", n, a, n, x, inc, 1, 1, 1)
        trsv(b"L", b"T", b"N", n, a, n, x, inc, 1, 1, 1)

    chol = potrf, cho_solve, np.int64 if ilp64 else np.intc
    # two well-conditioned positive definite systems, large enough for
    # dpotrf's blocked path, and two right-hand sides for each
    k = np.arange(2 * 96 * 96 + 4 * 96)
    draws = np.cos(0.37 * k * k)
    g, rhs = draws[: 2 * 96 * 96].reshape(2, 96, 96), draws[2 * 96 * 96 :].reshape(2, 2, 96)
    ms = g @ g.transpose(0, 2, 1) + 96.0 * np.eye(96)
    ms = (ms + ms.transpose(0, 2, 1)) / 2
    want = [np.linalg.solve(ms, r[..., None])[..., 0] for r in rhs]
    factored = ms.copy()  # symmetric, so also each matrix column-major
    try:
        solve_each = _schur_solver(factored, chol)
        got = [solve_each(r) for r in rhs]
    except SolverError:
        return None
    ok = (np.array_equal(np.tril(factored.transpose(0, 2, 1)), np.linalg.cholesky(ms))
          and all(np.abs(d - w).max() <= 1e-12 * np.abs(w).max() for d, w in zip(got, want)))
    return chol if ok else None


def solve(prob: SdpProblem, costs, b) -> list:
    """Run the predictor-corrector loop from the fixed interior start on a stack.

    costs holds one (K, nb, nb) Hermitian stack per block, and b is (K, m)
    or one row, (m,) or (1, m), for all K: problem k minimizes sum_b
    <costs[b][k], X_b> over prob's rows with right-hand side b[k]. All K
    run in one loop; the scalars of the step (mu, sigma, step lengths,
    norms), the norm of b and the inner products stay per problem, so each
    problem's iterates are bit-identical to a stack of one. A problem leaves
    the stack when it ends: OPTIMAL once its residuals and relative gap meet
    DEFAULT_TOL, an infeasibility or ITERATION_LIMIT when its iterates
    diverge, and ITERATION_LIMIT after MAX_ITER iterations.

    A problem with real data runs on prob.real_problem, the real rows
    alone, in float64: when prob.real_rows is not None, its cost blocks
    have zero imaginary parts and its b is zero on the imaginary rows. It
    gets the real part of its costs, and its y is returned with zeros on the
    dropped rows, its X and Z blocks as complex arrays. The choice is made
    per problem, so the problems on the real rows and the rest run as two
    groups, and each problem still gets the bytes of its solve alone.

    Each group runs as sub-stacks on L lanes at once, L the least of
    _lanes(), SCHUR_STACK_ENTRIES // m^2 for each group and the number of
    sub-stacks at one lane (one at least); each sub-stack of a group holds
    at most SCHUR_STACK_ENTRIES // L // m^2 problems (one at least), m that
    group's own, so the Schur matrices that run at once hold at most
    SCHUR_STACK_ENTRIES doubles, or one problem's per lane. Returns the K
    solutions in order; a sub-stack's SolverError is raised after every
    lane has stopped, the lowest sub-stack's if several fail, the real
    group's first.
    """
    count = len(costs[0])
    c = [_herm(_check_herm(cb, "cost block", (count, nb, nb)))
         for nb, cb in zip(prob.blocks, costs, strict=True)]
    b = np.broadcast_to(np.asarray(b, dtype=float), (count, prob.m))  # else ValueError
    real = np.zeros(count, dtype=bool)
    if prob.real_rows is not None:
        imag = np.ones(prob.m, dtype=bool)
        imag[prob.real_rows] = False
        real = ~b[:, imag].any(axis=1) & np.logical_and.reduce([~cb.imag.any(axis=(1, 2)) for cb in c])
    # per group: its rows, their indices in prob, its costs and the indices of its problems
    groups = []
    if real.any():
        groups.append((prob.real_problem, prob.real_rows, [cb.real for cb in c], np.flatnonzero(real)))
    if not real.all():
        groups.append((prob, np.arange(prob.m), c, np.flatnonzero(~real)))
    fits = [max(1, SCHUR_STACK_ENTRIES // max(1, sub.m**2)) for sub, *_ in groups]
    lanes = max(1, min(_lanes(), *fits, sum(-(-len(ks) // fit) for (*_, ks), fit in zip(groups, fits))))
    items = [(sub, kept, c_group, ks[lo : lo + size]) for sub, kept, c_group, ks in groups
             for size in [max(1, SCHUR_STACK_ENTRIES // lanes // max(1, sub.m**2))]
             for lo in range(0, len(ks), size)]

    def work(item):
        sub, kept, c_group, ks = item
        return _solve_stack(sub, [cb[ks] for cb in c_group], b[np.ix_(ks, kept)])

    out = [None] * count
    for (_, kept, _, ks), stack in zip(items, _run_lanes(work, items, lanes)):
        for k, sol in zip(ks, stack):
            y = np.zeros(prob.m)
            y[kept] = sol.y  # zero on the dropped rows
            sol.y = y
            # complex again, exactly, from a real group's float64 blocks
            sol.x_blocks, sol.z_blocks = ([np.asarray(w, dtype=complex) for w in ws]
                                          for ws in (sol.x_blocks, sol.z_blocks))
            out[k] = sol
    return out


def _one_blas_thread() -> bool:
    """Whether the BLAS runs one thread per call.

    OpenBLAS takes its thread count from the first of OPENBLAS_NUM_THREADS,
    GOTO_NUM_THREADS and OMP_NUM_THREADS set to a positive integer, and
    from the CPU count when none is.
    """
    values = (os.environ.get(name, "").strip()
              for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    return next((int(v) for v in values if v.isdigit() and int(v) > 0), None) == 1


def _lanes() -> int:
    """How many sub-stacks solve may run at once: one per usable CPU when
    the BLAS runs one thread per call, else one.

    Lanes on top of BLAS threads compete with them for the CPUs and ran
    slower than one lane.
    """
    if not _one_blas_thread():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_lanes(work, items, lanes: int) -> list:
    """[work(item) for item in items], on this thread and lanes - 1 helpers.

    Each lane takes the next item in order until none is left or an item
    has raised; the items before a failed one were all taken already, so
    they still run, and the error of the first failed item is raised, as a
    serial loop would raise it. Every helper is joined before this returns
    or raises. One lane is this thread alone, with no helper: it runs the
    items in order and stops at the first that raises, as a serial loop does.

    The calling thread runs a lane so that no thread more than the lanes
    holds a heap of its own. A concurrent.futures.ThreadPoolExecutor whose
    workers ran every lane gave the same bytes, but raised the peak resident
    memory (VmHWM) of `reproduce isotropic --d 4` from 50.4-50.6 to
    54.6-54.8 MB at --p-count 2 and from 55.1-55.3 to 59.8-60.0 MB at
    --p-count 8 (5 runs each, two lanes on a 2-vCPU AMD EPYC, one BLAS
    thread), most likely through that extra thread's own malloc arena.
    """
    items = list(items)
    out = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    taken = iter(range(len(items)))

    def lane():
        while True:
            with lock:
                i = None if errors else next(taken, None)
            if i is None:
                return
            try:
                out[i] = work(items[i])
            except BaseException as err:  # re-raised by the caller below
                errors[i] = err

    helpers = []
    try:
        for _ in range(lanes - 1):
            helper = threading.Thread(target=lane, name="entwit-sdp-lane")
            helper.start()
            helpers.append(helper)
        lane()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return out


def _status(rec: dict, norm: float, norm_b: float, norm_c: float):
    """How a run ends at the iterate of its history record rec, or None while it goes on.

    norm is the largest entry of that iterate's X, Z and y; norm_b and norm_c
    are the norms of the problem's b and cost. OPTIMAL when the residuals and
    the relative gap meet DEFAULT_TOL, even on a diverged iterate; past
    DIVERGE_NORM, an infeasibility when one side meets its residual bar and
    the other's objective has run away, else ITERATION_LIMIT; ITERATION_LIMIT
    at iteration MAX_ITER.
    """
    rel_gap = rec["conic"] / (1.0 + max(abs(rec["pobj"]), abs(rec["dobj"])))
    rp_ok = rec["rp"] <= DEFAULT_TOL * (1.0 + norm_b)
    rd_ok = rec["rd"] <= DEFAULT_TOL * (1.0 + norm_c)
    if rp_ok and rd_ok and rel_gap <= DEFAULT_TOL:
        return SdpStatus.OPTIMAL
    if norm > DIVERGE_NORM:
        if rp_ok and not rd_ok and rec["pobj"] < -DIVERGE_OBJ * (1.0 + norm_c):
            return SdpStatus.DUAL_INFEASIBLE
        if rd_ok and not rp_ok and rec["dobj"] > DIVERGE_OBJ * (1.0 + norm_b):
            return SdpStatus.PRIMAL_INFEASIBLE
        return SdpStatus.ITERATION_LIMIT
    return SdpStatus.ITERATION_LIMIT if rec["iter"] == MAX_ITER else None


def _direction(prob, solve_schur, rhs, rd, x, zi, lead, cross, isqrts, gamma) -> tuple:
    """The Newton step (dx, dy, dz) for the Schur right-hand side rhs, and its step lengths.

    dy comes from solve_schur, dZ = R_d - A^T(dy) and dX = herm(lead - X dZ
    Z^-1 - cross), with no cross term for cross None. The primal and dual
    step lengths ap and ad are, per problem, min(1, gamma times the largest
    step that keeps X, resp. Z, psd), given isqrts = (_isqrt(X), _isqrt(Z)).
    """
    dy = solve_schur(rhs)
    dz = [r - a for r, a in zip(rd, _adjoint(prob, dy))]
    dx = [lb - xb @ dzb @ zib for lb, xb, dzb, zib in zip(lead, x, dz, zi)]
    if cross is not None:
        dx = [d - cr for d, cr in zip(dx, cross)]
    dx = [_herm(d) for d in dx]
    ap, ad = (np.minimum(1.0, gamma * _max_step(isqrt, ds)) for isqrt, ds in zip(isqrts, (dx, dz)))
    return dx, dy, dz, ap, ad


def _solve_stack(prob: SdpProblem, c: list, b: np.ndarray) -> list:
    """solve on one sub-stack of validated cost blocks and its (K, m) b.

    The iterates take the dtype of prob's basis: float64 on a real one,
    whose cost blocks are real symmetric, else complex128.
    """
    count = len(c[0])
    dtype = prob.a_rows[0].basis.dtype
    n_tot = sum(prob.blocks)
    norm_b = np.abs(b).max(axis=1, initial=0.0).tolist()
    norm_c = [float(np.sqrt(v)) for v in _vdots(c, c)]
    tau = np.array([1.0 + max(bk, ck) for bk, ck in zip(norm_b, norm_c)])[:, None, None]
    x = [tau * np.eye(nb, dtype=dtype) for nb in prob.blocks]
    z = [tau * np.eye(nb, dtype=dtype) for nb in prob.blocks]
    y = np.zeros((count, prob.m))
    schur_t = np.empty((count, prob.m, prob.m))
    chol = _lapack()

    # every per-problem array and list runs over the active stack, in stack
    # order; ids maps each active problem to its slot in out
    ids = list(range(count))
    history = [[] for _ in ids]
    out = [None] * count
    for k in range(MAX_ITER + 1):
        conic, pobj = _vdots(x, z), _vdots(c, x)
        dobj = [float(bk @ yk) for bk, yk in zip(b, y)]
        rp = b - _apply(prob, x)
        rd = [cb - a - zb for cb, a, zb in zip(c, _adjoint(prob, y), z)]
        rp_norm = np.abs(rp).max(axis=1, initial=0.0).tolist()
        rd_norm = [float(np.sqrt(v)) for v in _vdots(rd, rd)]
        norm = np.max([np.abs(y).max(axis=1, initial=0.0)]
                      + [np.abs(w).max(axis=(1, 2)) for w in x + z], axis=0).tolist()
        keep = []
        for i in range(len(ids)):
            history[i].append({"iter": k, "mu": conic[i] / n_tot, "pobj": pobj[i], "dobj": dobj[i],
                               "rp": rp_norm[i], "rd": rd_norm[i], "conic": conic[i]})
            status = _status(history[i][-1], norm[i], norm_b[i], norm_c[i])
            if status is None:
                keep.append(i)
                continue
            out[ids[i]] = SdpSolution(
                status=status, x_blocks=[xb[i] for xb in x], y=y[i], z_blocks=[zb[i] for zb in z],
                pobj=pobj[i], dobj=dobj[i], gap=conic[i], iterations=k, history=history[i])
        if len(keep) < len(ids):
            ids, conic, norm_b, norm_c, history = ([a[i] for i in keep]
                                                   for a in (ids, conic, norm_b, norm_c, history))
            x, z, c, rd = ([a[keep] for a in arrs] for arrs in (x, z, c, rd))
            y, b = y[keep], b[keep]
            schur_t = schur_t[: len(keep)]
        if not ids:
            break

        zi = [_herm(np.linalg.inv(zb)) for zb in z]
        _schur(prob, x, zi, schur_t)
        solve_schur = _schur_solver(schur_t, chol)
        a_xrz = _apply(prob, [xb @ r @ zib for xb, r, zib in zip(x, rd, zi)])
        isqrts = [_isqrt(xb) for xb in x], [_isqrt(zb) for zb in z]

        # predictor: the affine-scaling step, up to the psd boundary
        dx, _, dz, ap, ad = _direction(prob, solve_schur, b + a_xrz, rd, x, zi,
                                       [-xb for xb in x], None, isqrts, 1.0)
        x_aff = [xb + ap[:, None, None] * dxb for xb, dxb in zip(x, dx)]
        z_aff = [zb + ad[:, None, None] * dzb for zb, dzb in zip(z, dz)]
        sigma_mu = []
        for gap, gap_aff in zip(conic, _vdots(x_aff, z_aff)):
            mu, mu_aff = gap / n_tot, gap_aff / n_tot
            # a Python float: numpy's ** rounds differently in the last bit
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))
            sigma_mu.append(sigma * mu)
        sigma_mu = np.array(sigma_mu)

        # corrector: centred on sigma mu, with the predictor's second-order term
        cross = [dxb @ dzb @ zib for dxb, dzb, zib in zip(dx, dz, zi)]
        rhs = b - sigma_mu[:, None] * _apply(prob, zi) + a_xrz + _apply(prob, cross)
        lead = [sigma_mu[:, None, None] * zib - xb for zib, xb in zip(zi, x)]
        dx, dy, dz, ap, ad = _direction(prob, solve_schur, rhs, rd, x, zi,
                                        lead, cross, isqrts, 0.98)
        x = [xb + ap[:, None, None] * dxb for xb, dxb in zip(x, dx)]
        y = y + ad[:, None] * dy
        z = [zb + ad[:, None, None] * dzb for zb, dzb in zip(z, dz)]

    return out


def hermitian_basis(d: int) -> list:
    """Orthonormal basis of d x d Hermitian matrices under tr(ab)."""
    return list(_basis(d).mats)


class HermitianSdp:
    """The constraints of a complex Hermitian SDP in standard block form.

    variables maps each name to its block size, in declaration order; every
    variable is one PSD Hermitian block, and a nonnegative scalar is a 1 x 1
    block. Each equality is kept as the basis coordinates of its terms and
    right-hand side, with its target size; a scalar row is the 1 x 1 case.
    build turns the terms into the rows of one SdpProblem, which keeps them
    from then on, and equalities can no longer be added. The cost is not
    held: solve takes a stack of costs, and a right-hand side may hold one
    matrix per problem of that stack, so one build and one solver run serve
    every problem over the same rows.
    """

    def __init__(self, variables: dict):
        self._blocks = {name: int(nb) for name, nb in variables.items()}
        self._rows = []  # per equality: ((1 or K, r*r) rhs coords, r, first row)
        self._terms = []  # per equality, until build: {var: (r*r, nb*nb) row coords}
        self._problem = None

    def _size(self, name: str) -> int:
        if name not in self._blocks:
            raise ValueError(f"undeclared variable {name}")
        return self._blocks[name]

    def add_matrix_equality(self, terms: dict, rhs: np.ndarray):
        """sum_v L_v(X_v) = rhs over Hermitian matrices.

        ``terms`` maps each variable to its adjoint map e -> L_v*(e), called
        once on the stack of all basis matrices e of the target space. rhs
        is one r x r matrix, or a (K, r, r) stack with entry k for problem k
        of the stack solved. A scalar row sum_v tr(G_v X_v) = c is the 1 x 1
        case: rhs [[c]], and adjoint maps e -> e * G_v on the (1, 1, 1) stack.
        ValueError once the rows are built.
        """
        if self._problem is not None:
            raise ValueError("the equalities are built; add every equality before build")
        tab = _basis(np.shape(rhs)[-1])
        coords = {}
        for name, adj in terms.items():
            nb = self._size(name)
            coords[name] = _svec(_basis(nb), _check_herm(adj(tab.mats), f"term of {name}",
                                                         (tab.n2, nb, nb)))
        lead = np.shape(rhs)[:-2][-1:]  # the problem axis of a stack, if any; one at most
        rhs = _svec(tab, _check_herm(rhs, "equality rhs", lead + (tab.nb,) * 2)).reshape(-1, tab.n2)
        start = sum(size * size for _, size, _ in self._rows)
        self._rows.append((rhs, tab.nb, start))
        self._terms.append(coords)

    def build(self) -> tuple:
        """The checked rows, as an SdpProblem, and b: (K, m) if an rhs is a K-stack, else (1, m).

        The rows are built and checked on the first call, which drops the
        terms' coordinates; later calls return the same SdpProblem.
        """
        count = max((len(rhs) for rhs, _, _ in self._rows), default=1)
        b = np.concatenate([np.zeros((count, 0))] + [np.broadcast_to(rhs, (count, rhs.shape[1]))
                                                     for rhs, _, _ in self._rows], axis=1)
        if self._problem is None:
            coords = {name: np.zeros((b.shape[1], nb * nb)) for name, nb in self._blocks.items()}
            for (_, size, start), terms in zip(self._rows, self._terms):
                for name, u in terms.items():
                    coords[name][start : start + size * size] = u
            self._problem = SdpProblem(self._blocks.values(), list(coords.values()))
            self._terms = None
        return self._problem, b

    def solve(self, costs: dict) -> list:
        """Build once and solve min sum_v <C_v, X_v> for a stack of costs.

        costs maps variables to their cost stacks C_v of shape (K, nb, nb)
        (one nb x nb matrix, or a number for a 1 x 1 block, is K = 1); an
        absent variable costs zero. An equality whose rhs is a stack gives
        problem k its entry k. Returns the K solutions, all OPTIMAL:
        any other status fails the whole stack with a SolverError that names
        every such problem's index and status.
        """
        costs = {name: np.reshape(c, (-1,) + (self._size(name),) * 2) for name, c in costs.items()}
        count = len(next(iter(costs.values()))) if costs else 1
        c_blocks = [costs.get(name, np.zeros((count, nb, nb))) for name, nb in self._blocks.items()]
        prob, b = self.build()
        sols = solve(prob, c_blocks, b)
        failed = [f"{sol.status.value} on problem {k} of {len(sols)}"
                  for k, sol in enumerate(sols) if sol.status is not SdpStatus.OPTIMAL]
        if failed:
            raise SolverError(f"solver ended with status {'; '.join(failed)}")
        return sols

    def blocks(self, sol: SdpSolution) -> tuple:
        """The primal blocks X_v and the dual slacks Z_v of sol, each a dict by variable."""
        return dict(zip(self._blocks, sol.x_blocks)), dict(zip(self._blocks, sol.z_blocks))

    def images(self, sols: list, skip: list) -> list:
        """Per equality e, the (K, r, r) stack of sum_v L_v(X_v) over every v but skip[e]
        (a name or None), for the K solutions sols of the built rows (solve builds them).

        Coordinate <E_i, L_v(X_v)> = <L_v*(E_i), X_v> is row i of the built
        problem applied to X_v, so each distinct skip value takes one _apply,
        the solver's own kernel, with that block set to zero. Each problem's
        images do not depend on the rest of the stack.
        """
        x = {v: np.reshape([sol.x_blocks[j] for sol in sols], (len(sols), nb, nb))
             for j, (v, nb) in enumerate(self._blocks.items())}
        applied = {drop: _apply(self._problem, [np.zeros_like(xb) if v == drop else xb
                                                for v, xb in x.items()])
                   for drop in dict.fromkeys(skip)}
        return [_smat(_basis(size), applied[drop][:, start : start + size * size])
                for (_, size, start), drop in zip(self._rows, skip, strict=True)]
