"""Witness-based entanglement measures: closed forms and SDP optimizations.

Every SDP-backed value comes from one skeleton, _fit_witness, which builds
the SDP once for a stack of states (their costs differ, the constraints do
not), solves them in one run and scales each solved witness until it is
exactly feasible, so values never exceed the true optimum. One rule repairs
every measure: each equality reads slack + (other terms) = c I, c > 0, and
the other terms are divided by s = max(1, lambda_max(their image) / c)
(Jansson, Chaykin and Keil, SIAM J. Numer. Anal. 46, 180, 2007); a lone
1 x 1 row with no slack gets image / c. c may differ from state to state,
so the states of a stack share the SDP's rows, not its right-hand side.

Every SDP measure's *_stack body opens with _stack, which checks each state
of the stack as DensityMatrix checks one. The closed forms (negativity,
its rescaling to the robustness bound |N| / lambda_max, and the
concurrence) report the tolerance CLOSED_FORM_TOL; _closed_rg is the one
expression of that bound, and _lambda_max takes its lambda_max.
_clipped_eigh is the one clipped spectrum: the psd parts of a witness
(_psd_clip), the states of a mixing certificate (_to_density) and the
square root of the state in concurrence_2q are rebuilt from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    Cut,
    HermitianMatrix,
    SystemShape,
    _check_herm,
    _eigh_array,
    _herm,
    _herm_array,
    _pt_array,
    _ptrace_array,
)
from .sdp import HermitianSdp
from .states import DensityMatrix, _check_density
from .witnesses import (
    DECOMPOSABLE_BIPARTITE,
    DECOMPOSABLE_MULTI,
    DPS2_CERTIFIED,
    OP_LEQ_I,
    SSR_DIAGONAL,
    TRACE_EQUALS_D,
    MixingCertificate,
    Witness,
)

SDP_TOL = 1e-6
# the tolerance every closed-form MeasureResult reports
CLOSED_FORM_TOL = 1e-12
NEG_EIG_CUT = -1e-10
DPS2_DIM_CAP = 9


@dataclass
class MeasureResult:
    value: float
    tolerance: float
    witness: Witness | None = None
    certificate: MixingCertificate | None = None


def _clipped_eigh(mat: np.ndarray) -> tuple:
    """The spectrum of mat's Hermitian part with its negative eigenvalues set
    to 0, and the matching eigenvector columns."""
    w, v = np.linalg.eigh(_herm(mat))
    return np.clip(w, 0.0, None), v


def _psd_clip(mat: np.ndarray) -> np.ndarray:
    """The psd part of mat's Hermitian part: its negative eigenvalues set to 0."""
    w, v = _clipped_eigh(mat)
    return (v * w) @ v.conj().T


def _to_density(mat: np.ndarray, shape: SystemShape) -> DensityMatrix:
    """Clip solver-level negative eigenvalues and renormalize the trace."""
    w, v = _clipped_eigh(mat)
    tr = w.sum()
    if tr <= 1e-9:
        return DensityMatrix(np.eye(mat.shape[0]) / mat.shape[0], shape)
    return DensityMatrix((v * (w / tr)) @ v.conj().T, shape)


def negativity_stack(rhos: np.ndarray, dims, parties):
    """The negative-eigenspace witness of each state of a stack (last two axes).

    Returns per state the negativity N (the sum of |negative eigenvalues|
    of rho^{T_parties}), the projector P onto that eigenspace and
    P^{T_parties}; a state with no negative eigenvalue has N = -0.0 and
    P = 0. The robustness lower bound of rg_from_negativity is
    _closed_rg(N, _lambda_max(P^{T_parties}, N)). States with k
    negative eigenvalues are handled as one group: their eigenvectors are
    the last k columns, so each P is a (d, k) @ (k, d) product, as for a
    single state.
    """
    w, v = _eigh_array(_pt_array(rhos, dims, parties))
    count, d = w.shape
    ks = (w < NEG_EIG_CUT).sum(axis=1)
    value = np.empty(count)
    proj = np.empty((count, d, d), dtype=complex)
    for k in set(ks.tolist()):
        group = np.flatnonzero(ks == k)
        value[group] = -w[group, d - k:].sum(axis=1)
        vn = v[group, :, d - k:]
        proj[group] = vn @ vn.conj().swapaxes(-1, -2)
    proj = _herm_array(proj)
    return value, proj, _pt_array(proj, dims, parties)


def _closed_rg(value, lam):
    """The robustness lower bound |N| / lambda_max of negativity N (a float
    or an array) and lambda_max of its witness."""
    # abs: the negativity of a state with no negative eigenvalue is -0.0
    return abs(value) / lam


def _lambda_max(ops: np.ndarray, value: np.ndarray) -> np.ndarray:
    """lambda_max of each op of a stack, and 1 where value is 0 (zero op)."""
    lam = np.ones(len(ops))
    nonzero = value != 0
    if nonzero.any():
        lam[nonzero] = np.linalg.eigvalsh(ops[nonzero])[:, -1]
    return lam


def negativity(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """Sum of |negative eigenvalues| of the partial transpose.

    The witness is the partially transposed projector onto the negative
    eigenspace; it reproduces the value exactly. ``negativity_stack`` on
    a stack of one.
    """
    shape = rho.require_shape()
    cut.validate(shape)
    value, proj, proj_pt = negativity_stack(rho.mat[None], shape.local_dims, cut.party_set)
    witness = Witness(
        op=HermitianMatrix(proj_pt[0], shape),
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(math.inf, math.inf),
        parts={"P": None, "Q": [HermitianMatrix(proj[0], shape)]},
        cuts=[cut],
    )
    return MeasureResult(value=float(value[0]), tolerance=CLOSED_FORM_TOL, witness=witness)


def rg_from_negativity(neg: MeasureResult) -> MeasureResult:
    """The negativity witness scaled to lambda_max = 1, so that W <= I.

    value = negativity / lambda_max(proj^{T_cut}), a certified robustness
    lower bound. A state with no negative eigenvalue has the zero witness
    and the value 0.
    """
    lam = float(_lambda_max(neg.witness.op.mat[None], np.array([neg.value]))[0])
    w = neg.witness
    shape = w.op.shape
    witness = Witness(
        op=HermitianMatrix(w.op.mat / lam, shape),
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(math.inf, 1.0),
        parts={"P": None, "Q": [HermitianMatrix(q.mat / lam, shape) for q in w.parts["Q"]]},
        cuts=list(w.cuts),
        trace_norm_choice=OP_LEQ_I,
    )
    return MeasureResult(_closed_rg(neg.value, lam), CLOSED_FORM_TOL, witness=witness)


def rg_ppt_closed(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """Certified robustness lower bound from the negative-eigenspace witness.

    rg_from_negativity(negativity(rho, cut)): one eigh of rho^{T_cut} and
    one eigvalsh of the witness, no SDP.
    """
    return rg_from_negativity(negativity(rho, cut))


def _check_schmidt(cs) -> np.ndarray:
    c = np.asarray(cs, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("schmidt coefficients must form a nonempty vector")
    if np.any(c < -1e-12) or np.any(np.diff(c) > 1e-10):
        raise ValueError("schmidt coefficients must be nonnegative and descending")
    if abs(np.sum(c * c) - 1.0) > 1e-8:
        raise ValueError("schmidt coefficients must have unit square sum")
    return c


def pure_rg(schmidt) -> float:
    """(sum of coefficients)^2 - 1 for a pure bipartite state."""
    c = _check_schmidt(schmidt)
    return float(np.sum(c) ** 2 - 1.0)


def pure_rr(schmidt) -> float:
    """Product of the two largest coefficients (0 for product states)."""
    c = _check_schmidt(schmidt)
    return float(c[0] * c[1]) if c.size > 1 else 0.0


def isotropic_e_n1(d: int, p: float, n: float) -> float:
    """Closed form for the n:1 family on isotropic states.

    max{0, min(n/(d-1), 1) * (d p + (1-p)/d - 1)}: linear growth in n up
    to n = d-1, constant beyond.
    """
    if d < 2 or not 0.0 <= p <= 1.0 or not n >= 0:
        raise ValueError("need d >= 2, p in [0,1], n >= 0")
    slope = min(n / (d - 1), 1.0)
    return max(0.0, slope * (d * p + (1.0 - p) / d - 1.0))


def _nm_box(n, m) -> tuple:
    """Validated (n, m) of the box -nI <= W <= mI, and its trace-norm choice."""
    n, m = float(n), float(m)
    if math.isinf(n) and math.isinf(m):
        raise ValueError("n and m cannot both be infinite")
    if not (n >= 0 and m > 0):
        raise ValueError("need n >= 0 and m > 0")
    return n, m, OP_LEQ_I if (math.isinf(n) and m == 1.0) else None


def _stack(rhos, shape: SystemShape, cuts=()) -> tuple:
    """The prologue of every *_stack body: validated cuts and a checked state stack.

    cuts (one Cut or a list of them) becomes a list, each validated on
    shape; rhos becomes a complex (K, D, D) array of states of this shape
    (an empty list: K = 0), not symmetrized, each member checked as
    DensityMatrix checks one: Hermitian, finite, of unit trace and psd.
    """
    cut_list = [cuts] if isinstance(cuts, Cut) else list(cuts)
    for c in cut_list:
        c.validate(shape)
    dd = shape.total_dim
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.shape == (0,):
        rhos = rhos.reshape(0, dd, dd)
    if rhos.ndim != 3 or rhos.shape[1:] != (dd, dd):
        raise ValueError(f"need a stack of {dd} x {dd} states, got shape {rhos.shape}")
    _check_density(_check_herm(rhos, "state"))
    return cut_list, rhos


def _per_state(value, count: int, what: str) -> np.ndarray:
    """value as a (count,) float array: one number for every state, or one per state."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), (count,)):
        raise ValueError(f"need one {what} or one per state ({count}), got shape {arr.shape}")
    return np.broadcast_to(arr, count)


@dataclass
class _Fit:
    """A solved witness SDP after repair: W = offset + linear(blocks) / scale."""

    result: MeasureResult
    blocks: dict
    duals: dict
    scale: float


def _fit_witness(rhos: np.ndarray, shape: SystemShape, variables: dict, costs: dict,
                 equalities: list, linear, offset=None, **fields) -> list:
    """Build once, solve, then repair and report one witness SDP per state of a stack.

    rhos is a (K, D, D) stack of states of this shape. variables maps names
    to block sizes (1 x 1: a nonnegative scalar), and costs maps names to
    their (K, nb, nb) cost stacks, entry k for state k. Each (terms, c,
    slack) is the matrix equality sum of terms = c I for
    HermitianSdp.add_matrix_equality, with c > 0 one number or one per
    state. slack names the term that enters as the identity, and its block
    gives the size of I; None marks a lone 1 x 1 row that must hold exactly
    (a scalar row, _scalar_row). Both are checked before anything is built.
    linear maps the solved blocks to the variable part of W, which is
    divided by the repair scale of its own problem. Each result reports
    max{0, -Tr(W rho)}, with Witness(W, **fields). Returns one _Fit per state.
    """
    slacks = [slack for _, _, slack in equalities]
    if None in slacks and len(slacks) > 1:
        raise ValueError("an equality without a slack must be a lone 1 x 1 row")
    cs = [_per_state(c, len(rhos), "equality c") for _, c, _ in equalities]
    if not all((c > 0).all() for c in cs):
        raise ValueError("an equality's c must be positive")
    hs = HermitianSdp(variables)
    for (terms, _, slack), c in zip(equalities, cs):
        hs.add_matrix_equality(terms, np.multiply.outer(c, np.eye(variables.get(slack, 1))))
    sols = hs.solve(costs)
    ratios = np.array([np.linalg.eigvalsh(img)[:, -1] / c
                       for img, c in zip(hs.images(sols, slacks), cs)])
    scales = ratios[0] if slacks == [None] else np.maximum(1.0, ratios.max(axis=0))
    fits = []
    for rho, sol, scale in zip(rhos, sols, scales, strict=True):
        blocks, duals = hs.blocks(sol)
        w = linear(blocks) / scale
        op = HermitianMatrix(w if offset is None else offset + w, shape)
        tr_w_rho = float(np.real(np.einsum("ij,ji->", op.mat, rho)))  # hs_inner on arrays
        result = MeasureResult(max(0.0, -tr_w_rho), SDP_TOL,
                               Witness(op=op, **fields) if fields else None)
        fits.append(_Fit(result, blocks, duals, scale))
    return fits


def _scalar_row(coeffs: dict, rhs, slack=None) -> tuple:
    """The row sum_v tr(G_v X_v) = rhs as a 1 x 1 equality of _fit_witness.

    G_v is a matrix, or a number for a 1 x 1 block; its adjoint map is
    e -> e * G_v.
    """
    return {name: (lambda e, g=g: e * g) for name, g in coeffs.items()}, rhs, slack


def _pt_map(dims, parties=(), negate=False):
    """e -> e^{T_parties} or its negative; for no parties, e itself (a view, no copy)."""
    if negate:
        return lambda e: -_pt_array(e, dims, parties)
    return lambda e: _pt_array(e, dims, parties)


def _decomposable(rhos, shape, cut_list, pts, variables, equalities, **fields) -> list:
    """Fit W = P + sum_c Q_c^{T_c} per state; pts maps "P" to () and each Q_c to cut c."""
    dims = shape.local_dims

    def linear(blocks):
        w = 0.0
        for name, parties in pts.items():
            w = w + _pt_array(blocks[name], dims, parties)
        return w

    fits = _fit_witness(rhos, shape, variables,
                        {name: _pt_array(rhos, dims, ps) for name, ps in pts.items()},
                        equalities, linear, kind=_decomp_kind(cut_list), cuts=cut_list, **fields)
    for fit in fits:
        parts = {name: HermitianMatrix(_psd_clip(fit.blocks[name] / fit.scale), shape)
                 for name in pts}
        p_part = parts.pop("P", HermitianMatrix(np.zeros((shape.total_dim,) * 2), shape))
        fit.result.witness.parts = {"P": p_part, "Q": list(parts.values())}
    return fits


def e_nm_ppt_stack(rhos: np.ndarray, shape: SystemShape, cuts, n, m: float) -> list:
    """Optimal decomposable witness with bound box -n_k I <= W <= mI, per state k.

    rhos is a (K, D, D) stack of states of this shape, and n one value for
    all of them or one per state; returns one MeasureResult per state.
    value = max{0, -min Tr(W rho)} over W = P + sum_c Q_c^{T_c}, all parts
    psd. An infinite bound drops its constraint (and P, which no longer
    helps, when n is infinite). n=inf, m=1 is the PPT generalized
    robustness; m=inf gives n times the PPT best-separable-approximation
    weight. The mixing certificate comes from the SDP duals. The
    constraint rows depend only on whether n is 0, finite or infinite, so
    each of these groups is built once and its K costs and right-hand sides
    run through one solver loop.
    """
    cut_list, rhos = _stack(rhos, shape, cuts)
    if not cut_list:
        raise ValueError("need at least one cut")
    ns = _per_state(n, len(rhos), "n")
    # m, and a scalar n, are checked also when the stack is empty
    for nk in ns if np.ndim(n) else [n]:
        _nm_box(nk, m)
    _nm_box(0.0, m)
    kinds = np.sign(ns) + np.isinf(ns)  # 0, 1 or 2: n is 0, finite or infinite
    out = {}
    for kind in set(kinds.tolist()):
        idx = np.flatnonzero(kinds == kind).tolist()
        out.update(zip(idx, _e_nm_group(rhos[idx], shape, cut_list, ns[idx], float(m))))
    return [out[k] for k in range(len(rhos))]


def _e_nm_group(rhos, shape, cut_list, ns, m) -> list:
    """e_nm_ppt_stack on states whose n are all 0, all finite or all infinite."""
    dims = shape.local_dims
    dd = shape.total_dim
    eye = np.eye(dd)
    if ns[0] == 0.0:
        # nonnegative operators detect nothing
        zero = HermitianMatrix(np.zeros((dd, dd)), shape)
        return [MeasureResult(0.0, SDP_TOL,
                              Witness(op=zero, kind=_decomp_kind(cut_list), bounds=(float(nk), m),
                                      parts={"P": zero, "Q": [zero] * len(cut_list)},
                                      cuts=cut_list),
                              MixingCertificate(0.0, 0.0, _to_density(rho, shape),
                                                _to_density(eye, shape), _to_density(eye, shape)))
                for rho, nk in zip(rhos, ns)]

    has_p = math.isfinite(ns[0])
    pts = {"P": ()} if has_p else {}
    pts.update({f"Q{i}": c.party_set for i, c in enumerate(cut_list)})
    variables = dict.fromkeys(pts, dd)
    equalities = []

    def bound(slack, negate, c):  # slack + W = c I, or slack - W = c I
        variables[slack] = dd
        terms = {name: _pt_map(dims, ps, negate) for name, ps in pts.items()}
        equalities.append(({slack: _pt_map(dims), **terms}, c, slack))

    if math.isfinite(m):
        bound("S", False, m)
    if has_p:
        bound("T", True, ns)
    choice = _nm_box(ns[0], m)[2]
    fits = _decomposable(rhos, shape, cut_list, pts, variables, equalities,
                         trace_norm_choice=choice)
    zero = np.zeros((dd, dd))
    for rho, nk, fit in zip(rhos, ns, fits):
        fit.result.witness.bounds = (float(nk), m)
        u, v = fit.duals.get("S", zero), fit.duals.get("T", zero)
        s = max(0.0, float(np.trace(u).real))
        t = max(0.0, float(np.trace(v).real))
        fit.result.certificate = MixingCertificate(
            s=s, t=t,
            sigma=_to_density(fit.duals["P"] if has_p else rho + u, shape),
            pi1=_to_density(u if s > 1e-9 else eye, shape),
            pi2=_to_density(v if t > 1e-9 else eye, shape),
        )
    return [fit.result for fit in fits]


def e_nm_ppt(rho: DensityMatrix, cuts, n: float, m: float) -> MeasureResult:
    """e_nm_ppt_stack on a stack of one state."""
    return e_nm_ppt_stack(rho.mat[None], rho.require_shape(), cuts, n, m)[0]


def _decomp_kind(cut_list) -> str:
    return DECOMPOSABLE_BIPARTITE if len(cut_list) == 1 else DECOMPOSABLE_MULTI


def rg_ppt(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """PPT generalized robustness: e_nm_ppt with n infinite, m = 1."""
    return e_nm_ppt(rho, [cut], math.inf, 1.0)


def rr_ppt_stack(rhos: np.ndarray, shape: SystemShape, cut: Cut) -> list:
    """Optimal decomposable witness normalized by Tr W = D (total dim), per state of a stack."""
    (cut,), rhos = _stack(rhos, shape, cut)
    dd = shape.total_dim
    return [fit.result for fit in _decomposable(
        rhos, shape, [cut], {"P": (), "Q": cut.party_set}, {"P": dd, "Q": dd},
        [_scalar_row({"P": np.eye(dd), "Q": np.eye(dd)}, dd)],
        bounds=(math.inf, math.inf), trace_norm_choice=TRACE_EQUALS_D)]


def rr_ppt(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """rr_ppt_stack on a stack of one state."""
    return rr_ppt_stack(rho.mat[None], rho.require_shape(), cut)[0]


def rains_fidelity_stack(rhos: np.ndarray, shape: SystemShape, cut: Cut) -> list:
    """Best singlet fraction reachable by PPT-preserving maps, per state of a stack.

    max Tr(F rho) over 0 <= F <= I with -I/d <= F^{T_cut} <= I/d (W = -F),
    for d x d bipartite states. Each reported value comes from the rescaled
    feasible F, clamped below by the always-feasible F = I/d; no witness.
    """
    (cut,), rhos = _stack(rhos, shape, cut)
    dims = shape.local_dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError("need a d x d bipartite state")
    d = dims[0]
    ident, pt = _pt_map(dims), _pt_map(dims, cut.party_set)
    return [MeasureResult(max(fit.result.value, 1.0 / d), SDP_TOL) for fit in _fit_witness(
        rhos, shape, dict.fromkeys(("F", "S", "G1", "G2"), shape.total_dim), {"F": -rhos},
        [({"F": ident, "S": ident}, 1.0, "S"),
         ({"F": pt, "G1": ident}, 1.0 / d, "G1"),
         ({"F": _pt_map(dims, cut.party_set, True), "G2": ident}, 1.0 / d, "G2")],
        lambda blocks: -blocks["F"])]


def rains_fidelity(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """rains_fidelity_stack on a stack of one state."""
    return rains_fidelity_stack(rho.mat[None], rho.require_shape(), cut)[0]


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flip spectrum.

    Uses eigenvalues of the Hermitian sqrt(rho) rho~ sqrt(rho) rather than
    the non-Hermitian product, which keeps full double accuracy.
    """
    shape = rho.require_shape()
    if shape.local_dims != (2, 2):
        raise ValueError("concurrence_2q needs a 2 x 2 qubit pair")
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    flipped = yy @ rho.mat.conj() @ yy
    w, v = _clipped_eigh(rho.mat)
    root = (v * np.sqrt(w)) @ v.conj().T
    inner = root @ flipped @ root
    sq = np.linalg.eigvalsh(_herm(inner))
    # rank-deficient states leave noise-level eigenvalues whose square
    # roots would pollute the alternating sum
    sq[sq < 1e-13 * max(sq[-1], 0.0)] = 0.0
    lam = np.sqrt(np.clip(sq, 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def ssr_nonlocality_stack(rhos: np.ndarray, shape: SystemShape) -> list:
    """Witness optimization over G <= I with nonnegative diagonal, per state of a stack.

    Detects states that need coherence between local particle-number
    sectors; separable states can score nonzero here. G = I - S, S psd.
    """
    _, rhos = _stack(rhos, shape)
    dd = shape.total_dim
    variables = {"S": dd, **{f"t{i}": 1 for i in range(dd)}}
    rows = [_scalar_row({"S": np.diag(np.eye(dd)[i]), f"t{i}": 1.0}, 1.0, f"t{i}")
            for i in range(dd)]
    return [fit.result for fit in _fit_witness(
        rhos, shape, variables, {"S": -rhos}, rows, lambda blocks: -blocks["S"],
        offset=np.eye(dd), kind=SSR_DIAGONAL, bounds=(math.inf, 1.0))]


def ssr_nonlocality(rho: DensityMatrix) -> MeasureResult:
    """ssr_nonlocality_stack on a stack of one state."""
    return ssr_nonlocality_stack(rho.mat[None], rho.require_shape())[0]


def _sym_isometry(b: int) -> np.ndarray:
    cols = []
    for i in range(b):
        for j in range(i, b):
            v = np.zeros(b * b)
            if i == j:
                v[i * b + j] = 1.0
            else:
                v[i * b + j] = v[j * b + i] = 1.0 / np.sqrt(2.0)
            cols.append(v)
    return np.array(cols).T


def rg_dps2_stack(rhos: np.ndarray, shape: SystemShape, cut: Cut) -> list:
    """Robustness-type bound from witnesses certified at extension level 2, per state.

    rhos is a (K, D, D) stack of bipartite states of this shape. Searches W
    <= I together with a certificate (H0, M1, M2 >= 0) that W is
    nonnegative on every state with a PPT 2-symmetric extension of the
    non-cut side, so the bound can be nonzero on PPT entangled states. M1
    lives on A (x) Sym^2(B) like the extension (DPS, PRA 69, 022308, 2004):
    the partial transpose on A commutes with the symmetric projector. The
    constraints do not depend on the states, so the SDP is built once and
    its K costs run through one solver loop.
    """
    (cut,), rhos = _stack(rhos, shape, cut)
    if len(shape) != 2:
        raise ValueError("need a bipartite state")
    if shape.total_dim > DPS2_DIM_CAP:
        raise ValueError(f"total dimension exceeds cap {DPS2_DIM_CAP}")
    swap = cut.party_set == (1,)
    dims = shape.local_dims[::-1] if swap else shape.local_dims
    a, b = dims
    dd = a * b

    def to_cut(mats, first):
        # reorder the last two axes so that the cut side comes first, or back
        t = mats.reshape(mats.shape[:-2] + first * 2)
        return t.swapaxes(-4, -3).swapaxes(-2, -1).reshape(mats.shape) if swap else mats

    # isometry from A (x) sym^2(B) into the extension space A (x) B1 (x) B2
    iso = np.kron(np.eye(a), _sym_isometry(b))
    ds = iso.shape[1]
    ext = (a, b, b)

    def lift(e):
        return iso @ e @ iso.conj().T

    terms = {
        "Sw": lambda e: _ptrace_array(lift(e), ext, (0, 1)),
        "H0": lambda e: e,
        "M1": lambda e: iso.conj().T @ _pt_array(lift(e), ext, (0,)) @ iso,
        "M2": lambda e: _pt_array(lift(e), ext, (2,)),
    }
    return [fit.result for fit in _fit_witness(
        rhos, shape, {"Sw": dd, "H0": ds, "M1": ds, "M2": a * b * b},
        {"Sw": -to_cut(rhos, shape.local_dims)},
        [(terms, 1.0, "H0")],
        lambda blocks: -to_cut(blocks["Sw"], dims), offset=np.eye(dd),
        kind=DPS2_CERTIFIED, bounds=(math.inf, 1.0), trace_norm_choice=OP_LEQ_I)]


def rg_dps2(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """rg_dps2_stack on a stack of one state."""
    return rg_dps2_stack(rho.mat[None], rho.require_shape(), cut)[0]
