"""Witness-based entanglement measures: closed forms and SDP optimizations.

Every SDP-backed value comes from one skeleton, _fit_witness, which scales
the solved witness until it is exactly feasible, so values never exceed the
true optimum. One rule repairs every measure: each equality reads
slack + (other terms) = c I, c > 0, and the other terms are divided by
s = max(1, lambda_max(their image) / c) (Jansson, Chaykin and Keil, SIAM J.
Numer. Anal. 46, 180, 2007); a lone scalar row with no slack gets image / rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    Cut,
    HermitianMatrix,
    SystemShape,
    _eigh_array,
    _herm_array,
    _pt_array,
    _ptrace_array,
    hs_inner,
)
from .sdp import HermitianSdp
from .states import DensityMatrix
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
NEG_EIG_CUT = -1e-10
DPS2_DIM_CAP = 9


@dataclass
class MeasureResult:
    value: float
    tolerance: float
    witness: Witness | None = None
    certificate: MixingCertificate | None = None


def _to_density(mat: np.ndarray, shape: SystemShape) -> DensityMatrix:
    """Clip solver-level negative eigenvalues and renormalize the trace."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    tr = w.sum()
    if tr <= 1e-9:
        return DensityMatrix(np.eye(mat.shape[0]) / mat.shape[0], shape)
    return DensityMatrix((v * (w / tr)) @ v.conj().T, shape)


def negativity_stack(rhos: np.ndarray, dims, parties):
    """The negative-eigenspace witness of each state of a stack (last two axes).

    Returns per state the negativity N (the sum of |negative eigenvalues|
    of rho^{T_parties}), the projector P onto that eigenspace, P^{T_parties}
    and its lambda_max (1 for a state with no negative eigenvalue). N is
    -0.0 for such a state. States with k negative eigenvalues are handled
    as one group: their eigenvectors are the last k columns, so each P is
    a (d, k) @ (k, d) product, as for a single state.
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
    proj_pt = _pt_array(proj, dims, parties)
    return value, proj, proj_pt, _lambda_max(proj_pt, value)


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
    value, proj, proj_pt, _ = negativity_stack(rho.mat[None], shape.local_dims, cut.party_set)
    witness = Witness(
        op=HermitianMatrix(proj_pt[0], shape),
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(math.inf, math.inf),
        parts={"P": None, "Q": [HermitianMatrix(proj[0], shape)]},
        cuts=[cut],
    )
    return MeasureResult(value=float(value[0]), tolerance=1e-12, witness=witness)


def rg_from_negativity(neg: MeasureResult) -> MeasureResult:
    """The negativity witness scaled to lambda_max = 1, so that W <= I.

    value = negativity / lambda_max(proj^{T_cut}), a certified robustness
    lower bound. A state with no negative eigenvalue has the zero witness
    and the value 0.
    """
    w = neg.witness
    lam = float(_lambda_max(w.op.mat[None], np.array([neg.value]))[0])
    shape = w.op.shape
    witness = Witness(
        op=HermitianMatrix(w.op.mat / lam, shape),
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(math.inf, 1.0),
        parts={"P": None, "Q": [HermitianMatrix(q.mat / lam, shape) for q in w.parts["Q"]]},
        cuts=list(w.cuts),
        trace_norm_choice=OP_LEQ_I,
    )
    # abs: the negativity of a state with no negative eigenvalue is -0.0
    return MeasureResult(value=abs(neg.value) / lam, tolerance=1e-12, witness=witness)


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


@dataclass
class _Fit:
    """A solved witness SDP after repair: W = offset + linear(blocks) / scale."""

    result: MeasureResult
    blocks: dict
    duals: dict
    scale: float


def _identity_multiple(rhs) -> float:
    """c for rhs = c I (a scalar rhs: c itself) with c > 0, else ValueError."""
    mat = np.atleast_2d(rhs)
    c = float(mat[0, 0].real)
    if not (c > 0 and np.array_equal(mat, c * np.eye(len(mat)))):
        raise ValueError("an equality's rhs must be c I with c > 0")
    return c


def _fit_witness(rho: DensityMatrix, variables: dict, cost: dict, equalities: list,
                 linear, offset=None, **fields) -> _Fit:
    """Build, solve, repair and report one witness SDP.

    variables maps names to block sizes (1 x 1: a nonnegative scalar). Each
    (terms, rhs, slack) is a matrix equality for a matrix rhs, else a scalar
    row; slack names the term that enters as the identity (rhs = c I, c > 0),
    or is None for a lone scalar row that must hold exactly. linear maps the
    solved blocks to the variable part of W, which is divided by the repair
    scale. The result reports max{0, -Tr(W rho)}, with Witness(W, **fields).
    """
    hs = HermitianSdp()
    for name, dim in variables.items():
        hs.add_psd_var(name, dim)
    hs.set_cost(cost)
    for k, (terms, rhs, _) in enumerate(equalities):
        if np.ndim(rhs):
            hs.add_matrix_equality(f"eq{k}", terms, rhs)
        else:
            hs.add_scalar_equality(terms, rhs)
    slacks = [slack for _, _, slack in equalities]
    if None in slacks and (len(slacks) > 1 or np.ndim(equalities[0][1])):
        raise ValueError("an equality without a slack must be a lone scalar row")
    cs = [_identity_multiple(rhs) for _, rhs, _ in equalities]
    sol = hs.solve()
    ratios = [(np.linalg.eigvalsh(img)[-1] if np.ndim(img) else img) / c
              for img, c in zip(hs.images(sol, slacks), cs)]
    scale = ratios[0] if slacks == [None] else max(1.0, *ratios)
    blocks = {name: hs.value(sol, name) for name in variables}
    w = linear(blocks) / scale
    op = HermitianMatrix(w if offset is None else offset + w, rho.require_shape())
    result = MeasureResult(max(0.0, -hs_inner(op, rho)), SDP_TOL,
                           Witness(op=op, **fields) if fields else None)
    return _Fit(result, blocks, {name: hs.dual_slack(sol, name) for name in variables}, scale)


def _pt_map(dims, parties=(), negate=False):
    """e -> e^{T_parties} or its negative; for no parties, e itself (a view, no copy)."""
    if negate:
        return lambda e: -_pt_array(e, dims, parties)
    return lambda e: _pt_array(e, dims, parties)


def _decomposable(rho, cut_list, pts, variables, equalities, **fields) -> _Fit:
    """Fit W = P + sum_c Q_c^{T_c}; pts maps "P" to () and each Q_c to cut c."""
    shape = rho.require_shape()
    dims = shape.local_dims

    def linear(blocks):
        w = 0.0
        for name, parties in pts.items():
            w = w + _pt_array(blocks[name], dims, parties)
        return w

    fit = _fit_witness(rho, variables,
                       {name: _pt_array(rho.mat, dims, ps) for name, ps in pts.items()},
                       equalities, linear, kind=_decomp_kind(cut_list), cuts=cut_list, **fields)
    parts = {name: HermitianMatrix(_psd_clip(fit.blocks[name] / fit.scale), shape)
             for name in pts}
    p_part = parts.pop("P", HermitianMatrix(np.zeros_like(rho.mat), shape))
    fit.result.witness.parts = {"P": p_part, "Q": list(parts.values())}
    return fit


def e_nm_ppt(rho: DensityMatrix, cuts, n: float, m: float) -> MeasureResult:
    """Optimal decomposable witness with bound box -nI <= W <= mI.

    value = max{0, -min Tr(W rho)} over W = P + sum_c Q_c^{T_c}, all
    parts psd. An infinite bound drops its constraint (and P, which no
    longer helps, when n is infinite). n=inf, m=1 is the PPT generalized
    robustness; m=inf gives n times the PPT best-separable-approximation
    weight. The mixing certificate comes from the SDP duals.
    """
    shape = rho.require_shape()
    cut_list = [cuts] if isinstance(cuts, Cut) else list(cuts)
    if not cut_list:
        raise ValueError("need at least one cut")
    for c in cut_list:
        c.validate(shape)
    n, m, choice = _nm_box(n, m)
    dims = shape.local_dims
    dd = shape.total_dim
    eye = np.eye(dd)

    if n == 0.0:
        # nonnegative operators detect nothing
        zero = HermitianMatrix(np.zeros((dd, dd)), shape)
        w = Witness(op=zero, kind=_decomp_kind(cut_list), bounds=(n, m),
                    parts={"P": zero, "Q": [zero] * len(cut_list)}, cuts=cut_list)
        cert = MixingCertificate(
            0.0, 0.0, _to_density(rho.mat, shape),
            _to_density(eye, shape), _to_density(eye, shape))
        return MeasureResult(0.0, SDP_TOL, w, cert)

    has_p = math.isfinite(n)
    pts = {"P": ()} if has_p else {}
    pts.update({f"Q{i}": c.party_set for i, c in enumerate(cut_list)})
    variables = dict.fromkeys(pts, dd)
    equalities = []

    def bound(slack, negate, rhs):  # slack + W = rhs, or slack - W = rhs
        variables[slack] = dd
        terms = {name: _pt_map(dims, ps, negate) for name, ps in pts.items()}
        equalities.append(({slack: _pt_map(dims), **terms}, rhs, slack))

    if math.isfinite(m):
        bound("S", False, m * eye)
    if has_p:
        bound("T", True, n * eye)
    fit = _decomposable(rho, cut_list, pts, variables, equalities, bounds=(n, m),
                        trace_norm_choice=choice)
    zero = np.zeros((dd, dd))
    u, v = fit.duals.get("S", zero), fit.duals.get("T", zero)
    s = max(0.0, float(np.trace(u).real))
    t = max(0.0, float(np.trace(v).real))
    fit.result.certificate = MixingCertificate(
        s=s, t=t,
        sigma=_to_density(fit.duals["P"] if has_p else rho.mat + u, shape),
        pi1=_to_density(u if s > 1e-9 else eye, shape),
        pi2=_to_density(v if t > 1e-9 else eye, shape),
    )
    return fit.result


def _decomp_kind(cut_list) -> str:
    return DECOMPOSABLE_BIPARTITE if len(cut_list) == 1 else DECOMPOSABLE_MULTI


def _psd_clip(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def rg_ppt(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """PPT generalized robustness: e_nm_ppt with n infinite, m = 1."""
    return e_nm_ppt(rho, [cut], math.inf, 1.0)


def rr_ppt(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """Optimal decomposable witness normalized by Tr W = D (total dim)."""
    shape = rho.require_shape()
    cut.validate(shape)
    dd = shape.total_dim
    return _decomposable(
        rho, [cut], {"P": (), "Q": cut.party_set}, {"P": dd, "Q": dd},
        [({"P": np.eye(dd), "Q": np.eye(dd)}, float(dd), None)],
        bounds=(math.inf, math.inf), trace_norm_choice=TRACE_EQUALS_D).result


def rains_fidelity(rho: DensityMatrix, cut: Cut) -> float:
    """Best singlet fraction reachable by PPT-preserving maps.

    max Tr(F rho) over 0 <= F <= I with -I/d <= F^{T_cut} <= I/d (W = -F),
    for a d x d bipartite state. The reported value comes from the rescaled
    feasible F, clamped below by the always-feasible F = I/d.
    """
    shape = rho.require_shape()
    cut.validate(shape)
    dims = shape.local_dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError("need a d x d bipartite state")
    d = dims[0]
    eye = np.eye(shape.total_dim)
    ident, pt = _pt_map(dims), _pt_map(dims, cut.party_set)
    fit = _fit_witness(
        rho, dict.fromkeys(("F", "S", "G1", "G2"), shape.total_dim), {"F": -rho.mat},
        [({"F": ident, "S": ident}, eye, "S"),
         ({"F": pt, "G1": ident}, eye / d, "G1"),
         ({"F": _pt_map(dims, cut.party_set, True), "G2": ident}, eye / d, "G2")],
        lambda blocks: -blocks["F"])
    return max(fit.result.value, 1.0 / d)


def concurrence_2q(rho: DensityMatrix) -> float:
    """Two-qubit concurrence via the spin-flip spectrum.

    Uses eigenvalues of the Hermitian sqrt(rho) rho~ sqrt(rho) rather than
    the non-Hermitian product, which keeps full double accuracy.
    """
    shape = rho.require_shape()
    if shape.local_dims != (2, 2):
        raise ValueError("concurrence_2q needs a 2 x 2 qubit pair")
    yy = np.kron(
        np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
    )
    flipped = yy @ rho.mat.conj() @ yy
    w, v = np.linalg.eigh(rho.mat)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = root @ flipped @ root
    sq = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    # rank-deficient states leave noise-level eigenvalues whose square
    # roots would pollute the alternating sum
    sq[sq < 1e-13 * max(sq[-1], 0.0)] = 0.0
    lam = np.sqrt(np.clip(sq, 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def ssr_nonlocality(rho: DensityMatrix) -> MeasureResult:
    """Witness optimization over G <= I with nonnegative diagonal.

    Detects states that need coherence between local particle-number
    sectors; separable states can score nonzero here. G = I - S, S psd.
    """
    shape = rho.require_shape()
    dd = shape.total_dim
    variables = {"S": dd, **{f"t{i}": 1 for i in range(dd)}}
    rows = [({"S": np.diag(np.eye(dd)[i]), f"t{i}": 1.0}, 1.0, f"t{i}") for i in range(dd)]
    return _fit_witness(rho, variables, {"S": -rho.mat}, rows,
                        lambda blocks: -blocks["S"], offset=np.eye(dd),
                        kind=SSR_DIAGONAL, bounds=(math.inf, 1.0)).result


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


def rg_dps2(rho: DensityMatrix, cut: Cut) -> MeasureResult:
    """Robustness-type bound from witnesses certified at extension level 2.

    Searches W <= I together with a certificate (H0, M1, M2 >= 0) that W
    is nonnegative on every state with a PPT 2-symmetric extension of the
    non-cut side, so the bound can be nonzero on PPT entangled states.
    M1 lives on A (x) Sym^2(B) like the extension (DPS, PRA 69, 022308,
    2004): the partial transpose on A commutes with the symmetric projector.
    """
    shape = rho.require_shape()
    cut.validate(shape)
    if len(shape) != 2:
        raise ValueError("need a bipartite state")
    if shape.total_dim > DPS2_DIM_CAP:
        raise ValueError(f"total dimension exceeds cap {DPS2_DIM_CAP}")
    swap = cut.party_set == (1,)
    dims = shape.local_dims[::-1] if swap else shape.local_dims
    a, b = dims
    dd = a * b

    def to_cut(mat, first):
        # reorder so that the cut side comes first, or back
        return mat.reshape(first * 2).transpose(1, 0, 3, 2).reshape(dd, dd) if swap else mat

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
    return _fit_witness(
        rho, {"Sw": dd, "H0": ds, "M1": ds, "M2": a * b * b},
        {"Sw": -to_cut(rho.mat, shape.local_dims)},
        [(terms, np.eye(ds, dtype=complex), "H0")],
        lambda blocks: -to_cut(blocks["Sw"], dims), offset=np.eye(dd),
        kind=DPS2_CERTIFIED, bounds=(math.inf, 1.0), trace_norm_choice=OP_LEQ_I).result
