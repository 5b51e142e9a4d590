"""Twirl projection and the two-parameter witness program it enables.

Averaging over U (x) U* leaves only span{P+, I}, so for isotropic states
the witness search collapses to a linear program in two scalars. That
gives an independent, solver-free route to the same optimal values.
"""

import itertools
import math

import numpy as np

from .linalg import Cut, HermitianMatrix, SystemShape, partial_transpose
from .measures import CLOSED_FORM_TOL, MeasureResult, _nm_box
from .states import max_entangled
from .witnesses import DECOMPOSABLE_BIPARTITE, Witness

LP_ATOL = 1e-11


def _plus_projector(d: int) -> np.ndarray:
    psi = max_entangled(d).vec
    return np.outer(psi, psi.conj())


def twirl_uustar(a: HermitianMatrix, d: int) -> HermitianMatrix:
    """Project onto span{P+, I} keeping Tr(a) and Tr(a P+) fixed."""
    if d < 2:
        raise ValueError("need local dimension d >= 2")
    if a.dim != d * d:
        raise ValueError(f"operator dimension {a.dim} is not {d * d}")
    plus = _plus_projector(d)
    f = float(np.real(np.trace(plus @ a.mat)))
    tr = float(np.real(np.trace(a.mat)))
    y = (tr - f) / (d * d - 1)
    x = f - y
    out = x * plus + y * np.eye(d * d)
    return HermitianMatrix(out, SystemShape((d, d)))


def _vertices(cons) -> list:
    """Feasible vertices of {g . (a, b) <= h} for 2-variable constraints."""
    pts = []
    for (g1, h1), (g2, h2) in itertools.combinations(cons, 2):
        mat = np.array([g1, g2])
        if abs(np.linalg.det(mat)) < 1e-14:
            continue
        pt = np.linalg.solve(mat, np.array([h1, h2]))
        if all(np.dot(g, pt) <= h + LP_ATOL for g, h in cons):
            pts.append(pt)
    return pts


def symmetric_witness_opt(d: int, p: float, n: float, m: float) -> MeasureResult:
    """Optimal symmetric witness a P+ + b I for the isotropic state (d, p).

    Minimizes a F + b with F = p + (1-p)/d^2 subject to the bound box
    -n <= b, a + b <= m and the decomposability conditions b >= 0,
    a + b d >= 0. Solved exactly by vertex enumeration.
    """
    if d < 2 or not 0.0 <= p <= 1.0:
        raise ValueError("need d >= 2 and p in [0, 1]")
    n, m, choice = _nm_box(n, m)
    f = p + (1.0 - p) / d**2

    cons = [((-1.0 / d, -1.0), 0.0), ((0.0, -1.0), 0.0)]
    if math.isfinite(m):
        cons += [((1.0, 1.0), m), ((0.0, 1.0), m)]
    if math.isfinite(n):
        cons += [((-1.0, -1.0), n), ((0.0, -1.0), n)]

    best = min(_vertices(cons), key=lambda pt: f * pt[0] + pt[1])
    a, b = float(best[0]), float(best[1])
    value = max(0.0, -(f * a + b))

    shape = SystemShape((d, d))
    plus = _plus_projector(d)
    w_op = HermitianMatrix(a * plus + b * np.eye(d * d), shape)
    cut = Cut([0])
    if b * d >= abs(a) - LP_ATOL:
        # W itself is a partial transpose of a psd Werner operator
        parts = {"P": None, "Q": [partial_transpose(w_op, cut)]}
    else:
        parts = {"P": w_op, "Q": []}
    witness = Witness(
        op=w_op,
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(n, m),
        parts=parts,
        cuts=[cut],
        trace_norm_choice=choice,
    )
    return MeasureResult(value=value, tolerance=CLOSED_FORM_TOL, witness=witness)
