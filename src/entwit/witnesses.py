"""Witness operators: construction, validity checks, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import Cut, HermitianMatrix, hs_inner, partial_transpose
from .states import DensityMatrix, _mat_doc, _mat_from_doc

DECOMPOSABLE_BIPARTITE = "decomposable-bipartite"
DECOMPOSABLE_MULTI = "decomposable-multi"
DPS2_CERTIFIED = "dps2-certified"
SSR_DIAGONAL = "ssr-diagonal"
CLASSES = (DECOMPOSABLE_BIPARTITE, DECOMPOSABLE_MULTI, SSR_DIAGONAL, DPS2_CERTIFIED)

TRACE_EQUALS_D = "trace-equals-d"
OP_LEQ_I = "op-leq-i"

PART_ATOL = 1e-8
PRODUCT_ATOL = 1e-6


@dataclass
class Witness:
    """A witness operator with its bound box and optional decomposition.

    ``bounds`` is (n, m) for -n I <= op <= m I; either side may be inf.
    For decomposable classes ``parts`` holds P and the list Q with one
    entry per cut in ``cuts``, so op = P + sum_c PT(Q_c, cut_c).
    """

    op: HermitianMatrix
    kind: str
    bounds: tuple = (math.inf, math.inf)
    parts: dict | None = None
    cuts: list = field(default_factory=list)
    trace_norm_choice: str | None = None


@dataclass
class ValidationReport:
    ok: bool
    violations: list

    def worst(self) -> float:
        return max((v for _, v in self.violations), default=0.0)


@dataclass
class MixingCertificate:
    """Dual data for a witness optimum in mixing form.

    Certifies rho + s pi1 = (1 + s - t) sigma + t pi2 with sigma PPT
    across the declared cuts; m s + n t reproduces the measure value.
    """

    s: float
    t: float
    sigma: DensityMatrix
    pi1: DensityMatrix
    pi2: DensityMatrix


def evaluate(w: Witness, rho: HermitianMatrix) -> float:
    """Tr(W rho). For a valid witness, max{0, -result} bounds the measure."""
    if w.op.dim != rho.dim:
        raise ValueError("dimension mismatch")
    return hs_inner(w.op, rho)


def validate(w: Witness) -> ValidationReport:
    """Check w against the rules of its class, then against its bound box.

    A decomposable witness recomposes from its parts: P and every Q psd, no Q
    beyond the last cut (it would be neither checked nor recomposed; a cut
    without its Q has Q = 0), and op = P + sum_c PT(Q_c, cut_c). An
    ssr-diagonal witness is W = I - S with S_ii <= 1, and every dps2-certified
    one has <ij|W|ij> >= 0 on the product basis, a necessary condition only,
    since the witness carries no level-2 certificate: both are checked as the
    violation ``diagonal`` = max(0, -min_i W_ii). The normalisation
    trace-equals-d is checked as ``trace`` = |Tr W - D|, and op-leq-i as the
    bound W <= I it names; the bounds (n, m) as -n <= eig <= m, with m at
    most 1 under op-leq-i. The report is ok when no violation exceeds
    PART_ATOL. ValueError for a class not in CLASSES, or a normalisation
    other than none, trace-equals-d and op-leq-i.
    """
    if w.trace_norm_choice not in (None, TRACE_EQUALS_D, OP_LEQ_I):
        raise ValueError(f"unknown trace_norm_choice {w.trace_norm_choice!r}")
    violations = []
    if _known_class(w.kind) in (DECOMPOSABLE_BIPARTITE, DECOMPOSABLE_MULTI):
        p = w.parts.get("P") if w.parts else None
        qs = w.parts.get("Q", []) if w.parts else []
        total = np.zeros((w.op.dim, w.op.dim), dtype=complex)
        if p is not None:
            violations.append(("P psd", max(0.0, -float(np.linalg.eigvalsh(p.mat)[0]))))
            total += p.mat
        if len(qs) > len(w.cuts):
            violations.append(("Q count", float(len(qs) - len(w.cuts))))
        for i, (q, cut) in enumerate(zip(qs, w.cuts)):
            lo = float(np.linalg.eigvalsh(q.mat)[0])
            violations.append((f"Q[{i}] psd", max(0.0, -lo)))
            total += partial_transpose(q, cut).mat
        violations.append(("recomposition", float(np.abs(total - w.op.mat).max())))
    else:
        violations.append(("diagonal", max(0.0, -float(np.diag(w.op.mat).real.min()))))
    if w.trace_norm_choice == TRACE_EQUALS_D:
        violations.append(("trace", abs(float(np.trace(w.op.mat).real) - w.op.dim)))
    n, m = w.bounds
    if w.trace_norm_choice == OP_LEQ_I:
        m = min(m, 1.0)
    eigs = np.linalg.eigvalsh(w.op.mat)
    if math.isfinite(n):
        violations.append(("lower bound", max(0.0, -float(eigs[0]) - n)))
    if math.isfinite(m):
        violations.append(("upper bound", max(0.0, float(eigs[-1]) - m)))
    ok = all(v <= PART_ATOL for _, v in violations)
    return ValidationReport(ok, violations)


def _known_class(kind: str) -> str:
    if kind not in CLASSES:
        raise ValueError(f"unknown witness class {kind!r}; the classes are {', '.join(CLASSES)}")
    return kind


def _effective_site_op(wt: np.ndarray, vs: list, i: int) -> np.ndarray:
    """Batched single-site operator of W after contracting the other factors."""
    k = len(vs)
    out = [chr(ord("a") + j) for j in range(k)]
    inn = [chr(ord("n") + j) for j in range(k)]
    args = [wt, "".join(out) + "".join(inn)]
    for j in range(k):
        if j == i:
            continue
        args += [vs[j].conj(), "Z" + out[j], vs[j], "Z" + inn[j]]
    expr = ",".join(args[1::2]) + "->Z" + out[i] + inn[i]
    return np.einsum(expr, *args[0::2])


def mc_product_check(w: Witness, samples: int, seed: int) -> float:
    """Minimum of <prod|W|prod> over random product vectors plus refinement.

    A return value below -PRODUCT_ATOL disproves positivity on product
    states; a nonnegative value is evidence only.
    """
    shape = w.op.require_shape()
    dims = shape.local_dims
    k = len(dims)
    rng = np.random.default_rng(seed)
    vs = []
    for d in dims:
        v = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
        vs.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    wt = w.op.mat.reshape(dims * 2)
    m0 = _effective_site_op(wt, vs, 0)
    vals = np.real(np.einsum("Za,Zab,Zb->Z", vs[0].conj(), m0, vs[0]))
    best = float(vals.min())
    keep = np.argsort(vals)[: min(1000, samples)]
    vs = [v[keep] for v in vs]
    for _ in range(200):
        for i in range(k):
            m = _effective_site_op(wt, vs, i)
            g = np.einsum("Zab,Zb->Za", m, vs[i])
            v = vs[i] - 0.1 * g
            vs[i] = v / np.linalg.norm(v, axis=1, keepdims=True)
    m0 = _effective_site_op(wt, vs, 0)
    vals = np.real(np.einsum("Za,Zab,Zb->Z", vs[0].conj(), m0, vs[0]))
    return min(best, float(vals.min()))


def witness_to_json(w: Witness) -> str:
    n, m = w.bounds
    doc = {
        "class": w.kind,
        "n": None if math.isinf(n) else n,
        "m": None if math.isinf(m) else m,
        "parts": None,
        "op": _mat_doc(w.op),
        "cuts": [list(c.party_set) for c in w.cuts],
        "dims": list(w.op.require_shape().local_dims),
        "trace_norm_choice": w.trace_norm_choice,
    }
    if w.parts is not None:
        p = w.parts.get("P")
        doc["parts"] = {
            "P": None if p is None else _mat_doc(p),
            "Q": [_mat_doc(q) for q in w.parts.get("Q", [])],
        }
    return json.dumps(doc, indent=2)


def witness_from_json(text: str) -> Witness:
    """The witness of a witness_to_json document; ValueError for a wrong shape or class."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a witness document is a JSON object, not {type(doc).__name__}")
    try:
        parts = None
        if doc.get("parts") is not None:
            p = doc["parts"].get("P")
            parts = {
                "P": None if p is None else _mat_from_doc(p),
                "Q": [_mat_from_doc(q) for q in doc["parts"].get("Q", [])],
            }
        return Witness(
            op=_mat_from_doc(doc["op"]),
            kind=_known_class(doc["class"]),
            bounds=(
                math.inf if doc.get("n") is None else float(doc["n"]),
                math.inf if doc.get("m") is None else float(doc["m"]),
            ),
            parts=parts,
            cuts=[Cut(c) for c in doc.get("cuts", [])],
            trace_norm_choice=doc.get("trace_norm_choice"),
        )
    except (TypeError, AttributeError) as err:
        # parts that is no object, or parts' Q, cuts, a cut or a bound of the wrong type
        raise ValueError(f"witness document has a field of the wrong type: {err}") from err
