"""Operational bounds fed by witness-based measure values.

Each bound takes the measure value as an input (with a provenance record)
instead of recomputing it, so certified lower bounds from rescaled
witnesses can be piped in directly; the exception is distillable_upper,
which takes the state and solves e_nm_ppt at n:1 itself.
"""

import math
from dataclasses import dataclass

from .linalg import Cut
from .measures import e_nm_ppt
from .states import DensityMatrix

TELEPORT_DMIN_UPPER = "teleport-dmin-upper"
DISTILLABLE_UPPER = "distillable-upper"
EOF_LOWER = "eof-lower"


@dataclass(frozen=True)
class BoundReport:
    quantity: str
    value: float
    inputs: dict


def teleport_dmin_upper(e_ppt_n1: float, d: int, n: float) -> BoundReport:
    """Upper bound on the best teleportation distance through the state.

    (2d/(d+1)) (1 - (1 + E)/d), clamped at 0; hits 0 once E >= d - 1.
    Only valid for n >= d.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if n < d:
        raise ValueError("bound requires n >= d")
    if e_ppt_n1 < 0:
        raise ValueError("measure value must be nonnegative")
    raw = (2.0 * d / (d + 1.0)) * (1.0 - (1.0 + e_ppt_n1) / d)
    return BoundReport(
        quantity=TELEPORT_DMIN_UPPER,
        value=max(0.0, raw),
        inputs={"e_ppt_n1": float(e_ppt_n1), "d": d, "n": float(n)},
    )


def le_n1(e_value: float) -> float:
    """Logarithmic version of the measure: log2(1 + E)."""
    if e_value < 0:
        raise ValueError("measure value must be nonnegative")
    return math.log2(1.0 + e_value)


def distillable_upper(rho: DensityMatrix, cut: Cut, n: float = 1.0) -> BoundReport:
    """Upper bound on distillable entanglement: le_n1 of the n:1 value."""
    if n < 1:
        raise ValueError("bound requires n >= 1")
    e = e_nm_ppt(rho, [cut], n, 1.0).value
    return BoundReport(
        quantity=DISTILLABLE_UPPER,
        value=le_n1(e),
        inputs={"measure": "e-nm-ppt", "n": float(n), "m": 1.0, "e_value": e},
    )


def binary_entropy(x: float) -> float:
    """Base-2 entropy with the 0 log 0 := 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    out = 0.0
    if x > 0.0:
        out -= x * math.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * math.log2(1.0 - x)
    return out


def eof_lower_rr(rr_value: float) -> BoundReport:
    """Formation lower bound H((1 + sqrt(1 - 4 R^2))/2) from a random
    robustness value (or any certified lower bound on it)."""
    if not 0.0 <= rr_value <= 0.5:
        raise ValueError("rr_value must lie in [0, 1/2]")
    x = (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * rr_value**2))) / 2.0
    return BoundReport(
        quantity=EOF_LOWER,
        value=binary_entropy(x),
        inputs={"measure": "rr", "rr_value": float(rr_value)},
    )


def eof_lower_rg(rg_value: float, d: int) -> BoundReport:
    """Formation lower bound ((log2 d - 1)/d) R_G; vacuous at d = 2."""
    if d < 2:
        raise ValueError("need d >= 2")
    if rg_value < 0:
        raise ValueError("measure value must be nonnegative")
    coeff = (math.log2(d) - 1.0) / d
    return BoundReport(
        quantity=EOF_LOWER,
        value=coeff * rg_value,
        inputs={"measure": "rg", "rg_value": float(rg_value), "d": d},
    )


def isotropic_eof_exact(d: int, fidelity: float) -> float:
    """Exact formation entanglement of isotropic states on the top branch.

    (d log2(d - 1)/(d - 2)) (F - 1) + log2 d for F in [4(d-1)/d^2, 1].
    """
    if d < 3:
        raise ValueError("closed form needs d >= 3")
    lo = 4.0 * (d - 1.0) / d**2
    if not lo - 1e-12 <= fidelity <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in [{lo}, 1]")
    return (d * math.log2(d - 1.0) / (d - 2.0)) * (fidelity - 1.0) + math.log2(d)
