import json
import math
from dataclasses import replace

import numpy as np
import pytest

from entwit.cli import main
from entwit.linalg import Cut, HermitianMatrix, SystemShape, partial_transpose
from entwit.measures import (
    e_nm_ppt,
    negativity,
    rg_dps2,
    rg_ppt,
    rg_ppt_closed,
    rr_ppt,
    ssr_nonlocality,
)
from entwit.spin import toth_witness
from entwit.states import isotropic, max_entangled, random_density, vc_ssr_state
from entwit.symmetry import symmetric_witness_opt
from entwit.witnesses import (
    CLASSES,
    DECOMPOSABLE_BIPARTITE,
    PART_ATOL,
    SSR_DIAGONAL,
    Witness,
    evaluate,
    mc_product_check,
    validate,
    witness_from_json,
    witness_to_json,
)


def swap_witness() -> Witness:
    # W = (P+)^{T_A}: P = 0, Q = P+
    phi = max_entangled(2).density()
    op = partial_transpose(phi, Cut([0]))
    return Witness(
        op=op,
        kind=DECOMPOSABLE_BIPARTITE,
        bounds=(math.inf, 1.0),
        parts={"P": None, "Q": [phi]},
        cuts=[Cut([0])],
    )


def test_evaluate_toth_on_mixed():
    for n in (2, 4):
        w = toth_witness(n, periodic=False)
        rho = HermitianMatrix(np.eye(2**n) / 2**n, SystemShape([2] * n))
        assert evaluate(w, rho) == pytest.approx(0.5, abs=1e-12)


def test_evaluate_dimension_mismatch():
    w = swap_witness()
    with pytest.raises(ValueError):
        evaluate(w, HermitianMatrix(np.eye(9) / 9, SystemShape([3, 3])))


def test_decomposable_positive_on_ppt():
    w = swap_witness()
    for seed in range(40):
        rho = random_density(4, seed, SystemShape([2, 2]))
        rt = partial_transpose(rho, Cut([0]))
        if np.linalg.eigvalsh(rt.mat)[0] >= 0:
            assert evaluate(w, rho) >= -1e-8


def test_validate_decomposable_good():
    rep = validate(swap_witness())
    assert rep.ok
    assert rep.worst() <= 1e-12
    rep = validate(toth_witness(4, periodic=True))
    assert rep.ok


def test_validate_decomposable_bad_part():
    phi = max_entangled(2).density()
    bad = HermitianMatrix(phi.mat - 0.1 * np.eye(4), phi.shape)
    w = Witness(
        op=partial_transpose(bad, Cut([0])),
        kind=DECOMPOSABLE_BIPARTITE,
        parts={"P": None, "Q": [bad]},
        cuts=[Cut([0])],
    )
    rep = validate(w)
    assert not rep.ok
    names = dict(rep.violations)
    assert names["Q[0] psd"] == pytest.approx(0.1, abs=1e-12)


def test_mc_product_check_identity():
    shape = SystemShape([2, 2])
    w = Witness(op=HermitianMatrix(np.eye(4), shape), kind=DECOMPOSABLE_BIPARTITE)
    assert mc_product_check(w, 50, seed=1) == pytest.approx(1.0, abs=1e-12)
    neg = Witness(op=HermitianMatrix(-np.eye(4), shape), kind=DECOMPOSABLE_BIPARTITE)
    assert mc_product_check(neg, 50, seed=1) < -0.5


def test_mc_product_check_swap_witness():
    # min over product states of (P+)^{T_A} = SWAP/2 is 0
    val = mc_product_check(swap_witness(), 500, seed=7)
    assert -1e-9 <= val < 5e-4


def test_mc_product_check_ssr_example():
    # G = -|01><10| - |10><01| goes negative on product states
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = -1.0
    w = Witness(op=HermitianMatrix(g, SystemShape([2, 2])), kind=DECOMPOSABLE_BIPARTITE)
    val = mc_product_check(w, 500, seed=3)
    assert val < -0.4


def test_json_round_trip_bit_exact():
    w = toth_witness(3, periodic=True)
    doc = witness_to_json(w)
    back = witness_from_json(doc)
    assert np.array_equal(back.op.mat, w.op.mat)
    assert back.kind == w.kind
    assert back.bounds == w.bounds
    assert back.trace_norm_choice == w.trace_norm_choice
    assert [c.party_set for c in back.cuts] == [c.party_set for c in w.cuts]
    for q0, q1 in zip(back.parts["Q"], w.parts["Q"]):
        assert np.array_equal(q0.mat, q1.mat)
    rep = validate(back)
    assert rep.ok


def test_json_infinite_bounds():
    phi = max_entangled(2).density()
    w = Witness(op=phi, kind=DECOMPOSABLE_BIPARTITE, bounds=(math.inf, math.inf))
    back = witness_from_json(witness_to_json(w))
    assert back.bounds == (math.inf, math.inf)


def test_round_trip_on_isotropic_eval():
    w = swap_witness()
    back = witness_from_json(witness_to_json(w))
    rho = isotropic(2, 0.8)
    assert evaluate(back, rho) == evaluate(w, rho)


def _state(dims, seed=5):
    shape = SystemShape(dims)
    return random_density(shape.total_dim, seed, shape)


def _shifted(w, dop, part=None):
    """w with op + dop and, if part is named, that part shifted by the same dop."""
    parts = dict(w.parts)
    if part is not None:
        parts[part] = HermitianMatrix(parts[part].mat + dop, w.op.shape)
    return replace(w, op=HermitianMatrix(w.op.mat + dop, w.op.shape), parts=parts)


def _one_negative_q():
    # Q = I - 1.1 |00><00| has the single negative eigenvalue -0.1
    q = np.eye(4)
    q[0, 0] = -0.1
    q = HermitianMatrix(q, SystemShape((2, 2)))
    return Witness(partial_transpose(q, Cut([0])), DECOMPOSABLE_BIPARTITE,
                   parts={"P": None, "Q": [q]}, cuts=[Cut([0])])


def _dps2_minus_identity():
    w = rg_dps2(_state((2, 3)), Cut([0])).witness
    w.op = HermitianMatrix(-np.eye(6), w.op.shape)
    return w


def _made_up_class():
    w = negativity(_state((2, 2)), Cut([0])).witness
    w.kind = "made-up"
    return w


def _rg_ppt_plus_identity_unbounded():
    # W + I and P + I recompose, and no m is stated: op-leq-i alone bounds
    # W <= I, which W + I breaks by about 1
    w = _shifted(rg_ppt(_state((2, 2)), Cut([0])).witness, np.eye(4), "P")
    return replace(w, bounds=(w.bounds[0], math.inf))


# (witness builder, what validate says: None for ok, the one violation over
# PART_ATOL for a rejected witness, the ValueError for a class or a
# normalisation it does not know)
PRODUCED_AND_BROKEN = {
    "negativity": (lambda: negativity(_state((2, 3)), Cut([0])).witness, None),
    "rg_ppt_closed": (lambda: rg_ppt_closed(_state((2, 3)), Cut([0])).witness, None),
    "e_nm_ppt-two-cuts": (
        lambda: e_nm_ppt(_state((2, 2, 2)), [Cut([0]), Cut([1])], 2.0, 1.0).witness, None),
    "rr_ppt": (lambda: rr_ppt(_state((3, 3)), Cut([0])).witness, None),
    "ssr_nonlocality": (lambda: ssr_nonlocality(vc_ssr_state()).witness, None),
    "rg_dps2": (lambda: rg_dps2(_state((2, 3)), Cut([0])).witness, None),
    "symmetric_witness_opt": (lambda: symmetric_witness_opt(3, 0.8, math.inf, 1.0).witness, None),
    "toth_witness": (lambda: toth_witness(4, periodic=True), None),
    "q-one-negative-eigenvalue": (_one_negative_q, "Q[0] psd"),
    "recomposition-off-by-2-part-atol": (
        lambda: _shifted(negativity(_state((2, 2)), Cut([0])).witness,
                         np.diag([2 * PART_ATOL, 0, 0, 0])), "recomposition"),
    "ssr-diag-minus-half-one": (
        lambda: Witness(HermitianMatrix(np.diag([-0.5, 1.0]), SystemShape([2])), SSR_DIAGONAL,
                        bounds=(math.inf, 1.0)), "diagonal"),
    "dps2-minus-identity": (_dps2_minus_identity, "diagonal"),
    # P takes the shift too, so that only the normalisation Tr W = D is off
    "rr_ppt-trace-off": (
        lambda: _shifted(rr_ppt(_state((2, 2)), Cut([0])).witness, 0.01 * np.eye(4) / 4, "P"),
        "trace"),
    "op-leq-i-without-m": (_rg_ppt_plus_identity_unbounded, "upper bound"),
    "unknown-class": (_made_up_class, ValueError("unknown witness class 'made-up'")),
    "unknown-normalisation": (
        lambda: replace(rg_ppt(_state((2, 2)), Cut([0])).witness, trace_norm_choice="made-up"),
        ValueError("unknown trace_norm_choice 'made-up'")),
}


@pytest.mark.parametrize("case", PRODUCED_AND_BROKEN)
def test_validate_matches_validate_witness(tmp_path, capsys, case):
    make, want = PRODUCED_AND_BROKEN[case]
    w = make()
    path = tmp_path / "w.json"
    path.write_text(witness_to_json(w))
    rc = main(["validate-witness", "--witness", str(path)])
    out, err = capsys.readouterr()
    if isinstance(want, ValueError):
        with pytest.raises(ValueError, match=str(want)):
            validate(w)
        if w.kind not in CLASSES:
            with pytest.raises(ValueError, match=str(want)):
                witness_from_json(path.read_text())
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: {want}")
        return
    rep = validate(w)
    assert [name for name, v in rep.violations if v > PART_ATOL] == ([] if want is None else [want])
    assert rep.ok is (want is None)
    assert rc == (0 if rep.ok else 1)
    doc = json.loads(out)
    assert doc == {"kind": w.kind, "ok": rep.ok, "worst": rep.worst(),
                   "violations": [list(v) for v in rep.violations], "product_min": None}
