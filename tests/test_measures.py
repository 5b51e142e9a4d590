import dataclasses
import math

import numpy as np
import pytest

from entwit import measures, sdp
from entwit.linalg import Cut, SystemShape, _pt_array
from entwit.measures import (
    _sym_isometry,
    concurrence_2q,
    e_nm_ppt,
    isotropic_e_n1,
    negativity,
    pure_rg,
    pure_rr,
    rains_fidelity,
    rg_dps2,
    rg_ppt,
    rg_ppt_closed,
    rr_ppt,
    ssr_nonlocality,
)
from entwit.states import (
    DensityMatrix,
    PureState,
    horodecki_3x3,
    isotropic,
    max_entangled,
    random_density,
    random_pure,
    schmidt,
    vc_ssr_state,
)
from entwit.witnesses import OP_LEQ_I, evaluate, validate_decomposable

CUT_A = Cut([0])
Q22 = SystemShape([2, 2])


def bell() -> DensityMatrix:
    return max_entangled(2).density()


def test_bell_pins():
    rho = bell()
    assert negativity(rho, CUT_A).value == pytest.approx(0.5, abs=1e-12)
    assert rg_ppt_closed(rho, CUT_A).value == pytest.approx(1.0, abs=1e-12)
    assert rg_ppt(rho, CUT_A).value == pytest.approx(1.0, abs=1e-6)
    assert e_nm_ppt(rho, [CUT_A], 1.0, 1.0).value == pytest.approx(1.0, abs=1e-6)
    assert rr_ppt(rho, CUT_A).value == pytest.approx(2.0, abs=1e-6)
    assert rains_fidelity(rho, CUT_A) == pytest.approx(1.0, abs=1e-6)
    assert concurrence_2q(rho) == pytest.approx(1.0, abs=1e-12)


def test_negativity_witness_reproduces_value():
    for seed in range(6):
        rho = random_density(4, seed, Q22)
        res = negativity(rho, CUT_A)
        assert evaluate(res.witness, rho) == pytest.approx(-res.value, abs=1e-12)
        assert validate_decomposable(res.witness).ok


def test_negativity_zero_on_ppt():
    rho = isotropic(2, 1.0 / 3.0)
    assert negativity(rho, CUT_A).value == pytest.approx(0.0, abs=1e-12)
    res = rg_ppt_closed(rho, CUT_A)
    # +0.0, even though the negativity of this state is -0.0
    assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0
    w = res.witness
    assert not np.any(w.op.mat)
    assert [np.any(q.mat) for q in w.parts["Q"]] == [False]
    assert w.bounds == (math.inf, 1.0) and w.trace_norm_choice == OP_LEQ_I


def test_rg_ppt_closed_rescales_negativity():
    seen = 0
    for dims in ((2, 2), (2, 3), (3, 3)):
        shape = SystemShape(dims)
        for seed in range(8):
            rho = random_density(shape.total_dim, seed, shape)
            for cut in (CUT_A, Cut([1])):
                neg = negativity(rho, cut)
                if neg.value <= 0.0:
                    continue
                seen += 1
                lam = np.linalg.eigvalsh(neg.witness.op.mat)[-1]
                res = rg_ppt_closed(rho, cut)
                assert res.value == neg.value / lam
                assert np.linalg.eigvalsh(res.witness.op.mat)[-1] == pytest.approx(1.0, abs=1e-12)
                assert res.witness.cuts == [cut]
    assert seen >= 10


def test_pure_coefficient_forms():
    assert pure_rg([1.0]) == 0.0
    assert pure_rr([1.0]) == 0.0
    c = np.sqrt([0.5, 0.5])
    assert pure_rg(c) == pytest.approx(1.0, abs=1e-12)
    assert pure_rr(c) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        pure_rg([0.5, 0.5])
    with pytest.raises(ValueError):
        pure_rg([0.3, np.sqrt(1 - 0.09)])


def test_pure_state_relations():
    # negativity = pure_rg / 2 exactly; the SDP agrees with the closed form
    for seed in range(8):
        psi = random_pure(4, seed, Q22)
        cs = schmidt(psi, CUT_A)
        rho = psi.density()
        assert negativity(rho, CUT_A).value == pytest.approx(
            pure_rg(cs) / 2, abs=1e-10
        )
        v = rg_ppt(rho, CUT_A).value
        assert v == pytest.approx(pure_rg(cs), abs=1e-5)
        assert v <= pure_rg(cs) + 1e-8


def test_concurrence_matches_pure_rr():
    for seed in range(10):
        psi = random_pure(4, seed + 50, Q22)
        want = 2.0 * pure_rr(schmidt(psi, CUT_A))
        assert concurrence_2q(psi.density()) == pytest.approx(want, abs=1e-8)


def test_concurrence_werner_threshold():
    # 2x2 isotropic states are separable up to p = 1/3
    assert concurrence_2q(isotropic(2, 1.0 / 3.0)) == pytest.approx(0.0, abs=1e-9)
    assert concurrence_2q(isotropic(2, 0.5)) > 0.1


def test_isotropic_closed_form_pins():
    assert isotropic_e_n1(3, 0.5, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert isotropic_e_n1(3, 0.5, 0.5) == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert isotropic_e_n1(4, 0.7, 2.0) == pytest.approx(1.25, abs=1e-12)
    assert isotropic_e_n1(2, 0.6, 0.5) == pytest.approx(0.2, abs=1e-12)
    # separable region clamps to zero
    assert isotropic_e_n1(3, 0.2, 1.0) == 0.0
    with pytest.raises(ValueError):
        isotropic_e_n1(1, 0.5, 1.0)
    with pytest.raises(ValueError):
        isotropic_e_n1(3, 1.5, 1.0)
    with pytest.raises(ValueError):
        isotropic_e_n1(2, 0.5, math.nan)


def test_isotropic_sdp_matches_closed_form():
    for d, p, n in ((2, 0.8, 0.5), (3, 0.5, 1.0), (3, 0.7, 2.0), (3, 0.9, 0.5)):
        rho = isotropic(d, p)
        got = e_nm_ppt(rho, [CUT_A], n, math.inf).value
        assert got == pytest.approx(isotropic_e_n1(d, p, n), abs=1e-5)


def test_e_nm_input_validation():
    rho = bell()
    with pytest.raises(ValueError):
        e_nm_ppt(rho, [], 1.0, 1.0)
    with pytest.raises(ValueError):
        e_nm_ppt(rho, [CUT_A], math.inf, math.inf)
    with pytest.raises(ValueError):
        e_nm_ppt(rho, [CUT_A], -1.0, 1.0)
    with pytest.raises(ValueError):
        e_nm_ppt(rho, [CUT_A], 1.0, 0.0)
    for n, m in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.inf)):
        with pytest.raises(ValueError):
            e_nm_ppt(rho, [CUT_A], n, m)


def test_e_nm_zero_n_short_circuit():
    res = e_nm_ppt(bell(), [CUT_A], 0.0, 1.0)
    assert res.value == 0.0
    assert res.certificate.s == 0.0


def test_e_nm_monotone_in_n():
    for seed in range(5):
        rho = random_density(4, seed + 10, Q22)
        vals = [
            e_nm_ppt(rho, [CUT_A], n, 1.0).value
            for n in (0.25, 0.5, 1.0, math.inf)
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-6


def test_e_nm_convex_in_state():
    for seed in range(3):
        r1 = random_density(4, seed + 20, Q22)
        r2 = random_density(4, seed + 30, Q22)
        e1 = e_nm_ppt(r1, [CUT_A], 1.0, 1.0).value
        e2 = e_nm_ppt(r2, [CUT_A], 1.0, 1.0).value
        for lam in (0.25, 0.5, 0.75):
            mix = DensityMatrix(lam * r1.mat + (1 - lam) * r2.mat, Q22)
            em = e_nm_ppt(mix, [CUT_A], 1.0, 1.0).value
            assert em <= lam * e1 + (1 - lam) * e2 + 1e-6


def test_e_nm_certificate():
    # rho + s pi1 = (1 + s - t) sigma + t pi2 and value = m s + n t
    for seed in range(5):
        rho = random_density(4, seed + 40, Q22)
        res = e_nm_ppt(rho, [CUT_A], 1.0, 1.0)
        c = res.certificate
        lhs = rho.mat + c.s * c.pi1.mat
        rhs = (1.0 + c.s - c.t) * c.sigma.mat + c.t * c.pi2.mat
        assert np.linalg.norm(lhs - rhs) <= 1e-6
        assert res.value == pytest.approx(c.s + c.t, abs=1e-5)


def test_e_nm_multi_cut_contains_single():
    # the multi-cut decomposition includes each single-cut class
    shape = SystemShape([2, 2, 2])
    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    rho = PureState(ghz, shape).density()
    cuts = [Cut([0]), Cut([1]), Cut([2])]
    vmulti = e_nm_ppt(rho, cuts, 1.0, 1.0).value
    for c in cuts:
        vsingle = e_nm_ppt(rho, [c], 1.0, 1.0).value
        assert vmulti >= vsingle - 1e-6


def test_closed_form_lower_bounds_sdp():
    for seed in range(8):
        rho = random_density(4, seed + 60, Q22)
        lo = rg_ppt_closed(rho, CUT_A).value
        hi = rg_ppt(rho, CUT_A).value
        assert lo <= hi + 1e-6


def test_optimal_witnesses_validate():
    for seed in range(4):
        rho = random_density(4, seed + 70, Q22)
        for res in (
            e_nm_ppt(rho, [CUT_A], 1.0, 1.0),
            rg_ppt(rho, CUT_A),
            rr_ppt(rho, CUT_A),
        ):
            rep = validate_decomposable(res.witness)
            assert rep.ok, rep.violations


def test_optimal_witness_nonnegative_on_ppt():
    w = rg_ppt(bell(), CUT_A).witness
    for p in (0.0, 0.2, 1.0 / 3.0):
        assert evaluate(w, isotropic(2, p)) >= -1e-8
    for seed in range(30):
        rho = random_density(4, seed, Q22)
        rt = np.linalg.eigvalsh(
            rho.mat.reshape(2, 2, 2, 2).swapaxes(0, 2).reshape(4, 4)
        )
        if rt[0] >= 0:
            assert evaluate(w, rho) >= -1e-8


def test_rr_ppt_matches_eigenvalue_form():
    # with Tr W = D the optimum is D * max(0, -lambda_min(rho^T_cut))
    for d, shape in ((4, Q22), (6, SystemShape([2, 3]))):
        for seed in range(6):
            rho = random_density(d, seed + 80, shape)
            rt = rho.mat.reshape(
                shape.local_dims[0], shape.local_dims[1],
                shape.local_dims[0], shape.local_dims[1],
            ).transpose(2, 1, 0, 3).reshape(d, d)
            want = d * max(0.0, -float(np.linalg.eigvalsh(rt)[0]))
            assert rr_ppt(rho, CUT_A).value == pytest.approx(want, abs=1e-5)


def test_rains_pins():
    assert rains_fidelity(bell(), CUT_A) == pytest.approx(1.0, abs=1e-6)
    assert rains_fidelity(isotropic(2, 0.0), CUT_A) == pytest.approx(0.5, abs=1e-6)
    prod = PureState([1, 0, 0, 0], Q22).density()
    assert rains_fidelity(prod, CUT_A) == pytest.approx(0.5, abs=1e-6)


def test_rains_range_and_dims():
    for seed in range(5):
        rho = random_density(4, seed + 90, Q22)
        f = rains_fidelity(rho, CUT_A)
        assert 0.5 - 1e-9 <= f <= 1.0 + 1e-6
    with pytest.raises(ValueError):
        rains_fidelity(random_density(6, 1, SystemShape([2, 3])), CUT_A)


def test_ssr_vc_pin():
    res = ssr_nonlocality(vc_ssr_state())
    assert res.value == pytest.approx(0.5, abs=1e-5)
    assert res.witness.bounds[1] == 1.0


def test_ssr_zero_on_diagonal_state():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]), Q22)
    assert ssr_nonlocality(rho).value == pytest.approx(0.0, abs=1e-6)


def test_dps2_bell_and_random_dominate_ppt():
    assert rg_dps2(bell(), CUT_A).value == pytest.approx(1.0, abs=1e-5)
    for seed in range(5):
        rho = random_density(4, seed + 95, Q22)
        assert rg_dps2(rho, CUT_A).value >= rg_ppt(rho, CUT_A).value - 1e-5


def test_dps2_detects_ppt_entangled():
    for a, want in ((0.3, 0.0135987), (0.5, 0.0120317)):
        rho = horodecki_3x3(a)
        assert rg_ppt(rho, CUT_A).value == pytest.approx(0.0, abs=1e-6)
        assert rg_dps2(rho, CUT_A).value == pytest.approx(want, abs=1e-4)


def test_dps2_cut_symmetry_and_cap():
    rho = random_density(6, 7, SystemShape([2, 3]))
    v0 = rg_dps2(rho, Cut([0])).value
    v1 = rg_dps2(rho, Cut([1])).value
    assert v0 == pytest.approx(v1, abs=1e-5)
    # an entangled state with unequal local dims: the cut [1] witness must
    # be mapped back to the 2 x 3 ordering to score it
    psi = random_pure(6, 1, SystemShape([2, 3])).density()
    v0 = rg_dps2(psi, Cut([0])).value
    v1 = rg_dps2(psi, Cut([1]))
    assert v0 > 0.5
    assert v1.value == pytest.approx(v0, abs=1e-5)
    assert evaluate(v1.witness, psi) == pytest.approx(-v1.value, abs=1e-12)
    with pytest.raises(ValueError):
        rg_dps2(random_density(16, 1, SystemShape([4, 4])), CUT_A)


def test_dps2_fig7q_states_reach_optimal(monkeypatch):
    # M1 lives on A (x) Sym^2(B), where the constraint map reaches; on the
    # full A (x) B (x) B space these solves stalled short of optimality
    statuses = []
    solve = sdp.solve

    def recording(prob, *args, **kwargs):
        sol = solve(prob, *args, **kwargs)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(sdp, "solve", recording)
    shape = SystemShape([3, 3])
    values = {}
    for a in (0.3, 0.5):
        for e in (0.95, 1.0):
            mixed = e * horodecki_3x3(a).mat + (1.0 - e) * np.eye(9) / 9.0
            values[a, e] = rg_dps2(DensityMatrix(mixed, shape), CUT_A).value
    assert len(statuses) == 4
    assert all(s is sdp.SdpStatus.OPTIMAL for s in statuses)
    assert values[0.3, 1.0] == pytest.approx(0.0135987, abs=1e-6)


def _dps2_h0(blocks: dict, a: int, b: int) -> np.ndarray:
    """H0 = I - iso^H (Sw (x) I_B2 + (iso M1 iso^H)^{T_A} + M2^{T_B2}) iso, the DPS2 slack."""
    iso = np.kron(np.eye(a), _sym_isometry(b))
    ext = (a, b, b)
    full = (np.kron(blocks["Sw"], np.eye(b))
            + _pt_array(iso @ blocks["M1"] @ iso.conj().T, ext, (0,))
            + _pt_array(blocks["M2"], ext, (2,)))
    return np.eye(iso.shape[1]) - iso.conj().T @ full @ iso


def _box_slacks(fit):
    n, m = fit.result.witness.bounds
    eigs = np.linalg.eigvalsh(fit.result.witness.op.mat)
    return [m - eigs[-1], eigs[0] + n]  # -nI <= W <= mI


def _trace_slacks(fit):
    # the exact row has no slack: Tr W = D must hold to rounding
    assert np.trace(fit.result.witness.op.mat).real == pytest.approx(4.0, abs=1e-12)
    return [0.0]


def _rains_slacks(fit):
    f = fit.blocks["F"] / fit.scale
    ft = np.linalg.eigvalsh(_pt_array(f, (2, 2), (0,)))
    return [1.0 - np.linalg.eigvalsh(f)[-1], 0.5 - ft[-1], ft[0] + 0.5]  # F <= I, |F^T| <= I/2


def _ssr_slacks(fit):
    return list(np.diag(fit.result.witness.op.mat).real)  # t_i = G_ii >= 0


def _dps2_slacks(fit):
    repaired = {k: v / fit.scale for k, v in fit.blocks.items()}
    return [np.linalg.eigvalsh(_dps2_h0(repaired, 2, 2))[0]]


def _assert_forced_repair(monkeypatch, measure, slacks):
    # inflate every solved block by 1 + 1e-6, so the active bound is broken;
    # the one slack rule must scale back onto it, checked by the measure's
    # own bound formulas rather than the builder's images
    real_solve, real_fit, fits = sdp.solve, measures._fit_witness, []

    def inflated(prob, **kw):
        sol = real_solve(prob, **kw)
        return dataclasses.replace(sol, x_blocks=[(1.0 + 1e-6) * x for x in sol.x_blocks])

    def recorded(*args, **kw):
        fits.append(real_fit(*args, **kw))
        return fits[-1]

    monkeypatch.setattr(sdp, "solve", inflated)
    monkeypatch.setattr(measures, "_fit_witness", recorded)
    measure(isotropic(2, 0.8))
    fit = fits[0]
    assert fit.scale > 1.0
    got = slacks(fit)
    assert min(got) >= -1e-12
    assert min(got) <= 1e-9  # the repair lands on the active bound


@pytest.mark.parametrize("n, m", [(1.0, 1.0), (math.inf, 1.0), (2.0, math.inf)])
def test_box_repair_meets_bounds_exactly(monkeypatch, n, m):
    _assert_forced_repair(monkeypatch, lambda rho: e_nm_ppt(rho, [CUT_A], n, m), _box_slacks)


def test_trace_repair_is_exact(monkeypatch):
    _assert_forced_repair(monkeypatch, lambda rho: rr_ppt(rho, CUT_A), _trace_slacks)


def test_rains_repair_meets_box_exactly(monkeypatch):
    _assert_forced_repair(monkeypatch, lambda rho: rains_fidelity(rho, CUT_A), _rains_slacks)


def test_ssr_repair_keeps_diagonal_nonnegative(monkeypatch):
    _assert_forced_repair(monkeypatch, ssr_nonlocality, _ssr_slacks)


def test_dps2_repair_makes_h0_psd(monkeypatch):
    _assert_forced_repair(monkeypatch, lambda rho: rg_dps2(rho, CUT_A), _dps2_slacks)
