"""Acceptance suite: one test per published claim, 11 claims in all.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain test run doubles as a report. Claims split across two tests (2, 10,
11) check each part separately. Every claim is asserted in the form that
holds analytically; four are stated more narrowly than a first reading
suggests:

- 1: the negative-eigenspace witness is one feasible witness, so it lower
  bounds the SDP optimum; it equals the optimum on pure and NPT isotropic
  states, where lambda_max(P_-^Gamma) = 1/2 makes it optimal.
- 2: the upper bound E <= d N is attained on the antisymmetric Werner
  state (W = F is feasible there) and strict on the maximally entangled
  state Phi_3, where E = 2 < 3 = d N.
- 10: chi/(N beta) = 1 - 2 beta J n_bonds / N + O(beta^2), so the Curie
  law is checked as a limit: its leading correction at beta = 1e-2 and the
  1% window at beta = 1e-3.
- 11: weak duality binds feasible pairs only; the solver starts
  infeasible, so dobj <= pobj (with pobj - dobj = <X, Z>) is checked on
  the iterates that meet its own residual bar, and <X, Z> > 0 everywhere.

 1. the scaled negative-eigenspace witness lower bounds the n=inf, m=1
    optimum on NPT states and attains it on pure and isotropic states
 2. negativity sandwich N <= E <= d N, attained and strict cases
 3. random-state scatter: fraction with R <= 2N, byte-identical CSV
 4. isotropic closed form vs SDP across the slope branch switch
 5. pure-state formulas and the concurrence identity
 6. the SSR nonlocality worked example
 7. two-copy subadditivity of the n:1 family
 8. bounds pipeline on Bell and bound-entangled states
 9. extension-level-2 witnesses detect PPT entanglement
10. thermal witness identity and the Curie limit
11. solver accuracy, weak duality on feasible iterates, determinism
"""

import math
import time

import numpy as np
import pytest

from entwit.bounds import distillable_upper, eof_lower_rr, teleport_dmin_upper
from entwit.cli import main
from entwit.linalg import Cut, HermitianMatrix, SystemShape, hs_inner, partial_transpose
from entwit.measures import (
    concurrence_2q,
    e_nm_ppt,
    e_nm_ppt_stack,
    isotropic_e_n1,
    negativity,
    negativity_stack,
    pure_rg,
    pure_rr,
    rg_dps2,
    rg_ppt,
    rg_ppt_closed,
    ssr_nonlocality,
)
from entwit.sdp import DEFAULT_TOL, HermitianSdp, solve
from entwit.spin import (
    ChainSpec,
    bonds,
    rg_witness_lower_thermal,
    susceptibility,
    thermo_estimate,
    toth_witness,
    xxx_hamiltonian,
)
from entwit.states import (
    DensityMatrix,
    horodecki_3x3,
    isotropic,
    max_entangled,
    random_densities,
    random_density,
    random_pure,
    schmidt,
    thermal,
    vc_ssr_state,
)
from entwit.witnesses import evaluate

CUT = Cut([0])
DIM_PAIRS = ((2, 2), (2, 3), (3, 3))


def report(num: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def npt_states(dims, count, seed):
    """First ``count`` Hilbert-Schmidt states with nonzero negativity."""
    shape = SystemShape(dims)
    total = dims[0] * dims[1]
    out = []
    i = 0
    while len(out) < count:
        rho = random_density(total, np.random.SeedSequence((seed, i)), shape)
        i += 1
        if negativity(rho, CUT).value > 1e-6:
            out.append(rho)
    return out


def test_criterion_01_projector_witness_vs_sdp():
    """Scaled-projector closed form lower bounds the n=inf, m=1 SDP.

    The closed form evaluates one feasible witness (the negative
    eigenspace of the partial transpose, scaled to W <= I), so on NPT
    states 0 < closed <= sdp. On pure and NPT isotropic states that
    projector has lambda_max(P_-^Gamma) = 1/2, so the witness is optimal
    and closed = sdp = 2N (pure_rg for pure states, dF - 1 for isotropic).
    """
    t0 = time.monotonic()
    worst = -math.inf
    least = math.inf
    for dims in DIM_PAIRS:
        rhos = npt_states(dims, 100, 42)
        # one stack per dims; each value is that of its own rg_ppt call
        opts = e_nm_ppt_stack([rho.mat for rho in rhos], SystemShape(dims), [CUT], math.inf, 1.0)
        for rho, opt in zip(rhos, opts, strict=True):
            closed = rg_ppt_closed(rho, CUT).value
            worst = max(worst, closed - opt.value)
            least = min(least, closed)
    exact = []
    for dims in DIM_PAIRS:
        shape = SystemShape(dims)
        total = dims[0] * dims[1]
        for i in range(10):
            psi = random_pure(total, np.random.SeedSequence((43, i)), shape)
            exact.append((psi.density(), pure_rg(schmidt(psi, CUT))))
    for d in (2, 3, 4):
        # isotropic states are NPT for p > 1/(d + 1)
        for p in (0.5, 0.75, 1.0):
            fidelity = p + (1.0 - p) / (d * d)
            exact.append((isotropic(d, p), d * fidelity - 1.0))
    worst_eq = max(
        abs(value - target)
        for rho, target in exact
        for value in (rg_ppt_closed(rho, CUT).value, rg_ppt(rho, CUT).value,
                      2.0 * negativity(rho, CUT).value)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and least > 0.0 and worst_eq <= 1e-6 and elapsed < 120
    report(1, "projector-witness-vs-sdp", ok,
           f"max (closed - sdp) = {worst:.1e}, min closed = {least:.1e} over "
           f"300 NPT states; max |value - 2N| on pure/isotropic = "
           f"{worst_eq:.1e}, {elapsed:.0f}s")
    assert elapsed < 120
    # the scaled projector is a feasible witness, so it cannot beat the
    # optimum, and it scores N / lambda_max > 0 on every NPT state
    assert worst <= 1e-6
    assert least > 0.0
    # lambda_max(P_-^Gamma) = 1/2 on these states: closed = sdp = 2N
    assert worst_eq <= 1e-6


def test_criterion_02_negativity_sandwich():
    """N <= E_{inf:1} <= d N within 1e-8 on 1000 states per dimension.

    Each dimension's states run as one stack: e_nm_ppt_stack gives every
    state the value of its own rg_ppt call, and negativity_stack that of
    negativity.
    """
    min_left = math.inf
    min_right = math.inf
    for dims in DIM_PAIRS:
        shape = SystemShape(dims)
        total = dims[0] * dims[1]
        d = min(dims)
        rhos = random_densities(total, [np.random.SeedSequence((1312, i)) for i in range(1000)])
        nv = negativity_stack(rhos, dims, CUT.party_set)[0]
        ev = np.array([r.value for r in e_nm_ppt_stack(rhos, shape, [CUT], math.inf, 1.0)])
        min_left = min(min_left, float((ev - nv).min()))
        min_right = min(min_right, float((d * nv - ev).min()))
    ok = min_left >= -1e-8 and min_right >= -1e-8
    report(2, "negativity-sandwich", ok,
           f"min(E - N) = {min_left:.2e}, min(dN - E) = {min_right:.2e}, "
           f"3000 states")
    assert min_left >= -1e-8
    assert min_right >= -1e-8


def test_criterion_02_sandwich_strictness_state():
    """E <= dN is attained at the d = 3 Werner state, strict at Phi_3.

    Antisymmetric Werner state: N = 1/d, and W = F = (d P+)^Gamma is a
    feasible decomposable witness with W <= I and tr(F rho) = -1, so
    E >= 1 = dN and the upper bound is attained. Maximally entangled Phi_3:
    N = 1 and E = pure_rg = 2, so dN - E = 1. Isotropic states at d = 3:
    E = 2N, so dN - E = N.
    """
    d = 3
    shape = SystemShape([d, d])
    pplus = max_entangled(d).density()
    mat = (np.eye(d * d) - d * partial_transpose(pplus, CUT).mat) / (d * d - d)
    rho = DensityMatrix(mat, shape)
    nv = negativity(rho, CUT).value
    ev = rg_ppt(rho, CUT).value
    attained = d * nv - ev
    gap = d * negativity(pplus, CUT).value - rg_ppt(pplus, CUT).value
    iso = isotropic(d, 0.5)
    n_iso = negativity(iso, CUT).value
    iso_gap = d * n_iso - rg_ppt(iso, CUT).value
    ok = (abs(attained) <= 1e-6 and abs(gap - 1.0) <= 1e-6
          and abs(iso_gap - n_iso) <= 1e-6)
    report(2, "sandwich-strictness", ok,
           f"Werner: N = {nv:.6f}, E = {ev:.9f}, dN - E = {attained:.2e}; "
           f"Phi_3: dN - E = {gap:.7f}; isotropic p = 0.5: dN - E - N = "
           f"{iso_gap - n_iso:.1e}")
    # W = F certifies E >= 1 = dN on the Werner state: the bound is attained
    assert abs(attained) <= 1e-6
    # Phi_3 has N = 1 and E = pure_rg = 2: dN - E = 1, strictly positive
    assert gap == pytest.approx(1.0, abs=1e-6)
    # isotropic states have E = 2N, so dN - E = (d - 2) N = N at d = 3
    assert iso_gap == pytest.approx(n_iso, abs=1e-6)


def test_criterion_03_scatter_statistic(tmp_path):
    """10^4-state scatter per dimension: majority R <= 2N, rerun identical."""
    t0 = time.monotonic()
    fractions = {}
    for dim2 in (2, 3):
        p1 = tmp_path / f"s{dim2}a.csv"
        p2 = tmp_path / f"s{dim2}b.csv"
        base = ["reproduce", "fig56", "--dim", "2", "--dim2", str(dim2),
                "--samples", "10000", "--seed", "1001"]
        assert main(base + ["--out", str(p1)]) == 0
        assert main(base + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        frac_line = [ln for ln in p1.read_text().splitlines()
                     if ln.startswith("# fraction_rg_le_2n=")][0]
        fractions[dim2] = float(frac_line.split("=")[1])
    elapsed = time.monotonic() - t0
    ok = all(f > 0.5 for f in fractions.values()) and elapsed < 300
    report(3, "scatter-statistic", ok,
           f"fractions 2x2: {fractions[2]:.4f}, 2x3: {fractions[3]:.4f}, "
           f"byte-identical reruns, {elapsed:.0f}s")
    assert elapsed < 300
    assert fractions[2] > 0.5
    assert fractions[3] > 0.5


def test_criterion_04_isotropic_closed_form():
    """SDP equals the isotropic closed form to 1e-5 across the n branch."""
    worst = 0.0
    ps = np.linspace(0.0, 1.0, 20)
    for d in (2, 3, 4):
        states = [isotropic(d, float(p)) for p in ps]
        # n grid straddles the slope saturation at n = d - 1
        for n in (0.5, 1.0, float(d - 1), float(d), 2.0 * d):
            # one stack per (d, n); each value is that of its own e_nm_ppt call
            sdps = e_nm_ppt_stack([s.mat for s in states], states[0].shape, [CUT], n, 1.0)
            for p, sdp in zip(ps, sdps, strict=True):
                closed = isotropic_e_n1(d, float(p), n)
                worst = max(worst, abs(closed - sdp.value))
    ok = worst <= 1e-5
    report(4, "isotropic-closed-form", ok,
           f"max |closed - sdp| = {worst:.2e} over 300 grid points")
    assert worst <= 1e-5


def test_criterion_05_pure_state_formulas():
    """Schmidt-coefficient formulas and the two-qubit concurrence identity."""
    worst_rr = 0.0
    worst_rg = -math.inf
    worst_cc = 0.0
    for dims in DIM_PAIRS:
        shape = SystemShape(dims)
        total = dims[0] * dims[1]
        psis = [random_pure(total, np.random.SeedSequence((55, i)), shape) for i in range(100)]
        rhos = [psi.density() for psi in psis]
        # one stack per dims; each value is that of its own rg_ppt call
        rgs = e_nm_ppt_stack([rho.mat for rho in rhos], shape, [CUT], math.inf, 1.0)
        for psi, rho, rg in zip(psis, rhos, rgs, strict=True):
            cs = schmidt(psi, CUT)
            worst_rr = max(worst_rr, abs(pure_rr(cs) - float(cs[0] * cs[1])))
            worst_rg = max(worst_rg, rg.value - pure_rg(cs))
            if dims == (2, 2):
                worst_cc = max(
                    worst_cc, abs(concurrence_2q(rho) - 2.0 * pure_rr(cs))
                )
    ok = worst_rr <= 1e-12 and worst_rg <= 1e-8 and worst_cc <= 1e-8
    report(5, "pure-state-formulas", ok,
           f"rr dev {worst_rr:.1e}, rg overshoot {worst_rg:.1e}, "
           f"concurrence dev {worst_cc:.1e}")
    assert worst_rr <= 1e-12
    assert worst_rg <= 1e-8
    assert worst_cc <= 1e-8


def test_criterion_06_ssr_worked_example():
    """The SSR example scores 1/2 and its hand witness scores -1/2."""
    rho = vc_ssr_state()
    val = ssr_nonlocality(rho).value
    g = np.zeros((4, 4))
    g[1, 2] = g[2, 1] = -1.0
    gv = hs_inner(HermitianMatrix(g, SystemShape([2, 2])), rho)
    ok = abs(val - 0.5) <= 1e-5 and gv == -0.5
    report(6, "ssr-worked-example", ok,
           f"optimized value {val:.7f}, hand witness {gv!r}")
    assert val == pytest.approx(0.5, abs=1e-5)
    assert gv == -0.5


def test_criterion_07_two_copy_subadditivity():
    """E(rho x rho) <= E^2 + 2E + 1e-5 for n in {1, 2, inf}, m = 1."""
    t0 = time.monotonic()
    shape1 = SystemShape([2, 2])
    shape2 = SystemShape([2, 2, 2, 2])
    cut2 = Cut([0, 2])
    worst = -math.inf
    worst_le = -math.inf
    ones = np.stack([random_density(4, np.random.SeedSequence((7, i)), shape1).mat
                     for i in range(20)])
    twos = np.stack([DensityMatrix(np.kron(r, r), shape2).mat for r in ones])
    for n in (1.0, 2.0, math.inf):
        # one stack per n for the single copies and one for the two-copies;
        # each value is that of its own e_nm_ppt call
        e1s = e_nm_ppt_stack(ones, shape1, [CUT], n, 1.0)
        e2s = e_nm_ppt_stack(twos, shape2, [cut2], n, 1.0)
        for e1, e2 in ((a.value, b.value) for a, b in zip(e1s, e2s, strict=True)):
            worst = max(worst, e2 - (e1 * e1 + 2.0 * e1))
            if n == 1.0:
                worst_le = max(
                    worst_le, math.log2(1.0 + e2) - 2.0 * math.log2(1.0 + e1)
                )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and worst_le <= 1e-5 and elapsed < 600
    report(7, "two-copy-subadditivity", ok,
           f"max excess {worst:.2e}, max log-excess {worst_le:.2e}, "
           f"{elapsed:.0f}s")
    assert elapsed < 600
    assert worst <= 1e-5
    assert worst_le <= 1e-5


def test_criterion_08_bounds_pipeline():
    """Bell state and bound-entangled states through the bounds chain."""
    bell = max_entangled(2).density()
    e21 = e_nm_ppt(bell, [CUT], 2.0, 1.0).value
    tele = teleport_dmin_upper(e21, 2, 2.0).value
    dist = distillable_upper(bell, CUT).value
    eof = eof_lower_rr(0.5).value
    hor = {}
    for a in (0.3, 0.5, 0.7):
        rho = horodecki_3x3(a)
        hor[a] = (
            negativity(rho, CUT).value,
            rg_ppt(rho, CUT).value,
            distillable_upper(rho, CUT).value,
        )
    hor_zero = max(max(abs(v) for v in tri) for tri in hor.values())
    ok = (tele <= 1e-6 and abs(dist - 1.0) <= 1e-6
          and eof == pytest.approx(1.0, abs=1e-12) and hor_zero == 0.0)
    report(8, "bounds-pipeline", ok,
           f"bell: teleport {tele:.1e}, distill {dist:.8f}, eof(1/2) {eof}; "
           f"horodecki max |value| = {hor_zero}")
    assert tele <= 1e-6
    assert dist == pytest.approx(1.0, abs=1e-6)
    assert eof == pytest.approx(1.0, abs=1e-12)
    assert hor_zero == 0.0


def test_criterion_09_dps2_detection(tmp_path):
    """Level-2 witnesses detect PPT entanglement the n=inf family misses."""
    t0 = time.monotonic()
    detections = 0
    top = 0.0
    rg_max = 0.0
    for a10 in range(1, 10):
        rho = horodecki_3x3(a10 / 10.0)
        v = rg_dps2(rho, CUT).value
        rg_max = max(rg_max, rg_ppt(rho, CUT).value)
        top = max(top, v)
        if v > 1e-4:
            detections += 1
    out = tmp_path / "f7.csv"
    rc = main(["reproduce", "fig7q", "--a-grid", "0.3:0.5:2",
               "--e-grid", "0.95:1.0:2", "--out", str(out)])
    assert rc == 0
    eof_at_top = [
        float(ln.split(",")[4])
        for ln in out.read_text().splitlines()
        if not ln.startswith("#") and ln.split(",")[1] == "1.0"
    ]
    elapsed = time.monotonic() - t0
    ok = (detections >= 1 and rg_max == 0.0 and len(eof_at_top) == 2
          and min(eof_at_top) > 0.0 and elapsed < 600)
    report(9, "dps2-detection", ok,
           f"{detections}/9 grid points above 1e-4 (max {top:.6f}), "
           f"rg_ppt all {rg_max}, min eof at e=1 {min(eof_at_top):.2e}, "
           f"{elapsed:.0f}s")
    assert elapsed < 600
    assert detections >= 1
    assert rg_max == 0.0
    assert len(eof_at_top) == 2
    assert min(eof_at_top) > 0.0


def test_criterion_10_thermal_identity():
    """Energy-magnetization estimate equals the witness value to 1e-10."""
    t0 = time.monotonic()
    worst = 0.0
    for n in (4, 6, 8):
        for periodic in (False, True):
            w = toth_witness(n, periodic)
            for beta in np.linspace(0.0, 20.0, 41):
                spec = ChainSpec(n, 1.0, 0.0, float(beta), periodic)
                est, _, _ = thermo_estimate(spec)
                wv = -evaluate(w, thermal(xxx_hamiltonian(spec), float(beta)))
                worst = max(worst, abs(est - wv))
    cold_open = rg_witness_lower_thermal(ChainSpec(4, 1.0, beta=20.0))
    cold_ring = rg_witness_lower_thermal(
        ChainSpec(4, 1.0, beta=20.0, periodic=True)
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and cold_open > 0.0 and cold_ring > 0.0 and elapsed < 120
    report(10, "thermal-identity", ok,
           f"max |est - witness| = {worst:.1e}, beta=20 bounds "
           f"open {cold_open:.3f} / ring {cold_ring:.3f}, {elapsed:.0f}s")
    assert elapsed < 120
    assert worst <= 1e-10
    assert cold_open > 0.0
    assert cold_ring > 0.0


def test_criterion_10_curie_limit():
    """chi/(N beta) -> 1 as beta -> 0, with correction -2 beta J n_bonds/N.

    With Pauli operators and H = J sum sigma_i . sigma_j, the high-
    temperature series is chi = N beta (1 - 2 beta J n_bonds / N) + O(beta^3).
    """
    devs = {}
    worst_series = 0.0
    worst_limit = 0.0
    for n in (4, 6, 8):
        for periodic in (False, True):
            n_bonds = len(bonds(n, periodic))
            spec = ChainSpec(n, 1.0, beta=0.01, periodic=periodic)
            chi, _ = susceptibility(spec)
            dev = chi / (n * 0.01) - 1.0
            devs[(n, periodic)] = dev
            leading = -2.0 * 0.01 * 1.0 * n_bonds / n
            worst_series = max(worst_series, abs(dev - leading))
            spec = ChainSpec(n, 1.0, beta=1e-3, periodic=periodic)
            chi, _ = susceptibility(spec)
            worst_limit = max(worst_limit, abs(chi / (n * 1e-3) - 1.0))
    ok = worst_series <= 1e-4 and worst_limit <= 0.01
    report(10, "curie-limit", ok,
           f"beta 0.01: max |chi / (N beta) - 1 + 2 beta J n_bonds / N| = "
           f"{worst_series:.1e} (open {devs[(4, False)]:+.4f}, ring "
           f"{devs[(4, True)]:+.4f}); beta 0.001: max |chi / (N beta) - 1| = "
           f"{worst_limit:.4f}")
    # the deviation at beta = 0.01 is the leading term -2 beta J n_bonds / N
    # up to the O(beta^2) remainder
    assert worst_series <= 1e-4
    # at beta = 1e-3 that term is at most 0.2%, inside the 1% Curie window
    assert worst_limit <= 0.01


def min_eig_problem(d: int) -> tuple:
    """(problem, b) of tr X = 1 on one d x d block; the cost H gives lambda_min(H)."""
    hs = HermitianSdp({"x": d})
    hs.add_matrix_equality({"x": lambda e: e * np.eye(d)}, [[1.0]])
    return hs.build()


def min_eig(h: np.ndarray):
    prob, b = min_eig_problem(len(h))
    return solve(prob, [h[None]], b)[0]


def test_criterion_11_solver_accuracy_and_determinism():
    """100 min-eigenvalue problems to 1e-6; reruns bit-identical."""
    worst = 0.0
    for s in range(100):
        rng = np.random.default_rng(5000 + s)
        d = int(rng.integers(2, 8))
        g = rng.standard_normal((d, d))
        h = (g + g.T) / 2
        sol = min_eig(h)
        worst = max(worst, abs(sol.pobj - float(np.linalg.eigvalsh(h)[0])))
    h = (lambda g: (g + g.T) / 2)(np.random.default_rng(5042).standard_normal((6, 6)))
    s1 = min_eig(h)
    s2 = min_eig(h)
    identical = (
        np.array_equal(s1.x_blocks[0], s2.x_blocks[0])
        and np.array_equal(s1.y, s2.y)
        and np.array_equal(s1.z_blocks[0], s2.z_blocks[0])
    )
    ok = worst <= 1e-6 and identical
    report(11, "solver-accuracy", ok,
           f"max |pobj - lambda_min| = {worst:.2e}, rerun identical: "
           f"{identical}")
    assert worst <= 1e-6
    assert identical


def test_criterion_11_weak_duality_every_iterate():
    """dobj <= pobj at every feasible iterate of the same 100 problems.

    For any iterate pobj - dobj = <X, Z> - y^T r_p + <R_d, X>, so weak
    duality binds once the residuals vanish; from the infeasible start
    X = Z = tau I, y = 0 only <X, Z> > 0 holds throughout.
    """
    worst = -math.inf
    worst_id = 0.0
    min_conic = math.inf
    feasible = 0
    late = 0
    unreached = 0
    for s in range(100):
        rng = np.random.default_rng(5000 + s)
        d = int(rng.integers(2, 8))
        g = rng.standard_normal((d, d))
        h = (g + g.T) / 2
        prob, b = min_eig_problem(d)
        bar_p = DEFAULT_TOL * (1.0 + float(np.abs(b).max()))
        bar_d = DEFAULT_TOL * (1.0 + float(np.linalg.norm(h)))
        sol, = solve(prob, [h[None]], b)
        first = None
        for rec in sol.history:
            min_conic = min(min_conic, rec["conic"])
            if rec["rp"] <= bar_p and rec["rd"] <= bar_d:
                feasible += 1
                first = rec["iter"] if first is None else first
                gap = rec["pobj"] - rec["dobj"]
                worst = max(worst, -gap)
                worst_id = max(
                    worst_id, abs(gap - rec["conic"]) / (1.0 + abs(rec["pobj"]))
                )
        if first is None:
            unreached += 1
        else:
            late = max(late, first)
    ok = min_conic > 0.0 and unreached == 0 and worst <= 0.0 and worst_id <= 1e-10
    report(11, "weak-duality-per-iterate", ok,
           f"max (dobj - pobj) over {feasible} feasible iterates = "
           f"{worst:.1e}, max |gap - <X,Z>| / (1 + |pobj|) = {worst_id:.1e}, "
           f"feasible by iterate {late}, min <X,Z> = {min_conic:.1e}")
    assert min_conic > 0.0
    assert unreached == 0
    # on a feasible pair pobj - dobj = <X, Z> >= 0
    assert worst <= 0.0
    assert worst_id <= 1e-10
