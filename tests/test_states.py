import numpy as np
import pytest

from entwit import states
from entwit.linalg import Cut, SystemShape, partial_transpose, trace_norm
from entwit.states import (
    DensityMatrix,
    _check_density,
    PureState,
    horodecki_3x3,
    isotropic,
    max_entangled,
    random_densities,
    random_density,
    random_pure,
    rng_stream,
    schmidt,
    state_from_json,
    state_to_json,
    stream_densities,
    stream_seeds,
    thermal,
    vc_ssr_state,
    w_ghz_mix,
)
from entwit.spin import ChainSpec, xxx_hamiltonian


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))
    DensityMatrix(np.diag([0.5, 0.5]))
    good = np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0]), np.eye(2) / 2])
    _check_density(good)
    for bad in (np.eye(2), np.diag([1.5, -0.5])):
        stack = good.copy()
        stack[1] = bad
        with pytest.raises(ValueError):
            _check_density(stack)


def test_density_check_spectrum_edge_and_non_finite():
    # lambda_min beyond -EIG_ATOL is named; within it the stack passes
    good = np.array([np.eye(3) / 3] * 4)
    for lam, ok in ((-2e-10, False), (-0.5e-10, True)):
        stack = good.copy()
        stack[2] = np.diag([0.5 - lam, 0.5, lam])
        if ok:
            _check_density(stack)
        else:
            with pytest.raises(ValueError, match=r"negative eigenvalue -2\.000e-10"):
                _check_density(stack)
    for at in ((0, 0), (0, 1)):
        stack = good.copy()
        stack[1][at] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _check_density(stack)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState([1, 1])
    p = PureState([1, 0, 0, 0], SystemShape([2, 2]))
    assert p.density().mat[0, 0] == pytest.approx(1.0)


def test_max_entangled():
    phi = max_entangled(3)
    rho = phi.density()
    assert np.trace(rho.mat).real == pytest.approx(1.0)
    s = schmidt(phi, Cut([0]))
    assert np.allclose(s, np.ones(3) / np.sqrt(3))


def test_isotropic_limits():
    d = 3
    assert np.allclose(isotropic(d, 0.0).mat, np.eye(9) / 9)
    assert np.allclose(isotropic(d, 1.0).mat, max_entangled(d).density().mat)
    with pytest.raises(ValueError):
        isotropic(3, 1.5)


def test_horodecki_family():
    for a in (0.1, 0.5, 0.9):
        rho = horodecki_3x3(a)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        rt = partial_transpose(rho, Cut([1]))
        # PPT for the whole family
        assert np.linalg.eigvalsh(rt.mat)[0] >= -1e-12
    with pytest.raises(ValueError):
        horodecki_3x3(0.0)


def test_w_ghz_mix_purity():
    for q in (0.0, 0.3, 1.0):
        rho = w_ghz_mix(q)
        purity = np.trace(rho.mat @ rho.mat).real
        assert purity == pytest.approx(q * q + (1 - q) * (1 - q), abs=1e-12)
    # q weights the W branch: q=0 is GHZ, q=1 is W
    assert w_ghz_mix(0.0).mat[0, 7].real == pytest.approx(0.5)
    assert w_ghz_mix(1.0).mat[1, 2].real == pytest.approx(1.0 / 3.0)


def test_vc_ssr_state_entries():
    rho = vc_ssr_state()
    assert np.allclose(np.diag(rho.mat).real, [0.25, 0.25, 0.25, 0.25])
    assert rho.mat[1, 2] == pytest.approx(0.25)
    # PPT, hence separable at 2x2; its interest is SSR nonlocality
    rt = partial_transpose(rho, Cut([1]))
    assert np.linalg.eigvalsh(rt.mat)[0] >= -1e-12
    assert trace_norm(rt) == pytest.approx(1.0)


def test_random_density_determinism():
    a = random_density(4, 7, SystemShape([2, 2]))
    b = random_density(4, 7, SystemShape([2, 2]))
    c = random_density(4, 8, SystemShape([2, 2]))
    assert np.array_equal(a.mat, b.mat)
    assert not np.allclose(a.mat, c.mat)


def test_random_densities_stack_the_single_draws():
    seeds = [np.random.SeedSequence((3, i)) for i in range(7)] + [11, 12]
    for shape in (SystemShape([2, 2]), SystemShape([2, 3]), SystemShape([3, 3])):
        d = shape.total_dim
        stack = random_densities(d, seeds)
        singles = [random_density(d, s, shape).mat for s in seeds]
        assert stack.tobytes() == np.array(singles).tobytes()
        # an empty stack has no bad member
        assert random_densities(d, []).shape == (0, d, d)
        assert stream_densities(d, stream_seeds(3, 5, 5)).shape == (0, d, d)


STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 3]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_seeds_match_numpy_seeding(seed):
    # 2**200 + 3 has 7 entropy words, so its index is mixed in after the pool
    for i in (0, 1, 63, 64, 65, 2**32 - 1):
        words = stream_seeds(seed, i, i + 1)
        ss = np.random.SeedSequence((seed, i))
        assert words.dtype == np.uint64 and words.shape == (1, 4)
        assert np.array_equal(words[0], ss.generate_state(4, np.uint64))
        assert states._pcg64_state(words[0].tolist()) == np.random.PCG64(ss).state
    words = stream_seeds(seed, 60, 70)
    for k, row in enumerate(words):
        assert np.array_equal(row, np.random.SeedSequence((seed, 60 + k)).generate_state(4, np.uint64))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_stream_densities_match_random_densities(seed):
    for start, stop in ((0, 3), (62, 67), (2**32 - 2, 2**32)):
        refs = [np.random.SeedSequence((seed, i)) for i in range(start, stop)]
        for d in (4, 6, 9):
            got = stream_densities(d, stream_seeds(seed, start, stop))
            assert got.tobytes() == random_densities(d, refs).tobytes()


@pytest.mark.parametrize("name", ["_MIX_MULT_L", "_MULT_A", "_INIT_B", "_PCG_MULT"])
def test_stream_seeds_guard_catches_a_wrong_constant(monkeypatch, name):
    monkeypatch.setattr(states, name, getattr(states, name) ^ 2)
    with pytest.raises(RuntimeError):
        stream_seeds(7, 0, 10)


def test_stream_seeds_input_checks():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_seeds(-1, 0, 10)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_seeds(1, -1, 10)
    # an index of 2**32 or more would need a second entropy word
    with pytest.raises(ValueError, match="32 bits"):
        stream_seeds(1, 2**32 - 1, 2**32 + 1)
    assert stream_seeds(1, 2**32, 2**32).shape == (0, 4)


def test_random_density_hs_purity():
    # mean purity of the Hilbert-Schmidt ensemble is 2d/(d^2+1)
    d = 3
    n = 10000
    vals = np.empty(n)
    for i in range(n):
        rho = random_density(d, 100000 + i)
        vals[i] = np.trace(rho.mat @ rho.mat).real
    target = 2 * d / (d * d + 1)
    err = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - target) < 3 * err + 1e-4


def test_rng_stream_independence():
    a = rng_stream(3, 0).standard_normal(4)
    b = rng_stream(3, 1).standard_normal(4)
    a2 = rng_stream(3, 0).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.allclose(a, b)


def test_thermal_singlet_limit():
    h = xxx_hamiltonian(ChainSpec(2, 1.0))
    rho = thermal(h, 50.0)
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    fid = np.real(singlet @ rho.mat @ singlet)
    assert fid > 1 - 1e-12


def test_schmidt_product_state():
    p = random_pure(2, 1)
    q = random_pure(3, 2)
    v = np.kron(p.vec, q.vec)
    s = schmidt(PureState(v, SystemShape([2, 3])), Cut([0]))
    assert s[0] == pytest.approx(1.0, abs=1e-12)
    assert s[1] == pytest.approx(0.0, abs=1e-8)


def test_json_round_trip():
    rho = random_density(6, 42, SystemShape([2, 3]))
    doc = state_to_json(rho)
    back = state_from_json(doc)
    assert back.shape.local_dims == (2, 3)
    assert np.allclose(back.mat, rho.mat, atol=1e-15)
