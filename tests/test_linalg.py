import numpy as np
import pytest

from entwit.linalg import (
    Cut,
    HermitianMatrix,
    SystemShape,
    _herm_array,
    _pt_array,
    _ptrace_array,
    eig_hermitian,
    hs_inner,
    identity,
    partial_trace,
    partial_transpose,
    tensor,
    trace_norm,
)


def rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianMatrix((g + g.conj().T) / 2)


def test_system_shape_basics():
    s = SystemShape([2, 3])
    assert s.total_dim == 6
    assert len(s) == 2
    with pytest.raises(ValueError):
        SystemShape([])
    with pytest.raises(ValueError):
        SystemShape([2, 0])


def test_cut_validation():
    s = SystemShape([2, 2, 2])
    Cut([0, 2]).validate(s)
    with pytest.raises(IndexError):
        Cut([3]).validate(s)
    with pytest.raises(ValueError):
        Cut([0, 1, 2]).validate(s)
    assert Cut([2, 0, 2]).party_set == (0, 2)


def test_hermitian_reject():
    with pytest.raises(ValueError):
        HermitianMatrix([[0, 1], [0, 0]])
    m = HermitianMatrix([[1, 1j], [-1j, 2]])
    assert np.allclose(m.mat, m.mat.conj().T)
    with pytest.raises(ValueError):
        HermitianMatrix(np.eye(3), SystemShape([2, 2]))


def test_stacked_hermitian_check_rejects_one_bad_member():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    stack = g + g.conj().swapaxes(-1, -2) + 1e-12 * g
    got = _herm_array(stack)
    want = np.array([HermitianMatrix(m).mat for m in stack])
    assert got.tobytes() == want.tobytes()
    stack[3, 0, 1] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        _herm_array(stack)
    with pytest.raises(ValueError, match="square"):
        _herm_array(np.zeros((5, 3, 2)))


def test_tensor_and_identity():
    s = SystemShape([2])
    x = HermitianMatrix([[0, 1], [1, 0]], s)
    z = HermitianMatrix([[1, 0], [0, -1]], s)
    xz = tensor(x, z)
    assert xz.shape.local_dims == (2, 2)
    assert np.allclose(xz.mat, np.kron(x.mat, z.mat))
    assert np.allclose(tensor(identity(s), identity(s)).mat, np.eye(4))


def test_partial_transpose_bell():
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = HermitianMatrix(np.outer(psi, psi), SystemShape([2, 2]))
    rt = partial_transpose(rho, Cut([1]))
    w = np.linalg.eigvalsh(rt.mat)
    assert np.allclose(sorted(w), [-0.5, 0.5, 0.5, 0.5])
    assert trace_norm(rt) == pytest.approx(2.0, abs=1e-12)


def test_partial_transpose_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = HermitianMatrix(rand_herm(rng, 12).mat, SystemShape([2, 3, 2]))
        cut = Cut([int(rng.integers(3))])
        mt = partial_transpose(m, cut)
        back = partial_transpose(mt, cut)
        assert np.allclose(back.mat, m.mat, atol=1e-13)
        assert np.trace(mt.mat) == pytest.approx(np.trace(m.mat).real, abs=1e-12)
        assert np.allclose(mt.mat, mt.mat.conj().T, atol=1e-13)
        both = partial_transpose(partial_transpose(m, Cut([0])), Cut([1, 2]))
        assert np.allclose(both.mat, m.mat.T, atol=1e-13)


def test_partial_trace_product():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rand_herm(rng, 2)
        b = rand_herm(rng, 3)
        ab = tensor(
            HermitianMatrix(a.mat, SystemShape([2])),
            HermitianMatrix(b.mat, SystemShape([3])),
        )
        ra = partial_trace(ab, Cut([0]))
        rb = partial_trace(ab, Cut([1]))
        assert np.allclose(ra.mat, a.mat * np.trace(b.mat).real, atol=1e-12)
        assert np.allclose(rb.mat, b.mat * np.trace(a.mat).real, atol=1e-12)
        assert ra.shape.local_dims == (2,)
        assert rb.shape.local_dims == (3,)


def test_partial_trace_three_party():
    rng = np.random.default_rng(7)
    m = HermitianMatrix(rand_herm(rng, 8).mat, SystemShape([2, 2, 2]))
    r02 = partial_trace(m, Cut([0, 2]))
    assert r02.dim == 4
    assert np.trace(r02.mat) == pytest.approx(np.trace(m.mat).real, abs=1e-12)
    # tracing in two steps must agree with one step
    r0 = partial_trace(partial_trace(m, Cut([0, 2])), Cut([0]))
    assert np.allclose(r0.mat, partial_trace(m, Cut([0])).mat, atol=1e-12)


@pytest.mark.parametrize(
    "dims, parties, keep",
    [((2, 3), (0,), (1,)), ((2, 2, 2), (0, 2), (1,)), ((2, 3, 3), (2,), (0, 1))],
    ids=["2x3", "2x2x2", "dps2-ext"],
)
def test_stacked_partial_maps_match_per_matrix(dims, parties, keep):
    # the SDP builder maps a whole stack of basis matrices at once; each
    # slice must be bit for bit what the map gives the matrix on its own
    rng = np.random.default_rng(17)
    d = int(np.prod(dims))
    stack = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    for fn, arg in ((_pt_array, parties), (_pt_array, (0,)), (_ptrace_array, keep)):
        got = fn(stack, dims, arg)
        want = np.array([[fn(m, dims, arg) for m in row] for row in stack])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_eig_hermitian_residuals():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        d = int(rng.integers(2, 37))
        m = rand_herm(rng, d)
        w, v = eig_hermitian(m)
        assert np.all(np.diff(w) <= 1e-12)
        res = np.abs(m.mat @ v - v * w).max()
        assert res <= 1e-10 * max(1.0, np.abs(w).max())
        assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10


def test_trace_norm_and_inner():
    m = HermitianMatrix([[1, 0], [0, -2]])
    assert trace_norm(m) == pytest.approx(3.0)
    a = HermitianMatrix([[0, 1], [1, 0]])
    b = HermitianMatrix([[0, -1j], [1j, 0]])
    assert hs_inner(a, a) == pytest.approx(2.0)
    assert hs_inner(a, b) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        hs_inner(m, HermitianMatrix(np.eye(3)))
