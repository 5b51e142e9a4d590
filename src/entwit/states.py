"""Density matrices, pure states, and generators for the test families."""

from __future__ import annotations

import json

import numpy as np

from .linalg import Cut, HermitianMatrix, SystemShape, _herm_array, partial_trace

EIG_ATOL = 1e-10
TRACE_ATOL = 1e-10

# SeedSequence's hash constants and PCG64's LCG multiplier, which NumPy's
# stream-compatibility policy (NEP 19) keeps fixed; stream_seeds follows
# numpy's own seeding with them, and checks that it still does.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _check_density(m: np.ndarray) -> None:
    """Reject a stack of Hermitian matrices (last two axes) with any member
    whose entries are not finite, whose trace is off 1 or whose spectrum
    dips below zero, each beyond its tolerance.

    m + EIG_ATOL I has a Cholesky factor exactly when lambda_min(m) >
    -EIG_ATOL, so one stacked factorization checks the spectrum; the
    eigenvalues are computed only when it fails, to name the worst one.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_ATOL
    if off.any():
        raise ValueError(f"trace {tr[off].flat[0]!r} is not 1")
    try:
        np.linalg.cholesky(m + EIG_ATOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(m)[..., 0]
        neg = lo < -EIG_ATOL
        if neg.any():
            raise ValueError(f"negative eigenvalue {lo[neg].min():.3e}") from None


class DensityMatrix(HermitianMatrix):
    """Hermitian, unit-trace, positive semidefinite (up to small tolerance)."""

    def __init__(self, entries, shape: SystemShape | None = None):
        super().__init__(entries, shape)
        _check_density(self.mat)


class PureState:
    """Unit vector; ``density()`` builds its projector."""

    def __init__(self, amplitudes, shape: SystemShape | None = None):
        v = np.array(amplitudes, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"norm {n!r} is not 1")
        if shape is not None and shape.total_dim != v.size:
            raise ValueError("shape does not match vector length")
        self.vec = v
        self.shape = shape

    @property
    def dim(self) -> int:
        return self.vec.size

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()), self.shape)


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for ``seed`` and an optional branch path.

    State i of ``reproduce fig56 --seed seed`` draws from
    ``rng_stream(seed, i)``, through ``stream_seeds`` and ``stream_densities``.
    """
    return np.random.default_rng(np.random.SeedSequence((seed,) + path))


def _uint32_words(n: int) -> list:
    """The little-endian 32-bit words SeedSequence makes of an int n >= 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_words(seed: int, indices: np.ndarray) -> np.ndarray:
    """``SeedSequence((seed, i)).generate_state(4, np.uint64)`` for each i.

    numpy's mix_entropy and generate_state, run on uint32 arrays with one
    entry per index of the uint32 array ``indices``; their hash constant
    sequence does not depend on the data, so one pass serves every index.
    """
    n = len(indices)
    entropy = [np.full(n, w, np.uint32) for w in _uint32_words(seed)] + [indices]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = np.empty((n, 8), np.uint32)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out[:, k] = value ^ (value >> np.uint32(16))
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _pcg64_state(words: list) -> dict:
    """``PCG64.state`` after seeding from four generate_state words (ints).

    pcg_setseq_128_srandom_r with initstate = words 0-1 and initseq =
    words 2-3, high word first: inc = 2 initseq + 1, state = (inc +
    initstate) MULT + inc mod 2^128.
    """
    s_hi, s_lo, q_hi, q_lo = words
    inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def stream_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """The PCG64 seed words of ``rng_stream(seed, i)`` for i in [start, stop).

    Row k is ``SeedSequence((seed, start + k)).generate_state(4, np.uint64)``,
    all rows derived in one vectorized pass; ``stream_densities`` draws from
    them. An index needs one 32-bit entropy word, so stop may not pass
    2**32. The seed and start are validated by numpy's SeedSequence, and
    the first row and its PCG64 state are checked against numpy's own:
    RuntimeError on any mismatch.
    """
    first = np.random.SeedSequence((seed, start))
    if stop > 2**32:
        raise ValueError(f"stream index {stop - 1} does not fit 32 bits")
    words = _seed_words(seed, np.arange(start, stop, dtype=np.int64).astype(np.uint32))
    if len(words) and not (
        np.array_equal(words[0], first.generate_state(4, np.uint64))
        and _pcg64_state(words[0].tolist()) == np.random.PCG64(first).state
    ):
        raise RuntimeError("derived stream seeds differ from numpy's SeedSequence and PCG64")
    return words


def max_entangled(d: int) -> PureState:
    """(1/sqrt(d)) sum_i |ii> on d x d."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return PureState(v, SystemShape([d, d]))


def isotropic(d: int, p: float) -> DensityMatrix:
    """p |phi+><phi+| + (1-p) I/d^2."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    phi = max_entangled(d).density().mat
    m = p * phi + (1.0 - p) * np.eye(d * d) / (d * d)
    return DensityMatrix(m, SystemShape([d, d]))


def horodecki_3x3(a: float) -> DensityMatrix:
    """The 3x3 bound entangled one-parameter family, a in (0, 1)."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly inside (0, 1)")
    m = np.zeros((9, 9))
    for i in (0, 1, 2, 3, 4, 5, 7):
        m[i, i] = a
    m[0, 4] = m[4, 0] = a
    m[0, 8] = m[8, 0] = a
    m[4, 8] = m[8, 4] = a
    m[6, 6] = m[8, 8] = (1.0 + a) / 2.0
    m[6, 8] = m[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return DensityMatrix(m / (8.0 * a + 1.0), SystemShape([3, 3]))


def w_ghz_mix(q: float) -> DensityMatrix:
    """q |W><W| + (1-q) |GHZ><GHZ| on three qubits."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / np.sqrt(2.0)
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / np.sqrt(3.0)
    m = q * np.outer(w, w.conj()) + (1.0 - q) * np.outer(ghz, ghz.conj())
    return DensityMatrix(m, SystemShape([2, 2, 2]))


def vc_ssr_state() -> DensityMatrix:
    """Two-qubit mixture of |00>, |11> and the symmetric one-excitation state.

    Every entry is an exact quarter, so witness traces against it stay
    exact; composing 0.5 |psi+><psi+| from 1/sqrt(2) amplitudes would be
    one ulp off.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = 0.25
    m[1, 2] = m[2, 1] = 0.25
    return DensityMatrix(m, SystemShape([2, 2]))


def random_densities(d: int, seeds) -> np.ndarray:
    """Stack of Hilbert-Schmidt random states G G† / tr, one per seed.

    Each d x d Ginibre G draws from its own ``default_rng(seed)``; a seed
    is anything ``default_rng`` accepts (int or SeedSequence). The stack
    passes the checks of ``DensityMatrix``.
    """
    g = np.empty((len(seeds), d, d), dtype=complex)
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        g[i] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _hs_states(g)


def stream_densities(d: int, seeds: np.ndarray) -> np.ndarray:
    """Hilbert-Schmidt random states, one per row of ``stream_seeds`` words.

    The state of row ``stream_seeds(seed, start, stop)[k]`` is byte for byte
    ``random_density(d, SeedSequence((seed, start + k)))``: one PCG64 is
    set to each row's state in turn and draws the real and imaginary parts
    of G in a single (2, d, d) call, the same numbers as the two (d, d)
    draws of ``random_densities``.
    """
    gen = np.random.Generator(np.random.PCG64(0))  # every state is set below
    normals = np.empty((len(seeds), 2, d, d))
    for k, words in enumerate(seeds.tolist()):
        gen.bit_generator.state = _pcg64_state(words)
        gen.standard_normal(out=normals[k])
    return _hs_states(normals[:, 0] + 1j * normals[:, 1])


def _hs_states(g: np.ndarray) -> np.ndarray:
    """The checked stack G G† / tr(G G†) of a stack of d x d matrices G."""
    m = g @ g.conj().swapaxes(-1, -2)
    m = _herm_array(m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None])
    _check_density(m)
    return m


def random_density(d: int, seed, shape: SystemShape | None = None) -> DensityMatrix:
    """Hilbert-Schmidt random state: ``random_densities`` for one seed."""
    return DensityMatrix(random_densities(d, [seed])[0], shape or SystemShape([d]))


def random_pure(d: int, seed, shape: SystemShape | None = None) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), shape or SystemShape([d]))


def thermal(h: HermitianMatrix, beta: float) -> DensityMatrix:
    """exp(-beta H) / Z, computed in the eigenbasis with a max-shift."""
    w, v = np.linalg.eigh(h.mat)
    e = np.exp(-beta * (w - w.min()))
    e /= e.sum()
    return DensityMatrix((v * e) @ v.conj().T, h.shape)


def schmidt(psi: PureState, cut: Cut):
    """Schmidt coefficients (descending) across ``cut``."""
    shape = psi.shape
    if shape is None:
        raise ValueError("pure state needs subsystem shape metadata")
    cut.validate(shape)
    rho = psi.density()
    ra = partial_trace(rho, cut)
    w = np.linalg.eigvalsh(ra.mat)[::-1]
    return np.sqrt(np.clip(w, 0.0, None))


def _mat_doc(m: HermitianMatrix) -> dict:
    """The JSON document {"dims", "re", "im"} of a matrix, shared by states and witnesses."""
    dims = list(m.shape.local_dims) if m.shape else [m.dim]
    return {"dims": dims, "re": m.mat.real.tolist(), "im": m.mat.imag.tolist()}


def _mat_from_doc(doc: dict, cls=HermitianMatrix):
    """The matrix of a _mat_doc document, as cls (HermitianMatrix or DensityMatrix).

    ValueError for a document of the wrong shape: not a JSON object, or a
    field that numbers and dimensions cannot be read from.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a matrix document is a JSON object, not {type(doc).__name__}")
    try:
        m = np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
        shape = SystemShape(doc["dims"])
    except TypeError as err:
        raise ValueError(f"matrix document has a field of the wrong type: {err}") from err
    return cls(m, shape)


def state_to_json(rho: HermitianMatrix) -> str:
    return json.dumps(_mat_doc(rho), indent=2)


def state_from_json(text: str) -> DensityMatrix:
    """The state of a state_to_json document; ValueError for a document of the wrong shape."""
    return _mat_from_doc(json.loads(text), DensityMatrix)
