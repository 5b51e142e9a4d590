"""Dense complex Hermitian linear algebra with multipartite index bookkeeping.

Subsystem ordering is row-major throughout: the first subsystem is the
slowest index of the flattened matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_ATOL = 1e-9


@dataclass(frozen=True)
class SystemShape:
    """Ordered local dimensions of a multipartite operator."""

    local_dims: tuple

    def __init__(self, local_dims):
        dims = tuple(int(d) for d in local_dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError("local dimensions must be positive integers")
        object.__setattr__(self, "local_dims", dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.local_dims:
            out *= d
        return out

    def __len__(self):
        return len(self.local_dims)


@dataclass(frozen=True)
class Cut:
    """A bipartition A|B given by the subsystem indices on the A side."""

    party_set: tuple

    def __init__(self, party_set):
        parties = tuple(sorted(set(int(i) for i in party_set)))
        if not parties:
            raise ValueError("cut must contain at least one subsystem")
        object.__setattr__(self, "party_set", parties)

    def validate(self, shape: SystemShape):
        k = len(shape)
        if any(i < 0 or i >= k for i in self.party_set):
            raise IndexError("cut index out of range")
        if len(self.party_set) >= k:
            raise ValueError("cut must be a proper subset of the subsystems")


def _herm(m: np.ndarray) -> np.ndarray:
    """(m + m†)/2 over the last two axes, unchecked; leading axes are a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _check_herm(mats, what: str = "matrix", shape: tuple | None = None) -> np.ndarray:
    """mats as a complex array, not symmetrized; leading axes are a stack.

    Rejects input of another shape than shape (if given), non-square
    input, and a stack with any member whose anti-Hermitian part exceeds
    ``HERM_ATOL`` in an entry.
    """
    mats = np.asarray(mats, dtype=complex)
    if shape is not None and mats.shape != shape:
        raise ValueError(f"{what} has shape {mats.shape}, not {shape}")
    if mats.ndim < 2 or mats.shape[-1] != mats.shape[-2]:
        raise ValueError(f"{what} must be square, got shape {mats.shape}")
    asym = np.abs(mats - mats.conj().swapaxes(-1, -2)).max() if mats.size else 0.0
    if asym > HERM_ATOL:
        raise ValueError(f"{what} is not Hermitian (asymmetry {asym:.3e})")
    return mats


def _herm_array(m) -> np.ndarray:
    """_herm of the checked stack m: (m + m†)/2 once _check_herm accepts m."""
    return _herm(_check_herm(m))


class HermitianMatrix:
    """Dense complex Hermitian operator with optional subsystem shape.

    The constructor symmetrizes (m + m†)/2 and rejects inputs whose
    anti-Hermitian part exceeds ``HERM_ATOL`` in any entry: ``_herm_array``
    on a single matrix.
    """

    def __init__(self, entries, shape: SystemShape | None = None):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2:
            raise ValueError("entries must form a square matrix")
        self.mat = _herm_array(m)
        if shape is not None and shape.total_dim != m.shape[0]:
            raise ValueError("shape does not match matrix dimension")
        self.shape = shape

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def require_shape(self) -> SystemShape:
        if self.shape is None:
            raise ValueError("operation requires subsystem shape metadata")
        return self.shape

    def __repr__(self):
        dims = self.shape.local_dims if self.shape else None
        return f"HermitianMatrix(dim={self.dim}, dims={dims})"


def identity(shape: SystemShape) -> HermitianMatrix:
    return HermitianMatrix(np.eye(shape.total_dim), shape)


def tensor(a: HermitianMatrix, b: HermitianMatrix) -> HermitianMatrix:
    """Kronecker product with concatenated subsystem shapes."""
    sa = a.shape.local_dims if a.shape else (a.dim,)
    sb = b.shape.local_dims if b.shape else (b.dim,)
    return HermitianMatrix(np.kron(a.mat, b.mat), SystemShape(sa + sb))


def _pt_array(mat: np.ndarray, dims, parties) -> np.ndarray:
    """Partial transpose over the last two axes; leading axes are a stack."""
    k, n = len(dims), mat.ndim - 2
    t = mat.reshape(mat.shape[:n] + tuple(dims) * 2)
    for ax in parties:
        t = np.swapaxes(t, n + ax, n + ax + k)
    return t.reshape(mat.shape)


def _ptrace_array(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Partial trace over the last two axes; leading axes are a stack."""
    k, n = len(dims), mat.ndim - 2
    t = mat.reshape(mat.shape[:n] + tuple(dims) * 2)
    traced = 0
    for ax in range(k):
        if ax not in keep:
            t = np.trace(t, axis1=n + ax - traced, axis2=n + ax - traced + k - traced)
            traced += 1
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(mat.shape[:n] + (d, d))


def partial_transpose(m: HermitianMatrix, cut: Cut) -> HermitianMatrix:
    """Transpose the indices of the subsystems in ``cut``. Involutive."""
    shape = m.require_shape()
    cut.validate(shape)
    return HermitianMatrix(_pt_array(m.mat, shape.local_dims, cut.party_set), shape)


def partial_trace(m: HermitianMatrix, keep: Cut) -> HermitianMatrix:
    """Trace out every subsystem not listed in ``keep``."""
    shape = m.require_shape()
    k = len(shape)
    if any(i < 0 or i >= k for i in keep.party_set):
        raise IndexError("cut index out of range")
    out = _ptrace_array(m.mat, shape.local_dims, keep.party_set)
    kept = SystemShape([shape.local_dims[i] for i in keep.party_set])
    return HermitianMatrix(out, kept)


def _eigh_array(mat: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns over the
    last two axes; leading axes are a stack."""
    w, v = np.linalg.eigh(mat)
    return w[..., ::-1], v[..., ::-1]


def eig_hermitian(m: HermitianMatrix):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""
    return _eigh_array(m.mat)


def trace_norm(m: HermitianMatrix) -> float:
    return float(np.abs(np.linalg.eigvalsh(m.mat)).sum())


def hs_inner(a: HermitianMatrix, b: HermitianMatrix) -> float:
    """Tr(a b), real for Hermitian arguments."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return float(np.real(np.einsum("ij,ji->", a.mat, b.mat)))
