"""Dense complex linear algebra over small finite-dimensional Hilbert spaces.

Everything is an immutable value wrapping a read-only numpy array, every
operation is a pure function, and dimensions are capped (``DIM_CAP``) because
correctness at desk scale matters more than throughput here.  The Kronecker
index convention is row-major throughout: the component ``k`` of ``a (x) b``
is ``a[i] * b[j]`` with ``k = i * dim(b) + j``, matching ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NotHermitian

# Hard cap on space dimension; raise it consciously, not by accident.
DIM_CAP = 64

# Tolerances, every threshold of the package (residuals are max-entry magnitudes):
HERMITIAN_TOL = 1e-12  # input operators are hermitian up to one rounding per entry
# Looser than HERMITIAN_TOL: an eigh-built projector entry at dim 64 sums 64 rounded products.
PROJECTOR_TOL = 1e-10  # B^H B = 1 of a PVM basis; P^H = P = P P of a projector
COMMUTATION_TOL = 1e-10  # [P, Q] of jointly measured projectors: projector products, as above
POSSIBILITY_TOL = 1e-10  # a Born probability above this counts as possible, not as projector leak
# Tighter than POSSIBILITY_TOL, so that a small but real branch of a given table still counts.
PROBABILITY_TOL = 1e-12  # rounding of exact table probabilities: sums, negatives, null branches
ZERO_NORM_TOL = 1e-14  # a vector shorter than this is zero and cannot be normalized
EIGENVALUE_GROUPING_RTOL = 1e-9  # times max(1, ||O||), since eigh's errors scale with ||O||
# Looser than the projector checks: it bounds what a caller passes in, not rounding.
UNIT_TOL = 1e-9  # | ||psi|| - 1 | of a state that must be a unit vector
CLONING_DEFECT_TOL = 1e-10  # |c - c^2| of an identical pair is one inner product's rounding
CHSH_BOUND_MARGIN = 1e-9  # |S| must pass a bound by more: the rock reaches S = -2 - 4e-16


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex vector in a finite-dimensional Hilbert space, with finite
    amplitudes (a NaN or infinite one raises InvalidArgument naming its index).

    Not required to be normalized on construction: ``normalize`` returns a
    unit-norm copy for a caller that wants one, and an operation that needs a
    unit vector checks the norm itself (as ``no_cloning_witness`` does).
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise InvalidArgument(f"state vector must be 1-d, got shape {amps.shape}")
        if amps.shape[0] < 1:
            raise InvalidArgument("state vector needs dimension >= 1")
        if amps.shape[0] > DIM_CAP:
            raise InvalidArgument(f"dimension {amps.shape[0]} exceeds DIM_CAP={DIM_CAP}")
        if not np.isfinite(amps).all():
            bad = np.flatnonzero(~np.isfinite(amps))
            raise InvalidArgument(f"non-finite amplitudes at indices {bad.tolist()}")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class Operator:
    """Square complex matrix acting on a finite-dimensional space."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgument(f"operator must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise InvalidArgument("operator needs dimension >= 1")
        if m.shape[0] > DIM_CAP:
            raise InvalidArgument(f"dimension {m.shape[0]} exceeds DIM_CAP={DIM_CAP}")
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def is_hermitian(self) -> bool:
        return float(np.abs(self.entries - self.entries.conj().T).max()) <= HERMITIAN_TOL


# ---------------------------------------------------------------------------
# constructors

def basis_vector(dim: int, index: int) -> StateVector:
    if not 0 <= index < dim:
        raise InvalidArgument(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def projector_onto(v: StateVector) -> Operator:
    """Rank-1 projector |v><v| (v is normalized first)."""
    u = normalize(v).amplitudes
    return Operator(np.outer(u, u.conj()))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Q of the QR factorisation of a complex Gaussian matrix (real parts drawn
    first): the span of any run of its columns is Haar-random."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(g)[0]


def haar_projector(dim: int, rank: int, rng: np.random.Generator) -> Operator:
    """Haar-random projector onto the first ``rank`` columns of ``haar_unitary``."""
    if not 0 <= rank <= dim:
        raise InvalidArgument(f"rank {rank} out of range for dim {dim}")
    block = haar_unitary(dim, rng)[:, :rank]
    return Operator(block @ block.conj().T)


SIGMA_X = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
SIGMA_Y = Operator(np.array([[0, -1j], [1j, 0]], dtype=complex))
SIGMA_Z = Operator(np.array([[1, 0], [0, -1]], dtype=complex))


# ---------------------------------------------------------------------------
# operations

def normalize(v: StateVector) -> StateVector:
    n = v.norm()
    if n < ZERO_NORM_TOL:
        raise InvalidArgument("cannot normalize a (numerically) zero vector")
    return StateVector(v.amplitudes / n)


def tensor_vec(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of states, row-major: index k = i*dim(b) + j."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def tensor_op(A: Operator, B: Operator) -> Operator:
    """Kronecker product of operators, same index convention as tensor_vec."""
    return Operator(np.kron(A.entries, B.entries))


def spectral_decomposition(O: Operator) -> tuple[tuple[float, ...], np.ndarray, tuple[int, ...]]:
    """(eigenvalues, eigenbasis, block sizes) of a hermitian operator.

    Eigenvalues closer than ``EIGENVALUE_GROUPING_RTOL * max(1, ||O||)`` are
    merged into one degenerate eigenvalue, their mean, so coarse-graining by
    outcome subsets sees the correct ranks.  The merged eigenvalues strictly
    increase, and the k-th run of ``sizes[k]`` eigenbasis columns spans the
    k-th eigenspace.  Raises :class:`NotHermitian` on a non-hermitian input.
    """
    if not O.is_hermitian():
        raise NotHermitian("spectral decomposition needs a hermitian operator")
    values, vectors = np.linalg.eigh(O.entries)
    scale = max(1.0, float(np.abs(values).max()))
    tol = EIGENVALUE_GROUPING_RTOL * scale

    cuts = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    means = tuple(float(values[a:b].mean()) for a, b in zip(cuts, cuts[1:]))
    return means, vectors, tuple(np.diff(cuts).tolist())
