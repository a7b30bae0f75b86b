"""Truncated bosonic Fock spaces, states, operators and the H(t) generator.

The composite space is an ordered tensor product of truncated single-mode
Fock spaces, cavity first, in row-major basis ordering: the flat basis index
of ``|n_c, n_1, n_2>`` is ``(n_c * d1 + n_1) * d2 + n_2``.  States are
dense complex128; operators, and the pieces of H(t) a :class:`Generator`
holds, are sparse (CSR) complex128 from construction, since at total
dimension 50 one sparse Lindblad application takes tens of microseconds
against about 500 for the dense commutator.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    InvalidStateError,
    OutOfRangeError,
    TruncationError,
    TruncationWarning,
)

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
EIGENVALUE_FLOOR = -1e-8
NORM_TOL = 1e-10

#: tail-mass thresholds for truncated coherent/thermal constructions
TAIL_WARN = 1e-4
TAIL_ERROR = 1e-2


def _whole(value) -> bool:
    """Whether ``value`` is a real number with no fraction; a bool is none."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and float(value).is_integer())


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered mode dimensions of a truncated tensor-product Fock space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not all(_whole(d) for d in self.dims):
            raise InvalidDimensionError(
                f"every mode dimension must be an integer, not {self.dims!r}")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 1:
            raise InvalidDimensionError("need at least one mode")
        if any(d < 2 for d in dims):
            raise InvalidDimensionError(f"every mode dimension must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def index(self, occupations: Sequence[int]) -> int:
        """Flat basis index of a multi-index, row-major."""
        if len(occupations) != self.n_modes:
            raise InvalidDimensionError(
                f"expected {self.n_modes} occupation numbers, got {len(occupations)}"
            )
        idx = 0
        for n, d in zip(occupations, self.dims):
            if not 0 <= n < d:
                raise OutOfRangeError(f"occupation {n} outside [0, {d})")
            idx = idx * d + n
        return idx

    def multi_index(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.total_dim:
            raise OutOfRangeError(f"index {index} outside [0, {self.total_dim})")
        out = []
        for d in reversed(self.dims):
            out.append(index % d)
            index //= d
        return tuple(reversed(out))


def _as_square_complex(matrix, dim: int, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidDimensionError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


def _as_csr(matrix, dim: int, what: str) -> scipy.sparse.csr_matrix:
    m = scipy.sparse.csr_matrix(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidDimensionError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


def _no_terms(t: np.ndarray) -> np.ndarray:
    """The coefficient rule of a generator with no operators."""
    return np.zeros((0,) + t.shape)


class Generator:
    """Hermitian H(t) = H0 + sum_k (c_k(t) A_k + conj(c_k(t)) A_k^+).

    ``h0`` is the constant Hermitian part (``None`` for zero, or a dense or
    sparse matrix), ``ops`` the operators A_k, and the rule ``coefficients``
    maps an (N, columns) array of times to the (len(ops), N, columns) c_k,
    in the order of ``ops``, as :class:`~omstirap.model.DriveCoefficients`
    does.  All pieces are stored as CSR matrices.  A rule of several
    columns stands for one H(t) per column, which the integrator steps as
    one batch; :meth:`at` reads a one-column rule at one time.
    """

    __slots__ = ("space", "h0", "ops", "coefficients")

    def __init__(self, space: HilbertSpace, h0=None, ops=(), coefficients=None):
        d = space.total_dim
        self.space = space
        self.h0 = _as_csr((d, d) if h0 is None else h0, d, "constant Hamiltonian")
        self.ops = tuple(_as_csr(a, d, "generator operator") for a in ops)
        if self.ops and coefficients is None:
            raise InvalidArgumentError("time-dependent operators need a coefficient function")
        self.coefficients = coefficients or _no_terms

    def at(self, t: float) -> np.ndarray:
        """Every c_k at the one time t, from a one-column rule."""
        c = self.coefficients(np.full((1, 1), t))
        if c.shape[1:] != (1, 1):
            raise InvalidArgumentError("H(t) at one time needs a one-column rule")
        return c[:, 0, 0]

    def dense(self, t: float) -> np.ndarray:
        """H(t) as a dense Hermitian matrix."""
        h = self.h0.toarray()
        for c, a in zip(self.at(t), self.ops):
            term = (c * a).toarray()
            h += term + term.conj().T
        return h


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a space.

    ``validate=False`` skips the invariant checks; it is used internally by
    the integrator, which enforces hermiticity and trace itself.
    """

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix, *, validate: bool = True):
        self.space = space
        self.matrix = _as_square_complex(matrix, space.total_dim, "density matrix")
        if validate:
            self._check()
        self.matrix.flags.writeable = False

    def _check(self):
        m = self.matrix
        herm = np.max(np.abs(m - m.conj().T))
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"not Hermitian: max |rho - rho^+| = {herm:.3e}")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"trace {tr:.10f} differs from 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < EIGENVALUE_FLOOR:
            raise InvalidStateError(f"negative eigenvalue {evals.min():.3e}")


class StateVector:
    """A normalized pure state on a :class:`HilbertSpace`."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: HilbertSpace, amplitudes, *, validate: bool = True):
        amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (space.total_dim,):
            raise InvalidDimensionError(
                f"amplitude vector must have length {space.total_dim}, got {amps.shape}"
            )
        if validate:
            norm = np.linalg.norm(amps)
            if abs(norm - 1.0) > NORM_TOL:
                raise InvalidStateError(f"norm {norm:.12f} differs from 1")
        self.space = space
        self.amplitudes = amps
        self.amplitudes.flags.writeable = False

    def density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()),
                             validate=False)


def ladder(dim: int, kind: str = "lower") -> np.ndarray:
    """Truncated single-mode ladder operator.

    ``lower`` has entries sqrt(k) at (k-1, k); ``raise`` is its conjugate
    transpose.  Truncation makes ``[a, a^+]`` deviate from identity only at
    the top Fock level.
    """
    if dim < 2:
        raise InvalidDimensionError(f"ladder needs dim >= 2, got {dim}")
    if kind not in ("lower", "raise"):
        raise InvalidArgumentError(f"kind must be 'lower' or 'raise', got {kind!r}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a if kind == "lower" else a.conj().T


def embed(space: HilbertSpace, mode_index: int, local) -> scipy.sparse.csr_matrix:
    """Lift a single-mode operator to the composite space: I x ... x A x ... x I, as CSR."""
    if not 0 <= mode_index < space.n_modes:
        raise InvalidDimensionError(f"mode index {mode_index} out of range")
    loc = np.asarray(local, dtype=complex)
    d = space.dims[mode_index]
    if loc.shape != (d, d):
        raise InvalidDimensionError(
            f"local operator is {loc.shape}, mode {mode_index} has dim {d}"
        )
    left = math.prod(space.dims[:mode_index])
    right = math.prod(space.dims[mode_index + 1:])
    # entry (i, j) of A lands at row (l, i, r) and column (l, j, r) for every outer
    # index l and inner index r; built from indices, as the Python overhead of
    # scipy.sparse.kron outweighs the arithmetic at these sizes
    i, j = np.nonzero(loc)
    outer = np.arange(left)[:, None, None] * d
    rows, cols = (((outer + k[:, None]) * right + np.arange(right)).ravel() for k in (i, j))
    vals = np.broadcast_to(loc[i, j][:, None], (left, i.size, right)).ravel()
    n = space.total_dim
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def destroy(space: HilbertSpace, mode_index: int) -> scipy.sparse.csr_matrix:
    """Annihilation operator of one mode on the composite space."""
    return embed(space, mode_index, ladder(space.dims[mode_index], "lower"))


def number_operator(space: HilbertSpace, mode_index: int) -> scipy.sparse.csr_matrix:
    """Number operator n = a^+ a of one mode on the composite space."""
    a = ladder(space.dims[mode_index], "lower")
    return embed(space, mode_index, a.conj().T @ a)


def fock_state(space: HilbertSpace, *occupations: int) -> StateVector:
    """Basis state |n_0, n_1, ...> of the composite space."""
    amps = np.zeros(space.total_dim, dtype=complex)
    amps[space.index(occupations)] = 1.0
    return StateVector(space, amps, validate=False)


def _tail_policy(tail: float, what: str):
    if tail > TAIL_ERROR:
        raise TruncationError(f"{what}: truncated tail mass {tail:.3e} > {TAIL_ERROR}")
    if tail > TAIL_WARN:
        warnings.warn(
            f"{what}: truncated tail mass {tail:.3e}; state renormalized",
            TruncationWarning,
            stacklevel=3,
        )


def coherent_state(dim: int, alpha: complex) -> StateVector:
    """Truncated coherent state, renormalized over the kept levels.

    Amplitudes follow c_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!).  Tail mass
    above 1e-4 raises :class:`TruncationWarning`; above 1e-2 it is an error.
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    n = np.arange(dim)
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return StateVector(HilbertSpace((dim,)), amps, validate=False)
    log_fact = np.array([math.lgamma(k + 1) for k in n])
    amps = np.exp(-abs(alpha) ** 2 / 2 + n * np.log(complex(alpha)) - log_fact / 2)
    tail = max(0.0, 1.0 - float(np.vdot(amps, amps).real))
    _tail_policy(tail, f"coherent_state(dim={dim}, alpha={alpha})")
    amps = amps / np.linalg.norm(amps)
    return StateVector(HilbertSpace((dim,)), amps, validate=False)


def thermal_tail_mass(dim: int, nbar: float) -> float:
    """Probability mass of a thermal state beyond the truncation level."""
    if nbar <= 0:
        return 0.0
    q = nbar / (1.0 + nbar)
    return q ** dim


def thermal_state(dim: int, nbar: float) -> DensityMatrix:
    """Truncated thermal state with geometric diagonal, renormalized."""
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
    if nbar < 0:
        raise InvalidArgumentError(f"nbar must be >= 0, got {nbar}")
    space = HilbertSpace((dim,))
    if nbar == 0:
        diag = np.zeros(dim)
        diag[0] = 1.0
    else:
        q = nbar / (1.0 + nbar)
        diag = (1.0 - q) * q ** np.arange(dim)
        _tail_policy(thermal_tail_mass(dim, nbar), f"thermal_state(dim={dim}, nbar={nbar})")
        diag = diag / diag.sum()
    return DensityMatrix(space, np.diag(diag.astype(complex)), validate=False)


def expectation(op, state) -> complex:
    """Tr(op rho) for a density matrix, or <psi|op|psi> for a state vector.

    ``op`` is a sparse or dense matrix on the state's space.
    """
    if not isinstance(state, (DensityMatrix, StateVector)):
        raise InvalidArgumentError(f"unsupported state type {type(state)!r}")
    d = state.space.total_dim
    if op.shape != (d, d):
        raise InvalidDimensionError(f"operator is {op.shape}, state has dimension {d}")
    if isinstance(state, DensityMatrix):
        return complex((op @ state.matrix).trace())
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def product_density(space: HilbertSpace, factors: Iterable) -> DensityMatrix:
    """Tensor product of single-mode states.

    A factor is a DensityMatrix, a StateVector, a matrix, or a 1-D array of
    pure-state amplitudes.
    """
    mats = []
    for f in factors:
        f = f.amplitudes if isinstance(f, StateVector) else f
        f = f.matrix if isinstance(f, DensityMatrix) else np.asarray(f, dtype=complex)
        mats.append(np.outer(f, f.conj()) if f.ndim == 1 else f)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    if out.shape != (space.total_dim, space.total_dim):
        raise InvalidDimensionError(
            f"product has dim {out.shape[0]}, space expects {space.total_dim}"
        )
    return DensityMatrix(space, out, validate=False)
