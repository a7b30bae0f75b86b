"""Lindblad master-equation right-hand side and adaptive time integration.

The generator is

    d rho / dt = -i [H(t), rho] + sum_k r_k (C_k rho C_k^+
                                             - (C_k^+ C_k rho + rho C_k^+ C_k)/2)

with the cavity decaying at rate kappa through C = a and each mechanical
mode thermalizing through the pair (b_i, Gamma_i (nbar_i + 1)) and
(b_i^+, Gamma_i nbar_i).

Every path derives from one :class:`~omstirap.hilbert.Generator`: the
row-major vec(rho) evolves under sparse superoperators (pure states under the
Hilbert-space terms), integrated with an embedded Dormand-Prince 5(4) pair
that monitors the trace; the same pieces, densified, feed a matrix-exponential
oracle.  The error controller sets each step size, and a step is cut short
only to end on a stop or on the last sample time: ``run_scenario`` stops at
each pulse centre, so no step skips a pulse.  A sample time inside a step is
read from the pair's quartic continuous extension (Hairer, Norsett & Wanner,
Solving ODEs I, sec. II.6), so samples cost no steps.

One entry point, :func:`evolve`, takes psi or rho, and the input picks the
form: a pure state under a model with no collapse term of positive rate is
stepped as psi, and everything else as rho.  Both forms step a real state,
the real coordinates of a complex vector (:class:`_RealCoordinates`): rho as
its Hermitian half, Re rho_ii and then the pair (Re rho_ij, Im rho_ij) for
each i < j (the real coherence-vector form, Alicki & Lendi, Lect. Notes
Phys. 717), and psi as the pair (Re psi_i, Im psi_i) of each amplitude.
The k-th drive term c_k K_k + conj(c_k) K'_k (K_k = -i A_k on psi) gives the
real pieces K_k + K'_k and i(K_k - K'_k), so the weights of (L0 or -i H0,
...) are (1, Re c_k, Im c_k) and rho stays Hermitian exactly, with no
symmetrization.  When every coefficient of every column is real
(``DriveCoefficients.real``: zero phase rates and real drive phases, as in
the table-2 and fig3 presets), each i(K_k - K'_k) has the weight 0 and is
not built.  Both forms have one norm rule (:meth:`_RealCoordinates.norm`):
Tr rho, the sum of the stepped real coordinates, or |psi|^2.  It is checked
after every step and at every sample, and psi alone is renormalized after
each step: |psi|^2 is a quadratic invariant, which RK does not conserve,
while every piece keeps Tr rho.

A sample is kept as the coordinates the run steps, divided by the trace
(the norm for psi): one row of m reals, where the d x d rho it stands for has
d^2 complex entries.  The observables are read from these rows
(``protocols._observables``), and :attr:`Trajectory.states` rebuilds the
density matrices only when it is read.

Every run is a batch: the integrator steps B columns at once, a single run
being a batch of one.  The columns share the pieces and the initial state and
differ in their Hamiltonian coefficients and sample grids (a sweep's cells, a
fringe's phase points).  The state is a row-major (B, m) array, held as row 0
of one (8, B, m) array with the seven stages.  Each attempt evaluates the
piece weights of every active column at its six stage times in one call, each
stage is one call of scipy's CSR kernel on the pieces laid side by side, and
each stage input, the fifth-order solution, the error vector and each sample
inside a step is one ``einsum``.  Every operation acts on each row alone in
the order a one-row batch uses, so a column takes bitwise the steps it takes
alone; it leaves the batch when it ends or fails.  The integrator calls no
BLAS, and the observables pass that follows it, whose eigenvalues call
LAPACK, runs with numpy's OpenBLAS pinned to one thread
(:func:`omstirap.blas.one_blas_thread`), so results do not depend on the BLAS
thread count.

Only the coordinates that the sparsity graph of the kept pieces can reach
from the nonzero ones of the initial state are stepped; every other one is
exactly zero at all times.  Where the generator conserves the total
excitation number (``rwa``, ``bs``), an input diagonal in it stays in the
coherence-order sector k = N_left - N_right = 0; ``full`` keeps every even
k.  With real coefficients, a real rho0 with no coherence between cavity
levels reaches at most one coordinate of each pair, since the gauge
U = i^{n_c} maps the generator to a real one and such a rho0 to itself: the
(2,5,5) presets step 190 of the 330 coordinates of the k = 0 sector.  The
error norm still divides by the full length (d^2, or d for psi) and scales
each pair by the modulus of its entry, counted for rho_ij and rho_ji, so it
is the norm of the unreduced complex integration to rounding, and so are the
step sequence and every result.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

from .errors import (
    IntegrationDivergedError,
    InvalidArgumentError,
    InvalidDimensionError,
    OracleTooLargeError,
    StiffnessError,
)
from .hilbert import DensityMatrix, Generator, HilbertSpace, StateVector, _as_csr, destroy
from .model import DriveCoefficients, bose_occupancy

TRACE_SAMPLE_TOL = 1e-6
TRACE_DIVERGENCE_TOL = 1e-4
ORACLE_DIM_CAP = 4096  # on total_dim^2; the oracle scales as dim^6


@dataclass(frozen=True)
class LindbladModel:
    """Hamiltonian (stored as a :class:`Generator`) plus weighted collapse operators."""

    space: HilbertSpace
    hamiltonian: Generator | np.ndarray | scipy.sparse.csr_matrix | None
    collapse_terms: tuple = ()

    def __post_init__(self):
        d = self.space.total_dim
        terms = []
        for op, rate in self.collapse_terms:
            if not 0 <= rate < math.inf:
                raise InvalidArgumentError(f"collapse rate {rate} must be finite and >= 0")
            terms.append((_as_csr(op, d, "collapse operator"), float(rate)))
        object.__setattr__(self, "collapse_terms", tuple(terms))
        h = self.hamiltonian
        gen = h if isinstance(h, Generator) else Generator(self.space, h)
        if gen.space != self.space:
            raise InvalidDimensionError("generator lives on a different space")
        object.__setattr__(self, "hamiltonian", gen)


@dataclass(frozen=True)
class IntegratorConfig:
    """Sample times, tolerances and ``stops``, such as pulse centres: the error controller
    sets each step, but a step ends on every stop and on the last sample time; a sample
    inside a step is read from the continuous extension, and stops store no state."""

    sample_times: Sequence[float]
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    stops: Sequence[float] = ()

    def __post_init__(self):
        ts = np.asarray(self.sample_times, dtype=float)
        if ts.ndim != 1 or ts.size < 2:
            raise InvalidArgumentError("need at least two sample times")
        if not np.all(np.isfinite(ts)):
            raise InvalidArgumentError("sample times must be finite")
        if np.any(np.diff(ts) <= 0):
            raise InvalidArgumentError("sample times must be strictly increasing")
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise InvalidArgumentError("tolerances must be finite and > 0")
        if not np.all(np.isfinite(np.asarray(self.stops, dtype=float))):
            raise InvalidArgumentError(f"stops must be finite, not {self.stops!r}")
        object.__setattr__(self, "sample_times", ts)


@dataclass(frozen=True)
class IntegratorStats:
    """What one integration did: steps, rhs evaluations, samples read from the
    continuous extension, step-size range, sizes."""

    accepted: int
    rejected: int
    rhs_evals: int
    clamped: int  # accepted steps cut short to end on a stop or the last sample
    interpolated: int  # samples read from the continuous extension inside a step
    h_min: float
    h_max: float
    # numbers integrated: the real coordinates of the state (rho's Hermitian
    # half, or Re and Im of each amplitude of psi) that its pieces can make nonzero
    state_size: int
    norm_size: int  # entries the error norm averages over: d^2, or d for a pure state
    pieces: int = 1  # sparse pieces each rhs applies: L0 (or -i H0) and the drive pieces kept


@dataclass(frozen=True)
class Trajectory:
    """Sampled states with named derived observables.

    ``samples`` holds one sampled state per time as the coordinates the run
    stepped, divided by the trace (the norm for a pure state): an
    (S, ``stats.state_size``) real array in the order of ``coords``, the
    run's :class:`_RealCoordinates`.  ``states`` rebuilds them as
    :class:`DensityMatrix` objects on ``space`` the first time it is read.
    ``timing`` holds the wall times of the run's layers.
    """

    times: np.ndarray
    samples: np.ndarray
    coords: _RealCoordinates | None = None
    space: HilbertSpace | None = None
    observables: dict = field(default_factory=dict)
    stats: IntegratorStats | None = None
    timing: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.samples):
            raise InvalidArgumentError("times and samples length mismatch")

    @functools.cached_property
    def states(self) -> tuple:
        """The sampled states as :class:`DensityMatrix` objects, one per time."""
        return tuple(DensityMatrix(self.space, self.coords.density(y), validate=False)
                     for y in self.samples)

    def with_observables(self, observables: dict) -> "Trajectory":
        return replace(self, observables={**self.observables, **observables})


def _support(pieces, start: np.ndarray) -> np.ndarray:
    """Sorted indices that the boolean mask ``start`` reaches through the sparsity
    graph of ``pieces``.

    Outside this set every linear combination of the pieces keeps a state
    that starts on ``start`` exactly zero.  Absolute values cannot cancel,
    so an entry is reached when any piece couples it to a reached one.
    """
    graph = abs(scipy.sparse.vstack(pieces, format="csr"))
    m = start.size
    reached = start
    while True:
        grown = reached | (graph @ reached).reshape(-1, m).any(axis=0)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _csr_product(a):
    """x -> a @ x for the CSR matrix ``a`` and a C-ordered (columns of ``a``, b)
    array ``x`` of its dtype: the call of scipy's CSR kernel into a zeroed
    output that ``a @ x`` makes, without its Python dispatch."""
    rows, cols = a.shape
    arrays = (a.indptr, a.indices, a.data)

    def product(x: np.ndarray) -> np.ndarray:
        b = x.shape[1]
        out = np.zeros((rows, b), dtype=a.dtype)
        if b == 1:
            _sparsetools.csr_matvec(rows, cols, *arrays, x.ravel(), out.ravel())
        else:
            _sparsetools.csr_matvecs(rows, cols, b, *arrays, x.ravel(), out.ravel())
        return out

    return product


def _linear_rhs(const, parts, keep):
    """(w, y) -> the rows of w_0 const y + sum_p w_{p+1} parts[p] y.

    ``y`` holds one state per row and ``w`` the (1 + len(parts), rows)
    weights of each row, w_0 = 1, from a weight rule (:func:`_hermitian_weights`
    or :func:`_real_weights`).  Every piece is cut to the rows and columns
    ``keep``, and the pieces are laid side by side, once, as one wide CSR
    matrix [const | parts[0] | ...].  A call stacks each row's weighted copies
    w y as the columns of one dense operand and makes one call of the CSR
    kernel (:func:`_csr_product`): no per-term or per-row sums, and nothing
    calls BLAS.
    """
    pieces = [p[keep][:, keep] for p in (const, *parts)]
    product = _csr_product(scipy.sparse.hstack(pieces, format="csr"))

    def rhs(w: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.multiply(w[:, None, :], y.T, order="C")  # x[p, :, b] = w[p, b] y[b]
        return product(x.reshape(-1, len(y))).T

    return rhs


def _hermitian_weights(c: np.ndarray) -> np.ndarray:
    """(1, Re c_1, Im c_1, ...): the weights of the real pieces
    (L0, K_1 + K'_1, i(K_1 - K'_1), ...) of :meth:`_RealCoordinates.pieces`."""
    w = np.empty((1 + 2 * len(c),) + c.shape[1:])
    w[0] = 1.0
    w[1::2], w[2::2] = c.real, c.imag
    return w


def _real_weights(c: np.ndarray) -> np.ndarray:
    """(1, Re c_1, Re c_2, ...): the weights of the real pieces less every
    i(K_k - K'_k), for coefficients whose imaginary parts are all zero."""
    w = np.empty((1 + len(c),) + c.shape[1:])
    w[0] = 1.0
    w[1:] = c.real
    return w


class _RealCoordinates:
    """The real coordinates of a complex vector v: v_i for each entry i of
    ``real`` (entries that are real), then the pair (Re v_i, Im v_i) for each
    entry i of ``upper``, as m real numbers.  ``lower``, if given, holds the
    entry that is the complex conjugate of each pair's entry, so that a pair
    stands for two entries.  The entries of ``real``, ``upper`` and ``lower``
    are the ``size`` entries of v.  :func:`_hermitian_half` gives those of a
    density matrix; a pure state has every amplitude in ``upper``.

    :meth:`pieces` and :meth:`coordinates` give all m coordinates.  The ones
    stepped are ``order``, all m until :meth:`restrict` cuts them, and
    ``weight``, :meth:`modulus`, :meth:`rms`, :meth:`norm`, :meth:`unit` and
    :meth:`vector` read states of those: first each coordinate whose pair
    partner is not stepped (the real ones leading), then the stepped pairs,
    which read as one complex array of v_i.
    """

    def __init__(self, real: np.ndarray, upper: np.ndarray, lower: np.ndarray | None = None):
        n, p = real.size, upper.size
        m = n + 2 * p
        # a Hermitian half: each pair stands for an entry and its conjugate
        self.hermitian = lower is not None
        self._real, self._pair_weight = n, 2.0 if self.hermitian else 1.0
        self.size = n + p * int(self._pair_weight)
        re, one = n + 2 * np.arange(p), np.ones(p)
        rows, cols = [real, upper, upper], [np.arange(n), re, re + 1]
        values = [np.ones(n), one, 1j * one]
        if lower is not None:
            rows, cols, values = rows + [lower] * 2, cols + [re, re + 1], values + [one, -1j * one]
        # v = expand @ y and y = Re(project @ v)
        self._expand = scipy.sparse.csr_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.size, m))
        self._project = scipy.sparse.csr_matrix(
            (np.concatenate([np.ones(n), one, -1j * one]),
             (np.concatenate([np.arange(n), re, re + 1]), np.concatenate([real, upper, upper]))),
            shape=(m, self.size))
        self.restrict(np.arange(m))

    def pieces(self, const, parts, imaginary: bool = True):
        """The real (const, [K_1 + K'_1, i(K_1 - K'_1), ...]) of the complex
        (const, [K_1, K'_1, ...]), for the weights (1, Re c_k, Im c_k) of
        c_k K_k + conj(c_k) K'_k, less every i(K_k - K'_k) unless
        ``imaginary``.  Each maps y to Re(project a expand y), the
        coordinates of a v when a v is again of the coordinates' form: always
        for a pure state, and for rho when a maps Hermitian matrices to
        Hermitian ones, as every piece does."""
        def real(a):
            out = (self._project @ a @ self._expand).real.tocsr()
            out.eliminate_zeros()
            return out

        return real(const), [real(x) for k, kd in zip(parts[::2], parts[1::2])
                             for x in ((k + kd, 1j * (k - kd)) if imaginary else (k + kd,))]

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """All m real coordinates, C-ordered, of the complex vector v."""
        return (self._project @ v).real.copy()

    def restrict(self, reach: np.ndarray):
        """Step only the coordinates ``reach`` (indices into all m); every other
        one must stay exactly zero, so a pair with one of its coordinates in
        ``reach`` has |v_i| = |that coordinate|."""
        n, m = self._real, self._project.shape[0]
        stepped = np.zeros(m, dtype=bool)
        stepped[reach] = True
        paired = np.zeros(m, dtype=bool)
        paired[n:] = np.repeat(stepped[n::2] & stepped[n + 1::2], 2)
        unpaired = np.flatnonzero(stepped & ~paired)
        self.order = np.concatenate([unpaired, np.flatnonzero(paired)])
        self._unpaired, self._stepped_real = unpaired.size, np.count_nonzero(stepped[:n])
        # each real coordinate stands for one entry, a pair's for one or two
        self.weight = np.where(self.order < n, 1.0, self._pair_weight)

    def modulus(self, y: np.ndarray) -> np.ndarray:
        """For each stepped coordinate in the rows of ``y``, |v_i| of its entry."""
        s = self._unpaired
        out = np.abs(y)
        pairs = np.abs(y[..., s:].view(complex))
        out[..., s::2] = pairs
        out[..., s + 1::2] = pairs
        return out

    def rms(self, x: np.ndarray) -> np.ndarray:
        """RMS of each row of ``x`` as the complex vector of all ``size``
        entries, in one ``einsum``: the coordinates not stepped are exactly zero."""
        return np.sqrt(np.einsum("...k,...k,k->...", x, x, self.weight) / self.size)

    def norm(self, y: np.ndarray) -> np.ndarray:
        """Tr rho of each row of ``y`` for a Hermitian half (the sum of its stepped
        real coordinates), else |psi|^2 (one row sum of squares, no BLAS)."""
        if self.hermitian:
            return y[..., :self._stepped_real].sum(axis=-1)
        return np.square(y).sum(axis=-1)

    def unit(self, y: np.ndarray, n: np.ndarray) -> np.ndarray:
        """The rows of ``y`` divided by their norms ``n``: by n for rho, by sqrt(n) for psi."""
        return y / (n if self.hermitian else np.sqrt(n))[..., None]

    def vector(self, y: np.ndarray) -> np.ndarray:
        """The complex vector v of the stepped coordinates ``y``, or one per row of ``y``."""
        full = np.zeros(y.shape[:-1] + self._project.shape[:1])
        full[..., self.order] = y
        return (self._expand @ full.T).T

    def density(self, y: np.ndarray) -> np.ndarray:
        """The d x d density matrix of the stepped coordinates ``y``: v as the
        row-major vec(rho) of a Hermitian half, else |v><v|."""
        v = self.vector(y)
        if self.hermitian:
            d = math.isqrt(self.size)
            return v.reshape(d, d)
        return np.outer(v, v.conj())

    def entries(self) -> tuple:
        """(entries, positions, values) of v as a sum over the stepped coordinates:
        the coordinate at each position in ``order`` times its value adds to an
        entry of v, a real one to one entry and a pair's to two (v_i and its
        conjugate); every coordinate not stepped is exactly zero."""
        e = self._expand[:, self.order].tocoo()
        return e.row, e.col, e.data


def _hermitian_half(d: int) -> _RealCoordinates:
    """The coordinates of the row-major vec(rho) of a Hermitian d x d rho: its
    diagonal is real, and each rho_ij with i < j is a pair whose conjugate is rho_ji."""
    i, j = np.divmod(np.arange(d * d), d)
    upper = np.flatnonzero(i < j)
    return _RealCoordinates(np.flatnonzero(i == j), upper, j[upper] * d + i[upper])


def _weights_of(gen: Generator, columns: int, weigh):
    """cols -> the weight function of the columns ``cols``, which maps their
    (N, len(cols)) times to the (pieces, N, len(cols)) weights that the rule
    ``weigh`` makes of their coefficients.  The generator's coefficient rule
    must have ``columns`` columns: a rule with no ``columns`` has one, and
    only a rule of several is cut to ``cols`` by its ``take``."""
    rule = gen.coefficients
    width = getattr(rule, "columns", 1)
    if width != columns:
        raise InvalidArgumentError(f"{columns} configs for a coefficient rule of {width} columns")

    def weights_of(cols):
        part = rule.take(cols) if columns > 1 else rule
        return lambda t: weigh(part(t))

    return weights_of


def _real_drive(gen: Generator) -> bool:
    """Whether every coefficient of every column is real at all times, so that
    every real piece i(K_k - K'_k) has the weight Im c_k = 0."""
    return isinstance(gen.coefficients, DriveCoefficients) and gen.coefficients.real


def _entries(a) -> tuple:
    """(rows, cols, values) of the CSR or CSC matrix ``a``, with no conversion."""
    major = np.repeat(np.arange(len(a.indptr) - 1), np.diff(a.indptr))
    return (major, a.indices, a.data) if a.format == "csr" else (a.indices, major, a.data)


def _kron(a, b, scale=1.0) -> tuple:
    """The COO triples (rows, cols, values) of scale (A x B) for CSR or CSC A and B."""
    (ra, ca, va), (rb, cb, vb) = _entries(a), _entries(b)
    rows = np.add.outer(ra * b.shape[0], rb).ravel()
    cols = np.add.outer(ca * b.shape[1], cb).ravel()
    return rows, cols, scale * np.multiply.outer(va, vb).ravel()


def _from_triples(triples, n: int):
    """The complex n x n CSR matrix summing COO ``triples``, in one conversion."""
    rows, cols, values = (np.concatenate(x) for x in zip(*triples))
    return scipy.sparse.csr_matrix((values.astype(complex, copy=False), (rows, cols)),
                                   shape=(n, n))


def _superoperator_pieces(model: LindbladModel):
    """(L0, [K_1, K'_1, K_2, K'_2, ...]) as CSR matrices on vec(rho).

    L0 = M x I + I x conj(M) + sum_k r_k C_k x conj(C_k) with the effective
    M = -i H0 - sum_k r_k C_k^+ C_k / 2, which is rho -> M rho + rho M^+ plus
    the jumps for a Hermitian H0: 2 + n_c Kronecker products, not 2 + 3 n_c.
    K_k = -i (A_k x I - I x A_k^T), the superoperator of rho -> -i[A_k, rho],
    and K'_k the same of A_k^+.  Each piece is summed from the COO triples of
    its Kronecker products in one CSR conversion.
    """
    d = model.space.total_dim
    eye = scipy.sparse.identity(d, dtype=complex, format="csr")
    m = -1j * model.hamiltonian.h0
    jumps = [(c, rate) for c, rate in model.collapse_terms if rate > 0.0]
    for c, rate in jumps:
        m = m - 0.5 * rate * (c.conj().T @ c)
    l0 = _from_triples([_kron(m, eye), _kron(eye, m.conj()),
                        *(_kron(c, c.conj(), rate) for c, rate in jumps)], d * d)
    parts = [_from_triples([_kron(op, eye, -1j), _kron(eye, op.T, 1j)], d * d)
             for a in model.hamiltonian.ops for op in (a, a.conj().T)]
    return l0, parts


def _liouvillian(model: LindbladModel, t: float):
    """The CSR superoperator of the generator frozen at time t on the row-major
    vec(rho): L0 + sum_k (c_k K_k + conj(c_k) K'_k) of :func:`_superoperator_pieces`."""
    liou, parts = _superoperator_pieces(model)
    for c, k, kd in zip(model.hamiltonian.at(t), parts[::2], parts[1::2]):
        liou = liou + c * k + np.conj(c) * kd
    return liou


def lindblad_rhs(model: LindbladModel, t: float, rho) -> np.ndarray:
    """d rho/dt of the Lindblad generator at time t.

    Trace-free to numerical precision and maps Hermitian input to Hermitian
    output for any Hermitian matrix, not only physical states.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = model.space.total_dim
    if mat.shape != (d, d):
        raise InvalidDimensionError("state dimension does not match model space")
    return (_liouvillian(model, t) @ mat.reshape(-1)).reshape(d, d)


# Dormand-Prince 5(4) tableau; row i of _A weights the first i stages (zero-padded),
# and its last row weights the fifth-order solution, which is also the input of the
# last stage (first-same-as-last)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0] * 6,
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_E = np.array(
    [
        71 / 57600,
        0.0,
        -71 / 16695,
        71 / 1920,
        -17253 / 339200,
        22 / 525,
        -1 / 40,
    ]
)

# the pair's quartic continuous extension, as scipy's RK45 has it: the state at
# t + theta h is y + h sum_j b_j(theta) k_j over the seven stages, the last one
# first-same-as-last, with b_j(theta) = sum_p _P[j, p] theta^(p + 1)
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def distinct_times(grid, extra) -> list[float]:
    """Sorted ``extra`` less float twins of ``grid`` or each other, which a step cannot resolve."""
    tol, kept = 1e-9 * (grid[-1] - grid[0]), []
    for x in sorted(extra):
        if min(abs(x - g) for g in (*grid, *kept)) > tol:
            kept.append(x)
    return kept


class _Column:
    """One column of a batch: its sample grid, the times its steps end on, and
    its place in its own step sequence.  Its samples fill one array."""

    __slots__ = ("times", "ends", "span", "t", "h", "next", "sampled", "stored",
                 "accepted", "rejected", "clamped", "interpolated", "h_min", "h_max")

    def __init__(self, config: IntegratorConfig):
        ts = self.times = np.asarray(config.sample_times, dtype=float)
        t0, t_end = float(ts[0]), float(ts[-1])
        self.span = t_end - t0
        # steps end on each stop inside the span, on the inner sample a stop is a
        # float twin of, and on the last sample
        stops = np.asarray(config.stops, dtype=float)
        near = np.abs(ts[1:-1, None] - stops).min(axis=1, initial=math.inf)
        twins = ts[1:-1][near <= 1e-9 * self.span].tolist()
        inner = [x for x in distinct_times(ts, stops.tolist()) if t0 < x < t_end]
        self.ends = sorted(inner + twins) + [t_end]
        self.t, self.h, self.next, self.sampled = t0, math.nan, 0, 0
        self.stored = None
        self.accepted = self.rejected = self.clamped = self.interpolated = 0
        self.h_min, self.h_max = math.inf, 0.0

    def store(self, value: np.ndarray):
        """Write the next sample into the column's array of samples."""
        if self.stored is None:
            self.stored = np.empty((len(self.times),) + value.shape, dtype=value.dtype)
        self.stored[self.sampled] = value
        self.sampled += 1

    def trajectory(self, coords: _RealCoordinates) -> Trajectory:
        rhs_evals = 2 + 6 * (self.accepted + self.rejected)  # 2 choose the first step
        stats = IntegratorStats(self.accepted, self.rejected, rhs_evals, self.clamped,
                                self.interpolated, self.h_min, self.h_max,
                                len(coords.order), coords.size)
        return Trajectory(times=self.times.copy(), samples=self.stored, coords=coords,
                          stats=stats)


def _initial_steps(rhs, weights, cols, y, modulus, rtol, atol, coords):
    """First step size of each column of ``cols``, and the derivatives at its start."""
    t0 = np.array([col.t for col in cols])
    f0 = rhs(weights(t0[None])[:, 0], y)
    scale = atol + rtol * modulus
    d0, d1 = coords.rms(y / scale), coords.rms(f0 / scale)
    h0 = np.array([1e-6 * col.span if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                   for col, a, b in zip(cols, d0, d1)])
    f1 = rhs(weights((t0 + h0)[None])[:, 0], y + h0[:, None] * f0)
    d2 = coords.rms((f1 - f0) / scale) / h0
    for col, a, b, c in zip(cols, h0, d1, d2):
        h1 = max(1e-6 * col.span, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        col.h = float(min(100 * a, h1))
    return f0


def _integrate_dp45(rhs, weights_of, y0, configs, repair, on_sample, coords):
    """Embedded RK 5(4) driver that steps a batch of columns, one per config,
    each over its own sample grid, all from the state ``y0``.

    ``rhs(w, y)`` gives the derivatives of the states in the rows of ``y``
    from their (n_weights, rows) weights ``w``, and ``weights_of(cols)``
    gives the function that maps the (N, len(cols)) times of the columns
    ``cols`` to those weights.  Each attempt evaluates the weights once, at
    the six stage times of every active column, and makes one ``rhs`` call
    per stage.  Each column has its own time, step size, place in its grid,
    accept/reject decision and counters, so it takes exactly the steps it
    takes alone; a column leaves the batch when it reaches its last sample or
    fails.

    The state ``y0`` is real: the stepped coordinates of the
    :class:`_RealCoordinates` ``coords``.  It is row 0 of the stage array, so
    each stage input is one ``einsum`` over the rows before it.  ``repair(y)``
    returns the accepted states in the rows of ``y``, with any invariant
    restored, and the norm (``coords.norm``) of each; a norm that drifts
    from 1 by more than ``TRACE_DIVERGENCE_TOL`` fails its column.  A
    repair that returns ``y`` itself changes nothing, and the modulus of the
    accepted states carries over to the next attempt.  ``on_sample(t, y)``
    converts the state ``y`` at the sample time ``t`` into its stored form, an
    array (the normalized coordinates, in :func:`evolve`), and may raise
    :class:`IntegrationDivergedError`; a column writes its stored forms into
    the rows of one array, its :attr:`Trajectory.samples`.  The error norm is
    ``coords.rms`` of the error over the scale atol + rtol max(|y|, |y5|),
    |.| being ``coords.modulus``; one that is not finite fails its column.  The columns
    share their tolerances.  Steps are clamped so stops and the last sample
    time are hit exactly; a sample time inside an accepted step is read from
    the continuous extension (:data:`_P`) before the step's state and stages are
    overwritten.  Returns per column its :class:`Trajectory`, carrying the
    :class:`IntegratorStats`, or the integration error that stopped it.
    """
    rtol, atol = configs[0].rel_tol, configs[0].abs_tol
    if any((c.rel_tol, c.abs_tol) != (rtol, atol) for c in configs):
        raise InvalidArgumentError("the columns of a batch must share their tolerances")
    cols = [_Column(config) for config in configs]
    out: list = [None] * len(cols)

    def sample(j, state):
        """Store column j's state at its next sample time, or record the error that stops it."""
        col = cols[j]
        try:
            col.store(on_sample(float(col.times[col.sampled]), state))
        except IntegrationDivergedError as exc:
            out[j] = exc

    y = np.array(np.broadcast_to(y0, (len(cols), len(y0))), order="C")
    for j in range(len(cols)):
        sample(j, y[j])
    act = [j for j in range(len(cols)) if out[j] is None]  # the active columns
    if not act:
        return out
    weights = weights_of(act)
    k = np.empty((8, len(act), y.shape[1]))  # the state, then the seven stages
    k[0] = y[act]
    y, modulus = k[0], coords.modulus(k[0])
    k[1] = _initial_steps(rhs, weights, [cols[j] for j in act], y, modulus, rtol, atol, coords)

    def combination(coef, rows=slice(None)):
        """sum_j coef[:, j] k[j] over the first coef.shape[1] rows of k, in one einsum."""
        return np.einsum("bj,jbk->bk", coef, k[:coef.shape[1], rows])

    hmin_scale = 16.0 * np.finfo(float).eps
    while act:
        clamped, t, h = [], [], []
        for j in act:
            col = cols[j]
            target = col.ends[col.next]
            clamped.append(col.t + col.h >= target - 1e-14 * max(abs(target), col.span))
            if clamped[-1]:
                col.h = target - col.t
            if col.h < hmin_scale * max(abs(col.t), col.span):
                out[j] = StiffnessError(col.t)
            t.append(col.t)
            h.append(col.h)

        if all(out[j] is None for j in act):
            t, h = np.array(t), np.array(h)
            w = weights(t + _C[1:, None] * h)  # at the six stage times
            ha = np.empty((len(h), 7, 7))  # per column: 1 for the state, then h times the tableau
            ha[:, :, 0] = 1.0
            np.multiply(h[:, None, None], _A, out=ha[:, :, 1:])
            for i in range(1, 6):
                k[i + 1] = rhs(w[:, i - 1], combination(ha[:, i, :i + 1]))
            y5 = combination(ha[:, 6])
            k[7] = rhs(w[:, 5], y5)
            err_vec = np.einsum("bj,jbk->bk", h[:, None] * _E, k[1:])
            modulus5 = coords.modulus(y5)
            scale = atol + rtol * np.maximum(modulus, modulus5)
            errs = coords.rms(err_vec * (1.0 / scale)).tolist()
            ok = [pos for pos, err in enumerate(errs) if err <= 1.0]

            # the samples strictly inside the accepted steps, read from the
            # continuous extension while k[0] and k[1] still hold the steps' start
            inside, rows, theta = {}, [], []
            for pos in ok:
                col = cols[act[pos]]
                end, s = t[pos] + h[pos], col.sampled
                while s < len(col.times) and col.times[s] < end - 1e-12 * max(abs(end), col.span):
                    inside.setdefault(pos, []).append(len(rows))
                    rows.append(pos)
                    theta.append((col.times[s] - t[pos]) / h[pos])
                    s += 1
            if rows:
                theta = np.array(theta)[:, None]
                b = _P[:, 3] * theta  # b_j(theta) by Horner's rule, row by row
                for p in (2, 1, 0):
                    b = (b + _P[:, p]) * theta
                coef = np.empty((len(rows), 8))
                coef[:, 0] = 1.0
                np.multiply(h[rows, None], b, out=coef[:, 1:])
                dense = combination(coef, rows)

            drifts = [0.0] * len(act)  # of the accepted states' norms from 1
            if ok:
                # a slice when every column accepted: indexing with a list copies
                took = slice(None) if len(ok) == len(act) else ok
                accepted = y5[took]
                repaired, norms = repair(accepted)
                k[0, took], k[1, took] = repaired, k[7, took]  # first-same-as-last
                modulus[took] = modulus5[took] if repaired is accepted else coords.modulus(repaired)
                for pos, drift in zip(ok, np.abs(norms - 1.0).tolist()):
                    drifts[pos] = drift

            for pos, j in enumerate(act):
                col, err = cols[j], errs[pos]
                if not math.isfinite(err):
                    out[j] = IntegrationDivergedError(col.t)
                elif err <= 1.0:
                    col.t += col.h
                    if drifts[pos] > TRACE_DIVERGENCE_TOL:
                        out[j] = IntegrationDivergedError(col.t, drifts[pos], TRACE_DIVERGENCE_TOL)
                        continue
                    col.accepted += 1
                    col.clamped += clamped[pos]
                    col.h_min, col.h_max = min(col.h_min, col.h), max(col.h_max, col.h)
                    for r in inside.get(pos, ()):
                        if out[j] is None:
                            sample(j, dense[r])
                            col.interpolated += 1
                    tol = 1e-12 * max(abs(col.t), col.span)
                    if out[j] is None and abs(col.times[col.sampled] - col.t) <= tol:
                        sample(j, y[pos])
                    if abs(col.t - col.ends[col.next]) <= tol:
                        col.next += 1
                        if out[j] is None and col.next == len(col.ends):
                            out[j] = col.trajectory(coords)
                    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                    col.h *= max(_MIN_FACTOR, factor)
                else:
                    col.rejected += 1
                    col.h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

        going = [pos for pos, j in enumerate(act) if out[j] is None]
        if len(going) < len(act):  # finished and failed columns leave the batch
            act, k, modulus = [act[pos] for pos in going], k[:, going], modulus[going]
            weights, y = weights_of(act), k[0]
    return out


def evolve(model: LindbladModel, state0: StateVector | DensityMatrix, config):
    """Integrate the master equation from ``state0`` and sample at the configured times.

    The input picks the state form.  A :class:`StateVector` under a model
    with no collapse term of positive rate is stepped as psi, under the
    Hilbert-space pieces -i H0, -i A_k and -i A_k^+; any other
    :class:`StateVector` is stepped as its :meth:`~StateVector.density_matrix`,
    and a :class:`DensityMatrix` always as rho, under the superoperator
    pieces.  Adaptive Dormand-Prince 5(4) steps either in real arithmetic
    (rho as its Hermitian half, psi as Re psi and Im psi), on only the
    coordinates that the kept pieces can reach from the input's; the pieces
    i(K_k - K'_k) are not built when every coefficient of every column is
    real.  Steps end on the stops and the last sample time, and a sample
    inside a step is read from the continuous extension.  The norm (the
    trace, or |psi|^2 for psi) is checked against 1e-4 after every step, psi
    then renormalized, and 1e-6 at every sample, the first included; a drift
    beyond either aborts with an error carrying the time.  Sampled states are divided by their trace (or
    norm) and kept as their stepped coordinates (:attr:`Trajectory.samples`),
    and :attr:`Trajectory.states` gives them as density matrices,
    |psi><psi| for psi.  Each trajectory's ``timing`` holds the batch's
    ``setup_s`` (pieces, real pieces, reachable coordinates) and
    ``integrate_s``.

    ``config`` may also be a sequence of configs, one per column of the
    generator's :class:`~omstirap.model.DriveCoefficients`.  The columns are
    then stepped as one batch, each exactly as it steps alone, and the result
    is a list of each column's :class:`Trajectory`, or of the integration
    error that stopped it.
    """
    if state0.space != model.space:
        raise InvalidDimensionError("initial state lives on a different space")
    t_start = time.perf_counter()
    gen, d = model.hamiltonian, model.space.total_dim
    if isinstance(state0, StateVector) and not any(rate > 0.0 for _, rate in model.collapse_terms):
        coords, v0 = _RealCoordinates(np.arange(0), np.arange(d)), state0.amplitudes
        pieces = (-1j * gen.h0, [-1j * op for a in gen.ops for op in (a, a.conj().T)])
    else:
        rho0 = state0 if isinstance(state0, DensityMatrix) else state0.density_matrix()
        coords, v0 = _hermitian_half(d), rho0.matrix.reshape(-1)
        pieces = _superoperator_pieces(model)

    def repair(y):
        """The rows of ``y``, psi's renormalized (|psi|^2 is a quadratic invariant,
        which RK does not conserve), and their norms."""
        n = coords.norm(y)
        return (y if coords.hermitian else coords.unit(y, n)), n

    def on_sample(t, y):
        n = coords.norm(y)
        drift = abs(n - 1.0)
        if drift > TRACE_SAMPLE_TOL:
            raise IntegrationDivergedError(t, drift, TRACE_SAMPLE_TOL)
        return coords.unit(y, n)

    real = _real_drive(gen)  # every i(K_k - K'_k) has the weight Im c_k = 0
    const, parts = coords.pieces(*pieces, imaginary=not real)
    start = coords.coordinates(v0)
    coords.restrict(_support((const, *parts), start != 0))
    rhs = _linear_rhs(const, parts, coords.order)
    configs = [config] if isinstance(config, IntegratorConfig) else list(config)
    t_setup = time.perf_counter()
    weights_of = _weights_of(gen, len(configs), _real_weights if real else _hermitian_weights)
    runs = _integrate_dp45(rhs, weights_of, start[coords.order], configs, repair, on_sample,
                           coords)
    timing = {"setup_s": t_setup - t_start, "integrate_s": time.perf_counter() - t_setup}
    runs = [run if isinstance(run, Exception) else replace(
        run, space=model.space, stats=replace(run.stats, pieces=1 + len(parts)),
        timing=dict(timing)) for run in runs]
    if not isinstance(config, IntegratorConfig):
        return runs
    if isinstance(runs[0], Exception):
        raise runs[0]
    return runs[0]


def liouvillian_matrix(model: LindbladModel, t: float = 0.0) -> np.ndarray:
    """Dense superoperator of the generator frozen at time t.

    Row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho).  It is
    the integrator's L0 + sum_k (c_k K_k + conj(c_k) K'_k), densified.
    """
    return _liouvillian(model, t).toarray()


def propagator_oracle(
    model: LindbladModel, rho0: DensityMatrix, dt: float, t: float = 0.0
) -> DensityMatrix:
    """Propagate under the generator frozen at t via the matrix exponential.

    Vectorizes rho, applies expm(L dt) (scaling-and-squaring with Pade
    approximation), and reshapes back.  Exact for time-independent
    generators; intended as a validation oracle, hence the hard cap on
    total_dim^2.
    """
    d = model.space.total_dim
    if d * d > ORACLE_DIM_CAP:
        raise OracleTooLargeError(
            f"total_dim^2 = {d * d} exceeds the oracle cap {ORACLE_DIM_CAP}"
        )
    if rho0.space != model.space:
        raise InvalidDimensionError("initial state lives on a different space")
    if dt == 0.0:
        return DensityMatrix(model.space, rho0.matrix.copy(), validate=False)
    import scipy.linalg  # imported here: a plain run never needs it

    liou = liouvillian_matrix(model, t)
    out = (scipy.linalg.expm(liou * dt) @ rho0.matrix.reshape(-1)).reshape(d, d)
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(model.space, out, validate=False)


def thermal_collapse_rates(params) -> list[float]:
    """The rates of :func:`thermal_collapse_terms`, in its order."""
    rates = [params.kappa]
    for omega, gamma in ((params.omega1, params.gamma1), (params.omega2, params.gamma2)):
        nbar = bose_occupancy(omega, params.temperature)
        rates += [gamma * (nbar + 1.0), gamma * nbar]
    return rates


def thermal_collapse_terms(space: HilbertSpace, params) -> list:
    """Standard collapse set: cavity decay plus two thermal mechanical baths."""
    ops = [destroy(space, 0)]
    for mode in (1, 2):
        b = destroy(space, mode)
        ops += [b, b.conj().T]
    return list(zip(ops, thermal_collapse_rates(params)))
