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
oracle.  The error controller sets each step size, the first one's estimate
by the same scaled RMS norm as the error's (Hairer, Norsett & Wanner, Solving
ODEs I, sec. II.4), and a step is cut short only to end on a stop or on the
last sample time: ``run_scenario`` stops at each pulse centre, so no step
skips a pulse.  A sample time inside a step is read from the pair's quartic
continuous extension (sec. II.6), so samples cost no steps.

One entry point, :func:`evolve`, takes psi or rho, and the input picks the
form: a pure state under a model with no collapse term of positive rate is
stepped as psi, and everything else as rho.  Both forms step a real state,
the real coordinates of a complex vector (:class:`_RealCoordinates`): rho as
its Hermitian half, Re rho_ii and then the pair (Re rho_ij, Im rho_ij) for
each i < j (the real coherence-vector form, Alicki & Lendi, Lect. Notes
Phys. 717), and psi as the pair (Re psi_i, Im psi_i) of each amplitude.
Their pieces come from one list of generators (:func:`_generators`): G_0,
then -i X_k and -i Y_k for the Hermitian quadratures of each drive term
c_k A_k + h.c. = Re c_k X_k + Im c_k Y_k, weighed by (1, Re c_k, Im c_k)
(:func:`_weights`).  psi steps them as they are, and rho as S(G) = G x I +
I x conj(G), the map rho -> G rho + rho G^+, which keeps rho Hermitian.  When every
coefficient of every column is real (``DriveCoefficients.real``: zero phase
rates and real drive phases, as in the table-2 and fig3 presets), each Y_k
has the weight 0 and is not built.  Both forms have one norm rule
(:meth:`_RealCoordinates.norm`): Tr rho, the sum of the stepped real
coordinates, or |psi|^2.  It is checked after every step and at every
sample, and psi alone is renormalized after each step: |psi|^2 is a
quadratic invariant, which RK does not conserve, while every piece keeps
Tr rho.

A sample is kept as the coordinates the run steps, divided by the trace
(the norm for psi): one row of m reals, where the d x d rho it stands for has
d^2 complex entries.  The observables are read from these rows
(``protocols._observables``), and :attr:`Trajectory.states` rebuilds the
density matrices only when it is read.

Every run is a batch: the integrator steps B columns at once, a single run
being a batch of one.  The columns share the pieces and the initial state and
differ in their Hamiltonian coefficients and sample grids (a sweep's cells, a
fringe's phase points).  The state is a row-major (B, m) array, row 0 of one
C-contiguous (15, B, m) array with the seven stages, the six stage inputs
and the error vector: every array of an attempt holds one row per column,
the coordinates innermost.  An attempt is planned once per batch width:
every array operation is one direct call, bound in a list to buffers built
with the batch and made in order, 35 calls for a preset at width 1 and 46
for a `bs` batch of five sweep cells.  The plan writes each column's six
stage times, its piece weights at them in about ten ufunc calls
(:meth:`~omstirap.model.DriveCoefficients.weigh`), the stage coefficients,
then zeroes the stages and inputs in one fill; per stage it makes one call
of scipy's CSC kernel for the stage input, one ufunc call for the (B,
pieces, m) weighted operand and one call of its CSR kernel on the
block-diagonal matrix of B copies of the pieces laid side by side, which
writes each column's derivative into its row of the stage; then one CSC
call for the error vector and the scaled error norm, whose scale is formed
once per stepped coordinate.  An accepted batch runs a
second plan: psi renormalized into row 0, the last stage copied into row 1.
A sample inside a step costs one more CSC call.  Every operation acts on
each row alone in the order a one-row batch uses, so a column takes bitwise
the steps it takes alone; it leaves the batch when it ends or fails, and the
plan is built again.  The integrator calls no BLAS, and the observables pass
that follows it, whose eigenvalues call LAPACK, runs with numpy's OpenBLAS
pinned to one thread (:func:`omstirap.blas.one_blas_thread`), so results do
not depend on the BLAS thread count.

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
each pair by |v_i| of its entry, counted for rho_ij and rho_ji, so it
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
from .hilbert import (DensityMatrix, Generator, HilbertSpace, StateVector, _as_csr, destroy, embed,
                      ladder)
from .model import DriveCoefficients, _run, bose_occupancy

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


def _csr_product(a, width: int):
    """bind(x, out) for the CSR ``a``: it gives the call that writes a @ x[b]
    into each row of the C-ordered (width, rows) ``out``, which holds zeros
    when it is made, for the C-ordered (width, columns) operand ``x``, both
    read through flat views.  It is one call of scipy's CSR kernel, the one
    ``a @ x[b]`` makes, without its dispatch, on the block-diagonal matrix of
    ``width`` copies of ``a``, built once here (``a`` itself at width 1): row
    b rows + i holds the entries of row i of ``a`` in their stored order, each
    column moved to the b-th block, so each row is the kernel's sum of a
    one-row product, in its order."""
    (rows, cols), arrays = a.shape, _arrays(a)
    if width > 1:
        copies = np.arange(width, dtype=np.intc)[:, None]
        indptr = np.zeros(width * rows + 1, np.intc)
        indptr[1:] = (a.indptr[1:] + a.nnz * copies).ravel()
        arrays = indptr, (a.indices + cols * copies).ravel(), np.tile(a.data, width)

    def bind(x: np.ndarray, out: np.ndarray) -> list:
        return [(_sparsetools.csr_matvec,
                 (width * rows, width * cols, *arrays, x.reshape(-1), out.reshape(-1)))]

    return bind


def _side_by_side(pieces, keep):
    """[p_0 | p_1 | ...] of the square CSR ``pieces``, each cut to the rows and
    columns ``keep`` in that order, as one CSR matrix: a row holds the kept
    entries of each piece's row in turn, in their stored order, as
    ``p[keep][:, keep]`` and ``scipy.sparse.hstack`` place them."""
    m = len(keep)
    new = np.full(pieces[0].shape[1], -1)
    new[keep] = np.arange(m)
    rows, cols, values = [], [], []
    for k, p in enumerate(pieces):
        counts = np.diff(p.indptr)[keep]
        row = np.repeat(np.arange(m), counts)
        # the position in p of each entry of the kept rows, row by row
        at = np.arange(row.size) + np.repeat(p.indptr[keep] - np.cumsum(counts) + counts, counts)
        col = new[p.indices[at]]
        kept = col >= 0
        rows.append(row[kept])
        cols.append(col[kept] + k * m)
        values.append(p.data[at[kept]])
    rows = np.concatenate(rows)
    order = np.argsort(rows, kind="stable")
    indptr = np.zeros(m + 1, np.intc)
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return _csr((indptr, np.concatenate(cols)[order].astype(np.intc),
                 np.concatenate(values)[order]), (m, len(pieces) * m))


def _linear_rhs(const, parts, keep):
    """width -> bind(w, y, out), which gives the calls that write the rows of
    w_0 const y + sum_p w_{p+1} parts[p] y into ``out``, which holds zeros
    when they are made, from the (1 + len(parts), width) weights ``w`` of the
    C-ordered rows of ``y`` (w_0 = 1, from :func:`_weights`): the weights
    and rows those buffers hold then.  The pieces, cut to the rows and
    columns ``keep``, are laid side by side once as one wide CSR matrix
    [const | parts[0] | ...].  The calls write each row's weighted copies
    w_p y_b into row b of the width's dense (width, pieces, rows) operand,
    one ufunc call (at width 1 on its one (pieces, rows) row, which numpy
    multiplies faster), and make one call of the CSR kernel on the block-diagonal
    matrix of ``width`` copies of the wide one (:func:`_csr_product`), built
    once per width: no new array, and no BLAS.  Each row of ``out`` is then
    the sum a one-row batch of that row makes."""
    pieces = (const, *parts)
    wide = _side_by_side(pieces, keep)

    def rhs_of(width: int):
        # x[b, p] = w[p, b] y[b], one operand for every binding of the width
        x = np.empty((width, len(pieces), wide.shape[0]))
        product = _csr_product(wide, width)

        def bind(w: np.ndarray, y: np.ndarray, out: np.ndarray) -> list:
            operand = (w, y, x[0]) if width == 1 else (w.T[:, :, None], y[:, None, :], x)
            return [(np.multiply, operand), *product(x, out)]

        return bind

    return rhs_of


def _stage_sum(coef: np.ndarray, stages: np.ndarray, out: np.ndarray) -> list:
    """The call that writes out[b] = sum_j coef[j, b] stages[j, b] for the
    (J, B) ``coef``, the (J, B, n) ``stages`` and the (B, n) ``out``, which
    holds zeros when it is made: one call of scipy's CSC kernel on flat views
    of the three, which must be C-contiguous and written in place, the (B, J B)
    matrix with coef[j, b] in row b of column j B + b times the (J B, n) rows
    of ``stages``.  It adds in j order, each product rounded before its sum,
    as ``np.einsum("jb,jbk->bk", ...)`` does."""
    j, b = coef.shape
    return [(_sparsetools.csc_matvecs, (
        b, j * b, out.shape[1], np.arange(j * b + 1, dtype=np.intc),
        np.tile(np.arange(b, dtype=np.intc), j), coef.reshape(-1), stages.reshape(-1),
        out.reshape(-1)))]


def _weights(c: np.ndarray, imaginary: bool = True) -> np.ndarray:
    """(1, Re c_1, Im c_1, ...), the weights of the pieces (G_0, -i X_1, -i Y_1,
    ...) of :func:`_generators`, or (1, Re c_1, Re c_2, ...) unless ``imaginary``."""
    step = 1 + imaginary  # the pieces of each c_k
    w = np.empty((1 + step * len(c),) + c.shape[1:])
    w[0], w[1::step] = 1.0, c.real
    if imaginary:
        w[2::2] = c.imag
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
    ``weight``, :meth:`magnitude_calls`, :meth:`error_norm`, :meth:`norm`,
    :meth:`unit` and :meth:`vector` read states of those: first each
    coordinate whose pair partner is not stepped (the real ones leading), then
    the stepped pairs, which read as one complex array of v_i.  A stepped
    entry is one of those coordinates or one pair.
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

    def pieces(self, const, parts):
        """The real form of each complex piece a, which maps y to Re(project a
        expand y), the coordinates of a v when a v is again of the coordinates'
        form: always for psi, and for rho when a maps Hermitian matrices to
        Hermitian ones, as every S(G) does."""
        (m, size), project, expand = self._project.shape, self._project, self._expand

        def real(a):  # Re(project @ a @ expand), its zeros dropped in place
            ip, ix, x = _matmat(_matmat(_arrays(project), _arrays(a), m, size), _arrays(expand),
                                m, m)
            x = x.real.copy()
            _sparsetools.csr_eliminate_zeros(m, m, ip, ix, x)
            return _csr((ip, ix[:ip[-1]], x[:ip[-1]]), (m, m))

        return real(const), [real(a) for a in parts]

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

    def magnitude_calls(self, y: np.ndarray, out: np.ndarray) -> list:
        """The calls that write |v_i| of the entry of each stepped coordinate in
        the rows of ``y`` into the same place of ``out``: each unpaired
        coordinate's absolute value, and each stepped pair's modulus into both
        of its coordinates."""
        s = self._unpaired
        calls = [(np.abs, (y[..., :s], out[..., :s]))] if s else []
        if s < y.shape[-1]:  # some pair is stepped
            calls += [(np.abs, (y[..., s:].view(complex), out[..., s::2])),
                      (np.copyto, (out[..., s + 1::2], out[..., s::2]))]
        return calls

    def error_norm(self, start, y, error, rtol: float, atol: float) -> tuple:
        """(norms, calls): the calls scale ``error`` in place by its scale
        atol + rtol max(|start|, |y|), |.| from :meth:`magnitude_calls`, and
        ``norms()`` then gives the RMS of each scaled row, as the complex vector
        of all ``size`` entries, as a list of floats.  The scale and its inverse
        are formed once per stepped coordinate, a pair's from its entry's
        modulus in both its coordinates, so one ufunc call scales every
        coordinate, and the squares are summed in one ``np.einsum``: a pair's
        weight counts it for each entry it stands for."""
        sums = np.empty(len(error))
        scale, other = np.empty((2,) + error.shape)
        rtol, atol, one = np.array(rtol), np.array(atol), np.array(1.0)  # no scalar conversions
        calls = [*self.magnitude_calls(start, scale), *self.magnitude_calls(y, other),
                 (functools.partial(np.maximum, out=scale), (scale, other)),
                 (np.multiply, (scale, rtol, scale)), (np.add, (scale, atol, scale)),
                 (np.divide, (one, scale, scale)), (np.multiply, (error, scale, error)),
                 (functools.partial(np.einsum, "...k,...k,k->...", out=sums),
                  (error, error, self.weight))]

        def norms() -> list:
            # sqrt(sum / size) in floats, which round as numpy's sqrt and divide do
            return [math.sqrt(x / self.size) for x in sums.tolist()]

        return norms, calls

    def norm_calls(self, y: np.ndarray, out: np.ndarray) -> list:
        """The calls that write :meth:`norm` of the rows of ``y`` into ``out``."""
        if self.hermitian:
            return [(np.add.reduce, (y[..., :self._stepped_real], -1, None, out))]
        square = np.empty_like(y)
        return [(np.square, (y, square)), (np.add.reduce, (square, -1, None, out))]

    def norm(self, y: np.ndarray) -> np.ndarray:
        """Tr rho of each row of ``y`` for a Hermitian half (the sum of its stepped
        real coordinates), else |psi|^2 (one row sum of squares, no BLAS)."""
        out = np.empty(y.shape[:-1])
        _run(self.norm_calls(y, out))
        return out[()]

    def unit_calls(self, y: np.ndarray, n: np.ndarray, out: np.ndarray) -> list:
        """The calls that write :meth:`unit` of the rows of ``y`` into ``out``."""
        if self.hermitian:
            return [(np.divide, (y, n[..., None], out))]
        root = np.empty_like(n)
        return [(np.sqrt, (n, root)), (np.divide, (y, root[..., None], out))]

    def unit(self, y: np.ndarray, n) -> np.ndarray:
        """The rows of ``y`` divided by their norms ``n``: by n for rho, by sqrt(n) for psi."""
        out = np.empty_like(y)
        _run(self.unit_calls(y, np.asarray(n), out))
        return out

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


def _weights_of(gen: Generator, columns: int, imaginary: bool):
    """cols -> the weights of the columns ``cols``: a function that binds a
    buffer ``t`` of (N, len(cols)) times to ``(w, calls)``, whose calls write
    into the (pieces, N, len(cols)) ``w`` the weights that :func:`_weights`
    makes of the coefficients at the times ``t`` holds when they are made.  A
    :class:`DriveCoefficients` writes them itself
    (:meth:`DriveCoefficients.weigh`); any other rule is one call of
    ``_weights(rule(t))``.  The generator's coefficient rule must have
    ``columns`` columns: a rule with no ``columns`` has one, and only a rule
    of several is cut to ``cols`` by its ``take``."""
    rule = gen.coefficients
    width = getattr(rule, "columns", 1)
    if width != columns:
        raise InvalidArgumentError(f"{columns} configs for a coefficient rule of {width} columns")
    pieces = 1 + (1 + imaginary) * len(gen.ops)

    def weights_of(cols):
        part = rule.take(cols) if columns > 1 else rule
        if isinstance(part, DriveCoefficients):
            return lambda t: part.weigh(t, imaginary)

        def bind(t: np.ndarray) -> tuple:
            w = np.empty((pieces,) + t.shape)
            return w, [(lambda: np.copyto(w, _weights(part(t), imaginary)), ())]

        return bind

    return weights_of


def _real_drive(gen: Generator) -> bool:
    """Whether every coefficient of every column is real at all times, so that
    every piece -i Y_k has the weight Im c_k = 0."""
    return isinstance(gen.coefficients, DriveCoefficients) and gen.coefficients.real


def _entries(a) -> tuple:
    """(rows, cols, values) of the CSR or CSC matrix ``a``, with no conversion."""
    major = np.repeat(np.arange(len(a.indptr) - 1), np.diff(a.indptr))
    return (major, a.indices, a.data) if a.format == "csr" else (a.indices, major, a.data)


def _conjugate(arrays: tuple) -> tuple:
    """COO triples or CSR arrays with their values conjugated: the complex conjugate."""
    *index, values = arrays
    return (*index, values.conj())


def _kron(a: tuple, b: tuple, n: int, scale=1.0) -> tuple:
    """The COO triples (rows, cols, values) of scale (A x B) for the triples of A and of
    the n x n B."""
    (ra, ca, va), (rb, cb, vb) = a, b
    rows = np.add.outer(ra * n, rb).ravel()
    cols = np.add.outer(ca * n, cb).ravel()
    return rows, cols, scale * np.multiply.outer(va, vb).ravel()


def _from_triples(triples, n: int):
    """The complex n x n CSR matrix summing COO ``triples``, in one conversion."""
    rows, cols, values = (np.concatenate(x) for x in zip(*triples))
    return scipy.sparse.csr_matrix((values.astype(complex, copy=False), (rows, cols)),
                                   shape=(n, n))


def _jumps(model: LindbladModel) -> list:
    """The collapse terms (C_k, r_k) of positive rate."""
    return [(c, rate) for c, rate in model.collapse_terms if rate > 0.0]


def _arrays(a) -> tuple:
    """(indptr, indices, data) of the CSR matrix ``a``."""
    return a.indptr, a.indices, a.data


def _transposed(a: tuple, rows: int, cols: int) -> tuple:
    """The CSR arrays of the transpose of the rows x cols CSR arrays ``a``, its
    columns sorted: the kernel of scipy's CSR-CSC conversions."""
    out = (np.empty(cols + 1, np.intc), np.empty(len(a[1]), np.intc), np.empty_like(a[2]))
    _sparsetools.csr_tocsc(rows, cols, *a, *out)
    return out


def _matmat(a: tuple, b: tuple, rows: int, cols: int) -> tuple:
    """The CSR arrays of the product of the CSR arrays ``a`` (rows x k) and
    ``b`` (k x cols), as ``a @ b`` makes them: each row's entries in the order
    of scipy's kernel, exact zeros dropped."""
    nnz = _sparsetools.csr_matmat_maxnnz(rows, cols, a[0], a[1], b[0], b[1])
    out = (np.empty(rows + 1, np.intc), np.empty(nnz, np.intc),
           np.empty(nnz, np.result_type(a[2], b[2])))
    _sparsetools.csr_matmat(rows, cols, *a, *b, *out)
    return out[0], out[1][:out[0][-1]], out[2][:out[0][-1]]


def _binop(kernel, a: tuple, b: tuple, n: int) -> tuple:
    """The CSR arrays of a + b or a - b (``kernel`` csr_plus_csr or
    csr_minus_csr) of the n x n CSR arrays ``a`` and ``b``, as scipy's sum or
    difference makes them: exact zeros dropped."""
    size = len(a[2]) + len(b[2])
    out = (np.empty(n + 1, np.intc), np.empty(size, np.intc), np.empty(size, complex))
    kernel(n, n, *a, *b, *out)
    return out[0], out[1][:out[0][-1]], out[2][:out[0][-1]]


def _csr(a: tuple, shape: tuple) -> scipy.sparse.csr_matrix:
    """The CSR matrix of the arrays ``a``, the one sparse construction of each operator."""
    indptr, indices, data = a
    return scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)


def _generators(model: LindbladModel, imaginary: bool = True) -> list:
    """[G_0, -i X_1, -i Y_1, -i X_2, ...] on the Hilbert space: G_0 = -i H0 -
    sum_k r_k C_k^+ C_k / 2 over the jumps of positive rate, and the Hermitian
    quadratures X_k = A_k + A_k^+ and Y_k = i(A_k - A_k^+) of each drive
    operator A_k, with no Y_k unless ``imaginary``.

    Each is built from the arrays of its operands by the kernels that scipy's
    sparse arithmetic calls, in the order it calls them, and made a matrix
    once: G_0 is bitwise ``g0 - 0.5 * rate * (c.conj().T @ c)`` over the jumps
    in turn from g0 = -1j H0, and -i X_k and -i Y_k bitwise
    ``-1j * (a + a.conj().T)`` and ``a - a.conj().T``."""
    d = model.space.total_dim
    h0 = model.hamiltonian.h0
    g0 = (h0.indptr, h0.indices, h0.data * -1j)
    for c, rate in _jumps(model):
        # c^+ c comes as its CSC arrays, the product of the CSC arrays of c and of c^+
        ip, ix, x = _matmat(_transposed(_arrays(c), d, d), _conjugate(_arrays(c)), d, d)
        jump = _transposed((ip, ix, x * (0.5 * rate)), d, d)
        g0 = _binop(_sparsetools.csr_minus_csr, g0, jump, d)
    gens = [_csr(g0, (d, d))]
    for a in model.hamiltonian.ops:
        adjoint = _transposed(_conjugate(_arrays(a)), d, d)
        ip, ix, x = _binop(_sparsetools.csr_plus_csr, _arrays(a), adjoint, d)
        gens.append(_csr((ip, ix, x * -1j), (d, d)))
        if imaginary:  # -i Y_k = A_k - A_k^+
            gens.append(_csr(_binop(_sparsetools.csr_minus_csr, _arrays(a), adjoint, d), (d, d)))
    return gens


def _superoperator_pieces(model: LindbladModel, imaginary: bool = True):
    """(L0, [S(-i X_1), S(-i Y_1), ...]) as CSR matrices on vec(rho), each
    generator G of :func:`_generators` as S(G) = G x I + I x conj(G), the map
    rho -> G rho + rho G^+, and L0 = S(G_0) + sum_k r_k C_k x conj(C_k), each
    summed from the COO triples of its Kronecker products in one conversion."""
    d = model.space.total_dim
    diagonal = np.arange(d, dtype=np.intc)
    eye = (diagonal, diagonal, np.ones(d, complex))
    s0, *parts = ([_kron(g, eye, d), _kron(eye, _conjugate(g), d)]
                  for g in map(_entries, _generators(model, imaginary)))
    jumps = []
    for c, rate in _jumps(model):
        c = _entries(c)
        jumps.append(_kron(c, _conjugate(c), d, rate))
    return _from_triples(s0 + jumps, d * d), [_from_triples(s, d * d) for s in parts]


def _liouvillian(model: LindbladModel, t: float):
    """The CSR superoperator of the generator frozen at time t on the row-major
    vec(rho): the pieces of :func:`_superoperator_pieces` weighed by :func:`_weights`."""
    liou, parts = _superoperator_pieces(model)
    for w, part in zip(_weights(model.hamiltonian.at(t))[1:], parts):
        liou = liou + w * part
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


# Dormand-Prince 5(4) tableau; _C holds the times of stages 2 to 7 as a column, row i
# of _A weights the first i stages (zero-padded), and its last row weights the
# fifth-order solution, which is also the input of the last stage (first-same-as-last)
_C = np.array([[1 / 5], [3 / 10], [4 / 5], [8 / 9], [1.0], [1.0]])
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

_P_ROWS = _P.tolist()

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _step_factor(err: float) -> float:
    """The factor of the next step size after an attempt of error norm ``err``:
    0.9 err^(-1/5) within [0.2, 5], and 5 at err = 0."""
    return _MAX_FACTOR if err == 0.0 else max(_MIN_FACTOR, min(_MAX_FACTOR, _SAFETY * err ** -0.2))


def distinct_times(grid, extra) -> list[float]:
    """Sorted ``extra`` less float twins of ``grid`` or each other, which a step cannot resolve."""
    tol, kept = 1e-9 * (grid[-1] - grid[0]), []
    for x in sorted(extra):
        if min(abs(x - g) for g in (*grid, *kept)) > tol:
            kept.append(x)
    return kept


class _Column:
    """One column of a batch: its sample grid (``times``, and ``grid`` as
    floats), the times its steps end on, and its place in its own step
    sequence.  Its samples fill one array."""

    __slots__ = ("times", "grid", "ends", "span", "t", "h", "next", "sampled", "stored",
                 "accepted", "rejected", "clamped", "interpolated", "h_min", "h_max")

    def __init__(self, config: IntegratorConfig):
        ts = self.times = np.asarray(config.sample_times, dtype=float)
        self.grid = ts.tolist()
        t0, t_end = self.grid[0], self.grid[-1]
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


def _initial_steps(rhs_of, weights, cols, y, f0, rtol, atol, coords):
    """First step size of each column of ``cols``; its start's derivatives go
    into ``f0``.  ``rhs_of(len(cols))`` and ``weights`` bind the rhs and the
    weights of the columns to buffers (:func:`_integrate_dp45`)."""
    bind, t = rhs_of(len(cols)), np.array([[col.t for col in cols]])
    w, weigh = weights(t)
    _run(weigh)
    f0.fill(0.0)
    _run(bind(w[:, 0], y, f0))

    def norm(x):  # of each row of x, scaled in place, as the error of a step from y
        norms, calls = coords.error_norm(y, y, x, rtol, atol)
        _run(calls)
        return np.array(norms())

    d0, d1 = norm(y.copy()), norm(f0.copy())
    # y is finite, so with a finite f0 a norm that is not has overflowed: no float64 step
    # meets such tolerances, and the column keeps h = 0, which fails the underflow check
    over = ~np.isfinite(d0 + d1) & np.isfinite(f0).all(axis=1)
    h0 = np.array([1e-6 * col.span if (a < 1e-5 or b < 1e-5 or o) else 0.01 * a / b
                   for col, a, b, o in zip(cols, d0, d1, over)])
    f1 = np.zeros_like(f0)
    t += h0
    _run(weigh)
    _run(bind(w[:, 0], y + h0[:, None] * f0, f1))
    d2 = norm(f1 - f0) / h0
    for col, a, b, c, o in zip(cols, h0, d1, d2, over):
        h1 = max(1e-6 * col.span, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        col.h = 0.0 if o else float(min(100 * a, h1))


def _integrate_dp45(rhs_of, weights_of, y0, configs, repair, on_sample, coords):
    """Embedded RK 5(4) driver that steps a batch of columns, one per config,
    each over its own sample grid, all from the state ``y0``.

    Every array operation of an attempt is one call of a list, the
    attempt's plan, of (function, arguments) pairs bound to buffers that are
    built once per batch width and again, ``k`` copied contiguous, when a
    column leaves: the stage times t + c_i h of every column, its piece
    weights at them, the stage coefficients h a_ij and h e_j, one zero fill,
    then per stage its input and its rhs, the error vector and its scaled
    norm.  ``rhs_of(width)`` gives ``bind(w, y, out)``, the calls that write
    into ``out``, zero when they are made, the derivatives of the states in
    the rows of ``y`` from their (n_weights, width) weights ``w``
    (:func:`_linear_rhs`).  ``weights_of(cols)`` gives the function that
    binds a buffer of (N, len(cols)) times of the columns ``cols`` to their
    weights and the calls that write them (:func:`_weights_of`).  Each
    column has its own time, step size, place in its grid, accept/reject
    decision and counters, so it takes exactly the steps it takes alone; a
    column leaves the batch when it reaches its last sample or fails.

    The state ``y0`` is real: the stepped coordinates of the
    :class:`_RealCoordinates` ``coords``.  It is row 0 of the C-contiguous
    array ``k``; rows 1 to 7 hold the stages, which the rhs write in place,
    rows 8 to 13 the inputs of stages 2 to 7, the last of which is the
    fifth-order solution y5, and row 14 the error vector, each one
    :func:`_stage_sum` over the rows before it.  One fill zeroes ``k[2:]``
    per attempt.  ``repair(y, out)`` gives (norms, calls), whose calls write
    the accepted states in the rows of ``y`` into ``out``, with any
    invariant restored, and the norm (``coords.norm``) of each into
    ``norms``; a norm that drifts from 1 by more than
    ``TRACE_DIVERGENCE_TOL`` fails its column.  ``on_sample(t, y)`` converts
    the state ``y`` at the sample time ``t`` into its stored form, an array
    (the normalized coordinates, in :func:`evolve`), and may raise
    :class:`IntegrationDivergedError`; a column writes its stored forms into
    the rows of one array, its :attr:`Trajectory.samples`.  The error norm is
    ``coords.error_norm``, the RMS of the error over the scale atol + rtol
    max(|y|, |y5|); one that is not finite fails its column.  The columns
    share their tolerances.  Steps are clamped so stops and the last sample
    time are hit exactly.  A sample time inside an accepted step is read from
    the continuous extension (:data:`_P`), one CSC kernel call per sample,
    before the step's state and stages are overwritten; each accepted column
    compares its next sample time with the step's end once.  Returns per
    column its :class:`Trajectory`, carrying the :class:`IntegratorStats`, or
    the integration error that stopped it.
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
            col.store(on_sample(col.grid[col.sampled], state))
        except IntegrationDivergedError as exc:
            out[j] = exc

    y = np.array(np.broadcast_to(y0, (len(cols), len(y0))), order="C")
    for j in range(len(cols)):
        sample(j, y[j])
    act = [j for j in range(len(cols)) if out[j] is None]  # the active columns
    if not act:
        return out

    def plan_of(k):
        """The plans of the columns ``act`` beside their stages ``k``: (th,
        plan, errors, accept, norms, (reads, stages)).  ``plan`` writes, from
        each column's step start and size in the rows of ``th``, its stages, y5
        and the scaled error whose norms ``errors()`` reads; ``accept`` writes
        the repaired y5 into k[0], the last stage into k[1] and their norms
        into ``norms``, for a batch whose columns all accept.  ``reads`` and
        ``stages`` are the arguments of the dense output's kernel calls."""
        width = k.shape[1]
        th, times = np.empty((2, width)), np.empty((6, width))  # (t, h); t + c_i h
        w, weigh = weights_of(act)(times)
        coef = np.ones((8, 7, width))  # the plan writes all but the ones
        bind = rhs_of(width)
        plan = [(np.multiply, (_C, th[1], times)), (np.add, (th[0], times, times)), *weigh,
                (np.multiply, (_A[1:, :, None], th[1], coef[1:7, 1:])),
                (np.multiply, (_E[:, None], th[1], coef[7])), (k[2:].fill, (0.0,))]
        for i in range(1, 7):
            plan += _stage_sum(coef[i, :i + 1], k[:i + 1], k[7 + i])
            plan += bind(w[:, i - 1], k[7 + i], k[i + 1])
        plan += _stage_sum(coef[7], k[1:8], k[14])
        errors, error_norm = coords.error_norm(k[0], k[13], k[14], rtol, atol)
        norms, repaired = repair(k[13], k[0])
        accept = [*repaired, (np.copyto, (k[1], k[7]))]  # first-same-as-last
        # per column b, the leading arguments of the CSC kernel call that reads a
        # sample inside its step as sum_j c_j k[j, b] over the state and the seven
        # stages, adding in j order as the stage sums do: the (1, 8 width) matrix with
        # c_j in column j width + b; the call appends c, the flat k[:8] and the output
        columns = np.arange(8 * width + 1, dtype=np.intc)
        reads = [(1, 8 * width, k.shape[2], (columns + (width - 1 - b)) // width,
                  np.zeros(8, dtype=np.intc)) for b in range(width)]
        return th, plan + error_norm, errors, accept, norms, (reads, k[:8].reshape(-1))

    # the state, the seven stages, the inputs of stages 2 to 7 (the last, k[13], is
    # y5) and the error vector
    k = np.empty((15, len(act), y.shape[1]))
    k[0] = y[act]
    y = k[0]
    th, plan, errors, accept, norms, (reads, stages) = plan_of(k)
    _initial_steps(rhs_of, weights_of(act), [cols[j] for j in act], y, k[1], rtol, atol, coords)

    hmin_scale = 16.0 * np.finfo(float).eps
    while act:
        clamped, t, h, stiff = [], [], [], False
        for j in act:
            col = cols[j]
            target = col.ends[col.next]
            clamped.append(col.t + col.h >= target - 1e-14 * max(abs(target), col.span))
            if clamped[-1]:
                col.h = target - col.t
            if col.h < hmin_scale * max(abs(col.t), col.span):
                out[j], stiff = StiffnessError(col.t), True
            t.append(col.t)
            h.append(col.h)

        if not stiff:
            th[0], th[1] = t, h
            for f, args in plan:
                f(*args)
            errs = errors()
            ok = [pos for pos, err in enumerate(errs) if err <= 1.0]

            # the samples strictly inside the accepted steps, read from the
            # continuous extension while k[0] and k[1] still hold the steps' start;
            # the last sample ends a step, so it is never inside one
            inside, rows, theta = {}, [], []
            for pos in ok:
                col, end = cols[act[pos]], t[pos] + h[pos]
                before, s = end - 1e-12 * max(abs(end), col.span), col.sampled
                while col.grid[s] < before:
                    inside.setdefault(pos, []).append(len(rows))
                    rows.append(pos)
                    theta.append((col.grid[s] - t[pos]) / h[pos])
                    s += 1
            if rows:
                # each sample's weights of k[:8], 1 and h b_j(theta), b_j by Horner's
                # rule in floats, which round as numpy's arrays do
                hb = np.array([[1.0] + [h[pos] * ((((p3 * a + p2) * a + p1) * a + p0) * a)
                                        for p0, p1, p2, p3 in _P_ROWS]
                               for pos, a in zip(rows, theta)])
                dense = np.zeros((len(rows), y.shape[1]))
                for r, pos in enumerate(rows):
                    _sparsetools.csc_matvecs(*reads[pos], hb[r], stages, dense[r])

            drifts = [0.0] * len(act)  # of the accepted states' norms from 1
            if len(ok) == len(act):
                for f, args in accept:
                    f(*args)
                drifts = [abs(n - 1.0) for n in norms.tolist()]
            elif ok:  # a list index copies: the rows are repaired in the copy
                took = k[13, ok]
                took_norms, repaired = repair(took, took)
                _run(repaired)
                k[0, ok], k[1, ok] = took, k[7, ok]
                for pos, n in zip(ok, took_norms.tolist()):
                    drifts[pos] = abs(n - 1.0)

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
                    if out[j] is None and abs(col.grid[col.sampled] - col.t) <= tol:
                        sample(j, y[pos])
                    if abs(col.t - col.ends[col.next]) <= tol:
                        col.next += 1
                        if out[j] is None and col.next == len(col.ends):
                            out[j] = col.trajectory(coords)
                else:
                    col.rejected += 1
                col.h *= _step_factor(err)  # unread once the column has failed

        going = [pos for pos, j in enumerate(act) if out[j] is None]
        if len(going) < len(act):  # finished and failed columns leave the batch
            # a copy, since k[:, going] is not contiguous and the plan reads flat views
            k = np.ascontiguousarray(k[:, going])
            act, y = [act[pos] for pos in going], k[0]
            if act:
                th, plan, errors, accept, norms, (reads, stages) = plan_of(k)
    return out


def evolve(model: LindbladModel, state0: StateVector | DensityMatrix, config):
    """Integrate the master equation from ``state0`` and sample at the configured times.

    The input picks the state form.  A :class:`StateVector` under a model with
    no collapse term of positive rate is stepped as psi, under the generators
    G_0 = -i H0, -i X_k and -i Y_k of :func:`_generators`; any other
    :class:`StateVector` is stepped as its
    :meth:`~StateVector.density_matrix`, and a :class:`DensityMatrix` always
    as rho, under their superoperators S(G) (:func:`_superoperator_pieces`).
    Adaptive Dormand-Prince 5(4) steps either in real arithmetic (rho as its
    Hermitian half, psi as Re psi and Im psi), on only the coordinates that
    the kept pieces can reach from the input's; the Y_k pieces are not built
    when every coefficient of every column is real.  Steps end on the stops
    and the last sample time, and a sample inside a step is read from the
    continuous extension.  The norm (the trace, or |psi|^2 for psi) is checked
    against 1e-4 after every step, psi then renormalized, and 1e-6 at every
    sample, the first included; a drift beyond either aborts with an error
    carrying the time.  Sampled states are divided by their trace (or norm)
    and kept as their stepped coordinates (:attr:`Trajectory.samples`), and
    :attr:`Trajectory.states` gives them as density matrices, |psi><psi| for
    psi.  Each trajectory's ``timing`` holds the batch's ``setup_s`` (pieces,
    real pieces, reachable coordinates) and ``integrate_s``.

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
    imaginary = not _real_drive(gen)  # else every Y_k has the weight Im c_k = 0
    if isinstance(state0, StateVector) and not _jumps(model):
        coords, v0 = _RealCoordinates(np.arange(0), np.arange(d)), state0.amplitudes
        const, *parts = _generators(model, imaginary)
    else:
        rho0 = state0 if isinstance(state0, DensityMatrix) else state0.density_matrix()
        coords, v0 = _hermitian_half(d), rho0.matrix.reshape(-1)
        const, parts = _superoperator_pieces(model, imaginary)

    def repair(y, out):
        """(norms, calls): the calls write the norms of the rows of ``y`` into
        ``norms`` and the rows into ``out``, psi's renormalized (|psi|^2 is a
        quadratic invariant, which RK does not conserve)."""
        norms = np.empty(len(y))
        calls = coords.norm_calls(y, norms)
        if coords.hermitian:
            return norms, calls + [(np.copyto, (out, y))]
        return norms, calls + coords.unit_calls(y, norms, out)

    def on_sample(t, y):
        n = coords.norm(y)
        drift = abs(n - 1.0)
        if drift > TRACE_SAMPLE_TOL:
            raise IntegrationDivergedError(t, drift, TRACE_SAMPLE_TOL)
        return coords.unit(y, n)

    const, parts = coords.pieces(const, parts)
    start = coords.coordinates(v0)
    coords.restrict(_support((const, *parts), start != 0))
    rhs_of = _linear_rhs(const, parts, coords.order)
    configs = [config] if isinstance(config, IntegratorConfig) else list(config)
    t_setup = time.perf_counter()
    weights_of = _weights_of(gen, len(configs), imaginary)
    runs = _integrate_dp45(rhs_of, weights_of, start[coords.order], configs, repair, on_sample,
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
    the integrator's L0 + sum_k (Re c_k S(-i X_k) + Im c_k S(-i Y_k)), densified.
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
        ops += [destroy(space, mode), embed(space, mode, ladder(space.dims[mode], "raise"))]
    return list(zip(ops, thermal_collapse_rates(params)))
