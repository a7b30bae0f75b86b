"""Lindblad master-equation right-hand side and adaptive time integration.

The generator is

    d rho / dt = -i [H(t), rho] + sum_k r_k (C_k rho C_k^+
                                             - (C_k^+ C_k rho + rho C_k^+ C_k)/2)

with the cavity decaying at rate kappa through C = a and each mechanical
mode thermalizing through the pair (b_i, Gamma_i (nbar_i + 1)) and
(b_i^+, Gamma_i nbar_i).

Every path derives from one :class:`~omstirap.hilbert.Generator`: the
integrator steps the row-major vec(rho) under sparse superoperators (pure
states under the Hilbert-space terms) with an embedded Dormand-Prince 5(4)
pair, restoring hermiticity after every accepted step and monitoring the
trace; the same pieces, densified, feed a matrix-exponential oracle.
The error controller sets each step size, but every step ends on the next sample
time or stop: ``run_scenario`` stops at each pulse centre, so no step skips a pulse.

Every run is a batch: the integrator steps B columns at once, a single run
being a batch of one.  The columns share the pieces and the initial state and
differ in their Hamiltonian coefficients and sample grids (a sweep's cells, a
fringe's phase points).  The state is a row-major (B, m) array, one column per
row, and the seven stages one (7, B, m) array.  Each attempt evaluates the
coefficients of every active column at its six stage times in one call, and
each stage is one sparse product: the pieces [L0 | K_1 | K'_1 | ...] are laid
side by side once per run as one wide CSR matrix, applied to the stacked
weighted copies (1, c_1, conj(c_1), ...) of every row.  Each stage input, the
fifth-order solution and the error vector is one ``einsum`` on the real view.
Each column keeps its own time, step size, place in its grid, accept/reject
decision and counters, and every operation acts on each row alone in the
order a one-row batch uses, so a column takes bitwise the steps it takes
alone; it leaves the batch when it ends or fails.  Neither the products nor
the stage sums call BLAS, so results do not depend on the BLAS thread count.

The integrator works only on the *support* of the initial state: the entries
of vec(rho0) (or psi0) that the sparsity graph of the pieces can ever reach,
closed under rho -> rho^+.  Every other entry is exactly zero at all times, so
each piece is cut to the support's rows and columns once per run and states
are scattered back to full size only at sample times.  Where the generator
conserves the total excitation number (``rwa``, ``bs``), an input diagonal in
it stays in the coherence-order sector k = N_left - N_right = 0; the ``full``
picture keeps every even k.  The error norm still divides by the full length
(d^2, or d for a pure state), so the step sequence, and with it every result,
is that of the unreduced integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse

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
    sets each step, but every step ends on a sample time or stop; stops store no state."""

    sample_times: Sequence[float]
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    stops: Sequence[float] = ()

    def __post_init__(self):
        ts = np.asarray(self.sample_times, dtype=float)
        if ts.ndim != 1 or ts.size < 2:
            raise InvalidArgumentError("need at least two sample times")
        if np.any(np.diff(ts) <= 0):
            raise InvalidArgumentError("sample times must be strictly increasing")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise InvalidArgumentError("tolerances must be > 0")
        object.__setattr__(self, "sample_times", ts)


@dataclass(frozen=True)
class IntegratorStats:
    """What one integration did: steps, rhs evaluations, step-size range, sizes."""

    accepted: int
    rejected: int
    rhs_evals: int
    clamped: int  # accepted steps cut short to end on a sample time or stop
    h_min: float
    h_max: float
    state_size: int  # entries integrated: the support of the initial state
    norm_size: int  # entries the error norm averages over: d^2, or d for a pure state


@dataclass(frozen=True)
class Trajectory:
    """Sampled density matrices with named derived observables."""

    times: np.ndarray
    states: tuple
    observables: dict = field(default_factory=dict)
    stats: IntegratorStats | None = None

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise InvalidArgumentError("times and states length mismatch")

    def with_observables(self, observables: dict) -> "Trajectory":
        return replace(self, observables={**self.observables, **observables})


def _support(pieces, start: np.ndarray, mirror: np.ndarray | None = None) -> np.ndarray:
    """Sorted indices that the boolean mask ``start`` reaches through the sparsity
    graph of ``pieces``, closed under the index permutation ``mirror`` if given.

    Outside this set every linear combination of the pieces keeps a state
    that starts on ``start`` exactly zero.  Absolute values cannot cancel,
    so an entry is reached when any piece couples it to a reached one.
    """
    graph = abs(scipy.sparse.vstack(pieces, format="csr"))
    m = start.size
    reached = start
    while True:
        grown = reached | (graph @ reached).reshape(-1, m).any(axis=0)
        if mirror is not None:
            grown |= grown[mirror]
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _linear_rhs(const, parts, keep=slice(None)):
    """(c, y) -> the rows of const y + sum_k (c_k parts[2k] y + conj(c_k) parts[2k+1] y).

    ``y`` holds one state per row and ``c`` the (n_terms, rows) coefficients
    of each row.  Every piece is cut to the rows and columns ``keep`` and the
    cut pieces are laid side by side, once, as one wide CSR matrix
    [const | parts[0] | ...].  A call stacks each row's weighted copies w_k y,
    w = [1, c_1, conj(c_1), ...], as the columns of one dense operand and makes
    one sparse product: no per-term or per-row sums, and nothing calls BLAS.
    """
    wide = scipy.sparse.hstack([p[keep][:, keep] for p in (const, *parts)], format="csr")
    w = np.ones((1 + len(parts), 1), dtype=complex)  # reused while the row count holds

    def rhs(c: np.ndarray, y: np.ndarray) -> np.ndarray:
        nonlocal w
        if w.shape[1] != len(y):
            w = np.ones((1 + len(parts), len(y)), dtype=complex)
        w[1::2] = c
        np.conjugate(c, out=w[2::2])
        x = np.multiply(w[:, None, :], y.T, order="C")  # x[k, :, b] = w[k, b] y[b]
        return (wide @ x.reshape(-1, len(y))).T

    return rhs


def _coefficients_of(gen: Generator, columns: int):
    """cols -> the coefficient function of the columns ``cols``, which maps their
    (N, len(cols)) times to the (n_terms, N, len(cols)) coefficients: the
    columns of the generator's :class:`DriveCoefficients`, which must have
    ``columns`` of them, or, for any other coefficient function (a single
    column), its values time by time."""
    rule = gen.coefficients
    if isinstance(rule, DriveCoefficients):
        if rule.columns != columns:
            raise InvalidArgumentError(
                f"{columns} configs for a coefficient rule of {rule.columns} columns")
        return rule.take
    if columns != 1:
        raise InvalidArgumentError("a batch needs a DriveCoefficients rule")
    n = len(gen.ops)

    def coefficients(t):
        return np.array([rule(x) for x in t.ravel()], dtype=complex).T.reshape((n,) + t.shape)

    return lambda cols: coefficients


def _commutator_superop(a, eye):
    """-i (A x I - I x A^T): the row-major superoperator of rho -> -i[A, rho]."""
    return -1j * (scipy.sparse.kron(a, eye) - scipy.sparse.kron(eye, a.T))


def _superoperator_pieces(model: LindbladModel):
    """(L0, [K_1, K'_1, K_2, K'_2, ...]) as CSR matrices on vec(rho)."""
    eye = scipy.sparse.identity(model.space.total_dim, dtype=complex, format="csr")
    l0 = _commutator_superop(model.hamiltonian.h0, eye)
    for c, rate in model.collapse_terms:
        if rate > 0.0:
            cd_c = c.conj().T @ c
            l0 = l0 + rate * (scipy.sparse.kron(c, c.conj()) - 0.5 * (
                scipy.sparse.kron(cd_c, eye) + scipy.sparse.kron(eye, cd_c.T)))
    parts = [_commutator_superop(op, eye) for a in model.hamiltonian.ops
             for op in (a, a.conj().T)]
    return l0.tocsr(), parts


def lindblad_rhs(model: LindbladModel, t: float, rho) -> np.ndarray:
    """d rho/dt of the Lindblad generator at time t, via the integrator's rhs.

    Trace-free to numerical precision and maps Hermitian input to Hermitian
    output for any Hermitian matrix, not only physical states.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    d = model.space.total_dim
    if mat.shape != (d, d):
        raise InvalidDimensionError("state dimension does not match model space")
    rhs = _linear_rhs(*_superoperator_pieces(model))
    c = np.asarray(model.hamiltonian.coefficients(t), dtype=complex)
    return rhs(c[:, None], mat.reshape(1, -1))[0].reshape(d, d)


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

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _rms(x: np.ndarray, size: int):
    """RMS of each row of ``x`` padded with zeros to ``size`` entries: the
    off-support entries of the unreduced state, which are exactly zero."""
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=-1) / size)


def distinct_times(grid, extra) -> list[float]:
    """Sorted ``extra`` less float twins of ``grid`` or each other, which a step cannot resolve."""
    tol, kept = 1e-9 * (grid[-1] - grid[0]), []
    for x in sorted(extra):
        if min(abs(x - g) for g in (*grid, *kept)) > tol:
            kept.append(x)
    return kept


class _Column:
    """One column of a batch: its sample grid and its place in its own step sequence."""

    __slots__ = ("times", "stops", "grid", "span", "t", "h", "next",
                 "stored", "accepted", "rejected", "clamped", "h_min", "h_max")

    def __init__(self, config: IntegratorConfig):
        ts = self.times = np.asarray(config.sample_times, dtype=float)
        t0, t_end = float(ts[0]), float(ts[-1])
        self.span = t_end - t0
        self.stops = {x for x in distinct_times(ts, config.stops) if t0 < x < t_end}
        self.grid = sorted([*ts.tolist(), *self.stops])
        self.t, self.h, self.next = t0, math.nan, 1
        self.stored = []
        self.accepted = self.rejected = self.clamped = 0
        self.h_min, self.h_max = math.inf, 0.0

    def trajectory(self, state_size: int, norm_size: int) -> Trajectory:
        rhs_evals = 2 + 6 * (self.accepted + self.rejected)  # 2 choose the first step
        stats = IntegratorStats(self.accepted, self.rejected, rhs_evals, self.clamped,
                                self.h_min, self.h_max, state_size, norm_size)
        return Trajectory(times=self.times.copy(), states=tuple(self.stored), stats=stats)


def _initial_steps(rhs, coefficients, cols, y, rtol, atol, size):
    """First step size of each column of ``cols``, and the derivatives at its start."""
    t0 = np.array([col.t for col in cols])
    f0 = rhs(coefficients(t0[None])[:, 0], y)
    scale = atol + rtol * np.abs(y)
    d0, d1 = _rms(y / scale, size), _rms(f0 / scale, size)
    h0 = np.array([1e-6 * col.span if (a < 1e-5 or b < 1e-5) else 0.01 * a / b
                   for col, a, b in zip(cols, d0, d1)])
    f1 = rhs(coefficients((t0 + h0)[None])[:, 0], y + h0[:, None] * f0)
    d2 = _rms((f1 - f0) / scale, size) / h0
    for col, a, b, c in zip(cols, h0, d1, d2):
        h1 = max(1e-6 * col.span, a * 1e-3) if max(b, c) <= 1e-15 else (0.01 / max(b, c)) ** 0.2
        col.h = float(min(100 * a, h1))
    return f0


def _integrate_dp45(rhs, coefficients_of, y0, configs, repair, on_sample, norm_size):
    """Embedded RK 5(4) driver that steps a batch of columns, one per config,
    each over its own sample grid, all from the state ``y0``.

    ``rhs(c, y)`` gives the derivatives of the states in the rows of ``y``
    from their (n_terms, rows) coefficients ``c``, and
    ``coefficients_of(cols)`` gives the function that maps the (N, len(cols))
    times of the columns ``cols`` to those coefficients.  Each attempt
    evaluates the coefficients once, at the six stage times of every active
    column, and makes one ``rhs`` call per stage.  Each column has its own
    time, step size, place in its grid, accept/reject decision and counters,
    so it takes exactly the steps it takes alone; a column leaves the batch
    when it reaches its last sample or fails.

    ``repair(y)`` restores invariants of the accepted states in the rows of
    ``y`` and returns them with the trace (|psi|^2 for a pure state) of each;
    a trace that drifts from 1 by more than ``TRACE_DIVERGENCE_TOL`` fails its
    column.  ``on_sample(t, y)`` converts one sampled state into its stored
    form and may raise :class:`IntegrationDivergedError`.  The error norm
    averages over ``norm_size`` entries, of which ``y0`` holds the ones that
    can be nonzero; an error norm that is not finite fails its column.  The
    columns share their tolerances.  Steps are clamped so sample times and
    stops are hit exactly.  Returns per column its :class:`Trajectory`,
    carrying the :class:`IntegratorStats`, or the integration error that
    stopped it.
    """
    rtol, atol = configs[0].rel_tol, configs[0].abs_tol
    if any((c.rel_tol, c.abs_tol) != (rtol, atol) for c in configs):
        raise InvalidArgumentError("the columns of a batch must share their tolerances")
    cols = [_Column(config) for config in configs]
    out: list = [None] * len(cols)

    def sample(j, state):
        """Store column j's state at its time, or record the error that stops it."""
        try:
            cols[j].stored.append(on_sample(cols[j].t, state))
        except IntegrationDivergedError as exc:
            out[j] = exc

    y = np.array(np.broadcast_to(y0, (len(cols), len(y0))), dtype=complex)
    for j in range(len(cols)):
        sample(j, y[j])
    act = [j for j in range(len(cols)) if out[j] is None]  # the active columns
    if not act:
        return out
    y = y[act]
    coefficients = coefficients_of(act)
    k = np.empty((7,) + y.shape, dtype=complex)  # the stages, one per row
    k[0] = _initial_steps(rhs, coefficients, [cols[j] for j in act], y, rtol, atol, norm_size)
    kr = k.view(float)  # stage sums act on real and imaginary parts alike

    def stage_input(y, ha, i):
        """y + sum_j ha[:, i, j] k[j] over the first i stages, in one einsum."""
        return (y.view(float) + np.einsum("bj,jbk->bk", ha[:, i, :i], kr[:i])).view(complex)

    hmin_scale = 16.0 * np.finfo(float).eps
    while act:
        clamped, t, h = [], [], []
        for j in act:
            col = cols[j]
            target = col.grid[col.next]
            clamped.append(col.t + col.h >= target - 1e-14 * max(abs(target), col.span))
            if clamped[-1]:
                col.h = target - col.t
            if col.h < hmin_scale * max(abs(col.t), col.span):
                out[j] = StiffnessError(col.t)
            t.append(col.t)
            h.append(col.h)

        if all(out[j] is None for j in act):
            t, h = np.array(t), np.array(h)
            c = coefficients(t + _C[1:, None] * h)  # at the six stage times
            ha = h[:, None, None] * _A  # each column's step times the tableau
            for i in range(1, 6):
                k[i] = rhs(c[:, i - 1], stage_input(y, ha, i))
            y5 = stage_input(y, ha, 6)
            k[6] = rhs(c[:, 5], y5)
            err_vec = np.einsum("bj,jbk->bk", h[:, None] * _E, kr).view(complex)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            # times the reciprocal: bitwise numpy's complex-by-real quotient, which
            # warns on a NaN scale where this stays quiet
            errs = _rms(err_vec * (1.0 / scale), norm_size).tolist()
            ok = [pos for pos, err in enumerate(errs) if err <= 1.0]
            drifts = [0.0] * len(act)  # of the accepted states' traces from 1
            if ok:
                if len(ok) == len(act):
                    y, traces = repair(y5)
                    k[0] = k[6]  # first-same-as-last
                else:
                    y[ok], traces = repair(y5[ok])
                    k[0, ok] = k[6, ok]
                for pos, drift in zip(ok, np.abs(traces - 1.0).tolist()):
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
                    if abs(col.t - col.grid[col.next]) <= 1e-12 * max(abs(col.t), col.span):
                        if col.grid[col.next] not in col.stops:
                            sample(j, y[pos].copy())
                        col.next += 1
                        if out[j] is None and col.next == len(col.grid):
                            out[j] = col.trajectory(y.shape[1], norm_size)
                    factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
                    col.h *= max(_MIN_FACTOR, factor)
                else:
                    col.rejected += 1
                    col.h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

        going = [pos for pos, j in enumerate(act) if out[j] is None]
        if len(going) < len(act):  # finished and failed columns leave the batch
            act, y, k = [act[pos] for pos in going], y[going], k[:, going]
            coefficients, kr = coefficients_of(act), k.view(float)
    return out


def _check_trace(t: float, trace: float, tol: float):
    """Raise when the trace (|psi|^2 for a pure state) has drifted from 1 by more than ``tol``."""
    drift = abs(trace - 1.0)
    if drift > tol:
        raise IntegrationDivergedError(t, drift, tol)


def _batch(config) -> list:
    return [config] if isinstance(config, IntegratorConfig) else list(config)


def _outcome(config, runs: list):
    """The list of a batch's outcomes, or the trajectory of a single run, whose error is raised."""
    if not isinstance(config, IntegratorConfig):
        return runs
    if isinstance(runs[0], Exception):
        raise runs[0]
    return runs[0]


def evolve(model: LindbladModel, rho0: DensityMatrix, config):
    """Integrate the master equation and sample at the configured times.

    Adaptive Dormand-Prince 5(4) on the support of the row-major vec(rho0).
    Steps never overshoot a sample time, accepted states are symmetrized, and
    sampled states are renormalized by their trace (drift beyond 1e-6 at a
    sample, or 1e-4 anywhere, aborts with an error carrying the time).

    ``config`` may also be a sequence of configs, one per column of the
    generator's :class:`~omstirap.model.DriveCoefficients`.  The columns are
    then stepped as one batch, each exactly as it steps alone, and the result
    is a list of each column's :class:`Trajectory`, or of the integration
    error that stopped it.
    """
    if rho0.space != model.space:
        raise InvalidDimensionError("initial state lives on a different space")
    d = model.space.total_dim
    y0 = rho0.matrix.reshape(-1)
    l0, parts = _superoperator_pieces(model)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    keep = _support((l0, *parts), y0 != 0, transpose)
    rhs = _linear_rhs(l0, parts, keep)
    mirror = np.searchsorted(keep, transpose[keep])  # position of rho_ji for rho_ij
    diagonal = np.flatnonzero(keep % (d + 1) == 0)  # positions of the rho_ii

    def repair(y):
        """The rows of ``y`` made Hermitian, and their traces."""
        y = 0.5 * (y + y.take(mirror, axis=-1).conj())
        return y, y.take(diagonal, axis=-1).sum(axis=-1).real

    def on_sample(t, y):
        y, trace = repair(y)
        _check_trace(t, trace, TRACE_SAMPLE_TOL)
        m = np.zeros(d * d, dtype=complex)
        m[keep] = y / trace
        return DensityMatrix(model.space, m.reshape(d, d), validate=False)

    configs = _batch(config)
    runs = _integrate_dp45(rhs, _coefficients_of(model.hamiltonian, len(configs)), y0[keep],
                           configs, repair, on_sample, d * d)
    return _outcome(config, runs)


def evolve_pure(
    hamiltonian: Generator | np.ndarray | scipy.sparse.csr_matrix,
    psi0,
    space: HilbertSpace,
    config,
):
    """Schroedinger evolution of a pure state under H(t), no dissipation.

    Equivalent to :func:`evolve` with an empty collapse set and a pure
    initial state, at vector instead of matrix cost; the generator's terms
    act on the support of psi0 in the Hilbert space and no superoperator is
    built.  Sampled states are returned as density matrices so downstream
    analytics are uniform.  The trace |psi|^2 is checked as :func:`evolve`
    checks Tr rho: against 1e-4 after every step and 1e-6 at every sample,
    the first included; accepted states are renormalized.  ``config`` may be
    a sequence of configs for a batch, as in :func:`evolve`.
    """
    amps = psi0.amplitudes if isinstance(psi0, StateVector) else np.asarray(psi0, dtype=complex)
    d = space.total_dim
    if amps.shape != (d,):
        raise InvalidDimensionError("initial amplitudes do not match the space")
    gen = LindbladModel(space, hamiltonian).hamiltonian
    h0 = -1j * gen.h0
    parts = [-1j * op for a in gen.ops for op in (a, a.conj().T)]
    keep = _support((h0, *parts), amps != 0)
    rhs = _linear_rhs(h0, parts, keep)

    def repair(y):
        """The rows of ``y`` normalized, and their squared norms."""
        nrm = np.array([np.linalg.norm(row) for row in y])
        return y / nrm[:, None], nrm * nrm

    def on_sample(t, y):
        nrm = np.linalg.norm(y)
        _check_trace(t, nrm * nrm, TRACE_SAMPLE_TOL)
        v = np.zeros(d, dtype=complex)
        v[keep] = y / nrm
        return DensityMatrix(space, np.outer(v, v.conj()), validate=False)

    configs = _batch(config)
    runs = _integrate_dp45(rhs, _coefficients_of(gen, len(configs)), amps[keep], configs,
                           repair, on_sample, d)
    return _outcome(config, runs)


def liouvillian_matrix(model: LindbladModel, t: float = 0.0) -> np.ndarray:
    """Dense superoperator of the generator frozen at time t.

    Row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho).  It is
    the integrator's L0 + sum_k (c_k K_k + conj(c_k) K'_k), densified.
    """
    l0, parts = _superoperator_pieces(model)
    liou = l0.toarray()
    for k, c in enumerate(model.hamiltonian.coefficients(t)):
        liou += (c * parts[2 * k] + c.conjugate() * parts[2 * k + 1]).toarray()
    return liou


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
