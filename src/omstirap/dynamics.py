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

Each call costs a fixed handful of numpy calls, whatever the number of terms
or stages.  The pieces [L0 | K_1 | K'_1 | ...] are laid side by side once per
run as one wide CSR matrix, so an rhs is one sparse product with the stacked
weighted copies (1, c_1, conj(c_1), ...) of the state.  The seven stages live
in one (7, m) array, and each stage input, the fifth-order solution and the
error vector is one ``einsum`` over its rows on the real view.  Neither calls
BLAS, so results do not depend on the BLAS thread count.

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
from .model import bose_occupancy

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


def _linear_rhs(const, parts, coefficients, keep=slice(None)):
    """(t, v) -> const v + sum_k (c_k parts[2k] v + conj(c_k) parts[2k+1] v).

    Every piece is cut to the rows and columns ``keep`` and the cut pieces are
    laid side by side, once, as one wide CSR matrix [const | parts[0] | ...].
    A call fills the weights w = [1, c_1, conj(c_1), ...] and makes one sparse
    product with the stacked w_k v: no per-term sums, and nothing calls BLAS.
    """
    wide = scipy.sparse.hstack([p[keep][:, keep] for p in (const, *parts)], format="csr")
    w = np.ones(1 + len(parts), dtype=complex)

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        w[1::2] = coefficients(t)
        w[2::2] = w[1::2].conj()
        return wide @ np.multiply.outer(w, v).ravel()

    return rhs


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
    rhs = _linear_rhs(*_superoperator_pieces(model), model.hamiltonian.coefficients)
    return rhs(t, mat.reshape(-1)).reshape(d, d)


# Dormand-Prince 5(4) tableau; the last row of _A weights the fifth-order solution,
# which is also the input of the last stage (first-same-as-last)
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
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


def _rms(x: np.ndarray, size: int) -> float:
    """RMS of ``x`` padded with zeros to ``size`` entries: the off-support entries
    of the unreduced state, which are exactly zero."""
    return float(np.sqrt(np.sum(np.abs(x) ** 2) / size))


def _error_norm(err, y0, y1, rtol: float, atol: float, size: int) -> float:
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return _rms(err / scale, size)


def _initial_step(rhs, t0, y0, rtol, atol, span, size):
    f0 = rhs(t0, y0)
    scale = atol + rtol * np.abs(y0)
    d0 = _rms(y0 / scale, size)
    d1 = _rms(f0 / scale, size)
    h0 = 1e-6 * span if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale, size) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6 * span, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1), f0


def distinct_times(grid, extra) -> list[float]:
    """Sorted ``extra`` less float twins of ``grid`` or each other, which a step cannot resolve."""
    tol, kept = 1e-9 * (grid[-1] - grid[0]), []
    for x in sorted(extra):
        if min(abs(x - g) for g in (*grid, *kept)) > tol:
            kept.append(x)
    return kept


def _integrate_dp45(rhs, y0, config: IntegratorConfig, on_accept, on_sample, norm_size):
    """Shared embedded RK 5(4) driver over the configured sample grid.

    ``on_accept(t, y)`` may repair invariants of the accepted state (and
    raises on divergence); ``on_sample(t, y)`` converts a sampled state into
    its stored form.  The error norm averages over ``norm_size`` entries, of
    which ``y0`` holds the ones that can be nonzero.  Steps are clamped so
    sample times and stops are hit exactly.  Returns a :class:`Trajectory`
    carrying the :class:`IntegratorStats`.
    """
    ts = np.asarray(config.sample_times, dtype=float)
    t0, t_end = float(ts[0]), float(ts[-1])
    span = t_end - t0
    stops = {x for x in distinct_times(ts, config.stops) if t0 < x < t_end}
    grid = np.sort(np.concatenate((ts, list(stops))))
    y = np.array(y0, dtype=complex)
    t = t0
    stored = [on_sample(t, y)]
    h, f0 = _initial_step(rhs, t0, y, config.rel_tol, config.abs_tol, span, norm_size)
    next_point = 1
    k = np.empty((7, y.size), dtype=complex)  # the stages, one per row
    k[0] = f0
    kr = k.view(float)  # stage sums act on real and imaginary parts alike

    def stage_input(y, coeffs):
        """y + sum_j coeffs[j] k[j] over the first len(coeffs) stages, in one einsum."""
        return (y.view(float) + np.einsum("j,jk->k", coeffs, kr[:coeffs.size])).view(complex)

    hmin_scale = 16.0 * np.finfo(float).eps
    accepted = rejected = 0
    rhs_evals = 2  # by _initial_step
    h_min, h_max = math.inf, 0.0

    while t < t_end:
        target = grid[next_point]
        if t + h >= target - 1e-14 * max(abs(target), span):
            h = target - t
        if h < hmin_scale * max(abs(t), span):
            raise StiffnessError(t)

        for i in range(1, 6):
            k[i] = rhs(t + _C[i] * h, stage_input(y, h * _A[i]))
        y5 = stage_input(y, h * _A[6])
        k[6] = rhs(t + h, y5)
        rhs_evals += 6
        err_vec = np.einsum("j,jk->k", h * _E, kr).view(complex)
        err = _error_norm(err_vec, y, y5, config.rel_tol, config.abs_tol, norm_size)

        if err <= 1.0:
            t = t + h
            y = on_accept(t, y5)
            k[0] = k[6]  # first-same-as-last
            accepted += 1
            h_min, h_max = min(h_min, float(h)), max(h_max, float(h))
            if abs(t - grid[next_point]) <= 1e-12 * max(abs(t), span):
                if grid[next_point] not in stops:
                    stored.append(on_sample(t, y))
                next_point += 1
                if next_point >= len(grid):
                    break
            factor = _MAX_FACTOR if err == 0.0 else min(_MAX_FACTOR, _SAFETY * err ** -0.2)
            h = h * max(_MIN_FACTOR, factor)
        else:
            rejected += 1
            h = h * max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    stats = IntegratorStats(accepted, rejected, rhs_evals, h_min, h_max, y.size, norm_size)
    return Trajectory(times=ts.copy(), states=tuple(stored), stats=stats)


def _check_trace(t: float, trace: float, tol: float):
    """Raise when the trace (|psi|^2 for a pure state) has drifted from 1 by more than ``tol``."""
    drift = abs(trace - 1.0)
    if drift > tol:
        raise IntegrationDivergedError(t, drift, tol)


def evolve(model: LindbladModel, rho0: DensityMatrix, config: IntegratorConfig) -> Trajectory:
    """Integrate the master equation and sample at the configured times.

    Adaptive Dormand-Prince 5(4) on the support of the row-major vec(rho0).
    Steps never overshoot a sample time, accepted states are symmetrized, and
    sampled states are renormalized by their trace (drift beyond 1e-6 at a
    sample, or 1e-4 anywhere, aborts with an error carrying the time).
    """
    if rho0.space != model.space:
        raise InvalidDimensionError("initial state lives on a different space")
    d = model.space.total_dim
    y0 = rho0.matrix.reshape(-1)
    l0, parts = _superoperator_pieces(model)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    keep = _support((l0, *parts), y0 != 0, transpose)
    rhs = _linear_rhs(l0, parts, model.hamiltonian.coefficients, keep)
    mirror = np.searchsorted(keep, transpose[keep])  # position of rho_ji for rho_ij
    diagonal = keep % (d + 1) == 0

    def symmetrized(t, y, tol):
        y = 0.5 * (y + y[mirror].conj())
        _check_trace(t, y[diagonal].sum().real, tol)
        return y

    def on_accept(t, y):
        return symmetrized(t, y, TRACE_DIVERGENCE_TOL)

    def on_sample(t, y):
        y = symmetrized(t, y, TRACE_SAMPLE_TOL)
        m = np.zeros(d * d, dtype=complex)
        m[keep] = y / y[diagonal].sum().real
        return DensityMatrix(model.space, m.reshape(d, d), validate=False)

    return _integrate_dp45(rhs, y0[keep], config, on_accept, on_sample, d * d)


def evolve_pure(
    hamiltonian: Generator | np.ndarray | scipy.sparse.csr_matrix,
    psi0,
    space: HilbertSpace,
    config: IntegratorConfig,
) -> Trajectory:
    """Schroedinger evolution of a pure state under H(t), no dissipation.

    Equivalent to :func:`evolve` with an empty collapse set and a pure
    initial state, at vector instead of matrix cost; the generator's terms
    act on the support of psi0 in the Hilbert space and no superoperator is
    built.  Sampled states are returned as density matrices so downstream
    analytics are uniform.  The trace |psi|^2 is checked as :func:`evolve`
    checks Tr rho: against 1e-4 after every step and 1e-6 at every sample,
    the first included; accepted states are renormalized.
    """
    amps = psi0.amplitudes if isinstance(psi0, StateVector) else np.asarray(psi0, dtype=complex)
    d = space.total_dim
    if amps.shape != (d,):
        raise InvalidDimensionError("initial amplitudes do not match the space")
    gen = LindbladModel(space, hamiltonian).hamiltonian
    h0 = -1j * gen.h0
    parts = [-1j * op for a in gen.ops for op in (a, a.conj().T)]
    keep = _support((h0, *parts), amps != 0)
    rhs = _linear_rhs(h0, parts, gen.coefficients, keep)

    def normalized(t, y, tol):
        nrm = np.linalg.norm(y)
        _check_trace(t, nrm * nrm, tol)
        return y / nrm

    def on_accept(t, y):
        return normalized(t, y, TRACE_DIVERGENCE_TOL)

    def on_sample(t, y):
        v = np.zeros(d, dtype=complex)
        v[keep] = normalized(t, y, TRACE_SAMPLE_TOL)
        return DensityMatrix(space, np.outer(v, v.conj()), validate=False)

    return _integrate_dp45(rhs, amps[keep], config, on_accept, on_sample, d)


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


def thermal_collapse_terms(space: HilbertSpace, params) -> list:
    """Standard collapse set: cavity decay plus two thermal mechanical baths."""
    terms = [(destroy(space, 0), params.kappa)]
    for mode, (omega, gamma) in enumerate(
        ((params.omega1, params.gamma1), (params.omega2, params.gamma2)), start=1
    ):
        nbar = bose_occupancy(omega, params.temperature)
        b = destroy(space, mode)
        terms.append((b, gamma * (nbar + 1.0)))
        terms.append((b.conj().T, gamma * nbar))
    return terms
