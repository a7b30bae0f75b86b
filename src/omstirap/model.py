"""Physical parameterization, drive envelopes and Hamiltonian construction.

One optical cavity mode couples to two mechanical modes through linearized,
pump-enhanced optomechanical interactions.  In the frame rotating with the
cavity and both mechanical modes the coupling of pump i to mode j is
``G_ij(t) = g_j * alpha_i(t)`` and the full Hamiltonian reads

    H(t) = sum_ij G_ij(t) (a^+ e^{i D_i t} + a e^{-i D_i t})
                          (b_j e^{-i w_j t} + b_j^+ e^{i w_j t}),

with pump detunings D_i and mechanical frequencies w_j.  Three pictures are
available:

``full``
    all eight product terms of the expression above;
``bs``
    the four beam-splitter terms ``a^+ b_j`` and h.c. with their exact
    detuning phases (two-mode-squeezing terms dropped); valid whenever the
    sideband sums ``D_i + w_j`` are fast against every other rate, which
    holds away from the ``|D_1 - D_2| = 2 w_j`` resonances;
``rwa``
    additionally drops the cross terms oscillating at ``D_i - w_j`` for
    i != j, leaving ``H = sum_i G_ii (a^+ b_i e^{i phi_i(t)} + h.c.)`` with
    ``phi_i(t) = (D_i - w_i) t`` plus any constant drive phase.

Angular frequencies are rad/s throughout; configuration entry points accept
ordinary frequencies (cycles/s) and convert once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse
from scipy.constants import hbar as HBAR, k as K_B

from .errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    SidebandResolutionWarning,
    UndefinedModeError,
)
from .hilbert import Generator, HilbertSpace, _local_product, destroy, ladder

TWO_PI = 2.0 * math.pi

#: Gaussian envelopes are treated as exactly zero beyond this many widths
#: from their center; the neglected amplitude is below e^-64.
ENVELOPE_CUTOFF_SIGMAS = 8.0

DRIVE_KINDS = ("stirap", "fractional", "reversed_fractional", "constant")
PICTURES = ("rwa", "bs", "full")


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of the cavity and the two mechanical modes.

    All frequencies and rates are angular (rad/s).  ``delta1``/``delta2``
    default to resonant driving (``delta_i = omega_i``).
    """

    omega1: float
    omega2: float
    kappa: float
    g1: float
    g2: float
    temperature: float = 0.0
    q1: float = 1e9
    q2: float = 1e9
    delta1: float | None = None
    delta2: float | None = None

    def __post_init__(self):
        if self.delta1 is None:
            object.__setattr__(self, "delta1", self.omega1)
        if self.delta2 is None:
            object.__setattr__(self, "delta2", self.omega2)
        for name in ("omega1", "omega2", "kappa", "g1", "g2", "q1", "q2"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidArgumentError(f"{name} must be finite and > 0")
        if not 0 <= self.temperature < math.inf:
            raise InvalidArgumentError("temperature must be finite and >= 0")
        for name in ("delta1", "delta2"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")
        if self.kappa >= min(self.omega1, self.omega2):
            warnings.warn(
                "cavity linewidth is not resolved-sideband against the "
                f"mechanical frequencies (kappa={self.kappa:.3g} rad/s)",
                SidebandResolutionWarning,
                stacklevel=2,
            )

    @property
    def gamma1(self) -> float:
        """Mechanical linewidth of mode 1, omega1/q1."""
        return self.omega1 / self.q1

    @property
    def gamma2(self) -> float:
        """Mechanical linewidth of mode 2, omega2/q2."""
        return self.omega2 / self.q2

    @classmethod
    def from_ordinary(
        cls,
        omega1_hz: float = 1.2e6,
        omega2_hz: float = 1.8e6,
        kappa_hz: float = 2e3,
        g1_hz: float = 2.5,
        g2_hz: float = 2.5,
        q1: float = 1e9,
        q2: float = 1e9,
        temperature_k: float = 0.01,
        delta1_hz: float | None = None,
        delta2_hz: float | None = None,
    ) -> "SystemParams":
        """Build from ordinary frequencies (values quoted as f = omega/2pi)."""
        return cls(
            omega1=TWO_PI * omega1_hz,
            omega2=TWO_PI * omega2_hz,
            kappa=TWO_PI * kappa_hz,
            g1=TWO_PI * g1_hz,
            g2=TWO_PI * g2_hz,
            temperature=temperature_k,
            q1=q1,
            q2=q2,
            delta1=None if delta1_hz is None else TWO_PI * delta1_hz,
            delta2=None if delta2_hz is None else TWO_PI * delta2_hz,
        )


@dataclass(frozen=True)
class DriveSchedule:
    """Time-dependent pump envelope pair.

    ``alpha0`` is the dimensionless peak intracavity amplitude; for a peak
    coupling rate Omega_0 it equals Omega_0 / (2 g_i).  ``tau`` is the pulse
    separation, ``sigma1``/``sigma2`` the per-pump Gaussian widths, ``theta``
    the final mixing angle used by the fractional kinds, and ``phase1``/
    ``phase2`` constant drive phases multiplied onto the two coupling terms.
    ``t0`` shifts the whole sequence in time, which lets pulse trains be
    expressed as sums of schedules.
    """

    kind: str
    alpha0: float
    tau: float
    sigma1: float
    sigma2: float
    theta: float = math.pi / 2
    phase1: float = 0.0
    phase2: float = 0.0
    t0: float = 0.0

    def __post_init__(self):
        if self.kind not in DRIVE_KINDS:
            raise InvalidArgumentError(f"unknown drive kind {self.kind!r}")
        if not (0 < self.sigma1 < math.inf and 0 < self.sigma2 < math.inf):
            raise InvalidArgumentError("pulse widths must be finite and > 0")
        if not 0 <= self.alpha0 < math.inf:
            raise InvalidArgumentError("alpha0 must be finite and >= 0")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise InvalidArgumentError("theta must lie in [0, pi/2]")
        for name in ("tau", "phase1", "phase2", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(f"{name} must be finite")


def _pulses(t, amplitude, centre, width, out=None, cut=None) -> np.ndarray:
    """Gaussians amplitude exp(-((t - centre)/width)^2), elementwise, cut to zero
    beyond ``ENVELOPE_CUTOFF_SIGMAS`` widths: the one pulse rule of the package.
    Written into ``out``, with the boolean buffer ``cut`` of its shape, when given;
    |u| > cutoff is tested as u^2 > cutoff^2, which holds for the same u."""
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, (t, amplitude, centre, width)))
        out, cut = np.empty(shape), np.empty(shape, dtype=bool)
    u = np.subtract(t, centre, out=out)
    u /= width
    np.multiply(u, u, out=out)  # then exp(-u^2) times the amplitude
    np.greater(out, ENVELOPE_CUTOFF_SIGMAS ** 2, out=cut)
    np.exp(np.negative(out, out=out), out=out)
    out *= amplitude
    np.putmask(out, cut, 0.0)
    return out


def _components(schedule: DriveSchedule, pump_index: int):
    """(amplitude, center, sigma) Gaussian components of one pump envelope; a
    constant pump is one component of infinite width, and ``reversed_fractional``
    is ``fractional`` mirrored about t0, its early and late centres swapped."""
    s = schedule
    if s.kind == "constant":
        return [(s.alpha0, 0.0, math.inf)]
    early, late = s.t0 - s.tau, s.t0 + s.tau
    if s.kind == "reversed_fractional":
        early, late = late, early
    if pump_index == 1:
        peak = s.alpha0 if s.kind == "stirap" else s.alpha0 * math.sin(s.theta)
        return [(peak, late, s.sigma1)]
    if s.kind == "stirap":
        return [(s.alpha0, early, s.sigma2)]
    return [(s.alpha0, early, s.sigma2), (s.alpha0 * math.cos(s.theta), late, s.sigma2)]


def envelope(schedule: DriveSchedule, pump_index: int, t):
    """Real pump amplitude alpha_i(t); accepts scalars or arrays.

    STIRAP orders the pulses counterintuitively: pump 2 (the mode-2 coupling,
    centered at t0 - tau) precedes pump 1 (centered at t0 + tau).  The
    fractional kinds terminate with a frozen amplitude ratio
    tan(theta) = alpha1/alpha2, and ``reversed_fractional`` is the mirror
    image in time.
    """
    if pump_index not in (1, 2):
        raise InvalidArgumentError("pump_index must be 1 or 2")
    t = np.asarray(t, dtype=float)
    return sum(_pulses(t, *c) for c in _components(schedule, pump_index))


def total_envelope(schedules, pump_index: int, t):
    """Summed envelope of a schedule or a sequence of schedules."""
    return sum(envelope(s, pump_index, t) for s in _as_schedule_list(schedules))


def pulse_centres(schedules) -> list[float]:
    """Sorted centre times of every Gaussian pulse of a schedule or sequence of schedules."""
    return sorted({c for s in _as_schedule_list(schedules) for i in (1, 2)
                   for _, c, width in _components(s, i) if width < math.inf})


def _as_schedule_list(schedules) -> list[DriveSchedule]:
    if isinstance(schedules, DriveSchedule):
        return [schedules]
    out = list(schedules)
    if not out:
        raise InvalidArgumentError("need at least one schedule")
    return out


#: each term of a picture: the mechanical mode j of its operator a^+ b_j, whether
#: b_j is raised (a^+ b_j^+), and the pumps it sums, as indices into (pump 1, pump 2)
_TERMS = {"rwa": [(0, False, (0,)), (1, False, (1,))],
          "bs": [(0, False, (0, 1)), (1, False, (0, 1))],
          "full": [(j, raised, (0, 1)) for raised in (False, True) for j in (0, 1)]}


def _run(calls):
    """Make the ``calls``, (function, arguments) pairs, in order."""
    for f, args in calls:
        f(*args)


class DriveCoefficients:
    """The coefficients c_k(t) of :func:`hamiltonian_generator`'s terms for one
    or more columns, one per ``(params, schedule)`` pair of ``drives``.

    A term of the picture's :data:`_TERMS` sums, over its pumps i,
    g_j z_i(t) e^{i r t}: z_i is pump i's summed Gaussian components times
    their drive phases, and the coupling g_j and phase rate r (D_i - w_j, or
    D_i + w_j when b_j is raised) come from the column's ``params``.  Each
    parameter is an array whose last two axes are (time, column); a column
    with fewer schedules or components than another is padded with
    zero-amplitude ones, which add exact zeros.

    :meth:`weigh` is the one evaluator: it binds a buffer of times to the
    ufunc calls that write the weights of the generator's pieces into a
    buffer of its own.  ``rule(t)`` reads it with new buffers: it takes an
    (N, columns) array of times, one column each, and returns the
    (n_terms, N, columns) coefficients, the contract of every coefficient
    rule of a :class:`~omstirap.hilbert.Generator`.

    ``real`` is set when every phase rate is 0 and every drive phase is real,
    so that every c_k(t) of every column is real: the rule then returns real
    arrays, whose values are bitwise those of the complex path.
    """

    __slots__ = ("select", "amplitude", "centre", "width", "phase", "coupling", "rate", "real")

    def __init__(self, picture: str, drives):
        if picture not in PICTURES:
            raise InvalidArgumentError(f"unknown picture {picture!r}")
        terms = _TERMS[picture]
        pumps = [pumps for _, _, pumps in terms]
        # each term's pumps as a view of the (2, N, columns) pump amplitudes: an rwa
        # term j reads pump j alone, the terms of the other pictures both pumps
        self.select = (slice(None), None) if pumps == [(0,), (1,)] else (None,)
        drives = [(p, _as_schedule_list(s)) for p, s in drives]
        n_sched = max(len(s) for _, s in drives)
        shape = (n_sched, 2, 2, 1, len(drives))  # schedule, pump, component, time, column
        self.amplitude, self.centre, self.width = np.zeros(shape), np.zeros(shape), np.ones(shape)
        self.phase = np.ones((n_sched, 2, 1, len(drives)), dtype=complex)
        self.coupling = np.empty((len(terms), len(pumps[0]), 1, len(drives)))
        self.rate = np.empty_like(self.coupling, dtype=complex)  # i times the phase rate
        for col, (p, schedules) in enumerate(drives):
            for k, s in enumerate(schedules):
                for i, phase in enumerate((s.phase1, s.phase2)):
                    self.phase[k, i, 0, col] = complex(math.cos(phase), math.sin(phase))
                    for c, (amp, centre, width) in enumerate(_components(s, i + 1)):
                        self.amplitude[k, i, c, 0, col] = amp
                        self.centre[k, i, c, 0, col] = centre
                        self.width[k, i, c, 0, col] = width
            g, deltas, omegas = (p.g1, p.g2), (p.delta1, p.delta2), (p.omega1, p.omega2)
            for term, (j, raised, term_pumps) in enumerate(terms):
                w = omegas[j] if raised else -omegas[j]  # a^+ b_j rotates at D_i - w_j
                for k, i in enumerate(term_pumps):
                    self.coupling[term, k, 0, col] = g[j]
                    self.rate[term, k, 0, col] = 1j * (deltas[i] + w)
        self.real = not (self.rate.any() or self.phase.imag.any())

    @property
    def columns(self) -> int:
        return self.coupling.shape[-1]

    def take(self, cols) -> "DriveCoefficients":
        """The rule of the columns ``cols``."""
        rule = object.__new__(DriveCoefficients)
        rule.select = self.select
        for name in self.__slots__[1:-1]:
            setattr(rule, name, getattr(self, name)[..., cols])
        rule.real = not (rule.rate.any() or rule.phase.imag.any())
        return rule

    def _amplitude_calls(self, t: np.ndarray, phased: bool) -> tuple:
        """(z, calls): the calls write each pump's summed envelope at the
        (N, columns) times ``t`` into z, shape (2, N, columns), times its drive
        phases if ``phased``.  No pulse is -0, so a pump's two components add
        bitwise as the first plus the second."""
        shape = self.amplitude.shape[:3] + np.broadcast_shapes(t.shape, self.amplitude.shape[3:])
        pulses, cut = np.empty(shape), np.empty(shape, dtype=bool)
        env = pulses[:, :, 0]  # (schedules, 2, N, columns)
        calls = [(_pulses, (t, self.amplitude, self.centre, self.width, pulses, cut)),
                 (np.add, (env, pulses[:, :, 1], env))]
        if phased:
            env = np.empty(env.shape, dtype=complex)
            calls.append((np.multiply, (pulses[:, :, 0], self.phase, env)))
        calls += [(np.add, (env[0], e, env[0])) for e in env[1:]]  # over the schedules
        return env[0], calls

    def amplitudes(self, t) -> np.ndarray:
        """(z_1, z_2), each pump's summed envelope times its drive phases, at the
        (N, columns) times ``t``: shape (2, N, columns)."""
        z, calls = self._amplitude_calls(np.asarray(t, dtype=float), phased=True)
        _run(calls)
        return z

    def weigh(self, t: np.ndarray, imaginary: bool) -> tuple:
        """(w, calls) for the buffer ``t`` of (N, columns) times: the calls,
        (function, arguments) pairs, write the coefficients at the times ``t``
        holds when they are made into the new (pieces, N, columns) array ``w``
        as the weights of the generator's pieces, (1, Re c_1, Im c_1, Re c_2,
        ...), or (1, c_1, c_2, ...) unless ``imaginary``.  Row 0 and the zero
        imaginary parts of a real rule are written here, once.  A real rule
        writes each c_k straight into its row of ``w``; a complex one forms
        c_k as the complex product, with the operands in the same order, and
        copies its parts."""
        z, calls = self._amplitude_calls(t, phased=not self.real)
        step = 1 + imaginary
        w = np.zeros((1 + step * len(self.coupling),) + z.shape[1:])
        w[0] = 1.0
        c = w[1::step] if self.real else np.empty(w[1::step].shape, dtype=complex)
        # coupling times amplitude, for each (term, pump), then e^{i r t}, then the pump sum
        one_pump = self.coupling.shape[1] == 1
        terms = c[:, None] if one_pump else np.empty(self.coupling.shape[:2] + c.shape[1:], c.dtype)
        calls.append((np.multiply, (self.coupling, z[self.select], terms)))
        if not self.real:
            turn = np.empty(terms.shape, dtype=complex)
            calls += [(np.multiply, (self.rate, t, turn)), (np.exp, (turn, turn)),
                      (np.multiply, (terms, turn, terms))]
        if not one_pump:
            calls.append((np.add, (terms[:, 0], terms[:, 1], c)))
        if not self.real:
            calls.append((np.copyto, (w[1::step], c.real)))
            if imaginary:
                calls.append((np.copyto, (w[2::2], c.imag)))
        return w, calls

    def __call__(self, t: np.ndarray) -> np.ndarray:
        w, calls = self.weigh(np.asarray(t, dtype=float), imaginary=not self.real)
        _run(calls)
        if self.real:  # unit phases and e^{0 t} = 1 leave the real parts unchanged
            return w[1:]
        c = np.empty(w[1::2].shape, dtype=complex)
        c.real, c.imag = w[1::2], w[2::2]
        return c


def mixing_angle(schedule: DriveSchedule, params: SystemParams, t: float) -> float:
    """Instantaneous mixing angle, tan(theta) = G_11 / G_22.

    Outside the pulse support both couplings underflow to zero; the value
    then clamps to the limit approached from the nearest populated side (0
    before a STIRAP sequence, the terminal angle after it).  The angle is
    only physically meaningful inside the pulse support.
    """
    g11 = params.g1 * abs(envelope(schedule, 1, t))
    g22 = params.g2 * abs(envelope(schedule, 2, t))
    if g11 == 0.0 and g22 == 0.0:
        early, late = _angle_limits(schedule)
        return early if t <= schedule.t0 else late
    return math.atan2(g11, g22)


def _angle_limits(schedule: DriveSchedule) -> tuple[float, float]:
    if schedule.kind == "stirap":
        return 0.0, math.pi / 2
    if schedule.kind == "fractional":
        return 0.0, schedule.theta
    if schedule.kind == "reversed_fractional":
        return schedule.theta, 0.0
    return math.pi / 4, math.pi / 4


def hamiltonian_generator(
    params: SystemParams,
    schedule: DriveSchedule | Sequence[DriveSchedule],
    space: HilbertSpace,
    picture: str = "rwa",
) -> Generator:
    """H(t) on a 3-mode ``space`` as sparse operators A_k with coefficients c_k(t)
    from a one-column :class:`DriveCoefficients`, both read from the picture's
    :data:`_TERMS`.

    ``rwa`` and ``bs`` have the two terms a^+ b_j; ``bs`` sums both pumps'
    detuning phases into each c_j.  ``full`` adds the two terms a^+ b_j^+.
    """
    if space.n_modes != 3:
        raise InvalidDimensionError("Hamiltonian needs a 3-mode space")
    rule = DriveCoefficients(picture, [(params, schedule)])
    # the ladders are real, so each entry of a^+ b_j or a^+ b_j^+ is one real product
    adag, b = ladder(space.dims[0]).real.T, [ladder(d).real for d in space.dims[1:]]
    ops = [_local_product(space, {0: adag, 1 + j: b[j].T if raised else b[j]})
           for j, raised, _ in _TERMS[picture]]
    return Generator(space, None, ops, rule)


def collective_operators(
    space: HilbertSpace,
    params: SystemParams,
    schedule: DriveSchedule | Sequence[DriveSchedule] | None,
    t: float = 0.0,
    convention: str = "static",
) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Collective mechanical annihilation operators (b_minus, b_plus), as CSR,
    on the (cavity, mech1, mech2) ``space`` or on the (mech1, mech2) pair: the
    mechanical modes are its last two.

    ``static`` uses the drive-independent combinations

        b_plus  = (g1 b1 + g2 b2) / sqrt(g1^2 + g2^2)
        b_minus = (g2 b1 - g1 b2) / sqrt(g1^2 + g2^2),

    the pair that diagonalizes the cavity coupling at frequency degeneracy.
    ``rwa_phased`` instead weights by the instantaneous couplings,

        b_minus = (G22 b1 e^{i phi1} - G11 b2 e^{i phi2}) / sqrt(G11^2+G22^2),

    whose vacuum excitations are the dark states of the rotating-frame
    Hamiltonian.  Both satisfy [b, b^+] = 1 below the truncation edge.
    """
    if space.n_modes not in (2, 3):
        raise InvalidDimensionError("collective operators need a 2- or 3-mode space")
    b1, b2 = destroy(space, space.n_modes - 2), destroy(space, space.n_modes - 1)
    if convention == "static":
        g1, g2 = params.g1, params.g2
        norm = math.hypot(g1, g2)
        if norm == 0.0:
            raise UndefinedModeError("g1 = g2 = 0 leaves the collective modes undefined")
        bp = (g1 * b1 + g2 * b2) / norm
        bm = (g2 * b1 - g1 * b2) / norm
        return bm, bp
    if convention != "rwa_phased":
        raise InvalidArgumentError(f"unknown convention {convention!r}")
    if schedule is None:
        raise InvalidArgumentError("rwa_phased convention needs a schedule")
    z1, z2 = DriveCoefficients("rwa", [(params, schedule)]).amplitudes(np.full((1, 1), t))[:, 0, 0]
    g11 = params.g1 * abs(z1)
    g22 = params.g2 * abs(z2)
    norm = math.hypot(g11, g22)
    if norm == 0.0:
        raise UndefinedModeError("both couplings vanish at this time")
    ph1 = np.exp(1j * ((params.delta1 - params.omega1) * t + np.angle(z1)))
    ph2 = np.exp(1j * ((params.delta2 - params.omega2) * t + np.angle(z2)))
    bm = (g22 * b1 * ph1 - g11 * b2 * ph2) / norm
    bp = (g11 * b1 * ph1 + g22 * b2 * ph2) / norm
    return bm, bp


def dark_state(
    space: HilbertSpace,
    n: int,
    theta: float,
    phase1: float = 0.0,
    phase2: float = 0.0,
) -> np.ndarray:
    """Amplitudes of the n-excitation dark state (b_minus^+)^n |0> / sqrt(n!).

    The state carries excitation only in the mechanical modes, with binomial
    weights set by the mixing angle; it is annihilated by the rotating-frame
    Hamiltonian and holds no cavity population.
    """
    if n < 0:
        raise InvalidArgumentError("n must be >= 0")
    if any(d <= n for d in space.dims[1:]) and n > 0:
        raise InvalidDimensionError(
            f"dark state with n={n} does not fit mechanical dims {space.dims[1:]}"
        )
    amps = np.zeros(space.total_dim, dtype=complex)
    c = math.cos(theta) * np.exp(1j * phase1)
    s = -math.sin(theta) * np.exp(1j * phase2)
    for k in range(n + 1):
        w = math.sqrt(math.comb(n, k)) * c**k * s ** (n - k)
        amps[space.index((0, k, n - k))] = w
    if n == 0:
        amps[space.index((0, 0, 0))] = 1.0
    return amps


def chain_hamiltonian(
    n: int, g11: float, g22: float, phi1: float = 0.0, phi2: float = 0.0
) -> np.ndarray:
    """Tridiagonal Hamiltonian of the (2n+1)-state transfer chain.

    The n-phonon transfer maps onto a chain through the states
    |0,n,0>, |1,n-1,0>, |0,n-1,1>, ..., |0,0,n> with Rabi couplings

        Omega_{2k-1} = 2 sqrt(n-k+1) G11,   Omega_{2k} = 2 sqrt(k) G22,

    alternating phases phi1/phi2, and entries H[i, i+1] = (Omega/2) e^{-i phi}.
    With zero phases this equals the rotating-frame Hamiltonian restricted to
    that basis; constant drive phases (psi1, psi2) on the two coupling terms
    correspond to chain phases (psi1, -psi2).
    """
    if n < 1:
        raise InvalidArgumentError(f"chain needs n >= 1, got {n}")
    dim = 2 * n + 1
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n + 1):
        w_odd = 2.0 * math.sqrt(n - k + 1) * g11
        i = 2 * k - 2
        h[i, i + 1] = 0.5 * w_odd * np.exp(-1j * phi1)
        w_even = 2.0 * math.sqrt(k) * g22
        i = 2 * k - 1
        h[i, i + 1] = 0.5 * w_even * np.exp(-1j * phi2)
    return h + h.conj().T


def chain_basis(n: int) -> list[tuple[int, int, int]]:
    """Occupation labels (n_c, n_1, n_2) of the chain states, in chain order."""
    states = [(0, n, 0)]
    for k in range(1, n + 1):
        states.append((1, n - k, k - 1))
        states.append((0, n - k, k))
    return states


def bose_occupancy(omega: float, temperature: float) -> float:
    """Mean thermal occupancy 1 / (exp(hbar w / k_B T) - 1), SI constants."""
    if omega <= 0:
        raise InvalidArgumentError("omega must be > 0")
    if temperature < 0:
        raise InvalidArgumentError("temperature must be >= 0")
    if temperature == 0.0:
        return 0.0
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
