"""Closed-form adiabaticity analytics, gap spectra and resonance checks.

Conventions: the peak Rabi rate is Omega_0 = 2 g alpha_0 (twice the peak
coupling), the instantaneous gap protecting the dark state is Omega(t)/2
with Omega = 2 sqrt(G11^2 + G22^2), and mixing-angle limits refer to the
fractional pulse pair terminating at angle theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import hbar as HBAR, k as K_B

from .errors import (
    DegenerateAngleError,
    DomainError,
    InvalidArgumentError,
    TruncationError,
)
from .hilbert import HilbertSpace, destroy
from .model import TWO_PI, DriveSchedule, SystemParams, envelope


@dataclass(frozen=True)
class AdiabaticityReport:
    """Pulse-timing window for adiabatic following at final angle theta.

    ``lower_bound``/``upper_bound`` constrain 2 tau / sigma; ``satisfied``
    evaluates the supplied (tau, sigma) against them.
    """

    theta_dot_max: float
    omega_at_zero: float
    t_theta_width: float
    t_omega_width: float
    lower_bound: float
    upper_bound: float
    satisfied: bool

    @property
    def tau_over_sigma_window(self) -> tuple[float, float]:
        return (self.lower_bound / 2.0, self.upper_bound / 2.0)


@dataclass(frozen=True)
class GapSpectrum:
    """Sorted eigenvalues of the resonant Hamiltonian on a capped sector."""

    eigenvalues: np.ndarray
    gap: float


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function, for x >= -1/e."""
    if x < -1.0 / math.e:
        raise DomainError(f"lambert_w0 undefined for x = {x} < -1/e")
    if x == -1.0 / math.e:
        return -1.0  # the float -1/e lies just outside scipy's domain
    from scipy.special import lambertw  # imported here: a plain run never needs it

    return float(lambertw(x).real)


def adiabaticity_bounds(
    theta: float,
    sigma: float,
    tau: float,
    omega0: float = 2.0 * TWO_PI * 2.5 * 2000.0,
    n_o: float = 5.0,
    exact_pulse_width: bool = False,
) -> AdiabaticityReport:
    """Timing window on 2 tau / sigma for adiabatic fractional transfer.

    The mixing-angle sweep rate peaks at the pulse crossing,
    theta_dot(0) = (2 tau / sigma^2) tan(theta/2), while the gap there is
    Omega(0)/2 = Omega_0 exp(-tau^2/sigma^2) cos(theta/2).  Requiring the
    sweep-rate pulse to fit inside the gap pulse bounds 2 tau / sigma from
    below; requiring the gap to dominate the sweep rate by the allowance
    factor n_o bounds it from above through the Lambert W function:

        sqrt(ln 2 + 2 arsinh cos(theta/2)) - sqrt(ln 2)
            <= 2 tau / sigma <=
        sqrt(2 W0(Omega_0 sigma cos^2(theta/2) / (n_o sin^2(theta/2)))).

    ``exact_pulse_width=True`` replaces the 2 tau + 2 sigma sqrt(ln 2)
    approximation of the gap pulse FWHM by a root-find (reported only; the
    bounds are unaffected).  ``omega0`` defaults to 2 g alpha_0 at g = 2.5 Hz
    and alpha_0 = 2000, in rad/s.
    """
    if theta <= 0.0 or theta > math.pi / 2:
        raise DegenerateAngleError(f"theta must lie in (0, pi/2], got {theta}")
    if sigma <= 0 or tau <= 0 or omega0 <= 0 or n_o <= 0:
        raise InvalidArgumentError("sigma, tau, omega0 and n_o must be > 0")
    half = theta / 2.0
    cos_h, sin_h = math.cos(half), math.sin(half)
    theta_dot_max = (2.0 * tau / sigma**2) * math.tan(half)
    omega_at_zero = 2.0 * omega0 * math.exp(-(tau**2) / sigma**2) * cos_h
    t_theta = (sigma**2 / tau) * math.asinh(cos_h)
    if exact_pulse_width:
        t_omega = _gap_pulse_fwhm(theta, sigma, tau, omega0)
    else:
        t_omega = 2.0 * tau + 2.0 * sigma * math.sqrt(math.log(2.0))
    ln2 = math.log(2.0)
    lower = math.sqrt(ln2 + 2.0 * math.asinh(cos_h)) - math.sqrt(ln2)
    upper = math.sqrt(2.0 * lambert_w0(omega0 * sigma * cos_h**2 / (n_o * sin_h**2)))
    x = 2.0 * tau / sigma
    return AdiabaticityReport(
        theta_dot_max=theta_dot_max,
        omega_at_zero=omega_at_zero,
        t_theta_width=t_theta,
        t_omega_width=t_omega,
        lower_bound=lower,
        upper_bound=upper,
        satisfied=lower <= x <= upper,
    )


def _gap_pulse_fwhm(theta: float, sigma: float, tau: float, omega0: float) -> float:
    """FWHM of Omega(t) for the fractional pulse pair, by root finding."""
    sched = DriveSchedule("fractional", 1.0, tau, sigma, sigma, theta=theta)

    def gap(t):
        # prefactors cancel in a width measurement
        return math.hypot(envelope(sched, 1, t), envelope(sched, 2, t))

    tgrid = np.linspace(-tau - 4 * sigma, tau + 4 * sigma, 2001)
    on_grid = np.hypot(envelope(sched, 1, tgrid), envelope(sched, 2, tgrid))
    peak_t = float(tgrid[np.argmax(on_grid)])
    half = gap(peak_t) / 2.0
    from scipy.optimize import brentq  # imported here: a plain run never needs it

    lo = brentq(lambda t: gap(t) - half, -tau - 8 * sigma, peak_t)
    hi = brentq(lambda t: gap(t) - half, peak_t, tau + 8 * sigma)
    return hi - lo


def dark_gap_spectrum(
    g11: float,
    g22: float,
    dims: tuple[int, int, int],
    excitation_cap: int,
    manifold_only: bool = False,
) -> GapSpectrum:
    """Spectrum of the resonant Hamiltonian on total excitation <= cap.

    On that sector every eigenvalue is a half-integer multiple of
    Omega = 2 sqrt(G11^2 + G22^2) and the smallest nonzero magnitude, the
    gap any nonadiabatic transition must cross, is Omega/2.
    ``manifold_only`` restricts to the states with excitation exactly equal
    to the cap (total excitation is conserved, so each manifold is closed).
    """
    if excitation_cap < 1:
        raise InvalidArgumentError("excitation_cap must be >= 1")
    if any(d < excitation_cap + 1 for d in dims):
        raise TruncationError(
            f"dims {dims} cannot hold all excitation-{excitation_cap} states"
        )
    space = HilbertSpace(tuple(dims))
    h = _resonant_hamiltonian(space, g11, g22)
    levels = [sum(space.multi_index(i)) for i in range(space.total_dim)]
    keep = [i for i, n in enumerate(levels)
            if n == excitation_cap or (n < excitation_cap and not manifold_only)]
    sub = h[np.ix_(keep, keep)]
    evals = np.sort(np.linalg.eigvalsh(sub))
    omega = 2.0 * math.hypot(g11, g22)
    nonzero = np.abs(evals)[np.abs(evals) > 1e-9 * max(omega, 1.0)]
    gap = float(nonzero.min()) if nonzero.size else 0.0
    return GapSpectrum(eigenvalues=evals, gap=gap)


def _resonant_hamiltonian(space, g11, g22) -> np.ndarray:
    a, b1, b2 = (destroy(space, m) for m in range(3))
    h = (g11 * (a.conj().T @ b1) + g22 * (a.conj().T @ b2)).toarray()
    return h + h.conj().T


def resonance_check(
    delta1: float,
    delta2: float,
    omega1: float,
    omega2: float,
    tolerance: float,
) -> str:
    """Flag the counter-rotating resonance |D1 - D2| = 2 w_j.

    At that condition a second-order walk through the two-mode-squeezing
    terms acquires a secular (linearly growing) amplitude, populating
    higher Fock states of the resonant mode; returns ``none``,
    ``resonant_on_mode_1`` or ``resonant_on_mode_2``.
    """
    if omega1 <= 0 or omega2 <= 0:
        raise InvalidArgumentError("frequencies must be > 0")
    gap = abs(delta1 - delta2)
    if abs(gap - 2.0 * omega1) <= tolerance:
        return "resonant_on_mode_1"
    if abs(gap - 2.0 * omega2) <= tolerance:
        return "resonant_on_mode_2"
    return "none"


def walk_growth_slope(
    alpha1: float, alpha2: float, g2: float, omega2: float
) -> complex:
    """Secular growth rate of the resonant two-hop walk amplitude.

    At D1 = 3 D2 = 3 w2 the walk |0,0,1> -> |1,0,2> -> |0,0,3> through the
    two-mode-squeezing terms grows linearly in time with coefficient

        i sqrt(3/8) (alpha1 - 2 alpha2) alpha2 g2^2 / w2,

    verified against direct quadrature of the nested double time integral.
    """
    if omega2 <= 0:
        raise InvalidArgumentError("omega2 must be > 0")
    return 1j * math.sqrt(3.0 / 8.0) * (alpha1 - 2.0 * alpha2) * alpha2 * g2**2 / omega2


def transfer_time_window(params: SystemParams, schedule: DriveSchedule):
    """Transfer-time bracket (lower, upper, tau_geometric, ratio).

    The cavity-loss constraint requires tau >> kappa / max(G_i^2); the
    thermalization constraint requires tau << hbar Q / (k_B T).  The
    geometric mean is the balanced transfer time and ``ratio`` is its
    fraction of the upper limit, sqrt(lower/upper); values much below one
    indicate a comfortably open window.  Zero temperature returns an
    infinite upper limit.
    """
    tgrid = np.linspace(
        schedule.t0 - schedule.tau - 8 * max(schedule.sigma1, schedule.sigma2),
        schedule.t0 + schedule.tau + 8 * max(schedule.sigma1, schedule.sigma2),
        4001,
    )
    g1 = params.g1 * np.max(np.abs(envelope(schedule, 1, tgrid)))
    g2 = params.g2 * np.max(np.abs(envelope(schedule, 2, tgrid)))
    gmax2 = max(g1, g2) ** 2
    if gmax2 == 0.0:
        raise InvalidArgumentError("schedule never turns the couplings on")
    lower = params.kappa / gmax2
    q = min(params.q1, params.q2)
    if params.temperature == 0.0:
        return lower, math.inf, math.inf, 0.0
    upper = HBAR * q / (K_B * params.temperature)
    tau_geometric = math.sqrt(lower * upper)
    return lower, upper, tau_geometric, tau_geometric / upper


def optomechanical_damping(g0: float, kappa: float) -> float:
    """Optical damping rate 4 G0^2 / kappa of a resonantly driven sideband."""
    if kappa <= 0:
        raise DomainError("kappa must be > 0")
    return 4.0 * g0**2 / kappa
