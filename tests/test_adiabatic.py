import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import lambertw as scipy_lambertw

from omstirap.adiabatic import (
    adiabaticity_bounds,
    dark_gap_spectrum,
    lambert_w0,
    optomechanical_damping,
    resonance_check,
    transfer_time_window,
    walk_growth_slope,
)
from omstirap.errors import DegenerateAngleError, DomainError, TruncationError
from omstirap.hilbert import HilbertSpace
from omstirap.model import DriveSchedule, SystemParams

TWO_PI = 2 * math.pi
OMEGA0 = 2 * (TWO_PI * 2.5) * 2000.0  # peak Rabi rate at the benchmark drive
SIGMA = 0.6e-3


# ---------------------------------------------------------------- lambert w

def test_lambert_reference_points():
    assert lambert_w0(0.0) == 0.0
    assert np.isclose(lambert_w0(math.e), 1.0, atol=1e-14)
    assert np.isclose(lambert_w0(10.0), 1.745528002740699, atol=1e-12)
    assert lambert_w0(-1 / math.e) == -1.0  # the branch point closes the domain


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)


@given(st.floats(min_value=-14.0, max_value=14.0))
@settings(max_examples=60)
def test_lambert_roundtrip(logx):
    x = math.exp(logx)
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


def test_lambert_near_branch_point():
    x = -1 / math.e + 1e-6
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) < 1e-12
    assert np.isclose(w, scipy_lambertw(x).real, atol=1e-7)


# --------------------------------------------------------- timing window

def test_bounds_reference_windows():
    r = adiabaticity_bounds(math.pi / 2, SIGMA, SIGMA / 1.43, OMEGA0, 5.0)
    lo, hi = r.tau_over_sigma_window
    assert round(lo, 2) == 0.29
    assert round(hi, 2) == 0.89
    r2 = adiabaticity_bounds(math.pi / 4, SIGMA, SIGMA / 1.25, OMEGA0, 5.0)
    lo2, hi2 = r2.tau_over_sigma_window
    assert round(lo2, 2) == 0.35
    assert round(hi2, 2) == 1.18
    # the benchmark delay tau = sigma/1.43 sits inside the pi/2 window
    assert lo <= 1 / 1.43 <= hi
    assert r.satisfied


def test_bounds_components():
    tau = SIGMA / 1.43
    r = adiabaticity_bounds(math.pi / 2, SIGMA, tau, OMEGA0, 5.0)
    assert np.isclose(r.theta_dot_max, (2 * tau / SIGMA**2) * math.tan(math.pi / 4))
    assert np.isclose(
        r.omega_at_zero, 2 * OMEGA0 * math.exp(-(tau / SIGMA) ** 2) * math.cos(math.pi / 4)
    )
    assert np.isclose(r.t_theta_width, SIGMA**2 / tau * math.asinh(math.cos(math.pi / 4)))
    assert np.isclose(r.t_omega_width, 2 * tau + 2 * SIGMA * math.sqrt(math.log(2)))
    # the exact FWHM differs from the approximation by under one percent here
    exact = adiabaticity_bounds(
        math.pi / 2, SIGMA, tau, OMEGA0, 5.0, exact_pulse_width=True
    )
    assert abs(exact.t_omega_width - r.t_omega_width) / r.t_omega_width < 0.01


@pytest.mark.parametrize("theta, sigma, ratio, width", [
    # the widths the search gave when it read its grid one point at a time
    (math.pi / 2, 0.6e-3, 1.43, 0.001830488399706618),
    (math.pi / 4, 0.15e-3, 1.25, 0.00047846026648107017),
    (0.3, 1e-3, 0.7, 0.0045219272249123355),
])
def test_exact_pulse_width_reads_its_grid_in_one_call(theta, sigma, ratio, width):
    r = adiabaticity_bounds(theta, sigma, sigma / ratio, OMEGA0, exact_pulse_width=True)
    assert r.t_omega_width == width


def test_omega0_defaults_to_the_benchmark_drive():
    # Omega_0 = 2 g alpha_0 at g = 2.5 Hz and alpha_0 = 2000
    assert adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43) == adiabaticity_bounds(
        0.9, SIGMA, SIGMA / 1.43, 2.0 * TWO_PI * 2.5 * 2000.0)


def test_lower_bound_independent_of_drive_and_allowance():
    r1 = adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43, OMEGA0, 5.0)
    r2 = adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43, 7.0 * OMEGA0, 2.0)
    assert r1.lower_bound == r2.lower_bound


def test_upper_bound_monotonicity():
    base = adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43, OMEGA0, 5.0).upper_bound
    stronger = adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43, 3 * OMEGA0, 5.0).upper_bound
    stricter = adiabaticity_bounds(0.9, SIGMA, SIGMA / 1.43, OMEGA0, 9.0).upper_bound
    assert stronger > base
    assert stricter < base


def test_degenerate_angle_rejected():
    with pytest.raises(DegenerateAngleError):
        adiabaticity_bounds(0.0, SIGMA, SIGMA / 1.43, OMEGA0, 5.0)


# ------------------------------------------------------------ gap spectrum

def test_gap_spectrum_single_excitation():
    g11, g22 = TWO_PI * 3.3e3, TWO_PI * 4.1e3
    omega = 2 * math.hypot(g11, g22)
    spec = dark_gap_spectrum(g11, g22, (3, 3, 3), 1, manifold_only=True)
    np.testing.assert_allclose(
        np.sort(spec.eigenvalues), [-omega / 2, 0.0, omega / 2], rtol=1e-9, atol=1e-9 * omega
    )
    assert abs(spec.gap - omega / 2) <= 1e-9 * omega


def test_gap_spectrum_two_excitations():
    g = TWO_PI * 5e3
    omega = 2 * math.hypot(g, g)
    assert np.isclose(omega, 2 * math.sqrt(2) * g)
    spec = dark_gap_spectrum(g, g, (3, 3, 3), 2)
    scaled = np.sort(spec.eigenvalues) / omega
    # contains +-1, +-1/2 and zeros; the gap stays Omega/2
    for target in (-1.0, -0.5, 0.0, 0.5, 1.0):
        assert np.min(np.abs(scaled - target)) < 1e-9
    assert abs(spec.gap - omega / 2) <= 1e-9 * omega
    # symmetric about zero
    np.testing.assert_allclose(
        np.sort(spec.eigenvalues), -np.sort(-spec.eigenvalues)[::-1], atol=1e-9 * omega
    )


def test_gap_spectrum_dark_eigenvector():
    g11, g22 = TWO_PI * 3.5e3, TWO_PI * 3.2e3
    sp = HilbertSpace((3, 3, 3))
    from omstirap.adiabatic import _resonant_hamiltonian

    h = _resonant_hamiltonian(sp, g11, g22)
    keep = [i for i in range(sp.total_dim) if sum(sp.multi_index(i)) == 1]
    evals, evecs = np.linalg.eigh(h[np.ix_(keep, keep)])
    dark = evecs[:, np.argmin(np.abs(evals))]
    labels = [sp.multi_index(i) for i in keep]
    theta = math.atan2(g11, g22)
    ideal = np.zeros(len(keep), dtype=complex)
    ideal[labels.index((0, 1, 0))] = math.cos(theta)
    ideal[labels.index((0, 0, 1))] = -math.sin(theta)
    assert abs(np.vdot(ideal, dark)) ** 2 >= 1.0 - 1e-9


def test_gap_spectrum_truncation_guard():
    with pytest.raises(TruncationError):
        dark_gap_spectrum(1.0, 1.0, (2, 3, 3), 2)


# ------------------------------------------------------- resonance + walk

def test_resonance_examples():
    w1, w2 = TWO_PI * 1.2e6, TWO_PI * 1.8e6
    tol = 1.0
    assert resonance_check(3 * w2, w2, w1, w2, tol) == "resonant_on_mode_2"
    # resonant driving with omega1 = 3 omega2
    assert resonance_check(3 * w2, w2, 3 * w2, w2, tol) == "resonant_on_mode_2"
    assert resonance_check(w1, w2, w1, w2, tol) == "none"


def test_resonance_symmetric_under_detuning_swap():
    w1, w2 = TWO_PI * 1.2e6, TWO_PI * 1.8e6
    for d1, d2 in ((3 * w2, w2), (w1 + 2 * w1, w1)):
        assert resonance_check(d1, d2, w1, w2, 1.0) == resonance_check(d2, d1, w1, w2, 1.0)


def test_walk_slope_trivial_zeros():
    g2, w2 = TWO_PI * 2.5, TWO_PI * 1.8e6
    assert walk_growth_slope(2000.0, 1000.0, g2, w2) == 0.0
    assert walk_growth_slope(1234.0, 0.0, g2, w2) == 0.0


def test_walk_slope_against_quadrature():
    g2, w2 = TWO_PI * 2.5, TWO_PI * 1.8e6
    a1, a2 = 3000.0, 1000.0
    # quadrature oracle: nested double time integral of the two-hop walk
    t = np.linspace(0.0, 60 * TWO_PI / w2, 400001)
    ap = g2 * (a1 * np.exp(1j * 3 * w2 * t) + a2 * np.exp(1j * w2 * t)) * np.exp(1j * w2 * t)
    am = g2 * (a1 * np.exp(-1j * 3 * w2 * t) + a2 * np.exp(-1j * w2 * t)) * np.exp(1j * w2 * t)
    dt = t[1] - t[0]
    inner = np.concatenate(([0], np.cumsum((ap[1:] + ap[:-1]) / 2 * dt)))
    integrand = math.sqrt(6) * am * inner
    k = -np.concatenate(([0], np.cumsum((integrand[1:] + integrand[:-1]) / 2 * dt)))
    idx = np.round(np.arange(1, 59) * (TWO_PI / w2) / dt).astype(int)
    design = np.vstack([t[idx], np.ones_like(idx)]).T
    slope_im = np.linalg.lstsq(design, k[idx].imag, rcond=None)[0][0]
    slope_re = np.linalg.lstsq(design, k[idx].real, rcond=None)[0][0]
    predicted = walk_growth_slope(a1, a2, g2, w2)
    assert abs(slope_re) < 1e-3 * abs(predicted.imag)
    assert np.isclose(slope_im, predicted.imag, rtol=1e-3)


# -------------------------------------------------------- transfer window

def test_transfer_window_reference_ratios():
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    p10 = SystemParams.from_ordinary(temperature_k=0.01)
    lower, upper, tau_g, ratio = transfer_time_window(p10, s)
    assert np.isclose(ratio, 0.004, atol=0.0005)
    assert np.isclose(tau_g, math.sqrt(lower * upper), rtol=1e-12)
    p1k = SystemParams.from_ordinary(temperature_k=1.0)
    assert np.isclose(transfer_time_window(p1k, s)[3], 0.04, atol=0.005)


def test_transfer_window_zero_temperature_sentinel():
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    p = SystemParams.from_ordinary(temperature_k=0.0)
    lower, upper, tau_g, ratio = transfer_time_window(p, s)
    assert math.isinf(upper)
    assert ratio == 0.0
    assert lower > 0


def test_optomechanical_damping():
    assert optomechanical_damping(0.0, TWO_PI * 2e3) == 0.0
    g0 = TWO_PI * 2.5 * 2000.0
    val = optomechanical_damping(g0, TWO_PI * 2e3)
    assert np.isclose(val / TWO_PI, 5e4, rtol=1e-12)
    assert np.isclose(optomechanical_damping(2 * g0, TWO_PI * 2e3), 4 * val, rtol=1e-12)
    with pytest.raises(DomainError):
        optomechanical_damping(1.0, 0.0)
