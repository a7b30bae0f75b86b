import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omstirap.errors import (
    InvalidArgumentError,
    InvalidDimensionError,
    SidebandResolutionWarning,
    UndefinedModeError,
)
from omstirap.hilbert import HilbertSpace, number_operator
from omstirap.model import (
    DRIVE_KINDS,
    ENVELOPE_CUTOFF_SIGMAS,
    DriveCoefficients,
    DriveSchedule,
    SystemParams,
    bose_occupancy,
    chain_basis,
    chain_hamiltonian,
    collective_operators,
    dark_state,
    envelope,
    hamiltonian_generator,
    mixing_angle,
    pulse_centres,
)

TWO_PI = 2 * math.pi


@pytest.fixture
def table_params():
    return SystemParams.from_ordinary(temperature_k=0.01)


@pytest.fixture
def stirap(table_params):
    sigma = 0.6e-3
    return DriveSchedule("stirap", 2000.0, sigma / 1.43, sigma, sigma)


def test_params_conversion_and_defaults(table_params):
    p = table_params
    assert np.isclose(p.omega1, TWO_PI * 1.2e6)
    assert np.isclose(p.gamma1, p.omega1 / 1e9)
    assert p.delta1 == p.omega1 and p.delta2 == p.omega2  # resonant by default


def test_params_sideband_warning():
    with pytest.warns(SidebandResolutionWarning):
        SystemParams.from_ordinary(kappa_hz=2e6)


def test_params_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        SystemParams.from_ordinary(g1_hz=0.0)
    # NaN fails every comparison, so it must not slip past a "<= 0" check
    for key, value in (("kappa_hz", math.nan), ("omega2_hz", math.inf), ("q1", math.inf),
                       ("temperature_k", math.nan), ("temperature_k", math.inf),
                       ("delta1_hz", math.nan), ("delta2_hz", -math.inf)):
        with pytest.raises(InvalidArgumentError, match="finite"):
            SystemParams.from_ordinary(**{key: value})


def test_schedule_validation():
    with pytest.raises(InvalidArgumentError):
        DriveSchedule("stirap", 2000.0, 1e-4, -1e-4, 1e-4)
    with pytest.raises(InvalidArgumentError):
        DriveSchedule("nope", 2000.0, 1e-4, 1e-4, 1e-4)
    with pytest.raises(InvalidArgumentError):
        DriveSchedule("fractional", 2000.0, 1e-4, 1e-4, 1e-4, theta=2.0)
    for key, value in (("alpha0", math.nan), ("alpha0", math.inf), ("tau", math.nan),
                       ("sigma1", math.inf), ("sigma2", math.nan), ("theta", math.nan),
                       ("phase1", math.inf), ("phase2", math.nan), ("t0", -math.inf)):
        args = {"alpha0": 2000.0, "tau": 1e-4, "sigma1": 1e-4, "sigma2": 1e-4, key: value}
        with pytest.raises(InvalidArgumentError):
            DriveSchedule("fractional", **args)


def test_stirap_envelope_peaks(stirap):
    assert envelope(stirap, 1, stirap.tau) == 2000.0
    assert envelope(stirap, 2, -stirap.tau) == 2000.0
    # counterintuitive ordering: pump 2 precedes pump 1
    assert envelope(stirap, 2, -1e-3) > envelope(stirap, 1, -1e-3)


def test_envelope_cutoff(stirap):
    assert envelope(stirap, 1, stirap.tau + 8.01 * stirap.sigma1) == 0.0
    assert envelope(stirap, 1, stirap.tau + 7.99 * stirap.sigma1) > 0.0


@pytest.mark.parametrize("kind", DRIVE_KINDS)
def test_envelope_is_the_integrators_amplitude_bitwise(table_params, kind):
    # one pulse rule: the envelope trajectory.csv reports is the amplitude the
    # integrator steps with, at zero drive phases, on both sides of every cut
    s = DriveSchedule(kind, 2000.0, 0.42e-3, 0.6e-3, 0.5e-3, theta=math.pi / 3, t0=1e-4)
    edges = [s.t0 + shift + side * ENVELOPE_CUTOFF_SIGMAS * width * (1.0 + nudge)
             for shift in (-s.tau, s.tau) for width in (s.sigma1, s.sigma2)
             for side in (-1.0, 1.0) for nudge in (-1e-9, 1e-9)]
    t = np.sort(np.concatenate([np.linspace(-6e-3, 6e-3, 2001), edges]))
    z = DriveCoefficients("rwa", [(table_params, s)]).amplitudes(t[:, None])[:, :, 0]
    for pump in (1, 2):
        np.testing.assert_array_equal(envelope(s, pump, t), z[pump - 1].real)
        assert not z[pump - 1].imag.any()
    if kind == "stirap":  # pump 1's one pulse: the grid straddles its cut
        centre = s.t0 + s.tau
        inside, outside = (centre + ENVELOPE_CUTOFF_SIGMAS * s.sigma1 * (1.0 + nudge)
                           for nudge in (-1e-9, 1e-9))
        assert envelope(s, 1, inside) > 0.0 and envelope(s, 1, outside) == 0.0


PHASES = st.one_of(st.just(0.0), st.sampled_from([-0.0, 1e-300, 0.3, -2.1, math.pi]))
OFFSETS_HZ = st.sampled_from([0.0, 1.0, -250.0, 3e3])


@given(picture=st.sampled_from(["rwa", "bs", "full"]), phases=st.tuples(PHASES, PHASES),
       offsets=st.tuples(OFFSETS_HZ, OFFSETS_HZ),
       times=st.lists(st.floats(-3e-3, 3e-3), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_real_flag_means_real_coefficients(picture, phases, offsets, times):
    p = SystemParams.from_ordinary(temperature_k=0.01, delta1_hz=1.2e6 + offsets[0],
                                   delta2_hz=1.8e6 + offsets[1])
    s = DriveSchedule("fractional", 2000.0, 0.42e-3, 0.6e-3, 0.5e-3, theta=math.pi / 3,
                      phase1=phases[0], phase2=phases[1])
    rule = DriveCoefficients(picture, [(p, s)])
    # every phase rate is D_i -+ w_j; only the rwa one at resonance, D_i = w_i, is 0
    resonant = picture == "rwa" and (p.delta1, p.delta2) == (p.omega1, p.omega2)
    assert rule.real == (resonant and phases == (0.0, 0.0))
    t = np.array(times)[:, None]
    forced = rule.take([0])
    forced.real = False  # the complex path, whatever the flag
    if rule.real:
        c = rule(t)
        assert c.dtype == float and not forced(t).imag.any()
        np.testing.assert_array_equal(c, forced(t).real)
    # a column's flag follows it into a batch: one complex column clears the batch's
    mixed = DriveCoefficients(picture, [(p, s), (SystemParams.from_ordinary(), DriveSchedule(
        "stirap", 2000.0, 0.42e-3, 0.6e-3, 0.5e-3, phase2=0.5))])
    assert not mixed.real and mixed.take([0]).real == rule.real


def test_pulse_centres_of_schedules():
    fs = DriveSchedule("fractional", 2000.0, 0.4e-3, 0.6e-3, 0.6e-3, theta=math.pi / 4, t0=1e-3)
    assert pulse_centres(fs) == pytest.approx([0.6e-3, 1.4e-3], abs=1e-18)
    train = [DriveSchedule("stirap", 2000.0, 0.4e-3, 0.6e-3, 0.6e-3),
             DriveSchedule("reversed_fractional", 2000.0, 0.4e-3, 0.6e-3, 0.6e-3, t0=4e-3),
             DriveSchedule("constant", 2000.0, 0.4e-3, 0.6e-3, 0.6e-3)]
    assert pulse_centres(train) == pytest.approx([-0.4e-3, 0.4e-3, 3.6e-3, 4.4e-3], abs=1e-18)


def test_fractional_second_pump_at_center():
    sigma = 0.1e-3
    f = DriveSchedule("fractional", 2000.0, 5 * sigma, sigma, sigma, theta=math.pi / 4)
    # with tau >> sigma the late Gaussian dominates at its own center
    assert np.isclose(envelope(f, 2, f.tau), 2000.0 * math.cos(math.pi / 4), rtol=1e-8)


def test_fractional_at_pi_half_equals_stirap(stirap):
    f = DriveSchedule(
        "fractional", 2000.0, stirap.tau, stirap.sigma1, stirap.sigma2, theta=math.pi / 2
    )
    t = np.linspace(-3e-3, 3e-3, 301)
    np.testing.assert_allclose(envelope(f, 1, t), envelope(stirap, 1, t), atol=1e-12)
    np.testing.assert_allclose(envelope(f, 2, t), envelope(stirap, 2, t), atol=1e-12)


def test_reversed_fractional_is_time_mirror():
    sigma = 0.6e-3
    f = DriveSchedule("fractional", 2000.0, sigma / 1.25, sigma, sigma, theta=0.6)
    r = DriveSchedule("reversed_fractional", 2000.0, sigma / 1.25, sigma, sigma, theta=0.6)
    t = np.linspace(-3e-3, 3e-3, 601)
    np.testing.assert_allclose(envelope(r, 1, t), envelope(f, 1, -t), atol=1e-12)
    np.testing.assert_allclose(envelope(r, 2, t), envelope(f, 2, -t), atol=1e-12)


def test_mixing_angle_values(table_params, stirap):
    assert np.isclose(mixing_angle(stirap, table_params, 0.0), math.pi / 4)
    assert mixing_angle(stirap, table_params, -1.0) == 0.0
    assert mixing_angle(stirap, table_params, 1.0) == math.pi / 2
    f = DriveSchedule(
        "fractional", 2000.0, stirap.tau, stirap.sigma1, stirap.sigma2, theta=math.pi / 4
    )
    assert np.isclose(mixing_angle(f, table_params, 1.0), math.pi / 4)


def test_mixing_angle_outside_the_pulse_support(table_params, stirap):
    # both couplings vanish: the angle is the limit on the side of the sequence it lies on
    r = DriveSchedule("reversed_fractional", 2000.0, stirap.tau, stirap.sigma1, stirap.sigma2,
                      theta=0.6)
    assert mixing_angle(r, table_params, -1.0) == 0.6
    assert mixing_angle(r, table_params, 1.0) == 0.0
    # a constant pump at alpha0 = 0 never turns on: equal couplings, on either side
    off = DriveSchedule("constant", 0.0, stirap.tau, stirap.sigma1, stirap.sigma2)
    assert [mixing_angle(off, table_params, t) for t in (-1.0, 1.0)] == [math.pi / 4] * 2


@given(
    t=st.floats(min_value=-5e-3, max_value=5e-3),
    picture=st.sampled_from(["rwa", "bs", "full"]),
)
@settings(max_examples=25, deadline=None)
def test_hamiltonian_hermitian(t, picture):
    p = SystemParams.from_ordinary(temperature_k=0.01)
    s = DriveSchedule("stirap", 2000.0, 0.42e-3, 0.6e-3, 0.6e-3)
    sp = HilbertSpace((2, 3, 3))
    h = hamiltonian_generator(p, s, sp, picture).dense(t)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_hamiltonian_generator_checks_space_and_picture(table_params, stirap):
    with pytest.raises(InvalidDimensionError, match="3-mode"):
        hamiltonian_generator(table_params, stirap, HilbertSpace((2, 3)))
    with pytest.raises(InvalidArgumentError, match="unknown picture 'lab'"):
        hamiltonian_generator(table_params, stirap, HilbertSpace((2, 3, 3)), "lab")


def test_rwa_matrix_element(table_params, stirap):
    sp = HilbertSpace((2, 4, 4))
    h = hamiltonian_generator(table_params, stirap, sp, "rwa").dense(0.3e-3)
    g11 = table_params.g1 * envelope(stirap, 1, 0.3e-3)
    elem = h[sp.index((0, 1, 0)), sp.index((1, 0, 0))]
    assert np.isclose(elem, g11, rtol=1e-12)


def test_full_picture_all_terms_at_t0(table_params, stirap):
    sp = HilbertSpace((2, 3, 3))
    h = hamiltonian_generator(table_params, stirap, sp, "full").dense(0.0)
    # at t=0 every phase factor is 1, so beam-splitter and two-mode-squeezing
    # elements both appear with real couplings
    g_bs = table_params.g1 * envelope(stirap, 1, 0) + table_params.g1 * envelope(stirap, 2, 0)
    bs = h[sp.index((1, 0, 0)), sp.index((0, 1, 0))]
    tms = h[sp.index((1, 1, 0)), sp.index((0, 0, 0))]
    assert np.isclose(bs, g_bs, rtol=1e-12)
    assert np.isclose(tms, g_bs, rtol=1e-12)


def test_rwa_resonant_is_time_independent(table_params, stirap):
    sp = HilbertSpace((2, 3, 3))
    h1 = hamiltonian_generator(table_params, stirap, sp, "rwa").dense(1e-4)
    # the envelope moves, but the operator structure stays that of a |t|-even
    # beam splitter; compare against explicit reconstruction
    g11 = table_params.g1 * envelope(stirap, 1, 1e-4)
    g22 = table_params.g2 * envelope(stirap, 2, 1e-4)
    chain = chain_hamiltonian(1, g11, g22)
    idx = [sp.index(x) for x in chain_basis(1)]
    np.testing.assert_array_equal(h1[np.ix_(idx, idx)], chain)


def test_dark_state_annihilated(table_params, stirap):
    sp = HilbertSpace((2, 5, 5))
    for t in (-0.3e-3, 0.0, 0.4e-3):
        h = hamiltonian_generator(table_params, stirap, sp, "rwa").dense(t)
        theta = mixing_angle(stirap, table_params, t)
        for n in (0, 1, 2):
            phi = dark_state(sp, n, theta)
            assert np.linalg.norm(h @ phi) < 1e-9 * max(1.0, np.linalg.norm(h))


def test_hamiltonian_commutes_with_dark_number(table_params, stirap):
    sp = HilbertSpace((2, 5, 5))
    t = 0.1e-3
    h = hamiltonian_generator(table_params, stirap, sp, "rwa").dense(t)
    bm, _ = collective_operators(sp, table_params, stirap, t, "rwa_phased")
    n_minus = bm.toarray().conj().T @ bm.toarray()
    comm = h @ n_minus - n_minus @ h
    # project onto the block safely below the truncation edge
    keep = [
        i
        for i in range(sp.total_dim)
        if sp.multi_index(i)[1] < 4 and sp.multi_index(i)[2] < 4
    ]
    sub = comm[np.ix_(keep, keep)]
    assert np.max(np.abs(sub)) < 1e-9 * np.max(np.abs(h))


def test_collective_operator_limits(table_params):
    sp = HilbertSpace((2, 3, 3))
    sigma = 0.6e-3
    # theta = 0: only pump 2 on -> b_minus = b1
    late = DriveSchedule("stirap", 2000.0, 5 * sigma, sigma, sigma)
    bm, bp = collective_operators(sp, table_params, late, -5 * sigma, "rwa_phased")
    from omstirap.hilbert import destroy

    np.testing.assert_allclose(bm.toarray(), destroy(sp, 1).toarray(), atol=1e-12)
    # theta = pi/2: only pump 1 on -> b_minus = -b2
    bm2, _ = collective_operators(sp, table_params, late, 5 * sigma, "rwa_phased")
    np.testing.assert_allclose(bm2.toarray(), -destroy(sp, 2).toarray(), atol=1e-12)


@pytest.mark.parametrize("dims", [(2, 5, 5), (3, 13, 13), (4, 8, 8)])
def test_collective_occupations_on_the_pair_are_the_cavity_vacuum_block(table_params, stirap,
                                                                        dims):
    # the operators act on the mechanical modes alone, so b^+ b on the pair is
    # the cavity-level-0 block of b^+ b on the three modes, entry for entry
    full, pair = HilbertSpace(dims), HilbertSpace(dims[1:])
    n = pair.total_dim
    for convention in ("static", "rwa_phased"):
        for a, b in zip(collective_operators(full, table_params, stirap, 0.1e-3, convention),
                        collective_operators(pair, table_params, stirap, 0.1e-3, convention)):
            block, op = (a.conj().T @ a)[:n, :n].tocoo(), (b.conj().T @ b).tocoo()
            for x, y in ((block.row, op.row), (block.col, op.col), (block.data, op.data)):
                np.testing.assert_array_equal(x, y)
    with pytest.raises(InvalidDimensionError, match="2- or 3-mode"):
        collective_operators(HilbertSpace((3,)), table_params, None)


def test_collective_static_symmetric(table_params):
    sp = HilbertSpace((2, 3, 3))
    bm, bp = collective_operators(sp, table_params, None, 0.0, "static")
    from omstirap.hilbert import destroy

    b1, b2 = destroy(sp, 1).toarray(), destroy(sp, 2).toarray()
    np.testing.assert_allclose(bm.toarray(), (b1 - b2) / math.sqrt(2), atol=1e-12)
    np.testing.assert_allclose(bp.toarray(), (b1 + b2) / math.sqrt(2), atol=1e-12)
    # canonical commutator on the untruncated block
    comm = bm.toarray() @ bm.toarray().conj().T - bm.toarray().conj().T @ bm.toarray()
    keep = [
        i
        for i in range(sp.total_dim)
        if sp.multi_index(i)[1] < 2 and sp.multi_index(i)[2] < 2
    ]
    np.testing.assert_allclose(
        comm[np.ix_(keep, keep)], np.eye(len(keep)), atol=1e-12
    )


def _same_csr(a, b) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and all(getattr(a, k).tobytes() == getattr(b, k).tobytes()
                    for k in ("indptr", "indices", "data")))


@pytest.mark.parametrize("dims", [(5, 5), (2, 5, 5), (3, 4, 6)])
def test_collective_operators_are_bitwise_the_sparse_chain(dims, stirap):
    from omstirap.hilbert import destroy

    sp = HilbertSpace(dims)
    b1, b2 = destroy(sp, sp.n_modes - 2), destroy(sp, sp.n_modes - 1)
    for g1_hz, g2_hz in ((2.5, 2.5), (1.3, 0.7), (0.01, 3.0)):
        p = SystemParams.from_ordinary(temperature_k=0.01, g1_hz=g1_hz, g2_hz=g2_hz)
        g1, g2, norm = p.g1, p.g2, math.hypot(p.g1, p.g2)
        bm, bp = collective_operators(sp, p, None)
        assert _same_csr(bp, (g1 * b1 + g2 * b2) / norm)
        assert _same_csr(bm, (g2 * b1 - g1 * b2) / norm)
        # rwa_phased, also where one pulse is cut to zero and its entries drop out
        for t in (-3e-3, 0.0, 1e-4, 4.4e-3):
            bm, bp = collective_operators(sp, p, stirap, t, "rwa_phased")
            z1, z2 = DriveCoefficients("rwa", [(p, stirap)]).amplitudes(
                np.full((1, 1), t))[:, 0, 0]
            g11, g22 = g1 * abs(z1), g2 * abs(z2)
            ph1 = np.exp(1j * ((p.delta1 - p.omega1) * t + np.angle(z1)))
            ph2 = np.exp(1j * ((p.delta2 - p.omega2) * t + np.angle(z2)))
            norm = math.hypot(g11, g22)
            assert _same_csr(bm, (g22 * b1 * ph1 - g11 * b2 * ph2) / norm)
            assert _same_csr(bp, (g11 * b1 * ph1 + g22 * b2 * ph2) / norm)
    assert bm.nnz < b1.nnz + b2.nnz  # at t = 4.4e-3 one amplitude is zero


def test_collective_undefined():
    sp = HilbertSpace((2, 3, 3))
    p = SystemParams.from_ordinary()
    s = DriveSchedule("stirap", 0.0, 0.42e-3, 0.6e-3, 0.6e-3)
    with pytest.raises(UndefinedModeError):
        collective_operators(sp, p, s, 0.0, "rwa_phased")


def test_chain_n1_lambda_system():
    h = chain_hamiltonian(1, 100.0, 80.0, phi1=0.3, phi2=-0.2)
    assert h.shape == (3, 3)
    assert np.isclose(h[0, 1], 100.0 * np.exp(-0.3j))
    assert np.isclose(h[1, 2], 80.0 * np.exp(0.2j))
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_chain_n2_corner_couplings():
    g11, g22 = 70.0, 55.0
    h = chain_hamiltonian(2, g11, g22)
    # frozen from the coupling map at k=1 and k=2
    assert np.isclose(h[0, 1], math.sqrt(2) * g11)
    assert np.isclose(h[3, 4], math.sqrt(2) * g22)
    assert np.isclose(h[1, 2], g22)
    assert np.isclose(h[2, 3], g11)


def test_chain_rejects_n0():
    with pytest.raises(InvalidArgumentError):
        chain_hamiltonian(0, 1.0, 1.0)


def test_chain_equals_restricted_rwa_exactly(table_params, stirap):
    sp = HilbertSpace((2, 5, 5))
    t = 0.2e-3
    h = hamiltonian_generator(table_params, stirap, sp, "rwa").dense(t)
    g11 = table_params.g1 * envelope(stirap, 1, t)
    g22 = table_params.g2 * envelope(stirap, 2, t)
    for n in (1, 2, 3):
        idx = [sp.index(x) for x in chain_basis(n)]
        np.testing.assert_array_equal(h[np.ix_(idx, idx)], chain_hamiltonian(n, g11, g22))


def test_bose_occupancy_reference_values():
    w1 = TWO_PI * 1.2e6
    assert abs(bose_occupancy(w1, 0.01) - 173.0) / 173.0 < 0.01
    assert abs(bose_occupancy(w1, 0.05) - 867.0) / 867.0 < 0.01
    assert bose_occupancy(w1, 0.0) == 0.0
    # closed-form self-consistency at an uncorrelated point
    from scipy.constants import hbar, k

    x = hbar * w1 / (k * 0.25)
    assert np.isclose(bose_occupancy(w1, 0.25), 1.0 / math.expm1(x), rtol=1e-12)
