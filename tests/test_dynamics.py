import functools
import json
from dataclasses import replace
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from omstirap import dynamics, protocols
from omstirap.analysis import partial_trace, partial_transpose
from omstirap.cli import build_scenario
from omstirap.dynamics import (
    IntegratorConfig,
    LindbladModel,
    evolve,
    lindblad_rhs,
    liouvillian_matrix,
    propagator_oracle,
    thermal_collapse_terms,
)
from omstirap.errors import (
    IntegrationDivergedError,
    InvalidArgumentError,
    InvalidDimensionError,
    OracleTooLargeError,
    StiffnessError,
)
from omstirap.hilbert import (
    DensityMatrix,
    Generator,
    HilbertSpace,
    StateVector,
    destroy,
    expectation,
    fock_state,
    number_operator,
)
from omstirap.model import (
    DriveCoefficients,
    DriveSchedule,
    SystemParams,
    collective_operators,
    hamiltonian_generator,
)
from omstirap.presets import preset_config
from omstirap.protocols import InitialStateSpec, Scenario, TargetSpec, run_scenario

SPACE = HilbertSpace((2, 2, 2))
KAPPA = 2 * math.pi * 2e3


def _random_density(space, seed=0):
    rng = np.random.default_rng(seed)
    d = space.total_dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return DensityMatrix(space, rho / np.trace(rho))


def _random_hermitian(d, rng):
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return 0.5 * (h + h.conj().T)


def test_rhs_zero_without_terms():
    model = LindbladModel(SPACE, None, ())
    rho = fock_state(SPACE, 1, 0, 0).density_matrix()
    np.testing.assert_array_equal(lindblad_rhs(model, 0.0, rho), np.zeros((8, 8)))


def test_rhs_pure_cavity_decay():
    a = destroy(SPACE, 0).toarray()
    model = LindbladModel(SPACE, None, ((a, KAPPA),))
    rho = fock_state(SPACE, 1, 0, 0).density_matrix()
    deriv = lindblad_rhs(model, 0.0, rho)
    i100 = SPACE.index((1, 0, 0))
    i000 = SPACE.index((0, 0, 0))
    assert np.isclose(deriv[i100, i100], -KAPPA)
    assert np.isclose(deriv[i000, i000], KAPPA)


def test_rhs_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(3)
    d = SPACE.total_dim
    h = _random_hermitian(d, rng)
    cs = tuple(
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.5) for _ in range(3)
    )
    model = LindbladModel(SPACE, h, cs)
    for seed in range(5):
        rho = _random_hermitian(d, np.random.default_rng(seed))
        deriv = lindblad_rhs(model, 0.0, rho)
        assert abs(np.trace(deriv)) < 1e-10 * np.max(np.abs(deriv))
        assert np.max(np.abs(deriv - deriv.conj().T)) < 1e-12 * np.max(np.abs(deriv))


def test_evolve_frozen_without_generator():
    model = LindbladModel(SPACE, None, ())
    rho0 = _random_density(SPACE, 1)
    cfg = IntegratorConfig(sample_times=np.linspace(0, 1.0, 5))
    traj = evolve(model, rho0, cfg)
    for st in traj.states:
        assert np.max(np.abs(st.matrix - rho0.matrix)) < 1e-9


def test_evolve_cavity_decay_closed_form():
    a = destroy(SPACE, 0).toarray()
    model = LindbladModel(SPACE, None, ((a, KAPPA),))
    rho0 = fock_state(SPACE, 1, 0, 0).density_matrix()
    ts = np.linspace(0.0, 3.0 / KAPPA, 16)
    traj = evolve(model, rho0, IntegratorConfig(sample_times=ts))
    nc = number_operator(SPACE, 0)
    vals = np.array([expectation(nc, s).real for s in traj.states])
    np.testing.assert_allclose(vals, np.exp(-KAPPA * ts), rtol=1e-6)


def test_evolve_thermal_contact_closed_form():
    gamma, nbar = 40.0, 0.6
    space = HilbertSpace((2, 18, 2))
    b = destroy(space, 1).toarray()
    model = LindbladModel(
        space, None, ((b, gamma * (nbar + 1)), (b.conj().T, gamma * nbar))
    )
    rho0 = fock_state(space, 0, 0, 0).density_matrix()
    ts = np.linspace(0.0, 0.12, 9)
    traj = evolve(model, rho0, IntegratorConfig(sample_times=ts))
    n1 = number_operator(space, 1)
    vals = np.array([expectation(n1, s).real for s in traj.states])
    expected = nbar * (1.0 - np.exp(-gamma * ts))
    np.testing.assert_allclose(vals[1:], expected[1:], rtol=1e-5)


def test_evolve_trace_and_hermiticity_invariants():
    rng = np.random.default_rng(11)
    d = SPACE.total_dim
    h = 5.0 * _random_hermitian(d, rng)
    cs = ((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.7),)
    model = LindbladModel(SPACE, h, cs)
    traj = evolve(
        model, _random_density(SPACE, 2), IntegratorConfig(sample_times=np.linspace(0, 1.5, 11))
    )
    for st in traj.states:
        assert abs(np.trace(st.matrix).real - 1.0) <= 1e-6
        assert np.max(np.abs(st.matrix - st.matrix.conj().T)) <= 1e-9
        assert np.linalg.eigvalsh(st.matrix).min() >= -1e-6


def test_unitary_limit_conserves_purity():
    rng = np.random.default_rng(5)
    d = SPACE.total_dim
    h = 10.0 * _random_hermitian(d, rng)
    model = LindbladModel(SPACE, h, ())
    rho0 = _random_density(SPACE, 7)
    p0 = np.real(np.trace(rho0.matrix @ rho0.matrix))
    traj = evolve(model, rho0, IntegratorConfig(sample_times=np.linspace(0, 2.0, 7)))
    for st in traj.states:
        purity = np.real(np.trace(st.matrix @ st.matrix))
        assert abs(purity - p0) < 1e-6


def test_oracle_identity_at_dt0():
    model = LindbladModel(SPACE, None, ())
    rho0 = _random_density(SPACE, 4)
    out = propagator_oracle(model, rho0, 0.0)
    np.testing.assert_array_equal(out.matrix, rho0.matrix)


def test_oracle_cavity_decay_exact():
    a = destroy(SPACE, 0).toarray()
    model = LindbladModel(SPACE, None, ((a, KAPPA),))
    rho0 = fock_state(SPACE, 1, 0, 0).density_matrix()
    out = propagator_oracle(model, rho0, 1.0 / KAPPA)
    nc = number_operator(SPACE, 0)
    assert abs(expectation(nc, out).real - math.exp(-1.0)) < 1e-10


def test_oracle_matches_evolve_random_frozen():
    rng = np.random.default_rng(9)
    d = SPACE.total_dim
    h = _random_hermitian(d, rng)
    cs = tuple(
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.4) for _ in range(2)
    )
    model = LindbladModel(SPACE, h, cs)
    rho0 = _random_density(SPACE, 12)
    dt = 0.6
    traj = evolve(
        model,
        rho0,
        IntegratorConfig(sample_times=[0.0, dt], rel_tol=1e-10, abs_tol=1e-12),
    )
    out = propagator_oracle(model, rho0, dt)
    assert np.max(np.abs(traj.states[-1].matrix - out.matrix)) <= 1e-8


def test_oracle_dimension_cap():
    space = HilbertSpace((3, 5, 5))
    model = LindbladModel(space, None, ())
    rho0 = fock_state(space, 0, 0, 0).density_matrix()
    with pytest.raises(OracleTooLargeError):
        propagator_oracle(model, rho0, 0.1)


def test_liouvillian_reproduces_rhs():
    rng = np.random.default_rng(20)
    d = SPACE.total_dim
    h = _random_hermitian(d, rng)
    cs = ((rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.3),)
    model = LindbladModel(SPACE, h, cs)
    rho = _random_density(SPACE, 30)
    direct = lindblad_rhs(model, 0.0, rho)
    via_liou = (liouvillian_matrix(model) @ rho.matrix.reshape(-1)).reshape(d, d)
    np.testing.assert_allclose(via_liou, direct, atol=1e-10 * np.max(np.abs(direct)))


def test_evolve_pure_matches_density_path():
    from omstirap.model import DriveSchedule, SystemParams, hamiltonian_generator

    p = SystemParams.from_ordinary()
    s = DriveSchedule("stirap", 2000.0, 0.42e-3, 0.6e-3, 0.6e-3)
    sp = HilbertSpace((2, 3, 3))
    h = hamiltonian_generator(p, s, sp, "rwa")
    psi0 = fock_state(sp, 0, 1, 0)
    cfg = IntegratorConfig(sample_times=np.linspace(-2e-3, 2e-3, 9))
    tp = evolve(LindbladModel(sp, h), psi0, cfg)
    td = evolve(LindbladModel(sp, h, ()), psi0.density_matrix(), cfg)
    for a, b in zip(tp.states, td.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


def test_a_state_vector_without_a_positive_rate_is_stepped_as_psi():
    # no collapse term, or only terms of rate 0: the error norm averages over the d amplitudes
    h = _random_hermitian(SPACE.total_dim, np.random.default_rng(5))
    psi0 = fock_state(SPACE, 1, 0, 0)
    cfg = IntegratorConfig(sample_times=[0.0, 1e-4])
    for collapse in ((), ((destroy(SPACE, 0), 0.0),)):
        stats = evolve(LindbladModel(SPACE, h, collapse), psi0, cfg).stats
        assert (stats.state_size, stats.norm_size) == (2 * SPACE.total_dim, SPACE.total_dim)


def test_a_state_vector_under_a_positive_rate_is_stepped_as_its_density_matrix():
    h = _random_hermitian(SPACE.total_dim, np.random.default_rng(6))
    model = LindbladModel(SPACE, h, ((destroy(SPACE, 0), KAPPA),))
    psi0 = fock_state(SPACE, 1, 1, 0)
    cfg = IntegratorConfig(sample_times=np.linspace(0.0, 1e-4, 5))
    got, want = evolve(model, psi0, cfg), evolve(model, psi0.density_matrix(), cfg)
    assert got.stats == want.stats and got.stats.norm_size == SPACE.total_dim ** 2
    np.testing.assert_array_equal(got.times, want.times)
    np.testing.assert_array_equal(got.samples, want.samples)


def test_a_state_vector_must_live_on_the_model_space():
    cfg = IntegratorConfig(sample_times=[0.0, 1e-4])
    other = fock_state(HilbertSpace((2, 2, 3)), 1, 0, 0)
    decay = ((destroy(SPACE, 0), KAPPA),)
    for model in (LindbladModel(SPACE, None), LindbladModel(SPACE, None, decay)):
        assert evolve(model, fock_state(SPACE, 1, 0, 0), cfg).stats.accepted > 0
        with pytest.raises(InvalidDimensionError, match="different space"):
            evolve(model, other, cfg)


# ------------------------------------------------------ integration failures

def test_step_underflow_raises_stiffness_error():
    # a 1e20 rad/s splitting needs steps far below the float resolution of the span
    sp = HilbertSpace((2,))
    model = LindbladModel(sp, 1e20 * np.array([[0, 1], [1, 0]]))
    rho0 = DensityMatrix(sp, np.diag([1.0, 0.0]))
    with pytest.raises(StiffnessError, match="step size underflow at t = 0.000000e") as info:
        evolve(model, rho0, IntegratorConfig(sample_times=[0.0, 1.0]))
    assert info.value.time == 0.0


def test_trace_drift_raises_naming_the_sample_tolerance():
    rho0 = DensityMatrix(SPACE, 2 * _random_density(SPACE, 3).matrix, validate=False)
    model = LindbladModel(SPACE, None, ((destroy(SPACE, 0), KAPPA),))
    with pytest.raises(IntegrationDivergedError, match="trace drift 1.000e[+]00 exceeded 1e-06"):
        evolve(model, rho0, IntegratorConfig(sample_times=[0.0, 1e-3]))


def test_norm_drift_raises_on_the_pure_path():
    # |psi|^2 = 4 is a trace drift of 3, caught by the sample check at t0
    psi0 = StateVector(SPACE, 2 * fock_state(SPACE, 1, 0, 0).amplitudes, validate=False)
    with pytest.raises(IntegrationDivergedError,
                       match="trace drift 3.000e[+]00 exceeded 1e-06 at t = 0.0") as info:
        evolve(LindbladModel(SPACE, np.zeros((8, 8))), psi0,
               IntegratorConfig(sample_times=[0.0, 1e-3]))
    assert info.value.tolerance == dynamics.TRACE_SAMPLE_TOL


def test_pure_path_rejects_the_drift_the_density_path_rejects():
    # |psi|^2 = 1 + 1e-3 passes neither path's sample check
    psi0 = StateVector(SPACE, math.sqrt(1 + 1e-3) * fock_state(SPACE, 1, 0, 0).amplitudes,
                       validate=False)
    config = IntegratorConfig(sample_times=[0.0, 1e-3])
    for run in (lambda: evolve(LindbladModel(SPACE, np.zeros((8, 8))), psi0, config),
                lambda: evolve(LindbladModel(SPACE, None), psi0.density_matrix(), config)):
        with pytest.raises(IntegrationDivergedError, match="trace drift 1.000e-03 exceeded 1e-06"):
            run()


def _nan_after(t_nan):
    """A generator whose one coefficient turns NaN after ``t_nan``."""
    op = destroy(SPACE, 0).conj().T @ destroy(SPACE, 1)
    return Generator(SPACE, None, [op], lambda t: np.where(t > t_nan, math.nan, 2e3)[None])


def test_non_finite_state_is_divergence_not_step_underflow():
    # the stop puts a step end on 1e-4; every stage after it sees a NaN
    config = IntegratorConfig(sample_times=[0.0, 1e-3], stops=[1e-4])
    psi0 = fock_state(SPACE, 0, 1, 0)
    for run in (lambda: evolve(LindbladModel(SPACE, _nan_after(1e-4)), psi0.density_matrix(),
                               config),
                lambda: evolve(LindbladModel(SPACE, _nan_after(1e-4)), psi0, config)):
        with pytest.raises(IntegrationDivergedError,
                           match="non-finite state in the step from t = 1.000000e-04 s") as info:
            run()
        assert info.value.time == 1e-4
        back = pickle.loads(pickle.dumps(info.value))
        assert str(back) == str(info.value) and vars(back) == vars(info.value)


def test_a_non_finite_column_fails_alone():
    p = SystemParams.from_ordinary()
    sched = DriveSchedule("stirap", 2000.0, 0.42e-3, 0.6e-3, 0.6e-3)
    sp = HilbertSpace((2, 3, 3))
    alphas = (1000.0, 2000.0, 3000.0, 4000.0)
    rule = DriveCoefficients("rwa", [(p, replace(sched, alpha0=a)) for a in alphas])
    # column 2 gains a NaN pulse of width 10 us at 0.5 ms in pump 1's unused component
    # slot: its coefficients turn NaN 8 widths before the centre
    rule.amplitude[0, 0, 1, 0, 2], rule.centre[0, 0, 1, 0, 2] = math.nan, 0.5e-3
    rule.width[0, 0, 1, 0, 2] = 1e-5
    ops = hamiltonian_generator(p, sched, sp, "rwa").ops
    collapse = tuple(thermal_collapse_terms(sp, p))
    rho0 = fock_state(sp, 0, 1, 0).density_matrix()
    config = IntegratorConfig(sample_times=np.linspace(-2e-3, 2e-3, 9))
    runs = evolve(LindbladModel(sp, Generator(sp, None, ops, rule), collapse), rho0, [config] * 4)
    failed = runs[2]
    assert isinstance(failed, IntegrationDivergedError) and "non-finite" in str(failed)
    assert -2e-3 < failed.time <= 0.5e-3 - 8e-5
    for a, run in zip(alphas, runs):
        if a == 3000.0:
            continue
        gen = hamiltonian_generator(p, replace(sched, alpha0=a), sp, "rwa")
        solo = evolve(LindbladModel(sp, gen, collapse), rho0, config)
        assert run.stats == solo.stats
        for x, y in zip(run.states, solo.states):
            np.testing.assert_array_equal(x.matrix, y.matrix)


@pytest.mark.parametrize("error", [StiffnessError(1.25e-4),
                                   IntegrationDivergedError(2.5e-4, 1e-3, 1e-6),
                                   IntegrationDivergedError(1e-4, 3.0, 1e-4)])
def test_integration_errors_survive_pickling(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error) and vars(back) == vars(error)


def test_collapse_rate_validation():
    a = destroy(SPACE, 0).toarray()
    # a NaN rate would fail "rate > 0" and silently drop its dissipator
    for rate in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgumentError):
            LindbladModel(SPACE, None, ((a, rate),))


def test_sample_times_validation():
    with pytest.raises(InvalidArgumentError):
        IntegratorConfig(sample_times=[0.0, 0.0, 1.0])
    with pytest.raises(InvalidArgumentError):
        IntegratorConfig(sample_times=[0.0])


@pytest.mark.parametrize("bad", [
    {"sample_times": [0.0, math.nan]}, {"sample_times": [math.nan, 0.0]},
    {"sample_times": [0.0, 1.0, math.inf]}, {"sample_times": [-math.inf, 0.0]},
    {"rel_tol": math.nan}, {"rel_tol": math.inf}, {"rel_tol": 0.0},
    {"abs_tol": math.nan}, {"abs_tol": math.inf}, {"abs_tol": -1e-10},
    {"stops": [math.nan]}, {"stops": [0.5, math.inf]}])
def test_integrator_config_needs_finite_times_and_tolerances(bad):
    # a NaN time stepped forever, an infinite tolerance diverged at the first step,
    # and a stop that is not finite was dropped without a word
    with pytest.raises(InvalidArgumentError):
        IntegratorConfig(**{"sample_times": [0.0, 1.0], **bad})


def test_space_mismatch():
    model = LindbladModel(SPACE, None, ())
    other = HilbertSpace((2, 2, 3))
    with pytest.raises(InvalidDimensionError):
        evolve(model, fock_state(other, 0, 0, 0).density_matrix(),
               IntegratorConfig(sample_times=[0.0, 1.0]))


def test_thermal_collapse_terms_layout():
    from omstirap.model import SystemParams, bose_occupancy

    p = SystemParams.from_ordinary(temperature_k=0.05)
    terms = thermal_collapse_terms(SPACE, p)
    assert len(terms) == 5
    rates = [r for _, r in terms]
    assert np.isclose(rates[0], p.kappa)
    nb1 = bose_occupancy(p.omega1, 0.05)
    assert np.isclose(rates[1], p.gamma1 * (nb1 + 1))
    assert np.isclose(rates[2], p.gamma1 * nb1)


# ------------------------------------------------- sparse generator vs dense

def _equivalence_spec(picture):
    from omstirap.model import DriveSchedule, SystemParams

    # detuned pumps, drive phases and a two-schedule train, so every
    # coefficient carries a nontrivial phase and a summed amplitude
    p = SystemParams.from_ordinary(temperature_k=0.01, omega2_hz=1.203e6,
                                   delta1_hz=1.2e6 + 3e3)
    fwd = DriveSchedule("fractional", 2000.0, 0.42e-3, 0.6e-3, 0.5e-3,
                        theta=math.pi / 3, phase1=0.3, phase2=-0.7)
    rev = DriveSchedule("reversed_fractional", 1500.0, 0.42e-3, 0.6e-3, 0.6e-3,
                        theta=math.pi / 3, phase2=1.1, t0=1.2e-3)
    return SimpleNamespace(params=p, schedule=(fwd, rev), space=HilbertSpace((2, 3, 3)),
                           picture=picture)


def _parent_dense_hamiltonian(spec, t):
    """The dense H(t) formula of the model docstring, term by term."""
    from omstirap.model import envelope

    sp, p = spec.space, spec.params
    a = destroy(sp, 0).toarray()
    b = [destroy(sp, 1).toarray(), destroy(sp, 2).toarray()]
    adag = a.conj().T
    z = [0j, 0j]
    for s in spec.schedule:
        z[0] += envelope(s, 1, t) * np.exp(1j * s.phase1)
        z[1] += envelope(s, 2, t) * np.exp(1j * s.phase2)
    g, deltas, omegas = (p.g1, p.g2), (p.delta1, p.delta2), (p.omega1, p.omega2)
    m = np.zeros_like(a)
    for j in range(2):
        if spec.picture == "rwa":
            cj = g[j] * z[j] * np.exp(1j * (deltas[j] - omegas[j]) * t)
        else:
            cj = sum(g[j] * z[i] * np.exp(1j * (deltas[i] - omegas[j]) * t) for i in range(2))
        m = m + cj * (adag @ b[j])
        if spec.picture == "full":
            dj = sum(g[j] * z[i] * np.exp(1j * (deltas[i] + omegas[j]) * t) for i in range(2))
            m = m + dj * (adag @ b[j].conj().T)
    return m + m.conj().T


def _dense_lindblad_rhs(h, collapse, rho):
    out = -1j * (h @ rho - rho @ h)
    for c, rate in collapse:
        cd_c = c.conj().T @ c
        out += rate * (c @ rho @ c.conj().T - 0.5 * (cd_c @ rho + rho @ cd_c))
    return out


EQUIVALENCE_TIMES = (-0.9e-3, -0.2e-3, 0.0, 0.35e-3, 1.1e-3, 1.7e-3)


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_generator_densifies_to_dense_formula(picture):
    from omstirap.model import hamiltonian_generator

    spec = _equivalence_spec(picture)
    gen = hamiltonian_generator(**vars(spec))
    assert len(gen.ops) == (4 if picture == "full" else 2)
    for t in EQUIVALENCE_TIMES:
        ref = _parent_dense_hamiltonian(spec, t)
        assert np.max(np.abs(ref)) > 0.0
        np.testing.assert_allclose(gen.dense(t), ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_sparse_rhs_matches_liouvillian_and_dense_formula(picture):
    from omstirap.model import hamiltonian_generator

    spec = _equivalence_spec(picture)
    sp = spec.space
    collapse = thermal_collapse_terms(sp, spec.params)
    model = LindbladModel(sp, hamiltonian_generator(**vars(spec)), collapse)
    d = sp.total_dim
    for seed, t in enumerate(EQUIVALENCE_TIMES):
        rho = _random_density(sp, seed).matrix
        sparse_rhs = lindblad_rhs(model, t, rho)
        scale = np.max(np.abs(sparse_rhs))
        via_liou = (liouvillian_matrix(model, t) @ rho.reshape(-1)).reshape(d, d)
        np.testing.assert_allclose(sparse_rhs, via_liou, rtol=0, atol=1e-12 * scale)
        dense = _dense_lindblad_rhs(_parent_dense_hamiltonian(spec, t), collapse, rho)
        np.testing.assert_allclose(sparse_rhs, dense, rtol=0, atol=1e-12 * scale)


def _reach(coords, pieces, v0):
    """The real pieces of the complex ``pieces``, all kept, with ``coords``
    cut to the coordinates they reach from the nonzero ones of ``v0``."""
    const, parts = coords.pieces(*pieces)
    coords.restrict(dynamics._support((const, *parts), coords.coordinates(v0) != 0))
    return const, parts


def _cut_pieces(picture):
    """The model of the picture, its Hermitian half cut to what every real piece
    reaches from |010><010|, and those real pieces."""
    spec = _equivalence_spec(picture)
    sp = spec.space
    model = LindbladModel(sp, hamiltonian_generator(**vars(spec)),
                          thermal_collapse_terms(sp, spec.params))
    coords = dynamics._hermitian_half(sp.total_dim)
    rho0 = fock_state(sp, 0, 1, 0).density_matrix().matrix
    return (model, coords, *_reach(coords, dynamics._superoperator_pieces(model),
                                   rho0.reshape(-1)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_cut_rhs_matches_the_liouvillian_on_the_support(picture):
    model, coords, const, parts = _cut_pieces(picture)
    d = model.space.total_dim
    assert 0 < coords.order.size < d * d
    rhs = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(11)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y = rng.normal(size=coords.order.size)
        ref = liouvillian_matrix(model, t) @ coords.vector(y)
        w = dynamics._hermitian_weights(model.hamiltonian.at(t)[:, None])
        got = coords.vector(rhs(w, y[None])[0])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_cut_pure_rhs_matches_the_hamiltonian_on_the_support(picture):
    spec = _equivalence_spec(picture)
    gen = hamiltonian_generator(**vars(spec))
    d = spec.space.total_dim
    coords = dynamics._RealCoordinates(np.arange(0), np.arange(d))
    pieces = (-1j * gen.h0, [-1j * op for a in gen.ops for op in (a, a.conj().T)])
    const, parts = _reach(coords, pieces, fock_state(spec.space, 0, 1, 0).amplitudes)
    assert 0 < coords.order.size < 2 * d
    rhs = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(12)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y = rng.normal(size=coords.order.size)
        ref = -1j * gen.dense(t) @ coords.vector(y)
        got = coords.vector(rhs(dynamics._hermitian_weights(gen.at(t)[:, None]),
                                y[None])[0])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_hermitian_half_reproduces_the_complex_rhs_and_error_norm(picture):
    model, coords, const, parts = _cut_pieces(picture)
    d = model.space.total_dim
    real_rhs = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(14)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y, e = (rng.normal(size=coords.order.size) for _ in range(2))
        rho, err = coords.vector(y), coords.vector(e)
        # the coordinates are those of a Hermitian matrix, and read back exactly
        np.testing.assert_array_equal(rho.reshape(d, d), rho.reshape(d, d).conj().T)
        np.testing.assert_array_equal(coords.coordinates(rho)[coords.order], y)
        # the rhs, real and complex, from the same coefficients
        c = model.hamiltonian.at(t)[:, None]
        ref = dynamics._liouvillian(model, t) @ rho
        got = coords.vector(real_rhs(dynamics._hermitian_weights(c), y[None])[0])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        # the error norm: each pair counts for rho_ij and rho_ji, scaled by |rho_ij|,
        # as the RMS over all d^2 entries of the complex error
        rtol, atol = 1e-3, 1e-6 * np.max(np.abs(rho))
        want = np.sqrt(np.mean(np.abs(err / (atol + rtol * np.abs(rho))) ** 2))
        have = coords.rms(e * (1.0 / (atol + rtol * coords.modulus(y))))
        assert abs(have - want) <= 4 * np.finfo(float).eps * want


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("columns", [1, 3])
def test_csr_kernel_call_is_bitwise_the_sparse_product(dtype, columns):
    model, coords, const, parts = _cut_pieces("bs")
    if dtype is complex:
        l0, complex_parts = dynamics._superoperator_pieces(model)
        pieces = [l0, *complex_parts]
    else:
        pieces = [p[coords.order][:, coords.order] for p in (const, *parts)]
    wide = scipy.sparse.hstack(pieces, format="csr")
    assert wide.dtype == dtype
    rng = np.random.default_rng(15)
    x = rng.normal(size=(wide.shape[1], columns))
    if dtype is complex:
        x = x + 1j * rng.normal(size=x.shape)
    got, want = dynamics._csr_product(wide)(x), wide @ x
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _unchanged(t, y):
    return y


def _unrepaired(y):
    return y, np.ones(len(y))


def _no_terms(cols):
    return lambda t: np.zeros((0,) + t.shape)


#: the coordinates of one real number, and those (Re z, Im z) of one complex number z
ONE_REAL = dynamics._RealCoordinates(np.arange(1), np.arange(0))
ONE_COMPLEX = dynamics._RealCoordinates(np.arange(0), np.arange(1))


def test_dp45_steps_the_linear_test_equation_by_its_stability_polynomial():
    lam, h, n = -0.8 + 2.5j, 0.02, 50
    # z' = lam z on (Re z, Im z): a rotation-scaling of the plane
    m = np.array([[lam.real, -lam.imag], [lam.imag, lam.real]])
    # stops at every spacing and a loose tolerance: each step is clamped to h
    config = IntegratorConfig(sample_times=[0.0, n * h], rel_tol=1e-3, abs_tol=1e-6,
                              stops=h * np.arange(1, n))
    traj, = dynamics._integrate_dp45(lambda c, y: y @ m.T, _no_terms, np.array([1.0, 0.0]),
                                     [config], _unrepaired, _unchanged, ONE_COMPLEX)
    assert (traj.stats.accepted, traj.stats.rejected) == (n, 0)
    z = lam * h
    r = sum(z**k / math.factorial(k) for k in range(6)) + z**6 / 600
    assert abs(complex(*traj.samples[-1]) - r**n) <= 1e-13 * abs(r**n)


def test_dp45_integrates_a_quadratic_exactly():
    ts = np.linspace(0.0, 2.0, 5)
    # the one coefficient is the time itself: c(t) = t
    traj, = dynamics._integrate_dp45(lambda c, y: 3.0 * c.T * c.T, lambda cols: lambda t: t[None],
                                     np.zeros(1), [IntegratorConfig(ts)],
                                     _unrepaired, _unchanged, ONE_REAL)
    # fifth-order quadrature is exact for t^2, and the error estimate is zero but for rounding
    assert traj.stats.rejected == 0
    for t, y in zip(ts, traj.samples):
        assert abs(y[0] - t**3) <= 1e-14 * max(1.0, t**3)
    # the steps grow fivefold, so the inner samples come from the quartic extension
    assert traj.stats.interpolated > 0


def test_a_step_whose_norm_drifts_fails_its_column_at_the_step_end():
    # y' = y from y = 1, with y^2 reported as the norm: the first step, to t ~ 0.01,
    # is accepted, and its norm e^2t is 2% from 1
    def repair(y):
        return y, np.square(y).sum(axis=-1)

    failed, = dynamics._integrate_dp45(lambda c, y: y, _no_terms, np.ones(1),
                                       [IntegratorConfig([0.0, 1.0])], repair, _unchanged,
                                       ONE_REAL)
    assert isinstance(failed, IntegrationDivergedError)
    assert failed.time == pytest.approx(0.01, rel=1e-2)
    assert failed.drift == pytest.approx(math.expm1(2 * failed.time), rel=1e-9)
    assert failed.tolerance == dynamics.TRACE_DIVERGENCE_TOL


def test_continuous_extension_is_scipys_and_ends_on_the_fifth_order_solution():
    from scipy.integrate._ivp.rk import RK45

    np.testing.assert_array_equal(dynamics._P, RK45.P)
    # b_j(1) are the fifth-order weights, the last stage's being 0
    np.testing.assert_allclose(dynamics._P.sum(axis=1), [*dynamics._A[6], 0.0], rtol=0,
                               atol=1e-15)


def test_a_sample_inside_a_step_fails_at_its_own_time():
    ts = np.linspace(0.0, 2.0, 5)

    def on_sample(t, y):
        if t == 1.0:
            raise IntegrationDivergedError(t, 1.0, dynamics.TRACE_SAMPLE_TOL)
        return y

    run = (lambda c, y: 3.0 * c.T * c.T, lambda cols: lambda t: t[None],
           np.zeros(1), [IntegratorConfig(ts)], _unrepaired)
    traj, = dynamics._integrate_dp45(*run, _unchanged, ONE_REAL)
    assert traj.stats.interpolated == 3  # every inner sample
    failed, = dynamics._integrate_dp45(*run, on_sample, ONE_REAL)
    assert isinstance(failed, IntegrationDivergedError) and failed.time == 1.0


def test_constant_dense_inputs_run_through_generator():
    from omstirap.hilbert import Generator

    rng = np.random.default_rng(8)
    d = SPACE.total_dim
    h = _random_hermitian(d, rng)
    cs = tuple(
        (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), 0.4) for _ in range(2)
    )
    model = LindbladModel(SPACE, h, cs)
    assert isinstance(model.hamiltonian, Generator)
    assert model.hamiltonian.ops == ()
    np.testing.assert_array_equal(model.hamiltonian.dense(0.3), h)
    rho = _random_density(SPACE, 3).matrix
    direct = lindblad_rhs(model, 0.3, rho)
    dense = _dense_lindblad_rhs(h, cs, rho)
    np.testing.assert_allclose(direct, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))
    via_liou = (liouvillian_matrix(model, 0.3) @ rho.reshape(-1)).reshape(d, d)
    np.testing.assert_allclose(direct, via_liou, rtol=0, atol=1e-12 * np.max(np.abs(dense)))
    # the pure-state path takes the same constant matrix
    psi0 = fock_state(SPACE, 0, 1, 0)
    cfg = IntegratorConfig(sample_times=np.linspace(0.0, 0.5, 3))
    tp = evolve(LindbladModel(SPACE, h), psi0, cfg)
    td = evolve(LindbladModel(SPACE, h, ()), psi0.density_matrix(), cfg)
    for a, b in zip(tp.states, td.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


def test_integrator_stats_count_the_work():
    a = destroy(SPACE, 0).toarray()
    model = LindbladModel(SPACE, None, ((a, KAPPA),))
    rho0 = fock_state(SPACE, 1, 0, 0).density_matrix()
    ts = np.linspace(0.0, 3.0 / KAPPA, 4)
    stops = np.arange(1, 15) * 0.2 / KAPPA  # with the samples, 15 intervals of 0.2/KAPPA
    stats = evolve(model, rho0, IntegratorConfig(sample_times=ts, stops=stops)).stats
    assert stats.accepted >= 15
    # two evaluations choose the first step, six more per attempted step
    assert stats.rhs_evals == 2 + 6 * (stats.accepted + stats.rejected)
    assert 0.0 < stats.h_min <= stats.h_max <= 0.2 / KAPPA * (1 + 1e-12)
    # decay alone reaches only |000><000| from |100><100|; the norm counts all 64
    assert (stats.state_size, stats.norm_size) == (2, 64)


def test_stop_on_a_float_twin_of_a_sample_is_dropped():
    a = destroy(SPACE, 0).toarray()
    model = LindbladModel(SPACE, None, ((a, KAPPA),))
    rho0 = fock_state(SPACE, 1, 0, 0).density_matrix()
    ts = np.linspace(0.0, 1.0 / KAPPA, 5)
    # stops one ulp either side of the inner samples, as another linspace of
    # the same times gives; stepping between twins would underflow the step
    twins = [*np.nextafter(ts[1:4], np.inf), *np.nextafter(ts[1:4], -np.inf)]
    stops = [*twins, 0.6 / KAPPA, -1.0 / KAPPA, 5.0 / KAPPA]  # one real stop, two outside
    traj = evolve(model, rho0, IntegratorConfig(sample_times=ts, stops=stops))
    plain = evolve(model, rho0, IntegratorConfig(sample_times=ts))
    np.testing.assert_array_equal(traj.times, ts)
    assert len(traj.states) == len(ts)
    n_c = number_operator(SPACE, 0)
    for st, ref, t in zip(traj.states, plain.states, ts):
        assert abs(expectation(n_c, st).real - math.exp(-KAPPA * t)) < 1e-7
        assert np.max(np.abs(st.matrix - ref.matrix)) < 1e-7


# ------------------------------------------------ the support of the initial state

def _support_cases():
    """The six table-2 rows, fig3, the criterion-10 full-picture scenario on a
    window across the pulse overlap, and the criterion-1 coherent run at
    dims (3,13,13), each with its (state_size, norm_size)."""
    # real drives: one coordinate of each (Re rho_ij, Im rho_ij) pair of the k = 0
    # sector's 330 is ever nonzero
    cases = {name: (build_scenario(preset_config(name)), (190, 2500)) for name in (
        "table2-stirap-50mK", "table2-stirap-1K", "table2-fstirap-10mK",
        "table2-fstirap-50mK", "table2-fstirap-1K", "fig3")}
    # (|0> + |1>)/sqrt(2) in mode 1 occupies k = 0 and k = +-1: 956 entries
    cases["table2-stirap-10mK"] = (build_scenario(preset_config("table2-stirap-10mK")),
                                   (503, 2500))
    # the a^+ b^+ terms change N by 2: every even k, half of the 1,024 entries
    params = SystemParams.from_ordinary(temperature_k=0.01, omega2_hz=1.2e6, kappa_hz=4e3)
    sched = DriveSchedule("stirap", 8000.0, 0.15e-3 / 1.43, 0.15e-3, 0.15e-3)
    cases["criterion-10-full"] = (Scenario(
        params=params, schedule=sched, initial=InitialStateSpec("fock", n=1),
        dims=(2, 4, 4), horizon=(-0.1e-3, 0.0), sample_count=5,
        picture="full", rel_tol=1e-6,
        abs_tol=1e-9), (512, 1024))
    coherent = json.loads((Path(__file__).parents[1] / "bench" / "coherent507.json").read_text())
    cases["coherent-507"] = (build_scenario(coherent), (235, 507))
    return cases


SUPPORT_CASES = _support_cases()


def _every_index(pieces, start):
    return np.arange(start.size)


@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_reduced_run_matches_unreduced(monkeypatch, name):
    scenario, sizes = SUPPORT_CASES[name]
    reduced = run_scenario(scenario)
    # the reference steps every coordinate with every piece
    monkeypatch.setattr(dynamics, "_support", _every_index)
    monkeypatch.setattr(dynamics, "_real_drive", lambda gen: False)
    full = run_scenario(scenario)
    stats, ref = reduced.summary["integrator"], full.summary["integrator"]
    assert (stats["state_size"], stats["norm_size"]) == sizes
    # d^2 coordinates for rho, and Re and Im of each of the d amplitudes of psi
    pure = name == "coherent-507"
    assert (ref["state_size"], ref["norm_size"]) == ((2 if pure else 1) * sizes[1], sizes[1])
    assert stats["pieces"] <= ref["pieces"]
    for key in ("accepted", "rejected", "rhs_evals"):
        assert stats[key] == ref[key]
    # the pure path's norm sums in another order, which moves psi by rounding
    tol = 1e-8 if pure else 1e-12
    for key in ("h_min", "h_max"):
        assert abs(stats[key] - ref[key]) <= tol
    for key, value in reduced.summary.items():
        if isinstance(value, float) and key != "wall_time_s":
            assert abs(value - full.summary[key]) <= tol, key
    obs, ref_obs = reduced.trajectory.observables, full.trajectory.observables
    assert set(obs) == set(ref_obs)
    for key in obs:
        assert np.max(np.abs(obs[key] - ref_obs[key])) <= tol, key


def test_a_batch_of_a_real_and_a_complex_column_matches_their_solo_runs():
    # the second column's drive phase makes its coefficients complex, so the
    # batch keeps every piece; the first column alone drops the i(K - K') ones
    real = SUPPORT_CASES["table2-stirap-50mK"][0]
    complex_ = replace(real, schedule=tuple(replace(s, phase2=0.7) for s in real.schedule))
    batch = protocols.run_scenarios([real, complex_])
    solo_real, solo_complex = run_scenario(real), run_scenario(complex_)
    sizes = [(r.summary["integrator"]["state_size"], r.summary["integrator"]["pieces"])
             for r in (*batch, solo_real, solo_complex)]
    assert sizes == [(330, 5), (330, 5), (190, 3), (330, 5)]
    for got, want in zip(batch, (solo_real, solo_complex)):
        stats, ref = got.summary["integrator"], want.summary["integrator"]
        for key in ("accepted", "rejected", "rhs_evals", "clamped", "interpolated"):
            assert stats[key] == ref[key], key
        for key, value in want.summary.items():
            if isinstance(value, float) and key != "wall_time_s":
                assert abs(got.summary[key] - value) <= 1e-12, key
        for key, series in want.trajectory.observables.items():
            assert np.max(np.abs(got.trajectory.observables[key] - series)) <= 1e-12, key


def test_superoperator_pieces_are_the_kron_formula():
    rng = np.random.default_rng(22)
    spec = _equivalence_spec("full")
    sp = spec.space
    d = sp.total_dim
    gen = hamiltonian_generator(**vars(spec))
    h0 = KAPPA * _random_hermitian(d, rng)
    model = LindbladModel(sp, Generator(sp, h0, gen.ops, gen.coefficients),
                          tuple(thermal_collapse_terms(sp, spec.params)))
    kron, eye = scipy.sparse.kron, scipy.sparse.identity(d, dtype=complex, format="csr")
    m = -1j * model.hamiltonian.h0
    for c, rate in model.collapse_terms:
        m = m - 0.5 * rate * (c.conj().T @ c)
    want = [kron(m, eye) + kron(eye, m.conj())
            + sum(rate * kron(c, c.conj()) for c, rate in model.collapse_terms)]
    want += [-1j * (kron(op, eye) - kron(eye, op.T))
             for a in model.hamiltonian.ops for op in (a, a.conj().T)]
    l0, parts = dynamics._superoperator_pieces(model)
    assert len(parts) == 8
    for got, ref in zip((l0, *parts), want):
        assert got.format == "csr" and got.dtype == complex
        ref = ref.toarray()
        assert np.max(np.abs(got.toarray() - ref)) <= 1e-15 * np.max(np.abs(ref))


# ------------------------------------------------------------- dense output

#: rhs evaluations of each preset when the inner samples are read from the
#: continuous extension; ending a step on every sample took 13,346 in all
DENSE_RHS_EVALS = {"table2-stirap-10mK": 1502, "table2-stirap-50mK": 1652,
                   "table2-stirap-1K": 1130, "table2-fstirap-10mK": 1490,
                   "table2-fstirap-50mK": 1562, "table2-fstirap-1K": 1196, "fig3": 2966}


@functools.lru_cache(maxsize=None)
def _run_case(name):
    return run_scenario(SUPPORT_CASES[name][0])


@pytest.mark.parametrize("name", sorted(DENSE_RHS_EVALS))
def test_presets_take_no_more_steps_than_with_dense_output(name):
    stats = _run_case(name).summary["integrator"]
    assert stats["rhs_evals"] <= DENSE_RHS_EVALS[name]
    spacing = np.diff(_run_case(name).trajectory.times).max()
    assert stats["h_max"] > spacing and stats["interpolated"] > 0


@pytest.mark.parametrize("name", sorted(DENSE_RHS_EVALS))
def test_dense_output_matches_a_step_end_on_every_sample(monkeypatch, name):
    dense = _run_case(name)
    times = dense.trajectory.times
    centres = protocols.pulse_centres
    monkeypatch.setattr(protocols, "pulse_centres",
                        lambda schedule: [*centres(schedule), *times[1:-1]])
    clamped = run_scenario(SUPPORT_CASES[name][0])
    stats = clamped.summary["integrator"]
    assert stats["interpolated"] == 0
    assert stats["rhs_evals"] > dense.summary["integrator"]["rhs_evals"]
    for key, value in clamped.summary.items():
        if isinstance(value, float) and key != "wall_time_s":
            assert abs(dense.summary[key] - value) <= 1e-8, key
    # each run carries its own error of the order of rel_tol in every entry
    for a, b in zip(dense.trajectory.states, clamped.trajectory.states):
        assert np.max(np.abs(a.matrix - b.matrix)) <= 2e-8


@pytest.mark.parametrize("name", [*sorted(DENSE_RHS_EVALS), "coherent-507"])
def test_stacked_observables_match_the_per_sample_functions(name):
    scenario, result = SUPPORT_CASES[name][0], _run_case(name)
    space = HilbertSpace(scenario.dims)
    obs, states = result.trajectory.observables, result.trajectory.states
    bm, bp = collective_operators(space, scenario.params, None)
    want = {"n_plus": [expectation(bp.conj().T @ bp, st).real for st in states],
            "n_minus": [expectation(bm.conj().T @ bm, st).real for st in states]}
    # the negativity as the sum of the negative eigenvalues' magnitudes of the
    # partial transpose
    evals = [np.linalg.eigvalsh(partial_transpose(partial_trace(st, ("mech1", "mech2"))))
             for st in states]
    want["negativity"] = [-ev[ev < 0].sum() for ev in evals]
    target = scenario.target.state(scenario.dims)
    reduced = [partial_trace(st, TargetSpec.REDUCTIONS[scenario.target.kind]).matrix
               for st in states]
    if isinstance(target, StateVector):  # <psi|rho|psi>
        psi = target.amplitudes
        want["fidelity"] = [(psi.conj() @ r @ psi).real for r in reduced]
    else:  # a diagonal target, against which the excitation number keeps rho diagonal
        sigma = np.diag(target.matrix).real
        assert np.count_nonzero(target.matrix - np.diag(sigma)) == 0
        for r in reduced:
            assert np.count_nonzero(r - np.diag(np.diag(r))) == 0
        # commuting states: F = (sum_n sqrt(p_n sigma_n))^2
        want["fidelity"] = [np.sum(np.sqrt(np.clip(np.diag(r).real, 0.0, None) * sigma)) ** 2
                            for r in reduced]
    for n, mode in (("nc", 0), ("n1", 1), ("n2", 2)):
        want[n] = [expectation(number_operator(space, mode), st).real for st in states]
    for key, series in want.items():
        assert np.max(np.abs(obs[key] - np.array(series))) <= 1e-13, key


def test_effective_l0_is_the_term_by_term_formula():
    rng = np.random.default_rng(21)
    space = HilbertSpace((2, 3, 3))
    d = space.total_dim
    params = SystemParams.from_ordinary(temperature_k=1.0)
    h0 = KAPPA * _random_hermitian(d, rng)
    model = LindbladModel(space, h0, tuple(thermal_collapse_terms(space, params)))
    eye = np.eye(d)
    want = -1j * (np.kron(h0, eye) - np.kron(eye, h0.T))
    for c, rate in model.collapse_terms:
        c = c.toarray()
        cd_c = c.conj().T @ c
        want += rate * (np.kron(c, c.conj()) - 0.5 * (np.kron(cd_c, eye) + np.kron(eye, cd_c.T)))
    got = dynamics._superoperator_pieces(model)[0].toarray()
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=25, deadline=None)
@given(picture=st.sampled_from(["rwa", "bs"]), seed=st.integers(0, 2**32 - 1),
       levels=st.sets(st.integers(0, 7), min_size=1), coherences=st.booleans())
def test_excitation_diagonal_inputs_stay_in_the_k0_sector(picture, seed, levels, coherences):
    space = HilbertSpace((2, 4, 4))
    params = SystemParams.from_ordinary(temperature_k=0.01)
    sched = DriveSchedule("stirap", 2000.0, 0.15e-3 / 1.43, 0.15e-3, 0.15e-3)
    h = hamiltonian_generator(params, (sched,), space, picture)
    model = LindbladModel(space, h, tuple(thermal_collapse_terms(space, params)))
    rng = np.random.default_rng(seed)
    d = space.total_dim
    n = np.array([sum(space.multi_index(i)) for i in range(d)])
    rho = np.zeros((d, d), dtype=complex)
    for level in levels:
        block = np.flatnonzero(n == level)
        x = rng.normal(size=(block.size, block.size))
        if coherences:
            x = x + 1j * rng.normal(size=x.shape)
        else:
            x = np.diag(np.abs(np.diag(x)) + 0.1)
        rho[np.ix_(block, block)] = x @ x.conj().T
    sector = np.flatnonzero(n[:, None] == n[None, :])
    assert sector.size == 168

    def entries(coords):  # of vec(rho), that the stepped coordinates stand for
        return np.flatnonzero(abs(coords._expand[:, coords.order]).sum(axis=1))

    # every piece reaches all of the sector and nothing else
    coords = dynamics._hermitian_half(d)
    const, parts = _reach(coords, dynamics._superoperator_pieces(model), rho.reshape(-1))
    np.testing.assert_array_equal(entries(coords), sector)
    # the pieces a run steps, which drop every i(K - K') for real drives, step
    # every nonzero coordinate of rho and stay in the sector
    start = coords.coordinates(rho.reshape(-1)) != 0
    if dynamics._real_drive(h):
        coords.restrict(dynamics._support((const, *parts[::2]), start))
    assert np.isin(np.flatnonzero(start), coords.order).all()
    assert np.isin(entries(coords), sector).all()
