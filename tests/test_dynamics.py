import json
from dataclasses import replace
import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omstirap import dynamics
from omstirap.cli import build_scenario
from omstirap.dynamics import (
    IntegratorConfig,
    LindbladModel,
    evolve,
    evolve_pure,
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
    hamiltonian_generator,
)
from omstirap.presets import preset_config
from omstirap.protocols import InitialStateSpec, Scenario, run_scenario

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
    tp = evolve_pure(h, psi0, sp, cfg)
    td = evolve(LindbladModel(sp, h, ()), psi0.density_matrix(), cfg)
    for a, b in zip(tp.states, td.states):
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-7


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
        evolve_pure(np.zeros((8, 8)), psi0, SPACE, IntegratorConfig(sample_times=[0.0, 1e-3]))
    assert info.value.tolerance == dynamics.TRACE_SAMPLE_TOL


def test_pure_path_rejects_the_drift_the_density_path_rejects():
    # |psi|^2 = 1 + 1e-3 passes neither path's sample check
    psi0 = StateVector(SPACE, math.sqrt(1 + 1e-3) * fock_state(SPACE, 1, 0, 0).amplitudes,
                       validate=False)
    config = IntegratorConfig(sample_times=[0.0, 1e-3])
    for run in (lambda: evolve_pure(np.zeros((8, 8)), psi0, SPACE, config),
                lambda: evolve(LindbladModel(SPACE, None), psi0.density_matrix(), config)):
        with pytest.raises(IntegrationDivergedError, match="trace drift 1.000e-03 exceeded 1e-06"):
            run()


def _nan_after(t_nan):
    """A generator whose one coefficient turns NaN after ``t_nan``."""
    op = destroy(SPACE, 0).conj().T @ destroy(SPACE, 1)
    return Generator(SPACE, None, [op], lambda t: [math.nan if t > t_nan else 2e3])


def test_non_finite_state_is_divergence_not_step_underflow():
    # the samples put a step end on 1e-4; every stage after it sees a NaN
    config = IntegratorConfig(sample_times=np.linspace(0.0, 1e-3, 11))
    psi0 = fock_state(SPACE, 0, 1, 0)
    for run in (lambda: evolve(LindbladModel(SPACE, _nan_after(1e-4)), psi0.density_matrix(),
                               config),
                lambda: evolve_pure(_nan_after(1e-4), psi0, SPACE, config)):
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


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_cut_rhs_matches_the_liouvillian_on_the_support(picture):
    spec = _equivalence_spec(picture)
    sp = spec.space
    model = LindbladModel(sp, hamiltonian_generator(**vars(spec)),
                          thermal_collapse_terms(sp, spec.params))
    d = sp.total_dim
    l0, parts = dynamics._superoperator_pieces(model)
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    rho0 = fock_state(sp, 0, 1, 0).density_matrix().matrix
    keep = dynamics._support((l0, *parts), rho0.reshape(-1) != 0, transpose)
    assert 0 < keep.size < d * d
    rhs = dynamics._linear_rhs(l0, parts, keep)
    rng = np.random.default_rng(11)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        v = rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size)
        ref = liouvillian_matrix(model, t)[np.ix_(keep, keep)] @ v
        got = rhs(model.hamiltonian.coefficients(t)[:, None], v[None])[0]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_cut_pure_rhs_matches_the_hamiltonian_on_the_support(picture):
    spec = _equivalence_spec(picture)
    gen = hamiltonian_generator(**vars(spec))
    h0 = -1j * gen.h0
    parts = [-1j * op for a in gen.ops for op in (a, a.conj().T)]
    psi0 = fock_state(spec.space, 0, 1, 0).amplitudes
    keep = dynamics._support((h0, *parts), psi0 != 0)
    assert 0 < keep.size < spec.space.total_dim
    rhs = dynamics._linear_rhs(h0, parts, keep)
    rng = np.random.default_rng(12)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        v = rng.normal(size=keep.size) + 1j * rng.normal(size=keep.size)
        ref = (-1j * gen.dense(t))[np.ix_(keep, keep)] @ v
        got = rhs(gen.coefficients(t)[:, None], v[None])[0]
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def _unchanged(t, y):
    return y


def _unrepaired(y):
    return y, np.ones(len(y))


def _no_terms(cols):
    return lambda t: np.zeros((0,) + t.shape)


def test_dp45_steps_the_linear_test_equation_by_its_stability_polynomial():
    lam, h, n = -0.8 + 2.5j, 0.02, 50
    # stops at every spacing and a loose tolerance: each step is clamped to h
    config = IntegratorConfig(sample_times=[0.0, n * h], rel_tol=1e-3, abs_tol=1e-6,
                              stops=h * np.arange(1, n))
    traj, = dynamics._integrate_dp45(lambda c, y: lam * y, _no_terms, np.ones(1, dtype=complex),
                                     [config], _unrepaired, _unchanged, 1)
    assert (traj.stats.accepted, traj.stats.rejected) == (n, 0)
    z = lam * h
    r = sum(z**k / math.factorial(k) for k in range(6)) + z**6 / 600
    assert abs(traj.states[-1][0] - r**n) <= 1e-13 * abs(r**n)


def test_dp45_integrates_a_quadratic_exactly():
    ts = np.linspace(0.0, 2.0, 5)
    # the one coefficient is the time itself: c(t) = t
    traj, = dynamics._integrate_dp45(lambda c, y: 3.0 * c.T * c.T, lambda cols: lambda t: t[None],
                                     np.zeros(1, dtype=complex), [IntegratorConfig(ts)],
                                     _unrepaired, _unchanged, 1)
    # fifth-order quadrature is exact for t^2, and the error estimate is zero but for rounding
    assert traj.stats.rejected == 0
    for t, y in zip(ts, traj.states):
        assert abs(y[0] - t**3) <= 1e-14 * max(1.0, t**3)


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
    tp = evolve_pure(h, psi0, SPACE, cfg)
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
    cases = {name: (build_scenario(preset_config(name)), (330, 2500)) for name in (
        "table2-stirap-50mK", "table2-stirap-1K", "table2-fstirap-10mK",
        "table2-fstirap-50mK", "table2-fstirap-1K", "fig3")}
    # (|0> + |1>)/sqrt(2) in mode 1 occupies k = 0 and k = +-1
    cases["table2-stirap-10mK"] = (build_scenario(preset_config("table2-stirap-10mK")),
                                   (956, 2500))
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


def _every_index(pieces, start, mirror=None):
    return np.arange(start.size)


@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_reduced_run_matches_unreduced(monkeypatch, name):
    scenario, sizes = SUPPORT_CASES[name]
    reduced = run_scenario(scenario)
    monkeypatch.setattr(dynamics, "_support", _every_index)
    full = run_scenario(scenario)
    stats, ref = reduced.summary["integrator"], full.summary["integrator"]
    assert (stats["state_size"], stats["norm_size"]) == sizes
    assert ref["state_size"] == ref["norm_size"] == sizes[1]
    for key in ("accepted", "rejected", "rhs_evals"):
        assert stats[key] == ref[key]
    # the pure path's norm sums in another order, which moves psi by rounding
    tol = 1e-8 if name == "coherent-507" else 1e-12
    for key in ("h_min", "h_max"):
        assert abs(stats[key] - ref[key]) <= tol
    for key, value in reduced.summary.items():
        if isinstance(value, float) and key != "wall_time_s":
            assert abs(value - full.summary[key]) <= tol, key
    obs, ref_obs = reduced.trajectory.observables, full.trajectory.observables
    assert set(obs) == set(ref_obs)
    for key in obs:
        assert np.max(np.abs(obs[key] - ref_obs[key])) <= tol, key


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
    transpose = np.arange(d * d).reshape(d, d).T.reshape(-1)
    l0, parts = dynamics._superoperator_pieces(model)
    keep = dynamics._support((l0, *parts), rho.reshape(-1) != 0, transpose)
    np.testing.assert_array_equal(keep, np.flatnonzero(n[:, None] == n[None, :]))
    assert keep.size == 168
