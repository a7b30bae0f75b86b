import collections
import functools
import json
from dataclasses import replace
import math
import pickle
from pathlib import Path
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

from omstirap import analysis, dynamics, model, protocols
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
    _run,
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


def _one_row(rhs_of, w, y):
    """The rhs of the one state ``y`` from its weights ``w``, written by the
    calls of a batch of one into a row of zeros."""
    out = np.zeros((1, y.size))
    _run(rhs_of(1)(w, y[None], out))
    return out[0]


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
    rhs_of = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(11)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y = rng.normal(size=coords.order.size)
        ref = liouvillian_matrix(model, t) @ coords.vector(y)
        w = dynamics._weights(model.hamiltonian.at(t)[:, None])
        got = coords.vector(_one_row(rhs_of, w, y))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_cut_pure_rhs_matches_the_hamiltonian_on_the_support(picture):
    spec = _equivalence_spec(picture)
    gen = hamiltonian_generator(**vars(spec))
    d = spec.space.total_dim
    coords = dynamics._RealCoordinates(np.arange(0), np.arange(d))
    g0, *parts = dynamics._generators(LindbladModel(spec.space, gen))
    const, parts = _reach(coords, (g0, parts), fock_state(spec.space, 0, 1, 0).amplitudes)
    assert 0 < coords.order.size < 2 * d
    rhs_of = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(12)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y = rng.normal(size=coords.order.size)
        ref = -1j * gen.dense(t) @ coords.vector(y)
        got = coords.vector(_one_row(rhs_of, dynamics._weights(gen.at(t)[:, None]),
                                     y))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("picture", ["rwa", "bs", "full"])
def test_hermitian_half_reproduces_the_complex_rhs_and_error_norm(picture):
    model, coords, const, parts = _cut_pieces(picture)
    d = model.space.total_dim
    real_rhs_of = dynamics._linear_rhs(const, parts, coords.order)
    rng = np.random.default_rng(14)
    for t in rng.uniform(-1e-3, 2e-3, size=4):
        y, e = (rng.normal(size=coords.order.size) for _ in range(2))
        rho = coords.vector(y)
        # the coordinates are those of a Hermitian matrix, and read back exactly
        np.testing.assert_array_equal(rho.reshape(d, d), rho.reshape(d, d).conj().T)
        np.testing.assert_array_equal(coords.coordinates(rho)[coords.order], y)
        # the rhs, real and complex, from the same coefficients
        c = model.hamiltonian.at(t)[:, None]
        ref = dynamics._liouvillian(model, t) @ rho
        got = coords.vector(_one_row(real_rhs_of, dynamics._weights(c), y))
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))
        _assert_error_norm_is_the_complex_rms(coords, y, e)
    # psi's coordinates, and both forms cut as a real drive cuts them, where a
    # stepped coordinate's pair partner is not stepped
    sp, psi0 = model.space, fock_state(model.space, 0, 1, 0)
    lossless = LindbladModel(sp, model.hamiltonian)
    cuts = []
    for imaginary in (True, False):
        psi = dynamics._RealCoordinates(np.arange(0), np.arange(d))
        g0, *gens = dynamics._generators(lossless, imaginary)
        _reach(psi, (g0, gens), psi0.amplitudes)
        cuts.append(psi)
    rho = dynamics._hermitian_half(d)
    _reach(rho, dynamics._superoperator_pieces(model, imaginary=False),
           psi0.density_matrix().matrix.reshape(-1))
    cuts.append(rho)
    # every amplitude of psi is a pair; the real cut steps one coordinate of each,
    # and of some off-diagonal pairs of rho
    assert cuts[0]._unpaired == 0 and cuts[1]._unpaired == cuts[1].order.size
    assert rho._unpaired > rho._stepped_real
    for coords in cuts:
        for _ in range(4):
            _assert_error_norm_is_the_complex_rms(
                coords, *(rng.normal(size=coords.order.size) for _ in range(2)))


def _assert_error_norm_is_the_complex_rms(coords, y, e):
    """The error norm of the error ``e`` of a step from ``y`` is the RMS over
    all ``size`` entries of the complex error scaled by atol + rtol |v|: each
    pair counts for each entry it stands for (rho_ij and rho_ji, or one psi_i),
    scaled by the modulus of its entry."""
    v, err = coords.vector(y), coords.vector(e)
    rtol, atol = 1e-3, 1e-6 * np.max(np.abs(v))
    want = np.sqrt(np.mean(np.abs(err / (atol + rtol * np.abs(v))) ** 2))
    norms, calls = coords.error_norm(y[None], y[None], e[None].copy(), rtol, atol)
    _run(calls)
    have, = norms()
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
    out = np.zeros((columns, wide.shape[0]), dtype=dtype)  # the calls add into zeros
    calls = dynamics._csr_product(wide, x, out)
    _run(calls)
    got, want = out.T, wide @ x
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    x *= -0.5  # written in place, read again through the views the calls hold
    out.fill(0)
    _run(calls)
    assert out.T.tobytes() == (wide @ x).tobytes()


@pytest.mark.parametrize("terms", range(2, 8))
@pytest.mark.parametrize("columns", [1, 3])
def test_stage_sum_is_bitwise_the_einsum(columns, terms):
    rng = np.random.default_rng(16)
    coef = rng.normal(size=(terms, columns))
    coef[1] = 0.0  # a zero weight, as the tableau has, still adds its term
    stages = rng.normal(size=(terms, columns, 190)) * 10.0 ** rng.integers(-12, 3, (terms, 1, 1))
    out = np.zeros((columns, 190))  # the kernel adds into zeros
    stage_sum = dynamics._stage_sum(coef, stages, out)
    _run(stage_sum)
    assert out.tobytes() == np.einsum("bj,jbk->bk", coef.T, stages).tobytes()
    coef *= -0.5  # written in place, read again through the views the call holds
    stages[0] += 1.0
    out.fill(0.0)
    _run(stage_sum)
    assert out.tobytes() == np.einsum("bj,jbk->bk", coef.T, stages).tobytes()


@pytest.mark.parametrize("columns", [1, 3])
def test_in_place_rhs_is_bitwise_the_wide_product(columns):
    _, coords, const, parts = _cut_pieces("bs")
    pieces = [p[coords.order][:, coords.order] for p in (const, *parts)]
    wide = scipy.sparse.hstack(pieces, format="csr")
    bind = dynamics._linear_rhs(const, parts, coords.order)(columns)
    w, y = np.empty((len(pieces), columns)), np.empty((columns, wide.shape[0]))
    out = np.empty((columns, wide.shape[0]))
    calls = bind(w, y, out)
    rng = np.random.default_rng(17)
    for _ in range(2):  # the calls read the buffers they are bound to as those hold them then
        w[:], y[:] = rng.normal(size=w.shape), rng.normal(size=y.shape)
        x = np.multiply(w[:, None, :], y.T, order="C").reshape(-1, columns)
        out.fill(0.0)
        _run(calls)
        assert out.tobytes() == np.ascontiguousarray((wide @ x).T).tobytes()


def _plain_coefficients(rule, picture, t):
    """c_k at the times ``t`` by the broadcast formula of the rule's parameters,
    one whole-array expression per step, always complex: each Gaussian cut
    beyond 8 widths, the components and the schedules' phased envelopes
    summed, then coupling times amplitude times e^{i r t}, summed over the
    term's pumps."""
    u = (t - rule.centre) / rule.width
    pulses = np.where(np.abs(u) > 8.0, 0.0, np.exp(-(u * u)) * rule.amplitude)
    z = functools.reduce(np.add, (pulses[:, :, 0] + pulses[:, :, 1]) * rule.phase)
    pumps = np.array([pumps for _, _, pumps in model._TERMS[picture]])
    terms = rule.coupling * z[pumps] * np.exp(rule.rate * t)
    return functools.reduce(np.add, terms.swapaxes(0, 1))


def _drive(picture, drives, cols=None):
    """The picture's generator on a small space with the rule of ``drives``,
    and the columns ``cols`` of it to weigh (all of them by default)."""
    rule = DriveCoefficients(picture, drives)
    ops = hamiltonian_generator(*drives[0], HilbertSpace((2, 2, 2)), picture).ops
    return Generator(HilbertSpace((2, 2, 2)), None, ops, rule), cols or list(range(len(drives)))


_PARAMS = SystemParams.from_ordinary(temperature_k=0.01)
_DETUNED = SystemParams.from_ordinary(temperature_k=0.01, delta1_hz=1.2e6 + 300.0,
                                      delta2_hz=1.8e6 - 40.0)
_FRAC = DriveSchedule("fractional", 2000.0, 0.42e-3, 0.6e-3, 0.5e-3, theta=1.0)
_TRAIN = [replace(_FRAC, phase2=0.3),
          DriveSchedule("reversed_fractional", 1500.0, 0.42e-3, 0.6e-3, 0.5e-3, theta=1.0,
                        t0=2e-3, phase2=-1.2)]
_CONSTANT = DriveSchedule("constant", 900.0, 0.42e-3, 0.6e-3, 0.5e-3)
DRIVES = {
    "rwa-real": ("rwa", [(_PARAMS, _FRAC)]),
    "bs-phase2": ("bs", [(_PARAMS, replace(_FRAC, phase2=0.7))]),
    "full": ("full", [(_PARAMS, _FRAC)]),
    "fringe-train": ("rwa", [(_PARAMS, _TRAIN)]),
    "take-3-of-4": ("bs", [(_PARAMS, _FRAC), (_DETUNED, _TRAIN), (_DETUNED, _CONSTANT),
                           (_PARAMS, replace(_FRAC, kind="stirap"))], [0, 2, 3]),
    "constant": ("rwa", [(_PARAMS, _CONSTANT)]),
}


@pytest.mark.parametrize("case", sorted(DRIVES))
def test_stage_weights_are_bitwise_the_weights_of_the_rule(case):
    picture, drives, *cols = DRIVES[case]
    gen, cols = _drive(picture, drives, *cols)
    rule = gen.coefficients.take(cols)
    assert rule.real == (case in ("rwa-real", "constant"))
    # step starts across every pulse, and steps whose stage times straddle the 8-width
    # cuts of pump 2's early pulse (-4.42e-3, 3.58e-3) and pump 1's late one (-4.38e-3)
    starts = [-6e-3, -4.43e-3, -4.39e-3, -1e-3, -1e-4, 0.0, 7e-4, 2.1e-3, 3.57e-3, 5e-3]
    for t0 in starts:
        t = t0 + 1e-5 * np.arange(len(cols))
        h = 2e-5 * (1.0 + np.arange(len(cols)))
        times = t + dynamics._C * h  # the six stage times of each column
        for imaginary in (True, False):
            buffer = np.empty_like(times)
            w, calls = dynamics._weights_of(gen, len(drives), imaginary)(cols)(buffer)
            buffer[:] = times  # the calls read the buffer as it holds then
            _run(calls)
            assert w.shape == (1 + (1 + imaginary) * len(gen.ops),) + times.shape
            want = dynamics._weights(rule(times), imaginary)
            assert w.tobytes() == want.tobytes(), (t0, imaginary)
            plain = dynamics._weights(_plain_coefficients(rule, picture, times), imaginary)
            assert w.tobytes() == plain.tobytes(), (t0, imaginary)


def _scipy_calls_in_attempts(run):
    """Every call into scipy.sparse that ``run()`` makes from the attempt loop of
    ``dynamics._integrate_dp45``, by name: the calls made with that function on
    the stack but neither the first step's :func:`dynamics._initial_steps` nor
    the ``plan_of`` that binds a batch's calls.  A call made by a function that
    the loop calls, not by the loop itself, is named with that function's."""
    loop = dynamics._integrate_dp45.__code__
    once = {dynamics._initial_steps.__code__,
            *(c for c in loop.co_consts if getattr(c, "co_name", None) == "plan_of")}
    assert len(once) == 2
    found = collections.Counter()

    def profile(frame, event, arg):
        if event == "c_call":  # a builtin, called from ``frame``
            module, name = getattr(arg, "__module__", None) or "", arg.__name__
            if frame.f_code is not loop:
                name = f"{name} in {frame.f_code.co_name}"
        elif event == "call":  # a Python function, whose frame is ``frame``
            module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
            frame = frame.f_back
        else:
            return
        if not module.startswith("scipy.sparse"):
            return
        codes = set()
        while frame is not None:
            codes.add(frame.f_code)
            frame = frame.f_back
        if loop in codes and not once & codes:
            found[name] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, found


@pytest.mark.parametrize("state", ["rho", "psi"])
def test_an_attempt_calls_scipy_only_in_its_thirteen_kernel_calls(state):
    # the attempt plan: 6 CSR calls, one per stage, and 7 CSC calls, 5 stage inputs,
    # y5 and the error, plus one CSC call per sample read inside a step; a change
    # that brings back per-stage dispatch through scipy.sparse fails this
    spec = _equivalence_spec("bs")
    jumps = thermal_collapse_terms(spec.space, spec.params) if state == "rho" else []
    lindblad = LindbladModel(spec.space, hamiltonian_generator(**vars(spec)), jumps)
    config = IntegratorConfig(np.linspace(-3e-3, 4e-3, 9), rel_tol=1e-6, abs_tol=1e-8)
    traj, found = _scipy_calls_in_attempts(
        lambda: evolve(lindblad, fock_state(spec.space, 0, 1, 0), config))
    attempts = traj.stats.accepted + traj.stats.rejected
    assert attempts > 20 and traj.stats.interpolated > 0
    assert dict(found) == {"csr_matvec": 6 * attempts,
                           "csc_matvecs": 7 * attempts + traj.stats.interpolated}


def _unchanged(t, y):
    return y


def _in_place(f):
    """The rhs of every batch width whose one call writes f(w, y) of the buffers
    it is bound to into its output."""
    return lambda width: lambda w, y, out: [(lambda: np.copyto(out, f(w, y)), ())]


def _unrepaired(y, out):
    return np.ones(len(y)), [(np.copyto, (out, y))]


def _no_terms(cols):
    return lambda t: (np.zeros((0,) + t.shape), [])


def _times(cols):
    """The one weight c(t) = t: the buffer of times itself."""
    return lambda t: (t[None], [])


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
    traj, = dynamics._integrate_dp45(_in_place(lambda c, y: y @ m.T), _no_terms,
                                     np.array([1.0, 0.0]), [config], _unrepaired, _unchanged,
                                     ONE_COMPLEX)
    assert (traj.stats.accepted, traj.stats.rejected) == (n, 0)
    z = lam * h
    r = sum(z**k / math.factorial(k) for k in range(6)) + z**6 / 600
    assert abs(complex(*traj.samples[-1]) - r**n) <= 1e-13 * abs(r**n)


def test_dp45_integrates_a_quadratic_exactly():
    ts = np.linspace(0.0, 2.0, 5)
    # the one coefficient is the time itself: c(t) = t
    traj, = dynamics._integrate_dp45(_in_place(lambda c, y: 3.0 * c.T * c.T), _times,
                                     np.zeros(1), [IntegratorConfig(ts)],
                                     _unrepaired, _unchanged, ONE_REAL)
    # fifth-order quadrature is exact for t^2, and the error estimate is zero but for rounding
    assert traj.stats.rejected == 0
    for t, y in zip(ts, traj.samples):
        assert abs(y[0] - t**3) <= 1e-14 * max(1.0, t**3)
    # the steps grow fivefold, so the inner samples come from the quartic extension
    assert traj.stats.interpolated > 0


def test_the_step_factor_is_the_rule_of_accepted_and_rejected_steps():
    # an accepted step's factor was max(0.2, min(5, 0.9 err^-1/5)), 5 at err = 0, and a
    # rejected one's max(0.2, 0.9 err^-1/5): there err > 1, so the min returns its argument
    for err in (0.0, 1e-300, 1e-5, 0.5, 1.0):
        accepted = max(0.2, 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2))
        assert dynamics._step_factor(err).hex() == accepted.hex()
    for err in (1.0 + 2.0 ** -52, 3.2, 1e300):
        assert dynamics._step_factor(err).hex() == max(0.2, 0.9 * err ** -0.2).hex()


def test_a_step_whose_norm_drifts_fails_its_column_at_the_step_end():
    # y' = y from y = 1, with y^2 reported as the norm: the first step, to t ~ 0.01,
    # is accepted, and its norm e^2t is 2% from 1
    def repair(y, out):
        norms = np.empty(len(y))
        return norms, [(np.copyto, (out, y)), (lambda: np.square(y).sum(axis=-1, out=norms), ())]

    failed, = dynamics._integrate_dp45(_in_place(lambda c, y: y), _no_terms, np.ones(1),
                                       [IntegratorConfig([0.0, 1.0])], repair, _unchanged,
                                       ONE_REAL)
    assert isinstance(failed, IntegrationDivergedError)
    assert failed.time == pytest.approx(0.01, rel=1e-2)
    assert failed.drift == pytest.approx(math.expm1(2 * failed.time), rel=1e-9)
    assert failed.tolerance == dynamics.TRACE_DIVERGENCE_TOL


def test_lossless_coherent_transfer_takes_its_recorded_step_sequence():
    # criterion 1 at dims (3,13,13), the config of bench/coherent507.json: a change to
    # the order or rounding of the stage sums, the error norm or the controller moves
    # these counts
    cfg = {"system": {"omega1_hz": 1.2e6, "omega2_hz": 1.8e6, "kappa_hz": 2e3, "g1_hz": 2.5,
                      "g2_hz": 2.5, "q1": 1e9, "q2": 1e9, "temperature_k": 0.0},
           "schedule": {"kind": "fractional", "alpha0": 8000.0, "tau_s": 4.8e-4,
                        "sigma1_s": 6e-4, "sigma2_s": 6e-4, "theta_rad": math.pi / 4},
           "dims": [3, 13, 13], "initial": {"kind": "coherent", "alpha": 1.0},
           "horizon": {"start_s": -2.4e-3, "end_s": 2.4e-3}, "sample_count": 2,
           "lossless": True, "eval_time_s": 2.4e-3,
           "target": {"kind": "product_coherent", "alpha": 1.0, "theta_rad": math.pi / 4}}
    stats = run_scenario(build_scenario(cfg)).summary["integrator"]
    assert {key: stats[key] for key in ("accepted", "rejected", "rhs_evals", "clamped",
                                        "interpolated", "state_size")} == {
        "accepted": 683, "rejected": 36, "rhs_evals": 4316, "clamped": 3, "interpolated": 0,
        "state_size": 235}


@pytest.mark.parametrize("preset, counts", [
    ("fig3", (473, 21, 2966, 5, 159, 190)),
    ("table2-stirap-10mK", (238, 12, 1502, 3, 79, 503)),
])
def test_presets_take_their_recorded_step_sequences(preset, counts):
    # fig3 reads 159 samples from the continuous extension over 473 accepted steps,
    # and table2-stirap-10mK steps 503 coordinates of rho's Hermitian half: a change
    # to the order or rounding of the piece weights, the stage sums, the error norm,
    # the dense output or the controller moves these counts
    stats = run_scenario(build_scenario(preset_config(preset))).summary["integrator"]
    assert tuple(stats[key] for key in ("accepted", "rejected", "rhs_evals", "clamped",
                                        "interpolated", "state_size")) == counts


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

    run = (_in_place(lambda c, y: 3.0 * c.T * c.T), _times, np.zeros(1), [IntegratorConfig(ts)],
           _unrepaired)
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
    # batch keeps every piece; the first column alone drops the -i Y_k ones
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


def test_a_psi_batch_with_partial_accepts_matches_its_solo_runs():
    # three lossless coherent transfers, stepped as psi: their rejections differ, so
    # some attempts accept some columns only, which renormalizes those rows in a copy
    def scenario(theta):
        return build_scenario({
            "schedule": {"kind": "fractional", "alpha0": 8000.0, "tau_s": 4.8e-4,
                         "sigma1_s": 6e-4, "sigma2_s": 6e-4, "theta_rad": theta},
            "system": {"omega1_hz": 1.2e6, "omega2_hz": 1.8e6, "g1_hz": 2.5, "g2_hz": 2.5},
            "dims": [2, 5, 5], "initial": {"kind": "coherent", "alpha": 0.5},
            "horizon": {"start_s": -2.4e-3, "end_s": 2.4e-3}, "sample_count": 9,
            "lossless": True})

    scenarios = [scenario(theta) for theta in (math.pi / 6, math.pi / 4, math.pi / 3)]
    assert protocols.batches(scenarios) == [[0, 1, 2]]
    batch = protocols.run_scenarios(scenarios)
    assert len({got.trajectory.stats.rejected for got in batch}) == 3
    for got, scenario in zip(batch, scenarios):
        want = run_scenario(scenario).trajectory
        assert not want.coords.hermitian
        assert got.trajectory.stats == want.stats
        assert got.trajectory.samples.tobytes() == want.samples.tobytes()


def _kron_model():
    """The full-picture model with a random H0 and the thermal jumps."""
    rng = np.random.default_rng(22)
    spec = _equivalence_spec("full")
    sp = spec.space
    gen = hamiltonian_generator(**vars(spec))
    h0 = KAPPA * _random_hermitian(sp.total_dim, rng)
    return LindbladModel(sp, Generator(sp, h0, gen.ops, gen.coefficients),
                         tuple(thermal_collapse_terms(sp, spec.params)))


def test_superoperator_pieces_are_the_kron_formula():
    model = _kron_model()
    d = model.space.total_dim
    kron, eye = scipy.sparse.kron, scipy.sparse.identity(d, dtype=complex, format="csr")
    m = -1j * model.hamiltonian.h0
    for c, rate in model.collapse_terms:
        m = m - 0.5 * rate * (c.conj().T @ c)
    want = [kron(m, eye) + kron(eye, m.conj())
            + sum(rate * kron(c, c.conj()) for c, rate in model.collapse_terms)]
    # S(G) = G x I + I x conj(G) of G = -i X_k and -i Y_k, the quadratures of A_k
    for a in model.hamiltonian.ops:
        x, y = a + a.conj().T, 1j * (a - a.conj().T)
        want += [kron(g, eye) + kron(eye, g.conj()) for g in (-1j * x, -1j * y)]
    l0, parts = dynamics._superoperator_pieces(model)
    assert len(parts) == 8
    for got, ref in zip((l0, *parts), want):
        assert got.format == "csr" and got.dtype == complex
        ref = ref.toarray()
        assert np.max(np.abs(got.toarray() - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_first_generator_is_the_effective_hamiltonian():
    model = _kron_model()
    h0 = model.hamiltonian.h0.toarray()
    want = -1j * h0
    for c, rate in model.collapse_terms:
        c = c.toarray()
        want = want - 0.5 * rate * c.conj().T @ c
    got = dynamics._generators(model)[0].toarray()
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def _sparse_chain(model):
    """The generators as chains of scipy.sparse arithmetic: G_0 = -1j H0 less
    0.5 r_k C_k^+ C_k jump by jump, then -1j (A + A^+) and A - A^+ of each A."""
    g0 = -1j * model.hamiltonian.h0
    for c, rate in model.collapse_terms:
        if rate > 0.0:
            g0 = g0 - 0.5 * rate * (c.conj().T @ c)
    gens = [g0]
    for a in model.hamiltonian.ops:
        gens += [-1j * (a + a.conj().T), a - a.conj().T]
    return gens


def _no_coefficients(t):
    return np.zeros((2,) + t.shape)


def _random_sparse(d, rng, density):
    """A complex sparse d x d matrix, as CSR."""
    return scipy.sparse.random(d, d, density=density, format="csr", dtype=complex,
                               random_state=rng,
                               data_rvs=lambda k: rng.normal(size=k) + 1j * rng.normal(size=k))


def test_generators_are_bitwise_the_sparse_chain():
    # the thermal jumps and the full picture's drive operators over a dense H0, and
    # random complex jumps and drives with several entries in a column, so that
    # C_k^+ C_k has entries that sum several products; a jump of rate 0 is left out
    rng = np.random.default_rng(31)
    thermal = _kron_model()
    sp = HilbertSpace((2, 3, 2))
    d = sp.total_dim
    jumps = tuple((_random_sparse(d, rng, 0.4), rate) for rate in (0.7, 0.0, 2.5, 1.3))
    assert all(np.diff(c.tocsc().indptr).max() >= 3 for c, _ in jumps)
    drives = [_random_sparse(d, rng, 0.3) for _ in range(2)]
    h0 = _random_sparse(d, rng, 0.3)
    random = LindbladModel(sp, Generator(sp, h0 + h0.conj().T, drives, _no_coefficients), jumps)
    for model in (thermal, random):
        want = _sparse_chain(model)
        got = dynamics._generators(model)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            w = w.tocsr()
            assert g.shape == w.shape and g.dtype == w.dtype == complex
            for name in ("indptr", "indices", "data"):
                assert getattr(g, name).tobytes() == getattr(w, name).tobytes(), name


def test_each_superoperator_piece_maps_rho_to_g_rho_plus_rho_g_dagger():
    model = _kron_model()
    d = model.space.total_dim
    rho = _random_density(model.space, 23).matrix
    l0, parts = dynamics._superoperator_pieces(model)
    gens = dynamics._generators(model)
    assert len(gens) == 1 + len(parts)
    jumps = sum(rate * (c @ rho @ c.conj().T) for c, rate in model.collapse_terms)
    for g, piece, extra in zip(gens, (l0, *parts), (jumps, *[0.0] * len(parts))):
        g = g.toarray()
        want = g @ rho + rho @ g.conj().T + extra
        got = (piece @ rho.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_a_real_drive_builds_no_y_piece():
    sp = HilbertSpace((2, 3, 3))
    params = SystemParams.from_ordinary(temperature_k=0.01)
    sched = DriveSchedule("stirap", 2000.0, 0.15e-3 / 1.43, 0.15e-3, 0.15e-3)
    gen = hamiltonian_generator(params, (sched,), sp, "rwa")
    assert dynamics._real_drive(gen)
    n = len(gen.ops)
    lossless, lossy = (LindbladModel(sp, gen, terms)
                       for terms in ((), tuple(thermal_collapse_terms(sp, params))))
    for model in (lossless, lossy):
        gens = dynamics._generators(model)
        real = dynamics._generators(model, imaginary=False)
        assert len(real) == 1 + n and len(gens) == 1 + 2 * n
        for got, want in zip(real, [gens[0], *gens[1::2]]):  # G_0 and every -i X_k
            assert (got != want).nnz == 0
        assert len(dynamics._superoperator_pieces(model, imaginary=False)[1]) == n
    # a run steps G_0 and the n pieces -i X_k: psi as they are, rho as their S(G)
    config = IntegratorConfig(np.linspace(-0.2e-3, -0.19e-3, 3))
    psi0 = fock_state(sp, 0, 1, 0)
    for model, state in ((lossless, psi0), (lossless, psi0.density_matrix()),
                         (lossy, psi0)):
        assert evolve(model, state, config).stats.pieces == 1 + n


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


def _whole_negativity(pairs, dims):
    """The negativity of each state of the stack by one complex ``eigvalsh`` of its
    whole partial transpose."""
    s, (da, db) = len(pairs), dims
    flipped = pairs.reshape(s, da, db, da, db).transpose(0, 1, 4, 3, 2).reshape(s, da * db, -1)
    evals = np.linalg.eigvalsh(flipped.astype(complex))
    return np.where(evals < 0, -evals, 0.0).sum(axis=1)


def _phased_case():
    """table2-stirap-50mK with a drive phase of 0.7 rad on pump 2: a complex drive."""
    cfg = preset_config("table2-stirap-50mK")
    cfg["schedule"] = {**cfg["schedule"], "phase2": 0.7}
    return build_scenario(cfg)


#: the blocks of the partial-transposed pair stack, as (count, size) per size: at
#: (5, 5), where the pair's rho conserves n1 + n2, its partial transpose splits into
#: the 9 charge-imbalance sectors, of sizes 1, 2, 3, 4, 5, 4, 3, 2, 1
SECTORS = [(2, 1), (2, 2), (2, 3), (2, 4), (1, 5)]
#: case -> (whether its pair stack is complex, its blocks); a real drive gives a real
#: stack, and the superposition input of table2-stirap-10mK and the coherent input
#: mix excitation numbers into one block
NEGATIVITY_BLOCKS = {**{name: (False, SECTORS) for name in DENSE_RHS_EVALS},
                     "table2-stirap-10mK": (False, [(1, 25)]),
                     "criterion-10-full": (True, [(2, 8)]),
                     "coherent-507": (False, [(1, 169)]),
                     "phase2-0.7": (True, SECTORS)}


@pytest.mark.parametrize("name", sorted(NEGATIVITY_BLOCKS))
def test_blockwise_negativity_matches_the_whole_spectrum(name):
    if name == "phase2-0.7":
        scenario = _phased_case()
        result = run_scenario(scenario)
    else:
        scenario, result = SUPPORT_CASES[name][0], _run_case(name)
    traj = result.trajectory
    space = HilbertSpace(scenario.dims)
    pairs = protocols._sample_readers(space, traj.coords, traj.samples)[1](("mech1", "mech2"))
    got = traj.observables["negativity"]
    assert np.max(got) > 0.0
    assert np.max(np.abs(got - _whole_negativity(pairs, space.dims[1:]))) <= 1e-12
    d = math.prod(space.dims[1:])
    source = np.arange(d * d).reshape(*space.dims[1:], *space.dims[1:]).transpose(0, 3, 2, 1)
    pattern = (pairs != 0).any(axis=0).ravel()[source.reshape(d, d)]
    blocks = [b.shape for b in analysis._blocks(pattern | pattern.T)]
    assert (bool(pairs.imag.any()), blocks) == NEGATIVITY_BLOCKS[name]


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
    # the pieces a run steps, which drop every -i Y_k for real drives, step
    # every nonzero coordinate of rho and stay in the sector
    start = coords.coordinates(rho.reshape(-1)) != 0
    if dynamics._real_drive(h):
        coords.restrict(dynamics._support((const, *parts[::2]), start))
    assert np.isin(np.flatnonzero(start), coords.order).all()
    assert np.isin(entries(coords), sector).all()
