import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from omstirap.analysis import fidelity, negativity, partial_trace
from omstirap import analysis, blas, cli, dynamics, protocols
from omstirap.errors import (
    DomainError,
    IntegrationDivergedError,
    InvalidArgumentError,
    InvalidDimensionError,
    OutOfRangeError,
    StiffnessError,
    UndefinedSteadyStateError,
)
from omstirap.hilbert import (
    DensityMatrix,
    HilbertSpace,
    StateVector,
    coherent_state,
    fock_state,
    thermal_state,
)
from omstirap.dynamics import Trajectory
from omstirap.model import DriveCoefficients, DriveSchedule, SystemParams, dark_state
from omstirap.protocols import (
    FringeResult,
    InitialStateSpec,
    PlannerInputs,
    Scenario,
    TargetSpec,
    analytic_final_state,
    build_initial_state,
    cooling_steady_state,
    detection_budget,
    heralded_initial_state,
    run_interferometry,
    run_scenario,
    visibility_model,
)

TWO_PI = 2 * math.pi
SIGMA = 0.6e-3


def _params(temp=0.01, **kw):
    return SystemParams.from_ordinary(temperature_k=temp, **kw)


# ------------------------------------------------------- analytic oracle

def test_analytic_superposition_flip():
    sp = HilbertSpace((2, 5, 5))
    amps = np.zeros(sp.total_dim, dtype=complex)
    amps[sp.index((0, 0, 0))] = 1 / math.sqrt(2)
    amps[sp.index((0, 1, 0))] = 1 / math.sqrt(2)
    out = analytic_final_state(StateVector(sp, amps), math.pi / 2)
    assert np.isclose(out.amplitudes[sp.index((0, 0, 0))], 1 / math.sqrt(2))
    assert np.isclose(out.amplitudes[sp.index((0, 0, 1))], -1 / math.sqrt(2))


def test_analytic_even_parity():
    sp = HilbertSpace((2, 5, 5))
    out = analytic_final_state(fock_state(sp, 0, 2, 0), math.pi / 2)
    assert np.isclose(out.amplitudes[sp.index((0, 0, 2))], 1.0)


def test_analytic_coherent_factorizes():
    sp = HilbertSpace((2, 12, 12))
    coh = coherent_state(12, 1.0)
    amps = np.zeros(sp.total_dim, dtype=complex)
    for n in range(12):
        amps[sp.index((0, n, 0))] = coh.amplitudes[n]
    theta = math.pi / 4
    out = analytic_final_state(StateVector(sp, amps), theta)
    rho12 = partial_trace(out.density_matrix(), ("mech1", "mech2"))
    # residual entanglement scales as sqrt of the clipped product tail
    assert negativity(rho12) < 4e-4
    c1 = coherent_state(12, math.cos(theta)).amplitudes
    c2 = coherent_state(12, -math.sin(theta)).amplitudes
    tgt = StateVector(rho12.space, np.kron(c1, c2))
    assert fidelity(rho12, tgt) > 0.99999


def test_analytic_rejects_occupied_other_modes():
    sp = HilbertSpace((2, 3, 3))
    with pytest.raises(InvalidArgumentError):
        analytic_final_state(fock_state(sp, 0, 0, 1), math.pi / 2)
    with pytest.raises(InvalidArgumentError):
        analytic_final_state(fock_state(sp, 1, 1, 0), math.pi / 2)


def _fock_scenario(**kw):
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    return Scenario(params=_params(), schedule=s, initial=InitialStateSpec("fock", n=1),
                    dims=(2, 3, 3), **kw)


@pytest.mark.parametrize("bad", [
    {"horizon": (math.nan, 2e-3)}, {"horizon": (-2e-3, math.nan)},
    {"horizon": (-2e-3, math.inf)}, {"horizon": (-math.inf, 2e-3)},
    {"eval_time": math.nan}, {"eval_time": math.inf},
    {"rel_tol": math.nan}, {"rel_tol": math.inf}, {"rel_tol": 0.0},
    {"abs_tol": math.nan}, {"abs_tol": math.inf}, {"abs_tol": -1e-10},
    {"eval_time": -1.0}, {"eval_time": 10e-3},
    {"horizon": (0.0,)}, {"horizon": (-1e-3, 1e-3, 5.0)}, {"sample_count": 2.5}])
def test_scenario_needs_finite_times_and_tolerances(bad):
    # at a NaN start the integrator stepped forever; a NaN eval_time reported the
    # horizon's start, and infinite ends and tolerances failed only in the integrator;
    # an eval_time outside the horizon moved the integration window; a one-value
    # horizon raised IndexError, a third value was ignored, and a fractional
    # sample_count failed in np.linspace with a TypeError, which no sweep records
    _fock_scenario()
    with pytest.raises(InvalidArgumentError):
        _fock_scenario(**bad)


@pytest.mark.parametrize("lossless", [False, True])
@pytest.mark.parametrize("tols", [{"abs_tol": 1e-300}, {"abs_tol": 1e-160},
                                  {"abs_tol": 1e-300, "rel_tol": 1e-300}])
def test_a_tolerance_below_float64_fails_as_step_underflow(lossless, tols):
    # the scaled norms of the first step's estimate overflowed: h0 = 0 warned in a
    # division, and with both tolerances tiny the run then failed as a non-finite state
    scenario = _fock_scenario(lossless=lossless, **tols)
    with pytest.raises(StiffnessError) as info:
        run_scenario(scenario)
    assert info.value.time == scenario.horizon[0]


@pytest.mark.parametrize("horizon", [(1e-3, -1e-3), (1e-3, 1e-3)])
def test_scenario_horizon_runs_forward(horizon):
    with pytest.raises(InvalidArgumentError, match="horizon start must precede its end"):
        _fock_scenario(horizon=horizon)


@pytest.mark.parametrize("recipe", [
    lambda: InitialStateSpec("coherent", alpha=math.nan),
    lambda: InitialStateSpec("coherent", alpha=complex(1.0, math.inf)),
    lambda: InitialStateSpec("thermal", nbar=math.nan),
    lambda: InitialStateSpec("heralded", nbar=0.2, signal_rate=math.nan, dcr=1.0),
    lambda: InitialStateSpec("heralded", nbar=0.2, signal_rate=75.0, dcr=math.inf),
    lambda: InitialStateSpec("explicit", weights=(0.5, math.nan)),
    lambda: InitialStateSpec("explicit", matrix=np.diag([math.nan, 1.0])),
    lambda: TargetSpec("product_coherent", alpha=math.nan),
    lambda: TargetSpec("product_coherent", theta=math.inf),
    lambda: TargetSpec("weights_mode2", weights=(math.nan, 1.0))])
def test_recipes_need_finite_numbers(recipe):
    # a NaN alpha target reported a NaN fidelity, and a NaN initial number
    # failed only at the first step
    with pytest.raises(InvalidArgumentError):
        recipe()


# ------------------------------------------------------------- heralding

def test_heralded_reference_mixture():
    blue = thermal_state(6, 0.20337)  # vacuum weight 0.831
    out = heralded_initial_state(blue, 75.0, 10.0)
    diag = np.diag(out.matrix).real
    assert abs(diag[0] - 0.098) < 0.01
    assert abs(diag[1] - 0.750) < 0.01
    assert np.isclose(diag.sum(), 1.0, atol=1e-12)


def test_heralded_limits():
    blue = thermal_state(6, 0.20337)
    pure = heralded_initial_state(blue, 75.0, 0.0)
    assert pure.matrix[0, 0] == 0.0
    untouched = heralded_initial_state(blue, 0.0, 10.0)
    np.testing.assert_allclose(untouched.matrix, blue.matrix, atol=1e-14)
    with pytest.raises(InvalidArgumentError):
        heralded_initial_state(blue, 0.0, 0.0)


def test_heralded_affine_and_trace_preserving():
    blue = thermal_state(8, 0.4)
    for s, d in ((30.0, 5.0), (75.0, 10.0), (1.0, 99.0)):
        out = heralded_initial_state(blue, s, d)
        assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
    # mixture is affine in the click weights
    a = heralded_initial_state(blue, 75.0, 0.0).matrix
    b = heralded_initial_state(blue, 0.0, 10.0).matrix
    mixed = heralded_initial_state(blue, 75.0, 10.0).matrix
    np.testing.assert_allclose(mixed, (75 * a + 10 * b) / 85, atol=1e-12)


# ------------------------------------------------------------- scenarios

def test_initial_state_builders():
    sp = HilbertSpace((2, 5, 5))
    rho = build_initial_state(sp, InitialStateSpec("superposition_01")).density_matrix()
    i = sp.index((0, 0, 0))
    j = sp.index((0, 1, 0))
    assert np.isclose(rho.matrix[i, j], 0.5)
    spec = InitialStateSpec(
        "explicit", weights=(0.0, 0.89, 0.10, 0.01),
        mode2=InitialStateSpec("thermal", nbar=0.1198),
    )
    rho2 = build_initial_state(sp, spec)
    assert np.isclose(np.trace(rho2.matrix).real, 1.0, atol=1e-12)
    m2 = partial_trace(rho2, (2,))
    assert np.isclose(m2.matrix[0, 0].real, 1 / 1.1198, atol=1e-3)


RECIPES = {
    "fock": InitialStateSpec("fock", n=1),
    "superposition_01": InitialStateSpec("superposition_01"),
    "coherent": InitialStateSpec("coherent", alpha=0.4 + 0.2j),
    "thermal": InitialStateSpec("thermal", nbar=0.1),
    "heralded": InitialStateSpec("heralded", nbar=0.1, signal_rate=75.0, dcr=10.0),
    "explicit": InitialStateSpec("explicit", weights=(0.2, 0.8)),
}
PURE_KINDS = ("fock", "superposition_01", "coherent")


def _mode_density(spec, dim):
    """One mode's density matrix, formed from its outer product where pure."""
    if spec is None:
        spec = InitialStateSpec("fock")
    if spec.kind in PURE_KINDS:
        if spec.kind == "coherent":
            psi = coherent_state(dim, spec.alpha).amplitudes
        else:
            psi = np.zeros(dim, dtype=complex)
            occupied = [spec.n] if spec.kind == "fock" else [0, 1]
            psi[occupied] = 1 / math.sqrt(len(occupied))
        return np.outer(psi, psi.conj())
    if spec.kind == "thermal":
        return thermal_state(dim, spec.nbar).matrix
    if spec.kind == "heralded":
        return heralded_initial_state(thermal_state(dim, spec.nbar), spec.signal_rate,
                                      spec.dcr).matrix
    w = np.zeros(dim)
    w[:len(spec.weights)] = spec.weights
    return np.diag(w / w.sum()).astype(complex)


@pytest.mark.parametrize("kind2", [None, "superposition_01", "explicit"])
@pytest.mark.parametrize("kind", sorted(RECIPES))
def test_build_initial_state_vector_for_pure_recipes(kind, kind2):
    sp = HilbertSpace((2, 4, 5))
    mode2 = None if kind2 is None else RECIPES[kind2]
    spec = replace(RECIPES[kind], mode2=mode2)
    state = build_initial_state(sp, spec)
    expected = np.kron(np.kron(_mode_density(None, 2), _mode_density(spec, 4)),
                       _mode_density(mode2, 5))
    if kind in PURE_KINDS and kind2 in (None, *PURE_KINDS):
        assert isinstance(state, StateVector)
        state = state.density_matrix()
    else:
        assert isinstance(state, DensityMatrix)
    np.testing.assert_allclose(state.matrix, expected, rtol=0, atol=1e-15)


def test_lossless_pure_recipe_takes_the_state_vector_path():
    scen = Scenario(
        params=_params(0.0), schedule=DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA),
        initial=InitialStateSpec("coherent", alpha=0.5), dims=(2, 5, 5),
        horizon=(-2.4e-3, 2.4e-3), sample_count=5, lossless=True,
    )
    coherent = run_scenario(scen).summary
    fock = run_scenario(replace(scen, initial=InitialStateSpec("fock", n=1))).summary
    # the error norm averages over the d = 50 amplitudes of psi, or the d^2 entries of rho
    assert coherent["integrator"]["norm_size"] == fock["integrator"]["norm_size"] == 50
    assert coherent["final_n2"] > 0.249 and coherent["final_n1"] < 1e-4
    # a mixed kind takes the density path, even when it is rank 1, with the same result
    one_hot = replace(scen, initial=InitialStateSpec("explicit", weights=(0.0, 1.0)))
    mixed = run_scenario(one_hot).summary
    assert mixed["integrator"]["norm_size"] == 2500
    for key in ("final_n1", "final_n2"):
        assert abs(mixed[key] - fock[key]) < 1e-7


def test_lossless_parity_small():
    p = _params(0.0)
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    scen = Scenario(
        params=p, schedule=s, initial=InitialStateSpec("fock", n=1), dims=(2, 3, 3),
        horizon=(-2.4e-3, 2.4e-3), sample_count=9,
        lossless=True,
    )
    res = run_scenario(scen)
    assert res.summary["final_n2"] > 0.9999
    assert res.summary["final_n1"] < 1e-4


def test_time_reversal_returns_initial_state():
    p = _params(0.0)
    fwd = DriveSchedule("fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA,
                        theta=math.pi / 4)
    rev = DriveSchedule("reversed_fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA,
                        theta=math.pi / 4, t0=4e-3)
    scen = Scenario(
        params=p, schedule=(fwd, rev), initial=InitialStateSpec("fock", n=1),
        dims=(2, 3, 3), horizon=(-2.4e-3, 6.4e-3), sample_count=9,
        lossless=True,
        target=TargetSpec("fock_mode1"),
    )
    res = run_scenario(scen)
    assert res.summary["fidelity"] >= 1.0 - 1e-4


def _small_scenario(**changes):
    return Scenario(**{
        "params": _params(0.01), "schedule": DriveSchedule("stirap", 2000.0, SIGMA / 1.43,
                                                           SIGMA, SIGMA),
        "initial": InitialStateSpec("fock", n=1), "dims": (2, 3, 3),
        "horizon": (-2.4e-3, 2.4e-3), "sample_count": 3,
        "target": TargetSpec("fock_mode2"), **changes})


def test_a_scenario_rebuilt_at_other_dims_scores_its_target_there():
    grown = replace(_small_scenario(), dims=(2, 4, 4))
    res = run_scenario(grown)
    final = res.trajectory.states[-1]
    assert final.space.dims == (2, 4, 4)
    target = TargetSpec("fock_mode2").state(grown.dims)
    assert target.space.dims == (4, 4)
    assert res.summary["fidelity"] == fidelity(partial_trace(final, ("mech1", "mech2")), target)
    assert res.summary["fidelity"] > 0.8


def test_a_scenario_stores_its_dims_as_a_tuple_of_ints():
    # a list entered the batch key as it came and made batches() raise TypeError
    scenario = replace(_small_scenario(), dims=[2, np.int64(3), 3.0])
    assert scenario.dims == (2, 3, 3) and all(type(d) is int for d in scenario.dims)
    assert protocols.batches([scenario, _small_scenario()]) == [[0, 1]]
    with pytest.raises(InvalidDimensionError, match=r"invalid dims \(2, 3.7, 3\)"):
        replace(_small_scenario(), dims=(2, 3.7, 3))


@pytest.mark.parametrize("changes, message", [
    ({"dims": (3, 3)}, "three mode dims"),
    ({"dims": (2, 1, 3)}, "each >= 2"),
    ({"picture": "lab"}, "unknown picture 'lab'"),
    ({"initial": InitialStateSpec("fock", n=3)}, "fock occupation 3 outside dim 3"),
    ({"initial": InitialStateSpec("fock", mode2=InitialStateSpec("thermal", nbar=-1.0))},
     "nbar must be >= 0"),
    ({"target": TargetSpec("fock_mode2", n=3)}, "occupation 3 outside"),
    ({"target": TargetSpec("weights_mode2", weights=(0, 0, 0, 1))}, "exceed the mode dimension"),
    # a smaller space re-checks the recipes that fitted the larger one
    ({"dims": (2, 3, 1)}, "each >= 2"),
    ({"initial": InitialStateSpec("fock", n=2), "dims": (2, 2, 3)}, "outside dim 2"),
])
def test_a_scenario_checks_its_recipes_against_its_dims(changes, message):
    with pytest.raises((InvalidArgumentError, InvalidDimensionError, OutOfRangeError),
                       match=message):
        replace(_small_scenario(), **changes)


def test_target_spec_kinds_and_reductions():
    with pytest.raises(InvalidArgumentError, match="unknown target kind 'mech12'"):
        TargetSpec("mech12")
    assert TargetSpec("weights_mode2", weights=[1, 0]).weights == (1.0, 0.0)
    for kind, keep in TargetSpec.REDUCTIONS.items():
        spec = TargetSpec(kind, weights=(0.5, 0.5) if kind == "weights_mode2" else None)
        state = spec.state((2, 6, 7))
        assert state.space.dims == {("mech1", "mech2"): (6, 7), ("mech2",): (7,)}[keep]
    psi = TargetSpec("psi_minus").state((2, 3, 3)).amplitudes
    pair = HilbertSpace((3, 3))
    assert psi[pair.index((1, 0))] == 1 / math.sqrt(2) == -psi[pair.index((0, 1))]


def test_benchmark_scenario_state_invariants():
    # trace, hermiticity and the positivity floor hold at every sample of a
    # dissipative benchmark run
    p = _params(0.05)
    sigma = 0.15e-3
    s = DriveSchedule("stirap", 2000.0, sigma / 1.43, sigma, sigma)
    scen = Scenario(
        params=p, schedule=s, initial=InitialStateSpec("superposition_01"),
        dims=(2, 4, 4), horizon=(-0.6e-3, 0.6e-3), sample_count=25,
    )
    res = run_scenario(scen)
    for st in res.trajectory.states:
        assert abs(np.trace(st.matrix).real - 1.0) <= 1e-6
        assert np.max(np.abs(st.matrix - st.matrix.conj().T)) <= 1e-9
        assert np.linalg.eigvalsh(st.matrix).min() >= -1e-6


def test_scenario_eval_time_injected_into_grid():
    p = _params(0.0)
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    scen = Scenario(
        params=p, schedule=s, initial=InitialStateSpec("fock", n=1), dims=(2, 3, 3),
        horizon=(-1e-3, 1e-3), sample_count=5, lossless=True,
        eval_time=0.3141e-3,
    )
    res = run_scenario(scen)
    assert np.isclose(res.summary["eval_time_s"], 0.3141e-3)
    assert 0.3141e-3 in res.trajectory.times


def test_steps_cannot_jump_over_a_late_pulse():
    # a 50 us STIRAP pair 10 ms into an idle horizon with only its two ends
    # sampled: unless a step lands on each pulse centre, the error controller
    # sees a constant generator and steps over the pulses, reporting no transfer
    s = DriveSchedule("stirap", 6000.0, 35e-6, 50e-6, 50e-6, t0=10e-3)
    scen = Scenario(
        params=_params(0.0), schedule=s, initial=InitialStateSpec("fock", n=1),
        dims=(2, 3, 3), horizon=(0.0, 11e-3), sample_count=2,
    )
    res = run_scenario(scen)
    assert res.summary["final_n2"] > 0.8
    np.testing.assert_array_equal(res.trajectory.times, [0.0, 11e-3])


@pytest.mark.parametrize("target", [None, TargetSpec("psi_minus")])
def test_summary_keys_are_the_float_keys_of_the_summary(target):
    # a sweep checks its metrics against summary_keys before its first cell
    scen = Scenario(
        params=_params(0.05), schedule=DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA),
        initial=InitialStateSpec("explicit", weights=(0.8, 0.2)), dims=(2, 3, 3),
        horizon=(-1e-3, 1e-3), sample_count=5, target=target,
    )
    summary = run_scenario(scen).summary
    floats = {key for key, value in summary.items() if isinstance(value, float)}
    assert protocols.summary_keys(scen) == floats
    assert ("fidelity" in floats) == (target is not None)


def test_summary_reports_the_top_fock_level_population():
    # |2> in mode 1 at dims (2, 3, 3) sits on its top level until the pulses move it
    scen = Scenario(
        params=_params(0.0), schedule=DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA),
        initial=InitialStateSpec("fock", n=2), dims=(2, 3, 3),
        horizon=(-2.4e-3, 2.4e-3), sample_count=5, lossless=True,
    )
    res = run_scenario(scen)
    assert res.summary["peak_top_mech1"] == pytest.approx(1.0, abs=1e-12)
    assert res.trajectory.observables["top_mech1"][-1] < 1e-3
    assert res.summary["peak_top_mech2"] > 0.99  # the transferred pair lands on |2> of mode 2
    assert res.summary["peak_top_cavity"] < 0.1


def test_collective_populations_examples():
    space = HilbertSpace((2, 4, 4))
    scen = _small_scenario(params=SystemParams.from_ordinary(), dims=space.dims)
    # the one-excitation dark state at theta = pi/4 is a pure b_minus excitation
    phi = dark_state(space, 1, math.pi / 4)
    states = [fock_state(space, 0, 1, 0).density_matrix(),
              fock_state(space, 0, 0, 0).density_matrix(),
              DensityMatrix(space, np.outer(phi, phi.conj()))]
    coords = dynamics._hermitian_half(space.total_dim)  # every coordinate stepped
    samples = np.array([coords.coordinates(st.matrix.reshape(-1)) for st in states])
    traj = Trajectory(times=np.zeros(3), samples=samples, coords=coords, space=space)
    obs, = protocols._observables([scen], space, [traj])
    np.testing.assert_allclose(obs["n_plus"], [0.5, 0.0, 0.0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(obs["n_minus"], [0.5, 0.0, 1.0], rtol=0, atol=1e-12)
    assert obs["n_plus"][1] == obs["n_minus"][1] == 0.0


# ------------------------------------------- observables pass: one per batch, one thread

def _dense_observables(scenario, traj):
    """Every series of ``traj`` from its states read as d x d matrices, by the
    dense rules: diagonals and their marginals, each number operator's
    sum of op_ij rho_ji, and the partial-trace, negativity and fidelity stacks."""
    space = HilbertSpace(scenario.dims)
    rho = np.array([st.matrix for st in traj.states])
    pops = np.einsum("sii->si", rho).real.reshape(-1, *space.dims)
    out = {f"alpha{j}": protocols.total_envelope(scenario.schedule, j, traj.times)
           for j in (1, 2)}
    for n, name in (("nc", "cavity"), ("n1", "mech1"), ("n2", "mech2")):
        mode = analysis.MODE_NAMES[name]
        marginal = pops.sum(axis=tuple(1 + m for m in range(3) if m != mode))
        out[n] = marginal @ np.arange(space.dims[mode])
        out[f"top_{name}"] = marginal[:, -1]
    out["p1"] = pops[:, :, 1, :].sum(axis=(1, 2))
    bm, bp = protocols.collective_operators(space, scenario.params, None)
    for name, b in (("n_plus", bp), ("n_minus", bm)):
        op = (b.conj().T @ b).tocoo()
        out[name] = np.einsum("k,sk->s", op.data, rho[:, op.col, op.row]).real
    pair = analysis.partial_trace_stack(rho, space.dims, ("mech1", "mech2"))
    out["negativity"] = analysis.negativity_stack(pair, space.dims[1:])
    if scenario.target is not None:
        keep = TargetSpec.REDUCTIONS[scenario.target.kind]
        out["fidelity"] = analysis.fidelity_stack(
            analysis.partial_trace_stack(rho, space.dims, keep), scenario.target.state(space.dims))
    return out


#: case -> the scenarios of one batch
COORDINATE_CASES = {
    "lossy-preset": lambda: [cli.build_scenario(cli.load_config("table2-stirap-50mK", None))],
    # each a^+ b_j term also carries the other pump, which rotates at the 10 kHz split of
    # the mechanical frequencies: the drive is complex
    "bs-complex-drive": lambda: [_small_scenario(picture="bs", sample_count=7,
                                                 params=_params(0.01, omega2_hz=1.21e6))],
    "pure-coherent": lambda: [_small_scenario(
        params=_params(0.0), initial=InitialStateSpec("coherent", alpha=0.6), dims=(2, 5, 5),
        lossless=True, sample_count=6, target=TargetSpec("product_coherent", alpha=0.6))],
    "two-columns": lambda: [
        _small_scenario(sample_count=5, params=_params(0.01, g1_hz=g1), target=target)
        for g1, target in ((2.5, TargetSpec("psi_minus")),
                           (3.5, TargetSpec("weights_mode2", weights=(0.3, 0.7, 0.0))))],
}


@pytest.mark.parametrize("case", sorted(COORDINATE_CASES))
def test_coordinate_observables_match_the_dense_rules(case):
    scenarios = COORDINATE_CASES[case]()
    results = protocols.run_scenarios(scenarios)
    traj = results[0].trajectory
    if case == "lossy-preset":  # a real drive: 190 of the 2,500 coordinates are stepped
        assert (traj.stats.state_size, traj.stats.norm_size) == (190, 2500)
    if case == "bs-complex-drive":  # the -i Y_k pieces are kept
        s = scenarios[0]
        assert not DriveCoefficients("bs", [(s.params, s.schedule)]).real
        assert traj.stats.pieces == 1 + 2 * len(
            protocols.hamiltonian_generator(s.params, s.schedule, HilbertSpace(s.dims), "bs").ops)
    assert traj.coords.hermitian == (case != "pure-coherent")
    if case == "two-columns":
        assert len({(s.params.g1, s.params.g2) for s in scenarios}) == 2
        assert len(protocols.batches(scenarios)) == 1
    for scenario, result in zip(scenarios, results):
        got, want = result.trajectory.observables, _dense_observables(scenario, result.trajectory)
        assert set(got) == set(want)
        for name, series in want.items():
            assert np.max(np.abs(got[name] - series)) <= 1e-12, name


def test_a_run_holds_no_d_by_d_sample_stack():
    config = Path(__file__).resolve().parents[1] / "bench" / "coherent507.json"
    scenario = cli.build_scenario(cli.load_config(None, str(config)))
    run_scenario(scenario)  # lazy imports and caches are not the run's
    tracemalloc.start()
    try:
        result = run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (507, 507) complex state alone is 4.1 MB
    assert peak < 4e6
    traj = result.trajectory
    assert traj.samples.shape == (scenario.sample_count, traj.stats.state_size)
    assert traj.stats.state_size < traj.stats.norm_size == 507
    assert all(isinstance(st, DensityMatrix) and st.space.dims == (3, 13, 13)
               for st in traj.states)
    assert abs(np.trace(traj.states[-1].matrix) - 1.0) <= 1e-12


def test_batched_observables_equal_the_per_column_ones():
    # one batch key, two distinct (g1, g2), and three targets: two on the mode pair,
    # one mixed state of mode 2
    base = _small_scenario(sample_count=5)
    weights = TargetSpec("weights_mode2", weights=(0.2, 0.8))
    cells = [replace(base, params=_params(0.01, g1_hz=g1), target=target,
                     schedule=replace(base.schedule[0], alpha0=alpha0))
             for g1 in (2.5, 3.5) for alpha0 in (1500.0, 2500.0)
             for target in (TargetSpec("fock_mode2"), TargetSpec("psi_minus"), weights)]
    assert len(protocols.batches(cells)) == 1
    assert len({(c.params.g1, c.params.g2) for c in cells}) == 2
    results = protocols.run_scenarios(cells)
    space = HilbertSpace(base.dims)
    for cell, result in zip(cells, results):
        alone, = protocols._observables([cell], space, [result.trajectory])
        batched = result.trajectory.observables
        assert set(batched) == set(alone)
        for name, series in alone.items():
            assert np.max(np.abs(batched[name] - series)) <= 1e-13, name
    assert len({r.summary["timing"]["observables_s"] for r in results}) == 1  # the batch's


def _pinned_library():
    controls = blas._openblas()
    if controls is None:
        pytest.skip("numpy's bundled OpenBLAS exports no thread control here")
    return controls


@pytest.mark.parametrize("fails", [False, True])
def test_observables_pass_runs_on_one_thread_and_restores_the_setting(monkeypatch, fails):
    get, put = _pinned_library()
    before, during = get(), []
    original = protocols.analysis.negativity_stack

    def negativity_stack(pairs, dims):
        during.append(get())
        if fails:
            raise RuntimeError("negativity failed")
        return original(pairs, dims)

    monkeypatch.setattr(protocols.analysis, "negativity_stack", negativity_stack)
    put(2)
    try:
        if fails:
            with pytest.raises(RuntimeError, match="negativity failed"):
                run_scenario(_small_scenario())
        else:
            summary = run_scenario(_small_scenario()).summary
            assert summary["blas_threads"] == {"seen": 2, "used": 1}
        assert during == [1]
        assert get() == 2
    finally:
        put(before)


def test_a_run_without_thread_control_still_succeeds(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    result = run_scenario(_small_scenario())
    assert result.summary["blas_threads"] is None
    assert result.summary["fidelity"] > 0.5


# ------------------------------------------------------- interferometry

def test_fringe_fit_on_synthetic_data():
    phi2 = np.linspace(-2 * math.pi, 2 * math.pi, 17)
    a, v, ph = 0.4, 0.63, 0.7
    p1 = a * (1 + v * np.cos(ph - phi2))
    fr = FringeResult(phi2, p1, 0, 0, 0)  # container only; fit separately
    design = np.column_stack([np.ones_like(phi2), np.cos(phi2), np.sin(phi2)])
    c0, cc, cs = np.linalg.lstsq(design, p1, rcond=None)[0]
    assert np.isclose(c0, a, atol=1e-12)
    assert np.isclose(math.hypot(cc, cs) / c0, v, atol=1e-12)
    assert np.isclose(math.atan2(cs, cc), ph, atol=1e-12)


def test_lossless_fringe_visibility_and_extrema():
    p = _params(0.0)
    s = DriveSchedule("fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA,
                      theta=math.pi / 4)
    base = Scenario(params=p, schedule=s, initial=InitialStateSpec("fock", n=1),
                    dims=(2, 3, 3), lossless=True)
    phi2 = np.linspace(-math.pi, math.pi, 9)
    fr = run_interferometry(base, phi2, phi1=0.0, wait=4e-3)
    assert fr.visibility >= 0.99
    assert abs(fr.phase) < 0.02
    assert fr.p1_values[4] > 0.99  # phi2 = 0 = phi1: full return
    assert fr.p1_values[0] < 0.01  # phi2 = -pi: transfer completes instead


def test_fringe_points_run_as_one_batch_that_matches_their_solo_runs():
    s = DriveSchedule("fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA, theta=math.pi / 4)
    base = Scenario(params=_params(0.0), schedule=s, initial=InitialStateSpec("fock", n=1),
                    dims=(2, 3, 3), lossless=True)
    phi2 = np.linspace(-math.pi, math.pi, 5)
    fringe = run_interferometry(base, phi2, wait=4e-3)
    points = [protocols._fringe_scenario(base, 0.0, float(p2), 4e-3, True) for p2 in phi2]
    assert protocols.batches(points) == [[0, 1, 2, 3, 4]]
    for point, batched, p1 in zip(points, protocols.run_scenarios(points), fringe.p1_values):
        solo = run_scenario(point)
        # the phi2 = 0 point alone has real drives, so it steps fewer coordinates
        # with fewer pieces, and takes the same steps
        stats, ref = batched.summary["integrator"], solo.summary["integrator"]
        for key in ("accepted", "rejected", "rhs_evals", "clamped", "interpolated"):
            assert stats[key] == ref[key], key
        for key, value in solo.summary.items():
            if isinstance(value, float) and key != "wall_time_s":
                assert abs(batched.summary[key] - value) <= 1e-12, key
        assert p1 == batched.summary["final_p1"]


@pytest.mark.parametrize("error", [StiffnessError(1.25e-4),
                                   IntegrationDivergedError(2.5e-4, 1e-3, 1e-4)])
def test_integration_error_crosses_the_worker_pool(monkeypatch, error):
    def failing(scenarios):
        raise error

    # the pool forks its workers, so they inherit the stub
    monkeypatch.setattr(protocols, "run_scenarios", failing)
    s = DriveSchedule("fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA, theta=math.pi / 4)
    base = Scenario(params=_params(0.0), schedule=s, initial=InitialStateSpec("fock", n=1),
                    dims=(2, 3, 3), lossless=True)
    for workers in (1, 2):
        with pytest.raises(type(error)) as info:
            run_interferometry(base, np.linspace(-math.pi, math.pi, 3), workers=workers)
        assert str(info.value) == str(error) and vars(info.value) == vars(error)


def test_diagonal_input_reverse_only_fringe_is_flat():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = _params(0.05)
        s = DriveSchedule("fractional", 2000.0, SIGMA / 1.25, SIGMA, SIGMA,
                          theta=math.pi / 4)
        base = Scenario(
            params=p, schedule=s,
            initial=InitialStateSpec("thermal", nbar=0.5,
                                     mode2=InitialStateSpec("thermal", nbar=0.5)),
            dims=(2, 5, 5),
        )
        fr = run_interferometry(
            base, np.linspace(-math.pi, math.pi, 5), wait=4e-3, include_forward=False
        )
    assert fr.visibility < 0.01
    spread = fr.p1_values.max() - fr.p1_values.min()
    assert spread < 0.01 * fr.p1_values.mean()


def test_interferometry_needs_fractional_base():
    p = _params(0.0)
    s = DriveSchedule("stirap", 2000.0, SIGMA / 1.43, SIGMA, SIGMA)
    base = Scenario(params=p, schedule=s, initial=InitialStateSpec("fock", n=1),
                    dims=(2, 3, 3), lossless=True)
    with pytest.raises(InvalidArgumentError):
        run_interferometry(base, [0.0, 1.0, 2.0])


# ------------------------------------------------------------- planner

def _plan_inputs(**kw):
    defaults = dict(
        g=TWO_PI * 1600.0, kappa=TWO_PI * 2e3, delta=-TWO_PI * 1.2e6,
        omega_m=TWO_PI * 1.2e6, gamma_m=1.8529, n_th=1736.3,
    )
    defaults.update(kw)
    return PlannerInputs(**defaults)


def test_visibility_model_values():
    assert visibility_model(_plan_inputs(eta_d=1.0, eta_r=1.0, gamma_m=0.0, n_th=0.0,
                                         kappa=TWO_PI * 2e3), 0.0) == 1.0
    v = visibility_model(_plan_inputs(eta_d=0.075, eta_r=0.99), 0.0)
    assert np.isclose(v, 0.07425, rtol=1e-12)
    assert visibility_model(_plan_inputs(eta_d=0.5), 1e9) == 0.0


def test_cooling_steady_state_reference():
    gamma_opt, nbar_min, nbar_f = cooling_steady_state(_plan_inputs())
    assert np.isclose(gamma_opt, 4 * (TWO_PI * 1600) ** 2 / (TWO_PI * 2e3), rtol=1e-3)
    assert abs(nbar_f - 0.10) < 0.02


def test_cooling_resolved_sideband_floor():
    inp = _plan_inputs()
    _, nbar_min, _ = cooling_steady_state(inp)
    assert np.isclose(nbar_min, (inp.kappa / (4 * inp.omega_m)) ** 2, rtol=1e-5)


def test_cooling_strong_limit():
    _, nbar_min, nbar_f = cooling_steady_state(_plan_inputs(gamma_m=1e-12, n_th=1e4))
    assert np.isclose(nbar_f, nbar_min, rtol=1e-3)


def test_cooling_undefined_steady_state():
    with pytest.raises(UndefinedSteadyStateError):
        cooling_steady_state(_plan_inputs(g=0.0, gamma_m=0.0))


def test_detection_budget_reference():
    inp = _plan_inputs(
        eta_d=0.075, eta_r=0.99, stokes_probability=0.1, rho00=0.0,
        cool_duration=5e-3, blue_duration=1e-4, readout_duration=5e-4,
        readout_g=TWO_PI * 5000.0,
    )
    t_h, p_f, t_r, success = detection_budget(inp)
    assert abs(t_h - 0.7) < 0.05
    assert p_f == 0.075  # eta_d * (1 - 0) exactly
    assert np.isclose(t_r, t_h / p_f, rtol=1e-12)
    assert abs(success - 0.998) < 0.001


def test_detection_budget_domain_errors():
    with pytest.raises(InvalidArgumentError):
        _plan_inputs(eta_d=-0.1)
    with pytest.raises(DomainError):
        detection_budget(_plan_inputs(stokes_probability=0.0))
