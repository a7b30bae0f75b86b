"""Scenario orchestration: state preparation, transfer runs, verification.

A :class:`Scenario` bundles physical parameters, a drive schedule (or pulse
train), its ``dims`` and two recipes, checked against those dims whenever it
is built: the initial state and an optional fidelity target.  Only runs build
the states; :func:`run_scenario` turns a scenario into a sampled trajectory
carrying every observable series plus a summary.  :func:`run_scenarios` does
the same for scenarios that share a :func:`batch_key`, stepping them as the
columns of one DP45 ensemble; a single run is a batch of one.
:func:`run_batches` runs any set of scenarios, a sweep's cells or a fringe's
phase points, as those batches, one job each on a process pool, and reports
each batch's work.  The interferometric entanglement check sweeps the
relative drive phase of a time-reversed fractional sequence and fits the
resulting single-phonon fringe.  Closed-form planner estimates for optical
cooling, heralding and readout live at the bottom.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse

from . import analysis, blas
from .dynamics import (
    IntegratorConfig,
    LindbladModel,
    Trajectory,
    distinct_times,
    evolve,
    thermal_collapse_rates,
    thermal_collapse_terms,
)
from .errors import (
    DomainError,
    InvalidArgumentError,
    InvalidDimensionError,
    OmstirapError,
    UndefinedSteadyStateError,
)
from .hilbert import (
    DensityMatrix,
    Generator,
    HilbertSpace,
    StateVector,
    _whole,
    coherent_state,
    fock_state,
    product_density,
    thermal_state,
)
from .model import (
    PICTURES,
    DriveCoefficients,
    DriveSchedule,
    SystemParams,
    _as_schedule_list,
    collective_operators,
    dark_state,
    hamiltonian_generator,
    pulse_centres,
    total_envelope,
)


@dataclass(frozen=True)
class InitialStateSpec:
    """Recipe for one mechanical mode's initial state (mode 1 by default).

    ``mode2`` optionally carries a second recipe for the other mechanical
    mode; the cavity always starts in vacuum.  ``explicit`` takes either
    diagonal ``weights`` or a full single-mode ``matrix``; ``heralded``
    builds the dark-count-weighted mixture of a blue-pumped thermal state
    and its click-projected counterpart.  ``signal_rate`` and ``dcr`` are the
    herald and dark-count rates as angular rates (rad/s); only their ratio
    enters the mixture.
    """

    kind: str
    n: int = 0
    alpha: complex = 0.0
    nbar: float = 0.0
    weights: tuple | None = None
    matrix: object = None
    signal_rate: float = 0.0
    dcr: float = 0.0
    mode2: "InitialStateSpec | None" = None

    KINDS = ("fock", "superposition_01", "coherent", "thermal", "heralded", "explicit")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidArgumentError(f"unknown initial-state kind {self.kind!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _floats(self.weights, "explicit weights"))
        _check_finite(self, "alpha", "nbar", "signal_rate", "dcr", "weights", "matrix")


def _floats(values, where: str) -> tuple:
    """``values``, a list of numbers, as a tuple of floats; anything else raises,
    a bool too, as it is no number."""
    if isinstance(values, str) or not np.iterable(values):
        raise InvalidArgumentError(f"{where} must be a list of numbers, not {values!r}")
    values = tuple(values)
    if any(isinstance(v, (bool, np.bool_)) for v in values):
        raise InvalidArgumentError(f"{where} must be numbers, not booleans: {values!r}")
    if not all(isinstance(v, numbers.Real) for v in values):
        raise InvalidArgumentError(f"{where} must be a list of numbers, not {values!r}")
    return tuple(map(float, values))


def _check_finite(recipe, *names):
    """Raise :class:`InvalidArgumentError` unless each named field of ``recipe``,
    a number or an array of numbers, is finite or None."""
    for name in names:
        value = getattr(recipe, name)
        if value is not None and not np.isfinite(np.asarray(value, dtype=complex)).all():
            raise InvalidArgumentError(
                f"{type(recipe).__name__}.{name} must be finite, not {value!r}")


_VACUUM, _PAIR = InitialStateSpec("fock"), ("mech1", "mech2")


def _single_mode(spec: InitialStateSpec, dim: int) -> np.ndarray:
    """One mode's state: amplitudes for a pure kind, a density matrix for a mixed one."""
    if spec.kind == "fock":
        if not 0 <= spec.n < dim:
            raise InvalidArgumentError(f"fock occupation {spec.n} outside dim {dim}")
        amps = np.zeros(dim, dtype=complex)
        amps[spec.n] = 1.0
        return amps
    if spec.kind == "superposition_01":
        amps = np.zeros(dim, dtype=complex)
        amps[0] = amps[1] = 1.0 / math.sqrt(2.0)
        return amps
    if spec.kind == "coherent":
        return coherent_state(dim, spec.alpha).amplitudes
    if spec.kind == "thermal":
        return thermal_state(dim, spec.nbar).matrix
    if spec.kind == "heralded":
        blue = thermal_state(dim, spec.nbar)
        return heralded_initial_state(blue, spec.signal_rate, spec.dcr).matrix
    if spec.matrix is not None:  # checked as a density matrix: the integrator assumes one
        return DensityMatrix(HilbertSpace((dim,)), spec.matrix).matrix
    if spec.weights is None:
        raise InvalidArgumentError("explicit kind needs weights or a matrix")
    w = np.zeros(dim)
    for i, v in enumerate(spec.weights):
        if i >= dim:
            raise InvalidArgumentError("explicit weights exceed the mode dimension")
        w[i] = v
    if w.min() < 0:
        raise InvalidArgumentError(f"explicit weights must be >= 0, not {list(spec.weights)}")
    if w.sum() <= 0:
        raise InvalidArgumentError("explicit weights must have positive mass")
    return np.diag((w / w.sum()).astype(complex))


def build_initial_state(space: HilbertSpace, spec: InitialStateSpec) -> StateVector | DensityMatrix:
    """Composite initial state: cavity vacuum x mode-1 recipe x mode-2 recipe.

    A :class:`StateVector` when both recipes are pure kinds, else a
    :class:`DensityMatrix`.
    """
    factors = [_single_mode(_VACUUM, space.dims[0]), _single_mode(spec, space.dims[1]),
               _single_mode(spec.mode2 or _VACUUM, space.dims[2])]
    if all(f.ndim == 1 for f in factors):
        return StateVector(space, functools.reduce(np.kron, factors), validate=False)
    return product_density(space, factors)


@dataclass(frozen=True)
class TargetSpec:
    """Recipe for the fidelity target, a state of the mechanical modes its kind names.

    ``psi_minus`` is (|1,0> - |0,1>)/sqrt(2) and ``superposition_minus_mode2``
    (|0,0> - |0,1>)/sqrt(2) on (mode 1, mode 2); ``fock_mode1`` and
    ``fock_mode2`` put ``n`` phonons in one mode; ``product_coherent`` is the
    coherent pair (alpha cos theta, -alpha sin theta); ``weights_mode2`` is the
    diagonal state of mode 2 with the explicit ``weights``.
    """

    kind: str
    n: int = 1
    alpha: complex = 1.0
    theta: float = math.pi / 4
    weights: tuple | None = None

    #: kind -> the modes its target lives on, as :func:`analysis.partial_trace` keeps them
    REDUCTIONS = {"psi_minus": _PAIR, "superposition_minus_mode2": _PAIR,
                  "weights_mode2": ("mech2",), "fock_mode1": _PAIR, "fock_mode2": _PAIR,
                  "product_coherent": _PAIR}

    def __post_init__(self):
        if self.kind not in self.REDUCTIONS:
            raise InvalidArgumentError(f"unknown target kind {self.kind!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", _floats(self.weights, "target weights"))
        _check_finite(self, "alpha", "theta", "weights")

    def state(self, dims) -> StateVector | DensityMatrix:
        """The target on the reduction of the 3-mode ``dims``."""
        d1, d2 = dims[1], dims[2]
        if self.kind == "weights_mode2":
            weights = _single_mode(InitialStateSpec("explicit", weights=self.weights), d2)
            return DensityMatrix(HilbertSpace((d2,)), weights)
        pair = HilbertSpace((d1, d2))
        if self.kind == "fock_mode1":
            return fock_state(pair, self.n, 0)
        if self.kind == "fock_mode2":
            return fock_state(pair, 0, self.n)
        if self.kind == "product_coherent":
            alpha = complex(self.alpha)
            c1 = coherent_state(d1, alpha * math.cos(self.theta)).amplitudes
            c2 = coherent_state(d2, -alpha * math.sin(self.theta)).amplitudes
            return StateVector(pair, np.kron(c1, c2))
        amps = np.zeros(pair.total_dim, dtype=complex)
        amps[pair.index((1, 0) if self.kind == "psi_minus" else (0, 0))] = 1 / math.sqrt(2)
        amps[pair.index((0, 1))] = -1 / math.sqrt(2)
        return StateVector(pair, amps)


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible simulation setup; its recipes are checked against
    its ``dims`` whenever it is built, :func:`dataclasses.replace` included."""

    params: SystemParams
    schedule: tuple[DriveSchedule, ...]  # one schedule or a sequence is stored as a tuple
    initial: InitialStateSpec
    dims: tuple[int, int, int] = (2, 5, 5)
    horizon: tuple[float, float] = (-2e-3, 2e-3)
    sample_count: int = 81
    target: TargetSpec | None = None
    eval_time: float | None = None
    picture: str = "rwa"
    lossless: bool = False
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10

    def __post_init__(self):
        if np.shape(self.horizon) != (2,):
            raise InvalidArgumentError(f"horizon must be (start, end), not {self.horizon!r}")
        _check_finite(self, "horizon", "eval_time")
        if self.horizon[0] >= self.horizon[1]:
            raise InvalidArgumentError("horizon start must precede its end")
        # an eval_time outside the horizon would move the integration window
        if self.eval_time is not None and not self.horizon[0] <= self.eval_time <= self.horizon[1]:
            raise InvalidArgumentError(
                f"eval_time {self.eval_time} lies outside the horizon {tuple(self.horizon)}")
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise InvalidArgumentError("tolerances must be finite and > 0")
        if not (_whole(self.sample_count) and self.sample_count >= 2):
            raise InvalidArgumentError(
                f"sample_count must be an integer >= 2, not {self.sample_count!r}")
        # stored as ints, as np.linspace and a hashable batch key need them
        if not (len(self.dims) == 3 and all(_whole(d) and d >= 2 for d in self.dims)):
            raise InvalidDimensionError(
                f"invalid dims {self.dims!r}: three mode dims, each >= 2 and an integer")
        object.__setattr__(self, "sample_count", int(self.sample_count))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if self.picture not in PICTURES:
            raise InvalidArgumentError(f"unknown picture {self.picture!r}")
        object.__setattr__(self, "schedule", tuple(_as_schedule_list(self.schedule)))
        # each mode's factor on its own: the product state is built per run
        _single_mode(self.initial, self.dims[1])
        _single_mode(self.initial.mode2 or _VACUUM, self.dims[2])
        if self.target is not None:
            self.target.state(self.dims)


@dataclass(frozen=True)
class ScenarioResult:
    trajectory: Trajectory
    summary: dict


def _sample_times(scenario: Scenario) -> np.ndarray:
    ts = np.linspace(scenario.horizon[0], scenario.horizon[1], scenario.sample_count)
    extra = () if scenario.eval_time is None else distinct_times(ts, [scenario.eval_time])
    return np.sort(np.append(ts, extra))


#: the most scenarios :func:`batches` puts in one batch
BATCH_COLUMNS = 16


def batch_key(scenario: Scenario) -> tuple:
    """What the scenarios of one batch share: all but their Hamiltonians' coefficients.

    Dims, picture, initial state and tolerances fix the reachable coordinates
    and the error norm; the lossless flag and the collapse rates fix the
    constant piece L0.
    The initial recipe enters by value, pickled, as it may hold an array.
    """
    rates = () if scenario.lossless else tuple(thermal_collapse_rates(scenario.params))
    return (scenario.dims, scenario.picture, scenario.lossless, scenario.rel_tol,
            scenario.abs_tol, rates, pickle.dumps(scenario.initial))


def batches(scenarios: Sequence[Scenario]) -> list[list[int]]:
    """Indices of ``scenarios`` grouped by :func:`batch_key`, each group cut in
    order into chunks of at most :data:`BATCH_COLUMNS`."""
    groups: dict = {}
    for i, scenario in enumerate(scenarios):
        groups.setdefault(batch_key(scenario), []).append(i)
    return [group[k:k + BATCH_COLUMNS] for group in groups.values()
            for k in range(0, len(group), BATCH_COLUMNS)]


def run_scenarios(scenarios: Sequence[Scenario]) -> list:
    """Evolve scenarios that share one :func:`batch_key` as one batch.

    Each scenario is a column of one DP45 ensemble and takes exactly the
    steps it takes alone.  Returns per scenario its :class:`ScenarioResult`,
    as :func:`run_scenario` gives it, or the integration error
    (:class:`~omstirap.errors.StiffnessError`,
    :class:`~omstirap.errors.IntegrationDivergedError`) that stopped it; the
    other columns carry on.  The observables of the finished columns are
    taken in one pass on one LAPACK thread (:func:`_observables`,
    :func:`~omstirap.blas.one_blas_thread`), so each summary's ``wall_time_s``
    and ``timing.observables_s`` are the batch's, and ``blas_threads`` is the
    pass's thread setting, ``{"seen": n, "used": 1}``, or None when it could
    not be set.
    """
    t_start = time.perf_counter()
    first = scenarios[0]
    key = batch_key(first)
    if any(batch_key(s) != key for s in scenarios[1:]):
        raise InvalidArgumentError("the scenarios of a batch must share their batch_key")
    space = HilbertSpace(first.dims)
    state0 = build_initial_state(space, first.initial)
    ops = hamiltonian_generator(first.params, first.schedule, space, first.picture).ops
    rule = DriveCoefficients(first.picture, [(s.params, s.schedule) for s in scenarios])
    h = Generator(space, None, ops, rule)
    configs = [IntegratorConfig(sample_times=_sample_times(s), rel_tol=s.rel_tol,
                                abs_tol=s.abs_tol, stops=pulse_centres(s.schedule))
               for s in scenarios]
    collapse = () if first.lossless else tuple(thermal_collapse_terms(space, first.params))
    runs = evolve(LindbladModel(space, h, collapse), state0, configs)

    done = [i for i, traj in enumerate(runs) if not isinstance(traj, OmstirapError)]
    t_obs = time.perf_counter()
    with blas.one_blas_thread() as threads:
        observables = _observables([scenarios[i] for i in done], space, [runs[i] for i in done])
    t_end = time.perf_counter()
    results = list(runs)
    for i, obs in zip(done, observables):
        traj = runs[i].with_observables(obs)
        summary = _summary(scenarios[i], traj, obs)
        summary["integrator"] = asdict(traj.stats)
        summary["timing"] = {**traj.timing, "observables_s": t_end - t_obs}
        summary["blas_threads"] = None if threads is None else dict(threads)
        summary["wall_time_s"] = t_end - t_start
        results[i] = ScenarioResult(trajectory=traj, summary=summary)
    return results


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Evolve the scenario and attach every observable series.

    The summary reports the fidelity at the declared evaluation time (both
    the squared Uhlmann value and its square root, the trace convention),
    the running peak of the negativity, the final mode populations, and the
    peak population of each mode's top Fock level.  It is a batch of one.
    """
    result, = run_scenarios([scenario])
    if isinstance(result, Exception):
        raise result
    return result


def _reduction_index(dims, keep) -> np.ndarray:
    """The (T, D) state indices of the modes ``dims``: row t holds the states whose
    traced modes read t, in the order of the kept modes ``keep`` (names)."""
    kept = sorted(analysis.MODE_NAMES[name] for name in keep)
    traced = [m for m in range(len(dims)) if m not in kept]
    index = np.arange(math.prod(dims)).reshape(dims).transpose(*traced, *kept)
    return index.reshape(-1, math.prod(dims[m] for m in kept))


def _sample_readers(space: HilbertSpace, coords, samples: np.ndarray) -> tuple:
    """(populations, reduced) of the sampled states in the rows of ``samples``,
    the stepped coordinates of ``coords``
    (:class:`~omstirap.dynamics._RealCoordinates`), with no d x d state formed:
    the (S, d) diagonals, and keep -> the (S, D, D) reduced states on the modes
    ``keep``.

    rho is linear in its coordinates (:meth:`~omstirap.dynamics._RealCoordinates.entries`):
    a population is one of them, and each reduced state is one sparse map from
    them, where rho_ij adds to the entry (a, b) of the kept modes of i and j
    when their traced modes agree.  A pure state's amplitudes psi give
    |psi_i|^2 and Tr_t |psi><psi| = sum_t psi_t psi_t^+, one batched product
    over the (S, T, D) amplitudes.
    """
    d = space.total_dim
    if coords.hermitian:
        entries, positions, values = coords.entries()
        i, j = np.divmod(entries, d)
        diagonal = i == j
        populations = np.zeros((len(samples), d))
        populations[:, i[diagonal]] = samples[:, positions[diagonal]]

        def reduced(keep):
            index = _reduction_index(space.dims, keep)
            n = index.shape[1]
            traced, kept = np.divmod(np.argsort(index.ravel()), n)  # of each state
            same = traced[i] == traced[j]
            lin = scipy.sparse.csr_matrix(
                (values[same], (kept[i[same]] * n + kept[j[same]], positions[same])),
                shape=(n * n, samples.shape[1]))
            return (lin @ samples.T).T.reshape(-1, n, n)
    else:
        psi = coords.vector(samples)
        populations = psi.real * psi.real + psi.imag * psi.imag

        def reduced(keep):  # one batched product, which c_einsum's loops take 15 times as long
            amplitudes = psi[:, _reduction_index(space.dims, keep)]
            return amplitudes.transpose(0, 2, 1) @ amplitudes.conj()
    return populations, reduced


def _number_terms(b) -> tuple:
    """(weights, j, k) of Tr(b^+ b rho) = sum weights rho_jk for the CSR ``b``: one
    term conj(b_ik) b_ij for each two entries of a row i of b, with no product formed."""
    rows = np.repeat(np.arange(b.shape[0]), np.diff(b.indptr))
    p, q = np.nonzero(rows[:, None] == rows)
    return b.data[p] * b.data[q].conj(), b.indices[p], b.indices[q]


def _observables(scenarios: Sequence[Scenario], space: HilbertSpace,
                 trajs: Sequence[Trajectory]) -> list[dict]:
    """Per column of one batch, every series its inputs allow; the fidelity
    needs a target.

    The columns share the run's coordinates, so their samples
    (:attr:`Trajectory.samples`) are read as one stack by
    :func:`_sample_readers`, built once per batch, and no d x d state is
    formed: the mode populations, the population of each mode's top Fock
    level and p1 come from the diagonals, and the reduced states on the mode
    pair and on each target's modes from the reductions.  The collective
    operators act on the mode pair alone and are built on it, once per
    distinct (g1, g2), and each occupation Tr(b^+ b rho) is read from the
    entries of b (:func:`_number_terms`).  The negativity is one
    :func:`analysis.negativity_stack` call on the reduced pairs of every
    column, and the fidelity one :func:`analysis.fidelity_stack` call per
    target, built once per distinct recipe, each split back by column; every
    state is read on its own, so a column's series are those of its run alone.
    """
    if not trajs:
        return []
    samples = np.concatenate([traj.samples for traj in trajs])
    populations, reduced = _sample_readers(space, trajs[0].coords, samples)
    populations = populations.reshape(-1, *space.dims)
    stacks = {_PAIR: reduced(_PAIR)}
    pair_space = HilbertSpace(space.dims[1:])
    outs, occupations = [], {}
    starts = np.cumsum([0] + [len(traj.samples) for traj in trajs])
    for scenario, traj, start, stop in zip(scenarios, trajs, starts, starts[1:]):
        out = {f"alpha{j}": total_envelope(scenario.schedule, j, traj.times) for j in (1, 2)}
        pops = populations[start:stop]
        for n, name in (("nc", "cavity"), ("n1", "mech1"), ("n2", "mech2")):
            mode = analysis.MODE_NAMES[name]
            marginal = pops.sum(axis=tuple(1 + m for m in range(3) if m != mode))
            out[n] = marginal @ np.arange(space.dims[mode])
            out[f"top_{name}"] = marginal[:, -1]
        out["p1"] = pops[:, :, 1, :].sum(axis=(1, 2))
        g = (scenario.params.g1, scenario.params.g2)
        if g not in occupations:
            bm, bp = collective_operators(pair_space, scenario.params, None)
            occupations[g] = [(name, _number_terms(b))
                              for name, b in (("n_plus", bp), ("n_minus", bm))]
        pair = stacks[_PAIR][start:stop]
        for name, (weights, j, k) in occupations[g]:
            out[name] = np.einsum("k,sk->s", weights, pair[:, j, k]).real
        outs.append(out)
    for out, series in zip(outs, np.split(
            analysis.negativity_stack(stacks[_PAIR], space.dims[1:]), starts[1:-1])):
        out["negativity"] = series
    columns: dict = {}
    for i, scenario in enumerate(scenarios):
        if scenario.target is not None:
            columns.setdefault(scenario.target, []).append(i)
    for target, cols in columns.items():
        keep = TargetSpec.REDUCTIONS[target.kind]
        if keep not in stacks:
            stacks[keep] = reduced(keep)
        states = np.concatenate([stacks[keep][starts[i]:starts[i + 1]] for i in cols])
        fidelity = analysis.fidelity_stack(states, target.state(space.dims))
        bounds = np.cumsum([starts[i + 1] - starts[i] for i in cols])[:-1]
        for i, series in zip(cols, np.split(fidelity, bounds)):
            outs[i]["fidelity"] = series
    return outs


#: summary key -> (the observable series it reads, its value from the series and the
#: index of the evaluation time)
_SUMMARY_KEYS = {
    "fidelity": ("fidelity", lambda s, i: s[i]),
    "fidelity_sqrt": ("fidelity", lambda s, i: math.sqrt(max(0.0, s[i]))),
    "peak_negativity": ("negativity", lambda s, i: np.max(s)),
    "final_negativity": ("negativity", lambda s, i: s[-1]),
    **{key: (name, reduce) for name in ("n1", "n2", "nc", "p1") for key, reduce in
       ((f"final_{name}", lambda s, i: s[-1]), (f"{name}_at_eval", lambda s, i: s[i]))},
    # truncation: the largest population the top Fock level of each mode reached
    **{f"peak_top_{mode}": (f"top_{mode}", lambda s, i: np.max(s))
       for mode in ("cavity", "mech1", "mech2")},
}


def summary_keys(scenario: Scenario) -> set[str]:
    """The float keys of the summary :func:`run_scenario` returns for ``scenario``:
    every key, less the fidelity pair when there is no target."""
    return {"eval_time_s", "wall_time_s"} | {
        key for key, (name, _) in _SUMMARY_KEYS.items()
        if name != "fidelity" or scenario.target is not None}


def _summary(scenario: Scenario, traj: Trajectory, obs: dict) -> dict:
    ts = traj.times
    eval_t = scenario.eval_time if scenario.eval_time is not None else ts[-1]
    i_eval = int(np.argmin(np.abs(ts - eval_t)))
    summary = {"eval_time_s": float(ts[i_eval])}
    summary.update((key, float(value(obs[name], i_eval)))
                   for key, (name, value) in _SUMMARY_KEYS.items() if name in obs)
    return summary


def analytic_final_state(initial: StateVector, theta: float) -> StateVector:
    """Lossless adiabatic image of a mode-1 state under fractional transfer.

    The input must live on the 3-mode space with cavity and mode 2 in
    vacuum: sum_n c_n |0, n, 0>.  Each Fock layer maps onto the
    n-excitation dark state at mixing angle theta, so at theta = pi/2 the
    output is sum_n (-1)^n c_n |0, 0, n> and a coherent input factorizes
    into coherent states of both modes.  Serves as the exact oracle for the
    simulated lossless passage.
    """
    space = initial.space
    if space.n_modes != 3:
        raise InvalidArgumentError("expected a 3-mode state")
    amps = initial.amplitudes
    coeffs = np.zeros(space.dims[1], dtype=complex)
    for idx, amp in enumerate(amps):
        if abs(amp) == 0.0:
            continue
        nc, n1, n2 = space.multi_index(idx)
        if nc != 0 or n2 != 0:
            raise InvalidArgumentError(
                "initial state must have cavity and mode 2 in vacuum"
            )
        coeffs[n1] = amp
    out = np.zeros(space.total_dim, dtype=complex)
    for n, c in enumerate(coeffs):
        if abs(c) == 0.0:
            continue
        out = out + c * dark_state(space, n, theta)
    return StateVector(space, out)


def heralded_initial_state(
    rho_blue: DensityMatrix, signal_rate: float, dcr: float
) -> DensityMatrix:
    """Detector-click mixture of the blue-pumped state and its herald.

    A genuine Stokes click means one phonon was added, so the heralded
    branch carries the blue-state populations shifted up one level with the
    vacuum weight removed; a dark count leaves the state untouched.  The
    two branches are mixed with their click rates:

        rho = (dcr * rho_blue + signal * shifted(rho_blue)) / (dcr + signal).
    """
    if signal_rate < 0 or dcr < 0:
        raise InvalidArgumentError("rates must be >= 0")
    total = signal_rate + dcr
    if total == 0.0:
        raise InvalidArgumentError("signal and dark-count rates are both zero")
    d = rho_blue.space.total_dim
    shift = np.eye(d, k=-1)  # |n+1><n|
    lifted = shift @ rho_blue.matrix @ shift.T
    tr = np.trace(lifted).real
    if tr <= 0:
        raise InvalidArgumentError("blue state has no liftable population")
    lifted = lifted / tr
    mixed = (dcr * rho_blue.matrix + signal_rate * lifted) / total
    mixed = mixed / np.trace(mixed).real
    return DensityMatrix(rho_blue.space, mixed, validate=False)


@dataclass(frozen=True)
class FringeResult:
    """Phase sweep of the reversed-sequence interferometer.

    ``integrator`` and ``batches`` report the work of its points, as
    :class:`~omstirap.sweep.SweepResult` does for its cells.
    """

    phi2_values: np.ndarray
    p1_values: np.ndarray
    amplitude: float
    visibility: float
    phase: float
    integrator: dict | None = None
    batches: tuple = ()


def _fringe_scenario(
    base: Scenario, phi1: float, phi2: float, wait: float, include_forward: bool
) -> Scenario:
    fwd = base.schedule[0]
    if fwd.kind != "fractional":
        raise InvalidArgumentError("interferometry starts from a fractional sequence")
    fwd = replace(fwd, phase2=phi1)
    rev = replace(fwd, kind="reversed_fractional", phase2=phi2, t0=fwd.t0 + wait)
    pad = fwd.tau + 4.0 * max(fwd.sigma1, fwd.sigma2)
    if include_forward:
        schedule: tuple = (fwd, rev)
        horizon = (fwd.t0 - pad, rev.t0 + pad)
    else:
        schedule = (rev,)
        horizon = (rev.t0 - pad, rev.t0 + pad)
    return replace(base, schedule=schedule, horizon=horizon, eval_time=horizon[1])


def check_workers(workers) -> int:
    """``workers`` if it is a positive integer; any other value raises."""
    if isinstance(workers, bool) or not (isinstance(workers, numbers.Integral) and workers > 0):
        raise InvalidArgumentError(f"workers must be a positive integer, not {workers!r}")
    return int(workers)


#: the ``summary["integrator"]`` counts :func:`_integrator_totals` sums over runs
_SUMMED = ("accepted", "rejected", "rhs_evals", "clamped", "interpolated")


def _integrator_totals(summaries: list) -> dict | None:
    """The work of the finished runs among ``summaries`` (a summary or an error
    each): the counts of :data:`_SUMMED` summed, the least ``h_min`` and the
    largest ``h_max``; None when no run finished."""
    reports = [s["integrator"] for s in summaries if not isinstance(s, OmstirapError)]
    if not reports:
        return None
    totals = {key: sum(r[key] for r in reports) for key in _SUMMED}
    totals["h_min"] = min(r["h_min"] for r in reports)
    totals["h_max"] = max(r["h_max"] for r in reports)
    return totals


def _run_batch(scenarios: list) -> tuple:
    """Per scenario of one batch its summary, or the error that stopped it; and
    the batch's record for :func:`run_batches`."""
    t0 = time.perf_counter()
    try:
        results = [r if isinstance(r, OmstirapError) else r.summary
                   for r in run_scenarios(scenarios)]
    except OmstirapError as exc:  # a failure before the integration fails every scenario
        results = [exc] * len(scenarios)
    done = [r for r in results if not isinstance(r, OmstirapError)]
    record = {"cells": len(scenarios), "wall_time_s": time.perf_counter() - t0,
              "blas_threads": done[0]["blas_threads"] if done else None}
    return results, record


def run_batches(scenarios: Sequence[Scenario], workers: int) -> tuple[list, list]:
    """Run ``scenarios`` as the :func:`batches`, one job per batch, on up to
    ``workers`` processes (checked by :func:`check_workers` before any run,
    capped at the CPU count and at the job count; one runs in this process,
    so a single batch never starts a pool).

    Returns per scenario, in input order, its summary or the
    :class:`~omstirap.errors.OmstirapError` that stopped it, and per batch its
    ``cells``, ``wall_time_s`` and the ``blas_threads`` setting of its
    observables pass (None when it could not be set or no scenario finished).
    Each scenario steps as it does alone, whatever the worker count.
    """
    workers = check_workers(workers)
    groups = batches(scenarios)
    jobs = [[scenarios[i] for i in group] for group in groups]
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        outcomes = [_run_batch(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_batch, jobs))
    results: list = [None] * len(scenarios)
    for group, (summaries, _) in zip(groups, outcomes):
        for i, summary in zip(group, summaries):
            results[i] = summary
    return results, [record for _, record in outcomes]


def run_interferometry(
    base: Scenario,
    phi2_values: Sequence[float] = tuple(np.linspace(-2 * math.pi, 2 * math.pi, 17)),
    phi1: float = 0.0,
    wait: float = 4e-3,
    workers: int = 1,
    include_forward: bool = True,
) -> FringeResult:
    """Sweep the reversed-sequence drive phase and fit the p1 fringe.

    For each phi2 the protocol runs the base fractional sequence (relative
    phase phi1), holds for ``wait`` (center-to-center), then applies the
    time-reversed sequence at relative phase phi2, recording the final
    single-phonon probability of mode 1.  The fringe is fit by least
    squares to A (1 + V cos(phase - phi2)).  The phase points share a
    :func:`batch_key` and run through :func:`run_batches`; a failed point
    raises the error that stopped it.

    ``include_forward=False`` treats the base initial state as the state
    already present at the hold point and applies only the reversed
    sequence.  That is the reference configuration for product states: a
    diagonal or factorized input is blind to the drive phase and yields a
    flat fringe there, whereas a full forward pass through the lossy cavity
    purifies the bright collective mode and manufactures phase contrast
    even from thermal inputs.
    """
    phi2s = np.asarray(_floats(phi2_values, "phi2_values"))
    if phi2s.size < 3:
        raise InvalidArgumentError("need at least 3 phase points to fit a fringe")
    points = [_fringe_scenario(base, phi1, float(p2), wait, include_forward) for p2 in phi2s]
    summaries, records = run_batches(points, workers)
    for summary in summaries:
        if isinstance(summary, OmstirapError):
            raise summary
    p1 = np.array([summary["final_p1"] for summary in summaries])
    design = np.column_stack([np.ones_like(phi2s), np.cos(phi2s), np.sin(phi2s)])
    c0, cc, cs = np.linalg.lstsq(design, p1, rcond=None)[0]
    amplitude = float(c0)
    contrast = math.hypot(cc, cs)
    visibility = float(contrast / c0) if c0 > 0 else 0.0
    phase = math.atan2(cs, cc)
    return FringeResult(
        phi2_values=phi2s,
        p1_values=p1,
        amplitude=amplitude,
        visibility=visibility,
        phase=phase,
        integrator=_integrator_totals(summaries),
        batches=tuple(records),
    )


@dataclass(frozen=True)
class PlannerInputs:
    """Closed-form experiment-planning inputs (angular rates in rad/s)."""

    g: float
    kappa: float
    delta: float
    omega_m: float
    n_th: float
    gamma_m: float = 0.0
    cool_duration: float = 5e-3
    blue_duration: float = 1e-4
    readout_duration: float = 5e-4
    readout_g: float = 0.0
    eta_d: float = 1.0
    eta_r: float = 1.0
    dcr: float = 0.0
    stokes_probability: float = 0.1
    rho00: float = 0.0

    def __post_init__(self):
        for name in ("eta_d", "eta_r", "stokes_probability", "rho00"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1]")
        for name in ("kappa", "omega_m"):
            if getattr(self, name) <= 0:
                raise InvalidArgumentError(f"{name} must be > 0")
        if self.gamma_m < 0 or self.n_th < 0 or self.dcr < 0:
            raise InvalidArgumentError("rates must be >= 0")


def visibility_model(inputs: PlannerInputs, wait: float) -> float:
    """Closed-form fringe visibility with detection and decoherence factors.

    V = eta_d * eta_r * exp(-((kappa + gamma_m)/2 + gamma_m * n_th) * wait).
    """
    rate = 0.5 * (inputs.kappa + inputs.gamma_m) + inputs.gamma_m * inputs.n_th
    return inputs.eta_d * inputs.eta_r * math.exp(-rate * wait)


def cooling_steady_state(inputs: PlannerInputs) -> tuple[float, float, float]:
    """Sideband-cooling rate, quantum backaction floor and steady occupancy.

    Returns (gamma_opt, nbar_min, nbar_f) with the Lorentzian rate

        gamma_opt = g^2 (kappa / (kappa^2/4 + (delta + w)^2)
                          - kappa / (kappa^2/4 + (delta - w)^2)),

    its detailed-balance floor nbar_min, and the steady phonon number
    nbar_f = (gamma_opt nbar_min + n_th gamma_m) / (gamma_opt + gamma_m).
    """
    k2 = inputs.kappa**2 / 4.0
    lor_plus = inputs.kappa / (k2 + (inputs.delta + inputs.omega_m) ** 2)
    lor_minus = inputs.kappa / (k2 + (inputs.delta - inputs.omega_m) ** 2)
    gamma_opt = inputs.g**2 * (lor_plus - lor_minus)
    ratio = (k2 + (inputs.delta - inputs.omega_m) ** 2) / (
        k2 + (inputs.delta + inputs.omega_m) ** 2
    )
    nbar_min = 1.0 / (ratio - 1.0) if ratio != 1.0 else math.inf
    denom = gamma_opt + inputs.gamma_m
    if denom == 0.0:
        raise UndefinedSteadyStateError("gamma_opt + gamma_m is zero")
    nbar_f = (gamma_opt * nbar_min + inputs.n_th * inputs.gamma_m) / denom
    return gamma_opt, nbar_min, nbar_f


def detection_budget(inputs: PlannerInputs) -> tuple[float, float, float, float]:
    """Heralding and readout timing estimates.

    Returns (t_herald, p_final, t_readout, readout_success):
    t_herald = (cool + blue durations) / (p * eta_d) is the mean time per
    heralding click, p_final = eta_d (1 - rho00) the per-herald detection
    probability at readout, t_readout their quotient, and readout_success
    the phonon-to-photon conversion probability 1 - exp(-rate * duration)
    with the rate capped at the cavity linewidth (the photon cannot leave
    faster than the cavity decays).
    """
    if inputs.eta_d <= 0 or inputs.stokes_probability <= 0:
        raise DomainError("eta_d and stokes_probability must be > 0")
    t_herald = (inputs.cool_duration + inputs.blue_duration) / (
        inputs.stokes_probability * inputs.eta_d
    )
    p_final = inputs.eta_d * (1.0 - inputs.rho00)
    if p_final <= 0:
        raise DomainError("p_final vanishes; cannot estimate readout time")
    t_readout = t_herald / p_final
    gamma_read = (
        4.0 * inputs.readout_g**2 / inputs.kappa if inputs.readout_g > 0 else 0.0
    )
    rate = min(gamma_read, inputs.kappa) if gamma_read > 0 else 0.0
    readout_success = 1.0 - math.exp(-rate * inputs.readout_duration)
    return t_herald, p_final, t_readout, readout_success
