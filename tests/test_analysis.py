import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from omstirap import analysis
from omstirap.analysis import (
    MODE_NAMES,
    antisymmetric_mode_state,
    fidelity,
    fidelity_stack,
    negativity,
    negativity_stack,
    partial_trace,
    partial_trace_stack,
    partial_transpose,
    trace_fidelity,
    wigner_single_mode,
)
from omstirap.errors import InvalidArgumentError, InvalidDimensionError, InvalidStateError
from omstirap.hilbert import (
    DensityMatrix,
    HilbertSpace,
    StateVector,
    fock_state,
    product_density,
    thermal_state,
)

def _psi_minus(d=2):
    sp = HilbertSpace((d, d))
    amps = np.zeros(sp.total_dim, dtype=complex)
    amps[sp.index((1, 0))] = 1 / math.sqrt(2)
    amps[sp.index((0, 1))] = -1 / math.sqrt(2)
    return DensityMatrix(sp, np.outer(amps, amps.conj()))


def _random_density(space, seed):
    rng = np.random.default_rng(seed)
    d = space.total_dim
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    return DensityMatrix(space, rho / np.trace(rho))


def _random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ------------------------------------------------------------- partial trace

def test_partial_trace_product_factorization():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = thermal_state(5, 0.2)
        r2 = thermal_state(6, 0.5)
    cav = np.zeros((2, 2), dtype=complex)
    cav[0, 0] = 0.4
    cav[1, 1] = 0.6
    sp = HilbertSpace((2, 5, 6))
    rho = product_density(sp, [cav, r1.matrix, r2.matrix])
    red = partial_trace(rho, ("mech1", "mech2"))
    np.testing.assert_allclose(red.matrix, np.kron(r1.matrix, r2.matrix), atol=1e-14)


def test_partial_trace_bell_marginal():
    m2 = partial_trace(_psi_minus(), (0,))
    np.testing.assert_allclose(np.diag(m2.matrix).real, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(m2.matrix - np.diag(np.diag(m2.matrix)), 0, atol=1e-14)


def _brute_force_trace(rho, dims, keep):
    """Index-summation oracle independent of the einsum implementation."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    dk = int(np.prod(kept_dims))
    out = np.zeros((dk, dk), dtype=complex)
    space = HilbertSpace(tuple(dims))
    red_space = HilbertSpace(tuple(kept_dims))
    for i in range(space.total_dim):
        mi = space.multi_index(i)
        for j in range(space.total_dim):
            mj = space.multi_index(j)
            if any(mi[t] != mj[t] for t in traced):
                continue
            r = red_space.index(tuple(mi[k] for k in keep))
            c = red_space.index(tuple(mj[k] for k in keep))
            out[r, c] += rho[i, j]
    return out


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_partial_trace_against_brute_force(seed):
    sp = HilbertSpace((2, 3, 3))
    rho = _random_density(sp, seed)
    for keep in ((0,), (1, 2), (0, 2)):
        red = partial_trace(rho, keep)
        expected = _brute_force_trace(rho.matrix, sp.dims, keep)
        np.testing.assert_allclose(red.matrix, expected, atol=1e-12)
        assert abs(np.trace(red.matrix) - 1.0) < 1e-12


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(InvalidArgumentError):
        partial_trace(_psi_minus(), ())


# --------------------------------------------------------------- negativity

def test_negativity_bell():
    assert np.isclose(negativity(_psi_minus()), 0.5, atol=1e-12)


def test_negativity_product_states():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r1 = thermal_state(6, 0.3)
        r2 = thermal_state(8, 0.9)
    prod = product_density(HilbertSpace((6, 8)), [r1, r2])
    assert negativity(prod) == 0.0


def test_negativity_werner_against_eigen_oracle():
    p = 0.5
    bell = _psi_minus().matrix
    rho = p * bell + (1 - p) * np.eye(4) / 4
    dm = DensityMatrix(HilbertSpace((2, 2)), rho)
    # independent oracle: explicit 4x4 partial transpose and eigenvalues
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    evals = np.linalg.eigvalsh(pt)
    expected = -evals[evals < 0].sum()
    assert np.isclose(negativity(dm), expected, atol=1e-12)
    assert np.isclose(expected, (3 * p - 1) / 4, atol=1e-12)


@given(seed=st.integers(min_value=0, max_value=40))
@settings(max_examples=10, deadline=None)
def test_negativity_local_unitary_invariant(seed):
    sp = HilbertSpace((3, 3))
    rho = _random_density(sp, seed)
    base = negativity(rho)
    u = np.kron(_random_unitary(3, seed + 1), _random_unitary(3, seed + 2))
    rotated = DensityMatrix(sp, u @ rho.matrix @ u.conj().T, validate=False)
    assert abs(negativity(rotated) - base) < 1e-8


def test_partial_transpose_mode_choice():
    rho = _psi_minus()
    pt1 = partial_transpose(rho, 1)
    pt0 = partial_transpose(rho, 0)
    np.testing.assert_allclose(pt0, pt1.T, atol=1e-14)


# ----------------------------------------------------------------- fidelity

def test_fidelity_self_and_orthogonal():
    rho = _random_density(HilbertSpace((3, 3)), 2)
    assert np.isclose(fidelity(rho, rho), 1.0, atol=1e-9)
    sp = HilbertSpace((2,))
    f0 = fock_state(sp, 0).density_matrix()
    f1 = fock_state(sp, 1).density_matrix()
    assert fidelity(f0, f1) == 0.0


def test_fidelity_pure_target_reduces_to_overlap():
    sp = HilbertSpace((3, 3))
    rho = _random_density(sp, 5)
    rng = np.random.default_rng(6)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    psi = StateVector(sp, amps)
    direct = float(np.real(np.vdot(amps, rho.matrix @ amps)))
    assert np.isclose(fidelity(rho, psi), direct, atol=1e-10)
    # consistent with the mixed-state formula
    assert np.isclose(fidelity(rho, psi.density_matrix()), direct, atol=1e-9)


def test_fidelity_symmetric_and_matches_sqrtm_oracle():
    sp = HilbertSpace((3,))
    a = _random_density(sp, 7)
    b = _random_density(sp, 8)
    f_ab = fidelity(a, b)
    f_ba = fidelity(b, a)
    assert abs(f_ab - f_ba) < 1e-9
    # independent route through matrix square roots
    sq = scipy.linalg.sqrtm(a.matrix)
    inner = scipy.linalg.sqrtm(sq @ b.matrix @ sq)
    expected = float(np.real(np.trace(inner)) ** 2)
    assert abs(f_ab - expected) < 1e-8
    assert np.isclose(trace_fidelity(a, b), math.sqrt(f_ab), atol=1e-12)


# ------------------------------------------------------------ stacked forms

def _trace_ref(matrix, dims, keep):
    """Reference reduction: np.trace over each traced mode pair, highest first."""
    kept = [MODE_NAMES.get(k, k) for k in keep]
    tensor, n = matrix.reshape(*dims, *dims), len(dims)
    for i in reversed([m for m in range(len(dims)) if m not in kept]):
        tensor = np.trace(tensor, axis1=i, axis2=i + n)
        n -= 1
    d = math.prod(dims[m] for m in kept)
    return tensor.reshape(d, d)


def _negativity_ref(pair):
    evals = np.linalg.eigvalsh(partial_transpose(pair))
    return max(0.0, -float(evals[evals < 0].sum()))


def _fidelity_ref(rho, target):
    if isinstance(target, StateVector):
        return float(np.real(np.vdot(target.amplitudes, rho @ target.amplitudes)))
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    evals = np.clip(np.linalg.eigvalsh(sq @ target.matrix @ sq), 0.0, None)
    return min(1.0, float(np.sum(np.sqrt(evals)) ** 2))


def test_stacked_forms_match_the_per_state_functions():
    sp = HilbertSpace((2, 3, 3))
    states = [_random_density(sp, seed) for seed in range(4)]
    stack = np.array([st.matrix for st in states])
    for keep in ((0,), (2,), (1, 2), (0, 2), ("mech1", "mech2"), (0, 1, 2)):
        reduced = partial_trace_stack(stack, sp.dims, keep)
        for st, red in zip(states, reduced):
            assert np.max(np.abs(red - _trace_ref(st.matrix, sp.dims, keep))) <= 1e-15
            assert np.max(np.abs(partial_trace(st, keep).matrix - red)) <= 1e-15
    # nine modes, one more than a subscript string of eight row letters labels
    many = _random_density(HilbertSpace((2,) * 9), 11)
    for keep in ((0,), (3, 8), tuple(range(9))):
        want = _trace_ref(many.matrix, many.space.dims, keep)
        red = partial_trace_stack(many.matrix[None], many.space.dims, keep)[0]
        assert np.max(np.abs(red - want)) <= 1e-15
        assert np.max(np.abs(partial_trace(many, keep).matrix - want)) <= 1e-15
        assert partial_trace(many, keep).space.dims == (2,) * len(keep)
    pairs = partial_trace_stack(stack, sp.dims, (1, 2))
    pair_space = HilbertSpace((3, 3))
    bell = np.zeros((9, 9), dtype=complex)
    bell[np.ix_([1, 3], [1, 3])] = [[0.5, -0.5], [-0.5, 0.5]]  # (|0,1> - |1,0>)/sqrt(2)
    pairs = np.concatenate([pairs, bell[None]])
    pair_states = [DensityMatrix(pair_space, pair, validate=False) for pair in pairs]
    got = negativity_stack(pairs, (3, 3))
    for value, pair in zip(got, pair_states):
        assert abs(value - _negativity_ref(pair)) <= 1e-15
        assert abs(negativity(pair) - value) <= 1e-15
    assert got[-1] == pytest.approx(0.5, abs=1e-14)
    mixed = _random_density(pair_space, 9)
    pure = StateVector(pair_space, _random_unitary(9, 10)[:, 0])
    for target in (mixed, pure):
        for value, pair in zip(fidelity_stack(pairs, target), pair_states):
            assert abs(value - _fidelity_ref(pair.matrix, target)) <= 1e-13
            assert abs(fidelity(pair, target) - value) <= 1e-15


@pytest.mark.parametrize("real", [False, True])
def test_negativity_takes_planted_blocks_one_by_one(real):
    # random Hermitian blocks of sizes 5, 3, 1 and 3 on a random permutation of the 12
    # states of (3, 4), planted in the partial transposes of a stack of 6
    rng = np.random.default_rng(17 + real)
    dims, s = (3, 4), 6
    n = math.prod(dims)
    members = np.split(rng.permutation(n), np.cumsum([5, 3, 1]))
    flipped = np.zeros((s, n, n), dtype=complex)
    for index in members:
        k = len(index)
        a = rng.normal(size=(s, k, k)) + (0 if real else 1j) * rng.normal(size=(s, k, k))
        flipped[:, index[:, None], index] = a + a.conj().transpose(0, 2, 1)
    # the partial transpose is its own inverse
    pairs = flipped.reshape(s, *dims, *dims).transpose(0, 1, 4, 3, 2).reshape(s, n, n)
    pattern = (flipped != 0).any(axis=0)
    blocks = analysis._blocks(pattern)
    assert [b.shape for b in blocks] == [(1, 1), (2, 3), (1, 5)]
    found = sorted(tuple(block) for group in blocks for block in group)
    assert found == sorted(tuple(sorted(index)) for index in members)
    evals = np.linalg.eigvalsh(flipped)
    want = np.where(evals < 0, -evals, 0.0).sum(axis=1)
    got = negativity_stack(pairs, dims)
    assert np.all(want > 0)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_a_dense_state_is_one_block():
    # its one block is the whole partial transpose, in order, so the blockwise
    # negativity is bitwise the whole matrix's
    dims = (3, 4)
    stack = np.array([_random_density(HilbertSpace(dims), seed).matrix for seed in (3, 4)])
    evals = np.linalg.eigvalsh(np.array([partial_transpose(DensityMatrix(HilbertSpace(dims), m))
                                         for m in stack]))
    want = np.where(evals < 0, -evals, 0.0).sum(axis=1)
    assert negativity_stack(stack, dims).tobytes() == want.tobytes()


def test_stacked_forms_check_their_inputs():
    sp = HilbertSpace((2, 2))
    stack = _random_density(sp, 1).matrix[None]
    with pytest.raises(InvalidArgumentError):
        partial_trace_stack(stack, sp.dims, ())
    with pytest.raises(InvalidArgumentError, match="nosuch"):
        partial_trace(DensityMatrix(sp, stack[0]), ("nosuch",))
    with pytest.raises(InvalidDimensionError):
        negativity_stack(np.eye(8, dtype=complex)[None] / 8, (2, 2, 2))
    with pytest.raises(InvalidStateError):
        negativity_stack(stack + np.triu(np.ones((4, 4)), 1), sp.dims)
    with pytest.raises(InvalidDimensionError):
        fidelity_stack(stack, fock_state(HilbertSpace((3,)), 1))


# ------------------------------------------------------------------- wigner

def test_wigner_reference_points():
    xg = np.linspace(-6, 6, 121)
    pg = np.linspace(-6, 6, 121)
    i0 = 60
    vac = thermal_state(10, 0.0)
    w = wigner_single_mode(vac, xg, pg)
    assert np.isclose(w[i0, i0], 1 / math.pi, atol=1e-12)
    one = DensityMatrix(HilbertSpace((6,)), np.diag([0, 1.0, 0, 0, 0, 0]).astype(complex))
    w1 = wigner_single_mode(one, xg, pg)
    assert np.isclose(w1[i0, i0], -1 / math.pi, atol=1e-12)
    th = thermal_state(25, 0.5)
    wt = wigner_single_mode(th, xg, pg)
    assert np.isclose(wt[i0, i0], 1 / (2 * math.pi), atol=1e-10)


def test_wigner_normalization():
    xg = np.linspace(-6, 6, 121)
    pg = np.linspace(-6, 6, 121)
    dx = xg[1] - xg[0]
    for dm in (thermal_state(20, 0.5), _coherent_dm(0.8 + 0.4j)):
        w = wigner_single_mode(dm, xg, pg)
        assert 0.995 <= w.sum() * dx * dx <= 1.005


def _coherent_dm(alpha):
    from omstirap.hilbert import coherent_state

    c = coherent_state(20, alpha)
    return DensityMatrix(c.space, np.outer(c.amplitudes, c.amplitudes.conj()))


def test_wigner_coherent_peak_location():
    alpha = 1.0 + 0.5j
    xg = np.linspace(-4, 4, 161)
    pg = np.linspace(-4, 4, 161)
    w = wigner_single_mode(_coherent_dm(alpha), xg, pg)
    ix, ip = np.unravel_index(np.argmax(w), w.shape)
    assert abs(xg[ix] - math.sqrt(2) * alpha.real) < 0.06
    assert abs(pg[ip] - math.sqrt(2) * alpha.imag) < 0.06


# ------------------------------------------------------- collective modes

def test_antisymmetric_mode_of_bell_state():
    bell = _psi_minus(4)
    anti = antisymmetric_mode_state(bell)
    np.testing.assert_allclose(np.diag(anti.matrix).real, [0, 1, 0, 0], atol=1e-10)
    sym = antisymmetric_mode_state(bell, invert=True)
    np.testing.assert_allclose(np.diag(sym.matrix).real, [1, 0, 0, 0], atol=1e-10)
