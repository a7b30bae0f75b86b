import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omstirap.errors import (
    InvalidDimensionError,
    InvalidStateError,
    OutOfRangeError,
    TruncationError,
    TruncationWarning,
)
from omstirap.hilbert import (
    DensityMatrix,
    HilbertSpace,
    StateVector,
    coherent_state,
    embed,
    expectation,
    fock_state,
    ladder,
    number_operator,
    product_density,
    thermal_state,
)

dims_strategy = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3)


def test_ladder_lower_3():
    a = ladder(3, "lower")
    expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
    np.testing.assert_allclose(a, expected)


def test_ladder_raise_2():
    np.testing.assert_allclose(ladder(2, "raise"), [[0, 0], [1, 0]])


def test_ladder_commutator_truncation():
    a, ad = ladder(4, "lower"), ladder(4, "raise")
    comm = a @ ad - ad @ a
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)


@given(st.integers(min_value=2, max_value=9))
def test_ladder_commutator_general(d):
    a, ad = ladder(d, "lower"), ladder(d, "raise")
    comm = a @ ad - ad @ a
    expected = np.diag([1.0] * (d - 1) + [-(d - 1)])
    np.testing.assert_allclose(comm, expected, atol=1e-12)


def test_ladder_rejects_dim_1():
    with pytest.raises(InvalidDimensionError):
        ladder(1, "lower")


@pytest.mark.parametrize("dims", [(2, 3.7, 3), (2, True, 3), (2, math.nan, 3), ("3", 2)])
def test_space_rejects_a_dim_that_is_no_integer(dims):
    # a fraction was truncated, and a bool read as 1 and reported as "got (2, 1, 3)"
    with pytest.raises(InvalidDimensionError, match="must be an integer"):
        HilbertSpace(dims)


def test_space_keeps_an_integral_float_dim_as_an_int():
    assert HilbertSpace((2, 3.0, np.int64(3))).dims == (2, 3, 3)
    assert all(type(d) is int for d in HilbertSpace((2, 3.0, np.int64(3))).dims)


def test_embed_cavity_lower_traceless():
    sp = HilbertSpace((2, 2, 2))
    op = embed(sp, 0, ladder(2, "lower"))
    assert op.shape == (8, 8)
    assert abs(op.diagonal().sum()) == 0.0


def test_embed_identity():
    sp = HilbertSpace((2, 3, 3))
    op = embed(sp, 1, np.eye(3))
    np.testing.assert_allclose(op.toarray(), np.eye(18))


def test_embed_distinct_modes_commute():
    sp = HilbertSpace((2, 3, 3))
    b1 = embed(sp, 1, ladder(3, "lower")).toarray()
    b2 = embed(sp, 2, ladder(3, "lower")).toarray()
    np.testing.assert_allclose(b1 @ b2 - b2 @ b1, np.zeros((18, 18)), atol=0.0)


def test_embed_dimension_mismatch():
    sp = HilbertSpace((2, 3, 3))
    with pytest.raises(InvalidDimensionError):
        embed(sp, 0, np.eye(3))


@given(dims_strategy)
@settings(max_examples=30)
def test_embed_preserves_norm_and_roundtrip(dims):
    sp = HilbertSpace(tuple(dims))
    rng = np.random.default_rng(len(dims))
    for mode, d in enumerate(dims):
        local = ladder(d, "lower")
        lifted = embed(sp, mode, local).toarray()
        assert np.isclose(
            np.linalg.norm(lifted, 2), np.linalg.norm(local, 2), atol=1e-12
        )
        left, right = np.eye(math.prod(dims[:mode])), np.eye(math.prod(dims[mode + 1:]))
        dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        np.testing.assert_array_equal(embed(sp, mode, dense).toarray(),
                                      np.kron(np.kron(left, dense), right))
    for i in range(sp.total_dim):
        assert sp.index(sp.multi_index(i)) == i


def test_fock_states_orthonormal():
    sp = HilbertSpace((2, 3, 3))
    vecs = [fock_state(sp, *sp.multi_index(i)).amplitudes for i in range(sp.total_dim)]
    gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
    np.testing.assert_allclose(gram, np.eye(sp.total_dim), atol=1e-14)


def test_fock_out_of_range():
    sp = HilbertSpace((2, 3, 3))
    with pytest.raises(OutOfRangeError):
        fock_state(sp, 2, 0, 0)


def test_coherent_zero_is_vacuum():
    st_ = coherent_state(10, 0.0)
    assert st_.amplitudes[0] == 1.0
    assert np.all(st_.amplitudes[1:] == 0.0)


def test_coherent_amplitudes_formula():
    alpha = 0.7 + 0.2j
    st_ = coherent_state(25, alpha)
    n = 3
    expected = (
        math.exp(-abs(alpha) ** 2 / 2) * alpha**n / math.sqrt(math.factorial(n))
    )
    assert np.isclose(st_.amplitudes[n], expected, atol=1e-10)


def test_coherent_truncation_warning_and_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationWarning):
            coherent_state(5, 1.0)  # tail ~ 3.7e-3
    with pytest.raises(TruncationError):
        coherent_state(4, 1.0)  # tail ~ 1.9e-2


def test_thermal_zero_temperature():
    th = thermal_state(5, 0.0)
    np.testing.assert_allclose(np.diag(th.matrix).real, [1, 0, 0, 0, 0])


def test_thermal_geometric_weights():
    # frozen from the geometric law (1-q) q^n with q = nbar/(1+nbar) = 1/3
    raw = np.array([2 / 3 * (1 / 3) ** n for n in range(5)])
    np.testing.assert_allclose(
        raw, [0.66667, 0.22222, 0.07407, 0.02469, 0.00823], atol=5e-6
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        th = thermal_state(5, 0.5)
    np.testing.assert_allclose(np.diag(th.matrix).real, raw / raw.sum(), atol=1e-12)
    assert np.isclose(np.trace(th.matrix).real, 1.0, atol=1e-12)


def test_thermal_mean_occupation():
    th = thermal_state(20, 0.5)
    n_op = number_operator(HilbertSpace((20,)), 0)
    assert abs(expectation(n_op, th).real - 0.5) < 1e-6


def test_expectation_examples():
    sp = HilbertSpace((2, 3, 3))
    n1 = number_operator(sp, 1)
    assert expectation(n1, fock_state(sp, 0, 1, 0)) == 1.0
    # |Psi-> = (|0,1,0> - |0,0,1>)/sqrt2: half a phonon in mode 2
    amps = np.zeros(sp.total_dim, dtype=complex)
    amps[sp.index((0, 1, 0))] = 1 / math.sqrt(2)
    amps[sp.index((0, 0, 1))] = -1 / math.sqrt(2)
    n2 = number_operator(sp, 2)
    assert np.isclose(expectation(n2, StateVector(sp, amps)).real, 0.5, atol=1e-12)


def test_expectation_of_sparse_operator_matches_dense_trace():
    sp = HilbertSpace((2, 3, 3))
    rng = np.random.default_rng(5)
    psi = rng.normal(size=sp.total_dim) + 1j * rng.normal(size=sp.total_dim)
    psi = StateVector(sp, psi / np.linalg.norm(psi))
    m = rng.normal(size=(sp.total_dim,) * 2) + 1j * rng.normal(size=(sp.total_dim,) * 2)
    rho = DensityMatrix(sp, m @ m.conj().T / np.trace(m @ m.conj().T))
    a = embed(sp, 1, ladder(3, "lower"))
    for op in (a, a.conj().T @ a + embed(sp, 0, ladder(2, "raise"))):
        dense = op.toarray()
        assert abs(expectation(op, rho) - np.sum(dense * rho.matrix.T)) < 1e-14
        assert abs(expectation(op, psi) - np.vdot(psi.amplitudes, dense @ psi.amplitudes)) < 1e-14


def test_expectation_space_mismatch():
    sp = HilbertSpace((2, 3, 3))
    other = HilbertSpace((3, 3, 3))
    with pytest.raises(InvalidDimensionError):
        expectation(number_operator(sp, 0), fock_state(other, 0, 0, 0))


def test_density_matrix_invariants_enforced():
    sp = HilbertSpace((2,))
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, [[0.5, 0.2], [0.3, 0.5]])  # not Hermitian
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, [[0.9, 0], [0, 0.2]])  # trace 1.1
    with pytest.raises(InvalidStateError):
        DensityMatrix(sp, [[1.2, 0], [0, -0.2]])  # negative eigenvalue


def test_product_density_matches_kron():
    sp = HilbertSpace((4, 3))
    a = thermal_state(4, 0.1)
    b = fock_state(HilbertSpace((3,)), 1)
    rho = product_density(sp, [a, b])
    expected = np.kron(a.matrix, np.outer(b.amplitudes, b.amplitudes.conj()))
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)


def test_immutability():
    sp = HilbertSpace((2, 2, 2))
    psi = fock_state(sp, 0, 1, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    rho = psi.density_matrix()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 5.0
