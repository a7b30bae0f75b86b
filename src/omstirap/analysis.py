"""State analytics: reductions, entanglement negativity, fidelity, Wigner.

Mode indices follow the global convention cavity = 0, mech1 = 1, mech2 = 2.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, InvalidDimensionError, InvalidStateError
from .hilbert import DensityMatrix, HilbertSpace, StateVector, destroy

MODE_NAMES = {"cavity": 0, "mech1": 1, "mech2": 2}


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept modes: :func:`partial_trace_stack` of one state.

    ``keep`` is a sequence of mode indices or of mode names from
    ``cavity``/``mech1``/``mech2``.
    """
    dims = rho.space.dims
    kept = _kept_modes(keep, len(dims))
    reduced = partial_trace_stack(rho.matrix[None], dims, kept)[0]
    return DensityMatrix(HilbertSpace(tuple(dims[m] for m in kept)), reduced, validate=False)


def partial_transpose(rho12: DensityMatrix, mode: int = 1) -> np.ndarray:
    """Partial transpose of a two-mode state over one of its modes."""
    if rho12.space.n_modes != 2:
        raise InvalidDimensionError("partial transpose expects a two-mode state")
    if mode not in (0, 1):
        raise InvalidArgumentError("mode must be 0 or 1")
    da, db = rho12.space.dims
    t = rho12.matrix.reshape(da, db, da, db)
    t = t.transpose(2, 1, 0, 3) if mode == 0 else t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)


def negativity(rho12: DensityMatrix) -> float:
    """Entanglement negativity (||rho^T2||_1 - 1) / 2 of a two-mode state:
    :func:`negativity_stack` of one state."""
    return float(negativity_stack(rho12.matrix[None], rho12.space.dims)[0])


def fidelity(rho: DensityMatrix, target) -> float:
    """Squared Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2,
    symmetric in its arguments and <psi|rho|psi> for a pure target:
    :func:`fidelity_stack` of one state."""
    if isinstance(target, (StateVector, DensityMatrix)) and target.space != rho.space:
        raise InvalidDimensionError("state and target live on different spaces")
    return float(fidelity_stack(rho.matrix[None], target)[0])


def trace_fidelity(rho: DensityMatrix, target) -> float:
    """Non-squared Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)).

    This is the convention of common master-equation toolboxes; it equals
    sqrt of :func:`fidelity`.
    """
    return math.sqrt(fidelity(rho, target))


def _kept_modes(keep, n: int) -> list[int]:
    """The sorted mode indices that ``keep`` names, each in 0..n-1."""
    kept = sorted({MODE_NAMES.get(k, -1) if isinstance(k, str) else int(k) for k in keep})
    if not kept or kept[0] < 0 or kept[-1] >= n:
        raise InvalidArgumentError(f"kept modes {tuple(keep)} must name a non-empty subset "
                                   f"of 0..{n - 1}")
    return kept


def partial_trace_stack(matrices: np.ndarray, dims, keep) -> np.ndarray:
    """The reduced state on the kept modes of each state in the stack
    ``matrices`` (S, d, d) on the modes ``dims``, in one ``einsum``.
    ``keep`` is as for :func:`partial_trace`."""
    n = len(dims)
    kept = _kept_modes(keep, n)
    # einsum's sublist labels: S = 2n for the stack, m for a row mode, and n + m
    # for the column of a kept mode; a traced mode shares its row label
    cols = [n + m if m in kept else m for m in range(n)]
    out = [2 * n, *kept, *(n + m for m in kept)]
    d = math.prod(dims[m] for m in kept)
    tensor = matrices.reshape(len(matrices), *dims, *dims)
    return np.einsum(tensor, [2 * n, *range(n), *cols], out).reshape(len(matrices), d, d)


def negativity_stack(pairs: np.ndarray, dims) -> np.ndarray:
    """The negativity of each two-mode state in the stack ``pairs`` (S, d, d)
    on the modes ``dims``: the absolute sum of the negative eigenvalues of its
    partial transpose over the second mode, taken block by block.

    The partial transposes of the stack share one nonzero pattern, and the
    connected components of its graph are exact diagonal blocks of each of
    them: for states that conserve an excitation number, its charge-imbalance
    sectors (Cornfeld, Goldstein & Sela, Phys. Rev. A 98, 032302 (2018)),
    here found from the pattern alone (:func:`_blocks`).  Each block is read
    from ``pairs`` by one index map, with no partial transpose formed, and
    the eigenvalues come from one batched ``eigvalsh`` per group of
    equal-size blocks, in real arithmetic when every entry read is real.  A
    dense state is one block.  Every nonzero entry and its mirror lie in one
    block, so the hermiticity check reads the blocks alone."""
    if len(dims) != 2:
        raise InvalidDimensionError(f"negativity expects a two-mode state, got dims {tuple(dims)}")
    s, (da, db) = len(pairs), dims
    n = da * db
    # entry (r, c) of the partial transpose is entry source[r, c] of the flat state
    source = np.arange(n * n).reshape(da, db, da, db).transpose(0, 3, 2, 1).reshape(n, n)
    flat = pairs.reshape(s, n * n)
    pattern = np.logical_or.reduce(flat != 0, axis=0)[source]
    groups = [flat[:, source[members[:, :, None], members[:, None, :]]]
              for members in _blocks(pattern | pattern.T)]
    herm = 0.0
    for block in groups:  # |rho - rho^+| from the real and imaginary views
        re, im = block.real, block.imag
        dev = re - re.swapaxes(-1, -2)
        herm = np.max(np.hypot(dev, im + im.swapaxes(-1, -2), out=dev), initial=herm)
    if herm > 1e-8:
        raise InvalidStateError(f"negativity needs a Hermitian state, deviation {herm:.2e}")
    if not any(block.imag.any() for block in groups):
        groups = [block.real for block in groups]
    evals = np.concatenate([np.linalg.eigvalsh(block).reshape(s, -1) for block in groups], axis=1)
    return np.where(evals < 0, -evals, 0.0).sum(axis=1)


def _blocks(graph: np.ndarray) -> list:
    """The connected components of the graph of the symmetric boolean n x n
    matrix ``graph``, one (G, k) array per size k: the sorted members of each
    of the G components of k nodes.  Each node takes the least label of its
    neighbours and then its label's label, until no label moves."""
    rows, cols = np.nonzero(graph)
    label = np.arange(len(graph))
    while True:
        low = label.copy()
        np.minimum.at(low, rows, label[cols])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")  # by component, each in ascending order
    _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
    return [order[starts[sizes == k][:, None] + np.arange(k)] for k in np.unique(sizes)]


def fidelity_stack(matrices: np.ndarray, target) -> np.ndarray:
    """The squared Uhlmann fidelity of each state in the stack ``matrices``
    (S, d, d) against one target: <psi|rho|psi> in one ``einsum`` for a pure
    target, batched square roots and eigenvalues for a mixed one; clipped
    into [0, 1]."""
    if not isinstance(target, (StateVector, DensityMatrix)):
        raise InvalidArgumentError(f"unsupported target type {type(target)!r}")
    if matrices.shape[1:] != (target.space.total_dim,) * 2:
        raise InvalidDimensionError("states and target live on different spaces")
    if isinstance(target, StateVector):
        psi = target.amplitudes
        val = np.einsum("i,sij,j->s", psi.conj(), matrices, psi).real
    else:
        w, v = np.linalg.eigh(matrices)
        sq = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
        evals = np.clip(np.linalg.eigvalsh(sq @ target.matrix @ sq), 0.0, None)
        val = np.sum(np.sqrt(evals), axis=1) ** 2
    return np.clip(val, 0.0, 1.0)


def wigner_single_mode(
    rho_mode: DensityMatrix, x_grid, p_grid
) -> np.ndarray:
    """Wigner function W(x, p) of a single-mode state on a rectangular grid.

    Conventions: a = (x + i p) / sqrt(2), normalized so that the integral
    over dx dp is 1 and the vacuum peaks at 1/pi.  Evaluated via the
    Fock-basis displaced-parity kernel using the stable Laguerre recursion.
    Returns shape (len(x_grid), len(p_grid)).
    """
    if rho_mode.space.n_modes != 1:
        raise InvalidDimensionError("wigner_single_mode expects a single-mode state")
    x = np.asarray(x_grid, dtype=float)
    p = np.asarray(p_grid, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
        raise InvalidArgumentError("grid must be finite")
    rho = rho_mode.matrix
    m = rho.shape[0]
    a = (x[:, None] + 1j * p[None, :]) / math.sqrt(2.0)
    # wlist[n] holds the kernel for |k><n| at the current row k, built by the
    # two-term Laguerre recursion
    wlist = np.empty((m,) + a.shape, dtype=complex)
    wlist[0] = np.exp(-2.0 * np.abs(a) ** 2) / math.pi
    total = np.real(rho[0, 0]) * np.real(wlist[0])
    for n in range(1, m):
        wlist[n] = (2.0 * a * wlist[n - 1]) / math.sqrt(n)
        total = total + 2.0 * np.real(rho[0, n] * wlist[n])
    for k in range(1, m):
        temp = wlist[k].copy()
        wlist[k] = (2.0 * np.conj(a) * temp - math.sqrt(k) * wlist[k - 1]) / math.sqrt(k)
        total = total + np.real(rho[k, k] * wlist[k])
        for n in range(k + 1, m):
            temp2 = (2.0 * a * wlist[n - 1] - math.sqrt(k) * temp) / math.sqrt(n)
            temp = wlist[n].copy()
            wlist[n] = temp2
            total = total + 2.0 * np.real(rho[k, n] * wlist[n])
    return total


def antisymmetric_mode_state(rho12: DensityMatrix, invert: bool = False) -> DensityMatrix:
    """Single-mode reduction onto the antisymmetric collective mode.

    Rotates the two-mode state by the 50/50 beam splitter that maps
    (b1 - b2)/sqrt(2) onto the first mode, then traces the partner mode.
    The antisymmetric mode is the one in which the two-mode single-phonon
    Bell state (|0,1> - |1,0>)/sqrt(2) looks like a one-phonon Fock state,
    so its Wigner function exposes that state's negativity at the origin.
    ``invert=True`` selects the symmetric partner instead.
    """
    if rho12.space.n_modes != 2:
        raise InvalidDimensionError("expects a two-mode state")
    space = rho12.space
    b1, b2 = destroy(space, 0), destroy(space, 1)
    sign = -1.0 if invert else 1.0
    # R a R^+ with R = exp(xi (b2^+ b1 - b1^+ b2)) rotates b1 -> cos b1 - sin b2
    gen = (math.pi / 4.0) * sign * (b2.conj().T @ b1 - b1.conj().T @ b2)
    import scipy.linalg  # imported here: a plain run never needs it

    r = scipy.linalg.expm(gen.toarray())
    rotated = r @ rho12.matrix @ r.conj().T
    rot_dm = DensityMatrix(space, 0.5 * (rotated + rotated.conj().T), validate=False)
    return partial_trace(rot_dm, (0,))
