"""Degeneracy structure of a spectrum, the thermodynamic gauge group it
generates, and the twirl map onto block-uniform states.

The gauge group of a Hamiltonian with level multiplicities (n^1, ..., n^L) is
U(n^1) x ... x U(n^L) acting inside the degenerate eigenspaces. Twirling
averages a state over that group: the result keeps only the level populations
and spreads each uniformly across its eigenspace.

One spectrum clusters into a DegeneracyStructure (cluster_spectrum), a stack
of node spectra into one NodeLevels record (cluster_spectra): the levels of
every node laid end to end, the raw eigenvalues and the eigenvector stack,
from which a node's DegeneracyStructure is a view.

The level-space kernel, level_space and level_twirl, gives the level-basis
diagonal, the level populations p^k = Tr(Pi_k rho) and the twirled states of
a stack of states from the node bases and level multiplicities. twirl,
level_distribution and entropy_report take one state, which has its own
kernel (_state_levels): the same products on 2-D arrays, bit for bit a row
of a stacked call, without the stack's per-call overhead (node blocks, level
starts, a second reduction), which dominates at d of a few. A real basis (the
eigenvectors of real Hamiltonians) takes real products throughout.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    ValidationError,
    _dag,
    haar_unitaries,
    max_abs_entry,
    node_blocks,
    validate_density,
)

CLUSTER_TOL_REL = 1e-9
PROJECTOR_TOL = 1e-9
LEVEL_NORM_TOL = 1e-8


def default_cluster_tol_abs(H: np.ndarray) -> float | np.ndarray:
    """Absolute gap tolerance scaled to the operator: 1e-9 * max(1, ||H||_max * dim).

    A stack of operators (n, d, d) gets one tolerance per operator.
    """
    H = np.asarray(H)
    tol = 1e-9 * np.maximum(1.0, max_abs_entry(H) * H.shape[-1])
    return float(tol) if tol.ndim == 0 else tol


@dataclass(frozen=True)
class DegeneracyStructure:
    """Clustered levels of a Hermitian spectrum.

    energies[k] is the multiplicity-weighted mean of the member eigenvalues,
    mults[k] the level dimension, and basis the unitary whose columns hold
    the levels in order, mults[k] of them spanning level k. The multiplicities
    fix the gauge group U(n^1) x ... x U(n^L), so dim, starts and slices are
    derived from mults and basis. Projectors are materialized on demand;
    storing them per level would dominate memory on long protocols.
    """

    energies: np.ndarray
    mults: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_levels(self) -> int:
        return len(self.mults)

    @cached_property
    def starts(self) -> np.ndarray:
        """Index of each level's first eigenvector column, for np.add.reduceat."""
        return np.cumsum(self.mults) - self.mults

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The basis columns of each level."""
        return tuple(map(slice, self.starts.tolist(), np.cumsum(self.mults).tolist()))

    def projector(self, k: int) -> np.ndarray:
        cols = self.basis[:, self.slices[k]]
        return cols @ cols.conj().T

    @property
    def degenerate(self) -> bool:
        return bool(np.any(self.mults > 1))


def cluster_spectrum(
    es: tuple[np.ndarray, np.ndarray], tol_abs: float, tol_rel: float = CLUSTER_TOL_REL
) -> DegeneracyStructure:
    """Greedy gap clustering of an ascending spectrum into degenerate levels;
    es is the pair (eigenvalues, eigenvectors) that linalg.eigh gives.

    A new level starts whenever the gap to the previous eigenvalue exceeds
    tol_abs + tol_rel * spectral_radius. Exact model degeneracies sit at
    round-off scale, far below physical gaps, so the split is unambiguous for
    every protocol this library builds; ambiguous inputs fail validation.
    """
    w, V = es
    return cluster_spectra(np.asarray(w)[None], np.asarray(V)[None], tol_abs, tol_rel)[0]


@dataclass(frozen=True)
class NodeLevels:
    """The clustered levels of a run of nodes, as one record.

    energies and mults hold the levels of every node laid end to end, node j's
    being bounds[j]:bounds[j + 1]; eigenvalues (n, d) holds every node's raw
    ascending eigenvalues, as the solver gave them, and basis (n, d, d) the
    eigenvector stack whose node j columns hold the levels in order. So the
    record gives exp(c H_j) without a new decomposition: the coarse run of
    dynamics.integration_tolerance takes its step from fine node 2k to
    2k + 2 at the middle node 2k + 1 from it. The dtype of the Hamiltonians
    picks the solver, so the basis is real when their stack is, and then
    stays real through the pass, and complex otherwise. An int (negative
    too) gives node j's DegeneracyStructure, a view of these arrays built
    for that node alone, and iteration gives every node's from one cached
    tuple; a slice or an index list gives the record of those nodes as a
    contiguous copy.
    """

    energies: np.ndarray
    mults: np.ndarray
    bounds: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray

    def __len__(self) -> int:
        return len(self.basis)

    @cached_property
    def _nodes(self) -> tuple[DegeneracyStructure, ...]:
        cuts = self.bounds[1:-1]
        energies, mults = np.split(self.energies, cuts), np.split(self.mults, cuts)
        return tuple(map(DegeneracyStructure, energies, mults, self.basis))

    def __iter__(self):
        return iter(self._nodes)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            j = range(len(self))[key]
            a, b = self.bounds[j], self.bounds[j + 1]
            return DegeneracyStructure(self.energies[a:b], self.mults[a:b], self.basis[j])
        nodes = np.arange(len(self))[key]
        a, counts = self.bounds[nodes], np.diff(self.bounds)[nodes]
        bounds = np.append(0, np.cumsum(counts))
        levels = np.repeat(a - bounds[:-1], counts) + np.arange(bounds[-1])
        return NodeLevels(
            self.energies[levels], self.mults[levels], bounds, self.eigenvalues[nodes], self.basis[nodes]
        )

    @property
    def spectra(self) -> np.ndarray:
        """Every node's level energies, each repeated over its multiplicity (n, d)."""
        return np.repeat(self.energies, self.mults).reshape(len(self), -1)

    @property
    def degenerate(self) -> np.ndarray:
        """Whether each node has a level of multiplicity above 1."""
        return np.maximum.reduceat(self.mults, self.bounds[:-1]) > 1


def join_levels(records: list[NodeLevels], basis: np.ndarray) -> NodeLevels:
    """The records of consecutive runs of nodes as one, whose basis is their
    bases stacked (n, d, d), which the caller has filled."""
    counts = np.concatenate([np.diff(lv.bounds) for lv in records])
    energies = np.concatenate([lv.energies for lv in records])
    mults = np.concatenate([lv.mults for lv in records])
    eigenvalues = np.concatenate([lv.eigenvalues for lv in records])
    return NodeLevels(energies, mults, np.append(0, np.cumsum(counts)), eigenvalues, basis)


def cluster_spectra(
    w: np.ndarray,
    V: np.ndarray,
    tol_abs: float | np.ndarray,
    tol_rel: float = CLUSTER_TOL_REL,
) -> NodeLevels:
    """cluster_spectrum over a stack of eigensystems in one vectorised pass.

    w (n, d) holds ascending spectra and V (n, d, d) their eigenvectors, as
    np.linalg.eigh returns them for a stack; tol_abs is one tolerance or one
    per spectrum. The record keeps w as its eigenvalues and V as its basis,
    real or complex as the solver gave it (the dtype of the Hamiltonians
    picks the solver); a real V's Gram check is a real product.
    """
    w = np.asarray(w, dtype=float)
    n, d = w.shape
    tol_abs = np.broadcast_to(np.asarray(tol_abs, dtype=float), (n,))
    # NaN fails both comparisons
    if not (np.all((tol_abs >= 0) & (tol_abs < np.inf)) and 0 <= tol_rel < np.inf):
        raise ValueError("clustering tolerances must be finite and nonnegative")
    tol = tol_abs + tol_rel * np.max(np.abs(w), axis=1, initial=0.0)

    first = np.ones((n, d), dtype=bool)
    first[:, 1:] = np.diff(w, axis=1) > tol[:, None]
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    n_levels = first.sum(axis=1)
    # every gap inside a level is <= tol, but a chain of such gaps can span more
    if np.any(w[last] - w[first] > np.repeat(tol, n_levels)):
        raise ValidationError(
            "clustering tolerance chains eigenvalues into a level wider than the "
            "tolerance; tighten the tolerance or treat the levels as merged"
        )
    for s in node_blocks(n, d):
        gram = np.swapaxes(V[s], -1, -2).conj() @ V[s]
        gram -= np.eye(d)
        if float(np.max(np.abs(gram), initial=0.0)) > PROJECTOR_TOL:
            raise ValidationError("eigenbasis is not orthonormal within tolerance")

    level_starts = np.flatnonzero(first)
    mults = np.diff(np.append(level_starts, n * d))
    energies = np.add.reduceat(w.ravel(), level_starts) / mults
    return NodeLevels(energies, mults, np.append(0, np.cumsum(n_levels)), w, V)


def _level_diagonal(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """level_space's diagonal Re diag(B^dag rho B) of one state (d, d) or of
    a node block (k, d, d), with its basis or bases."""
    if b.dtype.kind == "f":  # np.isrealobj, without its call on every one-state call
        return (b * (rho.real @ b)).sum(axis=-2)
    return (b.conj() * (rho @ b)).real.sum(axis=-2)


def level_space(
    states: np.ndarray,
    basis: np.ndarray,
    mults: np.ndarray,
    node_starts: np.ndarray,
    first: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of B_j^dag rho_j B_j (n, d) for the node bases B_j, formed from
    the one product rho B as Re sum_i conj(B_ia) (rho B)_ia a node block at a
    time, and the level populations Tr(Pi_k rho_j) of all nodes laid end to
    end, of multiplicities mults, node j's first at node_starts[j] (a
    NodeLevels' mults and bounds[:-1]). A real basis drops Im(rho), whose
    diagonal in it is 0: the diagonal is that of B^T Re(rho) B, a real product.

    Raises when the clipped populations of a node miss 1 by more than
    LEVEL_NORM_TOL, or are not finite: the state and the levels do not
    belong together; the node is named by its index counted from `first`, as
    in check_hermitian.
    """
    n, d = states.shape[:2]
    dim = basis.shape[-1]
    if states.shape[1:] != (dim, dim):
        raise ValidationError(f"state dimension {d} does not match structure dimension {dim}")
    diag = np.empty((n, d))
    for s in node_blocks(n, d):
        diag[s] = _level_diagonal(states[s], basis[s])
    pops = np.add.reduceat(diag.ravel(), np.cumsum(mults) - mults)
    total = np.add.reduceat(np.maximum(pops, 0.0), node_starts)
    miss = abs(total - 1.0)
    if not miss.max() <= LEVEL_NORM_TOL:  # one test, which a NaN fails as well
        j = int(np.argmax(~(miss <= LEVEL_NORM_TOL)))
        raise ValidationError(f"level populations at node {first + j} sum to {total[j]}, expected 1")
    return diag, pops


def level_twirl(pops: np.ndarray, basis: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """The twirled states B_j diag(p/n) B_j^dag (n, d, d), complex, from
    level_space's populations, for the node bases B_j (n, d, d) and level
    multiplicities; a real basis takes a real product."""
    n, d = basis.shape[:2]
    cols = np.repeat(pops / mults, mults).reshape(n, 1, d)
    out = np.empty((n, d, d), dtype=complex)
    for s in node_blocks(n, d):
        b = basis[s]
        np.matmul(b * cols[s], _dag(b), out=out[s])
    return out


def _state_levels(
    rho: np.ndarray, ds: DegeneracyStructure
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """level_space on one state: the validated rho, its level-basis diagonal
    (d,), its level populations (L,) and their distribution, the populations
    clamped at zero and renormalized. The products and sums are those of a
    stacked call on 2-D arrays, so each is bit for bit a row of one; the
    checks and their messages are the same too."""
    rho = validate_density(rho, check_psd=False)
    if rho.shape != (ds.dim, ds.dim):
        raise ValidationError(
            f"state dimension {rho.shape[-1]} does not match structure dimension {ds.dim}"
        )
    diag = _level_diagonal(rho, ds.basis)
    pops = np.add.reduceat(diag, ds.starts)
    probs = np.maximum(pops, 0.0)
    total = probs.sum()
    if not abs(total - 1.0) <= LEVEL_NORM_TOL:  # which a NaN fails as well
        raise ValidationError(f"level populations at node 0 sum to {total}, expected 1")
    return rho, diag, pops, probs / total


def twirl(rho: np.ndarray, ds: DegeneracyStructure) -> np.ndarray:
    """Average rho over the gauge group: level populations spread uniformly.

    Computed from the projector formula sum_k Tr(Pi_k rho) Pi_k / n^k in the
    level basis (level_twirl's product on one state), which is exact and
    O(d^3); Haar averaging lives only in twirl_oracle.
    """
    pops = _state_levels(rho, ds)[2]
    b = ds.basis
    out = np.empty(b.shape, dtype=complex)
    return np.matmul(b * np.repeat(pops / ds.mults, ds.mults), _dag(b), out=out)


def twirl_oracle(
    rho: np.ndarray,
    ds: DegeneracyStructure,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo twirl: average of V rho V^dag over Haar-sampled gauge elements.

    Converges to twirl(rho, ds) at O(1/sqrt(samples)); exists to certify the
    projector formula, not to replace it. Sampled in the level basis, a
    block of elements at a time (linalg.node_blocks): with R = B^dag rho B,
    each block adds the sum of D R D^dag over its block-diagonal elements D,
    and the average is rotated back by the basis B once.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rho = validate_density(rho, check_psd=False)
    if rho.shape != (ds.dim, ds.dim):
        raise ValidationError(
            f"state dimension {rho.shape[-1]} does not match structure dimension {ds.dim}"
        )
    B = ds.basis
    R = _dag(B) @ rho @ B
    acc = np.zeros(R.shape, dtype=complex)  # R is real for a real rho and basis
    for s in node_blocks(samples, ds.dim):
        D = _level_elements(ds, s.stop - s.start, rng)
        acc += (D @ R @ _dag(D)).sum(axis=0)
    return B @ (acc / samples) @ _dag(B)


def _level_elements(ds: DegeneracyStructure, count: int, rng: np.random.Generator) -> np.ndarray:
    """count gauge elements in the level basis (count, d, d): block diagonal,
    an independent Haar unitary on each level, drawn level by level."""
    D = np.zeros((count, ds.dim, ds.dim), dtype=complex)
    for s, n in zip(ds.slices, ds.mults.tolist()):
        D[:, s, s] = haar_unitaries(n, count, rng)
    return D


def sample_gauge_element(ds: DegeneracyStructure, rng: np.random.Generator) -> np.ndarray:
    """One gauge-group element: an independent Haar unitary on each level,
    embedded in the full space via the eigenbasis (twirl_oracle's sampler at
    one element)."""
    B = ds.basis
    return B @ _level_elements(ds, 1, rng)[0] @ B.conj().T
