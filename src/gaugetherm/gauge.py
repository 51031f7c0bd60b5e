"""Degeneracy structure of a spectrum, the thermodynamic gauge group it
generates, and the twirl map onto block-uniform states.

The gauge group of a Hamiltonian with level multiplicities (n^1, ..., n^L) is
U(n^1) x ... x U(n^L) acting inside the degenerate eigenspaces. Twirling
averages a state over that group: the result keeps only the level populations
and spreads each uniformly across its eigenspace.

The level-space kernel, level_space and level_twirl, gives the level-basis
diagonal, the level populations p^k = Tr(Pi_k rho) and the twirled states of
a stack of states; twirl, level_distribution and entropy_report run it on one.
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


def cluster_spectra(
    w: np.ndarray,
    V: np.ndarray,
    tol_abs: float | np.ndarray,
    tol_rel: float = CLUSTER_TOL_REL,
) -> list[DegeneracyStructure]:
    """cluster_spectrum over a stack of eigensystems in one vectorised pass.

    w (n, d) holds ascending spectra and V (n, d, d) their eigenvectors, as
    np.linalg.eigh returns them for a stack; tol_abs is one tolerance or one
    per spectrum. Structure j keeps the view V[j] as its basis.
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
    ends = np.cumsum(n_levels).tolist()
    return [
        DegeneracyStructure(energies=energies[a:b], mults=mults[a:b], basis=V[j])
        for j, (a, b) in enumerate(zip([0] + ends[:-1], ends))
    ]


def flat_levels(
    structures: list[DegeneracyStructure],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The levels of all nodes laid end to end: multiplicities, energies, the first
    column of each in the flat (n * d) diagonal, and the index of each node's first
    level, the one starting at a multiple of d (a node's multiplicities sum to d)."""
    if len(structures) == 1:  # one state: the cached arrays save ~6 us a call
        return structures[0].mults, structures[0].energies, structures[0].starts, np.zeros(1, int)
    mults = np.concatenate([ds.mults for ds in structures])
    level_starts, node_starts = flat_starts(mults, structures[0].dim)
    return mults, np.concatenate([ds.energies for ds in structures]), level_starts, node_starts


def flat_starts(mults: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """flat_levels' level starts and node starts from the multiplicities of
    consecutive d-level nodes laid end to end."""
    level_starts = mults.cumsum() - mults
    return level_starts, np.flatnonzero(level_starts % d == 0)


def _bases(structures: list[DegeneracyStructure]) -> np.ndarray:
    """The node bases (k, d, d) of consecutive structures: a view of the one
    basis for a single node, a stacked copy for a node block."""
    if len(structures) == 1:
        return structures[0].basis[None]
    return np.array([ds.basis for ds in structures])


def _level_diagonal(states: np.ndarray, structures: list[DegeneracyStructure]) -> np.ndarray:
    """Re diag(B_j^dag rho_j B_j) (k, d) of one node block, from the one product rho B."""
    b = _bases(structures)
    return (b.conj() * (states @ b)).real.sum(axis=-2)


def level_space(
    states: np.ndarray, structures: list[DegeneracyStructure], first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of B_j^dag rho_j B_j (n, d), formed from the one product
    rho B as Re sum_i conj(B_ia) (rho B)_ia a node block at a time, and the
    level populations Tr(Pi_k rho_j) of all nodes laid end to end.

    A single state is the n = 1 case: one block, read through a view of its
    basis, so a one-state call costs a few numpy calls (twirl,
    level_distribution and entropy_report validate the state and call this).

    Raises when the clipped populations of a node miss 1 by more than
    LEVEL_NORM_TOL, or are not finite: the state and the structure do not
    belong together; the node is named by its index counted from `first`, as
    in check_hermitian.
    """
    n, d = states.shape[:2]
    dim = structures[0].dim
    if states.shape[1:] != (dim, dim):
        raise ValidationError(f"state dimension {d} does not match structure dimension {dim}")
    diag = np.concatenate([_level_diagonal(states[s], structures[s]) for s in node_blocks(n, d)])
    _, _, level_starts, node_starts = flat_levels(structures)
    pops = np.add.reduceat(diag.ravel(), level_starts)
    total = np.add.reduceat(np.maximum(pops, 0.0), node_starts)
    miss = abs(total - 1.0)
    if not miss.max() <= LEVEL_NORM_TOL:  # one test, which a NaN fails as well
        j = int(np.argmax(~(miss <= LEVEL_NORM_TOL)))
        raise ValidationError(f"level populations at node {first + j} sum to {total[j]}, expected 1")
    return diag, pops


def level_twirl(pops: np.ndarray, structures: list[DegeneracyStructure]) -> np.ndarray:
    """The twirled states B_j diag(p/n) B_j^dag (n, d, d) from level_space's populations."""
    n, d = len(structures), structures[0].dim
    mults = flat_levels(structures)[0]
    cols = np.repeat(pops / mults, mults).reshape(n, 1, d)
    out = np.empty((n, d, d), dtype=complex)
    for s in node_blocks(n, d):
        b = _bases(structures[s])
        np.matmul(b * cols[s], _dag(b), out=out[s])
    return out


def twirl(rho: np.ndarray, ds: DegeneracyStructure) -> np.ndarray:
    """Average rho over the gauge group: level populations spread uniformly.

    Computed from the projector formula sum_k Tr(Pi_k rho) Pi_k / n^k in the
    level basis (level_space, then level_twirl), which is exact and O(d^3);
    Haar averaging lives only in twirl_oracle.
    """
    rho = validate_density(rho, check_psd=False)
    return level_twirl(level_space(rho[None], [ds])[1], [ds])[0]


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
    acc = np.zeros_like(R)
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
