"""Degeneracy structure of a spectrum, the thermodynamic gauge group it
generates, and the twirl map onto block-uniform states.

The gauge group of a Hamiltonian with level multiplicities (n^1, ..., n^L) is
U(n^1) x ... x U(n^L) acting inside the degenerate eigenspaces. Twirling
averages a state over that group: the result keeps only the level populations
and spreads each uniformly across its eigenspace.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    EigenSystem,
    ValidationError,
    haar_unitary,
    validate_density,
)

CLUSTER_TOL_REL = 1e-9
PROJECTOR_TOL = 1e-9


def default_cluster_tol_abs(H: np.ndarray) -> float:
    """Absolute gap tolerance scaled to the operator: 1e-9 * max(1, ||H||_max * dim)."""
    H = np.asarray(H)
    hmax = float(np.max(np.abs(H))) if H.size else 0.0
    return 1e-9 * max(1.0, hmax * H.shape[0])


@dataclass(frozen=True)
class DegeneracyStructure:
    """Clustered levels of a Hermitian spectrum.

    energies[k] is the multiplicity-weighted mean of the member eigenvalues,
    mults[k] the level dimension, and basis the unitary whose column slice
    for level k spans that eigenspace. Projectors are materialized on demand;
    storing them per level would dominate memory on long protocols.
    """

    energies: np.ndarray
    mults: np.ndarray
    basis: np.ndarray
    dim: int
    slices: tuple[slice, ...] = field(repr=False, default=())

    @property
    def n_levels(self) -> int:
        return len(self.mults)

    def projector(self, k: int) -> np.ndarray:
        cols = self.basis[:, self.slices[k]]
        return cols @ cols.conj().T

    @property
    def degenerate(self) -> bool:
        return bool(np.any(self.mults > 1))


def cluster_spectrum(
    es: EigenSystem, tol_abs: float, tol_rel: float = CLUSTER_TOL_REL
) -> DegeneracyStructure:
    """Greedy gap clustering of an ascending spectrum into degenerate levels.

    A new level starts whenever the gap to the previous eigenvalue exceeds
    tol_abs + tol_rel * spectral_radius. Exact model degeneracies sit at
    round-off scale, far below physical gaps, so the split is unambiguous for
    every protocol this library builds; ambiguous inputs fail validation.
    """
    if tol_abs < 0 or tol_rel < 0:
        raise ValueError("clustering tolerances must be nonnegative")
    w = np.asarray(es.eigenvalues, dtype=float)
    V = es.eigenvectors
    d = w.shape[0]
    spectral = float(np.max(np.abs(w))) if d else 0.0
    tol = tol_abs + tol_rel * spectral

    boundaries = [0]
    for i in range(1, d):
        if w[i] - w[i - 1] > tol:
            boundaries.append(i)
    boundaries.append(d)

    slices = tuple(slice(a, b) for a, b in zip(boundaries[:-1], boundaries[1:]))
    energies = np.array([float(w[s].mean()) for s in slices])
    mults = np.array([s.stop - s.start for s in slices], dtype=int)

    if int(mults.sum()) != d:
        raise ValidationError("level multiplicities do not sum to the dimension")
    # every gap inside a level is <= tol, but a chain of such gaps can span more
    starts = np.asarray(boundaries[:-1])
    stops = np.asarray(boundaries[1:])
    if np.any(w[stops - 1] - w[starts] > tol):
        raise ValidationError(
            "clustering tolerance chains eigenvalues into a level wider than the "
            "tolerance; tighten the tolerance or treat the levels as merged"
        )
    if float(np.max(np.abs(V.conj().T @ V - np.eye(d)))) > PROJECTOR_TOL:
        raise ValidationError("eigenbasis is not orthonormal within tolerance")
    return DegeneracyStructure(
        energies=energies, mults=mults, basis=V, dim=d, slices=slices
    )


def twirl(rho: np.ndarray, ds: DegeneracyStructure) -> np.ndarray:
    """Average rho over the gauge group: level populations spread uniformly.

    Computed from the projector formula sum_k Tr(Pi_k rho) Pi_k / n^k in the
    level basis, which is exact and O(d^3); Haar averaging lives only in
    twirl_oracle.
    """
    rho = validate_density(rho, check_psd=False)
    if rho.shape[0] != ds.dim:
        raise ValidationError(
            f"state dimension {rho.shape[0]} does not match structure dimension {ds.dim}"
        )
    B = ds.basis
    rb = B.conj().T @ rho @ B
    out = np.zeros_like(rb)
    for k, s in enumerate(ds.slices):
        p = float(np.real(np.trace(rb[s, s])))
        np.fill_diagonal(out[s, s], p / ds.mults[k])
    return B @ out @ B.conj().T


def twirl_oracle(
    rho: np.ndarray,
    ds: DegeneracyStructure,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo twirl: average of V rho V^dag over Haar-sampled gauge elements.

    Converges to twirl(rho, ds) at O(1/sqrt(samples)); exists to certify the
    projector formula, not to replace it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    acc = np.zeros_like(np.asarray(rho, dtype=complex))
    for _ in range(samples):
        V = sample_gauge_element(ds, rng)
        acc += V @ rho @ V.conj().T
    return acc / samples


def sample_gauge_element(ds: DegeneracyStructure, rng: np.random.Generator) -> np.ndarray:
    """One gauge-group element: an independent Haar unitary on each level,
    embedded in the full space via the eigenbasis."""
    block_diag = np.zeros((ds.dim, ds.dim), dtype=complex)
    for s, n in zip(ds.slices, ds.mults):
        block_diag[s, s] = haar_unitary(int(n), rng)
    B = ds.basis
    return B @ block_diag @ B.conj().T
