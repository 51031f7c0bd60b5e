"""Degeneracy structure of a spectrum, the thermodynamic gauge group it
generates, and the twirl map onto block-uniform states.

The gauge group of a Hamiltonian with level multiplicities (n^1, ..., n^L) is
U(n^1) x ... x U(n^L) acting inside the degenerate eigenspaces. Twirling
averages a state over that group: the result keeps only the level populations
and spreads each uniformly across its eigenspace.

A stack of node spectra clusters into one levels record, a
DegeneracyStructure (cluster_spectra) of three stacks: every node's level
spectrum, level-start mask and eigenvectors. One spectrum clusters into the
record of one node (cluster_spectrum), the rows of the three stacks; any
key, an int included, cuts a record as numpy cuts its stacks.

The level-space kernel, level_space and level_twirl, gives the level-basis
diagonal, the level populations p^k = Tr(Pi_k rho) and the twirled states of
a stack of states from the levels record of their nodes. twirl,
level_distribution and entropy_report take one state, whose populations
have their own kernel (_state_levels): the same products on 2-D arrays, bit
for bit a row of a stacked call, without the stack's per-call overhead
(level starts, a second reduction), which dominates at d of a few; twirl
then spreads them with level_twirl, of which it is the node case. A real
basis (the eigenvectors of real Hamiltonians) takes real products
throughout.

Every one-node route (twirl, twirl_oracle, sample_gauge_element, the
projectors and slices here; level_distribution, entropy_report,
thermal_level_distribution and noneq_free_energy in invariants) takes one
node's levels, basis (d, d), and refuses a run's record, or one of another
dimension, in one check (DegeneracyStructure._node).
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


def cluster_tol(w: np.ndarray, tol_abs: float | np.ndarray, tol_rel: float = CLUSTER_TOL_REL):
    """The widest gap that clustering keeps inside a level of the spectrum w
    (d,), or of each spectrum of a stack (n, d): tol_abs plus tol_rel times
    the spectral radius."""
    return tol_abs + tol_rel * np.max(np.abs(w), axis=-1, initial=0.0)


@dataclass(frozen=True, eq=False)
class DegeneracyStructure:
    """The clustered levels of one node, or of a run of nodes, as three
    stacks.

    spectra holds the level energies, each level's mean eigenvalue repeated
    over its multiplicity; first is true where a level starts, so it is the
    multiplicity pattern, which fixes the gauge group U(n^1) x ... x U(n^L);
    and basis is the unitary whose columns hold the levels in order. One
    node is (d,), (d,) and (d, d); a run of nodes is (n, d), (n, d) and
    (n, d, d), and row j is node j. So the record gives exp(c H_j) without
    a new decomposition, up to the spread of a merged level's eigenvalues
    about its energy, within the clustering tolerance: the coarse run of
    dynamics.integration_tolerance takes its step from fine node 2k to
    2k + 2 at the middle node 2k + 1 from it. The dtype of the Hamiltonians
    picks the solver, so the basis is real when their stack is, and then
    stays real through the pass, and complex otherwise.

    Every key cuts the three stacks as numpy does: an int (negative too)
    gives node j as views of its rows, a slice of any step a view and an
    index list a copy. len() and iteration count the nodes of a run, the
    iteration from one cached tuple of rows; one node's record has neither
    (TypeError), as a 0-d numpy array has no len(). starts, mults and
    energies are flat over the nodes, every level of every node laid end to
    end, as level_space lays out its populations; starts and mults are
    derived from first once, on first use (_layout), so a record whose
    stacks are written after it is made (evolve, cluster_spectra) is read
    only once its mask is; energies are gathered from spectra on every read.
    Projectors are materialized on demand; storing them per level would
    dominate memory on long protocols. Records compare and hash by identity
    (eq=False), as do the other frozen records of arrays: two cuts of one
    record are two records.
    """

    spectra: np.ndarray
    first: np.ndarray
    basis: np.ndarray

    def __len__(self) -> int:
        if self.basis.ndim != 3:
            raise TypeError("len() of one node's levels: only a run of nodes has a length")
        return len(self.basis)

    def __getitem__(self, key) -> DegeneracyStructure:
        return DegeneracyStructure(self.spectra[key], self.first[key], self.basis[key])

    @cached_property
    def _nodes(self) -> tuple[DegeneracyStructure, ...]:
        return tuple(map(DegeneracyStructure, self.spectra, self.first, self.basis))

    def __iter__(self):
        if self.basis.ndim != 3:
            raise TypeError("iteration over one node's levels: only a run of nodes iterates")
        return iter(self._nodes)

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def n_levels(self) -> int:
        return len(self.starts)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """starts and mults, from first: the flat index of each level's
        start, and its distance to the next level's start or to the end of
        the stack."""
        starts = self.first.ravel().nonzero()[0]
        mults = np.empty_like(starts)
        mults[:-1], mults[-1:] = starts[1:], self.first.size
        mults -= starts
        return starts, mults

    @property
    def starts(self) -> np.ndarray:
        """The flat index of each level's first eigenvector column, over the
        nodes in row order, for np.add.reduceat."""
        return self._layout[0]

    @property
    def mults(self) -> np.ndarray:
        return self._layout[1]

    @property
    def energies(self) -> np.ndarray:
        """Each level's energy, the spectrum at its start."""
        return self.spectra.ravel()[self.starts]

    @property
    def _offsets(self) -> np.ndarray:
        """The index in mults of each node's first level (n,), on a run."""
        return self.first.cumsum()[:: self.first.shape[1]] - 1

    def _node(self, shape: tuple[int, ...] | None = None) -> None:
        """The one check of every one-node route: refuse the record unless it
        is one node's levels, basis (d, d), and, when an operand's shape is
        given, its basis has that shape."""
        want = (self.dim, self.dim) if shape is None else shape
        if len(want) != 2 or self.basis.shape != want:
            raise ValidationError(
                f"shape {want}, dimension {want[-1]}, does not match the levels' basis "
                f"shape {self.basis.shape}: a one-node route takes one node's levels, basis (d, d)"
            )

    @cached_property
    def slices(self) -> tuple[slice, ...]:
        """The basis columns of each level, of one node."""
        self._node()
        starts, mults = self._layout
        return tuple(map(slice, starts.tolist(), (starts + mults).tolist()))

    def projector(self, k: int) -> np.ndarray:
        cols = self.basis[:, self.slices[k]]
        return cols @ cols.conj().T

    @property
    def degenerate(self) -> np.bool_ | np.ndarray:
        """Whether the node, or each node of a run, has a level of
        multiplicity above 1."""
        return ~self.first.all(axis=-1)


def cluster_spectrum(
    es: tuple[np.ndarray, np.ndarray], tol_abs: float, tol_rel: float = CLUSTER_TOL_REL
) -> DegeneracyStructure:
    """Greedy gap clustering of an ascending spectrum into degenerate levels;
    es is the pair (eigenvalues, eigenvectors) that linalg.eigh gives, and
    the result one node's levels, row 0 of cluster_spectra's.

    A new level starts whenever the gap to the previous eigenvalue exceeds
    tol_abs + tol_rel * spectral_radius. Exact model degeneracies sit at
    round-off scale, far below physical gaps, so the split is unambiguous for
    every protocol this library builds; ambiguous inputs fail validation,
    and so does a spectrum that is not ascending, whose negative gap would
    count as inside a level.
    """
    w, V = es
    return cluster_spectra(np.asarray(w)[None], np.asarray(V)[None], tol_abs, tol_rel)[0]


def cluster_spectra(
    w: np.ndarray,
    V: np.ndarray,
    tol_abs: float | np.ndarray,
    tol_rel: float = CLUSTER_TOL_REL,
) -> DegeneracyStructure:
    """cluster_spectrum over a stack of eigensystems in one vectorised pass.

    w (n, d) holds ascending spectra, which is checked, and V (n, d, d)
    their eigenvectors, as np.linalg.eigh returns them for a stack; tol_abs
    is one tolerance or one per spectrum. The record of the n nodes keeps
    the level spectrum, each level's mean eigenvalue repeated over its
    multiplicity, the level-start mask and V as its basis, real or complex
    as the solver gave it (the dtype of the Hamiltonians picks the solver);
    a real V's Gram check is a real product. The level starts and
    multiplicities that the means take are the record's own.
    """
    w = np.asarray(w, dtype=float)
    n, d = w.shape
    tol_abs = np.broadcast_to(np.asarray(tol_abs, dtype=float), (n,))
    # NaN fails both comparisons
    if not (np.all((tol_abs >= 0) & (tol_abs < np.inf)) and 0 <= tol_rel < np.inf):
        raise ValueError("clustering tolerances must be finite and nonnegative")
    if not np.isfinite(w).all():  # a NaN gap would merge its neighbours, an inf tol all
        raise ValidationError("eigenvalues must be finite")
    tol = cluster_tol(w, tol_abs, tol_rel)

    gaps = np.diff(w, axis=1)
    if (gaps < 0).any():  # a negative gap would count as inside a level
        raise ValidationError("eigenvalues must be in ascending order, as eigh gives them")
    first = np.ones((n, d), dtype=bool)
    first[:, 1:] = gaps > tol[:, None]
    last = np.ones_like(first)
    last[:, :-1] = first[:, 1:]
    lv = DegeneracyStructure(np.empty((n, d)), first, V)  # its spectra filled below
    # every gap inside a level is <= tol, but a chain of such gaps can span more
    if np.any(w[last] - w[first] > tol[lv.starts // d]):
        raise ValidationError(
            "clustering tolerance chains eigenvalues into a level wider than the "
            "tolerance; tighten the tolerance or treat the levels as merged"
        )
    gram = _dag(V) @ V
    gram -= np.eye(d)
    if not np.abs(gram).max(initial=0.0) <= PROJECTOR_TOL:  # one test, which a NaN fails as well
        raise ValidationError("eigenbasis is not orthonormal within tolerance")

    energies = np.add.reduceat(w.ravel(), lv.starts) / lv.mults
    lv.spectra[:] = np.repeat(energies, lv.mults).reshape(n, d)
    return lv


def _level_diagonal(rho: np.ndarray, b: np.ndarray) -> np.ndarray:
    """level_space's diagonal Re diag(B^dag rho B) of one state (d, d) or of
    a node block (k, d, d), with its basis or bases."""
    if b.dtype.kind == "f":  # np.isrealobj, without its call on every one-state call
        return (b * (rho.real @ b)).sum(axis=-2)
    return (b.conj() * (rho @ b)).real.sum(axis=-2)


def level_space(
    states: np.ndarray, lv: DegeneracyStructure, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of B_j^dag rho_j B_j (n, d) for the node bases B_j of the
    levels record lv of a run of nodes, formed from the one product rho B as
    Re sum_i conj(B_ia) (rho B)_ia on the stack given, which the passes keep
    to one node block, and the level populations Tr(Pi_k rho_j) of all nodes
    laid end to end, summed from the level starts lv.starts, as lv.mults
    lays out its levels. A real basis drops Im(rho), whose diagonal in it
    is 0: the diagonal is that of B^T Re(rho) B, a real product.

    Raises when the clipped populations of a node miss 1 by more than
    LEVEL_NORM_TOL, or are not finite: the state and the levels do not
    belong together; the node is named by its index counted from `first`, as
    in linalg.validate_hermitian.
    """
    d, dim = states.shape[1], lv.basis.shape[-1]
    if states.shape[1:] != (dim, dim):
        raise ValidationError(f"state dimension {d} does not match structure dimension {dim}")
    diag = _level_diagonal(states, lv.basis)
    pops = np.add.reduceat(diag.ravel(), lv.starts)
    total = np.add.reduceat(np.maximum(pops, 0.0), lv._offsets)
    miss = abs(total - 1.0)
    if not miss.max() <= LEVEL_NORM_TOL:  # one test, which a NaN fails as well
        j = int(np.argmax(~(miss <= LEVEL_NORM_TOL)))
        raise ValidationError(f"level populations at node {first + j} sum to {total[j]}, expected 1")
    return diag, pops


def level_twirl(pops: np.ndarray, lv: DegeneracyStructure) -> np.ndarray:
    """The twirled states B_j diag(p/n) B_j^dag (n, d, d), complex, from
    level_space's populations, for the node bases B_j and level
    multiplicities n of the levels record lv of a run; of one node's record
    and populations, the one twirled state (d, d). A real basis takes a real
    product."""
    b, cols = lv.basis, _spread(pops, lv)[..., None, :]
    return np.matmul(b * cols, _dag(b), out=np.empty(b.shape, dtype=complex))


def _spread(values: np.ndarray, lv: DegeneracyStructure) -> np.ndarray:
    """values, one per level of the levels record lv as it lays them out,
    each divided evenly over its level's multiplicity n: the rows (n_nodes,
    d) of v / n repeated n times, or the one row (d,) of one node's record,
    as level_twirl spreads the populations."""
    n = lv.mults
    return np.repeat(values / n, n).reshape(lv.first.shape)


def _state_levels(
    rho: np.ndarray, ds: DegeneracyStructure
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """level_space on one state: the validated rho, its level-basis diagonal
    (d,), its level populations (L,) and their distribution, the populations
    clamped at zero and renormalized. The products and sums are those of a
    stacked call on 2-D arrays, so each is bit for bit a row of one; the
    checks and their messages are the same too. ds is the levels of one
    node, whose basis has rho's shape (DegeneracyStructure._node)."""
    rho = validate_density(rho, check_psd=False)
    ds._node(rho.shape)
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
    return level_twirl(_state_levels(rho, ds)[2], ds)


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
    and the average is rotated back by the basis B once. rho is checked as
    twirl checks it (_state_levels).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rho = _state_levels(rho, ds)[0]
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
    one element). ds is the levels of one node (its slices check it)."""
    B = ds.basis
    return B @ _level_elements(ds, 1, rng)[0] @ B.conj().T
