"""Driving protocols, unitary propagation, work/heat quadrature, and the
Clausius-inequality reports.

A protocol is a uniform time grid with a Hamiltonian at every node. Evolution
uses the midpoint propagator exp(-i H((t_j+t_{j+1})/2) dt) per step; all
work and heat functionals are trapezoid quadratures of trace integrands with
grid derivatives taken by central differences. Both pieces are second order,
so the declared integration tolerance scales as C dt^2. It compares the run
with one on the grid coarsened by two, whose step from fine node 2k to
2k + 2 is taken at the middle fine node, exp(-2i dt H_{2k+1}), from that
node's levels record: its basis and its level spectrum, which holds the
eigenvalue of a one-dimensional level and the mean of a merged level's,
within the clustering tolerance of each. For the four models H is affine in
t, so H_{2k+1} is the average of the end Hamiltonians to round-off; for a
protocol that is not affine, it is a different second-order midpoint rule.

A protocol holds its Hamiltonians as a stored stack, or as a function that
makes the nodes of a node range, as the model builders give them; every
pass reads them a node block at a time (Protocol.block), so a protocol made
by a function is never held whole. They are float64 if real and complex128
if complex, and the dtype picks the solver. The spectral work of a real
protocol is real: the real-symmetric solver, real eigenvectors in every
levels record (gauge.DegeneracyStructure), and real products in the level
space, the twirl and the step propagators. States and propagators are
complex.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gauge import (
    CLUSTER_TOL_REL,
    DegeneracyStructure,
    _spread,
    cluster_spectra,
    default_cluster_tol_abs,
    level_space,
    level_twirl,
)
from .invariants import _entropy_split, _gibbs_terms
from .linalg import (
    ValidationError,
    _dag,
    _one_blas_thread,
    _stored,
    _transposed,
    gibbs_state,
    max_abs_entry,
    node_blocks,
    validate_density,
    validate_hermitian,
    von_neumann_entropy,
)

GRID_UNIFORMITY_TOL = 1e-12
THERMAL_START_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Protocol:
    """Uniform grid t_0 = 0 ... t_N = tau with one Hamiltonian per node,
    float64 if every node is real and complex128 if one is complex
    (linalg._stored). hamiltonians, an argument of the constructor only, is
    a stack, which the protocol stores, or a function that makes the nodes
    of a slice, as the model builders give it; either way the nodes are
    checked a node block at a time when the protocol is made, and read only
    through block(s), so dataclasses.replace must be given them again."""

    times: np.ndarray
    hamiltonians: InitVar[np.ndarray]
    beta: float
    label: str = ""

    def __post_init__(self, given):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValidationError("protocol needs at least two grid nodes")
        n = times.shape[0]
        if callable(given):
            nodes, shape, count = given, np.shape(given(slice(0, 1))), 1
        else:
            given = _stored(given)
            nodes, shape, count = given.__getitem__, given.shape, n
        if len(shape) != 3 or shape[0] != count or shape[1] != shape[2]:
            raise ValidationError("hamiltonians must be one square matrix per node")
        if not np.all(np.isfinite(times)):
            raise ValidationError("time grid must be finite")
        steps = np.diff(times)
        dt = float(steps[0])
        scale = max(abs(float(times[-1])), dt)
        if dt <= 0 or np.max(np.abs(steps - dt)) > GRID_UNIFORMITY_TOL * scale:
            raise ValidationError("time grid must be uniform and increasing")
        if abs(float(times[0])) > GRID_UNIFORMITY_TOL * scale:
            raise ValidationError("time grid must start at 0")
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_dim", shape[-1])
        object.__setattr__(self, "_dtype", _check_nodes(nodes, n, shape[-1]))

    def block(self, s: int | slice) -> np.ndarray:
        """The Hamiltonians of nodes s, as a stack h gives h[s]: node s (d, d)
        for an int, negative ones counted from the end, and a stack (k, d, d)
        for a slice of step 1; a view of a stored stack, made on each call
        by the function of a made one."""
        if not isinstance(s, slice):
            j = range(self.n_nodes)[s]
            return self.block(slice(j, j + 1))[0]
        a, b, step = s.indices(self.n_nodes)
        if step != 1:
            raise ValueError(f"a node range has step 1, got {step}")
        return np.asarray(self._nodes(slice(a, b)), dtype=self._dtype)

    @property
    def n_nodes(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        """float64 for a real protocol, complex128 for a complex one."""
        return self._dtype

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def tau(self) -> float:
        return float(self.times[-1])


def _check_nodes(nodes, n: int, d: int) -> np.dtype:
    """Check the n Hamiltonians that nodes makes (Protocol), a node block at a
    time: each block a stack (k, d, d), finite and Hermitian, with the error
    that linalg.validate_hermitian gives on the whole stack, so a non-finite node
    is named before an earlier node that is only not Hermitian. The dtype of
    the protocol: complex128 if a block is complex, else float64."""
    cplx, skew = False, None
    for s in node_blocks(n, d):
        h = nodes(s)
        if np.shape(h) != (s.stop - s.start, d, d):
            raise ValidationError("hamiltonians must be one square matrix per node")
        cplx = cplx or np.iscomplexobj(h)
        try:
            validate_hermitian(h, "hamiltonian at node", s.start)
        except ValidationError as exc:
            if not np.isfinite(max_abs_entry(h)).all():
                raise
            skew = exc if skew is None else skew
        del h  # so that the next block is made without this one
    if skew is not None:
        raise skew
    return np.dtype(complex if cplx else float)


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """States, twirled states, cumulative propagators, and the levels record of every node."""

    states: np.ndarray
    twirled_states: np.ndarray
    propagators: np.ndarray
    structures: DegeneracyStructure


def evolve(
    p: Protocol,
    rho0: np.ndarray,
    *,
    cluster_tol_abs: float | None = None,
    cluster_tol_rel: float = CLUSTER_TOL_REL,
) -> EvolutionResult:
    """Propagate rho0 through the protocol and twirl at every node.

    Cumulative propagators compose on the left: U_{j+1} = U_step U_j, so
    propagators[j] maps t=0 data to t_j. Levels are clustered independently
    per node; they are never tracked through crossings.

    The spectral work is one eigendecomposition per node Hamiltonian, made
    as one stacked call per node block and clustered into the block's levels
    (_pass), and one per midpoint Hamiltonian, which gives every step
    propagator (_steps), both from the block's window of Hamiltonians
    (_windows). The dtype of the protocol picks the solver: a real protocol
    takes the real-symmetric one and keeps real bases, half the bytes of
    complex ones, and a complex protocol takes the complex one in every
    block. The real solver may pick another basis inside a degenerate level
    than the complex one. The pass over node blocks (_pass) decomposes and
    propagates each block, and evolve writes it into stacks made once for
    every node: the propagators, states and twirled states, and the three
    stacks of one levels record (gauge.DegeneracyStructure), the block's
    rows of its level spectra, level-start mask and bases. The record is
    read only once every block is written. Those stacks are for library
    callers that read every node; stream_run folds the same pass into the
    ledger, the tolerance and the connection check without storing it. The
    OpenBLAS pool runs at one thread while evolve does
    (linalg._one_blas_thread).
    """
    with _one_blas_thread():
        rho0 = _initial_state(p, rho0)
        n, d = p.n_nodes, p.dim
        props, states, twirled = (np.empty((n, d, d), complex) for _ in range(3))
        levels = DegeneracyStructure(np.empty((n, d)), np.empty((n, d), bool), np.empty((n, d, d), p.dtype))
        for s, win, lv, block in _pass(p, rho0, cluster_tol_abs, cluster_tol_rel):
            props[s], states[s], twirled[s] = block[:3]
            levels.spectra[s], levels.first[s], levels.basis[s] = lv.spectra, lv.first, lv.basis
            del win, lv, block  # before the pass makes the next block
    return EvolutionResult(states, twirled, props, levels)


class _Window(NamedTuple):
    """Consecutive node Hamiltonians h, node `first` the first: h[j - first]
    is node j."""

    h: np.ndarray
    first: int

    def nodes(self, a: int, b: int) -> np.ndarray:
        """Nodes a .. b - 1, a view; b past the window's last node stops there."""
        return self.h[a - self.first : b - self.first]


def _windows(p: Protocol):
    """Each node block s (linalg.node_blocks), in node order, with the
    Hamiltonians that a pass reads for it, made once (Protocol.block) and
    read as views by every consumer: the block, one node of halo on each side
    (the steps into it, _steps, and the neighbour traces, _PowerIntegrands),
    widened at each end to an even node, so the coarse grid's neighbours of
    the block's even nodes are in it too (_CoarseRun). Its first node is
    even."""
    for s in node_blocks(p.n_nodes, p.dim):
        a, b = s.start, s.stop
        first = max(a - 2 + a % 2, 0)
        yield s, _Window(p.block(slice(first, b + 1 + b % 2)), first)


def _pass(p: Protocol, rho0: np.ndarray, tol_abs: float | None, tol_rel: float):
    """The pass over node blocks that evolve stores and stream_run folds,
    from a validated rho0: each node block s in node order, with its window
    (_windows), the levels record of its nodes (gauge.DegeneracyStructure,
    from cluster_spectra) and the arrays that _Propagator.block gives for
    it. The levels are clustered from one stacked eigendecomposition of the
    block's Hamiltonians, whose eigenvectors the record keeps with the level
    spectra and level starts of the clustering; the dtype picks the solver,
    so a real block has a real basis. It lets the window and the levels go
    before it makes the next block; so must a consumer."""
    run, c = _Propagator(rho0), -1j * p.dt
    for s, win in _windows(p):
        h = win.nodes(s.start, s.stop)
        tol = default_cluster_tol_abs(h) if tol_abs is None else tol_abs
        lv = cluster_spectra(*np.linalg.eigh(h), tol, tol_rel)
        yield s, win, lv, run.block(s, lv, _steps(win, s, c))
        del win, lv, h


def _initial_state(p: Protocol, rho0: np.ndarray) -> np.ndarray:
    """rho0, validated as a state of the protocol's dimension, as complex: the
    evolved states are, and so every route reads one state of one dtype (a
    real rho0's entropy from the real solver could differ in the last bit)."""
    rho0 = validate_density(rho0).astype(complex, copy=False)
    if rho0.shape[0] != p.dim:
        raise ValidationError("initial state dimension does not match the protocol")
    return rho0


class _Propagator:
    """evolve's propagation from a validated rho0, a node block at a time:
    block(s, lv, steps) takes the node block s (linalg.node_blocks, or any run
    of consecutive nodes, in node order), the levels record of its nodes and
    the step propagators into them, steps max(s.start - 1, 0) .. s.stop - 2
    (_steps), and gives the propagators, states and twirled states of its
    nodes, and the level-basis diagonal and level populations of its states
    (gauge.level_space). It carries the running propagator from block to
    block. States and level populations are checked a block at a time, and
    an error names its node by its index in the grid.
    """

    def __init__(self, rho0: np.ndarray):
        self.rho0 = rho0
        self.u = np.eye(rho0.shape[0], dtype=complex)  # the propagator into the last node given

    def block(self, s: slice, lv: DegeneracyStructure, steps: np.ndarray) -> tuple[np.ndarray, ...]:
        a, b = s.start, s.stop
        lo = max(a - 1, 0)  # steps lo .. b - 2 lead into the block's nodes
        props = np.empty((b - a,) + self.u.shape, dtype=complex)
        props[0] = self.u  # U_0 = 1; in a later block, step a - 1 overwrites it
        for j in range(lo, b - 1):  # node j to node j + 1
            self.u = np.matmul(steps[j - lo], self.u, out=props[j + 1 - a])
        states = np.matmul(props @ self.rho0, _dag(props))
        if a == 0:
            states[0] = self.rho0
        validate_density(states, "evolved state at node", check_psd=False, first=a)
        diag, pops = level_space(states, lv, first=a)
        self.u = props[-1].copy()
        return props, states, level_twirl(pops, lv), diag, pops


def _steps(win: _Window, s: slice, c: complex) -> np.ndarray:
    """exp(c H_mid) for the steps into the nodes of the block s, steps
    max(s.start - 1, 0) .. s.stop - 2, from the block's window, one
    eigendecomposition per midpoint (the dtype of the nodes picks the
    solver), each midpoint checked and named by its step."""
    lo = max(s.start - 1, 0)
    h = win.nodes(lo, s.stop)
    mid = (h[:-1] + h[1:]) / 2.0
    validate_hermitian(mid, "operator", lo)
    return _exponentials(*np.linalg.eigh(mid), c)


def _exponentials(w: np.ndarray, V: np.ndarray, c: complex) -> np.ndarray:
    """exp(c H) = V e^{c w} V^dag of each Hamiltonian from its eigenvalues w
    (k, d), or a levels record's level spectrum, and eigenvectors V
    (k, d, d); a real V takes two real products, one for each part of
    e^{c w}."""
    z = np.exp(c * w)[..., None, :]
    if np.iscomplexobj(V):
        return (V * z) @ _dag(V)
    out = np.empty(V.shape, dtype=complex)
    out.real, out.imag = (V * z.real) @ _dag(V), (V * z.imag) @ _dag(V)
    return out


def _flat_traces(a: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Re Tr(a_j b_j) per node from a contiguous copy bt of b transposed: the flat
    product sum over a_ij (b^T)_ij, which reads both operands in memory order."""
    return np.einsum("nij,nij->n", a, bt).real


def _cumtrap(y: np.ndarray, dt: float) -> np.ndarray:
    """The cumulative trapezoid integral of y on a grid of step dt, from 0 at
    the first node, with the operations of scipy's cumulative_trapezoid."""
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(dt * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


@dataclass(frozen=True, eq=False)
class WorkHeatSeries:
    w_u: np.ndarray
    w_inv: np.ndarray
    q_c: np.ndarray
    q_u: np.ndarray
    u: np.ndarray


def _ends(plus: np.ndarray, minus: np.ndarray, same: np.ndarray, dt: float) -> np.ndarray:
    """(plus_j - minus_{j-1}) / 2dt per node, and one-sided against same at the two ends."""
    out = np.empty_like(same)
    out[1:-1] = (plus[1:] - minus[:-1]) / (2.0 * dt)
    out[0] = (plus[0] - same[0]) / dt
    out[-1] = (same[-1] - minus[-1]) / dt
    return out


class _PowerIntegrands:
    """Re Tr(S_j Hdot_j), Re Tr(Sdot_j H_j) and Re Tr(S_j H_j) per node, with
    the derivatives of np.gradient (central, and one-sided at the two ends),
    for each state stack S of a pass over n nodes, folded a node block at a
    time: add(s, win, S[s], S'[s], ...) for the blocks in node order, with
    each block's window of Hamiltonians (_windows), then integrands(dt).

    A central difference is linear, so it moves onto neighbour traces:
    Tr(S_j Hdot_j) = [Tr(S_j H_{j+1}) - Tr(S_j H_{j-1})] / 2dt and
    Tr(Sdot_j H_j) = [Tr(S_{j+1} H_j) - Tr(S_{j-1} H_j)] / 2dt. A block takes
    them from one transposed copy of its H with a one-node halo on each side,
    Tr(S_{j+1} H_j) in the block of node j + 1, so no state crosses blocks.
    """

    def __init__(self, n: int):
        self.n, self.traces = n, []

    def add(self, s: slice, win: _Window, *stacks: np.ndarray) -> None:
        n, a, b = self.n, s.start, s.stop
        lo = max(a - 1, 0)
        k = a - lo  # H_j is ht[j - lo], so node a sits at k
        ht = _transposed(win.nodes(lo, b + 1))
        m = min(b, n - 1) - a  # the pairs (j, j + 1) with j in this block
        if not self.traces:
            self.traces = [(np.empty(n), np.empty(n - 1), np.empty(n - 1)) for _ in stacks]
        for (same, fwd, bwd), x in zip(self.traces, stacks):
            same[s] = _flat_traces(x, ht[k : k + b - a])
            fwd[a : a + m] = _flat_traces(x[:m], ht[k + 1 : k + 1 + m])  # Tr(S_j H_{j+1})
            bwd[lo : b - 1] = _flat_traces(x[1 - k :], ht[: b - 1 - lo])  # Tr(S_{j+1} H_j)

    def integrands(self, dt: float) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return [(_ends(f, b, same, dt), _ends(b, f, same, dt), same) for same, f, b in self.traces]


def _series(integrands: list[tuple], dt: float) -> WorkHeatSeries:
    """The work/heat series from the _PowerIntegrands of states and twirled states."""
    (w_u, q_u, u), (w_inv, q_c, _) = integrands
    return WorkHeatSeries(
        w_u=_cumtrap(w_u, dt),
        w_inv=_cumtrap(w_inv, dt),
        q_c=_cumtrap(q_c, dt),
        q_u=_cumtrap(q_u, dt),
        u=u,
    )


def work_heat_series(p: Protocol, ev: EvolutionResult) -> WorkHeatSeries:
    fold = _PowerIntegrands(p.n_nodes)
    for s, win in _windows(p):
        fold.add(s, win, ev.states[s], ev.twirled_states[s])
    return _series(fold.integrands(p.dt), p.dt)


@dataclass(frozen=True, eq=False)
class ThermoLedger:
    """Per-node cumulative thermodynamic series for one protocol run.

    Work/heat/energy columns are in energy units, entropies in nats, bures in
    radians; s_gamma and rel_ent are divergences (ledger).
    """

    w_u: np.ndarray
    w_inv: np.ndarray
    q_c: np.ndarray
    q_u: np.ndarray
    q_inv: np.ndarray
    u: np.ndarray
    f_eq: np.ndarray
    s_gt: np.ndarray
    s_d: np.ndarray
    c_rel: np.ndarray
    s_gamma: np.ndarray
    bures: np.ndarray
    rel_ent: np.ndarray


def ledger(p: Protocol, ev: EvolutionResult) -> ThermoLedger:
    """Integrate all work/heat functionals and evaluate the entropy columns.

    The entropy, free-energy, Bures and relative-entropy columns are computed
    in level space from one stacked basis change of the states
    (gauge.level_space), by the fold (_FineRun) that stream_run feeds its pass
    and ledger the stored run's blocks (_stored_fold), once on every node
    after the last block, by the kernels that entropy_report shares
    (invariants._entropy_split and invariants._gibbs_terms). Over each node's
    d eigenvalues, with the level-basis diagonal x, the twirled spectrum t
    (each level's p_k / n_k repeated n_k times) and the Gibbs spectrum q of
    the level energies (linalg._log_gibbs, from log-weights):

    - f_eq = -ln Z / beta; s_gt and s_d are the Shannon entropies of t and x;
    - c_rel = s_d - s_vn, with s_vn taken once, from states[0]: unitary
      evolution keeps the spectrum;
    - s_gamma = KL(x || t) = s_gt - s_d and rel_ent = KL(t || q) =
      S(rho^E || gibbs(H)) are divergences, summed from terms clipped at 0
      (linalg._divergence), and rel_ent stays finite where q underflows;
    - bures = arccos(sum sqrt(t q)), the sum being the root fidelity of two
      commuting states, evaluated as 2 arcsin(||sqrt(t) - sqrt(q)|| / 2),
      which keeps its digits as the fidelity approaches 1.

    gibbs_state, fidelity, bures_angle and relative_entropy remain the
    general (non-commuting) matrix routes, equal to these columns to
    round-off; gibbs_state keeps its own weights (see there).
    """
    return _stored_fold(p, ev).ledger(von_neumann_entropy(ev.states[0]))


def integration_tolerance(p: Protocol, ev: EvolutionResult) -> float:
    """Declared quadrature tolerance for this protocol run.

    Propagates on the grid coarsened by a factor of two (every other node of
    the same data, no interpolation) and bounds the error by the worst
    cumulative-series difference at shared nodes. The coarse nodes are the
    fine nodes 0, 2, 4, ... with the same clustering tolerances, so they
    reuse the levels of ev and the fine Hamiltonians. Coarse step k,
    from fine node 2k to 2k + 2, is exp(-2i dt H_{2k+1}), taken at the middle
    fine node from the level spectrum and basis that ev's levels record
    (gauge.DegeneracyStructure, cut a node block at a time as views)
    already holds, so the coarse run (_CoarseRun) makes no
    eigendecomposition and stores no coarse stack: it folds the even nodes
    of each fine node block into its neighbour traces. On a merged level
    the step takes the level mean for each of its eigenvalues, a change
    within the clustering tolerance. For the four models H is affine in t,
    so H_{2k+1} is the average of the end Hamiltonians H_2k and H_2k+2 to
    round-off, which a midpoint step of the coarse grid would take; for a
    protocol that is not affine it is a different second-order midpoint rule.
    The fine series is the run's work_heat_series. The 1.5 safety factor
    covers terms that converge only first order, e.g. a degeneracy jump
    sitting on a single grid node.
    """
    coarse = _CoarseRun(p, ev.states[0])
    for s, win in _windows(p):
        coarse.add(s, ev.structures[s], win)
    return coarse.tolerance(work_heat_series(p, ev))


class _CoarseRun:
    """The tolerance's run on the grid coarsened by two, whose nodes are the
    fine nodes 0, 2, 4, ... and their Hamiltonians, from rho0 (validated).
    add(s, lv, win) takes a fine node block s, in node order, with the
    levels record of its nodes (gauge.DegeneracyStructure) and its window
    (_windows), whose even nodes are the coarse grid's, and propagates the
    block's even nodes, the coarse nodes (s.start + 1) // 2 ..
    (s.stop + 1) // 2 - 1, into the coarse neighbour traces; a one-node
    block of an odd node has none. Coarse step k is taken at the middle fine
    node, exp(-2i dt H_{2k+1}), from the level spectrum and basis of fine
    node 2k + 1 in lv, real or complex as the pass keeps them; for an affine
    H it is the coarse midpoint step to round-off (integration_tolerance).
    The even nodes of lv, the coarse run's levels, are a stride-2 cut of it,
    a view of its three stacks. The step into a block's first even node may
    need the previous block's last node, which the run holds as a one-node
    halo. A grid of fewer than 5 nodes is refused when the run is made."""

    def __init__(self, p: Protocol, rho0: np.ndarray):
        if p.n_nodes < 5:
            raise ValueError("tolerance estimation needs at least 5 grid nodes")
        self.dt = float(p.times[2] - p.times[0])
        self.run, self.fold = _Propagator(rho0), _PowerIntegrands((p.n_nodes + 1) // 2)
        self.halo = None  # level spectrum and basis of the last fine node given, if it is odd

    def add(self, s: slice, lv: DegeneracyStructure, win: _Window) -> None:
        odd = (s.start + 1) % 2  # the block's first odd node, counted from s.start
        w, V = lv.spectra[odd::2], lv.basis[odd::2]
        if self.halo is not None:
            w, V = np.concatenate([self.halo[0], w]), np.concatenate([self.halo[1], V])
        self.halo = (w[-1:].copy(), V[-1:].copy()) if s.stop % 2 == 0 else None
        cs = slice((s.start + 1) // 2, (s.stop + 1) // 2)
        if cs.start < cs.stop:
            m = cs.stop - max(cs.start, 1)  # the steps into the block's coarse nodes
            steps = _exponentials(w[:m], V[:m], -1j * self.dt)
            _, states, twirled, *_ = self.run.block(cs, lv[s.start % 2 :: 2], steps)
            self.fold.add(cs, _Window(win.h[::2], win.first // 2), states, twirled)

    def tolerance(self, fine) -> float:
        """integration_tolerance from the fine work/heat series (a WorkHeatSeries
        or ThermoLedger) and this run's."""
        crs = _series(self.fold.integrands(self.dt), self.dt)
        worst = 0.0
        for name in ("w_u", "w_inv", "q_c", "q_u"):
            f = getattr(fine, name)[::2]
            c = getattr(crs, name)
            worst = max(worst, float(np.max(np.abs(f - c))))
        return 1.5 * worst + 1e-12


class _FineRun:
    """The fine grid's fold, which gives the ledger and the connection check:
    add(s, win, lv, states, twirled, x, pops) takes a node block s, in node
    order, with its window (_windows), levels record, states, twirled states,
    level-basis diagonal and level populations (gauge.level_space). It folds
    both state stacks into the work/heat neighbour traces (_PowerIntegrands)
    and keeps three level-space rows (n, d) and a degenerate flag per node:
    the diagonal, the spectrum, and the twirled spectrum t, each level's
    clipped population spread evenly over its multiplicity (unnormalized;
    ledger normalizes it into a new array, so it can be called again).
    stream_run feeds it its pass, ledger and connection_cross_check a stored
    run (_stored_fold)."""

    def __init__(self, p: Protocol):
        n, self.beta, self.dt = p.n_nodes, p.beta, p.dt
        self.degenerate, self.fold = np.empty(n, dtype=bool), _PowerIntegrands(n)
        # every node's level-space rows as one allocation: glibc's malloc serves a buffer
        # this large by mmap, and once it is freed keeps the pass's block temporaries on
        # its heap, where two (n, d) arrays left the heap trimmed and the next block
        # refaulting it (about 10^5 page faults a Curie-Weiss run)
        self.diag, self.spectra, self.t = np.empty((3, n, p.dim))

    def add(self, s: slice, win: _Window, lv: DegeneracyStructure, states, twirled, x, pops) -> None:
        self.degenerate[s], self.spectra[s], self.diag[s] = lv.degenerate, lv.spectra, x
        self.t[s] = _spread(np.clip(pops, 0.0, None), lv)
        self.fold.add(s, win, states, twirled)

    @cached_property
    def integrands(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self.fold.integrands(self.dt)

    @cached_property
    def series(self) -> WorkHeatSeries:
        return _series(self.integrands, self.dt)

    def ledger(self, s_vn: float) -> ThermoLedger:
        """The ledger, given rho's von Neumann entropy."""
        t = self.t / self.t.sum(axis=1, keepdims=True)
        s_gt, s_d, c_rel, s_gamma = _entropy_split(self.diag, t, s_vn)
        f_eq, bures, rel_ent = _gibbs_terms(self.spectra, t, self.beta)
        s = self.series
        return ThermoLedger(**vars(s), q_inv=s.q_u + s.q_c, f_eq=f_eq, s_gt=s_gt, s_d=s_d,
                            c_rel=c_rel, s_gamma=s_gamma, bures=bures, rel_ent=rel_ent)

    def connection(self) -> ConnectionCheck:
        """connection_cross_check against this run's w_inv and q_u + q_c, or
        skipped at the first degenerate node. sum_a x_a edot_a takes edot as
        np.gradient does, on the neighbour sums x_j . e_{j+1} and
        x_{j+1} . e_j as in _PowerIntegrands; t = sum x edot - Re Tr(rho Hdot)."""
        if self.degenerate.any():
            j = int(np.argmax(self.degenerate))
            return ConnectionCheck(False, f"degenerate spectrum at node {j}; frame construction undefined")

        def dot(a, b):
            return np.einsum("ij,ij->i", a, b)

        x, e, dt, s = self.diag, self.spectra, self.dt, self.series
        work, heat, _ = self.integrands[0]
        t = _ends(dot(x[:-1], e[1:]), dot(x[1:], e[:-1]), dot(x, e), dt) - work
        w_cov, q_cov = _cumtrap(work + t, dt), _cumtrap(heat - t, dt)
        dev = np.abs(w_cov - s.w_inv), np.abs(q_cov - (s.q_u + s.q_c))
        return ConnectionCheck(True, "", w_cov, q_cov, *dev)


def _stored_fold(p: Protocol, ev: EvolutionResult) -> _FineRun:
    """_FineRun fed a stored run's node blocks as stream_run's pass feeds
    it, the level space of each (gauge.level_space) from its stored states."""
    fine = _FineRun(p)
    for s, win in _windows(p):
        lv, states = ev.structures[s], ev.states[s]
        x, pops = level_space(states, lv, first=s.start)
        fine.add(s, win, lv, states, ev.twirled_states[s], x, pops)
    return fine


@dataclass(frozen=True, eq=False)
class ConnectionCheck:
    """Covariant-derivative route for invariant work/heat vs the twirl route,
    from D_t H = V Edot V^dag (connection_cross_check), with deviations from
    the same run's w_inv and q_inv; not performed, with the first degenerate
    node named in reason, when any node is degenerate."""

    performed: bool
    reason: str
    w_cov: np.ndarray | None = None
    q_cov: np.ndarray | None = None
    w_deviation: np.ndarray | None = None
    q_deviation: np.ndarray | None = None


def connection_cross_check(p: Protocol, ev: EvolutionResult) -> ConnectionCheck:
    """Recompute W_inv and Q_inv from the frame connection and compare.

    The eigenframe V_t has the connection A = -Vdot V^dag (the sign that
    makes the covariant derivative annihilate every spectral projector), and
    D_t H = Hdot + [A,H] = V Edot V^dag, so Tr(rho D_t H) = sum_a x_a edot_a
    over the level-basis diagonal x and the eigenvalues e (Hellmann-Feynman).
    With t = Re Tr(rho [A,H]) = -Re Tr(H [A,rho]), the covariant work and heat
    integrands are those of work_heat_series plus and minus t. Skipped
    whenever any node is degenerate: the eigenframe is not defined across a
    merged level. The sums are taken on every node at once after the run's
    blocks are folded (_FineRun.connection), as in stream_run.
    """
    return _stored_fold(p, ev).connection()


@dataclass(frozen=True, eq=False)
class StreamedRun:
    """What stream_run keeps. ev holds only the kept nodes, their states,
    twirled states, propagators and levels, so its [0] and [-1] are the
    protocol's ends. degenerate[j] says whether node j has a level of
    multiplicity above 1. connection is the check from D_t H = V Edot V^dag,
    not performed when any node is degenerate."""

    nodes: list[int]
    ev: EvolutionResult
    degenerate: np.ndarray
    tl: ThermoLedger
    tol: float
    connection: ConnectionCheck


def stream_run(
    p: Protocol,
    rho0: np.ndarray,
    *,
    cluster_tol_abs: float | None = None,
    cluster_tol_rel: float = CLUSTER_TOL_REL,
) -> StreamedRun:
    """evolve, ledger, integration_tolerance and connection_cross_check in
    one pass over node blocks, with the same numbers bit for bit.

    The pass is evolve's (_pass): it takes the node blocks in order, makes
    each block's window of Hamiltonians once (_windows, Protocol.block),
    decomposes the block's nodes and propagates them. stream_run feeds views
    of the window and the block's levels record to two folds before letting
    them go: the fine run (_FineRun), which ledger and
    connection_cross_check feed from a stored run; and the tolerance's run on
    the grid coarsened by two (_CoarseRun), whose nodes are the block's even
    nodes and whose steps are taken at its odd nodes, from their level
    spectra and bases (integration_tolerance). The ledger's entropy rows and
    the connection check's sums are taken after the pass, from what the fine run
    keeps of every node; the check is skipped if a node is degenerate. So
    the pass decomposes 2n - 1 matrices, the n nodes and the n - 1 fine
    midpoints. A run holds a few node blocks, and of every node its
    level-basis diagonal, spectrum and twirled spectrum (n, d), its ledger
    rows and degenerate flag: not the Hamiltonians of every node when the
    protocol makes them (the model builders' protocols), nor the stacks of
    evolve or the levels of every node. The nodes kept are 0, n // 2 and
    n - 1: their rows of each block's states, twirled states, propagators
    and three levels stacks are copied, and each is concatenated over the
    blocks into one stack, so ev.structures is one levels record
    (gauge.DegeneracyStructure) of the kept nodes; their bases are real
    when the protocol is, as in the pass. Faults are raised a block at a
    time in node order, and a protocol of fewer than 5 nodes is refused
    before the pass. The OpenBLAS pool runs at one thread while stream_run
    does (linalg._one_blas_thread).
    """
    with _one_blas_thread():
        rho0 = _initial_state(p, rho0)
        coarse, fine = _CoarseRun(p, rho0), _FineRun(p)
        nodes, kept = sorted({0, p.n_nodes // 2, p.n_nodes - 1}), []
        blocks = _pass(p, rho0, cluster_tol_abs, cluster_tol_rel)
        for s, win, lv, (props, states, twirled, x, pops) in blocks:
            fine.add(s, win, lv, states, twirled, x, pops)
            here = [j - s.start for j in nodes if s.start <= j < s.stop]
            if here:  # copies, which let the block go
                kept.append((states[here], twirled[here], props[here],
                             lv.spectra[here], lv.first[here], lv.basis[here]))
            del props, states, twirled  # before the coarse run makes its own
            coarse.add(s, lv, win)
            del lv, win  # before the pass makes the next block

        tl = fine.ledger(von_neumann_entropy(rho0))
        states, twirled, props, *levels = map(np.concatenate, zip(*kept))
        ev = EvolutionResult(states, twirled, props, DegeneracyStructure(*levels))
        return StreamedRun(nodes, ev, fine.degenerate, tl, coarse.tolerance(tl), fine.connection())


@dataclass(frozen=True, eq=False)
class ClausiusReport:
    """Slack of the four lower bounds on work, per node, plus the exact balance.

    slack_usual:      w_u  - (dF_eq + dS_gt/beta)
    slack_invariant:  the same bound written for invariant work; the coherent
                      heat crosses sides with the sign fixed by the
                      closed-dynamics identity w_u = w_inv + q_c
    slack_split:      w_u  - (dF_eq + (c_rel + s_gamma)/beta)
    slack_geometric:  slack_split minus the Bures-angle tightening
    balance_residual: beta*(w_u - dF_eq) - (dS_gt + rel_ent); zero in exact
                      arithmetic for a thermal start
    """

    applicable: bool
    reason: str
    slack_usual: np.ndarray | None = None
    slack_invariant: np.ndarray | None = None
    slack_split: np.ndarray | None = None
    slack_geometric: np.ndarray | None = None
    balance_residual: np.ndarray | None = None

    def worst_slacks(self) -> dict[str, float]:
        if not self.applicable:
            return {}
        return {
            "slack_usual": float(np.min(self.slack_usual)),
            "slack_invariant": float(np.min(self.slack_invariant)),
            "slack_split": float(np.min(self.slack_split)),
            "slack_geometric": float(np.min(self.slack_geometric)),
        }


def _split_bounds(tl: ThermoLedger, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The generalized bound dF_eq + (c_rel + s_gamma)/beta on w_u per node, and
    the Bures-angle tightening (8 / (pi^2 beta)) bures^2 the geometric bound adds."""
    d_f = tl.f_eq - tl.f_eq[0]
    return d_f + (tl.c_rel + tl.s_gamma) / beta, (8.0 / (np.pi**2 * beta)) * tl.bures**2


def clausius_report(p: Protocol, ev: EvolutionResult, tl: ThermoLedger) -> ClausiusReport:
    """Evaluate all four work bounds along a thermal-start protocol."""
    sigma0, _ = gibbs_state(p.block(0), p.beta)
    dev = float(np.max(np.abs(ev.states[0] - sigma0)))
    if not dev <= THERMAL_START_TOL:  # one test, which a NaN fails as well
        return ClausiusReport(
            applicable=False,
            reason=f"initial state differs from gibbs_state(H_0, beta) by {dev:.3e}",
        )
    beta = p.beta
    d_f = tl.f_eq - tl.f_eq[0]
    d_s = tl.s_gt - tl.s_gt[0]
    base = d_f + d_s / beta
    slack_usual = tl.w_u - base
    slack_invariant = tl.w_inv + tl.q_c - base
    bound, tightening = _split_bounds(tl, beta)
    slack_split = tl.w_u - bound
    slack_geometric = slack_split - tightening
    balance = beta * (tl.w_u - d_f) - (d_s + tl.rel_ent)
    return ClausiusReport(
        applicable=True,
        reason="",
        slack_usual=slack_usual,
        slack_invariant=slack_invariant,
        slack_split=slack_split,
        slack_geometric=slack_geometric,
        balance_residual=balance,
    )
