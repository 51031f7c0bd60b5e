"""Driving protocols, unitary propagation, work/heat quadrature, and the
Clausius-inequality reports.

A protocol is a uniform time grid with a Hamiltonian at every node. Evolution
uses the midpoint propagator exp(-i H((t_j+t_{j+1})/2) dt) per step; all
work and heat functionals are trapezoid quadratures of trace integrands with
grid derivatives taken by central differences. Both pieces are second order,
so the declared integration tolerance scales as C dt^2. It compares the run
with one on the grid coarsened by two, whose step from fine node 2k to
2k + 2 is taken at the middle fine node, exp(-2i dt H_{2k+1}), from that
node's eigendecomposition. For the four models H is affine in t, so H_{2k+1}
is the average of the end Hamiltonians to round-off; for a protocol that is
not affine, it is a different second-order midpoint rule.

A protocol holds its Hamiltonians as a stored stack, or as a function that
makes the nodes of a node range, as the model builders give them; every
pass reads them a node block at a time (Protocol.block), so a protocol made
by a function is never held whole. They are float64 if real and complex128
if complex, and the dtype picks the solver. The spectral work of a real
protocol is real: the real-symmetric solver, real eigenvectors in every
levels record (gauge.NodeLevels), and real products in the level space, the
twirl and the step propagators. States and propagators are complex.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .gauge import (
    CLUSTER_TOL_REL,
    NodeLevels,
    cluster_spectra,
    default_cluster_tol_abs,
    join_levels,
    level_space,
    level_twirl,
)
from .linalg import (
    ValidationError,
    _dag,
    _divergence,
    _log_gibbs,
    _stored,
    _transposed,
    check_hermitian,
    gibbs_state,
    max_abs_entry,
    node_blocks,
    shannon_entropy,
    validate_density,
    validate_hermitian,
    von_neumann_entropy,
)

GRID_UNIFORMITY_TOL = 1e-12
THERMAL_START_TOL = 1e-8


class _Hamiltonians:
    """Protocol.hamiltonians. Set, it takes a stack (n, d, d), which the
    protocol stores, or a function that makes the stack (k, d, d) of the
    nodes of a slice of step 1; read, it gives the stored stack, or a copy of
    every node made by the function. The pass reads neither, only node
    ranges (Protocol.block)."""

    def __get__(self, p, owner=None):
        if p is None:
            raise AttributeError("hamiltonians")  # so that the field has no default
        return p.block(slice(None))

    def __set__(self, p, value):
        p.__dict__["_given"] = value


@dataclass(frozen=True)
class Protocol:
    """Uniform grid t_0 = 0 ... t_N = tau with one Hamiltonian per node,
    float64 if every node is real and complex128 if one is complex
    (linalg._stored). hamiltonians is a stack, which the protocol stores, or
    a function that makes the nodes of a slice, as the model builders give
    it; either way the nodes are checked a node block at a time when the
    protocol is made, and handed out by block(s)."""

    times: np.ndarray
    hamiltonians: np.ndarray = _Hamiltonians()  # a descriptor, not a default
    beta: float
    label: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValidationError("protocol needs at least two grid nodes")
        n, given = times.shape[0], self.__dict__.pop("_given")
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


@dataclass(frozen=True)
class EvolutionResult:
    """States, twirled states, cumulative propagators, and the levels record of every node."""

    states: np.ndarray
    twirled_states: np.ndarray
    propagators: np.ndarray
    structures: NodeLevels


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
    (_decompose), and one per midpoint Hamiltonian, which gives every step
    propagator (_steps), both from the block's window of Hamiltonians
    (_window). The dtype of the protocol picks the solver: a real protocol
    takes the real-symmetric one and keeps real bases, half the bytes of
    complex ones, and a complex protocol takes the complex one in every
    block. The real solver may pick another basis inside a
    degenerate level than the complex one. Each block is decomposed and
    then propagated (_Propagator.block), and written into the stacks returned, the node
    bases of the levels record among them. Those stacks are for library
    callers that read every node; stream_run folds the same blocks into the
    ledger, the tolerance and the connection check without storing them.
    """
    rho0 = _initial_state(p, rho0)
    run, c = _Propagator(rho0), -1j * p.dt
    levels = []
    props, states, twirled = (np.empty((p.n_nodes, p.dim, p.dim), complex) for _ in range(3))
    basis = np.empty((p.n_nodes, p.dim, p.dim), p.dtype)
    for s in node_blocks(p.n_nodes, p.dim):
        win = _window(p, s)
        lv = _decompose(win.nodes(s.start, s.stop), cluster_tol_abs, cluster_tol_rel)
        basis[s] = lv.basis
        levels.append(replace(lv, basis=basis[s]))  # so the block's eigenvectors go
        props[s], states[s], twirled[s] = run.block(s, levels[-1], _steps(win, s, c))[:3]
    return EvolutionResult(states, twirled, props, join_levels(levels, basis))


class _Window(NamedTuple):
    """Consecutive node Hamiltonians h, node `first` the first: h[j - first]
    is node j."""

    h: np.ndarray
    first: int

    def nodes(self, a: int, b: int) -> np.ndarray:
        """Nodes a .. b - 1, a view; b past the window's last node stops there."""
        return self.h[a - self.first : b - self.first]


def _window(p: Protocol, s: slice) -> _Window:
    """The Hamiltonians that a pass reads for node block s, made once
    (Protocol.block) and read as views by every consumer: the block, one node
    of halo on each side (the steps into it, _steps, and the neighbour
    traces, _PowerIntegrands), widened at each end to an even node, so the
    coarse grid's neighbours of the block's even nodes are in it too
    (_CoarseRun). Its first node is even."""
    a, b = s.start, s.stop
    first = max(a - 2 + a % 2, 0)
    return _Window(p.block(slice(first, b + 1 + b % 2)), first)


def _initial_state(p: Protocol, rho0: np.ndarray) -> np.ndarray:
    """rho0, validated as a state of the protocol's dimension, as complex: the
    evolved states are, and so every route reads one state of one dtype (a
    real rho0's entropy from the real solver could differ in the last bit)."""
    rho0 = validate_density(rho0).astype(complex, copy=False)
    if rho0.shape[0] != p.dim:
        raise ValidationError("initial state dimension does not match the protocol")
    return rho0


def _decompose(h: np.ndarray, cluster_tol_abs: float | None, cluster_tol_rel: float) -> NodeLevels:
    """The clustered levels of a node block (k, d, d) of Hamiltonians, from one
    stacked eigendecomposition, whose eigenvalues and eigenvectors the record
    keeps; the dtype picks the solver, so a real block has a real basis."""
    tol_abs = default_cluster_tol_abs(h) if cluster_tol_abs is None else cluster_tol_abs
    w, V = np.linalg.eigh(h)
    return cluster_spectra(w, V, tol_abs, cluster_tol_rel)


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

    def block(self, s: slice, lv: NodeLevels, steps: np.ndarray) -> tuple[np.ndarray, ...]:
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
        diag, pops = level_space(states, lv.basis, lv.mults, lv.bounds[:-1], first=a)
        self.u = props[-1].copy()
        return props, states, level_twirl(pops, lv.basis, lv.mults), diag, pops


def _steps(win: _Window, s: slice, c: complex) -> np.ndarray:
    """exp(c H_mid) for the steps into the nodes of the block s, steps
    max(s.start - 1, 0) .. s.stop - 2, from the block's window, one
    eigendecomposition per midpoint (the dtype of the nodes picks the
    solver), each midpoint checked and named by its step."""
    lo = max(s.start - 1, 0)
    h = win.nodes(lo, s.stop)
    mid = (h[:-1] + h[1:]) / 2.0
    check_hermitian(mid, "operator", lo)
    return _exponentials(*np.linalg.eigh(mid), c)


def _exponentials(w: np.ndarray, V: np.ndarray, c: complex) -> np.ndarray:
    """exp(c H) = V e^{c w} V^dag of each Hamiltonian from its eigenvalues w
    (k, d) and eigenvectors V (k, d, d); a real V takes two real products,
    one for each part of e^{c w}."""
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


@dataclass(frozen=True)
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
    each block's window of Hamiltonians (_window), then integrands(dt).

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
    for s in node_blocks(p.n_nodes, p.dim):
        fold.add(s, _window(p, s), ev.states[s], ev.twirled_states[s])
    return _series(fold.integrands(p.dt), p.dt)


@dataclass(frozen=True)
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
    (gauge.level_space): ledger takes it from the stored states, and
    stream_run keeps what its pass computes for the twirl; either runs the
    same column code (_entropy_columns) once on every node. Over each node's d
    eigenvalues, with the level-basis diagonal x, the twirled spectrum t (each
    level's p_k / n_k repeated n_k times) and the Gibbs spectrum q of the
    level energies (linalg._log_gibbs, from log-weights):

    - f_eq = -ln Z / beta; s_gt and s_d are the Shannon entropies of t and x;
    - s_gamma = KL(x || t) = s_gt - s_d and rel_ent = KL(t || q) =
      S(rho^E || gibbs(H)) are divergences, summed from terms clipped at 0
      (linalg._divergence), and rel_ent stays finite where q underflows;
    - bures = arccos(sum sqrt(t q)), the sum being the root fidelity of two
      commuting states, evaluated as 2 arcsin(||sqrt(t) - sqrt(q)|| / 2),
      which keeps its digits as the fidelity approaches 1;
    - s_vn is taken once, from states[0]: unitary evolution keeps the spectrum.

    gibbs_state, fidelity, bures_angle and relative_entropy remain the
    general (non-commuting) matrix routes, equal to these columns to
    round-off; gibbs_state keeps its own weights (see there).
    """
    lv = ev.structures
    diag, pops = level_space(ev.states, lv.basis, lv.mults, lv.bounds[:-1])
    rows = _entropy_columns(lv.mults, lv.spectra, diag, pops, p.beta)
    return _ledger(work_heat_series(p, ev), rows, von_neumann_entropy(ev.states[0]))


def _entropy_columns(
    mults: np.ndarray, spectra: np.ndarray, diag: np.ndarray, pops: np.ndarray, beta: float
) -> np.ndarray:
    """ledger's f_eq, s_gt, s_d, s_gamma, bures and rel_ent rows (6, k) of k nodes from the
    multiplicities of their levels laid end to end, their spectra (k, d) (NodeLevels.spectra),
    level-basis diagonal (k, d) and level populations (gauge.level_space), each a sum over
    the node's d eigenvalues of the spectra t and q that ledger describes; every operation
    is row by row, so a node's row does not depend on the other nodes given with it."""
    t = np.repeat(np.clip(pops, 0.0, None) / mults, mults).reshape(diag.shape)
    t /= t.sum(axis=1, keepdims=True)
    ln_q, ln_z = _log_gibbs(spectra, beta)
    x, q = np.clip(diag, 0.0, 1.0), np.exp(ln_q)
    hellinger = np.sum((np.sqrt(t) - np.sqrt(q)) ** 2, axis=1)
    bures = 2.0 * np.arcsin(np.minimum(np.sqrt(hellinger) / 2.0, 1.0))
    s_gamma, rel = _divergence(x, t), _divergence(t, q, ln_q)
    return np.array([-ln_z / beta, shannon_entropy(t), shannon_entropy(x), s_gamma, bures, rel])


def _ledger(series: WorkHeatSeries, rows: np.ndarray, s_vn: float) -> ThermoLedger:
    """ledger's columns from the work/heat series, the entropy rows of every
    node (_entropy_columns) and the state's von Neumann entropy."""
    f_eq, s_gt, s_d, s_gamma, bures, rel_ent = rows
    return ThermoLedger(
        w_u=series.w_u,
        w_inv=series.w_inv,
        q_c=series.q_c,
        q_u=series.q_u,
        q_inv=series.q_u + series.q_c,
        u=series.u,
        f_eq=f_eq,
        s_gt=s_gt,
        s_d=s_d,
        c_rel=s_d - s_vn,
        s_gamma=s_gamma,
        bures=bures,
        rel_ent=rel_ent,
    )


def integration_tolerance(
    p: Protocol, ev: EvolutionResult, tl: ThermoLedger | None = None
) -> float:
    """Declared quadrature tolerance for this protocol run.

    Propagates on the grid coarsened by a factor of two (every other node of
    the same data, no interpolation) and bounds the error by the worst
    cumulative-series difference at shared nodes. The coarse nodes are the
    fine nodes 0, 2, 4, ... with the same clustering tolerances, so they
    reuse the levels of ev and the fine Hamiltonians. Coarse step k,
    from fine node 2k to 2k + 2, is exp(-2i dt H_{2k+1}), taken at the middle
    fine node from the eigenvalues and basis that ev's levels record already
    holds, so the coarse run (_CoarseRun) makes no eigendecomposition and
    stores no coarse stack: it folds the even nodes of each fine node block
    into its neighbour traces. For the four models H is affine in t, so
    H_{2k+1} is the average of the end Hamiltonians H_2k and H_2k+2 to
    round-off, which a midpoint step of the coarse grid would take; for a
    protocol that is not affine it is a different second-order midpoint rule.
    The fine series is read from tl, this run's ledger, when given. The 1.5
    safety factor covers terms that converge only first order, e.g. a
    degeneracy jump sitting on a single grid node.
    """
    coarse = _CoarseRun(p, ev.states[0])
    fine = work_heat_series(p, ev) if tl is None else tl
    for s in node_blocks(p.n_nodes, p.dim):
        coarse.add(s, ev.structures[s], _window(p, s))
    return coarse.tolerance(fine)


class _CoarseRun:
    """The tolerance's run on the grid coarsened by two, whose nodes are the
    fine nodes 0, 2, 4, ... and their Hamiltonians, from rho0 (validated).
    add(s, lv, win) takes a fine node block s, in node order, with the
    levels record of its nodes and its window (_window), whose even nodes
    are the coarse grid's, and propagates the block's even nodes, the
    coarse nodes (s.start + 1) // 2 .. (s.stop + 1) // 2 - 1, into the coarse
    neighbour traces; a one-node block of an odd node has none. Coarse step
    k is taken at the middle fine node, exp(-2i dt H_{2k+1}), from the
    eigenvalues and basis of fine node 2k + 1 in lv, real or complex as the
    pass keeps them; for an affine H it is the coarse midpoint step to
    round-off (integration_tolerance). The step into a block's first even
    node may need the previous block's last node, which the run holds as a
    one-node halo. A grid of fewer than 5 nodes is refused when the run is
    made."""

    def __init__(self, p: Protocol, rho0: np.ndarray):
        if p.n_nodes < 5:
            raise ValueError("tolerance estimation needs at least 5 grid nodes")
        self.dt = float(p.times[2] - p.times[0])
        self.run, self.fold = _Propagator(rho0), _PowerIntegrands((p.n_nodes + 1) // 2)
        self.halo = None  # eigenvalues and basis of the last fine node given, if it is odd

    def add(self, s: slice, lv: NodeLevels, win: _Window) -> None:
        odd = (s.start + 1) % 2  # the block's first odd node, counted from s.start
        w, V = lv.eigenvalues[odd::2], lv.basis[odd::2]
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


@dataclass(frozen=True)
class ConnectionCheck:
    """Covariant-derivative route for invariant work/heat vs the twirl route,
    from D_t H = V Edot V^dag (connection_cross_check); not performed, with the
    first degenerate node named in reason, when any node is degenerate."""

    performed: bool
    reason: str
    w_cov: np.ndarray | None = None
    q_cov: np.ndarray | None = None
    w_deviation: np.ndarray | None = None
    q_deviation: np.ndarray | None = None


def _degenerate_check(degenerate: np.ndarray) -> ConnectionCheck | None:
    """The skipped check when a node is degenerate (degenerate[j] for node j):
    the frame derivative is not defined across a merged level."""
    if degenerate.any():
        j = int(np.argmax(degenerate))
        return ConnectionCheck(False, f"degenerate spectrum at node {j}; frame construction undefined")
    return None


class _LevelWork:
    """sum_a x_a edot_a per node from each node's level-basis diagonal x and
    eigenvalues e, edot as np.gradient takes it, folded a node block at a time:
    add(s, x[s], e[s]) for the blocks in node order, then check(...). As in
    _PowerIntegrands, the central difference moves onto the neighbour products
    x_j . e_{j+1} and x_{j+1} . e_j, so a block's halo is the row before it."""

    def __init__(self, n: int):
        self.same, self.fwd, self.bwd = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        self.halo = None  # the last x and e row given

    def add(self, s: slice, x: np.ndarray, e: np.ndarray) -> None:
        self.same[s] = np.einsum("ij,ij->i", x, e)
        if self.halo is not None:
            x, e = np.vstack([self.halo[0], x]), np.vstack([self.halo[1], e])
        lo = s.stop - len(x)  # the node of x[0]
        self.fwd[lo : s.stop - 1] = np.einsum("ij,ij->i", x[:-1], e[1:])
        self.bwd[lo : s.stop - 1] = np.einsum("ij,ij->i", x[1:], e[:-1])
        self.halo = x[-1:], e[-1:]

    def check(self, integrands: tuple[np.ndarray, ...], dt: float, tl: ThermoLedger) -> ConnectionCheck:
        """The check from the states' work and heat integrands (_PowerIntegrands)
        against the ledger: t = Re Tr(rho [A,H]) = sum x edot - Re Tr(rho Hdot)."""
        work, heat, _ = integrands
        t = _ends(self.fwd, self.bwd, self.same, dt) - work
        w_cov, q_cov = _cumtrap(work + t, dt), _cumtrap(heat - t, dt)
        w_dev, q_dev = np.abs(w_cov - tl.w_inv), np.abs(q_cov - tl.q_inv)
        return ConnectionCheck(True, "", w_cov, q_cov, w_dev, q_dev)


def connection_cross_check(
    p: Protocol, ev: EvolutionResult, tl: ThermoLedger | None = None
) -> ConnectionCheck:
    """Recompute W_inv and Q_inv from the frame connection and compare.

    The eigenframe V_t has the connection A = -Vdot V^dag (the sign that
    makes the covariant derivative annihilate every spectral projector), and
    D_t H = Hdot + [A,H] = V Edot V^dag, so Tr(rho D_t H) = sum_a x_a edot_a
    over the level-basis diagonal x and the eigenvalues e (Hellmann-Feynman).
    With t = Re Tr(rho [A,H]) = -Re Tr(H [A,rho]), the covariant work and heat
    integrands are those of work_heat_series plus and minus t. Skipped
    whenever any node is degenerate: the eigenframe is not defined across a
    merged level. The sums are folded a node block at a time (_LevelWork),
    as stream_run does in its pass.
    """
    skipped = _degenerate_check(ev.structures.degenerate)
    if skipped is not None:
        return skipped
    if tl is None:
        tl = ledger(p, ev)
    lv = ev.structures
    x, e = level_space(ev.states, lv.basis, lv.mults, lv.bounds[:-1])[0], lv.spectra
    fold, work = _PowerIntegrands(p.n_nodes), _LevelWork(p.n_nodes)
    for s in node_blocks(p.n_nodes, p.dim):
        fold.add(s, _window(p, s), ev.states[s])
        work.add(s, x[s], e[s])
    return work.check(fold.integrands(p.dt)[0], p.dt, tl)


@dataclass(frozen=True)
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

    The pass takes the node blocks (linalg.node_blocks) in order. It makes
    each block's window of Hamiltonians once (_window, Protocol.block),
    decomposes the block's nodes (evolve's _decompose) and feeds views of the
    window and the block's levels record to every consumer before letting
    them go: the fine run (_Propagator), folded into the neighbour traces of
    the work/heat series; the tolerance's run on the grid coarsened by two
    (_CoarseRun), whose nodes are the block's even nodes and whose steps are
    taken at its odd nodes, from their eigenvalues and basis
    (integration_tolerance); and the connection check (_LevelWork), which
    takes D_t H = V Edot V^dag from the block's level-basis diagonal and
    eigenvalues and holds one node of halo. The ledger's entropy rows are
    one _entropy_columns call after the pass, on the level-basis diagonal,
    level spectra and populations the pass keeps of every node. So the pass
    decomposes 2n - 1 matrices, the n nodes and the n - 1 fine midpoints,
    and the check is skipped when any node is degenerate. A run holds a few
    node blocks, and of every node its level-basis diagonal and spectrum
    (n, d), its level populations, ledger rows, connection sums and
    degenerate flag: not the Hamiltonians of every node when the protocol
    makes them (the model builders' protocols), nor the stacks of evolve or
    the levels of every node. The nodes kept are 0, n // 2 and n - 1; their
    bases are real when the protocol is, as in the pass. Faults are raised a
    block at a time in node order, and a protocol of fewer than 5 nodes is
    refused before the pass.
    """
    rho0 = _initial_state(p, rho0)
    n, d, dt = p.n_nodes, p.dim, p.dt
    coarse = _CoarseRun(p, rho0)
    nodes, kept = sorted({0, n // 2, n - 1}), []
    # every node's level-basis diagonal and spectrum as one allocation: glibc's malloc
    # serves a buffer this large by mmap, and once it is freed keeps the pass's block
    # temporaries on its heap, where two (n, d) arrays left the heap trimmed and the
    # next block refaulting it (about 10^5 page faults a Curie-Weiss run)
    degenerate, (diag, spectra) = np.empty(n, dtype=bool), np.empty((2, n, d))
    pops, mults = [], []
    run, fine, work = _Propagator(rho0), _PowerIntegrands(n), _LevelWork(n)
    for s in node_blocks(n, d):
        win = _window(p, s)
        lv = _decompose(win.nodes(s.start, s.stop), cluster_tol_abs, cluster_tol_rel)
        degenerate[s], spectra[s] = lv.degenerate, lv.spectra
        props, states, twirled, diag[s], block_pops = run.block(s, lv, _steps(win, s, -1j * dt))
        pops.append(block_pops)
        mults.append(lv.mults)
        fine.add(s, win, states, twirled)
        work.add(s, diag[s], spectra[s])
        here = [j - s.start for j in nodes if s.start <= j < s.stop]
        if here:  # copies, which let the block go
            kept.append((states[here], twirled[here], props[here], lv[here]))
        del props, states, twirled  # before the coarse run makes its own
        coarse.add(s, lv, win)
        del lv, win

    pops, mults = np.concatenate(pops), np.concatenate(mults)  # which lets the blocks' arrays go
    rows = _entropy_columns(mults, spectra, diag, pops, p.beta)
    integrands = fine.integrands(dt)
    tl = _ledger(_series(integrands, dt), rows, von_neumann_entropy(rho0))
    check = _degenerate_check(degenerate) or work.check(integrands[0], dt, tl)
    states, twirled, props, levels = zip(*kept)
    levels = join_levels(levels, np.concatenate([lv.basis for lv in levels]))
    ev = EvolutionResult(np.concatenate(states), np.concatenate(twirled), np.concatenate(props), levels)
    return StreamedRun(nodes, ev, degenerate, tl, coarse.tolerance(tl), check)


@dataclass(frozen=True)
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
    if dev > THERMAL_START_TOL:
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
