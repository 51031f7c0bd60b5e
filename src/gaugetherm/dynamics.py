"""Driving protocols, unitary propagation, work/heat quadrature, and the
Clausius-inequality reports.

A protocol is a uniform time grid with a Hamiltonian at every node. Evolution
uses the midpoint propagator exp(-i H((t_j+t_{j+1})/2) dt) per step; all
work and heat functionals are trapezoid quadratures of trace integrands with
grid derivatives taken by central differences. Both pieces are second order,
so the declared integration tolerance scales as C dt^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment

from .gauge import (
    CLUSTER_TOL_REL,
    DegeneracyStructure,
    cluster_spectrum,
    default_cluster_tol_abs,
    twirl,
)
from .invariants import entropy_report
from .linalg import (
    ValidationError,
    bures_angle,
    eigh,
    expm_hermitian_scaled,
    gibbs_state,
    relative_entropy,
    validate_density,
    validate_hermitian,
)

GRID_UNIFORMITY_TOL = 1e-12
THERMAL_START_TOL = 1e-8


@dataclass(frozen=True)
class Protocol:
    """Uniform grid t_0 = 0 ... t_N = tau with one Hamiltonian per node."""

    times: np.ndarray
    hamiltonians: np.ndarray
    beta: float
    label: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        hams = np.asarray(self.hamiltonians, dtype=complex)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "hamiltonians", hams)
        if times.ndim != 1 or times.shape[0] < 2:
            raise ValidationError("protocol needs at least two grid nodes")
        if hams.ndim != 3 or hams.shape[0] != times.shape[0] or hams.shape[1] != hams.shape[2]:
            raise ValidationError("hamiltonians must be one square matrix per node")
        steps = np.diff(times)
        dt = float(steps[0])
        scale = max(abs(float(times[-1])), dt)
        if dt <= 0 or np.max(np.abs(steps - dt)) > GRID_UNIFORMITY_TOL * scale:
            raise ValidationError("time grid must be uniform and increasing")
        if abs(float(times[0])) > GRID_UNIFORMITY_TOL * scale:
            raise ValidationError("time grid must start at 0")
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValidationError(f"beta must be positive and finite, got {self.beta}")
        for j in range(hams.shape[0]):
            validate_hermitian(hams[j], f"hamiltonian at node {j}")

    @property
    def n_nodes(self) -> int:
        return self.times.shape[0]

    @property
    def dim(self) -> int:
        return self.hamiltonians.shape[1]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def tau(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class EvolutionResult:
    """States, twirled states, cumulative propagators, and the per-node level structure."""

    states: np.ndarray
    twirled_states: np.ndarray
    propagators: np.ndarray
    structures: list[DegeneracyStructure]
    cluster_tol_abs: float | None
    cluster_tol_rel: float


def evolve(
    p: Protocol,
    rho0: np.ndarray,
    *,
    cluster_tol_abs: float | None = None,
    cluster_tol_rel: float = CLUSTER_TOL_REL,
) -> EvolutionResult:
    """Propagate rho0 through the protocol and twirl at every node.

    Cumulative propagators compose on the left: U_{j+1} = U_step U_j, so
    propagators[j] maps t=0 data to t_j. Degeneracy structures are recomputed
    independently per node; levels are never tracked through crossings.
    """
    rho0 = validate_density(rho0)
    if rho0.shape[0] != p.dim:
        raise ValidationError("initial state dimension does not match the protocol")
    n, d, dt = p.n_nodes, p.dim, p.dt
    states = np.empty((n, d, d), dtype=complex)
    twirled = np.empty_like(states)
    props = np.empty_like(states)
    states[0] = rho0
    props[0] = np.eye(d)
    U = np.eye(d, dtype=complex)
    for j in range(n - 1):
        h_mid = (p.hamiltonians[j] + p.hamiltonians[j + 1]) / 2.0
        U = expm_hermitian_scaled(h_mid, -1j * dt) @ U
        props[j + 1] = U
        states[j + 1] = U @ rho0 @ U.conj().T
    structures: list[DegeneracyStructure] = []
    for j in range(n):
        H = p.hamiltonians[j]
        tol_abs = cluster_tol_abs if cluster_tol_abs is not None else default_cluster_tol_abs(H)
        ds = cluster_spectrum(eigh(H), tol_abs, cluster_tol_rel)
        structures.append(ds)
        twirled[j] = twirl(states[j], ds)
    return EvolutionResult(
        states=states,
        twirled_states=twirled,
        propagators=props,
        structures=structures,
        cluster_tol_abs=cluster_tol_abs,
        cluster_tol_rel=cluster_tol_rel,
    )


def _central_diff(series: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (series[1] - series[0]) / dt
    out[-1] = (series[-1] - series[-2]) / dt
    return out


def _trace_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a_j b_j) per node."""
    return np.real(np.einsum("nij,nji->n", a, b))


def _cumtrap(y: np.ndarray, dt: float) -> np.ndarray:
    return cumulative_trapezoid(y, dx=dt, initial=0.0)


@dataclass(frozen=True)
class WorkHeatSeries:
    w_u: np.ndarray
    w_inv: np.ndarray
    q_c: np.ndarray
    q_u: np.ndarray
    u: np.ndarray


def work_heat_series(p: Protocol, ev: EvolutionResult) -> WorkHeatSeries:
    dt = p.dt
    h_dot = _central_diff(p.hamiltonians, dt)
    rho_dot = _central_diff(ev.states, dt)
    tw_dot = _central_diff(ev.twirled_states, dt)
    return WorkHeatSeries(
        w_u=_cumtrap(_trace_pairs(ev.states, h_dot), dt),
        w_inv=_cumtrap(_trace_pairs(ev.twirled_states, h_dot), dt),
        q_c=_cumtrap(_trace_pairs(tw_dot, p.hamiltonians), dt),
        q_u=_cumtrap(_trace_pairs(rho_dot, p.hamiltonians), dt),
        u=_trace_pairs(ev.states, p.hamiltonians),
    )


@dataclass(frozen=True)
class ThermoLedger:
    """Per-node cumulative thermodynamic series for one protocol run.

    Work/heat/energy columns are in energy units, entropies in nats, bures in
    radians. rel_ent is S(rho^E_j || gibbs(H_j)) and may be math.inf if a
    support violation is ever encountered.
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
    """Integrate all work/heat functionals and evaluate the entropy columns."""
    series = work_heat_series(p, ev)
    n = p.n_nodes
    f_eq = np.empty(n)
    s_gt = np.empty(n)
    s_d = np.empty(n)
    c_rel = np.empty(n)
    s_gamma = np.empty(n)
    bures = np.empty(n)
    rel = np.empty(n)
    beta = p.beta
    for j in range(n):
        sigma, ln_z = gibbs_state(p.hamiltonians[j], beta)
        f_eq[j] = -ln_z / beta
        rep = entropy_report(ev.states[j], ev.structures[j])
        s_gt[j] = rep.s_gt
        s_d[j] = rep.s_d
        c_rel[j] = rep.c_rel
        s_gamma[j] = rep.s_gamma
        bures[j] = bures_angle(ev.twirled_states[j], sigma)
        rel[j] = relative_entropy(ev.twirled_states[j], sigma)
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
        c_rel=c_rel,
        s_gamma=s_gamma,
        bures=bures,
        rel_ent=rel,
    )


def integration_tolerance(p: Protocol, ev: EvolutionResult) -> float:
    """Declared quadrature tolerance for this protocol run.

    Re-runs the pipeline on the grid coarsened by a factor of two (every
    other node of the same data, no interpolation) and bounds the error by
    the worst cumulative-series difference at shared nodes. The 1.5 safety
    factor covers terms that converge only first order, e.g. a degeneracy
    jump sitting on a single grid node.
    """
    if p.n_nodes < 5:
        raise ValueError("tolerance estimation needs at least 5 grid nodes")
    idx = np.arange(0, p.n_nodes, 2)
    coarse = Protocol(
        times=p.times[idx],
        hamiltonians=p.hamiltonians[idx],
        beta=p.beta,
        label=p.label,
    )
    cev = evolve(
        coarse,
        ev.states[0],
        cluster_tol_abs=ev.cluster_tol_abs,
        cluster_tol_rel=ev.cluster_tol_rel,
    )
    fine = work_heat_series(p, ev)
    crs = work_heat_series(coarse, cev)
    worst = 0.0
    for name in ("w_u", "w_inv", "q_c", "q_u"):
        f = getattr(fine, name)[idx]
        c = getattr(crs, name)
        worst = max(worst, float(np.max(np.abs(f - c))))
    return 1.5 * worst + 1e-12


@dataclass(frozen=True)
class ConnectionCheck:
    """Covariant-derivative route for invariant work/heat vs the twirl route."""

    performed: bool
    reason: str
    w_cov: np.ndarray | None = None
    q_cov: np.ndarray | None = None
    w_deviation: np.ndarray | None = None
    q_deviation: np.ndarray | None = None


def aligned_frames(bases: list[np.ndarray]) -> np.ndarray:
    """Continuity-align a sequence of eigenvector matrices.

    Columns at each node are matched to the previous node by maximal overlap
    and rotated so the matched overlap is real positive. The output is a
    smooth frame regardless of the per-node phase and ordering freedom of the
    eigensolver.
    """
    n = len(bases)
    d = bases[0].shape[0]
    out = np.empty((n, d, d), dtype=complex)
    out[0] = bases[0]
    for j in range(1, n):
        overlap = out[j - 1].conj().T @ bases[j]
        rows, cols = linear_sum_assignment(-np.abs(overlap))
        perm = np.empty(d, dtype=int)
        perm[rows] = cols
        w = bases[j][:, perm]
        ov = np.array([overlap[i, perm[i]] for i in range(d)])
        phases = np.where(np.abs(ov) > 0, ov / np.maximum(np.abs(ov), 1e-300), 1.0)
        out[j] = w * phases.conj()
    return out


def connection_cross_check(
    p: Protocol, ev: EvolutionResult, tl: ThermoLedger | None = None
) -> ConnectionCheck:
    """Recompute W_inv and Q_inv from the frame connection and compare.

    Builds the aligned eigenframe V_t, the connection A = -Vdot V^dag (the
    sign that makes the covariant derivative annihilate every spectral
    projector), and integrates Tr(rho (Hdot + [A,H])) and
    Tr(H (rhodot + [A,rho])). Skipped whenever any node is degenerate: the
    frame derivative is not defined across a merged level.
    """
    for j, ds in enumerate(ev.structures):
        if ds.degenerate:
            return ConnectionCheck(
                performed=False,
                reason=f"degenerate spectrum at node {j}; frame construction undefined",
            )
    if tl is None:
        tl = ledger(p, ev)
    dt = p.dt
    frames = aligned_frames([ds.basis for ds in ev.structures])
    v_dot = _central_diff(frames, dt)
    conn = -np.einsum("nij,nkj->nik", v_dot, frames.conj())
    h_dot = _central_diff(p.hamiltonians, dt)
    rho_dot = _central_diff(ev.states, dt)
    comm_h = np.einsum("nij,njk->nik", conn, p.hamiltonians) - np.einsum(
        "nij,njk->nik", p.hamiltonians, conn
    )
    comm_rho = np.einsum("nij,njk->nik", conn, ev.states) - np.einsum(
        "nij,njk->nik", ev.states, conn
    )
    w_cov = _cumtrap(_trace_pairs(ev.states, h_dot + comm_h), dt)
    q_cov = _cumtrap(_trace_pairs(rho_dot + comm_rho, p.hamiltonians), dt)
    return ConnectionCheck(
        performed=True,
        reason="",
        w_cov=w_cov,
        q_cov=q_cov,
        w_deviation=np.abs(w_cov - tl.w_inv),
        q_deviation=np.abs(q_cov - tl.q_inv),
    )


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


def clausius_report(p: Protocol, ev: EvolutionResult, tl: ThermoLedger) -> ClausiusReport:
    """Evaluate all four work bounds along a thermal-start protocol."""
    sigma0, _ = gibbs_state(p.hamiltonians[0], p.beta)
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
    slack_split = tl.w_u - (d_f + (tl.c_rel + tl.s_gamma) / beta)
    slack_geometric = slack_split - (8.0 / (np.pi**2 * beta)) * tl.bures**2
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
