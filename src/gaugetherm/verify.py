"""Property-verification suites over seeded random cases.

Each suite takes (cases, seed), draws case i from default_rng(seed + i), and
returns one result dict per case with a boolean "pass" (_suite). The thresholds are
the library's contract: the fluctuation theorems, the Clausius slacks and
entropy balance (including the Bures-angle term of Deffner & Lutz, PRL 105,
170402), gauge invariance of every reported quantity, and the projector
twirl against its Haar Monte Carlo oracle. `gaugetherm verify` writes these
results to JSON; the acceptance tests run them at full size.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .dynamics import (
    EvolutionResult,
    Protocol,
    clausius_report,
    evolve,
    stream_run,
    work_heat_series,
)
from .fluctuation import FtReport, build_ensemble, verify_ft
from .gauge import (
    cluster_spectrum,
    default_cluster_tol_abs,
    level_space,
    level_twirl,
    sample_gauge_element,
    twirl,
    twirl_oracle,
)
from .invariants import (
    LevelDistribution,
    level_distribution,
    thermal_level_distribution,
)
from .linalg import eigh, gibbs_state, haar_unitary, validate_density
from .models import random_protocol


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(dim, rng)
    w = rng.random(dim) + 0.05
    w /= w.sum()
    rho = (v * w) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def _case_protocol(rng: np.random.Generator, index: int, *, max_dim: int, nodes: int) -> Protocol:
    dim = int(rng.integers(2, max_dim + 1))
    beta = float(0.5 + 1.5 * rng.random())
    degenerate = index % 3 == 0
    return random_protocol(dim, nodes, rng, degenerate=degenerate, beta=beta)


def gauge_conjugates(
    ev: EvolutionResult, nodes, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, float]:
    """Conjugate the state at each node by a Haar gauge element and twirl it.

    Elements are drawn from rng in node order. Returns the conjugated states,
    their twirls, and the largest entry deviation of those twirls from the
    stored twirled states, which gauge invariance says is round-off. The
    twirls are one pass of the level-space kernel over the conjugated stack,
    the rows twirl gives state by state.
    """
    conj = np.empty((len(nodes),) + ev.states.shape[1:], dtype=complex)
    for i, j in enumerate(nodes):
        v = sample_gauge_element(ev.structures[j], rng)
        conj[i] = v @ ev.states[j] @ v.conj().T
    lv = ev.structures[list(nodes)]
    validate_density(conj, check_psd=False)
    twirled = level_twirl(level_space(conj, lv)[1], lv)
    worst = float(np.max(np.abs(twirled - ev.twirled_states[list(nodes)])))
    return conj, twirled, worst


def thermal_ft(p: Protocol, ev: EvolutionResult) -> FtReport:
    """The fluctuation theorems between the two thermal endpoint references:
    forward, the populations of ev.states[0] in the levels of
    ev.structures[0]; reverse, the Gibbs weights of the levels of
    ev.structures[-1] at p.beta."""
    fwd = level_distribution(ev.states[0], ev.structures[0])
    rev = thermal_level_distribution(ev.structures[-1], p.beta)
    return verify_ft(build_ensemble(p, fwd, rev, ev))


def _suite(case):
    """The (cases, seed) runner of a per-case check: case(i, rng) takes case
    i's generator, default_rng(seed + i), and returns its row, to which the
    runner adds "case" and "seed"."""

    def run(cases: int, seed: int) -> list[dict]:
        return [
            {"case": i, "seed": seed + i, **case(i, np.random.default_rng(seed + i))}
            for i in range(cases)
        ]

    return run


@_suite
def suite_ft(i: int, rng: np.random.Generator) -> dict:
    p = _case_protocol(rng, i, max_dim=8, nodes=81)
    if i % 2 == 0:
        rho0, _ = gibbs_state(p.block(0), p.beta)
    else:
        rho0 = _random_density(p.dim, rng)
    ev = evolve(p, rho0)
    dst = ev.structures[-1]
    fwd = level_distribution(rho0, ev.structures[0])
    mode = i % 3
    if mode == 0:
        rev = level_distribution(ev.states[-1], dst)
    elif mode == 1:
        rev = thermal_level_distribution(dst, p.beta)
    else:
        raw = rng.random(dst.n_levels) + 0.1
        rev = LevelDistribution(
            probs=raw / raw.sum(), mults=dst.mults, energies=dst.energies
        )
    rep = verify_ft(build_ensemble(p, fwd, rev, ev))
    entropy_dev = abs(rep.mean_sigma - rep.mean_sigma_via_entropy)
    work_dev = (
        abs(rep.mean_sigma - rep.mean_sigma_via_work)
        if math.isfinite(rep.mean_sigma_via_work)
        else 0.0
    )
    ok = (
        abs(rep.ift_value - 1.0) <= 1e-9
        and rep.crooks_max_violation <= 1e-10
        and rep.mean_sigma >= -1e-10
        and rep.microreversibility_max <= 1e-10
        and entropy_dev <= 1e-8
        and work_dev <= 1e-8
    )
    return {
        "dim": p.dim,
        "reference": ("evolved", "thermal", "random")[mode],
        "ift_deviation": abs(rep.ift_value - 1.0),
        "crooks_max_violation": rep.crooks_max_violation,
        "mean_sigma": rep.mean_sigma,
        "microreversibility_max": rep.microreversibility_max,
        "mean_sigma_entropy_route_dev": entropy_dev,
        "mean_sigma_work_route_dev": work_dev,
        "pass": ok,
    }


@_suite
def suite_clausius(i: int, rng: np.random.Generator) -> dict:
    p = _case_protocol(rng, i, max_dim=6, nodes=301)
    rho0, _ = gibbs_state(p.block(0), p.beta)
    run = stream_run(p, rho0)
    tl, tol = run.tl, run.tol
    rep = clausius_report(p, run.ev, tl)
    worst = rep.worst_slacks()
    min_slack = min(worst.values())
    balance = float(np.max(np.abs(rep.balance_residual)))
    identity = float(np.max(np.abs(tl.w_u - tl.w_inv - tl.q_c)))
    bal_tol = max(1e-8, p.beta * tol)
    ok = min_slack >= -1e-6 and balance <= bal_tol and identity <= tol
    return {
        "dim": p.dim,
        "integration_tolerance": tol,
        "slack_deficit": max(0.0, -min_slack),
        "worst_slacks": worst,
        "balance_residual_max": balance,
        "identity_residual_max": identity,
        "pass": ok,
    }


@_suite
def suite_gauge(i: int, rng: np.random.Generator) -> dict:
    p = _case_protocol(rng, i, max_dim=6, nodes=61)
    rho0 = _random_density(p.dim, rng)
    ev = evolve(p, rho0)
    conj_states, conj_twirled, worst_twirl = gauge_conjugates(ev, range(p.n_nodes), rng)
    base = work_heat_series(p, ev)
    moved = work_heat_series(
        p, replace(ev, states=conj_states, twirled_states=conj_twirled)
    )
    w_inv_dev = float(np.max(np.abs(base.w_inv - moved.w_inv)))
    q_c_dev = float(np.max(np.abs(base.q_c - moved.q_c)))

    ds0, dst = ev.structures[0], ev.structures[-1]
    fwd = level_distribution(rho0, ds0)
    rev = level_distribution(ev.states[-1], dst)
    ens = build_ensemble(p, fwd, rev, ev)
    v0 = sample_gauge_element(ds0, rng)
    vt = sample_gauge_element(dst, rng)
    props = ev.propagators.copy()
    props[-1] = vt @ ev.propagators[-1] @ v0
    ens_conj = build_ensemble(p, fwd, rev, replace(ev, propagators=props))
    trans_dev = float(np.max(np.abs(ens.transition - ens_conj.transition)))
    joint_dev = float(np.max(np.abs(ens.joint_forward - ens_conj.joint_forward)))
    mask = ~np.isnan(ens.sigma)
    mask_conj = ~np.isnan(ens_conj.sigma)
    if np.array_equal(mask, mask_conj):
        sigma_dev = (
            float(np.max(np.abs(ens.sigma[mask] - ens_conj.sigma[mask])))
            if mask.any()
            else 0.0
        )
    else:
        sigma_dev = math.inf
    rep = verify_ft(ens)
    rep_conj = verify_ft(ens_conj)
    ift_dev = abs(rep.ift_value - rep_conj.ift_value)
    msig_dev = abs(rep.mean_sigma - rep_conj.mean_sigma)

    ok = (
        worst_twirl <= 1e-9
        and w_inv_dev <= 1e-9
        and q_c_dev <= 1e-9
        and trans_dev <= 1e-10
        and joint_dev <= 1e-10
        and sigma_dev <= 1e-10
        and ift_dev <= 1e-9
        and msig_dev <= 1e-9
    )
    return {
        "dim": p.dim,
        "max_twirl_deviation": worst_twirl,
        "w_inv_deviation": w_inv_dev,
        "q_c_deviation": q_c_dev,
        "transition_deviation": trans_dev,
        "joint_deviation": joint_dev,
        "sigma_deviation": sigma_dev,
        "ift_deviation": ift_dev,
        "mean_sigma_deviation": msig_dev,
        "pass": ok,
    }


@_suite
def suite_twirl_oracle(i: int, rng: np.random.Generator) -> dict:
    samples = 20000
    bound = 3.0 / math.sqrt(samples) + 1e-3
    dim = int(rng.integers(2, 7))
    w = np.sort(rng.normal(size=dim))
    if i % 2 == 0:
        w[1] = w[0]
        if dim >= 4:
            w[3] = w[2]
    v = haar_unitary(dim, rng)
    h = (v * w) @ v.conj().T
    h = (h + h.conj().T) / 2.0
    ds = cluster_spectrum(eigh(h), default_cluster_tol_abs(h))
    rho = _random_density(dim, rng)
    exact = twirl(rho, ds)
    mc = twirl_oracle(rho, ds, samples, rng)
    dev = float(np.max(np.abs(mc - exact)))
    return {
        "dim": dim,
        "samples": samples,
        "max_deviation": dev,
        "bound": bound,
        "pass": dev < bound,
    }


# suite name -> runner; the keys are the names `gaugetherm verify --suite` accepts
SUITES = {
    "ft": suite_ft,
    "clausius": suite_clausius,
    "gauge": suite_gauge,
    "twirl-oracle": suite_twirl_oracle,
}
