"""Acceptance gate: every headline property of the library, one line each.

Run with -s to see the PASS/FAIL lines; each test prints exactly one.
Thresholds are fixed here on purpose; loosening them is a behavior change,
not a test fix.
"""
import math
import time

import numpy as np
import pytest

import gaugetherm as gt
from gaugetherm.verify import (
    suite_clausius as _suite_clausius,
    suite_ft as _suite_ft,
    suite_gauge as _suite_gauge,
    suite_twirl_oracle as _suite_twirl_oracle,
)

from test_linalg import random_density


def _criterion(label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"{label}{tail}"


def thermal_ensemble(run):
    fwd = gt.level_distribution(run.rho0, run.ev.structures[0])
    rev = gt.thermal_level_distribution(run.ev.structures[-1], run.p.beta)
    return gt.build_ensemble(run.p, fwd, rev, run.ev)


@pytest.fixture(scope="module")
def ft_corpus():
    return _suite_ft(100, 1)


@pytest.fixture(scope="module")
def clausius_corpus():
    start = time.monotonic()
    results = _suite_clausius(100, 7)
    return results, time.monotonic() - start


@pytest.fixture(scope="module")
def experiment_ensembles(lz_run, cw_run):
    return {
        "lz": (lz_run, thermal_ensemble(lz_run)),
        "cw": (cw_run, thermal_ensemble(cw_run)),
    }


def test_integral_fluctuation_theorem(ft_corpus, experiment_ensembles):
    worst = max(r["ift_deviation"] for r in ft_corpus)
    for _, ens in experiment_ensembles.values():
        worst = max(worst, abs(gt.verify_ft(ens).ift_value - 1.0))
    _criterion(
        "integral fluctuation theorem, 100 fuzz cases + both experiments",
        worst <= 1e-9,
        f"worst |<exp(-sigma)> - 1| = {worst:.3e}",
    )


def test_detailed_fluctuation_relation(ft_corpus, experiment_ensembles):
    worst = max(r["crooks_max_violation"] for r in ft_corpus)
    for _, ens in experiment_ensembles.values():
        worst = max(worst, gt.verify_ft(ens).crooks_max_violation)
    _criterion(
        "detailed relation p_F exp(-sigma) = p_R on every outcome",
        worst < 1e-10,
        f"worst violation = {worst:.3e}",
    )


def test_entropy_production_route_consistency(experiment_ensembles):
    worst = 0.0
    for run, ens in experiment_ensembles.values():
        rep = gt.verify_ft(ens)
        bound = max(1e-8, run.tol)
        for via in (rep.mean_sigma_via_work, rep.mean_sigma_via_entropy):
            dev = abs(rep.mean_sigma - via)
            worst = max(worst, dev)
            assert dev <= bound
    rng = np.random.default_rng(21)
    for i in range(20):
        dim = int(rng.integers(2, 7))
        p = gt.random_protocol(dim, 81, rng, degenerate=(i % 3 == 0), beta=1.0)
        rho0, _ = gt.gibbs_state(p.block(0), p.beta)
        ev = gt.evolve(p, rho0)
        tol = gt.integration_tolerance(p, ev)
        fwd = gt.level_distribution(rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        rep = gt.verify_ft(gt.build_ensemble(p, fwd, rev, ev))
        bound = max(1e-8, tol)
        for via in (rep.mean_sigma_via_work, rep.mean_sigma_via_entropy):
            dev = abs(rep.mean_sigma - via)
            worst = max(worst, dev)
            assert dev <= bound
    _criterion(
        "three mean entropy-production routes agree on thermal starts",
        True,
        f"worst route deviation = {worst:.3e}",
    )


def test_clausius_slacks_experiment_runs(lz_run, cw_run):
    worst = math.inf
    for run in (lz_run, cw_run):
        rep = gt.clausius_report(run.p, run.ev, run.tl)
        assert rep.applicable
        worst = min(worst, min(rep.worst_slacks().values()))
    _criterion(
        "all four work bounds hold at every node of both experiments",
        worst >= -1e-6,
        f"most negative slack = {worst:.3e}",
    )


def test_clausius_slacks_random_corpus(clausius_corpus):
    results, elapsed = clausius_corpus
    deficit = max(r["slack_deficit"] for r in results)
    ok = all(r["pass"] for r in results) and deficit <= 1e-6 and elapsed < 60.0
    _criterion(
        "work bounds over 100 random thermal-start protocols, under a minute",
        ok,
        f"worst deficit = {deficit:.3e}, elapsed = {elapsed:.1f}s",
    )


def test_entropy_balance_equality(lz_run, cw_run, clausius_corpus):
    worst_ratio = 0.0
    for run in (lz_run, cw_run):
        rep = gt.clausius_report(run.p, run.ev, run.tl)
        residual = float(np.max(np.abs(rep.balance_residual)))
        bound = max(1e-8, run.p.beta * run.tol)
        worst_ratio = max(worst_ratio, residual / bound)
    results, _ = clausius_corpus
    ok = worst_ratio <= 1.0 and all(r["pass"] for r in results)
    _criterion(
        "work-free-energy gap equals entropy change plus relative entropy",
        ok,
        f"worst residual/bound = {worst_ratio:.3e}",
    )


def test_avoided_crossing_coherence(lz_run):
    tl = lz_run.tl
    gamma_max = float(np.max(np.abs(tl.s_gamma)))
    c_rel_final = float(tl.c_rel[-1])
    rel_ent_final = float(tl.rel_ent[-1])
    share = c_rel_final / (c_rel_final + rel_ent_final)
    frozen = {
        "w_u": -0.034870864225192387,
        "w_inv": -0.10883155572674347,
        "q_c": 0.073960691501548229,
        "c_rel": 0.1179644846299767,
        "rel_ent": 0.041569978886768028,
        "s_gt": 0.20805925239615225,
    }
    snap_dev = max(
        abs(float(getattr(tl, k)[-1]) - v) for k, v in frozen.items()
    )
    ok = (
        gamma_max < 1e-10
        and c_rel_final > 1e-3
        and share > 0.5
        and snap_dev < 1e-9
    )
    _criterion(
        "avoided-crossing sweep: coherence carries the dissipation",
        ok,
        f"s_gamma_max = {gamma_max:.1e}, coherence share = {share:.3f}, "
        f"snapshot dev = {snap_dev:.1e}",
    )


def test_field_ramp_degeneracy_entropy(cw_run):
    tl = cw_run.tl
    n = len(cw_run.p.times)
    degenerate = set(np.flatnonzero(cw_run.degenerate).tolist())
    # pairs m1 + m2 = -k cross at field 0.02k, which lands exactly on every
    # 20th grid node of the 2→0 ramp; the zero-field endpoint merges all +-m
    expected = {n - 1 - 20 * k for k in range(1, 50)} | {n - 1}
    c_rel_max = float(np.max(np.abs(tl.c_rel)))
    plain = [j for j in range(n) if j not in degenerate]
    gamma_plain = float(np.max(np.abs(tl.s_gamma[plain])))
    gamma_transient = float(np.max(tl.s_gamma[:-1]))
    final = float(tl.s_gamma[-1])
    frozen = {"w_u": 49.994824592828323, "q_c": 0.012562093999724123}
    snap_dev = max(abs(float(getattr(tl, k)[-1]) - v) for k, v in frozen.items())
    ok = (
        degenerate == expected
        and c_rel_max < 1e-10
        and gamma_plain < 1e-8
        and abs(final - math.log(2)) < 1e-9
        and final > 0.1
        and gamma_transient < 5e-3
        and snap_dev < 1e-9
    )
    _criterion(
        "field ramp to zero: no coherence, ln 2 degeneracy entropy appears",
        ok,
        f"c_rel_max = {c_rel_max:.1e}, s_gamma(tau) = {final:.12f}, "
        f"off-crossing s_gamma = {gamma_plain:.1e}",
    )


def test_third_law_saturation():
    cases = (
        (np.diag([0.0, 1.0]), 1),
        (np.diag([0.0, 0.0, 1.0]), 2),
        (gt.curie_weiss(1.0, 4, 0.0), 2),
    )
    worst = 0.0
    for h, n0 in cases:
        probe = gt.third_law_scan(h, np.array([1.0]))
        beta_star = 1e6 / probe.gap
        scan = gt.third_law_scan(h, np.array([1.0, beta_star]))
        assert scan.ground_multiplicity == n0
        worst = max(worst, abs(float(scan.s_gt[-1]) - math.log(n0)))
    _criterion(
        "invariant entropy saturates at ln(ground multiplicity) as T -> 0",
        worst < 1e-4,
        f"worst |s_gt - ln n0| = {worst:.3e}",
    )


def test_gauge_invariance():
    results = _suite_gauge(100, 3)
    worst = max(
        max(
            r[k]
            for k in (
                "max_twirl_deviation",
                "w_inv_deviation",
                "q_c_deviation",
                "transition_deviation",
                "joint_deviation",
                "sigma_deviation",
                "ift_deviation",
                "mean_sigma_deviation",
            )
        )
        for r in results
    )
    ok = all(r["pass"] for r in results) and worst <= 1e-9
    _criterion(
        "entropy, work, heat, and all TPM statistics are gauge invariant",
        ok,
        f"worst deviation over 100 conjugations = {worst:.3e}",
    )


def test_twirl_monte_carlo_oracle():
    results = _suite_twirl_oracle(4, 5)
    worst = max(r["max_deviation"] for r in results)
    bound = min(r["bound"] for r in results)
    ok = all(r["pass"] for r in results)
    _criterion(
        "Haar-averaged twirl matches the projector formula",
        ok,
        f"worst Monte Carlo deviation = {worst:.3e} < {bound:.3e}",
    )


def test_connection_route_matches_ledger(lz_run):
    cc = gt.connection_cross_check(lz_run.p, lz_run.ev)
    assert cc.performed, cc.reason
    w_dev = float(np.max(cc.w_deviation))
    q_dev = float(np.max(cc.q_deviation))
    bound = 10.0 * lz_run.tol
    ok = w_dev <= bound and q_dev <= bound
    _criterion(
        "covariant-derivative work and heat match the twirl ledger",
        ok,
        f"w dev = {w_dev:.3e}, q dev = {q_dev:.3e}, bound = {bound:.3e}",
    )


def test_relative_entropy_bures_bound():
    rng = np.random.default_rng(13)
    worst = math.inf
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        a = random_density(dim, rng)
        b = random_density(dim, rng)
        slack = gt.relative_entropy(a, b) - (8.0 / math.pi**2) * gt.bures_angle(a, b) ** 2
        worst = min(worst, slack)
    _criterion(
        "relative entropy dominates the squared Bures angle",
        worst >= -1e-10,
        f"smallest slack over 500 pairs = {worst:.3e}",
    )
