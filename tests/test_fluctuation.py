"""Two-point-measurement ensembles and fluctuation-theorem checks."""
import dataclasses
import math

import numpy as np
import pytest

import gaugetherm as gt
from gaugetherm.fluctuation import ORPHAN_MASS_TOL
from gaugetherm.invariants import LevelDistribution
from gaugetherm.linalg import PROB_FLOOR

from test_dynamics import ramp_protocol
from test_linalg import random_density


def thermal_ends(p):
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    ev = gt.evolve(p, rho0)
    fwd = gt.level_distribution(rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    return rho0, ev, fwd, rev


def test_identity_evolution_trivial():
    h = np.diag([0.0, 1.0]).astype(complex)
    p = ramp_protocol(h, h, nodes=21, beta=1.0)
    _, ev, fwd, rev = thermal_ends(p)
    ens = gt.build_ensemble(p, fwd, fwd, ev)
    # constant diagonal H: level index is conserved, sigma vanishes on it
    assert np.allclose(ens.transition, np.eye(2), atol=1e-12)
    assert ens.sigma[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert ens.sigma[1, 1] == pytest.approx(0.0, abs=1e-12)
    rep = gt.verify_ft(ens)
    assert rep.mean_sigma == pytest.approx(0.0, abs=1e-12)
    assert rep.ift_value == pytest.approx(1.0, abs=1e-12)


def test_two_level_thermal_sigma_is_work_minus_free_energy():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    th = 0.7  # rotate the final basis so every (k, l) cell is populated
    r = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    h1 = r @ np.diag([0.0, 2.0]) @ r.T + 0j
    beta = 1.3
    p = ramp_protocol(h0, h1, nodes=201, beta=beta)
    _, ev, fwd, rev = thermal_ends(p)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    ds0, dst = ens.structure_0, ens.structure_tau
    _, ln_z0 = gt.gibbs_state(h0, beta)
    _, ln_zt = gt.gibbs_state(h1, beta)
    d_f = (ln_z0 - ln_zt) / beta
    for k in range(2):
        for l in range(2):
            expect = beta * (dst.energies[l] - ds0.energies[k]) - beta * d_f
            assert ens.sigma[k, l] == pytest.approx(expect, abs=1e-10)


def test_level_splitting_multiplicity_term():
    # a doubly degenerate level at t=0 splits under the ramp; starting
    # uniform on it, sigma carries ln(1/2) from the multiplicity ratio on
    # top of the probability log-ratio
    h0 = np.zeros((2, 2), dtype=complex)
    h1 = np.diag([0.0, 4.0]).astype(complex)
    p = ramp_protocol(h0, h1, nodes=201, beta=1.0)
    rho0 = np.eye(2, dtype=complex) / 2
    ev = gt.evolve(p, rho0)
    assert tuple(ev.structures[0].mults) == (2,)
    fwd = gt.level_distribution(rho0, ev.structures[0])
    rev = LevelDistribution(
        probs=np.array([2.0 / 3.0, 1.0 / 3.0]),
        mults=ev.structures[-1].mults,
        energies=ev.structures[-1].energies,
    )
    ens = gt.build_ensemble(p, fwd, rev, ev)
    # diagonal dynamics: the uniform start feeds each final level equally
    assert np.allclose(ens.transition, [[0.5, 0.5]], atol=1e-12)
    assert ens.sigma[0, 0] == pytest.approx(math.log(3.0 / 4.0), abs=1e-12)
    assert ens.sigma[0, 1] == pytest.approx(math.log(3.0 / 2.0), abs=1e-12)
    rep = gt.verify_ft(ens)
    assert rep.ift_value == pytest.approx(1.0, abs=1e-12)
    assert rep.mean_sigma == pytest.approx(0.5 * math.log(9.0 / 8.0), abs=1e-10)
    assert rep.mean_sigma == pytest.approx(rep.mean_sigma_via_entropy, abs=1e-9)


def test_microreversibility_random_protocol():
    rng = np.random.default_rng(31)
    p = gt.random_protocol(5, 81, rng, degenerate=True, beta=1.0)
    _, ev, fwd, rev = thermal_ends(p)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    n0 = np.asarray(ens.structure_0.mults, dtype=float)
    nt = np.asarray(ens.structure_tau.mults, dtype=float)
    dev = np.max(
        np.abs(ens.transition * n0[:, None] - ens.reverse_transition.T * nt[None, :])
    )
    assert dev < 1e-10


def test_divergent_outcome_is_hard_error():
    # forward weight on level 1 but reverse reference exactly zero there
    h = np.diag([0.0, 1.0]).astype(complex)
    p = ramp_protocol(h, h, nodes=21, beta=1.0)
    _, ev, fwd, _ = thermal_ends(p)
    rev = LevelDistribution(
        probs=np.array([1.0, 0.0]),
        mults=ev.structures[-1].mults,
        energies=ev.structures[-1].energies,
    )
    with pytest.raises(gt.AbsoluteContinuityError):
        gt.build_ensemble(p, fwd, rev, ev)


def test_stranded_reverse_mass_is_hard_error():
    # forward start concentrated on one level, reverse reference spread over
    # both: under diagonal dynamics half the reverse weight lands on an
    # outcome whose forward probability is exactly zero
    h = np.diag([0.0, 1.0]).astype(complex)
    p = ramp_protocol(h, h, nodes=21, beta=1.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    ev = gt.evolve(p, rho0)
    fwd = LevelDistribution(
        probs=np.array([1.0, 0.0]),
        mults=ev.structures[0].mults,
        energies=ev.structures[0].energies,
    )
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    with pytest.raises(gt.AbsoluteContinuityError) as err:
        gt.build_ensemble(p, fwd, rev, ev)
    assert "stranded" in str(err.value)
    assert ORPHAN_MASS_TOL < 1e-9


def test_deep_tail_forward_support_is_not_an_error(cw_run):
    # levels merging at the end of the ramp send half of each reverse level
    # back to a branch the forward thermal state populates at ~e^{-190}:
    # far below the floor yet strictly positive, so the enumeration must
    # include it rather than raise
    p, ev = cw_run.p, cw_run.ev
    fwd = gt.level_distribution(cw_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    rep = gt.verify_ft(ens)
    assert abs(rep.ift_value - 1.0) < 1e-9
    assert rep.crooks_max_violation < 1e-10
    assert rep.mean_sigma == pytest.approx(rep.mean_sigma_via_work, abs=1e-8)
    assert rep.mean_sigma == pytest.approx(rep.mean_sigma_via_entropy, abs=1e-8)


def test_via_entropy_routes(lz_run):
    p, ev = lz_run.p, lz_run.ev
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    evolved = gt.level_distribution(ev.states[-1], ev.structures[-1])
    ens = gt.build_ensemble(p, fwd, evolved, ev)
    rep = gt.verify_ft(ens)
    # with the evolved marginal as reference the relative-entropy term is
    # zero and both entropy readings coincide
    assert rep.mean_sigma_via_entropy == pytest.approx(
        rep.mean_sigma_via_endpoints, abs=1e-10
    )
    assert rep.mean_sigma == pytest.approx(rep.mean_sigma_via_entropy, abs=1e-9)
    assert math.isnan(rep.mean_sigma_via_work)  # evolved reference is not thermal


def test_via_entropy_finite_on_reference_weights_below_the_floor():
    """A diagonal ramp of the gap from 1 to 40 at beta = 1 keeps the start's
    populations, and the end's thermal weight of the upper level, 4.2e-18,
    is below PROB_FLOOR: the relative-entropy route still agrees with
    mean_sigma (it read inf when the reference was cut at the floor)."""
    h0, h1 = np.diag([0.0, 1.0]).astype(complex), np.diag([0.0, 40.0]).astype(complex)
    p = ramp_protocol(h0, h1, nodes=21, beta=1.0)
    _, ev, fwd, rev = thermal_ends(p)
    assert 0.0 < rev.probs[1] < PROB_FLOOR
    rep = gt.verify_ft(gt.build_ensemble(p, fwd, rev, ev))
    assert rep.mean_sigma == pytest.approx(rep.mean_sigma_via_work, abs=1e-9)
    assert rep.mean_sigma_via_entropy == pytest.approx(rep.mean_sigma, abs=1e-9)


def test_via_work_requires_thermal_endpoints():
    rng = np.random.default_rng(33)
    p = gt.random_protocol(3, 61, rng, beta=1.0)
    rho0 = random_density(3, rng)
    ev = gt.evolve(p, rho0)
    fwd = gt.level_distribution(rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    rep = gt.verify_ft(ens)
    assert math.isnan(rep.mean_sigma_via_work)
    assert rep.mean_sigma >= -1e-10
    assert abs(rep.ift_value - 1.0) < 1e-9


def test_mean_work_matches_ledger(lz_run):
    # TPM average work = unitary average work for a gauge-invariant start
    p, ev, tl = lz_run.p, lz_run.ev, lz_run.tl
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    de = ens.structure_tau.energies[None, :] - ens.structure_0.energies[:, None]
    mean_w = float((ens.joint_forward * de).sum())
    assert mean_w == pytest.approx(tl.w_u[-1], abs=lz_run.tol)


def test_gauge_invariance_of_ensemble(lz_run):
    p, ev = lz_run.p, lz_run.ev
    rng = np.random.default_rng(17)
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    ens = gt.build_ensemble(p, fwd, rev, ev)
    v0 = gt.sample_gauge_element(ev.structures[0], rng)
    vt = gt.sample_gauge_element(ev.structures[-1], rng)
    props = ev.propagators.copy()
    props[-1] = vt @ ev.propagators[-1] @ v0
    ev2 = gt.EvolutionResult(
        states=ev.states,
        twirled_states=ev.twirled_states,
        propagators=props,
        structures=ev.structures,
    )
    ens2 = gt.build_ensemble(p, fwd, rev, ev2)
    assert np.max(np.abs(ens.transition - ens2.transition)) < 1e-10
    assert np.max(np.abs(ens.joint_forward - ens2.joint_forward)) < 1e-10
    mask = ~np.isnan(ens.sigma)
    assert np.array_equal(mask, ~np.isnan(ens2.sigma))
    assert np.max(np.abs(ens.sigma[mask] - ens2.sigma[mask])) < 1e-10


def test_misaligned_distribution_rejected(lz_run):
    p, ev = lz_run.p, lz_run.ev
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    bad = LevelDistribution(
        probs=np.array([0.2, 0.3, 0.5]),
        mults=np.array([1, 1, 1]),
        energies=np.array([0.0, 1.0, 2.0]),
    )
    with pytest.raises(gt.ValidationError):
        gt.build_ensemble(p, fwd, bad, ev)


def test_non_finite_propagator_rejected(lz_run):
    """A NaN in the final propagator made every transition NaN, which passed
    the row-sum check that compared with >; only verify_ft failed, later."""
    p, ev = lz_run.p, lz_run.ev
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    props = ev.propagators.copy()
    props[-1, 0, 0] = np.nan
    with pytest.raises(gt.ValidationError, match="transition rows deviate from stochasticity by nan"):
        gt.build_ensemble(p, fwd, rev, dataclasses.replace(ev, propagators=props))


def test_reference_energies_must_match_levels(lz_run):
    p, ev = lz_run.p, lz_run.ev
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    shifted = dataclasses.replace(rev, energies=rev.energies + 1.0)
    with pytest.raises(gt.ValidationError, match="reverse_ref energies do not match the level structure"):
        gt.build_ensemble(p, fwd, shifted, ev)


def test_nan_level_energy_does_not_match(lz_run):
    """A NaN level energy passed the energy check, which compared with >,
    against any finite distribution."""
    p, ev = lz_run.p, lz_run.ev
    fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
    rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
    spectra = ev.structures.spectra.copy()
    spectra[0, 0] = np.nan
    nan_levels = dataclasses.replace(ev.structures, spectra=spectra)
    with pytest.raises(gt.ValidationError, match="forward_init energies do not match the level structure"):
        gt.build_ensemble(p, fwd, rev, dataclasses.replace(ev, structures=nan_levels))


class TestSampling:
    def test_determinism(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        ens = gt.build_ensemble(p, fwd, rev, ev)
        a = gt.sample_trajectories(ens, 5000, np.random.default_rng(11))
        b = gt.sample_trajectories(ens, 5000, np.random.default_rng(11))
        assert a.ift_value == b.ift_value
        assert a.mean_sigma == b.mean_sigma
        assert np.array_equal(a.counts, b.counts)

    def test_single_draw(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        ens = gt.build_ensemble(p, fwd, rev, ev)
        rep = gt.sample_trajectories(ens, 1, np.random.default_rng(0))
        assert rep.count == 1
        finite = np.isfinite(ens.sigma)
        prob = np.where(finite, ens.joint_forward, 0.0) / ens.joint_forward[finite].sum()
        weights = np.exp(-np.where(finite, ens.sigma, 0.0))
        var = float(np.sum(prob * (weights - np.sum(prob * weights)) ** 2))
        assert rep.ift_stderr == pytest.approx(math.sqrt(var), rel=1e-12)
        assert rep.counts.sum() == 1
        k, l = np.argwhere(rep.counts == 1)[0]
        assert rep.mean_sigma == pytest.approx(float(ens.sigma[k, l]))

    def test_monte_carlo_consistency(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        ens = gt.build_ensemble(p, fwd, rev, ev)
        rep = gt.sample_trajectories(ens, 100_000, np.random.default_rng(11))
        assert abs(rep.ift_value - 1.0) < 4 * rep.ift_stderr
        assert rep.counts.sum() == 100_000

    def test_stderr_counts_unsampled_rare_outcome(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        ens = gt.build_ensemble(p, fwd, rev, ev)
        # one cell of probability 1e-5 with sigma = -7; 2000 draws rarely hit it
        joint = np.array([[0.6, 0.4 - 1e-5], [1e-5, 0.0]])
        sigma = np.array([[0.05, -0.08], [-7.0, np.nan]])
        rare = dataclasses.replace(ens, joint_forward=joint, sigma=sigma)
        rep = gt.sample_trajectories(rare, 2000, np.random.default_rng(3))
        prob = np.array([0.6, 0.4 - 1e-5, 1e-5])
        s = np.array([0.05, -0.08, -7.0])
        for x, err in ((s, rep.mean_sigma_stderr), (np.exp(-s), rep.ift_stderr)):
            exact = math.sqrt(float(prob @ (x - prob @ x) ** 2) / 2000)
            assert err == pytest.approx(exact, rel=1e-12)

    def test_count_validation(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        fwd = gt.level_distribution(lz_run.rho0, ev.structures[0])
        rev = gt.thermal_level_distribution(ev.structures[-1], p.beta)
        ens = gt.build_ensemble(p, fwd, rev, ev)
        with pytest.raises(ValueError):
            gt.sample_trajectories(ens, 0, np.random.default_rng(1))
