"""Invariant entropy, its decomposition, and level distributions."""
import math

import numpy as np
import pytest

import gaugetherm as gt
from gaugetherm.gauge import cluster_spectrum, default_cluster_tol_abs
from gaugetherm.invariants import (
    LevelDistribution,
    entropy_report,
    level_distribution,
    noneq_free_energy,
    s_gauge,
    stochastic_entropies,
    stochastic_entropy,
    thermal_level_distribution,
)
from gaugetherm.linalg import (
    PROB_FLOOR,
    ValidationError,
    eigh,
    gibbs_state,
    log_partition,
    relative_entropy,
    shannon_entropy,
)

from test_linalg import random_density


def structure_of(h):
    return cluster_spectrum(eigh(h), default_cluster_tol_abs(h))


def test_level_distribution_of_gibbs_is_thermal():
    h = np.diag([0.0, 0.0, 1.0, 2.5]).astype(complex)
    ds = structure_of(h)
    beta = 1.7
    rho, _ = gibbs_state(h, beta)
    ld = level_distribution(rho, ds)
    ref = thermal_level_distribution(ds, beta)
    assert np.allclose(ld.probs, ref.probs, atol=1e-12)
    assert tuple(ld.mults) == (2, 1, 1)
    # the degenerate ground level carries twice the Boltzmann weight of a
    # singleton at the same energy
    assert ref.probs[0] == pytest.approx(
        2 * math.exp(beta) * ref.probs[1], rel=1e-10
    )


def test_thermal_level_distribution_weights():
    ds = structure_of(np.diag([0.0, 0.0, 1.0]).astype(complex))
    beta = math.log(2)
    ld = thermal_level_distribution(ds, beta)
    # Z = 2 + 1/2; p_ground = 2 / 2.5
    assert ld.probs[0] == pytest.approx(0.8, abs=1e-12)
    assert ld.probs[1] == pytest.approx(0.2, abs=1e-12)


def test_level_distribution_rejects_unnormalized():
    with pytest.raises(ValidationError):
        LevelDistribution(
            probs=np.array([0.6, 0.6]),
            mults=np.array([1, 1]),
            energies=np.array([0.0, 1.0]),
        )


@pytest.mark.parametrize(
    "probs, energies",
    [
        ([np.nan, 1.0], [0.0, 1.0]),
        ([np.nan, np.nan], [0.0, 1.0]),
        ([0.5, np.inf], [0.0, 1.0]),
        ([0.5, 0.5], [0.0, np.nan]),
        ([0.5, 0.5], [-np.inf, 1.0]),
    ],
)
def test_level_distribution_rejects_non_finite(probs, energies):
    # NaN < -1e-12 and |NaN - 1| > tol are both false, so NaN used to pass
    # and s_gauge then returned 0.0 silently
    with pytest.raises(ValidationError, match="finite"):
        LevelDistribution(probs=np.array(probs), mults=np.array([1, 1]), energies=np.array(energies))


@pytest.mark.parametrize(
    "probs, energies, message",
    [
        ([np.nan, 1.5, -0.5], [np.inf, 0.0, 1.0], "probabilities must be finite"),
        ([1.5, -0.5, 0.0], [np.inf, 0.0, 1.0], "energies must be finite"),
        ([1.5, -0.5, 0.0], [0.0, 1.0, 2.0], "nonnegative and sum to 1"),
        ([0.5, 0.25, 0.2], [0.0, 1.0, 2.0], "nonnegative and sum to 1"),
    ],
)
def test_level_distribution_validator_precedence(probs, energies, message):
    # one combined test passes a valid distribution; a failing one is
    # diagnosed finiteness first, then the sign and the sum
    with pytest.raises(ValidationError, match=message):
        LevelDistribution(
            probs=np.array(probs), mults=np.array([1, 1, 1]), energies=np.array(energies)
        )


def test_level_distribution_rejects_unequal_lengths():
    with pytest.raises(ValidationError, match="level distribution arrays must share length"):
        LevelDistribution(probs=np.array([0.5, 0.5]), mults=np.array([1, 1]), energies=np.array([0.0]))


@pytest.mark.parametrize("beta", [0.0, math.nan])
def test_non_positive_beta_rejected(beta):
    h = np.diag([0.0, 1.0]).astype(complex)
    ds = structure_of(h)
    with pytest.raises(ValueError, match=f"beta must be positive and finite, got {beta}"):
        thermal_level_distribution(ds, beta)
    with pytest.raises(ValueError, match="beta must be positive"):
        noneq_free_energy(np.eye(2, dtype=complex) / 2, h, ds, beta)


@pytest.mark.parametrize("beta", [math.inf, math.nan])
def test_non_finite_beta_rejected(beta):
    """At beta = inf the free energy would be Tr(rho H) and ln Z NaN; both
    refuse it, as gibbs_state does."""
    h = np.diag([0.0, 1.0]).astype(complex)
    ds = structure_of(h)
    message = f"beta must be positive and finite, got {beta}"
    with pytest.raises(ValueError, match=message):
        noneq_free_energy(np.eye(2, dtype=complex) / 2, h, ds, beta)
    with pytest.raises(ValueError, match=message):
        log_partition(ds.energies, ds.mults, beta)


@pytest.mark.parametrize(
    "h, message",
    [
        (np.diag([0.0, np.nan]).astype(complex), "H has non-finite entries"),
        (np.diag([5.0, 7.0]).astype(complex), "H is not diagonal with the structure's level energies"),
        (np.diag([0.0, 1.0, 2.0]).astype(complex), "H dimension 3 does not match structure dimension 2"),
    ],
    ids=["nan_entry", "other_levels", "other_dimension"],
)
def test_free_energy_checks_h_against_its_structure(h, message):
    """F_inv reads Tr(rho H) from H and s_gt from ds, so H must be a valid
    operator whose levels are those of ds: a NaN entry returned NaN, and
    H = diag(5, 7) with the levels of diag(0, 1) returned 5.31."""
    ds = structure_of(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValidationError, match=message):
        noneq_free_energy(np.eye(2, dtype=complex) / 2, h, ds, 1.0)


def test_free_energy_accepts_h_in_a_rotated_degenerate_basis():
    """A structure clustered from H itself passes the check in any basis,
    with a degenerate level whose eigenvectors the solver picked."""
    q, _ = np.linalg.qr(np.random.default_rng(23).normal(size=(4, 4)))
    h = (q @ np.diag([0.0, 0.0, 1.0, 2.5]) @ q.T).astype(complex)
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    assert tuple(ds.mults) == (2, 1, 1)
    rho = np.eye(4, dtype=complex) / 4
    expected = float(np.trace(h).real) / 4 - s_gauge(level_distribution(rho, ds)) / 1.3
    assert noneq_free_energy(rho, h, ds, 1.3) == pytest.approx(expected, abs=1e-14)


def test_level_distribution_passes_within_bounds():
    # a probability of -1e-13 and a sum 1e-9 above 1 are within the bounds
    ld = LevelDistribution(
        probs=np.array([0.5 + 1e-9, 0.5, -1e-13]),
        mults=np.array([1, 1, 1]),
        energies=np.array([-1e300, 0.0, 1e300]),
    )
    assert ld.n_levels == 3


def _real_ramp(dim: int, rng: np.random.Generator, degenerate: bool) -> gt.Protocol:
    """A ramp between two random real-symmetric endpoints; degenerate ones
    repeat their lowest eigenvalue (and their third, for dim >= 4), rotated
    by a random orthogonal matrix. The stack is float64, so are the bases."""
    ends = []
    for _ in range(2):
        g = rng.normal(size=(dim, dim))
        h = (g + g.T) / 2.0
        if degenerate:
            w = np.sort(rng.normal(size=dim))
            w[1] = w[0]
            if dim >= 4:
                w[3] = w[2]
            q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
            h = (q * w) @ q.T
            h = (h + h.T) / 2.0
        ends.append(h)
    times = np.linspace(0.0, 1.0, 7)
    hams = ends[0] + times[:, None, None] * (ends[1] - ends[0])
    return gt.Protocol(times=times, hamiltonians=hams, beta=0.9)


@pytest.mark.parametrize("degenerate", [False, True])
@pytest.mark.parametrize("dim", range(2, 9))
def test_single_state_routes_are_rows_of_the_stacked_kernel(dim, degenerate):
    # twirl, level_distribution and entropy_report on one state are bit-equal
    # to a row of level_space / level_twirl on a stack: on a complex protocol's
    # bases and on a real one's (real products), for complex states and for
    # real (float64) ones
    from gaugetherm.gauge import level_space, level_twirl, twirl

    rng = np.random.default_rng(100 * dim + degenerate)
    real = _real_ramp(dim, rng, degenerate)
    assert real.hamiltonians.dtype == np.float64
    for p in (gt.random_protocol(dim, 7, rng, degenerate=degenerate), real):
        ev = gt.evolve(p, random_density(dim, rng))
        lv = ev.structures
        assert lv.basis.dtype == p.hamiltonians.dtype
        if degenerate:
            assert ev.structures[0].degenerate and ev.structures[-1].degenerate
        for states in (ev.states, ev.states.real.copy()):
            diag, pops = level_space(states, lv.basis, lv.mults, lv.bounds[:-1])
            twirled = level_twirl(pops, lv.basis, lv.mults)
            for j, (rho, ds) in enumerate(zip(states, lv)):
                row = np.maximum(pops[lv.bounds[j] : lv.bounds[j + 1]], 0.0)
                row /= row.sum()
                assert np.array_equal(level_distribution(rho, ds).probs, row)
                assert np.array_equal(twirl(rho, ds), twirled[j])
                rep = entropy_report(rho, ds)
                assert rep.s_d == shannon_entropy(np.clip(diag[j], 0.0, 1.0))
                probs = LevelDistribution(probs=row, mults=ds.mults, energies=ds.energies)
                assert rep.s_gt == s_gauge(probs)


def test_s_gauge_mixedness_credit():
    # all weight on one doubly degenerate level: -sum p ln p = 0, credit ln 2
    ld = LevelDistribution(
        probs=np.array([1.0]), mults=np.array([2]), energies=np.array([0.0])
    )
    assert s_gauge(ld) == pytest.approx(math.log(2), abs=1e-12)


def test_stochastic_entropy_hand_value():
    ld = LevelDistribution(
        probs=np.array([0.5, 0.5]),
        mults=np.array([2, 1]),
        energies=np.array([0.0, 1.0]),
    )
    assert stochastic_entropy(0, ld) == pytest.approx(math.log(4), abs=1e-12)
    assert stochastic_entropy(1, ld) == pytest.approx(math.log(2), abs=1e-12)
    # mean of the trajectory entropies is the ensemble entropy
    mean = 0.5 * stochastic_entropy(0, ld) + 0.5 * stochastic_entropy(1, ld)
    assert mean == pytest.approx(s_gauge(ld), abs=1e-12)


def test_stochastic_entropies_vectorise_the_single_outcome_form():
    ld = LevelDistribution(
        probs=np.array([0.5, 0.5 - 1e-80, 1e-80, 0.0]),
        mults=np.array([2, 1, 1, 3]),
        energies=np.array([0.0, 1.0, 2.0, 3.0]),
    )
    s = stochastic_entropies(ld)
    assert s[0] == stochastic_entropy(0, ld) == pytest.approx(math.log(4), abs=1e-12)
    assert s[1] == stochastic_entropy(1, ld)
    # below the floor the single-outcome form refuses, the vector stays finite,
    # and an exact zero is +inf
    assert s[2] == pytest.approx(80 * math.log(10))
    assert s[3] == math.inf
    for k in (2, 3):
        with pytest.raises(ValueError):
            stochastic_entropy(k, ld)


def test_stochastic_entropy_zero_probability():
    ld = LevelDistribution(
        probs=np.array([1.0, 0.0]),
        mults=np.array([1, 1]),
        energies=np.array([0.0, 1.0]),
    )
    with pytest.raises(ValueError):
        stochastic_entropy(1, ld)


def test_single_state_routes_share_the_kernel_checks():
    from gaugetherm.gauge import twirl

    ds = structure_of(np.diag([0.0, 1.0]).astype(complex))
    # each bad state also has trace 1.8, which is diagnosed last
    nan = np.diag([0.9, 0.9]).astype(complex)
    nan[0, 1] = np.nan
    skew = np.array([[0.9, 0.3], [0.1, 0.9]], dtype=complex)
    for route in (twirl, level_distribution, entropy_report):
        with pytest.raises(ValidationError, match="dimension 3"):
            route(np.eye(3, dtype=complex) / 3, ds)
        # Hermitian with unit trace but no state: the clipped populations sum to 1.5
        with pytest.raises(ValidationError, match="at node 0 sum to 1.5"):
            route(np.diag([1.5, -0.5]).astype(complex), ds)
        # the state's own checks come first, in validate_density's order:
        # non-finite entries, skew, trace
        with pytest.raises(ValidationError, match="state has non-finite entries"):
            route(nan, ds)
        with pytest.raises(ValidationError, match="state is not Hermitian within tolerance"):
            route(skew, ds)
        with pytest.raises(ValidationError, match="state trace is 1.800e\\+00"):
            route(np.diag([0.9, 0.9]).astype(complex), ds)


def test_entropy_report_validates_its_state_once(monkeypatch):
    """entropy_report validates rho once (gauge._state_levels) and takes s_vn
    from that validated state, with von_neumann_entropy's digits."""
    import gaugetherm.gauge
    import gaugetherm.linalg

    rng = np.random.default_rng(21)
    rho = random_density(4, rng)
    ds = structure_of(np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
    s_vn = gt.von_neumann_entropy(rho)
    calls = []
    for module in (gaugetherm.gauge, gaugetherm.linalg):
        validate = module.validate_density
        monkeypatch.setattr(
            module, "validate_density", lambda *a, _v=validate, **k: calls.append(1) or _v(*a, **k)
        )
    rep = entropy_report(rho, ds)
    assert len(calls) == 1
    assert rep.s_vn == s_vn


def test_entropy_report_pure_superposition():
    # (|0> + |1>)/sqrt(2) across two nondegenerate levels: all coherence
    h = np.diag([0.0, 1.0]).astype(complex)
    ds = structure_of(h)
    psi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    rep = entropy_report(np.outer(psi, psi.conj()), ds)
    assert rep.s_vn == pytest.approx(0.0, abs=1e-10)
    assert rep.c_rel == pytest.approx(math.log(2), abs=1e-10)
    assert rep.s_gamma == pytest.approx(0.0, abs=1e-10)
    assert rep.s_gt == pytest.approx(math.log(2), abs=1e-10)


def test_entropy_report_uneven_degenerate_populations():
    # diag(0.7, 0.3) inside one doubly degenerate level: pure asymmetry
    h = np.zeros((2, 2), dtype=complex)
    ds = structure_of(h)
    rep = entropy_report(np.diag([0.7, 0.3]).astype(complex), ds)
    h2 = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
    assert rep.s_gamma == pytest.approx(math.log(2) - h2, abs=1e-10)
    assert rep.c_rel == pytest.approx(0.0, abs=1e-10)
    assert rep.s_gt == pytest.approx(math.log(2), abs=1e-10)


def test_entropy_report_decomposition_random():
    rng = np.random.default_rng(12)
    from gaugetherm.linalg import haar_unitary

    u = haar_unitary(4, rng)
    h = u @ np.diag([0.0, 0.0, 1.0, 2.0]) @ u.conj().T
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    rho = random_density(4, rng)
    rep = entropy_report(rho, ds)
    assert rep.s_gt == pytest.approx(rep.s_vn + rep.c_rel + rep.s_gamma, abs=1e-10)
    assert rep.s_gt == pytest.approx(rep.s_d + rep.s_gamma, abs=1e-10)
    for part in (rep.s_vn, rep.c_rel, rep.s_gamma, rep.s_d):
        assert part >= -1e-10


def holevo_asymmetry_f(rho, ds):
    """Asymmetry entropy from the signed block value list, an independent
    reference for the s_gamma column.

    The list pairs every diagonal entry -rho_ii (in the level basis, from the
    full product B^dag rho B) with the uniform level weight p^k/n^k repeated
    n^k times; -sum v ln|v| over the lot telescopes to s_gt - s_d.
    """
    diag = np.clip(np.real(np.diag(ds.basis.conj().T @ rho @ ds.basis)), 0.0, 1.0)
    values = [-x for x in diag]
    for k, n in enumerate(ds.mults):
        p = float(np.real(np.trace(ds.projector(k) @ rho)))
        values.extend([p / int(n)] * int(n))
    total = 0.0
    for v in values:
        if abs(v) > PROB_FLOOR:
            total -= v * np.log(abs(v))
    return float(total)


def test_holevo_cross_check():
    rng = np.random.default_rng(13)
    from gaugetherm.linalg import haar_unitary

    u = haar_unitary(3, rng)
    h = u @ np.diag([0.0, 0.0, 1.5]) @ u.conj().T
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    rho = random_density(3, rng)
    rep = entropy_report(rho, ds)
    assert holevo_asymmetry_f(rho, ds) == pytest.approx(rep.s_gamma, abs=1e-9)


def test_noneq_free_energy_exceeds_equilibrium_by_relative_entropy():
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    ds = structure_of(h)
    beta = 1.2
    rng = np.random.default_rng(14)
    rho = random_density(3, rng)
    sigma, ln_z = gibbs_state(h, beta)
    f_eq = -ln_z / beta
    from gaugetherm.gauge import twirl

    te = twirl(rho, ds)
    gap = noneq_free_energy(rho, h, ds, beta) - f_eq
    assert gap == pytest.approx(relative_entropy(te, sigma) / beta, abs=1e-9)
    assert gap >= -1e-12
    # equality at equilibrium
    assert noneq_free_energy(sigma, h, ds, beta) == pytest.approx(f_eq, abs=1e-10)
