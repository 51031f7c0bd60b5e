"""Two-point measurement statistics over degenerate energy levels.

The forward process measures the level index at t=0, evolves the
post-measurement state Pi_k/n^k, and measures again at t=tau; the reverse
process runs U^dag from a reference distribution at tau. Entropy production
per outcome pair is the difference of stochastic entropies -ln(p/n), and the
integral and detailed fluctuation theorems are verified by exact enumeration
over the (at most d x d) outcome grid. Monte Carlo sampling exists to
exercise the trajectory pipeline, not to establish the identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolutionResult, Protocol
from .gauge import DegeneracyStructure, _spread
from .invariants import (
    LevelDistribution,
    s_gauge,
    stochastic_entropies,
    thermal_level_distribution,
)
from .linalg import PROB_FLOOR, ValidationError, _divergence, _log_gibbs, shannon_entropy

ROW_SUM_TOL = 1e-10
DETAILED_RELATION_TOL = 1e-10
THERMAL_MATCH_TOL = 1e-8
# reverse mass allowed on outcomes whose forward probability is exactly zero
ORPHAN_MASS_TOL = 1e-12


class AbsoluteContinuityError(ValidationError):
    """Forward and reverse trajectory measures do not share support."""


@dataclass(frozen=True, eq=False)
class TwoPointEnsemble:
    """Exact joint statistics of the two measurements.

    transition[k, l] = p(l|k) and reverse_transition[l, k] = p(k|l); both are
    row-stochastic. joint_forward[k, l] and joint_reverse[l, k] include the
    endpoint references. sigma[k, l] is NaN wherever either joint carries
    exactly zero weight; it stays finite on outcomes far below the
    probability floor, which the integral theorem needs.
    """

    forward_init: LevelDistribution
    reverse_ref: LevelDistribution
    transition: np.ndarray
    reverse_transition: np.ndarray
    joint_forward: np.ndarray
    joint_reverse: np.ndarray
    sigma: np.ndarray
    structure_0: DegeneracyStructure
    structure_tau: DegeneracyStructure
    beta: float


@dataclass(frozen=True)
class FtReport:
    """Fluctuation-theorem checks from exact enumeration.

    mean_sigma_via_work is beta*(<w> - dF_eq) and is NaN unless both endpoint
    distributions are thermal. mean_sigma_via_entropy adds the relative
    entropy between the evolved final distribution and the reverse reference
    (linalg._divergence, finite on reference weights below the probability
    floor) to dS_gt and agrees with mean_sigma for every ensemble;
    mean_sigma_via_endpoints drops that relative-entropy term and agrees only
    when the evolved distribution equals the reference.
    microreversibility_max is the largest |p(l|k) n^k - p(k|l) n^l| between
    the separately computed forward and reverse transition matrices.
    """

    ift_value: float
    mean_sigma: float
    mean_sigma_via_work: float
    mean_sigma_via_entropy: float
    mean_sigma_via_endpoints: float
    crooks_max_violation: float
    microreversibility_max: float


@dataclass(frozen=True, eq=False)
class SampledFtReport:
    count: int
    ift_value: float
    ift_stderr: float
    mean_sigma: float
    mean_sigma_stderr: float
    counts: np.ndarray


def _check_aligned(ld: LevelDistribution, ds: DegeneracyStructure, name: str) -> None:
    if ld.n_levels != ds.n_levels or not np.array_equal(
        np.asarray(ld.mults, dtype=int), np.asarray(ds.mults, dtype=int)
    ):
        raise ValidationError(f"{name} is not aligned with the level structure")
    scale = max(1.0, float(np.max(np.abs(ds.energies))))
    dev = np.max(np.abs(np.asarray(ld.energies) - ds.energies))
    if not dev <= 1e-8 * scale:  # one test, which a NaN fails as well
        raise ValidationError(f"{name} energies do not match the level structure")


def _block_norms(m: np.ndarray, row_starts: np.ndarray, col_starts: np.ndarray) -> np.ndarray:
    """out[r, c] = squared Frobenius norm of the (r, c) block of m, whose
    row and column blocks begin at row_starts and col_starts."""
    rows = np.add.reduceat(np.abs(m) ** 2, row_starts, axis=0)
    return np.add.reduceat(rows, col_starts, axis=1)


def build_ensemble(
    p: Protocol,
    forward_init: LevelDistribution,
    reverse_ref: LevelDistribution,
    ev: EvolutionResult,
) -> TwoPointEnsemble:
    """Enumerate both joint distributions and the entropy production matrix.

    The forward and reverse conditionals are computed through separate matrix
    products (U and U^dag) rather than one transposed from the other, so the
    microreversibility relation p(l|k) n^k = p(k|l) n^l stays an actual
    cross-check.

    Support is exact, not floored: a forward cell of 1e-80 still collects its
    full reverse weight in the integral theorem, and on level-merging
    protocols that weight is order one. Hard errors cover the two cases the
    theorem cannot absorb: forward weight above the probability floor whose
    reverse probability is exactly zero (sigma diverges), and more than
    ORPHAN_MASS_TOL of reverse weight stranded on outcomes with exactly zero
    forward probability (the enumeration then cannot reach 1).
    """
    ds0 = ev.structures[0]
    dst = ev.structures[-1]
    _check_aligned(forward_init, ds0, "forward_init")
    _check_aligned(reverse_ref, dst, "reverse_ref")
    u_tau = ev.propagators[-1]
    m_fwd = dst.basis.conj().T @ u_tau @ ds0.basis
    m_rev = ds0.basis.conj().T @ u_tau.conj().T @ dst.basis
    n0 = np.asarray(ds0.mults, dtype=float)
    nt = np.asarray(dst.mults, dtype=float)
    # [l, k] and [k, l] entries are both Tr(Pi_l U Pi_k U^dag), reached two ways
    transition = _block_norms(m_fwd, dst.starts, ds0.starts).T / n0[:, None]
    reverse_transition = _block_norms(m_rev, ds0.starts, dst.starts).T / nt[:, None]
    for name, t in (("transition", transition), ("reverse_transition", reverse_transition)):
        dev = float(np.max(np.abs(t.sum(axis=1) - 1.0)))
        if not dev <= ROW_SUM_TOL:  # one test, which a NaN fails as well
            raise ValidationError(f"{name} rows deviate from stochasticity by {dev:.3e}")
    pf = np.asarray(forward_init.probs, dtype=float)
    pr = np.asarray(reverse_ref.probs, dtype=float)
    joint_forward = pf[:, None] * transition
    joint_reverse = pr[:, None] * reverse_transition
    for name, j in (("joint_forward", joint_forward), ("joint_reverse", joint_reverse)):
        if abs(float(j.sum()) - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"{name} does not sum to 1")

    rev_kl = joint_reverse.T
    divergent = (joint_forward > PROB_FLOOR) & (rev_kl == 0.0)
    if np.any(divergent):
        k, l = np.argwhere(divergent)[0]
        raise AbsoluteContinuityError(
            f"forward weight {joint_forward[k, l]:.3e} on outcome (k={k}, l={l}) "
            "with zero-probability reverse reference"
        )
    stranded = (joint_forward == 0.0) & (rev_kl > 0.0)
    stranded_mass = float(rev_kl[stranded].sum())
    if stranded_mass > ORPHAN_MASS_TOL:
        k, l = max(np.argwhere(stranded), key=lambda kl: rev_kl[kl[0], kl[1]])
        raise AbsoluteContinuityError(
            f"reverse weight {stranded_mass:.3e} stranded on outcomes with zero "
            f"forward probability (worst cell k={k}, l={l})"
        )

    support = (joint_forward > 0.0) & (rev_kl > 0.0)
    s0, st = stochastic_entropies(forward_init), stochastic_entropies(reverse_ref)
    with np.errstate(invalid="ignore"):  # inf - inf where both references vanish
        sigma_all = st[None, :] - s0[:, None]
    sigma = np.where(support, sigma_all, np.nan)
    floored = support & (joint_forward > PROB_FLOOR)
    with np.errstate(divide="ignore"):
        detailed = np.abs(
            np.exp(np.log(joint_forward[floored]) - sigma[floored]) - rev_kl[floored]
        )
    if detailed.size and float(detailed.max()) > DETAILED_RELATION_TOL:
        raise ValidationError(
            f"detailed fluctuation relation violated by {float(detailed.max()):.3e}"
        )
    return TwoPointEnsemble(
        forward_init=forward_init,
        reverse_ref=reverse_ref,
        transition=transition,
        reverse_transition=reverse_transition,
        joint_forward=joint_forward,
        joint_reverse=joint_reverse,
        sigma=sigma,
        structure_0=ds0,
        structure_tau=dst,
        beta=float(p.beta),
    )


def _is_thermal(ld: LevelDistribution, ds: DegeneracyStructure, beta: float) -> bool:
    ref = thermal_level_distribution(ds, beta)
    return float(np.max(np.abs(np.asarray(ld.probs) - ref.probs))) <= THERMAL_MATCH_TOL


def verify_ft(ens: TwoPointEnsemble) -> FtReport:
    """Evaluate the integral theorem, Crooks residual, and all <sigma> routes.

    The integral and Crooks sums run over the exact support, with each
    p_F e^{-sigma} term formed in log space so a cell whose forward weight
    underflows the floor still contributes its reverse weight without
    overflow. Only the sigma averages drop cells at or below the floor,
    where the log amplifies rounding noise for no visible mass.
    """
    support = ~np.isnan(ens.sigma)
    rev_kl = ens.joint_reverse.T
    with np.errstate(divide="ignore"):
        crooks_terms = np.exp(np.log(ens.joint_forward[support]) - ens.sigma[support])
    ift = float(crooks_terms.sum())
    crooks = (
        float(np.max(np.abs(crooks_terms - rev_kl[support]))) if crooks_terms.size else 0.0
    )
    off = rev_kl[~support]
    if off.size:
        crooks = max(crooks, float(off.max()))
    stat = support & (ens.joint_forward > PROB_FLOOR)
    mean_sigma = float((ens.joint_forward[stat] * ens.sigma[stat]).sum())

    evolved = np.asarray(ens.forward_init.probs) @ ens.transition
    d_s = shannon_entropy(_spread(evolved, ens.structure_tau)) - s_gauge(ens.forward_init)
    via_entropy = d_s + float(_divergence(evolved, np.asarray(ens.reverse_ref.probs, dtype=float)))
    via_endpoints = s_gauge(ens.reverse_ref) - s_gauge(ens.forward_init)

    beta = ens.beta
    if _is_thermal(ens.forward_init, ens.structure_0, beta) and _is_thermal(
        ens.reverse_ref, ens.structure_tau, beta
    ):
        mean_w = float(evolved @ ens.structure_tau.energies) - float(
            np.asarray(ens.forward_init.probs) @ ens.structure_0.energies
        )
        ln_z0 = _log_gibbs(ens.structure_0.spectra, beta)[1]
        d_f = float(ln_z0 - _log_gibbs(ens.structure_tau.spectra, beta)[1]) / beta
        via_work = beta * (mean_w - d_f)
    else:
        via_work = math.nan
    n0 = np.asarray(ens.structure_0.mults, dtype=float)
    nt = np.asarray(ens.structure_tau.mults, dtype=float)
    micro = float(
        np.max(np.abs(ens.transition * n0[:, None] - ens.reverse_transition.T * nt[None, :]))
    )
    return FtReport(
        ift_value=ift,
        mean_sigma=mean_sigma,
        mean_sigma_via_work=via_work,
        mean_sigma_via_entropy=via_entropy,
        mean_sigma_via_endpoints=via_endpoints,
        crooks_max_violation=crooks,
        microreversibility_max=micro,
    )


def sample_trajectories(
    ens: TwoPointEnsemble, count: int, rng: np.random.Generator
) -> SampledFtReport:
    """Inverse-CDF sampling of (k, l) outcomes from the forward joint.

    Deterministic for a given generator state. The standard errors are the
    exact ones of a mean of `count` draws, sqrt(Var_P(x) / count), with P the
    forward joint over the finite-sigma outcomes the sampler draws from: the
    ensemble is known exactly, and a sample standard deviation misses rare
    outcomes that were not drawn.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    finite = np.isfinite(ens.sigma)
    flat = np.where(finite, ens.joint_forward, 0.0).ravel()
    cdf = np.cumsum(flat)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(count), side="right")
    idx = np.minimum(idx, flat.size - 1)
    sig = ens.sigma.ravel()[idx]
    weights = np.exp(-sig)

    prob = flat / flat.sum()
    all_sig = np.where(finite, ens.sigma, 0.0).ravel()

    def stderr(x: np.ndarray) -> float:
        return math.sqrt(float(prob @ (x - prob @ x) ** 2) / count)

    counts = np.bincount(idx, minlength=flat.size).reshape(ens.joint_forward.shape)
    return SampledFtReport(
        count=count,
        ift_value=float(weights.mean()),
        ift_stderr=stderr(np.exp(-all_sig)),
        mean_sigma=float(sig.mean()),
        mean_sigma_stderr=stderr(all_sig),
        counts=counts,
    )
