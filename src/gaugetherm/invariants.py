"""Gauge-invariant entropy and its decompositions, stochastic entropy, and the
nonequilibrium free energy.

Level populations p^k = Tr(Pi_k rho) are the only data an energy-restricted
observer can extract, so the invariant entropy s_gt is the entropy of the
twirled state, whose spectrum repeats each level's p^k / n^k n^k times:
s_gt = -sum p^k ln p^k + sum p^k ln n^k. Its gap to the diagonal entropy
(s_gamma, the divergence KL(diagonal || twirled spectrum)) measures population
imbalance inside degenerate levels; the gap between diagonal and von Neumann
entropy (c_rel) measures coherence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import (
    CLUSTER_TOL_REL,
    LEVEL_NORM_TOL,
    DegeneracyStructure,
    _state_levels,
    default_cluster_tol_abs,
)
from .linalg import (
    PROB_FLOOR,
    ValidationError,
    _check_beta,
    _dag,
    _divergence,
    _spectral_entropy,
    log_partition,
    shannon_entropy,
    validate_hermitian,
)


@dataclass(frozen=True)
class LevelDistribution:
    """Populations over the levels of a DegeneracyStructure."""

    probs: np.ndarray
    mults: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        if not (len(self.probs) == len(self.mults) == len(self.energies)):
            raise ValidationError("level distribution arrays must share length")
        p = np.asarray(self.probs, dtype=float)
        e = np.asarray(self.energies, dtype=float)
        # A valid distribution passes one combined test, in which a NaN or inf
        # probability fails the sum comparison. Only a failing input is
        # diagnosed, finiteness first, since NaN fails no comparison below.
        if abs(p.sum() - 1.0) <= LEVEL_NORM_TOL and p.min() >= -1e-12 and np.isfinite(e).all():
            return
        if not np.isfinite(p).all():
            raise ValidationError("level probabilities must be finite")
        if not np.isfinite(e).all():
            raise ValidationError("level energies must be finite")
        if (p < -1e-12).any() or abs(float(p.sum()) - 1.0) > LEVEL_NORM_TOL:
            raise ValidationError("level probabilities must be nonnegative and sum to 1")

    @property
    def n_levels(self) -> int:
        return len(self.probs)


def level_distribution(rho: np.ndarray, ds: DegeneracyStructure) -> LevelDistribution:
    """p^k = Tr(Pi_k rho), clamped at zero and renormalized.

    A total-probability defect beyond LEVEL_NORM_TOL means the state and the
    structure do not belong together, which is a validation error rather than
    something to paper over (raised by gauge._state_levels).
    """
    return LevelDistribution(probs=_state_levels(rho, ds)[3], mults=ds.mults, energies=ds.energies)


def thermal_level_distribution(ds: DegeneracyStructure, beta: float) -> LevelDistribution:
    """Gibbs-weighted level populations p^k = n^k e^{-beta e^k} / Z."""
    _check_beta(beta)  # before beta meets the energies
    ln_p = np.log(ds.mults) - beta * np.asarray(ds.energies) - log_partition(ds.energies, ds.mults, beta)
    return LevelDistribution(probs=np.exp(ln_p), mults=ds.mults, energies=ds.energies)


def s_gauge(ld: LevelDistribution) -> float:
    """Invariant entropy s_gt = -sum p ln p + sum p ln n in nats: the Shannon
    entropy of the twirled spectrum, each level's p^k / n^k repeated n^k times."""
    return shannon_entropy(np.repeat(np.asarray(ld.probs, dtype=float) / ld.mults, ld.mults))


def stochastic_entropies(ld: LevelDistribution) -> np.ndarray:
    """Single-outcome entropies s(k) = -ln(p^k / n^k) of every level: +inf on a
    level of probability exactly 0, and finite on any positive one, however small."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -np.log(np.asarray(ld.probs, dtype=float) / np.asarray(ld.mults, dtype=float))


def stochastic_entropy(k: int, ld: LevelDistribution) -> float:
    """s(k) of stochastic_entropies for one level, which must carry probability
    above PROB_FLOOR for a trajectory to start or end there."""
    if float(ld.probs[k]) <= PROB_FLOOR:
        raise ValueError(f"level {k} has zero probability; trajectory undefined")
    return float(stochastic_entropies(ld)[k])


@dataclass(frozen=True)
class EntropyReport:
    """The invariant entropy split three ways.

    s_gt = s_d + s_gamma and s_gt = s_vn + c_rel + s_gamma hold to round-off;
    the substantive content is that every component is nonnegative (twirling
    and dephasing never reduce entropy), which the divergence s_gamma keeps.
    """

    s_gt: float
    s_vn: float
    s_d: float
    c_rel: float
    s_gamma: float


def entropy_report(rho: np.ndarray, ds: DegeneracyStructure) -> EntropyReport:
    """The entropy split of one state from one level-space pass
    (gauge._state_levels, which validates rho, once) and the spectrum of the
    validated state; s_gamma = KL(level-basis diagonal || twirled spectrum)
    = s_gt - s_d."""
    rho, diag, _, probs = _state_levels(rho, ds)
    x, t = np.clip(diag, 0.0, 1.0), np.repeat(probs / ds.mults, ds.mults)
    s_vn, s_d, s_gt = _spectral_entropy(rho), shannon_entropy(x), shannon_entropy(t)
    return EntropyReport(s_gt, s_vn, s_d, c_rel=s_d - s_vn, s_gamma=float(_divergence(x, t)))


def noneq_free_energy(
    rho: np.ndarray, H: np.ndarray, ds: DegeneracyStructure, beta: float
) -> float:
    """Invariant free energy F_inv = Tr(rho H) - s_gt / beta.

    Exceeds the equilibrium value by S(rho^E || sigma)/beta, so it is minimal
    exactly at thermal equilibrium. H is validated, and ds must be its level
    structure: B^dag H B must be diagonal, with the level energies, within
    the default clustering tolerance of H (gauge.cluster_spectra).
    """
    _check_beta(beta)
    H = validate_hermitian(H, "H")
    if H.shape != (ds.dim, ds.dim):
        raise ValidationError(f"H dimension {H.shape[-1]} does not match structure dimension {ds.dim}")
    e = np.repeat(ds.energies, ds.mults)
    dev = float(np.max(np.abs(_dag(ds.basis) @ H @ ds.basis - np.diag(e))))
    tol = default_cluster_tol_abs(H) + CLUSTER_TOL_REL * float(np.max(np.abs(e)))
    if not dev <= tol:
        raise ValidationError(
            f"H is not diagonal with the structure's level energies in its basis: "
            f"off by {dev:.3e}, above the clustering tolerance {tol:.3e}"
        )
    s_gt = s_gauge(level_distribution(rho, ds))  # which validates rho against ds
    return float(np.real(np.trace(rho @ H))) - s_gt / beta
