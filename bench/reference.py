"""Computations made apart from gaugetherm, for the benchmark's checks.

Nothing here imports gaugetherm. Decompositions go through scipy.linalg,
never numpy.linalg, so the traced run's eigendecomposition counter sees only
the program's own calls, and propagation uses scipy's Pade expm rather than
the program's spectral route.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import linalg as sla
from scipy.special import logsumexp

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def landau_zener_hamiltonians(delta: float, v: float, times: np.ndarray) -> np.ndarray:
    return 0.5 * delta * SIGMA_X[None] + 0.5 * v * times[:, None, None] * SIGMA_Z[None]


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def with_duplicate_eigenvalues(h: np.ndarray) -> np.ndarray:
    """The same operator with its lowest pair (and, for dim >= 4, next pair) merged."""
    w, v = sla.eigh(h)
    w[1] = w[0]
    if len(w) >= 4:
        w[3] = w[2]
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = sla.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(dim, rng)
    w = rng.random(dim) + 0.05
    w /= w.sum()
    rho = (v * w) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def thermal_state(h: np.ndarray, beta: float) -> np.ndarray:
    w, v = sla.eigh(h)
    p = np.exp(-beta * (w - w[0]))
    p /= p.sum()
    rho = (v * p) @ v.conj().T
    return (rho + rho.conj().T) / 2.0


def free_energy(h: np.ndarray, beta: float) -> float:
    return -float(logsumexp(-beta * sla.eigvalsh(h))) / beta


def energy(rho: np.ndarray, h: np.ndarray) -> float:
    return float(np.real(np.trace(rho @ h)))


def ground_multiplicity(h: np.ndarray, tol: float = 1e-9) -> int:
    w = sla.eigvalsh(h)
    return int(np.sum(w - w[0] <= tol * max(1.0, abs(float(w[0])))))


def midpoint_propagator(hams: np.ndarray, dt: float) -> np.ndarray:
    """prod_j expm(-i dt (H_j + H_{j+1}) / 2), later steps on the left."""
    u = np.eye(hams.shape[1], dtype=complex)
    for j in range(hams.shape[0] - 1):
        u = sla.expm(-0.5j * dt * (hams[j] + hams[j + 1])) @ u
    return u


def diagonal_entropy(rho: np.ndarray, h: np.ndarray) -> float:
    """Shannon entropy of rho's populations in h's eigenbasis (non-degenerate h)."""
    _, v = sla.eigh(h)
    p = np.clip(np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho, v)), 0.0, 1.0)
    p = p[p > 1e-300]
    return float(-(p * np.log(p)).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    w = np.clip(sla.eigvalsh(rho), 0.0, 1.0)
    w = w[w > 1e-300]
    return float(-(w * np.log(w)).sum())


def curie_weiss_closed_forms(
    j: float, n_spins: int, b_start: float, b_end: float, beta: float, fields: np.ndarray
) -> dict:
    """Exact results for the diagonal collective-spin ramp from a thermal start.

    H(B) = -(J/N) m^2 - B m is diagonal, so the populations stay frozen at
    the B = b_start Gibbs weights p_m; the work is -(b_end - b_start) <m>.
    At B = 0 the +-m levels merge, so the final invariant entropy follows
    from the pair sums P = p_m + p_{-m} over levels of multiplicity two.
    """
    m = np.arange(n_spins + 1) - n_spins / 2.0

    def log_weights(b):
        return beta * ((j / n_spins) * m * m + b * m)

    lw = log_weights(b_start)
    p = np.exp(lw - logsumexp(lw))
    f_eq = np.array([-float(logsumexp(log_weights(b))) / beta for b in fields])
    s_gt = 0.0
    for k in range(len(m)):
        if m[k] < 0:
            continue
        pair = p[k] + p[len(m) - 1 - k] if m[k] > 0 else p[k]
        mult = 2.0 if m[k] > 0 else 1.0
        if pair > 0:
            s_gt -= pair * math.log(pair / mult)
    return {
        "w_u": -(b_end - b_start) * float(p @ m),
        "u_0": float(p @ (-(j / n_spins) * m * m - b_start * m)),
        "u_tau": float(p @ (-(j / n_spins) * m * m - b_end * m)),
        "f_eq": f_eq,
        "s_gt_final": s_gt,
    }


def ft_residuals(ens) -> dict:
    """Integral, Crooks and microreversibility residuals from the ensemble matrices.

    Entropy production is rebuilt from the endpoint distributions,
    sigma_kl = ln(p_k / n_k) - ln(q_l / n_l), so p_F e^{-sigma} reduces to
    n_k T_kl q_l / n_l and needs no exponentials.
    """
    pf = np.asarray(ens.forward_init.probs, dtype=float)
    pr = np.asarray(ens.reverse_ref.probs, dtype=float)
    n0 = np.asarray(ens.forward_init.mults, dtype=float)
    nt = np.asarray(ens.reverse_ref.mults, dtype=float)
    t_fwd = np.asarray(ens.transition)
    t_rev = np.asarray(ens.reverse_transition)
    joint_f = pf[:, None] * t_fwd
    joint_r_kl = (pr[:, None] * t_rev).T
    support = (joint_f > 0.0) & (joint_r_kl > 0.0)
    weighted = n0[:, None] * t_fwd * (pr / nt)[None, :]
    crooks = np.abs(weighted - joint_r_kl)[support]
    off = joint_r_kl[~support]
    stat = support & (joint_f > 1e-14)
    with np.errstate(divide="ignore"):
        sigma = np.log(pf / n0)[:, None] - np.log(pr / nt)[None, :]
    return {
        "ift": float(weighted[support].sum()),
        "crooks": max(float(crooks.max()) if crooks.size else 0.0, float(off.max()) if off.size else 0.0),
        "micro": float(np.max(np.abs(t_fwd * n0[:, None] - t_rev.T * nt[None, :]))),
        "mean_sigma": float((joint_f[stat] * sigma[stat]).sum()),
    }


def sampled_mean_bound(ens, count: int, delta: float = 1e-9) -> float:
    """Deviation of a `count`-draw mean of sigma exceeded with probability below ~delta.

    Bernstein's inequality with the exact variance of sigma under the
    forward joint, so a rare cell that the draws miss cannot shrink the
    bound the way a sample standard error shrinks. Cells below 1e-12 are
    left out of the range: a draw lands on one with probability under
    count * d^2 * 1e-12.
    """
    cells = np.isfinite(ens.sigma) & (ens.joint_forward > 0.0)
    p = ens.joint_forward[cells] / ens.joint_forward[cells].sum()
    s = ens.sigma[cells]
    mu = float(p @ s)
    var = float(p @ (s - mu) ** 2)
    span = float(np.max(np.abs(s[p > 1e-12] - mu)))
    a = 2.0 * math.log(2.0 / delta) * span / 3.0
    return (a + math.sqrt(a * a + 8.0 * count * math.log(2.0 / delta) * var)) / (2.0 * count)


def gauge_element(basis: np.ndarray, slices, rng: np.random.Generator) -> np.ndarray:
    """Independent Haar block on each level, embedded through the level basis."""
    d = basis.shape[0]
    blocks = np.zeros((d, d), dtype=complex)
    for s in slices:
        blocks[s, s] = haar_unitary(s.stop - s.start, rng)
    return basis @ blocks @ basis.conj().T
