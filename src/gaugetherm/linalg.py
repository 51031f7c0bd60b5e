"""Dense Hermitian linear algebra: eigensystems, matrix functions, Gibbs states,
Haar unitaries, and the quantum-information distances used by the entropy bounds.

Conventions: hbar = k_B = 1, entropies in nats. All functions are pure and
operate on plain ndarrays. An operator keeps the dtype it is given, float64 if
real and complex128 if complex, and the dtype picks the solver: a real
operator takes the real-symmetric one (np.linalg.eigh).
"""
from __future__ import annotations

import math
import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10
# probabilities below this are treated as exact zeros in logarithms
PROB_FLOOR = 1e-14
# sigma eigenvalues below this count as null space in relative_entropy
SUPPORT_RANK_TOL = 1e-10


class ValidationError(ValueError):
    """An operator failed one of its structural invariants."""


# Stacked work on (n, d, d) arrays runs over blocks of consecutive matrices
# holding about this many bytes of complex entries, so that its temporaries
# stay a small fraction of the stack; a stack of small matrices is one block.
BLOCK_BYTES = 2**18


def node_blocks(n: int, d: int) -> list[slice]:
    """Consecutive slices covering range(n), each BLOCK_BYTES of (d, d) complex
    matrices: 16 bytes an entry, whatever the dtype of the stack, so that a
    real stack has the blocks of a complex one and the same digits."""
    size = max(1, BLOCK_BYTES // max(1, 16 * d * d))
    if n <= size:
        return [slice(0, n)]
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _dag(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2).conj()


def _transposed(a: np.ndarray) -> np.ndarray:
    """a^T per matrix as a new C-contiguous array: elementwise work between a
    and its transpose then reads both in memory order, where a strided view
    is slow. It is always a copy, never a view of a (as np.ascontiguousarray
    gives for (k, 1, 1) or an already transposed stack), so that it may be
    written in place."""
    return np.swapaxes(a, -1, -2).copy()


def _per_matrix(H: np.ndarray, fn) -> np.ndarray:
    """fn, which maps a stack (k, d, d) to one value per matrix, over one
    matrix or a stack (n, d, d); a stack longer than a node block is taken a
    block at a time."""
    if H.ndim == 2 or H.nbytes <= BLOCK_BYTES:
        return fn(H)
    return np.concatenate([fn(H[s]) for s in node_blocks(H.shape[0], H.shape[-1])])


def _abs_max(H: np.ndarray) -> np.ndarray:
    return np.abs(H).max(axis=(-2, -1), initial=0.0)


def _stack_hermitian_ok(H: np.ndarray) -> np.ndarray:
    """_hermitian_ok on a stack (k, d, d): max |H - H^dag| per matrix from a
    transposed copy in memory order, conjugated and subtracted in place (and
    for a real stack made absolute in place), and max |H_ij| only for the
    matrices whose skew is above HERMITICITY_TOL."""
    t = _transposed(H)
    np.conjugate(t, out=t)
    np.subtract(H, t, out=t)
    if np.iscomplexobj(t):
        skew = _abs_max(t)
    else:
        skew = np.abs(t, out=t).max(axis=(-2, -1), initial=0.0)
    ok = skew <= HERMITICITY_TOL
    if not ok.all():
        rest = ~ok
        ok[rest] = skew[rest] - HERMITICITY_TOL * np.maximum(1.0, _abs_max(H[rest])) <= 0.0
    return ok


def max_abs_entry(H: np.ndarray) -> np.ndarray:
    """max |H_ij| of one matrix, or of every matrix of a stack (n, d, d)."""
    return _per_matrix(np.asarray(H), _abs_max)


def _named(name: str, bad: np.ndarray, first: int = 0) -> str:
    """The name of the first failing operator: `name` alone, or `name j` in a
    stack whose first operator is number `first`."""
    return name if bad.ndim == 0 else f"{name} {first + int(np.argmax(bad))}"


@np.errstate(invalid="ignore")  # inf - inf in the skew of a non-finite matrix
def _hermitian_ok(H: np.ndarray) -> np.ndarray:
    """Whether max |H - H^dag| <= HERMITICITY_TOL * max(1, max |H_ij|), per
    matrix. A non-finite entry makes the skew NaN or infinite, which fails, so
    a passing matrix is finite. A matrix whose skew is within the tolerance
    at unit scale passes at any scale, so max |H_ij| is reduced only for the
    matrices that fail that test."""
    if H.ndim == 2:
        skew = np.abs(H - H.conj().T).max(initial=0.0)
        return skew <= HERMITICITY_TOL or (
            skew - HERMITICITY_TOL * max(1.0, np.abs(H).max(initial=0.0)) <= 0.0
        )
    return _per_matrix(H, _stack_hermitian_ok)


def check_hermitian(H: np.ndarray, name: str, first: int = 0) -> None:
    """validate_hermitian's checks on a real or complex square matrix or
    stack whose first matrix is number `first` (so that a block of a longer
    stack is reported by its index in that stack)."""
    ok = _hermitian_ok(H)
    # only a failing input is diagnosed: non-finite entries first
    if not (ok if H.ndim == 2 else ok.all()):
        finite = np.isfinite(max_abs_entry(H))
        if not finite.all():
            raise ValidationError(f"{_named(name, ~finite, first)} has non-finite entries")
        raise ValidationError(f"{_named(name, ~ok, first)} is not Hermitian within tolerance")


def _stored(a) -> np.ndarray:
    """The stored form of an operator: float64 if it is real (int and bool
    too), complex128 if it is complex, even when every imaginary part is 0."""
    return np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)


def _square(H: np.ndarray, name: str) -> np.ndarray:
    H = _stored(H)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2]:
        raise ValidationError(f"{name} must be a square matrix, got shape {H.shape}")
    return H


def validate_hermitian(H: np.ndarray, name: str = "operator", first: int = 0) -> np.ndarray:
    """Check one square matrix, or a stack (n, d, d) of them, for finite
    Hermitian entries; each matrix is held to its own scale, and an error
    names the first failing matrix of a stack by its index counted from
    `first`. A stack is checked in node blocks, so temporaries are a few blocks."""
    H = _square(H, name)
    check_hermitian(H, name, first)
    return H


def validate_density(
    rho: np.ndarray, name: str = "state", check_psd: bool = True, first: int = 0
) -> np.ndarray:
    """validate_hermitian plus unit trace and, optionally, no eigenvalue below
    EIG_FLOOR; stacks are checked matrix by matrix, and named as there.

    A valid input passes one combined Hermitian-and-trace test, scalar on a
    single matrix; a failing one is diagnosed in that order, so the error is
    the one the checks would raise one after the other."""
    rho = _square(rho, name)
    tr = rho.diagonal(0, -2, -1).sum(axis=-1)
    if rho.ndim == 2:
        ok = abs(complex(tr) - 1) <= TRACE_TOL and _hermitian_ok(rho)
    else:
        ok = bool((_hermitian_ok(rho) & (abs(tr - 1.0) <= TRACE_TOL)).all())
    if not ok:
        check_hermitian(rho, name, first)
        bad = abs(tr - 1.0) > TRACE_TOL
        tr_bad = complex(np.ravel(tr)[np.argmax(bad)])
        raise ValidationError(f"{_named(name, bad, first)} trace is {tr_bad:.3e}, expected 1")
    if check_psd:
        lo = np.linalg.eigvalsh(rho)[..., 0]
        bad = lo < EIG_FLOOR
        if bad.any():
            lo_bad = float(np.ravel(lo)[np.argmax(bad)])
            raise ValidationError(
                f"{_named(name, bad, first)} has eigenvalue {lo_bad:.3e} below {EIG_FLOOR}"
            )
    return rho


def eigh(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh's pair (eigenvalues ascending, eigenvector columns) of a
    validated Hermitian operator, or of every operator of a stack (n, d, d).
    The dtype picks the solver: a real H takes the real-symmetric one and has
    real eigenvectors, a complex H the complex one, even when its imaginary
    parts are all 0. Inside a degenerate level the two may pick different
    bases."""
    return np.linalg.eigh(validate_hermitian(H))


def _check_beta(beta: float) -> None:
    if not (beta > 0 and math.isfinite(beta)):  # NaN fails both
        raise ValueError(f"beta must be positive and finite, got {beta}")


def gibbs_state(H: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """Thermal state e^{-beta H}/Z and ln Z, the matrix route.

    Eigenvalues are shifted by their minimum before exponentiating so that
    beta up to ~1e6 (third-law scans) cannot overflow; ln Z is returned with
    the shift restored. It builds every run's initial state, so it keeps
    these weights: _log_gibbs's differ in the last bit.
    """
    _check_beta(beta)
    w, V = eigh(H)
    shifted = np.exp(-beta * (w - w[0]))
    Z = float(shifted.sum())
    rho = (V * (shifted / Z)) @ V.conj().T
    ln_z = math.log(Z) - beta * float(w[0])
    return rho, ln_z


def _log_gibbs(e: np.ndarray, beta) -> tuple[np.ndarray, np.ndarray]:
    """ln(e^{-beta e_i} / Z) per entry and ln Z over the last axis of e, shifted by
    the lowest entry so that nothing overflows and an underflowing weight keeps
    its finite log; beta is one value or one per row of e's leading axes."""
    e, beta = np.asarray(e, dtype=float), np.asarray(beta, dtype=float)[..., None]
    e0 = e.min(axis=-1, keepdims=True)
    x = beta * (e0 - e)
    ln_sum = np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return x - ln_sum, (ln_sum - beta * e0)[..., 0]


def log_partition(energies: np.ndarray, mults: np.ndarray, beta: float) -> float:
    """ln Z from a clustered (energy, multiplicity) spectrum (_log_gibbs)."""
    _check_beta(beta)
    return float(_log_gibbs(np.repeat(energies, mults), beta)[1])


def haar_unitaries(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A stack (count, n, n) of independent Haar-distributed unitaries: one
    complex Ginibre stack, one stacked QR, phase fix (Mezzadri, Notices AMS
    54, 592 (2007)).

    The diagonal of each R is rotated to the positive real axis, which
    removes the QR gauge freedom and makes the distribution exactly Haar.
    The draws are all real parts, then all imaginary parts (for n = 1, one
    uniform phase per matrix), so count = 1 takes the stream of one matrix.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.exp(2j * np.pi * rng.random(count))[:, None, None]
    shape = (count, n, n)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed n x n unitary: haar_unitaries at count = 1."""
    return haar_unitaries(n, 1, rng)[0]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S_vN = -Tr(rho ln rho) in nats: shannon_entropy of the spectrum clipped to [0, 1]."""
    return _spectral_entropy(validate_density(rho, "rho", check_psd=False))


def _spectral_entropy(rho: np.ndarray) -> float:
    """von_neumann_entropy of a state that is already validated."""
    return shannon_entropy(np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0))


def shannon_entropy(p: np.ndarray) -> float | np.ndarray:
    """Classical -sum p ln p over the last axis, an entry at or below PROB_FLOOR
    counting as 0 ln 0 = 0: a vector gives a float, a stack (n, d) n values."""
    p = np.asarray(p, dtype=float)
    x = np.where(p > PROB_FLOOR, p, 1.0)  # 1 ln 1 = 0 stands in for 0 ln 0
    s = 0.0 - (x * np.log(x)).sum(axis=-1)  # not -sum, which is -0.0 on one certain outcome
    return float(s) if s.ndim == 0 else s


def _divergence(p: np.ndarray, q: np.ndarray, ln_q: np.ndarray | None = None) -> np.ndarray:
    """KL(p || q) over the last axis: the sum of the terms p ln(p/q) - p + q, each
    nonnegative and clipped at 0 so that the sum keeps its sign at round-off; p at
    or below PROB_FLOOR adds only q - p. ln_q is ln q from log-weights, finite
    where q underflows; left out, it is ln q, -inf where q = 0."""
    if ln_q is None:
        ln_q = np.log(q, out=np.full_like(q, -np.inf), where=q > 0)
    live = p > PROB_FLOOR
    ln_ratio = np.where(live, np.log(np.where(live, p, 1.0)) - ln_q, 0.0)
    return np.maximum(p * ln_ratio - p + q, 0.0).sum(axis=-1)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """S(rho||sigma) = Tr(rho ln rho) - Tr(rho ln sigma), in nats.

    If rho carries more than SUPPORT_RANK_TOL of probability on the null
    space of sigma the divergence is infinite and math.inf is returned as a
    sentinel for the caller to flag. Otherwise only directions whose clipped
    sigma eigenvalue is exactly zero drop out of Tr(rho ln sigma): a tiny
    positive eigenvalue keeps its mass*ln(sigma) term, which cancels the
    matching rho ln rho term, so S(sigma||sigma) = 0 to round-off.
    """
    tr_rho_ln_rho = -von_neumann_entropy(rho)  # which validates rho
    ws, Vs = np.linalg.eigh(validate_density(sigma, "sigma", check_psd=False))
    ws = np.clip(ws, 0.0, 1.0)
    # probability mass of rho in each sigma eigendirection
    mass = np.real(np.einsum("ij,jk,ki->i", Vs.conj().T, rho, Vs))
    mass = np.clip(mass, 0.0, None)
    null = ws <= SUPPORT_RANK_TOL
    if float(mass[null].sum()) > SUPPORT_RANK_TOL:
        return math.inf
    keep = ws > 0.0
    tr_rho_ln_sigma = float((mass[keep] * np.log(ws[keep])).sum())
    return tr_rho_ln_rho - tr_rho_ln_sigma


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


def _root_svd(rho: np.ndarray, sigma: np.ndarray):
    """sqrt(rho), sqrt(sigma) and the SVD W S V^dag of sqrt(sigma) sqrt(rho): sum(S) is
    the root fidelity, W V^dag the polar unitary taking sqrt(sigma) closest to sqrt(rho)."""
    sr = _sqrtm_psd(validate_density(rho, "rho", check_psd=False))
    ss = _sqrtm_psd(validate_density(sigma, "sigma", check_psd=False))
    w, sv, vh = np.linalg.svd(ss @ sr)
    return sr, ss, w, sv, vh


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ||sqrt(sigma) sqrt(rho)||_1^2, for commuting and
    non-commuting inputs alike."""
    return min(float(_root_svd(rho, sigma)[3].sum()) ** 2, 1.0)


def bures_angle(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Bures angle arccos(sqrt(F)) in [0, pi/2], taken as 2 arcsin(D_B / 2), which keeps
    its digits as F -> 1: D_B = ||sqrt(rho) - sqrt(sigma) W V^dag||_F with the polar
    unitary of _root_svd (Jozsa, J. Mod. Opt. 41, 2315 (1994))."""
    sr, ss, w, _, vh = _root_svd(rho, sigma)
    dist = float(np.linalg.norm(sr - ss @ (w @ vh)))
    return min(2.0 * math.asin(min(dist / 2.0, 1.0)), math.pi / 2.0)
