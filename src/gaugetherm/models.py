"""The models a config can name (MODELS), their builders, the fuzz-case
generator and the low-temperature scan.

The avoided-crossing sweep keeps a gap >= delta, so its level structure is
non-degenerate everywhere and coherence carries the whole story. The
collective-spin magnet lives in the maximal-spin sector (dimension N+1,
diagonal in the magnetization basis); its +-m levels merge as the field
reaches zero, and pairs of different |m| cross transiently at the field
values B = (J/N)|m1+m2| on the way down.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .dynamics import Protocol
from .gauge import CLUSTER_TOL_REL, cluster_spectrum, default_cluster_tol_abs
from .linalg import ValidationError, _log_gibbs, eigh, shannon_entropy, validate_hermitian

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# margin between the smallest field-induced splitting on a grid and the
# clustering tolerance below which the +-m structure cannot be trusted
SPLITTING_SAFETY = 10.0

# name -> the params a config must give, and the nodes, t_final and beta it may
# leave out; the builders' keyword defaults are these same entries
MODELS = {
    "landau_zener": {"params": ("delta", "v"), "nodes": 1001, "t_final": 1.0, "beta": 2.0},
    "curie_weiss": {
        "params": ("j", "n_spins", "b_start", "b_end"), "nodes": 2001, "t_final": 5.0, "beta": 2.0,
    },
    "random": {"params": ("dim", "degenerate"), "nodes": 201, "t_final": 1.0, "beta": 1.0},
    "matrix": {"params": (), "nodes": 101, "t_final": 1.0, "beta": 1.0},
}


def landau_zener(delta: float, v: float, t: float) -> np.ndarray:
    """(delta/2) sigma_x + (v t / 2) sigma_z."""
    return 0.5 * delta * _SIGMA_X + 0.5 * v * t * _SIGMA_Z


def _magnetizations(n_spins: int) -> np.ndarray:
    """m = -N/2 ... N/2 ascending, the J_z eigenvalues of the maximal-spin sector."""
    if n_spins < 1:
        raise ValueError(f"n_spins must be >= 1, got {n_spins}")
    return np.arange(n_spins + 1) - n_spins / 2.0


def curie_weiss(j_coupling: float, n_spins: int, b_field: float) -> np.ndarray:
    """-(J/N) J_z^2 - B J_z in the maximal-spin sector.

    Diagonal with entries -(J/N) m^2 - B m for m = -N/2 ... N/2 ascending.
    """
    m = _magnetizations(n_spins)
    return np.diag(-(j_coupling / n_spins) * m * m - b_field * m)


def landau_zener_protocol(
    *,
    delta: float = 2.0,
    v: float = 1.0,
    beta: float = MODELS["landau_zener"]["beta"],
    t_final: float = MODELS["landau_zener"]["t_final"],
    nodes: int = MODELS["landau_zener"]["nodes"],
) -> Protocol:
    times = np.linspace(0.0, t_final, nodes)
    hams = partial(_landau_zener_nodes, delta, v, times)
    return Protocol(times=times, hamiltonians=hams, beta=beta, label="landau_zener")


def _landau_zener_nodes(delta: float, v: float, times: np.ndarray, s: slice) -> np.ndarray:
    """The Landau-Zener Hamiltonians of the nodes s of the grid times, with
    landau_zener's operations at every node, so each node is bit-equal to it:
    the product allocates the block and the constant part is added in place."""
    h = np.multiply((0.5 * v * times[s])[:, None, None], _SIGMA_Z)
    h += 0.5 * delta * _SIGMA_X
    return h


def curie_weiss_protocol(
    *,
    j_coupling: float = 1.0,
    n_spins: int = 50,
    b_start: float = 2.0,
    b_end: float = 0.0,
    beta: float = MODELS["curie_weiss"]["beta"],
    t_final: float = MODELS["curie_weiss"]["t_final"],
    nodes: int = MODELS["curie_weiss"]["nodes"],
    cluster_tol_abs: float | None = None,
    cluster_tol_rel: float = CLUSTER_TOL_REL,
) -> Protocol:
    """Linear field ramp with a grid/tolerance compatibility check.

    The smallest +-m splitting at the last nonzero field on the grid is
    2 |B|; if that does not clear the clustering tolerance by a safe margin,
    the pair structure degrades before the field actually vanishes, so the
    pairing is rejected here rather than silently mis-clustered downstream.
    """
    times = np.linspace(0.0, t_final, nodes)
    b_grid = b_start + (times / t_final) * (b_end - b_start)
    hams = partial(_curie_weiss_nodes, j_coupling, n_spins, b_grid)
    nonzero = np.abs(b_grid) > 0.0
    if np.any(nonzero):
        j_min = int(np.flatnonzero(nonzero)[np.argmin(np.abs(b_grid[nonzero]))])
        tol = _diagonal_cluster_tol(hams(slice(j_min, j_min + 1))[0], cluster_tol_abs, cluster_tol_rel)
        splitting = 2.0 * float(np.min(np.abs(b_grid[nonzero])))
        if splitting <= SPLITTING_SAFETY * tol:
            raise ValidationError(
                f"field splitting {splitting:.3e} at node {j_min} does not clear "
                f"the clustering tolerance {tol:.3e}; refine the tolerance or coarsen the grid"
            )
    return Protocol(times=times, hamiltonians=hams, beta=beta, label="curie_weiss")


def _diagonal_cluster_tol(h: np.ndarray, tol_abs: float | None, tol_rel: float) -> float:
    """The gap that clustering allows on the diagonal h: tol_abs (unset, the
    one clustering derives from h) plus tol_rel times the spectral radius."""
    tol_abs = default_cluster_tol_abs(h) if tol_abs is None else tol_abs
    return tol_abs + tol_rel * float(np.max(np.abs(np.diag(h))))


def _curie_weiss_nodes(j_coupling: float, n_spins: int, b_grid: np.ndarray, s: slice) -> np.ndarray:
    """The Curie-Weiss Hamiltonians of the nodes s of the field grid b_grid:
    curie_weiss's diagonal at every node, written into a preallocated block
    with the same operations, so each node is bit-equal to curie_weiss."""
    m, levels = _magnetizations(n_spins), np.arange(n_spins + 1)
    h = np.zeros((len(b_grid[s]), n_spins + 1, n_spins + 1))
    h[:, levels, levels] = -(j_coupling / n_spins) * m * m - b_grid[s, None] * m
    return h


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2.0


def _with_duplicate_eigenvalues(h: np.ndarray) -> np.ndarray:
    w, V = eigh(h)
    w[1] = w[0]
    if len(w) >= 4:
        w[3] = w[2]
    out = (V * w) @ V.conj().T
    return (out + out.conj().T) / 2.0


def random_protocol(
    dim: int,
    nodes: int,
    rng: np.random.Generator,
    *,
    degenerate: bool = False,
    beta: float = MODELS["random"]["beta"],
    t_final: float = MODELS["random"]["t_final"],
) -> Protocol:
    """Linear ramp between two Gaussian Hermitian operators.

    With degenerate=True both endpoint operators get exactly duplicated
    eigenvalues (one pair, two for dim >= 4), so the t=0 and t=tau structures
    carry levels with n >= 2 while interior nodes stay generic.
    """
    if not 2 <= dim <= 8:
        raise ValueError(f"dim must be in [2, 8], got {dim}")
    if nodes < 2:
        raise ValueError(f"nodes must be >= 2, got {nodes}")
    h_a = _random_hermitian(dim, rng)
    h_end = _random_hermitian(dim, rng)
    if degenerate:
        h_a = _with_duplicate_eigenvalues(h_a)
        h_end = _with_duplicate_eigenvalues(h_end)
    times = np.linspace(0.0, t_final, nodes)
    hams = partial(_ramp_nodes, h_a, h_end - h_a, times / t_final)
    return Protocol(times=times, hamiltonians=hams, beta=beta, label="random")


def _ramp_nodes(h_a: np.ndarray, h_step: np.ndarray, ramp: np.ndarray, s: slice) -> np.ndarray:
    """h_a + ramp_j h_step at the nodes s, the operations of random_protocol's
    ramp at every node."""
    return h_a[None, :, :] + ramp[s, None, None] * h_step[None, :, :]


@dataclass(frozen=True)
class ThirdLawScan:
    """Invariant entropy of the thermal state along an inverse-temperature grid."""

    betas: np.ndarray
    s_gt: np.ndarray
    ground_multiplicity: int
    gap: float | None


def third_law_scan(
    h: np.ndarray, betas, *, cluster_tol_abs: float | None = None, cluster_tol_rel: float = CLUSTER_TOL_REL
) -> ThirdLawScan:
    """s_gauge of thermal_level_distribution of h per beta: the Shannon entropy of
    the weights e^{-beta e^k}/Z of the levels of h, each repeated n^k times, with
    every beta in one linalg._log_gibbs call. h is clustered with the given
    tolerances (evolve's; an unset tol_abs is the one clustering derives from h).

    The series decreases in beta and saturates at ln(ground multiplicity)
    once 1/beta is well below the gap.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("betas must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(betas)) or np.any(betas <= 0):
        raise ValueError("betas must be finite and positive")
    if np.any(np.diff(betas) <= 0):
        raise ValueError("betas must be strictly ascending")
    tol_abs = default_cluster_tol_abs(h) if cluster_tol_abs is None else cluster_tol_abs
    ds = cluster_spectrum(eigh(h), tol_abs, cluster_tol_rel)
    ln_w, _ = _log_gibbs(np.repeat(ds.energies, ds.mults), betas)
    gap = float(ds.energies[1] - ds.energies[0]) if ds.n_levels > 1 else None
    return ThirdLawScan(
        betas=betas,
        s_gt=shannon_entropy(np.exp(ln_w)),
        ground_multiplicity=int(ds.mults[0]),
        gap=gap,
    )


def read_matrix_file(path: str) -> np.ndarray:
    """Plain-text Hermitian matrix: first line d, then d rows of 'a+bi' entries;
    float64 when no entry has a nonzero imaginary part, else complex128."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValueError(f"cannot read matrix file '{path}': {exc}") from None
    if not lines:
        raise ValueError(f"matrix file '{path}' is empty")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ValueError(f"matrix file '{path}': first line must be the dimension") from None
    if dim < 1 or len(lines) != dim + 1:
        raise ValueError(f"matrix file '{path}': expected {dim} rows after the dimension line")
    rows = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != dim:
            raise ValueError(f"matrix file '{path}': row {i + 1} has {len(tokens)} entries, expected {dim}")
        try:
            rows.append([complex(tok.replace("i", "j")) for tok in tokens])
        except ValueError:
            raise ValueError(f"matrix file '{path}': row {i + 1} has a malformed entry") from None
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError(f"matrix file '{path}': entries must be finite")
    return validate_hermitian(m if m.imag.any() else m.real.copy(), "matrix file")


def constant_protocol(h: np.ndarray, beta: float, t_final: float, nodes: int) -> Protocol:
    times = np.linspace(0.0, t_final, nodes)
    hams = partial(_constant_nodes, np.asarray(h))
    return Protocol(times=times, hamiltonians=hams, beta=beta, label="matrix")


def _constant_nodes(h: np.ndarray, s: slice) -> np.ndarray:
    """h at every node of the range s, one copy a node."""
    return np.repeat(h[None, :, :], len(range(s.start, s.stop)), axis=0)


@dataclass(frozen=True)
class ModelSpec:
    """Resolved description of one protocol run: a model of MODELS with its
    params, and for the `matrix` model the file of its Hamiltonian
    (read_matrix_file)."""

    name: str
    nodes: int
    t_final: float
    beta: float
    params: dict = field(default_factory=dict)
    seed: int = 0
    matrix_path: str | None = None

    def __post_init__(self):
        if self.name not in MODELS:
            raise ValueError(f"unknown model name '{self.name}'")
        if self.name == "matrix" and not self.matrix_path:
            raise ValueError("model 'matrix' requires key 'matrix_path' in section [model]")
        if self.name != "matrix" and self.matrix_path:
            raise ValueError("key 'matrix_path' is only valid for model 'matrix'")
        required = MODELS[self.name]["params"]
        for key in required:
            if key not in self.params:
                raise ValueError(f"model '{self.name}' is missing required param '{key}'")
        for key in self.params:
            if key not in required:
                raise ValueError(f"model '{self.name}' got unknown param '{key}'")
        for key in ("dim", "n_spins"):
            if key in self.params and not float(self.params[key]).is_integer():
                raise ValueError(f"param '{key}' must be an integer, got {self.params[key]}")
        if self.params.get("degenerate", 0) not in (0, 1):
            raise ValueError(f"param 'degenerate' must be 0 or 1, got {self.params['degenerate']}")
        if self.nodes < 2:
            raise ValueError(f"nodes must be >= 2, got {self.nodes}")
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def build_protocol(
    spec: ModelSpec, *, cluster_tol_abs: float | None = None, cluster_tol_rel: float = CLUSTER_TOL_REL
) -> Protocol:
    """The model's protocol. The clustering tolerances are those its run will
    cluster with; the Curie-Weiss builder checks its grid against them."""
    prm = spec.params
    if spec.name == "landau_zener":
        return landau_zener_protocol(
            delta=float(prm["delta"]),
            v=float(prm["v"]),
            beta=spec.beta,
            t_final=spec.t_final,
            nodes=spec.nodes,
        )
    if spec.name == "curie_weiss":
        return curie_weiss_protocol(
            j_coupling=float(prm["j"]),
            n_spins=int(prm["n_spins"]),
            b_start=float(prm["b_start"]),
            b_end=float(prm["b_end"]),
            beta=spec.beta,
            t_final=spec.t_final,
            nodes=spec.nodes,
            cluster_tol_abs=cluster_tol_abs,
            cluster_tol_rel=cluster_tol_rel,
        )
    if spec.name == "matrix":
        return constant_protocol(read_matrix_file(spec.matrix_path), spec.beta, spec.t_final, spec.nodes)
    rng = np.random.default_rng(spec.seed)
    return random_protocol(
        int(prm["dim"]),
        spec.nodes,
        rng,
        degenerate=bool(prm["degenerate"]),
        beta=spec.beta,
        t_final=spec.t_final,
    )


def third_law_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """The one Hamiltonian a third-law scan of the model runs on: the matrix
    file's, or the Curie-Weiss magnet's at the end field b_end."""
    if spec.name == "matrix":
        return read_matrix_file(spec.matrix_path)
    if spec.name == "curie_weiss":
        prm = spec.params
        return curie_weiss(prm["j"], int(prm["n_spins"]), prm["b_end"])
    raise ValueError(
        f"[model] name = '{spec.name}' does not resolve to a single Hamiltonian; "
        "use 'matrix' or 'curie_weiss'"
    )
