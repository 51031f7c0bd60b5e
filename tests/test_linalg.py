"""Frozen-value and property tests for the linear-algebra layer."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugetherm.linalg import (
    BLOCK_BYTES,
    PROB_FLOOR,
    ValidationError,
    _divergence,
    _log_gibbs,
    bures_angle,
    eigh,
    fidelity,
    gibbs_state,
    haar_unitaries,
    haar_unitary,
    log_partition,
    relative_entropy,
    shannon_entropy,
    validate_density,
    validate_hermitian,
    von_neumann_entropy,
)
from gaugetherm.models import curie_weiss, random_protocol

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = haar_unitary(dim, rng)
    w = rng.random(dim) + 0.05
    w /= w.sum()
    rho = (v * w) @ v.conj().T
    return (rho + rho.conj().T) / 2


def test_gibbs_two_level_hand_value():
    # H = diag(0, 1), beta = ln 2: populations 2/3, 1/3 and Z = 3/2
    rho, ln_z = gibbs_state(np.diag([0.0, 1.0]).astype(complex), math.log(2))
    assert np.allclose(rho, np.diag([2 / 3, 1 / 3]), atol=1e-14)
    assert ln_z == pytest.approx(math.log(1.5), abs=1e-14)


def test_gibbs_shift_invariance():
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    rho_a, ln_za = gibbs_state(h, 2.0)
    rho_b, ln_zb = gibbs_state(h + 500.0 * np.eye(3), 2.0)
    assert np.allclose(rho_a, rho_b, atol=1e-12)
    assert ln_zb == pytest.approx(ln_za - 1000.0, rel=1e-12)


def test_gibbs_extreme_beta_no_overflow():
    h = np.diag([-50.0, 50.0]).astype(complex)
    rho, _ = gibbs_state(h, 100.0)
    assert rho[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.isfinite(rho))


def test_log_partition_matches_direct_sum():
    e = np.array([0.0, 0.5, 2.0])
    n = np.array([1, 2, 1])
    beta = 1.3
    direct = math.log(sum(m * math.exp(-beta * x) for x, m in zip(e, n)))
    assert log_partition(e, n, beta) == pytest.approx(direct, rel=1e-14)


@pytest.mark.parametrize(
    "bad", [np.array([[math.nan, 0.0], [0.0, 1.0]]), np.diag([0.9, 0.9])], ids=["nan", "trace_1.8"]
)
def test_matrix_routes_validate_their_operands(bad):
    """The general matrix routes refuse a non-finite or non-unit-trace operand
    in either slot, where they would clip its spectrum into a number."""
    good = np.eye(2, dtype=complex) / 2
    calls = [lambda: von_neumann_entropy(bad)]
    for fn in (relative_entropy, fidelity, bures_angle):
        calls += [lambda fn=fn: fn(bad, good), lambda fn=fn: fn(good, bad)]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


def test_von_neumann_hand_value():
    s = von_neumann_entropy(np.diag([2 / 3, 1 / 3]).astype(complex))
    assert s == pytest.approx(math.log(3) - (2 / 3) * math.log(2), abs=1e-12)


def test_relative_entropy_hand_value():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.eye(2, dtype=complex) / 2
    assert relative_entropy(rho, sigma) == pytest.approx(math.log(2), abs=1e-12)


def test_relative_entropy_support_violation_is_inf():
    rho = np.eye(2, dtype=complex) / 2
    sigma = np.diag([1.0, 0.0]).astype(complex)
    assert relative_entropy(rho, sigma) == math.inf
    # rotated, the null eigenvalue comes out of eigh as +-round-off, not 0
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = haar_unitary(3, rng)
        rotated = u @ np.diag([0.6, 0.4, 0.0]) @ u.conj().T
        assert relative_entropy(np.eye(3, dtype=complex) / 3, rotated) == math.inf


def test_relative_entropy_of_curie_weiss_thermal_state_is_nonnegative():
    # sigma_0 of the Curie-Weiss run: 47 populations below 1e-10, none exactly 0
    sigma, _ = gibbs_state(curie_weiss(1.0, 50, 2.0), 2.0)
    assert relative_entropy(sigma, sigma) >= 0.0


def test_relative_entropy_basis_independent():
    rng = np.random.default_rng(3)
    u = haar_unitary(3, rng)
    rho = random_density(3, rng)
    sigma = random_density(3, rng)
    a = relative_entropy(rho, sigma)
    b = relative_entropy(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
    assert b == pytest.approx(a, abs=1e-10)


def test_fidelity_hand_value():
    # F(I/2, diag(1/4, 3/4)) = 1/2 + sqrt(3)/4, from the commuting-case formula
    f = fidelity(np.eye(2, dtype=complex) / 2, np.diag([0.25, 0.75]).astype(complex))
    assert f == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-12)


def test_bures_angle_extremes():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert bures_angle(rho, rho) == pytest.approx(0.0, abs=1e-7)
    orth = np.diag([0.0, 1.0]).astype(complex)
    assert bures_angle(rho, orth) == pytest.approx(math.pi / 2, abs=1e-7)


def test_bures_angle_precise_near_unit_fidelity():
    # arccos(sqrt(F)) turns a round-off of ~1e-15 in F into ~3e-8 in the
    # angle of a degenerate thermal state with itself; the polar route does not
    p = random_protocol(4, 21, np.random.default_rng(1), degenerate=True, beta=1.0)
    sigma, _ = gibbs_state(p.block(0), 1.0)
    assert bures_angle(sigma, sigma) < 1e-12


def test_fidelity_precise_with_small_weights():
    # square roots of the eigenvalues of sqrt(rho) sigma sqrt(rho) lose about
    # eps / sqrt(w) on an eigenvalue w, ~1e-10 here (smallest weight 4e-7);
    # the singular values of sqrt(sigma) sqrt(rho) keep F(sigma, sigma) at 1
    rng = np.random.default_rng(9021)
    beta = float(0.5 + 1.5 * rng.random())
    p = random_protocol(5, 21, rng, beta=beta)
    sigma, _ = gibbs_state(p.block(0), beta)
    assert 1.0 - fidelity(sigma, sigma) < 1e-12


def test_bures_angle_matches_fidelity_route():
    # away from F = 1 the arccos route has all its digits, so the two agree
    rng = np.random.default_rng(8)
    for dim in (2, 3, 5):
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        expect = math.acos(math.sqrt(fidelity(rho, sigma)))
        assert bures_angle(rho, sigma) == pytest.approx(expect, abs=1e-9)


def test_haar_moment_and_determinism():
    rng = np.random.default_rng(42)
    n, samples = 3, 10_000
    acc = 0.0
    for _ in range(samples):
        u = haar_unitary(n, rng)
        acc += abs(u[0, 0]) ** 2
    mean = acc / samples
    # E|U_00|^2 = 1/n; flat sampling would give a visible bias here
    se = math.sqrt((2 / (n * (n + 1)) - (1 / n) ** 2) / samples)
    assert abs(mean - 1 / n) < 3 * se

    a = haar_unitary(4, np.random.default_rng(7))
    b = haar_unitary(4, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.max(np.abs(a @ a.conj().T - np.eye(4))) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_haar_unitaries_unitary_with_haar_moments(n):
    count = 4000
    u = haar_unitaries(n, count, np.random.default_rng(100 + n))
    assert u.shape == (count, n, n)
    gram = u @ np.swapaxes(u, -1, -2).conj()
    assert np.max(np.abs(gram - np.eye(n))) < 1e-12
    # Haar first moments: E U_ij = 0 and E|U_ij|^2 = 1/n, for every entry
    se_mean = math.sqrt(1 / (n * count))
    assert np.max(np.abs(u.mean(axis=0))) < 5 * se_mean
    se_square = math.sqrt((2 / (n * (n + 1)) - (1 / n) ** 2) / count)
    assert np.max(np.abs((np.abs(u) ** 2).mean(axis=0) - 1 / n)) < 5 * se_square + 1e-12


def test_haar_unitary_pinned_values():
    """The single draw keeps its random stream: real parts, then imaginary
    parts, one QR; these are its values at seed 7."""
    pinned = np.array([
        [0.000515891635733956 - 0.563725682946799j, 0.4151043129243812 - 0.04498569245088695j,
         -0.2455681490534785 - 0.5791883200007608j, -0.06539870585297436 - 0.32838691893280064j],
        [-0.19067610851597802 - 0.7723717497947921j, -0.3486770405000837 + 0.15461870579702908j,
         0.09349206670358584 + 0.2992226373304961j, 0.2815252991620969 + 0.20992958750508578j],
        [-0.20641753682968345 + 0.06573698636007526j, -0.36775091375122454 - 0.2416285182561596j,
         0.17826017233609606 - 0.6775080790251562j, -0.0077765290056258035 + 0.5182576705895496j],
        [0.04420776402746478 - 0.020339929087217483j, -0.6891256486400049 + 0.10799462532464833j,
         0.033577110505430725 - 0.1184943559080908j, -0.38343054157216383 - 0.5906671204914068j],
    ])
    assert np.allclose(haar_unitary(4, np.random.default_rng(7)), pinned, rtol=0.0, atol=1e-12)
    assert np.array_equal(haar_unitary(4, np.random.default_rng(7)),
                          haar_unitaries(4, 1, np.random.default_rng(7))[0])


def test_shape_errors():
    with pytest.raises(ValidationError, match=r"operator must be a square matrix, got shape \(2, 3\)"):
        validate_hermitian(np.zeros((2, 3), dtype=complex))
    with pytest.raises(ValueError, match="n must be >= 1"):
        haar_unitaries(0, 1, np.random.default_rng(0))


def test_validation_errors():
    with pytest.raises(ValidationError):
        validate_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValidationError):
        validate_density(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]).astype(complex))
    with_inf = np.eye(3, dtype=complex) / 3
    with_inf[0, 2] = with_inf[2, 0] = np.inf
    with pytest.raises(ValidationError, match="non-finite"):
        validate_density(with_inf)
    with pytest.raises(ValueError):
        gibbs_state(np.eye(2, dtype=complex), -1.0)
    # a stack of several node blocks names its first failing matrix by its
    # index in the whole stack, and reports non-finite entries before skew
    block = BLOCK_BYTES // (16 * 2 * 2)
    stack = np.zeros((3 * block + 5, 2, 2), dtype=complex)
    stack[block + 3, 0, 1] = 1.0
    stack[2 * block + 7, 1, 1] = np.nan
    with pytest.raises(ValidationError, match=f"stack {2 * block + 7} has non-finite"):
        validate_hermitian(stack, "stack")
    stack[2 * block + 7, 1, 1] = 0.0
    with pytest.raises(ValidationError, match=f"stack {block + 3} is not Hermitian"):
        validate_hermitian(stack, "stack")


@pytest.mark.parametrize(
    "entries, message",
    [
        # a NaN entry is named first, whatever else is wrong
        ({(0, 0): np.nan, (0, 1): 0.3, (2, 2): 0.9}, "non-finite"),
        # one infinite entry against a finite transpose: an infinite skew
        ({(0, 1): np.inf}, "non-finite"),
        # a skew comes before a trace that misses 1
        ({(0, 1): 0.3, (2, 2): 0.9}, "not Hermitian"),
        ({(2, 2): 0.9}, "trace is"),
    ],
)
def test_single_matrix_validator_precedence(entries, message):
    # a valid matrix passes one combined test; only a failing one is
    # diagnosed, in the order the checks are listed
    rho = np.eye(3, dtype=complex) / 3
    for index, value in entries.items():
        rho[index] = value
    with pytest.raises(ValidationError, match=message):
        validate_density(rho, check_psd=False)
    if message != "trace is":
        with pytest.raises(ValidationError, match=message):
            validate_hermitian(rho)
    else:
        validate_hermitian(rho)


def test_single_matrix_validators_pass_within_tolerance():
    rho = np.eye(3, dtype=complex) / 3
    rho[0, 1] = 1e-13  # skew 1e-13, within HERMITICITY_TOL of the unit scale
    rho[1, 1] += 5e-11  # trace 1 + 5e-11, within TRACE_TOL
    assert validate_density(rho, check_psd=False) is not None
    assert validate_hermitian(np.zeros((0, 0))).shape == (0, 0)
    # a skew above the tolerance at unit scale is held to the matrix's own
    # scale, here 1e6: 1e-8 passes, 1e-5 does not
    h = np.array([[1e6, 1.0], [1.0 + 1e-8, 0.0]], dtype=complex)
    validate_hermitian(h)
    h[1, 0] = 1.0 + 1e-5
    with pytest.raises(ValidationError, match="not Hermitian"):
        validate_hermitian(h)


# a short stack, and one as long as three node blocks, which the validators
# take whole all the same
@pytest.mark.parametrize("n", [5, 10000])
def test_stack_validators_reduce_the_scale_only_where_the_skew_fails(n):
    # matrix 2 has a skew of 1e-8, above HERMITICITY_TOL at unit scale but
    # within it at its own scale of 1e6: it passes, as do the exact ones
    h = np.repeat(np.diag([1.0, -1.0]).astype(complex)[None], n, axis=0)
    h[2] = [[1e6, 1.0], [1.0 + 1e-8, 0.0]]
    validate_hermitian(h)
    h[n - 2, 1, 0] = 1.0 + 1e-5  # at unit scale, 1e-5 fails
    with pytest.raises(ValidationError, match=f"operator {n - 2} is not Hermitian"):
        validate_hermitian(h)
    # a non-finite matrix is named by its index, before any skew
    h[n - 1, 0, 0] = np.inf
    with pytest.raises(ValidationError, match=f"operator {n - 1} has non-finite entries"):
        validate_hermitian(h)
    rho = np.repeat(np.eye(2, dtype=complex)[None] / 2, n, axis=0)
    rho[n - 3, 0, 1] = np.nan
    with pytest.raises(ValidationError, match=f"state {n - 3} has non-finite entries"):
        validate_density(rho, check_psd=False)


@pytest.mark.parametrize("layout", ["one_by_one", "transposed_view"])
def test_stack_validators_leave_their_input_unchanged(layout):
    # a (k, 1, 1) stack is C-contiguous when transposed, and so is the
    # transposed view of a stack: the skew check must not write into either
    rng = np.random.default_rng(3)
    if layout == "one_by_one":
        h = rng.normal(size=(7, 1, 1)).astype(complex)
        rho = np.ones((7, 1, 1), dtype=complex)
    else:
        a = rng.normal(size=(7, 3, 3)) + 1j * rng.normal(size=(7, 3, 3))
        h = (a + a.conj().transpose(0, 2, 1)).transpose(0, 2, 1)
        rho = np.array([random_density(3, rng) for _ in range(7)]).transpose(0, 2, 1)
    assert np.swapaxes(h, -1, -2).flags.c_contiguous
    h_before, rho_before = h.copy(), rho.copy()
    validate_hermitian(h)
    validate_density(rho)
    validate_density(rho, check_psd=False)
    assert np.array_equal(h, h_before)
    assert np.array_equal(rho, rho_before)


def test_shannon_entropy_ignores_exact_zeros():
    assert shannon_entropy(np.array([0.5, 0.5, 0.0])) == pytest.approx(math.log(2))


def test_shannon_entropy_reduces_over_the_last_axis():
    # a stack gives each row's value bit for bit; entries at or below the
    # floor, negative round-off included, count as 0 ln 0
    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(9), size=4)
    p[1, 3], p[2, 0] = 0.0, -1e-17
    rows = shannon_entropy(p)
    assert rows.shape == (4,)
    for row, value in zip(p, rows):
        assert isinstance(shannon_entropy(row), float)
        assert shannon_entropy(row) == value
        assert value == pytest.approx(-sum(x * math.log(x) for x in row if x > PROB_FLOOR), rel=1e-14)


def test_log_gibbs_keeps_underflowing_weights_finite():
    e = np.array([0.0, 0.0, 1.0, 800.0])
    ln_w, ln_z = _log_gibbs(e, 2.0)
    assert ln_z == pytest.approx(math.log(2.0 + math.exp(-2.0)), rel=1e-15)
    assert np.exp(ln_w)[3] == 0.0 and np.isfinite(ln_w).all()
    assert ln_w[3] == pytest.approx(-1600.0 - ln_z, rel=1e-15)
    # one beta per row of a stack, and one row per beta of a single spectrum
    betas = np.array([0.5, 2.0, 1e6])
    stacked_w, stacked_z = _log_gibbs(np.tile(e, (3, 1)), betas)
    spread_w, spread_z = _log_gibbs(e, betas)
    for b, row_w, row_z in zip(betas, stacked_w, stacked_z):
        one_w, one_z = _log_gibbs(e, b)
        assert np.array_equal(row_w, one_w) and row_z == one_z
    assert np.array_equal(stacked_w, spread_w) and np.array_equal(stacked_z, spread_z)
    assert log_partition(np.array([0.0, 1.0, 800.0]), np.array([2, 1, 1]), 2.0) == ln_z


def test_divergence_keeps_its_sign():
    # p = q up to round-off: every term is clipped at 0, so the sum cannot go negative
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = rng.dirichlet(np.ones(7))
        assert 0.0 <= _divergence(p, p * (1.0 + 1e-16 * rng.standard_normal(7))) < 1e-15
    p, q = np.array([0.5, 0.5, 0.0]), np.array([0.25, 0.25, 0.5])
    assert _divergence(p, q) == pytest.approx(math.log(2.0), rel=1e-15)
    # p where q = 0 makes it infinite, unless ln q comes from a log-weight
    p, q = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    assert _divergence(p, q) == math.inf
    assert _divergence(p, q, np.array([0.0, -800.0])) == pytest.approx(400.0 + math.log(0.5), rel=1e-15)


def test_eigh_sorted_and_consistent():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (a + a.conj().T) / 2
    w, V = eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(V @ np.diag(w) @ V.conj().T, h, atol=1e-12)


def eigh_inputs(monkeypatch) -> list[tuple[np.dtype, int]]:
    """Wrap np.linalg.eigh; the list fills with each call's input dtype and
    its number of matrices."""
    calls = []
    solver = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append((a.dtype, int(np.prod(a.shape[:-2]))))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def test_eigh_of_real_entries_takes_the_real_solver(monkeypatch):
    """The dtype picks the solver: a real matrix or stack (int too) is
    decomposed by the real-symmetric solver and has real eigenvectors; the
    same entries stored complex, every imaginary part 0, take the complex
    solver and have complex eigenvectors. gibbs_state's state and the
    validated operator keep the dtype too."""
    calls = eigh_inputs(monkeypatch)
    rng = np.random.default_rng(17)
    a = rng.normal(size=(3, 6, 6))
    h = (a + np.swapaxes(a, -1, -2)) / 2
    for m in (h[0], h, np.diag([2, 1, 0]), h.astype(complex), h[0].astype(complex)):
        dtype = np.complex128 if np.iscomplexobj(m) else np.float64
        assert validate_hermitian(m).dtype == dtype
        w, V = eigh(m)
        assert calls.pop()[0] == dtype and V.dtype == dtype
        assert np.max(np.abs(m @ V - V * w[..., None, :])) <= 1e-12
        if m.ndim == 2:
            rho, _ = gibbs_state(m, 1.0)
            assert calls.pop()[0] == dtype and rho.dtype == dtype
            assert validate_density(rho).dtype == dtype
    assert np.allclose(eigh(h)[0], eigh(h.astype(complex))[0], rtol=0.0, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
def test_entropy_bounds_property(seed, dim):
    rho = random_density(dim, np.random.default_rng(seed))
    s = von_neumann_entropy(rho)
    assert -1e-10 <= s <= math.log(dim) + 1e-10
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000))
def test_fidelity_bounds_property(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, rng)
    sigma = random_density(3, rng)
    f = fidelity(rho, sigma)
    assert -1e-10 <= f <= 1 + 1e-10
    assert fidelity(sigma, rho) == pytest.approx(f, abs=1e-9)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    # commuting inputs: the square-root route must match the Bhattacharyya sum
    dim = int(rng.integers(2, 7))
    p, q = rng.random(dim) + 0.05, rng.random(dim) + 0.05
    p, q = p / p.sum(), q / q.sum()
    f_diag = fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
    assert f_diag == pytest.approx(float(np.sqrt(p * q).sum() ** 2), abs=1e-8)
