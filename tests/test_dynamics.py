"""Propagation, work/heat accounting, and the work bounds."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import linear_sum_assignment
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaugetherm as gt
from gaugetherm.dynamics import GRID_UNIFORMITY_TOL
from gaugetherm.dynamics import _cumtrap, _PowerIntegrands, _Propagator, _steps, _Window, _window
from gaugetherm.gauge import level_space, level_twirl
from gaugetherm.linalg import (
    BLOCK_BYTES,
    ValidationError,
    node_blocks,
    shannon_entropy,
    validate_density,
)
from gaugetherm.cli import cmd_run
from gaugetherm.models import constant_protocol
from gaugetherm.verify import gauge_conjugates

from test_linalg import SX, eigh_inputs, random_density


def traces(a, b):
    """Re Tr(a_j b_j) per node of two full stacks."""
    return np.einsum("nij,nji->n", a, b).real


def closed_form_route(p, ev):
    """w_cov and q_cov over whole stacks from D_t H = V Edot V^dag:
    Tr(rho D_t H) = sum x . np.gradient(e), for the diagonal x of V^dag rho V
    and the eigenvalues e, and Tr(H D_t rho) = Tr(d(rho H)/dt) - Tr(rho D_t H)."""
    lv, h, rho = ev.structures, p.hamiltonians, ev.states
    x = np.einsum("nia,nij,nja->na", lv.basis.conj(), rho, lv.basis).real
    e = np.repeat(lv.energies, lv.mults).reshape(p.n_nodes, p.dim)
    cov = np.sum(x * np.gradient(e, p.dt, axis=0), axis=1)
    work = traces(rho, np.gradient(h, p.dt, axis=0))
    heat = traces(np.gradient(rho, p.dt, axis=0), h)
    return _cumtrap(cov, p.dt), _cumtrap(work + heat - cov, p.dt)


def frame_route(p, ev):
    """w_cov and q_cov over whole stacks from the eigenframe itself: each
    node's basis matched to the previous frame by maximal overlap
    (linear_sum_assignment) and rotated so the matched overlap is real
    positive, A = -Vdot V^dag by central differences, and
    Tr(rho (Hdot + [A,H])), Tr(H (rhodot + [A,rho]))."""
    bases, d = ev.structures.basis, p.dim
    frames = bases.copy()
    for j in range(1, p.n_nodes):
        overlap = frames[j - 1].conj().T @ bases[j]
        rows, cols = linear_sum_assignment(-np.abs(overlap))
        perm = np.empty(d, dtype=int)
        perm[rows] = cols
        ov = overlap[np.arange(d), perm]
        frames[j] = bases[j][:, perm] * (ov / np.abs(ov)).conj()
    conn = -np.einsum("nij,nkj->nik", np.gradient(frames, p.dt, axis=0), frames.conj())
    h, rho = p.hamiltonians, ev.states
    t = traces(rho, conn @ h - h @ conn)
    work = traces(rho, np.gradient(h, p.dt, axis=0))
    heat = traces(np.gradient(rho, p.dt, axis=0), h)
    return _cumtrap(work + t, p.dt), _cumtrap(heat - t, p.dt)


def ramp_protocol(h0, h1, nodes=201, beta=1.0, t_final=1.0):
    times = np.linspace(0.0, t_final, nodes)
    hams = np.array([h0 + (t / t_final) * (h1 - h0) for t in times])
    return gt.Protocol(times=times, hamiltonians=hams, beta=beta)


class TestProtocolValidation:
    def test_rejects_nonuniform_grid(self):
        times = np.array([0.0, 0.1, 0.3])
        hams = np.zeros((3, 2, 2), dtype=complex)
        with pytest.raises(ValidationError):
            gt.Protocol(times=times, hamiltonians=hams, beta=1.0)

    def test_rejects_nonzero_origin(self):
        times = np.array([1.0, 2.0, 3.0])
        hams = np.zeros((3, 2, 2), dtype=complex)
        with pytest.raises(ValidationError):
            gt.Protocol(times=times, hamiltonians=hams, beta=1.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            gt.Protocol(
                times=np.array([0.0, 1.0]),
                hamiltonians=np.zeros((3, 2, 2), dtype=complex),
                beta=1.0,
            )

    def test_rejects_bad_beta(self):
        times = np.array([0.0, 1.0])
        hams = np.zeros((2, 2, 2), dtype=complex)
        for beta in (0.0, -1.0, math.inf):
            with pytest.raises((ValidationError, ValueError)):
                gt.Protocol(times=times, hamiltonians=hams, beta=beta)

    def test_rejects_nonhermitian_node(self):
        hams = np.zeros((2, 2, 2), dtype=complex)
        hams[1, 0, 1] = 1.0
        with pytest.raises(ValidationError):
            gt.Protocol(times=np.array([0.0, 1.0]), hamiltonians=hams, beta=1.0)

    def test_rejects_nan_node(self):
        hams = np.zeros((3, 2, 2), dtype=complex)
        hams[1, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="node 1"):
            gt.Protocol(times=np.array([0.0, 0.5, 1.0]), hamiltonians=hams, beta=1.0)

    def test_midpoint_check_names_its_step(self):
        # every node is Hermitian to 1e-12 of its 1e6 scale, but the midpoint
        # of A + S and -A + S is the skew part S alone; evolve checks the
        # midpoints a node block at a time and must still name the step
        block = BLOCK_BYTES // (16 * 2 * 2)
        a = np.diag([1e6, -1e6]).astype(complex)
        skew = np.array([[0.0, 1e-7], [-1e-7, 0.0]], dtype=complex)
        hams = np.repeat((a + skew)[None], block + 10, axis=0)
        hams[block + 4] = -a + skew
        p = gt.Protocol(times=np.linspace(0.0, 1.0, block + 10), hamiltonians=hams, beta=1.0)
        with pytest.raises(ValidationError, match=f"operator {block + 3} is not Hermitian"):
            gt.evolve(p, np.eye(2, dtype=complex) / 2)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("node", [1, 4])
    def test_rejects_nonfinite_grid(self, bad, node):
        # every comparison with NaN is false and inf sets its own scale, so
        # the uniformity test alone lets such a grid through
        times = np.arange(5.0)
        times[node] = bad
        with pytest.raises(ValidationError, match="time grid must be finite"):
            gt.Protocol(times=times, hamiltonians=np.zeros((5, 2, 2), dtype=complex), beta=1.0)

    def test_uniformity_tolerance_is_tight(self):
        times = np.linspace(0.0, 1.0, 11)
        times[5] += 100 * GRID_UNIFORMITY_TOL
        with pytest.raises(ValidationError):
            gt.Protocol(times=times, hamiltonians=np.zeros((11, 2, 2), dtype=complex), beta=1.0)


@pytest.mark.parametrize(
    "dtype, stored",
    [(np.float64, np.float64), (np.float32, np.float64), (np.int64, np.float64),
     (np.complex128, np.complex128), (np.complex64, np.complex128)],
)
def test_protocol_keeps_real_stacks_real(dtype, stored):
    """A protocol stores its stack float64 if it is real and complex128 if it
    is complex, here with every imaginary part 0."""
    hams = np.repeat(np.diag([1, -1])[None], 3, axis=0).astype(dtype)
    p = gt.Protocol(times=np.array([0.0, 0.5, 1.0]), hamiltonians=hams, beta=1.0)
    assert p.hamiltonians.dtype == stored
    assert np.array_equal(p.hamiltonians, hams)


def test_cumtrap_matches_scipy_bit_for_bit():
    """_cumtrap takes scipy's cumulative_trapezoid operations in its order, so
    the series agree bit for bit, from two nodes up and over wide scales."""
    rng = np.random.default_rng(5)
    for n in (2, 3, *rng.integers(4, 10002, size=40)):
        scale = 10.0 ** rng.uniform(-10, 10)
        y, dt = scale * rng.normal(size=n), float(10.0 ** rng.uniform(-4, 0))
        assert np.array_equal(_cumtrap(y, dt), cumulative_trapezoid(y, dx=dt, initial=0.0)), (n, scale)


class TestEvolve:
    def test_constant_hamiltonian_exact(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = ramp_protocol(h, h, nodes=101)
        rho0 = random_density(2, np.random.default_rng(0))
        ev = gt.evolve(p, rho0)
        u_exact = scipy.linalg.expm(-1j * p.tau * h)
        assert np.allclose(ev.propagators[-1], u_exact, atol=1e-10)
        assert np.allclose(
            ev.states[-1], u_exact @ rho0 @ u_exact.conj().T, atol=1e-10
        )

    def test_propagators_unitary_states_normalized(self):
        rng = np.random.default_rng(1)
        p = gt.random_protocol(3, 61, rng, beta=1.0)
        rho0 = random_density(3, rng)
        ev = gt.evolve(p, rho0)
        for j in (0, 30, 60):
            u = ev.propagators[j]
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
            assert np.trace(ev.states[j]).real == pytest.approx(1.0, abs=1e-10)
            assert np.allclose(ev.states[j], ev.states[j].conj().T, atol=1e-10)

    def test_twirled_states_consistent(self):
        rng = np.random.default_rng(2)
        p = gt.random_protocol(4, 41, rng, degenerate=True, beta=1.0)
        rho0 = random_density(4, rng)
        ev = gt.evolve(p, rho0)
        for j in (0, 20, 40):
            expect = gt.twirl(ev.states[j], ev.structures[j])
            assert np.allclose(ev.twirled_states[j], expect, atol=1e-12)

    def test_initial_state_preserved(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = ramp_protocol(h, 2 * h)
        rho0 = random_density(2, np.random.default_rng(3))
        ev = gt.evolve(p, rho0)
        assert np.allclose(ev.states[0], rho0, atol=1e-14)
        assert np.allclose(ev.propagators[0], np.eye(2), atol=1e-14)


class TestWorkHeat:
    def test_constant_hamiltonian_no_work(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = ramp_protocol(h, h, nodes=101)
        rho0 = random_density(2, np.random.default_rng(4))
        ev = gt.evolve(p, rho0)
        tl = gt.ledger(p, ev)
        assert np.max(np.abs(tl.w_u)) < 1e-12
        assert np.max(np.abs(tl.w_inv)) < 1e-12
        assert np.max(np.abs(tl.q_u)) < 1e-10
        assert np.max(np.abs(tl.q_c)) < 1e-10

    def test_first_law_and_heat_split(self, lz_run):
        tl, tol = lz_run.tl, lz_run.tol
        # u - u_0 = w_u + q_u within quadrature error; q_inv = q_u + q_c exactly
        du = tl.u - tl.u[0]
        assert np.max(np.abs(du - (tl.w_u + tl.q_u))) < tol
        assert np.max(np.abs(tl.q_inv - (tl.q_u + tl.q_c))) < 1e-14
        # with q_u ~ 0 the closing value of w_u is the energy difference
        assert tl.w_u[-1] == pytest.approx(tl.u[-1] - tl.u[0], abs=tol)
        assert np.max(np.abs(du - (tl.w_inv + tl.q_c))) < tol

    def test_unitary_heat_vanishes(self, lz_run):
        # closed dynamics: Tr(rho_dot H) = -i Tr([H, rho] H) = 0
        assert np.max(np.abs(lz_run.tl.q_u)) < 1e-6
        assert abs(lz_run.tl.q_u[-1]) < 1e-10

    def test_identity_within_declared_tolerance(self, lz_run):
        tl, tol = lz_run.tl, lz_run.tol
        assert np.max(np.abs(tl.w_u - tl.w_inv - tl.q_c)) <= tol

    def test_grid_refinement_quadratic(self):
        # halving dt must shrink both the final-work error and the identity
        # residual at least 3x (second-order propagator and quadrature)
        h0 = 1.0 * SX + np.diag([0.5, -0.5])
        h1 = 0.3 * SX + np.diag([-1.0, 1.0])
        w_final, resid = [], []
        for nodes in (101, 201, 401):
            p = ramp_protocol(h0.astype(complex), h1.astype(complex), nodes=nodes, beta=2.0)
            rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
            ev = gt.evolve(p, rho0)
            tl = gt.ledger(p, ev)
            w_final.append(tl.w_u[-1])
            resid.append(np.max(np.abs(tl.w_u - tl.w_inv - tl.q_c)))
        assert abs(w_final[0] - w_final[1]) / abs(w_final[1] - w_final[2]) > 3.0
        assert resid[0] / resid[1] > 3.0
        assert resid[1] / resid[2] > 3.0

    def test_entropy_columns_identities(self, lz_run):
        tl = lz_run.tl
        assert np.max(np.abs(tl.s_gt - (tl.s_d + tl.s_gamma))) < 1e-10
        assert np.min(tl.s_gt) > -1e-12
        assert np.min(tl.c_rel) > -1e-12


class TestIntegrationTolerance:
    def test_rejects_tiny_grids(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = ramp_protocol(h, 2 * h, nodes=3)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        ev = gt.evolve(p, rho0)
        with pytest.raises(ValueError):
            gt.integration_tolerance(p, ev)

    def test_smooth_protocol_tolerance_scale(self, lz_run):
        # quadratic integrator on a smooth two-level sweep: well under 1e-5
        assert 1e-9 < lz_run.tol < 1e-5

    def test_tolerance_covers_identity_residual(self, cw_run):
        tl, tol = cw_run.tl, cw_run.tol
        assert np.max(np.abs(tl.w_u - tl.w_inv - tl.q_c)) <= tol


def test_coarse_grid_is_not_validated_again(monkeypatch):
    """The coarse grid's Hamiltonians are nodes of the protocol, already
    validated when it was built: neither the streamed nor the stored
    tolerance checks them again."""
    p = _ramp12(41, seed=43)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    calls = []
    validate = gt.dynamics.validate_hermitian
    monkeypatch.setattr(
        gt.dynamics, "validate_hermitian", lambda *a, **k: calls.append(1) or validate(*a, **k)
    )
    gt.integration_tolerance(p, ev)
    gt.stream_run(p, rho0)
    assert calls == []


class TestAlignedFrames:
    @pytest.mark.parametrize("case", ["landau_zener", "ramp12"])
    def test_closed_form_matches_aligned_frame_route(self, case, request):
        """D_t H = V Edot V^dag: the check's level-space sums give, within the
        run's integration tolerance, what the connection of the aligned
        eigenframe gives, on the Landau-Zener run and on a non-commuting
        ramp over four node blocks."""
        if case == "landau_zener":
            run = request.getfixturevalue("lz_run")
            p, ev, tol = run.p, run.ev, run.tol
        else:
            p = _ramp12(3 * BLOCK12 + 5, seed=31)
            rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
            ev = gt.evolve(p, rho0)
            tol = gt.integration_tolerance(p, ev)
        cc = gt.connection_cross_check(p, ev)
        assert cc.performed
        w_ref, q_ref = frame_route(p, ev)
        assert np.max(np.abs(cc.w_cov - w_ref)) < tol
        assert np.max(np.abs(cc.q_cov - q_ref)) < tol

    def test_connection_invariant_under_eigenvector_gauge(self):
        rng = np.random.default_rng(7)
        p = gt.random_protocol(3, 81, rng, beta=1.0)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        ev = gt.evolve(p, rho0)
        tl = gt.ledger(p, ev)
        phases = np.exp(2j * np.pi * rng.random((p.n_nodes, 1, 3)))
        scrambled = dataclasses.replace(ev.structures, basis=ev.structures.basis * phases)
        ev2 = dataclasses.replace(ev, structures=scrambled)
        a = gt.connection_cross_check(p, ev, tl)
        b = gt.connection_cross_check(p, ev2, tl)
        assert a.performed and b.performed
        assert np.max(np.abs(a.w_cov - b.w_cov)) < 1e-12
        assert np.max(np.abs(a.q_cov - b.q_cov)) < 1e-12

    def test_connection_cross_check_on_smooth_sweep(self, lz_run):
        p, ev = lz_run.p, lz_run.ev
        cc = gt.connection_cross_check(p, ev, lz_run.tl)
        assert cc.performed
        assert np.max(cc.w_deviation) < 10 * lz_run.tol
        assert np.max(cc.q_deviation) < 10 * lz_run.tol
        w_ref, q_ref = closed_form_route(p, ev)
        assert np.max(np.abs(cc.w_cov - w_ref)) <= 1e-12 * np.max(np.abs(w_ref))
        assert np.max(np.abs(cc.q_cov - q_ref)) <= 1e-12 * np.max(np.abs(q_ref))

    def test_connection_skipped_when_levels_merge(self, cw_run):
        cc = gt.connection_cross_check(cw_run.p, cw_run.ev, cw_run.tl)
        assert not cc.performed
        assert "degenerate" in cc.reason


class TestClausius:
    def test_nonthermal_start_not_applicable(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        p = ramp_protocol(h, 2 * h, nodes=51)
        rho0 = np.diag([0.9, 0.1]).astype(complex)
        ev = gt.evolve(p, rho0)
        tl = gt.ledger(p, ev)
        rep = gt.clausius_report(p, ev, tl)
        assert not rep.applicable
        assert "gibbs" in rep.reason
        assert rep.worst_slacks() == {}

    def test_all_slacks_nonnegative(self, lz_run):
        rep = gt.clausius_report(lz_run.p, lz_run.ev, lz_run.tl)
        assert rep.applicable
        for name, worst in rep.worst_slacks().items():
            assert worst >= -1e-6, name

    def test_balance_is_equality(self, lz_run):
        rep = gt.clausius_report(lz_run.p, lz_run.ev, lz_run.tl)
        assert np.max(np.abs(rep.balance_residual)) < 1e-10

    def test_balance_on_merging_protocol(self, cw_run):
        rep = gt.clausius_report(cw_run.p, cw_run.ev, cw_run.tl)
        assert rep.applicable
        assert np.max(np.abs(rep.balance_residual)) < 1e-6
        for name, worst in rep.worst_slacks().items():
            assert worst >= -1e-6, name


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000))
def test_small_protocol_invariants_property(seed):
    rng = np.random.default_rng(seed)
    p = gt.random_protocol(int(rng.integers(2, 5)), 41, rng, beta=1.0)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    tl = gt.ledger(p, ev)
    tol = gt.integration_tolerance(p, ev)
    du = tl.u - tl.u[0]
    assert np.max(np.abs(du - (tl.w_u + tl.q_u))) < tol
    assert np.max(np.abs(tl.w_u - (tl.w_inv + tl.q_c))) < tol
    assert np.max(np.abs(tl.s_gt - (tl.s_d + tl.s_gamma))) < 1e-9
    u = ev.propagators[-1]
    assert np.allclose(u @ u.conj().T, np.eye(p.dim), atol=1e-9)


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(0, 10_000),
    dim=st.integers(2, 5),
    degenerate=st.booleans(),
    thermal=st.booleans(),
)
@example(seed=2425, dim=5, degenerate=False, thermal=False)
@example(seed=2425, dim=5, degenerate=True, thermal=True)
@example(seed=2425, dim=5, degenerate=True, thermal=False)
@example(seed=7178, dim=5, degenerate=True, thermal=False)
@example(seed=9021, dim=5, degenerate=False, thermal=True)
@example(seed=9021, dim=5, degenerate=True, thermal=True)
def test_level_space_ledger_matches_matrix_routes(seed, dim, degenerate, thermal):
    rng = np.random.default_rng(seed)
    beta = float(0.5 + 1.5 * rng.random())
    p = gt.random_protocol(dim, 21, rng, degenerate=degenerate, beta=beta)
    rho0 = gt.gibbs_state(p.hamiltonians[0], beta)[0] if thermal else random_density(dim, rng)
    ev = gt.evolve(p, rho0)
    tl = gt.ledger(p, ev)
    for j in range(p.n_nodes):
        sigma, ln_z = gt.gibbs_state(p.hamiltonians[j], beta)
        # references built here, apart from the level-space kernel: the twirl
        # from the projector formula, s_gt as its von Neumann entropy, and s_d
        # from the full basis change B^dag rho B
        rho, ds = ev.states[j], ev.structures[j]
        proj = [ds.projector(k) for k in range(ds.n_levels)]
        pops = np.array([np.trace(pk @ rho).real for pk in proj])
        reference = sum(pk * (q / n) for pk, q, n in zip(proj, pops, ds.mults))
        s_gt = gt.von_neumann_entropy(reference)
        s_vn = gt.von_neumann_entropy(rho)
        s_d = shannon_entropy(np.diag(ds.basis.conj().T @ rho @ ds.basis).real)
        twirled = ev.twirled_states[j]
        assert np.max(np.abs(twirled - reference)) < 1e-12
        assert tl.s_gt[j] == pytest.approx(s_gt, abs=1e-10)
        assert tl.s_d[j] == pytest.approx(s_d, abs=1e-10)
        assert tl.c_rel[j] == pytest.approx(s_d - s_vn, abs=1e-10)
        assert tl.s_gamma[j] == pytest.approx(s_gt - s_d, abs=1e-10)
        # the general matrix routes on the twirled state the ledger describes.
        # The matrix route's Tr(rho ln sigma) loses about eps * sum_k p_k / q_k
        # (level populations p, Gibbs weights q) where a Gibbs weight is small;
        # the level-space value works from log-weights and keeps its digits
        gibbs = gt.thermal_level_distribution(ds, beta).probs
        rel_tol = 1e-10 + 4 * np.finfo(float).eps * np.sum(pops / gibbs)
        assert tl.rel_ent[j] == pytest.approx(gt.relative_entropy(twirled, sigma), abs=rel_tol)
        assert tl.f_eq[j] == pytest.approx(-ln_z / beta, abs=1e-10)
        # bures_angle takes the polar route, which keeps its digits as F -> 1,
        # so the angles are compared at every node, as are the fidelities
        fid = gt.fidelity(twirled, sigma)
        assert math.cos(tl.bures[j]) ** 2 == pytest.approx(fid, abs=1e-10)
        assert tl.bures[j] == pytest.approx(gt.bures_angle(twirled, sigma), abs=1e-7)
    if degenerate:
        assert ev.structures[0].degenerate and ev.structures[-1].degenerate
    # the neighbour-trace integrands against central-difference stacks, also
    # on a result rebuilt with gauge-conjugated states as the gauge suite does;
    # relative to the column or, where a column vanishes exactly (q_c on a
    # single-level run), to the protocol's energy scale
    energy = np.max(np.abs(p.hamiltonians))
    conj, conj_twirled, _ = gauge_conjugates(ev, range(p.n_nodes), rng)
    rebuilt = dataclasses.replace(ev, states=conj, twirled_states=conj_twirled)
    for run in (ev, rebuilt):
        series = gt.work_heat_series(p, run)
        h_dot = np.gradient(p.hamiltonians, p.dt, axis=0)
        reference = {
            "w_u": _cumtrap(traces(run.states, h_dot), p.dt),
            "w_inv": _cumtrap(traces(run.twirled_states, h_dot), p.dt),
            "q_c": _cumtrap(traces(np.gradient(run.twirled_states, p.dt, axis=0), p.hamiltonians), p.dt),
            "q_u": _cumtrap(traces(np.gradient(run.states, p.dt, axis=0), p.hamiltonians), p.dt),
            "u": traces(run.states, p.hamiltonians),
        }
        for name, ref in reference.items():
            err = np.max(np.abs(getattr(series, name) - ref))
            assert err <= 1e-10 * max(np.max(np.abs(ref)), energy), name


def test_divergence_columns_keep_their_sign():
    """rel_ent and s_gamma are divergences, summed from termwise-nonnegative
    terms, so they keep their sign at round-off: a constant protocol of a
    real degenerate H (levels of multiplicity 2, 3 and 1 in a random
    orthogonal basis) from its thermal state, where both vanish exactly.
    Summed as p ln(p/q) and as s_gt - s_d they read -2.5e-16 and -4.3e-14."""
    from scipy.stats import ortho_group

    q = ortho_group.rvs(6, random_state=0)
    h = q @ np.diag([0.0, 0.0, 0.7, 0.7, 0.7, 1.9]) @ q.T
    p = constant_protocol((h + h.T) / 2, 1.0, 1.0, 101)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    tl = gt.stream_run(p, rho0).tl
    assert tl.rel_ent.min() >= 0.0 and tl.s_gamma.min() >= 0.0
    assert tl.rel_ent.max() < 1e-14 and tl.s_gamma.max() < 1e-14


def test_eigendecomposition_budget(monkeypatch):
    rng = np.random.default_rng(5)
    p = gt.random_protocol(4, 41, rng, degenerate=True, beta=1.0)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    counts = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        fn = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            shape = np.shape(a)
            counts[name] += int(np.prod(shape[:-2]))  # a stacked call counts each matrix
            return fn(a, *args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    ev = gt.evolve(p, rho0)
    gt.ledger(p, ev)
    gt.integration_tolerance(p, ev)
    # one eigh per node and per midpoint; the tolerance's coarse steps come
    # from the decompositions of the odd nodes that ev's levels record holds
    assert counts["eigh"] <= 2 * p.n_nodes
    assert counts["eigvalsh"] <= 3
    # the streamed run decomposes each node once, inside its pass: one eigh
    # per node and per fine midpoint, 2n - 1 in all
    counts["eigh"] = 0
    gt.stream_run(p, rho0)
    assert counts["eigh"] <= 2 * p.n_nodes


def test_stacked_passes_hold_a_few_blocks(tmp_path):
    """Beyond what they return, evolve, ledger and integration_tolerance hold
    a few node blocks of temporaries, not whole (n, d, d) stacks; a whole
    `gaugetherm run` holds a few blocks and per-node rows, not its
    Hamiltonians, which its protocol makes a node block at a time."""
    p = gt.curie_weiss_protocol(n_spins=40, nodes=401)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    stack = p.n_nodes * p.dim**2 * np.dtype(complex).itemsize
    config = tmp_path / "curie_weiss.ini"
    config.write_text(
        "[model]\nname = curie_weiss\nnodes = 401\n\n"
        "[params]\nj = 1.0\nn_spins = 40\nb_start = 2.0\nb_end = 0.0\n\n"
        "[run]\nemit = clausius,ft,gauge_check,ledger,third_law\n"
    )

    def traced(fn):
        """fn's result, its peak above the memory held before it, and the
        memory it leaves held, both in stacks."""
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
        return out, (peak - held) / stack, (current - held) / stack

    tracemalloc.start()
    try:
        ev, evolve_peak, evolve_kept = traced(lambda: gt.evolve(p, rho0))
        _, ledger_peak, _ = traced(lambda: gt.ledger(p, ev))
        _, tolerance_peak, _ = traced(lambda: gt.integration_tolerance(p, ev))
        del ev
        code, run_peak, _ = traced(lambda: cmd_run(str(config), str(tmp_path / "out")))
    finally:
        tracemalloc.stop()
    # states, twirled states and propagators, and the node bases, which are
    # real for this real protocol: half a stack
    assert evolve_kept >= 3.5
    assert evolve_peak <= evolve_kept + 0.25
    assert ledger_peak <= 0.25
    # the coarse run is folded into its neighbour traces a node block at a
    # time, so it keeps no coarse stack
    assert tolerance_peak <= 0.5
    # the run makes the Hamiltonians and decomposes them a node block at a
    # time inside its pass, and folds the pass into the ledger, the tolerance
    # and the checks: it stores no Hamiltonian stack, no state stack and no
    # node bases, only (n, d) rows such as the level-basis diagonals
    assert code == 0
    assert run_peak <= 0.25


def test_neighbour_traces_across_node_blocks():
    """The work/heat integrands, folded over the node blocks, agree with traces
    of full matrix products, on a stack of several node blocks, so every block
    edge and its one-node halo is crossed."""
    rng = np.random.default_rng(17)
    d, dt = 12, 0.1
    n = 3 * (BLOCK_BYTES // (16 * d * d)) + 5
    s = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    h = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    h = h + np.swapaxes(h, -1, -2).conj()

    def full(a, b):
        return np.trace(a @ b, axis1=-2, axis2=-1).real

    fold = _PowerIntegrands(n)
    for b in node_blocks(n, d):
        fold.add(b, _Window(h, 0), s[b])
    [(work, heat, same)] = fold.integrands(dt)
    assert np.allclose(same, full(s, h), rtol=0.0, atol=1e-11)
    assert np.allclose(work, full(s, np.gradient(h, dt, axis=0)), rtol=0.0, atol=1e-10)
    assert np.allclose(heat, full(np.gradient(s, dt, axis=0), h), rtol=0.0, atol=1e-10)


def _ramp12(nodes: int, seed: int) -> gt.Protocol:
    """A d = 12 ramp between two random Hermitian endpoints."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 12, 12)) + 1j * rng.normal(size=(2, 12, 12))
    g = (g + np.swapaxes(g, -1, -2).conj()) / 2
    return ramp_protocol(g[0], g[1], nodes=nodes, beta=0.7)


BLOCK12 = node_blocks(10**6, 12)[0].stop  # nodes per node block at d = 12


def _coarse_reference(p: gt.Protocol, ev: gt.EvolutionResult) -> tuple[float, float]:
    """integration_tolerance from a coarse run of whole stacks: steps
    scipy.linalg.expm(-2i dt H_{2k+1}) at the odd fine nodes, states twirled
    on the levels of the even ones, and the work/heat series as trapezoid sums
    of np.gradient traces; and the largest fine series entry, its scale."""
    h, dt, rho0 = p.hamiltonians, 2 * p.dt, ev.states[0]
    hc = h[::2]
    props = [np.eye(p.dim, dtype=complex)]
    for k in range(len(hc) - 1):
        props.append(scipy.linalg.expm(-2j * p.dt * h[2 * k + 1]) @ props[-1])
    states = np.array([u @ rho0 @ u.conj().T for u in props])
    twirled = np.array([gt.twirl(rho, ds) for rho, ds in zip(states, ev.structures[::2])])
    h_dot = np.gradient(hc, dt, axis=0)
    coarse = {
        "w_u": _cumtrap(traces(states, h_dot), dt),
        "w_inv": _cumtrap(traces(twirled, h_dot), dt),
        "q_c": _cumtrap(traces(np.gradient(twirled, dt, axis=0), hc), dt),
        "q_u": _cumtrap(traces(np.gradient(states, dt, axis=0), hc), dt),
    }
    fine = gt.work_heat_series(p, ev)
    worst = max(float(np.max(np.abs(getattr(fine, k)[::2] - c))) for k, c in coarse.items())
    scale = max(float(np.max(np.abs(getattr(fine, k)))) for k in coarse)
    return 1.5 * worst + 1e-12, scale


LONG12 = 2 * (3 * BLOCK12 + 5)  # a fine grid of seven node blocks at d = 12


@pytest.mark.parametrize(
    "nodes, one_node_blocks",
    [
        pytest.param(n, one, id=f"{n}{'-one_node_blocks' if one else ''}")
        for n, one in [(5, False), (LONG12 - 1, False), (LONG12, False), (13, True)]
    ],
)
def test_streamed_coarse_run_matches_stacked_reference(nodes, one_node_blocks, monkeypatch):
    """integration_tolerance folds the coarse run block by block, its step k
    taken at fine node 2k + 1 from the levels record: it matches a coarse run
    of scipy step exponentials within 1e-12 of the series' scale, and gives
    bit for bit one value with the fine series rebuilt or read from the
    ledger, and in stream_run. The two long grids (an odd and an even node
    count) span seven node blocks, which start at odd and at even nodes, and
    a block that starts at an even node takes its first step from the halo; with
    one node per block (as for d > 128) every odd node is a block with no
    coarse node, and every coarse step but the first comes from the halo."""
    if one_node_blocks:
        monkeypatch.setattr(gt.linalg, "BLOCK_BYTES", 16 * 12 * 12)
    p = _ramp12(nodes, seed=nodes)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    blocks = len(node_blocks(p.n_nodes, p.dim))
    assert blocks == p.n_nodes if one_node_blocks else blocks >= (7 if nodes > 5 else 1)
    reference, scale = _coarse_reference(p, ev)
    tol = gt.integration_tolerance(p, ev)
    assert abs(tol - reference) <= 1e-12 * scale
    assert gt.integration_tolerance(p, ev, gt.ledger(p, ev)) == tol
    assert gt.stream_run(p, rho0).tol == tol


def test_evolve_across_node_blocks():
    """The pass carries the running propagator from block to block: on four
    node blocks every cumulative propagator and state matches the product of
    scipy step exponentials."""
    p = _ramp12(3 * BLOCK12 + 5, seed=11)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    h, u = p.hamiltonians, np.eye(12, dtype=complex)
    for j in range(p.n_nodes):
        assert np.allclose(ev.propagators[j], u, rtol=0.0, atol=1e-10), j
        assert np.allclose(ev.states[j], u @ rho0 @ u.conj().T, rtol=0.0, atol=1e-10), j
        if j + 1 < p.n_nodes:
            u = scipy.linalg.expm(-1j * p.dt * (h[j] + h[j + 1]) / 2.0) @ u


class TestPassNamesGlobalIndices:
    """The evolution pass checks a node block at a time; a fault in the third
    block is named by its step or node index in the whole protocol."""

    n, bad = 3 * BLOCK12 + 5, 2 * BLOCK12 + 7

    def test_midpoint(self):
        # every node is Hermitian to 1e-12 of its 1e6 scale, but the midpoints
        # next to node `bad` are the skew part alone
        a = np.diag(np.linspace(-1e6, 1e6, 12)).astype(complex)
        skew = np.zeros((12, 12), dtype=complex)
        skew[0, 1], skew[1, 0] = 1e-7, -1e-7
        hams = np.repeat((a + skew)[None], self.n, axis=0)
        hams[self.bad] = -a + skew
        p = gt.Protocol(times=np.linspace(0.0, 1.0, self.n), hamiltonians=hams, beta=1.0)
        with pytest.raises(ValidationError, match=f"operator {self.bad - 1} is not Hermitian"):
            gt.evolve(p, np.eye(12, dtype=complex) / 12)

    def test_level_populations(self):
        p = _ramp12(self.n, seed=3)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        lv = gt.evolve(p, rho0).structures
        basis = lv.basis.copy()
        basis[self.bad] *= 2.0
        lv = dataclasses.replace(lv, basis=basis)
        run = _Propagator(rho0)
        with pytest.raises(ValidationError, match=f"level populations at node {self.bad} "):
            for s in node_blocks(p.n_nodes, p.dim):
                run.block(s, lv[s], _steps(_window(p, s), s, -1j * p.dt))

    @pytest.mark.parametrize(
        "state, message",
        [(np.eye(12) / 6, "trace is"), (np.diag([1.5, -0.5] + [0.0] * 10), "has eigenvalue")],
    )
    def test_density(self, state, message):
        stack = np.repeat(np.eye(12, dtype=complex)[None] / 12, self.n, axis=0)
        stack[self.bad] = state
        for s in node_blocks(self.n, 12):
            if s.start <= self.bad < s.stop:
                with pytest.raises(ValidationError, match=f"node {self.bad} {message}"):
                    validate_density(stack[s], "state at node", first=s.start)
            else:
                validate_density(stack[s], "state at node", first=s.start)


class TestStreamRunRaisesInNodeOrder:
    """stream_run raises a fault in its last node block as the stored route
    does, and a fault in an earlier block first."""

    n = 3 * BLOCK12 + 5
    last = node_blocks(n, 12)[-1]
    # a spacing of 0.6 under an absolute clustering tolerance of 1 chains
    # every level of a node into one wider than the tolerance
    tols = dict(cluster_tol_abs=1.0, cluster_tol_rel=0.0)

    def _protocol(self, hams: np.ndarray) -> gt.Protocol:
        hams[self.last] = np.diag(0.6 * np.arange(12))
        return gt.Protocol(times=np.linspace(0.0, 1.0, self.n), hamiltonians=hams, beta=1.0)

    def test_fault_in_the_last_block(self):
        hams = np.repeat(np.diag(2.0 * np.arange(12)).astype(complex)[None], self.n, axis=0)
        p = self._protocol(hams)
        rho0 = np.eye(12, dtype=complex) / 12
        with pytest.raises(ValidationError) as stored:
            gt.evolve(p, rho0, **self.tols)
        assert "chains eigenvalues" in str(stored.value)
        with pytest.raises(ValidationError) as streamed:
            gt.stream_run(p, rho0, **self.tols)
        assert str(streamed.value) == str(stored.value)

    def test_an_earlier_fault_comes_first(self):
        # the non-Hermitian midpoint of TestPassNamesGlobalIndices.test_midpoint,
        # in the third of four blocks
        bad = TestPassNamesGlobalIndices.bad
        a = np.diag(np.linspace(-1e6, 1e6, 12)).astype(complex)
        skew = np.zeros((12, 12), dtype=complex)
        skew[0, 1], skew[1, 0] = 1e-7, -1e-7
        hams = np.repeat((a + skew)[None], self.n, axis=0)
        hams[bad] = -a + skew
        p = self._protocol(hams)
        with pytest.raises(ValidationError, match=f"operator {bad - 1} is not Hermitian"):
            gt.stream_run(p, np.eye(12, dtype=complex) / 12, **self.tols)


def _assert_stream_run_matches_stored_route(p: gt.Protocol):
    """Every number of stream_run equals, bit for bit, what evolve, ledger,
    integration_tolerance and connection_cross_check give from the stored
    stacks: the ledger, the tolerance, the connection check, the kept nodes'
    states, twirled states, propagators and levels, and every node's
    degenerate flag."""
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    run = gt.stream_run(p, rho0)
    ev = gt.evolve(p, rho0)
    tl = gt.ledger(p, ev)
    for field in dataclasses.fields(tl):
        assert np.array_equal(getattr(run.tl, field.name), getattr(tl, field.name)), field.name
    assert run.tol == gt.integration_tolerance(p, ev, tl)
    cc = gt.connection_cross_check(p, ev, tl)
    for field in dataclasses.fields(cc):
        a, b = getattr(run.connection, field.name), getattr(cc, field.name)
        assert (a is None and b is None) or np.array_equal(a, b), field.name

    nodes = [0, p.n_nodes // 2, p.n_nodes - 1]
    assert run.nodes == nodes
    assert np.array_equal(run.ev.states, ev.states[nodes])
    assert np.array_equal(run.ev.twirled_states, ev.twirled_states[nodes])
    assert np.array_equal(run.ev.propagators, ev.propagators[nodes])
    assert np.array_equal(run.ev.propagators[-1], ev.propagators[-1])  # U_tau
    kept = ev.structures[nodes]
    for field in dataclasses.fields(kept):
        assert np.array_equal(getattr(run.ev.structures, field.name), getattr(kept, field.name)), field.name
    assert np.array_equal(run.degenerate, [ds.degenerate for ds in ev.structures])
    return run


@pytest.mark.parametrize(
    "protocol",
    [
        lambda: _ramp12(3 * BLOCK12 + 5, seed=29),
        lambda: gt.curie_weiss_protocol(n_spins=20, nodes=801),
    ],
    ids=["ramp12", "curie_weiss"],
)
def test_stream_run_matches_stored_route(protocol):
    """stream_run decomposes the node Hamiltonians and folds one pass over
    node blocks into the ledger, the tolerance and the connection check, with
    the numbers of the stored route. Both protocols span four node blocks or
    more, and the ramp does not commute with itself, so its states move;
    Curie-Weiss is degenerate at its last node, so its check is skipped."""
    p = protocol()
    assert len(node_blocks(p.n_nodes, p.dim)) >= 4
    run = _assert_stream_run_matches_stored_route(p)
    assert run.connection.performed == (p.dim == 12)


def test_stream_run_at_one_node_per_block(monkeypatch):
    """With one node per block, as for d > 128, every block edge is a node:
    the connection check's halo is the previous node at each, and every odd block
    has no coarse node. An odd node count ends the fine and the coarse grid
    on a shared node."""
    monkeypatch.setattr(gt.linalg, "BLOCK_BYTES", 16 * 12 * 12)
    p = _ramp12(13, seed=37)
    assert len(node_blocks(p.n_nodes, p.dim)) == p.n_nodes
    _assert_stream_run_matches_stored_route(p)


def test_stream_run_on_one_level():
    """d = 1, which a matrix file may declare: a constant protocol keeps its
    Hamiltonians and its state, does no work, and stream_run equals the
    stored route."""
    p = constant_protocol(np.array([[0.7]], dtype=complex), beta=1.0, t_final=1.0, nodes=9)
    h = p.hamiltonians.copy()
    run = _assert_stream_run_matches_stored_route(p)
    assert np.array_equal(p.hamiltonians, h)
    assert np.allclose(run.ev.states, 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(run.tl.w_u, 0.0, rtol=0.0, atol=1e-14)
    assert np.allclose(run.tl.f_eq, 0.7, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("d", range(4, 13))
def test_stream_run_matches_stored_route_on_real_thermal_start(d):
    """A real, non-diagonal ramp from its Gibbs state: gibbs_state gives a
    real state, which both routes take as complex, so stream_run's von
    Neumann entropy (c_rel) and everything else equal the stored route's bit
    for bit."""
    rng = np.random.default_rng(d)
    g = rng.normal(size=(2, d, d))
    g = (g + np.swapaxes(g, -1, -2)) / 2
    p = ramp_protocol(g[0], g[1], nodes=41, beta=0.7)
    assert p.hamiltonians.dtype == gt.gibbs_state(p.hamiltonians[0], p.beta)[0].dtype == np.float64
    _assert_stream_run_matches_stored_route(p)


def _crossing(nodes: int) -> gt.Protocol:
    """A d = 3 ramp whose two lower levels cross at the middle node only, in a
    fixed random basis, so the nodes are not diagonal."""
    q, _ = np.linalg.qr(np.random.default_rng(41).normal(size=(3, 3)))
    h0, h1 = (q @ np.diag(e) @ q.T for e in ([-1.0, 1.0, 3.0], [1.0, -1.0, 3.0]))
    return ramp_protocol(h0.astype(complex), h1.astype(complex), nodes=nodes)


@pytest.mark.parametrize("one_node_blocks", [False, True])
def test_stream_run_names_the_first_degenerate_node(one_node_blocks, monkeypatch):
    """A protocol degenerate only inside its grid is found degenerate during
    the pass, not before it: the skipped check names the node that the stored
    route names."""
    if one_node_blocks:
        monkeypatch.setattr(gt.linalg, "BLOCK_BYTES", 16 * 3 * 3)
    p = _crossing(21)
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    assert [j for j, ds in enumerate(ev.structures) if ds.degenerate] == [10]
    run = gt.stream_run(p, rho0)
    assert not run.connection.performed
    assert run.connection.reason == gt.connection_cross_check(p, ev).reason
    assert "node 10;" in run.connection.reason
    _assert_stream_run_matches_stored_route(p)


@pytest.mark.parametrize("one_node_blocks", [False, True])
def test_connection_check_across_node_blocks(one_node_blocks, monkeypatch):
    """The connection check takes its central differences a node block at a
    time; across four blocks, or with one node per block (as for d > 128), it
    agrees with the whole-stack closed form sum x . np.gradient(e)."""
    p = _ramp12(9 if one_node_blocks else 3 * BLOCK12 + 5, seed=31)
    if one_node_blocks:
        monkeypatch.setattr(gt.linalg, "BLOCK_BYTES", 16 * 12 * 12)
        assert len(node_blocks(p.n_nodes, p.dim)) == p.n_nodes
    rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
    ev = gt.evolve(p, rho0)
    cc = gt.connection_cross_check(p, ev)
    assert cc.performed
    w_ref, q_ref = closed_form_route(p, ev)
    scale = max(1.0, float(np.max(np.abs(cc.w_cov))), float(np.max(np.abs(cc.q_cov))))
    assert np.allclose(cc.w_cov, w_ref, rtol=0.0, atol=1e-12 * scale)
    assert np.allclose(cc.q_cov, q_ref, rtol=0.0, atol=1e-12 * scale)
    run = gt.stream_run(p, rho0)
    assert np.array_equal(run.connection.w_cov, cc.w_cov)
    assert np.array_equal(run.connection.q_cov, cc.q_cov)


def _real_ramp12(nodes: int, seed: int) -> gt.Protocol:
    """A d = 12 ramp between two random real-symmetric endpoints that do not
    commute: the protocol's stack is float64, the states are complex."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 12, 12))
    g = (g + np.swapaxes(g, -1, -2)) / 2
    return ramp_protocol(g[0], g[1], nodes=nodes, beta=0.7)


class TestRealSolverSwitch:
    """The dtype of a protocol's stack picks the solver. A real (float64)
    protocol is decomposed by the real-symmetric solver and keeps real
    eigenvectors in every levels record: the pass's blocks, evolve's stack
    and stream_run's kept nodes. A complex protocol takes the complex solver
    in every block and keeps complex bases, even where its entries are
    exactly real."""

    def test_curie_weiss_decomposes_real_stacks_only(self, monkeypatch):
        p = gt.curie_weiss_protocol(n_spins=20, nodes=401)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        calls = eigh_inputs(monkeypatch)
        run = gt.stream_run(p, rho0)
        assert calls and {dtype for dtype, _ in calls} == {np.dtype(np.float64)}
        assert run.ev.structures.basis.dtype == np.float64
        assert gt.evolve(p, rho0).structures.basis.dtype == np.float64

    def test_random_protocol_decomposes_complex_stacks_only(self, monkeypatch):
        p = gt.random_protocol(5, 301, np.random.default_rng(3), beta=1.0)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        calls = eigh_inputs(monkeypatch)
        run = gt.stream_run(p, rho0)
        assert calls and {dtype for dtype, _ in calls} == {np.dtype(np.complex128)}
        assert run.ev.structures.basis.dtype == np.complex128

    def test_one_complex_node_makes_every_block_complex(self, monkeypatch):
        """A real ramp over four node blocks with a Hermitian imaginary part on
        one node inside the second block is a complex protocol: every block's
        decomposition and midpoints run complex, and every basis is complex."""
        p = _real_ramp12(3 * BLOCK12 + 5, seed=43)
        k = BLOCK12 + BLOCK12 // 2
        a = np.random.default_rng(47).normal(size=(12, 12))
        hams = p.hamiltonians.astype(complex)
        hams[k] += 0.1j * (a - a.T)
        p = gt.Protocol(times=p.times, hamiltonians=hams, beta=p.beta)
        rho0, _ = gt.gibbs_state(hams[0], p.beta)
        calls = eigh_inputs(monkeypatch)
        ev = gt.evolve(p, rho0)
        blocks = node_blocks(p.n_nodes, p.dim)
        assert len(blocks) == 4 and blocks[1].start < k < blocks[1].stop - 1
        assert p.hamiltonians.dtype == np.complex128
        # per block: its nodes, then the midpoints that lead into its nodes
        assert [dtype for dtype, _ in calls] == [np.dtype(np.complex128)] * 8
        assert [count for _, count in calls[::2]] == [s.stop - s.start for s in blocks]
        assert ev.structures.basis.dtype == np.complex128
        assert gt.stream_run(p, rho0).ev.structures.basis.dtype == np.complex128

    def test_real_pass_matches_expm_product_and_complex_solver(self, monkeypatch):
        """On a real, non-commuting ramp over four node blocks, the real
        pass's propagators and states match a product of scipy step
        exponentials, its bases are real, and stream_run matches the same
        protocol stored complex, which takes the complex solver and keeps
        complex bases."""
        p = _real_ramp12(3 * BLOCK12 + 5, seed=53)
        rho0, _ = gt.gibbs_state(p.hamiltonians[0], p.beta)
        calls = eigh_inputs(monkeypatch)
        ev = gt.evolve(p, rho0)
        assert {dtype for dtype, _ in calls} == {np.dtype(np.float64)}
        assert ev.structures.basis.dtype == np.float64
        h, u = p.hamiltonians, np.eye(12, dtype=complex)
        for j in range(p.n_nodes):
            assert np.allclose(ev.propagators[j], u, rtol=0.0, atol=1e-10), j
            assert np.allclose(ev.states[j], u @ rho0 @ u.conj().T, rtol=0.0, atol=1e-10), j
            if j + 1 < p.n_nodes:
                u = scipy.linalg.expm(-1j * p.dt * (h[j] + h[j + 1]) / 2.0) @ u

        real = gt.stream_run(p, rho0)
        calls.clear()
        cplx = gt.stream_run(dataclasses.replace(p, hamiltonians=p.hamiltonians.astype(complex)), rho0)
        assert {dtype for dtype, _ in calls} == {np.dtype(np.complex128)}
        assert real.connection.performed and cplx.connection.performed
        assert real.ev.structures.basis.dtype == np.float64
        assert cplx.ev.structures.basis.dtype == np.complex128
        pairs = [(getattr(real.tl, f.name), getattr(cplx.tl, f.name)) for f in dataclasses.fields(real.tl)]
        pairs += [(real.connection.w_cov, cplx.connection.w_cov), (real.connection.q_cov, cplx.connection.q_cov)]
        pairs += [(real.ev.states, cplx.ev.states), (real.ev.twirled_states, cplx.ev.twirled_states)]
        pairs += [(real.ev.propagators, cplx.ev.propagators), (real.tol, cplx.tol)]
        for a, b in pairs:
            assert np.allclose(a, b, rtol=0.0, atol=1e-12)

    def test_real_basis_products_match_complex_route(self):
        """level_space and level_twirl on a real basis take real products; at
        d = 51, over several node blocks of random complex states and real
        orthogonal bases with degenerate levels, they match the same calls on
        the basis cast to complex within 1e-14, and the twirl stays complex."""
        rng = np.random.default_rng(61)
        d, n = 51, 20
        assert len(node_blocks(n, d)) >= 3
        basis = np.linalg.qr(rng.normal(size=(n, d, d)))[0]
        states = np.array([random_density(d, rng) for _ in range(n)])
        mults = np.tile([1, 3, 2] * 8 + [3], n)  # 25 levels per node
        starts = np.arange(n) * 25
        diag, pops = level_space(states, basis, mults, starts)
        diag_c, pops_c = level_space(states, basis.astype(complex), mults, starts)
        assert np.allclose(diag, diag_c, rtol=0.0, atol=1e-14)
        assert np.allclose(pops, pops_c, rtol=0.0, atol=1e-14)
        twirled = level_twirl(pops, basis, mults)
        assert twirled.dtype == np.complex128
        assert np.allclose(twirled, level_twirl(pops_c, basis.astype(complex), mults), rtol=0.0, atol=1e-14)
