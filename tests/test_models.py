"""Model builders, the fuzz-case generator, and the low-temperature scan."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import gaugetherm as gt
from gaugetherm.gauge import cluster_spectrum, default_cluster_tol_abs
from gaugetherm.linalg import eigh, node_blocks
from gaugetherm.models import MODELS, _random_hermitian, constant_protocol, read_matrix_file


class TestHamiltonians:
    def test_avoided_crossing_eigenvalues(self):
        delta, v = 2.0, 1.0
        for t in (-1.0, 0.0, 0.3, 1.0):
            h = gt.landau_zener(delta, v, t)
            w = np.linalg.eigvalsh(h)
            e = 0.5 * math.hypot(delta, v * t)
            assert w == pytest.approx([-e, e], abs=1e-12)
        assert np.allclose(gt.landau_zener(delta, v, 0.0), delta / 2 * np.array([[0, 1], [1, 0]]))

    def test_collective_spin_free_case(self):
        # J=0, N=2: pure Zeeman term, energies -B*m for m = -1, 0, 1
        h = gt.curie_weiss(0.0, 2, 1.0)
        assert np.allclose(h, np.diag([1.0, 0.0, -1.0]))

    def test_collective_spin_zero_field_levels(self):
        h = gt.curie_weiss(1.0, 4, 0.0)
        ds = gt.cluster_spectrum(eigh(h), gt.default_cluster_tol_abs(h))
        assert ds.energies == pytest.approx([-1.0, -0.25, 0.0], abs=1e-12)
        assert tuple(ds.mults) == (2, 2, 1)
        assert ds.energies[1] - ds.energies[0] == pytest.approx(0.75)

    def test_collective_spin_rejects_bad_size(self):
        with pytest.raises(ValueError):
            gt.curie_weiss(1.0, 0, 1.0)


class TestProtocolBuilders:
    def test_avoided_crossing_protocol(self):
        p = gt.landau_zener_protocol()
        assert p.label == "landau_zener"
        assert len(p.times) == 1001
        assert p.times[-1] == pytest.approx(1.0)
        assert np.allclose(p.hamiltonians[0], gt.landau_zener(2.0, 1.0, 0.0))
        assert np.allclose(p.hamiltonians[-1], gt.landau_zener(2.0, 1.0, 1.0))

    def test_field_ramp_protocol(self):
        p = gt.curie_weiss_protocol()
        assert p.label == "curie_weiss"
        assert len(p.times) == 2001
        assert p.hamiltonians.shape[1] == 51
        assert np.allclose(p.hamiltonians[0], gt.curie_weiss(1.0, 50, 2.0))
        assert np.allclose(p.hamiltonians[-1], gt.curie_weiss(1.0, 50, 0.0))

    def test_stacked_builders_equal_the_per_node_hamiltonians(self):
        p = gt.landau_zener_protocol(delta=0.3, v=-2.7, t_final=3.3, nodes=57)
        assert np.array_equal(
            p.hamiltonians, np.stack([gt.landau_zener(0.3, -2.7, t) for t in p.times])
        )
        p = gt.curie_weiss_protocol(
            j_coupling=0.7, n_spins=7, b_start=-1.0, b_end=3.0, t_final=2.5, nodes=33
        )
        b_grid = -1.0 + (p.times / 2.5) * 4.0
        assert np.array_equal(p.hamiltonians, np.stack([gt.curie_weiss(0.7, 7, b) for b in b_grid]))
        with pytest.raises(ValueError):
            gt.curie_weiss_protocol(n_spins=0)

    def test_field_ramp_builder_holds_no_stack(self):
        # the protocol makes its Hamiltonians a node block at a time, and its
        # checks hold one block and one transposed copy of it (9 of the 401
        # nodes here); the stacked builder peaked at one real stack
        stack = 401 * 41 * 41 * 8
        tracemalloc.start()
        try:
            gt.curie_weiss_protocol(n_spins=40, nodes=401)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * stack

    def test_builders_are_real(self):
        assert gt.landau_zener(2.0, 1.0, 0.3).dtype == np.float64
        assert gt.curie_weiss(1.0, 4, 0.5).dtype == np.float64
        assert gt.landau_zener_protocol(nodes=11).hamiltonians.dtype == np.float64
        assert gt.curie_weiss_protocol(n_spins=4, nodes=11).hamiltonians.dtype == np.float64

    def test_field_ramp_rejects_coarse_tolerance(self):
        # a clustering tolerance beating the smallest on-grid splitting would
        # silently merge +-m pairs before the field vanishes
        with pytest.raises(gt.ValidationError):
            gt.curie_weiss_protocol(nodes=101, cluster_tol_abs=1.0)


def _landau_zener_case():
    p = gt.landau_zener_protocol(delta=0.3, v=-2.7, t_final=3.3, nodes=4100)
    return p, lambda j: gt.landau_zener(0.3, -2.7, p.times[j])


def _curie_weiss_case():
    p = gt.curie_weiss_protocol(n_spins=20, nodes=801)
    fields = 2.0 + (p.times / p.tau) * (0.0 - 2.0)
    return p, lambda j: gt.curie_weiss(1.0, 20, fields[j])


def _random_case():
    rng = np.random.default_rng(5)
    h_a, h_end = _random_hermitian(8, rng), _random_hermitian(8, rng)  # random_protocol's draws
    p = gt.random_protocol(8, 773, np.random.default_rng(5), beta=1.0)
    return p, lambda j: h_a + (p.times[j] / p.tau) * (h_end - h_a)


def _matrix_case():
    h = _random_hermitian(12, np.random.default_rng(9))
    return constant_protocol(h, 1.0, 1.0, 344), lambda j: h


@pytest.mark.parametrize(
    "case, blocks",
    [(_landau_zener_case, 2), (_curie_weiss_case, 22), (_random_case, 4), (_matrix_case, 4)],
    ids=["landau_zener", "curie_weiss", "random", "matrix"],
)
def test_builders_make_every_node_block_bit_equal(case, blocks):
    """The builders' protocols make their nodes a block at a time with the
    single-node builder's operations: over several node blocks, every node
    of every block equals the single-node Hamiltonian bit for bit, and
    stream_run gives the same numbers bit for bit as on the protocol that
    stores the materialized stack."""
    p, node = case()
    assert len(node_blocks(p.n_nodes, p.dim)) == blocks
    for s in node_blocks(p.n_nodes, p.dim):
        h = p.block(s)
        assert h.dtype == p.dtype
        for j in range(s.start, s.stop):
            assert np.array_equal(h[j - s.start], node(j)), j
    stored = gt.Protocol(times=p.times, hamiltonians=p.hamiltonians, beta=p.beta)
    assert stored.dtype == p.dtype
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    made, kept = gt.stream_run(p, rho0), gt.stream_run(stored, rho0)
    for f in dataclasses.fields(made.tl):
        assert np.array_equal(getattr(made.tl, f.name), getattr(kept.tl, f.name)), f.name
    for f in dataclasses.fields(made.connection):
        a, b = getattr(made.connection, f.name), getattr(kept.connection, f.name)
        assert (a is None and b is None) or np.array_equal(a, b), f.name
    assert made.tol == kept.tol
    assert np.array_equal(made.degenerate, kept.degenerate)
    for f in dataclasses.fields(made.ev):
        a, b = getattr(made.ev, f.name), getattr(kept.ev, f.name)
        if f.name == "structures":
            for g in dataclasses.fields(a):
                assert np.array_equal(getattr(a, g.name), getattr(b, g.name)), g.name
        else:
            assert np.array_equal(a, b), f.name


@pytest.mark.parametrize(
    "build",
    [
        lambda: gt.landau_zener_protocol(delta=math.nan),
        lambda: gt.curie_weiss_protocol(j_coupling=math.nan, n_spins=20, nodes=801),
        lambda: gt.curie_weiss_protocol(b_end=math.nan, n_spins=20, nodes=801),
        lambda: constant_protocol(np.array([[0.0, math.nan], [math.nan, 1.0]]), 1.0, 1.0, 11),
    ],
    ids=["landau_zener_delta", "curie_weiss_j", "curie_weiss_b_end", "matrix"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_model_parameter_names_the_node(build):
    """A NaN model parameter is refused as the stored stack was: the same
    ValidationError, naming node 0, whose Hamiltonian is not finite."""
    with pytest.raises(gt.ValidationError) as err:
        build()
    assert str(err.value) == "hamiltonian at node 0 has non-finite entries"


def test_made_protocol_names_the_node_the_stored_one_names():
    """A protocol made by a function is checked a node block at a time, with
    the stored stack's errors: a non-finite node in the fourth block is named
    before a node of the second block that is only not Hermitian, and that
    node when every node is finite."""
    d = 12
    n, block = 3 * node_blocks(10**6, d)[0].stop + 5, node_blocks(10**6, d)[0].stop
    skew, bad = block + 3, 3 * block + 2
    hams = np.repeat(np.eye(d)[None], n, axis=0)
    hams[skew, 0, 1] = 1.0
    times = np.linspace(0.0, 1.0, n)
    for entry, node, what in (
        (math.nan, bad, "has non-finite entries"),
        (1.0, skew, "is not Hermitian within tolerance"),
    ):
        hams[bad, 2, 2] = entry
        messages = []
        for given in (hams, lambda s: hams[s].copy()):
            with pytest.raises(gt.ValidationError) as err:
                gt.Protocol(times=times, hamiltonians=given, beta=1.0)
            messages.append(str(err.value))
        assert messages == [f"hamiltonian at node {node} {what}"] * 2


class TestRandomProtocol:
    def test_deterministic_per_seed(self):
        a = gt.random_protocol(4, 11, np.random.default_rng(5))
        b = gt.random_protocol(4, 11, np.random.default_rng(5))
        assert np.array_equal(a.hamiltonians, b.hamiltonians)

    def test_degenerate_endpoints(self):
        p = gt.random_protocol(5, 21, np.random.default_rng(7), degenerate=True)
        for j in (0, -1):
            w = np.sort(np.linalg.eigvalsh(p.hamiltonians[j]))
            assert np.min(np.diff(w)) < 1e-12
        w_mid = np.sort(np.linalg.eigvalsh(p.hamiltonians[10]))
        assert np.min(np.diff(w_mid)) > 1e-6

    def test_dimension_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            gt.random_protocol(1, 11, rng)
        with pytest.raises(ValueError):
            gt.random_protocol(9, 11, rng)
        with pytest.raises(ValueError):
            gt.random_protocol(4, 1, rng)


class TestThirdLawScan:
    def test_unique_ground_state_entropy_vanishes(self):
        scan = gt.third_law_scan(np.diag([0.0, 1.0]), np.geomspace(1.0, 1e6, 13))
        assert scan.ground_multiplicity == 1
        assert scan.gap == pytest.approx(1.0)
        assert np.all(np.diff(scan.s_gt) <= 1e-12)
        assert scan.s_gt[-1] == pytest.approx(0.0, abs=1e-12)

    def test_doubly_degenerate_ground_state(self):
        scan = gt.third_law_scan(np.diag([0.0, 0.0, 1.0]), np.geomspace(1.0, 1e6, 13))
        assert scan.ground_multiplicity == 2
        assert scan.s_gt[-1] == pytest.approx(math.log(2), abs=1e-12)

    def test_clustering_tolerances(self):
        """The scan clusters h with the given tolerances: a 0.001 splitting is
        two levels by default and one doublet under cluster_tol_abs = 0.01."""
        h, betas = np.diag([0.0, 0.001, 2.0]), np.geomspace(1.0, 1e6, 13)
        assert gt.third_law_scan(h, betas).ground_multiplicity == 1
        merged = gt.third_law_scan(h, betas, cluster_tol_abs=0.01)
        assert merged.ground_multiplicity == 2
        assert merged.gap == pytest.approx(1.9995, abs=1e-12)
        assert merged.s_gt[-1] == pytest.approx(math.log(2), abs=1e-12)
        assert gt.third_law_scan(h, betas, cluster_tol_rel=0.01).ground_multiplicity == 2

    def test_small_magnet_saturates_at_ln2(self):
        h = gt.curie_weiss(1.0, 4, 0.0)
        gap = 0.75
        scan = gt.third_law_scan(h, np.geomspace(0.1 / gap, 1e6 / gap, 25))
        assert scan.gap == pytest.approx(gap)
        assert scan.ground_multiplicity == 2
        assert abs(scan.s_gt[-1] - math.log(2)) < 1e-4
        assert np.all(np.diff(scan.s_gt) <= 1e-12)

    def test_matches_s_gauge_of_the_thermal_levels(self):
        """The scan takes every beta in one call; it equals s_gauge of
        thermal_level_distribution beta by beta, on the Curie-Weiss end
        Hamiltonian up to 1e6 over its gap."""
        h = gt.curie_weiss(1.0, 50, 0.0)
        ds = cluster_spectrum(eigh(h), default_cluster_tol_abs(h))
        gap = float(ds.energies[1] - ds.energies[0])
        betas = np.geomspace(0.01, 1e6 / gap, 40)
        scan = gt.third_law_scan(h, betas)
        reference = [gt.s_gauge(gt.thermal_level_distribution(ds, float(b))) for b in betas]
        assert np.max(np.abs(scan.s_gt - reference)) <= 1e-14
        assert scan.s_gt[-1] == pytest.approx(math.log(2), abs=1e-14)

    def test_beta_grid_validation(self):
        h = np.diag([0.0, 1.0])
        with pytest.raises(ValueError):
            gt.third_law_scan(h, [])
        with pytest.raises(ValueError):
            gt.third_law_scan(h, [2.0, 1.0])
        with pytest.raises(ValueError):
            gt.third_law_scan(h, [-1.0, 1.0])


class TestModelSpec:
    def test_missing_param_named(self):
        with pytest.raises(ValueError, match="delta"):
            gt.ModelSpec(name="landau_zener", nodes=11, t_final=1.0, beta=1.0, params={"v": 1.0})

    def test_unknown_param_named(self):
        with pytest.raises(ValueError, match="ramp_rate"):
            gt.ModelSpec(
                name="landau_zener",
                nodes=11,
                t_final=1.0,
                beta=1.0,
                params={"delta": 2.0, "v": 1.0, "ramp_rate": 3.0},
            )

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="ising"):
            gt.ModelSpec(name="ising", nodes=11, t_final=1.0, beta=1.0, params={})

    def test_bad_scalars(self):
        good = {"delta": 2.0, "v": 1.0}
        with pytest.raises(ValueError):
            gt.ModelSpec(name="landau_zener", nodes=1, t_final=1.0, beta=1.0, params=good)
        with pytest.raises(ValueError):
            gt.ModelSpec(name="landau_zener", nodes=11, t_final=1.0, beta=0.0, params=good)
        with pytest.raises(ValueError):
            gt.ModelSpec(name="landau_zener", nodes=11, t_final=0.0, beta=1.0, params=good)

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("random", {"dim": 3.7, "degenerate": 0}, "dim"),
            ("random", {"dim": 3, "degenerate": 0.5}, "degenerate"),
            ("random", {"dim": 3, "degenerate": 2}, "degenerate"),
            ("curie_weiss", {"j": 1.0, "n_spins": 4.9, "b_start": 2.0, "b_end": 0.0}, "n_spins"),
            ("curie_weiss", {"j": 1.0, "n_spins": math.inf, "b_start": 2.0, "b_end": 0.0}, "n_spins"),
        ],
    )
    def test_integer_params_checked(self, name, params, key):
        """dim and n_spins must be integers and degenerate 0 or 1, not
        truncated or read as a truth value."""
        with pytest.raises(ValueError, match=f"param '{key}'"):
            gt.ModelSpec(name=name, nodes=11, t_final=1.0, beta=1.0, params=params)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            gt.ModelSpec(
                name="random", nodes=11, t_final=1.0, beta=1.0, params={"dim": 3, "degenerate": 0}, seed=-1
            )

    def test_dispatch(self):
        for name, params in (
            ("landau_zener", {"delta": 2.0, "v": 1.0}),
            ("curie_weiss", {"j": 1.0, "n_spins": 8, "b_start": 2.0, "b_end": 1.0}),
            ("random", {"dim": 3, "degenerate": False}),
        ):
            spec = gt.ModelSpec(name=name, nodes=11, t_final=1.0, beta=1.0, params=params)
            p = gt.build_protocol(spec)
            assert p.label == name
            assert len(p.times) == 11
        spec = gt.ModelSpec(
            name="random",
            nodes=11,
            t_final=1.0,
            beta=1.0,
            params={"dim": 3, "degenerate": False},
            seed=4,
        )
        a = gt.build_protocol(spec)
        b = gt.build_protocol(spec)
        assert np.array_equal(a.hamiltonians, b.hamiltonians)

    def test_required_params_registry_is_total(self):
        assert set(MODELS) == {"landau_zener", "curie_weiss", "random", "matrix"}
        # the builders' grid and temperature defaults are the table's
        for name, builder in (
            ("landau_zener", gt.landau_zener_protocol),
            ("curie_weiss", gt.curie_weiss_protocol),
        ):
            p = builder()
            assert (p.n_nodes, p.tau, p.beta) == tuple(MODELS[name][k] for k in ("nodes", "t_final", "beta"))

    def test_matrix_model(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("2\n0 1\n1 0\n")
        spec = gt.ModelSpec(name="matrix", nodes=5, t_final=2.0, beta=1.0, matrix_path=str(path))
        p = gt.build_protocol(spec)
        assert p.label == "matrix" and p.n_nodes == 5 and p.tau == 2.0
        assert np.array_equal(p.hamiltonians[-1], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="requires key 'matrix_path'"):
            gt.ModelSpec(name="matrix", nodes=5, t_final=1.0, beta=1.0)
        with pytest.raises(ValueError, match="only valid for model 'matrix'"):
            gt.ModelSpec(
                name="random", nodes=5, t_final=1.0, beta=1.0,
                params={"dim": 2, "degenerate": 0}, matrix_path=str(path),
            )


@pytest.mark.parametrize(
    "text, dtype",
    [
        ("2\n0 1\n1 -2\n", np.float64),
        ("2\n0+0i 1-0i\n1+0i -2\n", np.float64),
        ("2\n0 1+0.5i\n1-0.5i -2\n", np.complex128),
    ],
    ids=["real", "zero_imaginary_parts", "complex"],
)
def test_read_matrix_file_is_real_without_an_imaginary_part(tmp_path, text, dtype):
    path = tmp_path / "h.txt"
    path.write_text(text)
    h = read_matrix_file(str(path))
    assert h.dtype == dtype
    assert h[0, 1] == (1.0 + 0.5j if dtype == np.complex128 else 1.0)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read matrix file"),
        ("\n\n", "is empty"),
        ("two\n0 1\n1 0\n", "first line must be the dimension"),
        ("2\n0 1\n1\n", "row 2 has 1 entries, expected 2"),
        ("2\n0 nan\nnan 0\n", "entries must be finite"),
    ],
    ids=["missing", "empty", "dimension", "short_row", "non_finite"],
)
def test_read_matrix_file_errors(tmp_path, text, message):
    path = tmp_path / "h.txt"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read_matrix_file(str(path))
