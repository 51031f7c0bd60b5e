"""Degeneracy clustering and twirl tests."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugetherm as gt
from gaugetherm.gauge import (
    DegeneracyStructure,
    cluster_spectra,
    cluster_spectrum,
    default_cluster_tol_abs,
    sample_gauge_element,
    twirl,
    twirl_oracle,
)
from gaugetherm.linalg import ValidationError, eigh, haar_unitary, node_blocks, von_neumann_entropy

from test_linalg import random_density


def structure_of(h: np.ndarray, **kw):
    return cluster_spectrum(eigh(h), default_cluster_tol_abs(h), **kw)


def test_cluster_exact_degeneracy():
    ds = structure_of(np.diag([0.0, 0.0, 1.0]).astype(complex))
    assert tuple(ds.mults) == (2, 1)
    assert np.allclose(ds.energies, [0.0, 1.0])
    assert ds.degenerate
    p0 = ds.projector(0)
    assert np.allclose(p0 @ p0, p0, atol=1e-14)
    assert np.trace(p0).real == pytest.approx(2.0)
    # projector onto the split-off level is orthogonal to it
    assert np.allclose(p0 @ ds.projector(1), 0.0, atol=1e-14)


def test_cluster_rejects_chained_level():
    # consecutive gaps of 0.9 tol each, so no single gap splits the chain,
    # but the 40 eigenvalues span 35 tol
    tol = 1e-6
    w = np.concatenate([0.9 * tol * np.arange(40), [1.0]])
    es = eigh(np.diag(w).astype(complex))
    with pytest.raises(ValidationError, match="wider than the tolerance"):
        cluster_spectrum(es, tol, tol_rel=0.0)


def test_cluster_near_degeneracy_tolerance():
    h = np.diag([0.0, 1e-13, 1.0]).astype(complex)
    assert tuple(structure_of(h).mults) == (2, 1)
    h2 = np.diag([0.0, 1e-3, 1.0]).astype(complex)
    assert tuple(structure_of(h2).mults) == (1, 1, 1)
    # widening the absolute tolerance merges the pair
    ds = cluster_spectrum(eigh(h2), 1e-2)
    assert tuple(ds.mults) == (2, 1)


def test_cluster_rejects_nonorthonormal_basis():
    w, V = eigh(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValidationError):
        cluster_spectrum((w, V * 1.5), 1e-9)


def test_cluster_refuses_an_unsorted_spectrum():
    """A negative gap counted as inside a level, so (1, 0) clustered into one
    level of multiplicity 2 at energy 0.5; in a stack, one descending pair
    among ascending spectra is refused too."""
    with pytest.raises(ValidationError, match="ascending"):
        cluster_spectrum((np.array([1.0, 0.0]), np.eye(2)), 1e-9)
    w = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    with pytest.raises(ValidationError, match="ascending"):
        cluster_spectra(w, np.stack([np.eye(3)] * 2), 1e-9)
    assert cluster_spectra(w[:1], np.eye(3)[None], 1e-9).mults.tolist() == [1, 1, 1]


@pytest.mark.parametrize(
    "w, basis_entry, message",
    [
        # a NaN gap compares false both ways: one level at energy nan
        pytest.param([0.0, np.nan, 1.0], 1.0, "eigenvalues must be finite", id="nan_eigenvalue"),
        # an infinite spectral radius makes the tolerance infinite: one level at inf
        pytest.param([0.0, 1.0, np.inf], 1.0, "eigenvalues must be finite", id="inf_eigenvalue"),
        # a NaN Gram entry passed a check that compared with >
        pytest.param([0.0, 1.0, 2.0], np.nan, "not orthonormal", id="nan_basis"),
    ],
)
def test_cluster_rejects_non_finite_input(w, basis_entry, message):
    V = np.eye(3)
    V[0, 0] = basis_entry
    with pytest.raises(ValidationError, match=message):
        cluster_spectra(np.array([w]), V[None], 1e-9)


@pytest.mark.parametrize(
    "kw",
    [
        {"cluster_tol_abs": np.nan},
        {"cluster_tol_abs": np.inf},
        {"cluster_tol_rel": np.nan},
        {"cluster_tol_rel": np.inf},
    ],
)
def test_cluster_rejects_non_finite_tolerances(kw):
    """Such a tolerance merged the two Landau-Zener levels (gap >= 2) into one
    level of multiplicity 2 at every node."""
    p = gt.landau_zener_protocol(nodes=11)
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        gt.evolve(p, rho0, **kw)


def test_twirl_block_mixing_hand_value():
    # d=3, levels (n=2, n=1); pure state spread p / (1-p) across the blocks
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    ds = structure_of(h)
    p = 0.3
    psi = np.array([np.sqrt(p), 0.0, np.sqrt(1 - p)], dtype=complex)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(twirl(rho, ds), np.diag([p / 2, p / 2, 1 - p]), atol=1e-14)


def test_twirl_properties_random_basis():
    rng = np.random.default_rng(10)
    u = haar_unitary(4, rng)
    h = u @ np.diag([0.0, 0.0, 1.0, 2.0]) @ u.conj().T
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    rho = random_density(4, rng)
    te = twirl(rho, ds)
    assert np.trace(te).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(te, twirl(te, ds), atol=1e-12)
    assert np.allclose(te @ h, h @ te, atol=1e-10)
    assert np.min(np.linalg.eigvalsh(te)) > -1e-12


def test_twirl_oracle_matches_exact():
    rng = np.random.default_rng(21)
    u = haar_unitary(3, rng)
    h = u @ np.diag([0.0, 0.0, 2.0]) @ u.conj().T
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    rho = random_density(3, rng)
    samples = 4000
    dev = np.max(np.abs(twirl_oracle(rho, ds, samples, rng) - twirl(rho, ds)))
    assert dev < 3 / np.sqrt(samples) + 1e-3


def test_twirl_oracle_of_real_operands():
    """A real state and a real level basis sum complex gauge elements: the
    oracle's average is complex, and it meets the oracle bound."""
    rng = np.random.default_rng(23)
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    ds = structure_of(q @ np.diag([0.0, 0.0, 1.0, 1.0]) @ q.T)
    rho = q @ np.diag([0.4, 0.3, 0.2, 0.1]) @ q.T
    rho = (rho + rho.T) / 2
    assert ds.basis.dtype == rho.dtype == np.float64
    samples = 4000
    mc = twirl_oracle(rho, ds, samples, rng)
    assert mc.dtype == np.complex128
    assert np.max(np.abs(mc - twirl(rho, ds))) < 3 / np.sqrt(samples) + 1e-3


def _oracle_case(seed: int, dim: int):
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    w = np.arange(dim, dtype=float)
    w[1] = w[0]  # a degenerate ground pair next to simple levels
    h = (u * w) @ u.conj().T
    return structure_of((h + h.conj().T) / 2), random_density(dim, rng)


def test_twirl_oracle_single_sample_is_one_gauge_element():
    """At one sample the oracle is V rho V^dag with the gauge element
    sample_gauge_element draws from the same stream."""
    ds, rho = _oracle_case(31, 4)
    v = sample_gauge_element(ds, np.random.default_rng(5))
    one = twirl_oracle(rho, ds, 1, np.random.default_rng(5))
    assert np.allclose(one, v @ rho @ v.conj().T, rtol=0.0, atol=1e-12)


def test_twirl_oracle_across_sample_blocks():
    """A sample count one past a block still meets the oracle bound, and a
    seed fixes the result."""
    ds, rho = _oracle_case(32, 3)
    samples = node_blocks(10**6, ds.dim)[0].stop + 1
    mc = twirl_oracle(rho, ds, samples, np.random.default_rng(9))
    assert np.max(np.abs(mc - twirl(rho, ds))) < 3 / np.sqrt(samples) + 1e-3
    assert np.array_equal(mc, twirl_oracle(rho, ds, samples, np.random.default_rng(9)))


def test_twirl_oracle_validates_its_state():
    ds, rho = _oracle_case(33, 4)
    bad = rho.copy()
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        twirl_oracle(bad, ds, 10, np.random.default_rng(0))
    with pytest.raises(ValidationError, match="dimension"):
        twirl_oracle(np.eye(3, dtype=complex) / 3, ds, 10, np.random.default_rng(0))


def test_gauge_element_structure():
    rng = np.random.default_rng(4)
    h = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    ds = structure_of(h)
    v = sample_gauge_element(ds, rng)
    assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-12)
    # commutes with every level projector, hence with H
    for k in range(ds.n_levels):
        pk = ds.projector(k)
        assert np.allclose(v @ pk, pk @ v, atol=1e-12)
    rho = random_density(4, rng)
    moved = v @ rho @ v.conj().T
    assert np.allclose(twirl(moved, ds), twirl(rho, ds), atol=1e-12)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000))
def test_twirl_is_entropy_nondecreasing(seed):
    rng = np.random.default_rng(seed)
    u = haar_unitary(4, rng)
    h = u @ np.diag([0.0, 0.0, 1.0, 1.0]) @ u.conj().T
    h = (h + h.conj().T) / 2
    ds = structure_of(h)
    rho = random_density(4, rng)
    assert von_neumann_entropy(twirl(rho, ds)) >= von_neumann_entropy(rho) - 1e-10


def test_structure_from_levels_alone():
    """spectra, first and basis fix the whole level layout: a structure
    built from them alone samples gauge elements and enumerates the TPM
    ensemble exactly as cluster_spectrum's own structures do."""
    rng = np.random.default_rng(12)
    p = gt.random_protocol(5, 21, rng, degenerate=True, beta=1.0)
    rho0 = random_density(5, rng)
    ev = gt.evolve(p, rho0)
    rebuilt = [
        DegeneracyStructure(spectra=ds.spectra, first=ds.first, basis=ds.basis)
        for ds in ev.structures
    ]
    ds = rebuilt[0]
    assert ds.degenerate
    v = sample_gauge_element(ds, rng)
    assert np.allclose(v @ v.conj().T, np.eye(ds.dim), atol=1e-12)
    projectors = [ds.projector(k) for k in range(ds.n_levels)]
    for pk in projectors:
        assert np.allclose(v @ pk, pk @ v, atol=1e-12)
    assert np.allclose(sum(projectors), np.eye(ds.dim), atol=1e-12)
    assert [i for s in ds.slices for i in range(ds.dim)[s]] == list(range(ds.dim))

    def ensemble(structures):
        run = dataclasses.replace(ev, structures=structures)
        fwd = gt.level_distribution(rho0, structures[0])
        rev = gt.thermal_level_distribution(structures[-1], p.beta)
        return gt.build_ensemble(p, fwd, rev, run)

    want, got = ensemble(ev.structures), ensemble(rebuilt)
    for name in ("transition", "reverse_transition", "joint_forward", "joint_reverse", "sigma"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


@pytest.mark.parametrize("dim, nodes", [(5, 201), (8, 3 * node_blocks(10**6, 8)[0].stop + 5)])
def test_gauge_conjugates_twirl_the_stack_as_twirl_does_each_state(dim, nodes):
    """gauge_conjugates twirls the conjugated stack in one pass of the
    level-space kernel (over two node blocks at d = 8); each row is the
    array twirl gives for that state alone, and the rng draws are unchanged."""
    from gaugetherm.verify import gauge_conjugates

    rng = np.random.default_rng(dim)
    p = gt.random_protocol(dim, nodes, rng, degenerate=True, beta=1.0)
    ev = gt.evolve(p, random_density(dim, rng))
    picked = range(0, nodes, 2)
    conj, twirled, worst = gauge_conjugates(ev, picked, np.random.default_rng(1))
    draws = np.random.default_rng(1)
    for i, j in enumerate(picked):
        v = sample_gauge_element(ev.structures[j], draws)
        assert np.array_equal(conj[i], v @ ev.states[j] @ v.conj().T)
        assert np.array_equal(twirled[i], twirl(conj[i], ev.structures[j]))
    assert worst == float(np.max(np.abs(twirled - ev.twirled_states[list(picked)])))


def test_node_levels_indexing():
    """An evolve run's levels record, over several node blocks at d = 8: an int
    (negative too) and iteration give that node's own structure, the
    clustering of its Hamiltonian, as views of its rows; every other key cuts
    the three stacks as numpy does, so a slice of any step, stride 2
    included, is a view of the record and an index list is a copy, and each
    node of the cut has its own levels, none on an empty cut; degenerate
    flags each node. One node's record has no length and does not iterate,
    where it counted and iterated its d eigenvectors."""
    rng = np.random.default_rng(31)
    n = 3 * node_blocks(10**6, 8)[0].stop + 5
    p = gt.random_protocol(8, n, rng, degenerate=True, beta=1.0)
    lv = gt.evolve(p, random_density(8, rng)).structures
    assert len(lv) == n and lv.spectra.shape == lv.first.shape == (n, 8)
    block = node_blocks(n, 8)[0].stop
    for j in (0, block - 1, block, n - 1):  # each node's own clustering, block edges included
        ds = structure_of(p.block(j))
        assert np.array_equal(lv[j].mults, ds.mults)
        assert np.allclose(lv[j].energies, ds.energies, atol=1e-12)

    def same(ds, j):
        """ds holds node j's levels as the record's stacks give them."""
        first = lv.first[j]
        return (
            np.array_equal(ds.energies, lv.spectra[j][first])
            and np.array_equal(np.repeat(ds.energies, ds.mults), lv.spectra[j])
            and np.array_equal(ds.mults, np.diff(np.append(np.flatnonzero(first), 8)))
            and np.array_equal(ds.basis, lv.basis[j])
        )

    assert all(same(lv[j], j) and same(lv[j - n], j) for j in range(n))
    for j in (0, block, n - 1, -1, -n):
        for field in dataclasses.fields(lv):
            row, whole = getattr(lv[j], field.name), getattr(lv, field.name)
            assert np.shares_memory(row, whole), (j, field.name)
    empty = lv[5:2]
    for derived in (empty.starts, empty.mults, empty.energies):
        assert derived.shape == (0,)
    assert all(same(ds, j) for j, ds in enumerate(lv))
    assert all(a is b for a, b in zip(lv, lv))  # iteration reads one cached tuple
    for node in (lv[0], structure_of(p.block(0))):
        with pytest.raises(TypeError, match="one node"):
            len(node)
        with pytest.raises(TypeError, match="one node"):
            iter(node)
    views = [slice(block - 3, block + 4), slice(-5, None), slice(None, 3, 1), slice(5, 2),
             slice(1, None, 2), slice(0, None, 2), slice(None, None, -3)]
    for key in views + [[n - 1, 0, block, 0]]:
        nodes = np.arange(n)[key]
        sub = lv[key]
        assert len(sub) == len(nodes)
        for field in dataclasses.fields(sub):
            cut, whole = getattr(sub, field.name), getattr(lv, field.name)
            assert np.array_equal(cut, whole[nodes])
            assert np.shares_memory(cut, whole) == (key in views and len(nodes) > 0), (key, field.name)
        assert all(same(sub[i], j) for i, j in enumerate(nodes))
        assert np.array_equal(sub.degenerate, lv.degenerate[nodes])
    flags = [ds.degenerate for ds in lv]
    assert np.array_equal(lv.degenerate, flags)
    assert flags[0] and flags[-1] and not any(flags[1:-1])


def test_node_levels_endpoint_reads_build_one_node():
    """rec[0] and rec[-1] of a 2001-node record build only their own node's
    structure, whose basis is a view of the record, equal to the one
    iteration gives; the per-node tuple is not built by an int access. The
    record is the Curie-Weiss ramp's, clustered a node block at a time as
    evolve does."""
    p = gt.curie_weiss_protocol()
    n, d = p.n_nodes, p.dim
    # a fresh record, with no cached tuple
    rec = DegeneracyStructure(np.empty((n, d)), np.empty((n, d), bool), np.empty((n, d, d), p.dtype))
    for s in node_blocks(n, d):
        h = p.block(s)
        lv = cluster_spectra(*np.linalg.eigh(h), default_cluster_tol_abs(h))
        rec.spectra[s], rec.first[s], rec.basis[s] = lv.spectra, lv.first, lv.basis
    assert len(rec) == 2001
    ends = rec[0], rec[-1]
    assert "_nodes" not in rec.__dict__
    views = tuple(rec)
    for ds, j in zip(ends, (0, len(rec) - 1)):
        assert np.array_equal(ds.energies, views[j].energies)
        assert np.array_equal(ds.mults, views[j].mults)
        assert np.array_equal(ds.basis, rec.basis[j]) and np.shares_memory(ds.basis, rec.basis)
    assert ends[1].degenerate and not ends[0].degenerate
    with pytest.raises(IndexError):
        rec[len(rec)]


_ONE_NODE_ROUTES = {  # each takes a node's state rho, Hamiltonian h and levels ds
    "twirl": lambda rho, h, ds: twirl(rho, ds),
    "twirl_oracle": lambda rho, h, ds: twirl_oracle(rho, ds, 4, np.random.default_rng(0)),
    "level_distribution": lambda rho, h, ds: gt.level_distribution(rho, ds),
    "entropy_report": lambda rho, h, ds: gt.entropy_report(rho, ds),
    "sample_gauge_element": lambda rho, h, ds: sample_gauge_element(ds, np.random.default_rng(0)),
    "thermal_level_distribution": lambda rho, h, ds: gt.thermal_level_distribution(ds, 1.0),
    "noneq_free_energy": lambda rho, h, ds: gt.noneq_free_energy(rho, h, ds, 1.0),
    "projector": lambda rho, h, ds: ds.projector(0),
}


@pytest.mark.parametrize("route", _ONE_NODE_ROUTES.values(), ids=_ONE_NODE_ROUTES.keys())
def test_one_node_routes_refuse_a_run_of_nodes(route):
    """A run's levels record has a (d, d) state's dimension but (n, d, d)
    bases: every one-node route refuses it with the two shapes named, where
    the populations' level starts ran past the state's diagonal (IndexError
    in add.reduceat), the gauge element's blocks did not broadcast, the free
    energy raised a TypeError, and the thermal distribution, the projector
    and the slices answered for every level of the run."""
    p = gt.random_protocol(3, 11, np.random.default_rng(1), degenerate=True)
    ev = gt.evolve(p, np.eye(3) / 3)
    rho, h, lv = ev.states[0], p.block(0), ev.structures
    shapes = r"shape \(3, 3\), dimension 3, does not match the levels' basis shape \(11, 3, 3\)"
    with pytest.raises(ValidationError, match=shapes):
        route(rho, h, lv)
    out = route(rho, h, lv[0])  # one node of the run is accepted
    if route is _ONE_NODE_ROUTES["sample_gauge_element"]:
        assert np.allclose(out @ out.conj().T, np.eye(3), atol=1e-12)
