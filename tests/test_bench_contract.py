"""The benchmark harness under bench/ looks gaugetherm's functions up by
name; a removal or rename must fail here, not only in the benchmark."""
import importlib.util
from pathlib import Path

import numpy as np

import gaugetherm as gt
import gaugetherm.cli  # noqa: F401  (the harness spans cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_finds_every_spanned_function():
    layers = _bench_module("layers")
    for probe in (layers.SpanTracer(gt), layers.MemoryProbe(gt)):
        probe.install()
        try:
            # the oracle case of the tpm_gauge_fuzz workload
            h = np.diag([0.0, 0.0, 1.0]).astype(complex)
            ds = gt.cluster_spectrum(gt.linalg.eigh(h), gt.default_cluster_tol_abs(h))
        finally:
            probe.uninstall()
        assert tuple(ds.mults) == (2, 1)


def test_bench_reads_the_levels_record_of_an_evolve_result():
    """The tpm_gauge_fuzz workload reads an evolve result's levels record
    through DegeneracyStructure: its first and last node's by int, and every
    node's by iteration, each with a (d, d) basis, its level slices (for
    the reference gauge element), multiplicities, energies and level count
    (for a LevelDistribution of the end levels)."""
    ref = _bench_module("reference")
    p = gt.random_protocol(4, 21, np.random.default_rng(5), degenerate=True, beta=1.0)
    ev = gt.evolve(p, gt.gibbs_state(p.block(0), p.beta)[0])
    ds0, dst = ev.structures[0], ev.structures[-1]
    assert ds0.degenerate and dst.degenerate
    raw = np.arange(1.0, dst.n_levels + 1)
    rev = gt.LevelDistribution(probs=raw / raw.sum(), mults=dst.mults, energies=dst.energies)
    assert len(rev.probs) == dst.n_levels == len(dst.mults) == len(dst.energies) < p.dim
    nodes = list(ev.structures)
    assert len(nodes) == p.n_nodes
    rng = np.random.default_rng(7)
    for j, ds in enumerate(nodes):
        assert ds.basis.shape == (p.dim, p.dim)
        assert [s.stop - s.start for s in ds.slices] == ds.mults.tolist()
        assert ds.n_levels == len(ds.energies) and np.all(np.diff(ds.energies) > 0)
        v = ref.gauge_element(ds.basis, ds.slices, rng)
        h = p.block(j)
        assert np.allclose(v @ v.conj().T, np.eye(p.dim), atol=1e-12)
        assert np.allclose(v @ h, h @ v, atol=1e-10)
