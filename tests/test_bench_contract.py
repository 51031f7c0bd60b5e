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
