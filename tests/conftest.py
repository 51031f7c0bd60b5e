"""Shared fixtures: both reference experiments evolved once per session.

The Curie-Weiss run is the expensive one (dim 51, 2001 nodes, a ledger
eigendecomposition per node), so everything downstream shares a single
evolution.
"""
from dataclasses import dataclass

import numpy as np
import pytest

import gaugetherm as gt


@dataclass(frozen=True)
class ProtocolRun:
    p: gt.Protocol
    rho0: np.ndarray
    ev: gt.EvolutionResult
    tl: gt.ThermoLedger
    tol: float


def _run(p: gt.Protocol) -> ProtocolRun:
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    ev = gt.evolve(p, rho0)
    tl = gt.ledger(p, ev)
    tol = gt.integration_tolerance(p, ev)
    return ProtocolRun(p=p, rho0=rho0, ev=ev, tl=tl, tol=tol)


@pytest.fixture(scope="session")
def lz_run() -> ProtocolRun:
    return _run(gt.landau_zener_protocol())


@pytest.fixture(scope="session")
def cw_run() -> ProtocolRun:
    return _run(gt.curie_weiss_protocol())
