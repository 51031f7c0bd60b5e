"""Shared fixtures: both reference experiments run once per session.

The Landau-Zener run is stored (evolve, ledger, integration_tolerance), as
its tests read every node. The Curie-Weiss run (dim 51, 2001 nodes) is the
expensive one, so it is streamed (stream_run): its ev holds the nodes 0,
n // 2 and n - 1, and the run keeps every node's degenerate flag and the
connection check.
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
    degenerate: np.ndarray | None = None  # a streamed run's, per node
    connection: gt.ConnectionCheck | None = None  # a streamed run's


def _run(p: gt.Protocol) -> ProtocolRun:
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    ev = gt.evolve(p, rho0)
    tl = gt.ledger(p, ev)
    tol = gt.integration_tolerance(p, ev)
    return ProtocolRun(p=p, rho0=rho0, ev=ev, tl=tl, tol=tol)


def _streamed(p: gt.Protocol) -> ProtocolRun:
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    run = gt.stream_run(p, rho0)
    return ProtocolRun(p, rho0, run.ev, run.tl, run.tol, run.degenerate, run.connection)


@pytest.fixture(scope="session")
def lz_run() -> ProtocolRun:
    return _run(gt.landau_zener_protocol())


@pytest.fixture(scope="session")
def cw_run() -> ProtocolRun:
    return _streamed(gt.curie_weiss_protocol())
