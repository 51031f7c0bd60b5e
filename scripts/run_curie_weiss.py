#!/usr/bin/env python3
"""Field ramp to zero across the mean-field crossing: asymmetry without coherence.

The symmetric-sector Hamiltonian stays diagonal for the whole ramp, so the
state never builds coherence and c_rel stays at zero. What grows instead is
the asymmetry entropy: magnetization pairs +-m merge as B crosses their
accidental degeneracy points and finally at B=0, where the frozen thermal
populations sit unevenly inside each merged level. The final s_gamma is
ln 2 up to the thermally empty -m branch.
"""
import argparse

import numpy as np

import gaugetherm as gt
from gaugetherm.verify import thermal_ft


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--j", type=float, default=1.0, help="coupling")
    ap.add_argument("--n-spins", type=int, default=50)
    ap.add_argument("--b-start", type=float, default=2.0)
    ap.add_argument("--b-end", type=float, default=0.0)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--nodes", type=int, default=2001)
    args = ap.parse_args()

    p = gt.curie_weiss_protocol(
        j_coupling=args.j,
        n_spins=args.n_spins,
        b_start=args.b_start,
        b_end=args.b_end,
        beta=args.beta,
        nodes=args.nodes,
    )
    rho0, _ = gt.gibbs_state(p.block(0), p.beta)
    run = gt.stream_run(p, rho0)
    ev, tl = run.ev, run.tl

    merged = np.flatnonzero(run.degenerate).tolist()
    print(f"grid: {p.n_nodes} nodes; {len(merged)} nodes with merged levels")
    if merged:
        # distinct fields in node order, so the first are the first merges along the ramp
        b_vals = list(dict.fromkeys(round(float(args.b_start + (args.b_end - args.b_start) * p.times[j] / p.tau), 6) for j in merged))
        print(f"first merges at B = {b_vals[:4]} ...")
    print(f"c_rel max    = {np.max(tl.c_rel):.2e}  (diagonal dynamics, no coherence)")
    print(f"s_gamma(tau) = {tl.s_gamma[-1]:.12f}   ln 2 = {np.log(2):.12f}")
    print(f"s_gt(tau)    = {tl.s_gt[-1]:.10f}")
    print(f"w_u = {tl.w_u[-1]:+.8f}   w_inv = {tl.w_inv[-1]:+.8f}   q_c = {tl.q_c[-1]:+.2e}")

    rep = gt.clausius_report(p, ev, tl)
    print("worst slacks:", {k: f"{v:+.2e}" for k, v in rep.worst_slacks().items()})

    ft = thermal_ft(p, ev)
    print(f"<e^-sigma> - 1 = {ft.ift_value - 1:+.2e}")
    print(f"<sigma> = {ft.mean_sigma:.10f}  via work = {ft.mean_sigma_via_work:.10f}")


if __name__ == "__main__":
    main()
