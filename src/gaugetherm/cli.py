"""Command-line entry point: config parsing, the `run` report, file output,
and dispatch to the property suites in gaugetherm.verify.

Config files are INI-style with a flat schema and strict key checking: a
misspelled tolerance name fails the run instead of silently running with the
default. All emitted files are byte-deterministic for a given config and
seed: CSV values use 12 significant digits, JSON is sorted and carries no
timestamps, and every report embeds the fully resolved config so a run can
be reproduced from its own output.

Exit codes: 0 success, 1 property violation in a verify suite, 2 config
error, 3 numerical validation failure.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import Protocol, StreamedRun, clausius_report, stream_run
from .fluctuation import build_ensemble, verify_ft
from .invariants import level_distribution, s_gauge, thermal_level_distribution
from .linalg import ValidationError, gibbs_state, validate_hermitian
from .models import (
    ModelSpec,
    ThirdLawScan,
    build_protocol,
    curie_weiss,
    third_law_scan,
)
from .verify import SUITES, gauge_conjugates

CSV_HEADER = (
    "t,w_u,w_inv,q_c,q_u,s_gt,s_d,c_rel,s_gamma,f_eq,"
    "bound_generalized,bound_geometric,bures,rel_ent"
)
THIRD_LAW_HEADER = "beta,s_gt,limit_ln_n0"
EMIT_CHOICES = ("clausius", "ft", "gauge_check", "ledger", "third_law")

# nodes, t_final, beta used when the config leaves them out
_MODEL_DEFAULTS = {
    "landau_zener": (1001, 1.0, 2.0),
    "curie_weiss": (2001, 5.0, 2.0),
    "random": (201, 1.0, 1.0),
    "matrix": (101, 1.0, 1.0),
}

_SECTION_KEYS = {
    "model": {"name", "nodes", "t_final", "beta", "matrix_path"},
    "run": {"out", "emit", "seed"},
    "tolerances": {"cluster_abs", "cluster_rel", "integration_gate"},
    "third_law": {"points", "beta_min"},
}


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    model_name: str
    spec: ModelSpec | None
    matrix_path: str | None
    nodes: int
    t_final: float
    beta: float
    out_dir: str
    emit: tuple[str, ...]
    seed: int
    cluster_tol_abs: float | None
    cluster_tol_rel: float | None
    integration_gate: float
    third_law_points: int
    third_law_beta_min: float
    params: dict


def _get_typed(section, name, key, cast, default):
    if key not in section:
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{name}] {key} = {raw!r}: {exc}") from None


def load_run_config(path: str, out_override: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config '{path}': {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config '{path}': {exc}") from None

    for section in parser.sections():
        if section != "params" and section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section '{section}'")
        if section in _SECTION_KEYS:
            for key in parser[section]:
                if key not in _SECTION_KEYS[section]:
                    raise ConfigError(f"unknown key '{key}' in section [{section}]")

    if "model" not in parser or "name" not in parser["model"]:
        raise ConfigError("missing required key 'name' in section [model]")
    model = parser["model"]
    name = model["name"].strip()
    if name not in _MODEL_DEFAULTS:
        raise ConfigError(f"[model] name = '{name}' is not a known model")
    d_nodes, d_tf, d_beta = _MODEL_DEFAULTS[name]
    nodes = _get_typed(model, "model", "nodes", int, d_nodes)
    t_final = _get_typed(model, "model", "t_final", float, d_tf)
    beta = _get_typed(model, "model", "beta", float, d_beta)
    matrix_path = model.get("matrix_path")
    if name == "matrix" and not matrix_path:
        raise ConfigError("model 'matrix' requires key 'matrix_path' in section [model]")
    if name != "matrix" and matrix_path:
        raise ConfigError("key 'matrix_path' is only valid for model 'matrix'")

    params = {}
    if "params" in parser:
        for key, raw in parser["params"].items():
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(f"[params] {key} = {raw!r} is not a number") from None

    run_sec = parser["run"] if "run" in parser else {}
    seed = _get_typed(run_sec, "run", "seed", int, 0)
    if seed < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {seed}")
    out_dir = out_override or (run_sec.get("out") if run_sec else None) or "out"
    emit_raw = run_sec.get("emit") if run_sec else None
    if emit_raw is None:
        emit = ("clausius", "ft", "ledger")
    else:
        emit = tuple(sorted({e.strip() for e in emit_raw.split(",") if e.strip()}))
        for e in emit:
            if e not in EMIT_CHOICES:
                raise ConfigError(f"[run] emit contains unknown artifact '{e}'")

    tol_sec = parser["tolerances"] if "tolerances" in parser else {}
    cluster_abs = _get_typed(tol_sec, "tolerances", "cluster_abs", float, None)
    cluster_rel = _get_typed(tol_sec, "tolerances", "cluster_rel", float, None)
    gate = _get_typed(tol_sec, "tolerances", "integration_gate", float, 1e-6)

    tl_sec = parser["third_law"] if "third_law" in parser else {}
    points = _get_typed(tl_sec, "third_law", "points", int, 40)
    beta_min = _get_typed(tl_sec, "third_law", "beta_min", float, 0.01)
    if points < 2:
        raise ConfigError(f"[third_law] points must be >= 2, got {points}")
    if beta_min <= 0:
        raise ConfigError(f"[third_law] beta_min must be positive, got {beta_min}")

    spec = None
    if name != "matrix":
        try:
            spec = ModelSpec(
                name=name,
                params=params,
                nodes=nodes,
                t_final=t_final,
                beta=beta,
                seed=seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    elif params:
        key = sorted(params)[0]
        raise ConfigError(f"model 'matrix' got unknown param '{key}'")

    return RunConfig(
        model_name=name,
        spec=spec,
        matrix_path=matrix_path,
        nodes=nodes,
        t_final=t_final,
        beta=beta,
        out_dir=out_dir,
        emit=emit,
        seed=seed,
        cluster_tol_abs=cluster_abs,
        cluster_tol_rel=cluster_rel,
        integration_gate=gate,
        third_law_points=points,
        third_law_beta_min=beta_min,
        params=params,
    )


def read_matrix_file(path: str) -> np.ndarray:
    """Plain-text Hermitian matrix: first line d, then d rows of 'a+bi' entries."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file '{path}': {exc}") from None
    if not lines:
        raise ConfigError(f"matrix file '{path}' is empty")
    try:
        dim = int(lines[0])
    except ValueError:
        raise ConfigError(f"matrix file '{path}': first line must be the dimension") from None
    if dim < 1 or len(lines) != dim + 1:
        raise ConfigError(f"matrix file '{path}': expected {dim} rows after the dimension line")
    rows = []
    for i, line in enumerate(lines[1:]):
        tokens = line.split()
        if len(tokens) != dim:
            raise ConfigError(f"matrix file '{path}': row {i + 1} has {len(tokens)} entries, expected {dim}")
        try:
            rows.append([complex(tok.replace("i", "j")) for tok in tokens])
        except ValueError:
            raise ConfigError(f"matrix file '{path}': row {i + 1} has a malformed entry") from None
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ConfigError(f"matrix file '{path}': entries must be finite")
    validate_hermitian(m, "matrix file")
    return m


def constant_protocol(h: np.ndarray, beta: float, t_final: float, nodes: int) -> Protocol:
    times = np.linspace(0.0, t_final, nodes)
    hams = np.repeat(h[None, :, :], nodes, axis=0)
    return Protocol(times=times, hamiltonians=hams, beta=beta, label="matrix")


def _resolve_protocol(cfg: RunConfig) -> Protocol:
    if cfg.model_name == "matrix":
        h = read_matrix_file(cfg.matrix_path)
        return constant_protocol(h, cfg.beta, cfg.t_final, cfg.nodes)
    return build_protocol(cfg.spec)


def _resolved_config(cfg: RunConfig) -> dict:
    model = {
        "name": cfg.model_name,
        "nodes": cfg.nodes,
        "t_final": cfg.t_final,
        "beta": cfg.beta,
    }
    if cfg.matrix_path is not None:
        model["matrix_path"] = cfg.matrix_path
    return {
        "model": model,
        "params": dict(sorted(cfg.params.items())),
        "run": {"out": cfg.out_dir, "emit": list(cfg.emit), "seed": cfg.seed},
        "tolerances": {
            "cluster_abs": cfg.cluster_tol_abs,
            "cluster_rel": cfg.cluster_tol_rel,
            "integration_gate": cfg.integration_gate,
        },
        "third_law": {
            "points": cfg.third_law_points,
            "beta_min": cfg.third_law_beta_min,
        },
    }


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if not math.isfinite(v) else v
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, header: str, columns: list[np.ndarray]) -> None:
    n = len(columns[0])
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(n):
            fh.write(",".join("%.12g" % float(c[i]) for c in columns) + "\n")


def _thermal_run(cfg: RunConfig, p: Protocol) -> StreamedRun:
    rho0, _ = gibbs_state(p.hamiltonians[0], p.beta)
    kwargs = {}
    if cfg.cluster_tol_abs is not None:
        kwargs["cluster_tol_abs"] = cfg.cluster_tol_abs
    if cfg.cluster_tol_rel is not None:
        kwargs["cluster_tol_rel"] = cfg.cluster_tol_rel
    return stream_run(p, rho0, connection="clausius" in cfg.emit, **kwargs)


def _ft_section(p: Protocol, ev) -> dict:
    """Entropy-production FT between the two thermal endpoint references."""
    fwd = level_distribution(ev.states[0], ev.structures[0])
    rev = thermal_level_distribution(ev.structures[-1], p.beta)
    rep = verify_ft(build_ensemble(p, fwd, rev, ev))
    return {
        "reference": "thermal",
        "ift_value": rep.ift_value,
        "ift_deviation": abs(rep.ift_value - 1.0),
        "mean_sigma": rep.mean_sigma,
        "mean_sigma_via_work": rep.mean_sigma_via_work,
        "mean_sigma_via_entropy": rep.mean_sigma_via_entropy,
        "mean_sigma_via_endpoints": rep.mean_sigma_via_endpoints,
        "crooks_max_violation": rep.crooks_max_violation,
        "microreversibility_max": rep.microreversibility_max,
    }


def _gauge_section(run: StreamedRun, seed: int) -> dict:
    ev, kept = run.ev, range(len(run.nodes))  # the run keeps the nodes checked
    conj, _, worst_twirl = gauge_conjugates(ev, kept, np.random.default_rng(seed))
    worst_sgt = max(
        abs(
            s_gauge(level_distribution(ev.states[i], ev.structures[i]))
            - s_gauge(level_distribution(c, ev.structures[i]))
        )
        for i, c in zip(kept, conj)
    )
    return {"nodes_checked": run.nodes, "max_twirl_deviation": worst_twirl, "max_s_gt_deviation": worst_sgt}


def _third_law_columns(scan: ThirdLawScan):
    limit = np.full_like(scan.s_gt, math.log(scan.ground_multiplicity))
    return [scan.betas, scan.s_gt, limit]


def _third_law_betas(cfg: RunConfig, scan_gap: float | None) -> np.ndarray:
    beta_final = 1e6 / scan_gap if scan_gap else 1e6
    if cfg.third_law_beta_min >= beta_final:
        raise ConfigError(
            f"[third_law] beta_min = {cfg.third_law_beta_min} is not below the final beta {beta_final:.6g}"
        )
    return np.geomspace(cfg.third_law_beta_min, beta_final, cfg.third_law_points)


def _run_third_law_scan(cfg: RunConfig, h: np.ndarray) -> ThirdLawScan:
    probe = third_law_scan(h, np.array([1.0]))
    betas = _third_law_betas(cfg, probe.gap)
    return third_law_scan(h, betas)


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    cfg = load_run_config(config_path, out_override)
    p = _resolve_protocol(cfg)
    run = _thermal_run(cfg, p)
    ev, tl, tol = run.ev, run.tl, run.tol
    os.makedirs(cfg.out_dir, exist_ok=True)

    beta = p.beta
    report = {
        "config": _resolved_config(cfg),
        "integration_tolerance": tol,
        "integration_tolerance_exceeds_gate": bool(tol > cfg.integration_gate),
        "final": {
            "t": p.tau,
            "w_u": float(tl.w_u[-1]),
            "w_inv": float(tl.w_inv[-1]),
            "q_c": float(tl.q_c[-1]),
            "q_u": float(tl.q_u[-1]),
            "q_inv": float(tl.q_inv[-1]),
            "u": float(tl.u[-1]),
            "f_eq": float(tl.f_eq[-1]),
            "s_gt": float(tl.s_gt[-1]),
            "s_d": float(tl.s_d[-1]),
            "c_rel": float(tl.c_rel[-1]),
            "s_gamma": float(tl.s_gamma[-1]),
            "bures": float(tl.bures[-1]),
            "rel_ent": float(tl.rel_ent[-1]),
        },
    }
    if tol > cfg.integration_gate:
        print(
            f"note: integration tolerance {tol:.3g} exceeds the gate {cfg.integration_gate:.3g} "
            "(expected when the level structure jumps on the grid)",
            file=sys.stderr,
        )

    if "ledger" in cfg.emit:
        d_f = tl.f_eq - tl.f_eq[0]
        bound_gen = d_f + (tl.c_rel + tl.s_gamma) / beta
        bound_geo = bound_gen + (8.0 / (math.pi**2 * beta)) * tl.bures**2
        _write_csv(
            os.path.join(cfg.out_dir, "ledger.csv"),
            CSV_HEADER,
            [
                p.times, tl.w_u, tl.w_inv, tl.q_c, tl.q_u, tl.s_gt, tl.s_d,
                tl.c_rel, tl.s_gamma, tl.f_eq, bound_gen, bound_geo, tl.bures,
                tl.rel_ent,
            ],
        )

    if "clausius" in cfg.emit:
        rep = clausius_report(p, ev, tl)
        section = {"applicable": rep.applicable, "reason": rep.reason}
        if rep.applicable:
            section.update({k: v for k, v in rep.worst_slacks().items()})
            section["balance_residual_max"] = float(np.max(np.abs(rep.balance_residual)))
        report["clausius"] = section
        cc = run.connection
        conn = {"performed": cc.performed, "reason": cc.reason}
        if cc.performed:
            conn["w_deviation_max"] = float(np.max(cc.w_deviation))
            conn["q_deviation_max"] = float(np.max(cc.q_deviation))
        report["connection_check"] = conn

    if "ft" in cfg.emit:
        report["ft"] = _ft_section(p, ev)

    if "gauge_check" in cfg.emit:
        report["gauge_check"] = _gauge_section(run, cfg.seed)

    if "third_law" in cfg.emit:
        scan = _run_third_law_scan(cfg, p.hamiltonians[-1])
        _write_csv(
            os.path.join(cfg.out_dir, "third_law.csv"),
            THIRD_LAW_HEADER,
            _third_law_columns(scan),
        )
        report["third_law"] = {
            "ground_multiplicity": scan.ground_multiplicity,
            "gap": scan.gap,
            "final_beta": float(scan.betas[-1]),
            "final_s_gt": float(scan.s_gt[-1]),
        }

    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    print(f"wrote {cfg.out_dir}/report.json")
    return 0


def cmd_third_law(config_path: str, out_override: str | None = None) -> int:
    cfg = load_run_config(config_path, out_override)
    if cfg.model_name == "matrix":
        h = read_matrix_file(cfg.matrix_path)
    elif cfg.model_name == "curie_weiss":
        prm = cfg.spec.params
        h = curie_weiss(prm["j"], int(prm["n_spins"]), prm["b_end"])
    else:
        raise ConfigError(
            f"[model] name = '{cfg.model_name}' does not resolve to a single Hamiltonian; "
            "use 'matrix' or 'curie_weiss'"
        )
    scan = _run_third_law_scan(cfg, h)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "third_law.csv")
    _write_csv(path, THIRD_LAW_HEADER, _third_law_columns(scan))
    print(f"wrote {path}")
    return 0


def cmd_verify(suite: str, cases: int, seed: int, out_dir: str) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite '{suite}'; choose from {', '.join(SUITES)}")
    if cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    results = SUITES[suite](cases, seed)
    all_pass = all(r["pass"] for r in results)
    numeric_keys = sorted(
        k
        for k, v in results[0].items()
        if isinstance(v, (int, float)) and not isinstance(v, bool) and k not in ("case", "seed", "dim", "samples")
    )
    worst = {
        k: max(float(r[k]) for r in results if isinstance(r.get(k), (int, float)))
        for k in numeric_keys
    }
    report = {
        "suite": suite,
        "cases": cases,
        "seed": seed,
        "pass": all_pass,
        "worst": worst,
        "results": results,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"verify_{suite.replace('-', '_')}.json")
    _write_json(path, report)
    for r in results:
        if not r["pass"]:
            print(f"FAIL case {r['case']} (seed {r['seed']}): {json.dumps(_json_ready(r), sort_keys=True)}")
    print(f"wrote {path}")
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugetherm",
        description="Gauge-invariant quantum thermodynamics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a protocol and emit CSV/JSON artifacts")
    p_run.add_argument("--config", required=True, help="path to an INI config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides [run] out)")

    p_verify = sub.add_parser("verify", help="run a property-verification suite")
    p_verify.add_argument("--suite", required=True, help=f"one of: {', '.join(SUITES)}")
    p_verify.add_argument("--cases", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--out", default="out")

    p_third = sub.add_parser("third-law", help="temperature scan of the invariant entropy")
    p_third.add_argument("--config", required=True)
    p_third.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "verify":
            return cmd_verify(args.suite, args.cases, args.seed, args.out)
        return cmd_third_law(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
