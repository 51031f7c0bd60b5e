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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .dynamics import Protocol, StreamedRun, _split_bounds, clausius_report, stream_run
from .invariants import level_distribution, s_gauge
from .linalg import ValidationError, _one_blas_thread, gibbs_state
from .models import (
    MODELS,
    ModelSpec,
    build_protocol,
    third_law_hamiltonian,
    third_law_scan,
)
from .verify import SUITES, gauge_conjugates, thermal_ft

CSV_HEADER = (
    "t,w_u,w_inv,q_c,q_u,s_gt,s_d,c_rel,s_gamma,f_eq,"
    "bound_generalized,bound_geometric,bures,rel_ent"
)
THIRD_LAW_HEADER = "beta,s_gt,limit_ln_n0"


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _emit(raw: str) -> tuple[str, ...]:
    return tuple(sorted({e.strip() for e in raw.split(",") if e.strip()}))


# section -> key -> (type, default): the keys a config may give, each typed and,
# when left out, filled in; the result is the resolved config a report embeds.
# [model] nodes, t_final and beta default per model (models.MODELS), and an
# unset cluster tolerance is the one clustering derives. [params] takes any
# key, each a finite number, and the model checks them (models.ModelSpec).
_SCHEMA = {
    "model": {
        "name": (str, None),
        "nodes": (int, None),
        "t_final": (_finite, None),
        "beta": (_finite, None),
        "matrix_path": (str, None),
    },
    "run": {"out": (str, "out"), "emit": (_emit, ("clausius", "ft", "ledger")), "seed": (int, 0)},
    "tolerances": {
        "cluster_abs": (_finite, None),
        "cluster_rel": (_finite, None),
        "integration_gate": (_finite, 1e-6),
    },
    "third_law": {"points": (int, 40), "beta_min": (_finite, 0.01)},
}


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec
    resolved: dict  # section -> key -> value, as the report embeds it


def _typed(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


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
        if section == "params":
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    name = parser.get("model", "name", fallback=None)
    if name is None:
        raise ConfigError("missing required key 'name' in section [model]")
    if name not in MODELS:
        raise ConfigError(f"[model] name = '{name}' is not a known model")

    resolved = {}
    for section, keys in _SCHEMA.items():
        given = parser[section] if section in parser else {}
        defaults = MODELS[name] if section == "model" else {}
        resolved[section] = {
            key: _typed(section, key, given[key], cast) if key in given else defaults.get(key, default)
            for key, (cast, default) in keys.items()
        }
    given = parser["params"] if "params" in parser else {}
    resolved["params"] = dict(sorted((k, _typed("params", k, raw, _finite)) for k, raw in given.items()))

    model, run, third_law = resolved["model"], resolved["run"], resolved["third_law"]
    if model["matrix_path"] is None:
        del model["matrix_path"]
    run["out"] = out_override or run["out"] or "out"
    if run["seed"] < 0:
        raise ConfigError(f"[run] seed must be nonnegative, got {run['seed']}")
    for e in run["emit"]:
        if e not in _EMIT_SECTIONS:
            raise ConfigError(f"[run] emit contains unknown artifact '{e}'")
    if third_law["points"] < 2:
        raise ConfigError(f"[third_law] points must be >= 2, got {third_law['points']}")
    if third_law["beta_min"] <= 0:
        raise ConfigError(f"[third_law] beta_min must be positive, got {third_law['beta_min']}")
    return RunConfig(ModelSpec(params=resolved["params"], seed=run["seed"], **model), resolved)


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
    np.savetxt(path, np.column_stack(columns), fmt="%.12g", delimiter=",", header=header, comments="")


def _ledger_csv(cfg: RunConfig, p: Protocol, run: StreamedRun) -> dict:
    bound, tightening = _split_bounds(run.tl, p.beta)
    columns = {f.name: getattr(run.tl, f.name) for f in fields(run.tl)}
    columns.update(t=p.times, bound_generalized=bound, bound_geometric=bound + tightening)
    out = os.path.join(cfg.resolved["run"]["out"], "ledger.csv")
    _write_csv(out, CSV_HEADER, [columns[name] for name in CSV_HEADER.split(",")])
    return {}


def _clausius(cfg: RunConfig, p: Protocol, run: StreamedRun) -> dict:
    rep, cc = clausius_report(p, run.ev, run.tl), run.connection
    section = {"applicable": rep.applicable, "reason": rep.reason, **rep.worst_slacks()}
    if rep.applicable:
        section["balance_residual_max"] = float(np.max(np.abs(rep.balance_residual)))
    conn = {"performed": cc.performed, "reason": cc.reason}
    if cc.performed:
        conn["w_deviation_max"] = float(np.max(cc.w_deviation))
        conn["q_deviation_max"] = float(np.max(cc.q_deviation))
    return {"clausius": section, "connection_check": conn}


def _ft(cfg: RunConfig, p: Protocol, run: StreamedRun) -> dict:
    rep = thermal_ft(p, run.ev)
    return {"ft": {"reference": "thermal", "ift_deviation": abs(rep.ift_value - 1.0), **asdict(rep)}}


def _gauge_check(cfg: RunConfig, p: Protocol, run: StreamedRun) -> dict:
    ev, kept = run.ev, range(len(run.nodes))  # the run keeps the nodes checked
    conj, _, worst_twirl = gauge_conjugates(ev, kept, np.random.default_rng(cfg.spec.seed))
    worst_sgt = max(
        abs(
            s_gauge(level_distribution(ev.states[i], ev.structures[i]))
            - s_gauge(level_distribution(c, ev.structures[i]))
        )
        for i, c in zip(kept, conj)
    )
    section = {"nodes_checked": run.nodes, "max_twirl_deviation": worst_twirl, "max_s_gt_deviation": worst_sgt}
    return {"gauge_check": section}


def _cluster(cfg: RunConfig) -> dict:
    """The clustering keywords of the config's [tolerances]; one left out is the
    one clustering derives."""
    tols = cfg.resolved["tolerances"]
    cluster = {"cluster_tol_abs": tols["cluster_abs"], "cluster_tol_rel": tols["cluster_rel"]}
    return {k: v for k, v in cluster.items() if v is not None}


def _third_law(cfg: RunConfig, h: np.ndarray) -> dict:
    """The scan of h, clustered with the config's tolerances, from [third_law]
    beta_min up to 1e6 over its gap: its CSV, and its section of report.json."""
    settings, cluster = cfg.resolved["third_law"], _cluster(cfg)
    gap = third_law_scan(h, np.array([1.0]), **cluster).gap
    beta_final = 1e6 / gap if gap else 1e6
    if settings["beta_min"] >= beta_final:
        raise ConfigError(
            f"[third_law] beta_min = {settings['beta_min']} is not below the final beta {beta_final:.6g}"
        )
    out_dir = cfg.resolved["run"]["out"]
    os.makedirs(out_dir, exist_ok=True)
    scan = third_law_scan(h, np.geomspace(settings["beta_min"], beta_final, settings["points"]), **cluster)
    limit = np.full_like(scan.s_gt, math.log(scan.ground_multiplicity))
    _write_csv(os.path.join(out_dir, "third_law.csv"), THIRD_LAW_HEADER, [scan.betas, scan.s_gt, limit])
    final = {"final_beta": float(scan.betas[-1]), "final_s_gt": float(scan.s_gt[-1])}
    return {"third_law": {"ground_multiplicity": scan.ground_multiplicity, "gap": scan.gap, **final}}


# [run] emit artifact -> the function that writes its files and returns its keys
# of report.json; a run calls them in this order, so a fault in one leaves the
# files of those before it written
_EMIT_SECTIONS = {
    "ledger": _ledger_csv,
    "clausius": _clausius,
    "ft": _ft,
    "gauge_check": _gauge_check,
    "third_law": lambda cfg, p, run: _third_law(cfg, p.block(-1)),
}


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    cfg = load_run_config(config_path, out_override)
    out_dir, emit, cluster = cfg.resolved["run"]["out"], cfg.resolved["run"]["emit"], _cluster(cfg)
    p = build_protocol(cfg.spec, **cluster)
    os.makedirs(out_dir, exist_ok=True)  # before the run, which a bad path would waste
    rho0, _ = gibbs_state(p.block(0), p.beta)
    run = stream_run(p, rho0, **cluster)
    tol, gate = run.tol, cfg.resolved["tolerances"]["integration_gate"]

    report = {
        "config": cfg.resolved,
        "integration_tolerance": tol,
        "integration_tolerance_exceeds_gate": bool(tol > gate),
        "final": {"t": p.tau, **{f.name: float(getattr(run.tl, f.name)[-1]) for f in fields(run.tl)}},
    }
    if tol > gate:
        print(
            f"note: integration tolerance {tol:.3g} exceeds the gate {gate:.3g} "
            "(expected when the level structure jumps on the grid)",
            file=sys.stderr,
        )
    for name, section in _EMIT_SECTIONS.items():
        if name in emit:
            report.update(section(cfg, p, run))
    _write_json(os.path.join(out_dir, "report.json"), report)
    print(f"wrote {out_dir}/report.json")
    return 0


def cmd_third_law(config_path: str, out_override: str | None = None) -> int:
    cfg = load_run_config(config_path, out_override)
    _third_law(cfg, third_law_hamiltonian(cfg.spec))
    print(f"wrote {os.path.join(cfg.resolved['run']['out'], 'third_law.csv')}")
    return 0


def cmd_verify(suite: str, cases: int, seed: int, out_dir: str) -> int:
    if suite not in SUITES:
        raise ConfigError(f"unknown suite '{suite}'; choose from {', '.join(SUITES)}")
    if cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {cases}")
    if seed < 0:
        raise ConfigError(f"--seed must be nonnegative, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
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
    # the whole command at one BLAS thread: the protocol build and the report
    # sections as well as the pass (linalg._one_blas_thread)
    try:
        with _one_blas_thread():
            if args.command == "run":
                return cmd_run(args.config, args.out)
            if args.command == "verify":
                return cmd_verify(args.suite, args.cases, args.seed, args.out)
            return cmd_third_law(args.config, args.out)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError, the models' checks, an output path not made
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
