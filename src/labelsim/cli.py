"""Batch command-line front-end.

Subcommands:
  simulate <config>   run a Monte Carlo experiment or scaling study
  theory              evaluate covariance predictions / impossibility check
  semiparam <config>  run the two-stage semiparametric pipeline once
  ingest <csv>        validate a feature/label CSV file

Configs are plain ``key=value`` lines ('#' comments allowed). Exit codes:
0 success, 2 configuration error, 3 too many excluded trials.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .datagen import sample_dataset
from .estimators import DIVERGENCE_THRESHOLD, GRAD_TOL, SolverOptions
from .links import (
    ModelSpec,
    MultiLabelDataset,
    beta_regular,
    isotropic_gaussian,
    link_eval,
    logistic_link,
    scaled_logistic_link,
)
from .montecarlo import (
    _THEORY_KIND,
    ExperimentConfig,
    TooFewIncludedTrials,
    _replicate_links,
    empirical_multiplier,
    run_experiment,
    scaling_study,
)
from .semiparam import IsotonicFitOptions, semiparametric_fit
from .theory import (
    PredictionKind,
    binom_tail_transform,
    construct_matching_link,
    predict_covariance,
)

SCHEMA_VERSION = 2

DEFAULTS = {
    "estimator": "multilabel",
    "n": "10000",
    "trials": "100",
    "seed": "0",
    "d": "3",
    "m": "1",
    "t_star": "1.0",
    "covariates": "gaussian",
    "beta": "1.0",
    "link_alpha": "1.0",
    "model_link_alpha": "1.0",
    "m_values": "",
    "split_fraction": "0.1",
    "lipschitz": "1.0",
    "grid_size": "512",
    "output": "results.csv",
}


class ConfigError(ValueError):
    pass


def _parse_config_file(path: str) -> dict:
    cfg = dict(DEFAULTS)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _cfg_int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _cfg_float(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc


def _theta(d: int, t_star: float) -> np.ndarray:
    """theta* = t_star e_1 in R^d."""
    if d < 1:
        raise ConfigError(f"d must be at least 1, got {d}")
    if t_star <= 0:
        raise ConfigError("t_star must be positive")
    theta = np.zeros(d)
    theta[0] = t_star
    return theta


def _build_model(cfg: dict, study: bool = False) -> ModelSpec:
    """The model of a config. The link_alpha slopes a_0 .. a_{k-1} give
    labeler i the link scaled_logistic_link(a_{i mod k}), cycled to m; a
    scaling study (``study``) takes the k links as its base, which
    scaling_study cycles to each m."""
    d = _cfg_int(cfg, "d")
    theta = _theta(d, _cfg_float(cfg, "t_star"))
    links = tuple(scaled_logistic_link(_cfg_float({"link_alpha": a}, "link_alpha"))
                  for a in cfg["link_alpha"].split(","))
    if not study:
        m = _cfg_int(cfg, "m")
        if len(links) > m:
            raise ConfigError(f"{len(links)} link slopes for m={m} labelers")
        links = _replicate_links(links, m)
    if cfg["covariates"] == "gaussian":
        dist = isotropic_gaussian(d)
    elif cfg["covariates"] == "beta-regular":
        dist = beta_regular(d, _cfg_float(cfg, "beta"), theta)
    else:
        raise ConfigError(f"unknown covariates kind {cfg['covariates']!r}")
    return ModelSpec(theta_star=theta, links=links, covariates=dist)


def _fmt(x) -> str:
    if isinstance(x, float):  # numpy float64 too, whose repr names the type
        return repr(float(x))
    return str(x)


def _header_lines(cfg: dict) -> list[str]:
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    lines += [f"# {key}={cfg[key]}" for key in sorted(cfg)]
    lines += [
        f"# solver.grad_tol={_fmt(GRAD_TOL)}",
        f"# solver.max_iters={SolverOptions().max_iters}",
        f"# solver.divergence_threshold={_fmt(DIVERGENCE_THRESHOLD)}",
    ]
    return lines


def _write_lines(path: str | None, lines: list[str]):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_writable(path: str):
    """Raise the ConfigError of ``_write_lines`` before any work when
    ``path`` cannot be written: it is opened for appending, so a file that
    exists keeps its contents, and removed again when this made it."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if not existed:
        os.remove(path)


def cmd_simulate(config_path: str, output: str | None = None) -> int:
    cfg = _parse_config_file(config_path)
    model = _build_model(cfg, study=bool(cfg["m_values"]))
    out_path = output or cfg["output"]
    for path in (out_path, out_path + ".summary.json"):
        _check_writable(path)
    base = ExperimentConfig(
        model=model,
        estimator=cfg["estimator"],
        n=_cfg_int(cfg, "n"),
        trials=_cfg_int(cfg, "trials"),
        seed=_cfg_int(cfg, "seed"),
        model_link=scaled_logistic_link(_cfg_float(cfg, "model_link_alpha")),
        split_fraction=_cfg_float(cfg, "split_fraction"),
        isotonic=IsotonicFitOptions(lipschitz=_cfg_float(cfg, "lipschitz"),
                                    grid_size=_cfg_int(cfg, "grid_size")),
    )
    lines = _header_lines(cfg)
    if cfg["m_values"]:
        m_values = [int(v) for v in cfg["m_values"].split(",")]
        study = scaling_study(base, m_values)
        lines.append("m,t_m,theory_multiplier,empirical_multiplier,included,excluded")
        for row in study.rows:
            lines.append(",".join([
                str(row["m"]), _fmt(row["t_m"]),
                _fmt(row["theory_multiplier"]),
                _fmt(row["empirical_multiplier"]),
                str(row["included"]), str(row["excluded"]),
            ]))
        # one m fits no slope: NaN, which JSON (RFC 8259) has no token for
        slope = None if np.isnan(study.slope) else study.slope
        summary = {"slope": slope,
                   "rows": [{k: row[k] for k in sorted(row)} for row in study.rows]}
    else:
        result = run_experiment(base)
        d = model.d
        cols = ["trial", "flag"] + [f"u{i}" for i in range(d)]
        lines.append(",".join(cols))
        for trial in range(base.trials):
            u_row = result.u_hats[trial]
            vals = ["" if np.isnan(v) else _fmt(float(v)) for v in u_row]
            lines.append(",".join([str(trial), result.flags[trial]] + vals))
        summary = {
            "comparison": result.comparison,
            "empirical_multiplier": empirical_multiplier(result, model),
            "theory_multiplier": result.theory.variance_multiplier,
            "t_m": result.theory.t_m,
            "included": result.included_count,
            "excluded": result.excluded_count,
            "n_effective": result.n_effective,
        }
    # built before either file is written: a value JSON cannot hold raises
    # ValueError here and leaves no half-written output
    summary_line = json.dumps(summary, sort_keys=True, allow_nan=False)
    _write_lines(out_path, lines)
    _write_lines(out_path + ".summary.json", [summary_line])
    return 0


_KIND_NAMES = {"well-specified": PredictionKind.WELL_SPECIFIED, **_THEORY_KIND}


def cmd_theory(args) -> int:
    if args.impossibility:
        link = logistic_link()
        theta = _theta(args.d, args.tstar)
        grid = np.linspace(-6.0 * args.tstar, 6.0 * args.tstar, 200)
        matched = construct_matching_link(link, theta, args.m, theta, args.mbar,
                                          grid=grid)
        original = binom_tail_transform(link_eval(link, grid), args.m)
        rebuilt = binom_tail_transform(link_eval(matched, grid), args.mbar)
        gap = float(np.max(np.abs(original - rebuilt)))
        _write_lines(args.output, [
            f"# schema_version={SCHEMA_VERSION}",
            "m,mbar,max_discrepancy",
            f"{args.m},{args.mbar},{_fmt(gap)}",
        ])
        return 0
    cfg = dict(DEFAULTS)
    cfg.update({
        "m": str(args.m), "d": str(args.d), "t_star": str(args.tstar),
        "beta": str(args.beta), "link_alpha": args.link_alpha,
        "covariates": args.covariates,
    })
    model = _build_model(cfg)
    pred = predict_covariance(_KIND_NAMES[args.kind], model)
    _write_lines(args.output, [
        f"# schema_version={SCHEMA_VERSION}",
        "kind,m,t_star,t_m,multiplier",
        ",".join([pred.kind, str(model.m), _fmt(model.t_star),
                  _fmt(pred.t_m), _fmt(pred.variance_multiplier)]),
    ])
    return 0


def cmd_semiparam(config_path: str, output: str | None = None) -> int:
    cfg = _parse_config_file(config_path)
    model = _build_model(cfg)
    out_path = output or cfg["output"]
    _check_writable(out_path)
    dataset = sample_dataset(model, _cfg_int(cfg, "n"), _cfg_int(cfg, "seed"))
    result = semiparametric_fit(
        dataset, _cfg_float(cfg, "split_fraction"),
        IsotonicFitOptions(lipschitz=_cfg_float(cfg, "lipschitz"),
                           grid_size=_cfg_int(cfg, "grid_size")))
    lines = _header_lines(cfg)
    lines.append("record,labeler,index,value,grid")
    for i, v in enumerate(result.fit.u_hat):
        lines.append(f"u_hat,,{i},{_fmt(float(v))},")
    for j, link in enumerate(result.links):
        for i, (g, v) in enumerate(zip(link.grid, link.values)):
            lines.append(f"link,{j},{i},{_fmt(float(v))},{_fmt(float(g))}")
    _write_lines(out_path, lines)
    return 0


def cmd_ingest(csv_path: str) -> MultiLabelDataset:
    """Parse a CSV with feature columns then label columns.

    The header row declares the layout: label columns are those whose name
    starts with 'y' (case-insensitive); all earlier columns are features.
    Labels may be {-1, +1} or {0, 1} (0 maps to -1).
    """
    try:
        with open(csv_path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n") for line in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read {csv_path}: {exc}") from exc
    rows = [row for row in rows if row.strip()]
    if not rows:
        raise ConfigError(f"{csv_path}: empty file")
    header = [h.strip() for h in rows[0].split(",")]
    label_cols = [i for i, h in enumerate(header) if h.lower().startswith("y")]
    if not label_cols or label_cols != list(range(label_cols[0], len(header))):
        raise ConfigError(
            f"{csv_path}: header must list feature columns then label "
            "columns named y*")
    d = label_cols[0]
    if d == 0:
        raise ConfigError(f"{csv_path}: no feature columns")
    X, Y = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        parts = [p.strip() for p in row.split(",")]
        if len(parts) != len(header):
            raise ConfigError(
                f"{csv_path}:{lineno}: expected {len(header)} fields, "
                f"got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"{csv_path}:{lineno}: non-numeric field") from None
        feats, labels = values[:d], values[d:]
        if not np.all(np.isfinite(feats)):
            raise ConfigError(f"{csv_path}:{lineno}: non-finite feature")
        mapped = []
        for value in labels:
            if value == 0.0:
                mapped.append(-1)
            elif value in (-1.0, 1.0):
                mapped.append(int(value))
            else:
                raise ConfigError(
                    f"{csv_path}:{lineno}: label value {value} not in "
                    "{-1, 0, 1}")
        X.append(feats)
        Y.append(mapped)
    return MultiLabelDataset(X=np.asarray(X), Y=np.asarray(Y))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labelsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    p_sim.add_argument("config", help="key=value config file")
    p_sim.add_argument("--output", default=None)
    p_sim.add_argument("--print-config", action="store_true",
                       help="print resolved config and exit")

    p_th = sub.add_parser("theory", help="evaluate covariance predictions")
    p_th.add_argument("--kind", choices=sorted(_KIND_NAMES), default="well-specified")
    p_th.add_argument("--m", type=int, default=1)
    p_th.add_argument("--mbar", type=int, default=1)
    p_th.add_argument("--d", type=int, default=3)
    p_th.add_argument("--tstar", type=float, default=1.0)
    p_th.add_argument("--beta", type=float, default=1.0)
    p_th.add_argument("--covariates", choices=["gaussian", "beta-regular"],
                      default="gaussian")
    p_th.add_argument("--link-alpha", default=DEFAULTS["link_alpha"],
                      help="comma list of labeler link slopes, cycled to --m")
    p_th.add_argument("--impossibility", action="store_true")
    p_th.add_argument("--output", default=None)

    p_sp = sub.add_parser("semiparam", help="run the semiparametric pipeline")
    p_sp.add_argument("config")
    p_sp.add_argument("--output", default=None)

    p_in = sub.add_parser("ingest", help="validate a feature/label CSV")
    p_in.add_argument("csv_path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            if args.print_config:
                cfg = _parse_config_file(args.config)
                for key in sorted(cfg):
                    print(f"{key}={cfg[key]}")
                return 0
            return cmd_simulate(args.config, args.output)
        if args.command == "theory":
            return cmd_theory(args)
        if args.command == "semiparam":
            return cmd_semiparam(args.config, args.output)
        dataset = cmd_ingest(args.csv_path)
        print(f"ok: n={dataset.n} d={dataset.d} m={dataset.m}")
        return 0
    except TooFewIncludedTrials as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
