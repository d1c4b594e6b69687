"""Command-line interface.

Subcommands:
  run         replicate an experiment preset and write a CSV of results
  design      write the oracle design weights per arm for a preset
  complexity  print the complexity functionals and sample lower bound

Exit codes: 0 success, 2 configuration error, 3 run failure.
"""

from __future__ import annotations

import argparse
import ast
import sys

from .core import HetBanditError
from .ident import IdentTask, psi_star
from .presets import ConfigError, ExperimentConfig, build_preset
from .runner import emit_design_table, run_suite


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, values are literals."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                out[key.strip()] = _parse_value(value.strip())
    except OSError as exc:
        raise ConfigError(f"could not read config file {path}: {exc}") from exc
    return out


def _apply_set_args(overrides: dict, pairs: list[str]):
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = _parse_value(value.strip())


def _build_experiment_config(args) -> ExperimentConfig:
    file_cfg = parse_config_file(args.config) if args.config else {}
    overrides = dict(file_cfg.pop("overrides", {})) if isinstance(file_cfg.get("overrides"), dict) else {}
    known = {"preset", "reps", "replications", "seed", "base_seed", "delta", "out",
             "output_path", "jobs", "algorithms"}
    for key in list(file_cfg):
        if key not in known:
            overrides[key] = file_cfg.pop(key)

    preset = args.preset or file_cfg.get("preset")
    if not preset:
        raise ConfigError("a preset is required (--preset or config file)")
    reps = args.reps if args.reps is not None else file_cfg.get("reps", file_cfg.get("replications", 32))
    seed = args.seed if args.seed is not None else file_cfg.get("seed", file_cfg.get("base_seed", 0))
    delta = args.delta if args.delta is not None else file_cfg.get("delta", 0.05)
    out = args.out if args.out is not None else file_cfg.get("out", file_cfg.get("output_path"))
    jobs = args.jobs if args.jobs is not None else file_cfg.get("jobs", 1)
    algorithms = None
    raw_algos = getattr(args, "algorithms", None) or file_cfg.get("algorithms")
    if raw_algos:
        if isinstance(raw_algos, str):
            algorithms = tuple(a.strip() for a in raw_algos.split(",") if a.strip())
        else:
            algorithms = tuple(raw_algos)

    if getattr(args, "kappa", None) is not None:
        overrides["kappa"] = args.kappa
    _apply_set_args(overrides, args.set or [])

    try:
        return ExperimentConfig(
            preset=str(preset),
            replications=int(reps),
            base_seed=int(seed),
            delta=float(delta),
            overrides=overrides,
            output_path=out,
            jobs=int(jobs),
            algorithms=algorithms,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad configuration value: {exc}") from exc


def _add_common_args(sub):
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--preset", help="experiment preset name")
    sub.add_argument("--reps", type=int, default=None, help="replication count")
    sub.add_argument("--seed", type=int, default=None, help="base seed")
    sub.add_argument("--delta", type=float, default=None, help="confidence level")
    sub.add_argument("--jobs", type=int, default=None, help="parallel workers")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a preset parameter (repeatable)")
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--kappa", type=float, default=None,
                     help="shortcut for --set kappa=... (intro preset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetbandit",
        description="Variance-aware pure-exploration linear bandit experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_p = subparsers.add_parser("run", help="run a preset over many seeds")
    _add_common_args(run_p)
    run_p.add_argument("--algorithms", default=None,
                       help="comma-separated subset of algorithms to run")

    design_p = subparsers.add_parser("design", help="emit oracle design weights")
    _add_common_args(design_p)
    design_p.add_argument("--sigma-source", default="both",
                          choices=["truth", "max", "both"])

    cx_p = subparsers.add_parser("complexity", help="print complexity functionals")
    _add_common_args(cx_p)
    return parser


def _cmd_run(args) -> int:
    config = _build_experiment_config(args)
    if not config.output_path:
        raise ConfigError("run needs an output path (--out)")
    _rows, any_failed = run_suite(config)
    print(f"wrote {config.output_path}")
    return 3 if any_failed else 0


def _cmd_design(args) -> int:
    config = _build_experiment_config(args)
    if not config.output_path:
        raise ConfigError("design needs an output path (--out)")
    bundle = build_preset(config)
    sources = ("truth", "max") if args.sigma_source == "both" else (args.sigma_source,)
    emit_design_table(bundle, config.output_path, sigma_sources=sources)
    print(f"wrote {config.output_path}")
    return 0


def _cmd_complexity(args) -> int:
    config = _build_experiment_config(args)
    bundle = build_preset(config)
    if not isinstance(bundle.task, IdentTask):
        raise ConfigError("complexity needs an identification preset")
    report = psi_star(bundle.task, variances=bundle.variances)
    print(f"preset            {bundle.name}")
    print(f"psi_star          {report.psi_star:.6g}")
    print(f"rho_star          {report.rho_star:.6g}")
    print(f"ratio             {report.ratio:.6g}")
    print(f"kappa             {report.kappa:.6g}")
    print(f"sample_lower_bound {report.lower_bound_samples(config.delta):.6g}  (delta={config.delta})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"run": _cmd_run, "design": _cmd_design, "complexity": _cmd_complexity}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HetBanditError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
