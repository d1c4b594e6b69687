"""Command-line interface.

Subcommands:
  run         replicate an experiment preset and write a CSV of results
  design      write the oracle design weights per arm for a preset
  complexity  print the complexity functionals and sample lower bound

Each setting is read from its flag, else from the ``--config`` file, else
from the default of :class:`~hetbandit.presets.ExperimentConfig`. The other
file keys, ``--kappa`` and each ``--set`` override a preset parameter or a run
setting. ``ExperimentConfig`` rejects a setting that the command does not
read: the run settings (``c_prime``, ``fw_tol``, ``max_rounds``) belong to
``run`` on an identification preset, ``algorithms``, ``--reps``, ``--seed``
and ``--jobs`` to ``run`` alone, and ``--delta`` to ``run`` on an
identification preset and to ``complexity``. ``design``, ``complexity`` and
the ``varest`` estimators solve at fixed tolerances.

Exit codes: 0 success, 2 configuration error, 3 run failure.
"""

from __future__ import annotations

import argparse
import ast
import sys

from .core import HetBanditError
from .ident import IdentTask, psi_star
from .presets import COMMANDS, ConfigError, ExperimentConfig, build_preset
from .runner import emit_design_table, run_suite


# ExperimentConfig field -> its config-file keys, the first also its flag.
CONFIG_KEYS = {"preset": ("preset",), "replications": ("reps", "replications"),
               "base_seed": ("seed", "base_seed"), "delta": ("delta",), "jobs": ("jobs",),
               "output_path": ("out", "output_path"), "algorithms": ("algorithms",)}


def _key_value(text: str, where: str) -> tuple[str, object]:
    """``key = value`` with the value read as a Python literal, else as text."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key = value, got {text!r}")
    key, value = (part.strip() for part in text.split("=", 1))
    try:
        return key, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return key, value


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment, values are literals."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(lineno, line.split("#", 1)[0].strip()) for lineno, line in enumerate(fh, 1)]
    except OSError as exc:
        raise ConfigError(f"could not read config file {path}: {exc}") from exc
    return dict(_key_value(line, f"{path}:{lineno}") for lineno, line in lines if line)


def _build_experiment_config(args) -> ExperimentConfig:
    """Flags over config-file keys; ``--kappa`` and ``--set`` over file overrides."""
    overrides = parse_config_file(args.config) if args.config else {}
    values = {}
    for name, keys in CONFIG_KEYS.items():
        for key in reversed(keys):
            if key in overrides:
                values[name] = overrides.pop(key)
        if getattr(args, keys[0], None) is not None:
            values[name] = getattr(args, keys[0])
    if "preset" not in values:
        raise ConfigError("a preset is required (--preset or config file)")
    if args.kappa is not None:
        overrides["kappa"] = args.kappa
    overrides.update(_key_value(pair, "--set") for pair in args.set or [])
    return ExperimentConfig(**values, overrides=overrides, command=args.command)


def _add_common_args(sub):
    sub.add_argument("--config", help="flat key = value configuration file")
    sub.add_argument("--preset", help="experiment preset name")
    sub.add_argument("--reps", type=int, default=None, help="replication count (run only)")
    sub.add_argument("--seed", type=int, default=None, help="base seed (run only)")
    sub.add_argument("--delta", type=float, default=None,
                     help="confidence level (run on an identification preset, complexity)")
    sub.add_argument("--jobs", type=int, default=None, help="parallel workers (run only)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a preset parameter or a run setting (repeatable)")
    sub.add_argument("--out", default=None, help="output CSV path")
    sub.add_argument("--kappa", type=float, default=None,
                     help="shortcut for --set kappa=... (intro preset)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetbandit",
        description="Variance-aware pure-exploration linear bandit experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for command, help_ in zip(COMMANDS, ("run a preset over many seeds", "emit oracle design weights",
                                         "print complexity functionals"), strict=True):
        subs[command] = subparsers.add_parser(command, help=help_)
        _add_common_args(subs[command])
    subs["run"].add_argument("--algorithms", default=None,
                             help="comma-separated subset of algorithms to run")
    subs["design"].add_argument("--sigma-source", default="both", choices=["truth", "max", "both"])
    return parser


def _cmd_run(args, config: ExperimentConfig) -> int:
    _rows, any_failed = run_suite(config)
    print(f"wrote {config.output_path}")
    return 3 if any_failed else 0


def _cmd_design(args, config: ExperimentConfig) -> int:
    bundle = build_preset(config)
    sources = ("truth", "max") if args.sigma_source == "both" else (args.sigma_source,)
    emit_design_table(bundle, config.output_path, sigma_sources=sources)
    print(f"wrote {config.output_path}")
    return 0


def _cmd_complexity(args, config: ExperimentConfig) -> int:
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
    handlers = dict(zip(COMMANDS, (_cmd_run, _cmd_design, _cmd_complexity), strict=True))
    try:
        config = _build_experiment_config(args)
        if args.command != "complexity" and not config.output_path:
            raise ConfigError(f"{args.command} needs an output path (--out)")
        return handlers[args.command](args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HetBanditError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
