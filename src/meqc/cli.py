"""Command-line entry point.

Verbs: ``gen`` writes a scenario file, ``eval`` scores the configured
policies, ``train`` runs the multi-agent learner, ``sweep`` runs a
parameter sweep.  Exit codes: 0 on success, 2 on configuration errors,
3 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .bench import (
    ConfigError,
    ExperimentConfig,
    build_scenario,
    emit_csv,
    parse_config,
    run_grid,
    run_sweep,
)
from .marl import train as train_agents
from .workload import save_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = parse_config("")
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        cfg = parse_config(path.read_text(encoding="utf-8"))
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        cfg = replace(cfg, seeds=(args.seed,))
    if getattr(args, "out", None) is not None:
        if not args.out:
            raise ConfigError("--out: must be a non-empty path")
        cfg = replace(cfg, output=args.out)
    return cfg


def _cmd_gen(args) -> int:
    cfg = _load_config(args)
    scenario = build_scenario(cfg, cfg.seeds[0])
    save_scenario(scenario, cfg.output)
    print(f"wrote scenario for seed {cfg.seeds[0]} to {cfg.output}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    rows = run_grid(cfg)
    emit_csv(rows, cfg.output)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    seed = cfg.seeds[0]
    scenario = build_scenario(cfg, seed)
    result = train_agents(
        scenario,
        cfg.train,
        seed,
        curve_path=cfg.output,
        checkpoint_path=cfg.checkpoint,
    )
    where = f" and checkpoint to {cfg.checkpoint}" if cfg.checkpoint else ""
    print(
        f"trained {len(result.agents)} agents for {cfg.train.epochs} epochs "
        f"(final mean cost {result.final_mean_cost:.6g}); "
        f"wrote curve to {cfg.output}{where}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = run_sweep(cfg)
    emit_csv(rows, cfg.output)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meqc",
        description="Multi-user edge offloading lab with classical and quantum servers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen": (_cmd_gen, "generate and write a scenario file"),
        "eval": (_cmd_eval, "evaluate the configured policies"),
        "train": (_cmd_train, "train the multi-agent learner"),
        "sweep": (_cmd_sweep, "run a parameter sweep"),
    }
    for name, (handler, help_text) in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="YAML experiment config (defaults if omitted)")
        cmd.add_argument("--seed", type=int, help="override the config seed list")
        cmd.add_argument("--out", help="override the output path")
        cmd.set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
