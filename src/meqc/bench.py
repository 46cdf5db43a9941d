"""Experiment configuration, sweeps and CSV emission.

Experiments are described by a single YAML document (every key optional;
an empty document reproduces the default setup).  A sweep runs every
(sweep value, policy, seed) combination through the evaluator and emits
one CSV row per combination; identical config plus seeds give a
byte-identical file.
"""

from __future__ import annotations

import csv
import math
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np
import yaml

from .device import CryostatConfig, QubitTech
from .env import observation_length
from .marl import HybridAgent, LearnedPolicy, TrainConfig, load_checkpoint
from .solvers import BaselinePolicy, PolicyKind, evaluate
from .workload import (
    DEFAULT_BANDWIDTH,
    DEFAULT_CHIP_ENERGY,
    DEFAULT_ERROR_THRESHOLD,
    DEFAULT_NOISE_POWER,
    DEFAULT_WEIGHT_LATENCY,
    PIN_FIELDS,
    Scenario,
    gen_scenario,
)

CSV_COLUMNS = (
    "seed",
    "policy",
    "param",
    "value",
    "mean_cost",
    "latency_cost",
    "energy_cost",
    "qpu_grant_rate",
    "mean_success_prob",
)

BASELINE_POLICIES = tuple(kind.value for kind in PolicyKind)
KNOWN_POLICIES = BASELINE_POLICIES + ("trained",)


class ConfigError(ValueError):
    """Malformed or out-of-range experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (defaults already filled)."""

    users: int = 10
    servers: int = 10
    noise_power: float = DEFAULT_NOISE_POWER
    bandwidth: float = DEFAULT_BANDWIDTH
    chip_energy_per_cycle: float = DEFAULT_CHIP_ENERGY
    error_threshold: float = DEFAULT_ERROR_THRESHOLD
    weight_latency: float = DEFAULT_WEIGHT_LATENCY
    cryostat: CryostatConfig = CryostatConfig()
    qubit_tech: QubitTech = QubitTech()
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()
    policies: tuple[str, ...] = ("local", "random", "random_cloud", "greedy", "oracle")
    episodes: int = 10
    seeds: tuple[int, ...] = (0,)
    output: str = "results.csv"
    checkpoint: str | None = None
    workers: int = 1
    train: TrainConfig = TrainConfig()


# key -> (target dataclass field, converter); nested sections listed below.
_SCENARIO_KEYS = {
    "users": int,
    "servers": int,
    "noise_power": float,
    "bandwidth": float,
    "chip_energy_per_cycle": float,
    "error_threshold": float,
    "weight_latency": float,
}
_DEVICE_KEYS = {
    "decoherence_time": ("qubit_tech", "decoherence_time"),
    "frequency": ("qubit_tech", "frequency"),
    "tau_1qb": ("qubit_tech", "tau_1qb"),
    "tau_2qb": ("qubit_tech", "tau_2qb"),
    "tau_meas": ("qubit_tech", "tau_meas"),
    "tau_step": ("qubit_tech", "tau_step"),
    "attenuation_db": ("cryostat", "total_attenuation_db"),
    "num_stages": ("cryostat", "num_stages"),
    "qubit_temperature": ("cryostat", "t_qubit"),
    "generation_temperature": ("cryostat", "t_gen"),
    "heat_gen": ("cryostat", "heat_gen"),
    "heat_hemt": ("cryostat", "heat_hemt"),
    "heat_para": ("cryostat", "heat_para"),
    "t_hemt": ("cryostat", "t_hemt"),
    "t_para": ("cryostat", "t_para"),
}
_TRAIN_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}
# Domain of each pinnable field, as (test, description) for sweep values.
_PIN_DOMAINS = {
    "edge_cpu": (lambda v: v > 0.0, "> 0"),
    "physical_qubits": (lambda v: v >= 0.0 and v.is_integer(), "an integer >= 0"),
    "decoherence_time": (lambda v: v > 0.0, "> 0"),
    "weight_latency": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
}
_TOP_KEYS = {"scenario", "device", "sweep", "policies", "episodes", "seeds",
             "output", "checkpoint", "workers", "train"}


def _key_lines(text: str) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers of the YAML document.

    Keys are spelled as the parsed document holds them, so ``1:`` maps
    from ``"1"`` and ``true:`` from ``"True"``.  Keys merged in with ``<<``
    map to their line in the merged mapping, and a key present more than
    once maps to the occurrence the parsed document keeps.
    """
    constructor = yaml.constructor.SafeConstructor()
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines: dict[str, int] = {}

    def walk(node, prefix):
        if not isinstance(node, yaml.MappingNode):
            return
        # inline ``<<`` merges in the constructor's order: merged keys
        # first, each overridden by the ones after it
        constructor.flatten_mapping(node)
        for key_node, value_node in node.value:
            path = f"{prefix}{constructor.construct_object(key_node)}"
            lines[path] = key_node.start_mark.line + 1
            walk(value_node, path + ".")

    try:
        walk(root, "")
    except yaml.YAMLError:
        return {}
    return lines


def _fail(key, lines: dict[str, int], message: str):
    key = str(key)
    at = f" (line {lines[key]})" if key in lines else ""
    raise ConfigError(f"{key}{at}: {message}")


def _number(key, value, lines, kind=float):
    """``value`` as a finite ``kind``; booleans and non-integral ints are rejected."""
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        wanted = "an integer" if kind is int else "a finite number"
        _fail(key, lines, f"expected {wanted}, got {value!r}")
    return value if kind is int and isinstance(value, int) else kind(number)


def _section(doc: dict, name: str, known, lines) -> dict:
    """The ``name`` mapping of ``doc`` with only ``known`` keys; absent or YAML null is empty."""
    section = doc.get(name)
    if section is None:
        return {}
    if not isinstance(section, dict):
        _fail(name, lines, "must be a mapping")
    unknown = [key for key in section if key not in known]
    if unknown:
        _fail(f"{name}.{unknown[0]}", lines, "unknown key")
    return section


def _path(key, value, lines) -> str:
    if not isinstance(value, str) or not value:
        _fail(key, lines, f"must be a non-empty path, got {value!r}")
    return value


def _positive(key, value, lines, kind=float):
    value = _number(key, value, lines, kind)
    if value <= 0:
        _fail(key, lines, f"must be > 0, got {value}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment document.

    Unknown keys and out-of-range values raise ``ConfigError`` with the
    offending key and, where available, its line number.  An empty
    document yields the full default configuration.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError("top level of the config must be a mapping")
    lines = _key_lines(text)

    unknown = [key for key in doc if key not in _TOP_KEYS]
    if unknown:
        _fail(unknown[0], lines, "unknown key")

    cfg = ExperimentConfig()

    for key, value in _section(doc, "scenario", _SCENARIO_KEYS, lines).items():
        path = f"scenario.{key}"
        if key == "weight_latency":
            value = _number(path, value, lines)
            if not 0.0 <= value <= 1.0:
                _fail(path, lines, f"must lie in [0, 1], got {value}")
        else:
            value = _positive(path, value, lines, _SCENARIO_KEYS[key])
        cfg = replace(cfg, **{key: value})

    cryostat_kwargs = {}
    tech_kwargs = {}
    for key, value in _section(doc, "device", _DEVICE_KEYS, lines).items():
        path = f"device.{key}"
        section, field_name = _DEVICE_KEYS[key]
        kind = int if key == "num_stages" else float
        value = _positive(path, value, lines, kind)
        (cryostat_kwargs if section == "cryostat" else tech_kwargs)[field_name] = value
    try:
        if cryostat_kwargs:
            cfg = replace(cfg, cryostat=replace(cfg.cryostat, **cryostat_kwargs))
        if tech_kwargs:
            cfg = replace(cfg, qubit_tech=replace(cfg.qubit_tech, **tech_kwargs))
    except ValueError as exc:
        _fail("device", lines, str(exc))

    if doc.get("sweep") is not None:
        sweep = _section(doc, "sweep", ("parameter", "values"), lines)
        parameter = sweep.get("parameter")
        if parameter not in PIN_FIELDS:
            _fail("sweep.parameter", lines, f"must be one of {PIN_FIELDS}")
        values = sweep.get("values")
        if not isinstance(values, list) or not values:
            _fail("sweep.values", lines, "must be a non-empty list")
        values = tuple(_number("sweep.values", v, lines) for v in values)
        in_domain, domain = _PIN_DOMAINS[parameter]
        for value in values:
            if not in_domain(value):
                _fail("sweep.values", lines, f"{parameter} must be {domain}, got {value}")
        cfg = replace(cfg, sweep_parameter=parameter, sweep_values=values)

    if "policies" in doc:
        policies = doc["policies"]
        if not isinstance(policies, list) or not policies:
            _fail("policies", lines, "must be a non-empty list")
        for name in policies:
            if name not in KNOWN_POLICIES:
                _fail("policies", lines, f"unknown policy {name!r}")
        cfg = replace(cfg, policies=tuple(policies))

    if "episodes" in doc:
        cfg = replace(cfg, episodes=_positive("episodes", doc["episodes"], lines, int))
    if "workers" in doc:
        cfg = replace(cfg, workers=_positive("workers", doc["workers"], lines, int))
    if "seeds" in doc:
        seeds = doc["seeds"]
        if not isinstance(seeds, list) or not seeds:
            _fail("seeds", lines, "must be a non-empty list")
        seeds = tuple(_number("seeds", s, lines, int) for s in seeds)
        if any(s < 0 for s in seeds):
            _fail("seeds", lines, "entries must be >= 0")
        cfg = replace(cfg, seeds=seeds)
    if "output" in doc:
        cfg = replace(cfg, output=_path("output", doc["output"], lines))
    if doc.get("checkpoint") is not None:
        cfg = replace(cfg, checkpoint=_path("checkpoint", doc["checkpoint"], lines))

    train = _section(doc, "train", _TRAIN_KINDS, lines)
    for key, value in train.items():
        kind = _TRAIN_KINDS[key]
        if kind in (int, float):
            train[key] = _number(f"train.{key}", value, lines, kind)
        elif not isinstance(value, kind):
            _fail(f"train.{key}", lines, f"expected a {kind.__name__}, got {value!r}")
    if train:
        try:
            cfg = replace(cfg, train=replace(cfg.train, **train))
        except ValueError as exc:
            _fail("train", lines, str(exc))

    if "trained" in cfg.policies and cfg.checkpoint is None:
        _fail("policies", lines, "policy 'trained' needs a checkpoint path")
    return cfg


def build_scenario(cfg: ExperimentConfig, seed: int, pins: dict | None = None) -> Scenario:
    """Generate the scenario described by ``cfg`` for one seed."""
    merged = {"weight_latency": cfg.weight_latency}
    if pins:
        merged.update(pins)
    return gen_scenario(
        cfg.users,
        cfg.servers,
        seed,
        pins=merged,
        noise_power=cfg.noise_power,
        bandwidth=cfg.bandwidth,
        chip_energy_per_cycle=cfg.chip_energy_per_cycle,
        error_threshold=cfg.error_threshold,
        cryostat=cfg.cryostat,
        qubit_tech=cfg.qubit_tech,
    )


def _trained_agents(cfg: ExperimentConfig) -> list[HybridAgent] | None:
    """The checkpoint's agents, loaded and fitted to the scenario shape once per run."""
    if "trained" not in cfg.policies:
        return None
    try:
        agents = load_checkpoint(cfg.checkpoint)
    except (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # missing, empty, truncated, not an .npz archive, or not a checkpoint
        raise ConfigError(f"checkpoint: cannot load {cfg.checkpoint}: {exc}") from exc
    obs_dim = observation_length(cfg.servers)
    if len(agents) != cfg.users or agents[0].obs_dim != obs_dim:
        shape = f" with obs_dim {agents[0].obs_dim}" if agents else ""
        raise ConfigError(
            f"checkpoint: {cfg.checkpoint} holds {len(agents)} agents{shape}, but the "
            f"scenario has {cfg.users} users and obs_dim {obs_dim}"
        )
    return agents


def _sweep_point(args) -> list[dict]:
    """Rows of every policy on the one scenario of a (value, seed) grid point."""
    cfg, param, value, value_idx, seed, agents = args
    pins = {param: value} if param is not None else None
    scenario = build_scenario(cfg, seed, pins)
    rows = []
    for policy_idx, policy in enumerate(cfg.policies):
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(value_idx, policy_idx))
        )
        if policy == "trained":
            chosen = LearnedPolicy(agents)
        else:
            chosen = BaselinePolicy(PolicyKind(policy))
        stats = evaluate(chosen, scenario, cfg.episodes, rng)
        rows.append({
            "seed": seed,
            "policy": policy,
            "param": param if param is not None else "none",
            "value": float(value),
            "mean_cost": stats.mean_cost,
            "latency_cost": stats.latency_cost,
            "energy_cost": stats.energy_cost,
            "qpu_grant_rate": stats.qpu_grant_rate,
            "mean_success_prob": stats.mean_success_prob,
        })
    return rows


def run_grid(cfg: ExperimentConfig, param: str | None = None, values=(0.0,)) -> list[dict]:
    """Evaluate every (value, policy, seed) combination, sorted in that order.

    With no ``param`` this is the unswept evaluation (``meqc eval``): one
    value, rows labelled ``param`` "none".

    Each (value, seed) scenario is generated once and shared by every
    policy.  Rows come back sorted regardless of worker scheduling, so
    output is deterministic.
    """
    agents = _trained_agents(cfg)
    grid = [
        (cfg, param, value, vi, seed, agents)
        for vi, value in enumerate(values)
        for seed in cfg.seeds
    ]
    # a pool forks all its workers up front, so never more than there are points
    workers = min(cfg.workers, len(grid))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(_sweep_point, grid))
    else:
        points = [_sweep_point(point) for point in grid]
    # (value, policy, seed) order before the stable sort, so rows that tie
    # on the sort key (repeated policies and seeds) keep their order
    seeds = len(cfg.seeds)
    rows = [
        points[vi * seeds + si][pi]
        for vi in range(len(values))
        for pi in range(len(cfg.policies))
        for si in range(seeds)
    ]
    rows.sort(key=lambda r: (r["value"], r["policy"], r["seed"]))
    return rows


def run_sweep(cfg: ExperimentConfig) -> list[dict]:
    """Evaluate every (sweep value, policy, seed) combination."""
    if cfg.sweep_parameter is None:
        raise ConfigError("sweep requires a 'sweep' section in the config")
    return run_grid(cfg, cfg.sweep_parameter, cfg.sweep_values)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def emit_csv(rows: list[dict], path) -> None:
    """Write rows with the fixed column order, LF endings, 12 significant digits.

    If writing fails midway a ``#PARTIAL`` marker line is appended (best
    effort) so the truncated file cannot pass as complete.
    """
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_format_cell(row[col]) for col in CSV_COLUMNS])
    except OSError:
        try:
            with open(path, "a", newline="", encoding="utf-8") as fh:
                fh.write("#PARTIAL\n")
        except OSError:
            pass
        raise
