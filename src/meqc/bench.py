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
import re
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import reduce

import numpy as np
import yaml

from .device import CryostatConfig, QubitTech
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
    sweep_values: tuple[float | int, ...] = ()
    policies: tuple[str, ...] = ("local", "random", "random_cloud", "greedy", "oracle")
    episodes: int = 10
    seeds: tuple[int, ...] = (0,)
    output: str = "results.csv"
    checkpoint: str | None = None
    workers: int = 1
    train: TrainConfig = TrainConfig()


# Every numeric scenario/device key and every sweep parameter: (section, field
# it sets as a dotted ``ExperimentConfig`` path, domain).  The field's default
# gives the key's kind; the sweep-only pins have no section or field and are
# floats, except the physical-qubit allotment: an integer, kept exact, since
# ``gen_scenario`` takes any Python int.  A sweep value is checked as a set
# value of its key.
_POSITIVE = (lambda v: v > 0, "> 0")
_AT_LEAST_0 = (lambda v: v >= 0, ">= 0")
_SETTINGS = {
    "users": ("scenario", "users", _POSITIVE),
    "servers": ("scenario", "servers", _POSITIVE),
    "noise_power": ("scenario", "noise_power", _POSITIVE),
    "bandwidth": ("scenario", "bandwidth", _POSITIVE),
    "chip_energy_per_cycle": ("scenario", "chip_energy_per_cycle", _POSITIVE),
    "error_threshold": ("scenario", "error_threshold", _POSITIVE),
    "weight_latency": ("scenario", "weight_latency", (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")),
    "decoherence_time": ("device", "qubit_tech.decoherence_time", _POSITIVE),
    "frequency": ("device", "qubit_tech.frequency", _POSITIVE),
    "tau_1qb": ("device", "qubit_tech.tau_1qb", _POSITIVE),
    "tau_2qb": ("device", "qubit_tech.tau_2qb", _POSITIVE),
    "tau_meas": ("device", "qubit_tech.tau_meas", _POSITIVE),
    "tau_step": ("device", "qubit_tech.tau_step", _POSITIVE),
    "attenuation_db": ("device", "cryostat.total_attenuation_db", _AT_LEAST_0),
    "num_stages": ("device", "cryostat.num_stages", (lambda v: v >= 2, ">= 2")),
    "qubit_temperature": ("device", "cryostat.t_qubit", _POSITIVE),
    "generation_temperature": ("device", "cryostat.t_gen", _POSITIVE),
    "heat_gen": ("device", "cryostat.heat_gen", _AT_LEAST_0),
    "heat_hemt": ("device", "cryostat.heat_hemt", _AT_LEAST_0),
    "heat_para": ("device", "cryostat.heat_para", _AT_LEAST_0),
    "t_hemt": ("device", "cryostat.t_hemt", _POSITIVE),
    "t_para": ("device", "cryostat.t_para", _POSITIVE),
    "edge_cpu": (None, None, _POSITIVE),
    "physical_qubits": (None, None, _AT_LEAST_0),
}
_KINDS = {
    key: type(reduce(getattr, path.split("."), ExperimentConfig())) if path else float
    for key, (_, path, _) in _SETTINGS.items()
} | {"physical_qubits": int}
_TRAIN_KINDS = {f.name: type(f.default) for f in fields(TrainConfig)}
_TOP_KEYS = {"scenario", "device", "sweep", "policies", "episodes", "seeds",
             "output", "checkpoint", "workers", "train"}


_INT_TAG, _FLOAT_TAG = "tag:yaml.org,2002:int", "tag:yaml.org,2002:float"


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader, reading numbers as YAML 1.2's core schema does.

    Ints are decimal (``010`` is ten), ``0o`` octal or ``0x`` hex; floats
    include ``6.0e9``, ``1e-3`` and ``-.5``, which YAML 1.1 reads as
    strings.  YAML 1.1's sexagesimal (``1:30``), underscored (``2_0.0``)
    and ``0b`` forms stay strings, so ``_number`` refuses them.
    """

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag not in (_INT_TAG, _FLOAT_TAG)]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }


def _construct_int(loader, node) -> int:
    value = loader.construct_scalar(node)
    return int(value, 0) if value[:2] in ("0o", "0x") else int(value)


_Loader.add_implicit_resolver(
    _INT_TAG, re.compile(r"^(?:[-+]?[0-9]+|0o[0-7]+|0x[0-9a-fA-F]+)$"), list("-+0123456789")
)
_Loader.add_implicit_resolver(
    _FLOAT_TAG,
    re.compile(
        r"^(?:[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?"
        r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN))$"
    ),
    list("-+.0123456789"),
)
_Loader.add_constructor(_INT_TAG, _construct_int)


def _key_lines(text: str) -> dict[str, int]:
    """Map dotted key paths to 1-based line numbers of the YAML document.

    Keys are spelled as the parsed document holds them, so ``1:`` maps
    from ``"1"`` and ``true:`` from ``"True"``.  Keys merged in with ``<<``
    map to their line in the merged mapping, which a key written beside
    the ``<<`` overrides.  A key written twice in one mapping, which the
    parser would silently resolve to its last value, raises ``ConfigError``
    naming both lines, and so does a value that is an alias of a mapping
    containing it, naming its key and line.
    """
    constructor = _Loader("")
    try:
        root = yaml.compose(text, Loader=_Loader)
    except yaml.YAMLError:
        return {}
    lines: dict[str, int] = {}
    checked: set[int] = set()

    def check_unique(node, prefix):
        # before any merge is flattened, while each mapping holds only its own keys
        if id(node) in checked:  # an alias, or a merged mapping seen before
            return
        checked.add(id(node))
        if isinstance(node, yaml.SequenceNode):
            for item in node.value:
                check_unique(item, prefix)
        if not isinstance(node, yaml.MappingNode):
            return
        first: dict = {}
        for key_node, value_node in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                check_unique(value_node, prefix)
                continue
            key = constructor.construct_object(key_node)
            line = key_node.start_mark.line + 1
            if key in first:
                raise ConfigError(f"{prefix}{key} (lines {first[key]} and {line}): "
                                  "repeated key; give it once")
            first[key] = line
            check_unique(value_node, f"{prefix}{key}.")

    check_unique(root, "")

    def walk(node, prefix, ancestors):
        if not isinstance(node, yaml.MappingNode):
            return
        # inline ``<<`` merges in the constructor's order: merged keys
        # first, each overridden by the ones after it
        constructor.flatten_mapping(node)
        ancestors = ancestors | {id(node)}
        for key_node, value_node in node.value:
            path = f"{prefix}{constructor.construct_object(key_node)}"
            lines[path] = key_node.start_mark.line + 1
            if id(value_node) in ancestors:
                raise ConfigError(f"{path} (line {lines[path]}): "
                                  "an alias of a mapping that contains it")
            walk(value_node, path + ".", ancestors)

    try:
        walk(root, "", frozenset())
    except yaml.YAMLError:
        return {}
    return lines


def _fail(key, lines: dict[str, int], message: str):
    key = str(key)
    at = f" (line {lines[key]})" if key in lines else ""
    raise ConfigError(f"{key}{at}: {message}")


def _number(key, value, lines, kind=float, domain=None, subject=""):
    """``value`` as a finite ``kind`` inside ``domain``, a (test, description) pair, if given.

    Only YAML numbers pass: booleans and strings are rejected, and so are
    non-integral numbers if ``kind`` is int, which keeps a Python int
    exact; ``subject`` leads every failure.
    """
    try:
        number = math.nan if isinstance(value, (bool, str)) else float(value)
    except OverflowError:
        _fail(key, lines, f"{subject}is too large, got {value!r}")
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        wanted = "an integer" if kind is int else "a finite number"
        _fail(key, lines, f"{subject}must be {wanted}, got {value!r}")
    value = value if kind is int and isinstance(value, int) else kind(number)
    if domain is not None and not domain[0](value):
        _fail(key, lines, f"{subject}must be {domain[1]}, got {value}")
    return value


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a YAML experiment document.

    Unknown keys and out-of-range values raise ``ConfigError`` with the
    offending key and, where available, its line number.  An empty
    document yields the full default configuration.
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
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

    top, nested = {}, {"cryostat": {}, "qubit_tech": {}}
    for section in ("scenario", "device"):
        known = [key for key, (owner, _, _) in _SETTINGS.items() if owner == section]
        for key, value in _section(doc, section, known, lines).items():
            _, path, domain = _SETTINGS[key]
            value = _number(f"{section}.{key}", value, lines, _KINDS[key], domain)
            owner, _, name = path.rpartition(".")
            (nested[owner] if owner else top)[name] = value
    try:
        top.update({owner: replace(getattr(cfg, owner), **kw) for owner, kw in nested.items()})
    except ValueError as exc:
        _fail("device", lines, str(exc))
    cfg = replace(cfg, **top)

    if doc.get("sweep") is not None:
        sweep = _section(doc, "sweep", ("parameter", "values"), lines)
        parameter = sweep.get("parameter")
        if parameter not in PIN_FIELDS:
            _fail("sweep.parameter", lines, f"must be one of {PIN_FIELDS}")
        values = sweep.get("values")
        if not isinstance(values, list) or not values:
            _fail("sweep.values", lines, "must be a non-empty list")
        domain, kind = _SETTINGS[parameter][2], _KINDS[parameter]
        values = tuple(
            _number("sweep.values", v, lines, kind, domain, f"{parameter} ") for v in values
        )
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
        cfg = replace(cfg, episodes=_number("episodes", doc["episodes"], lines, int, _POSITIVE))
    if "workers" in doc:
        cfg = replace(cfg, workers=_number("workers", doc["workers"], lines, int, _POSITIVE))
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

    # one key at a time, in document order: ``TrainConfig`` has no rule
    # across fields, so a refusal belongs to the key just applied
    for key, value in _section(doc, "train", _TRAIN_KINDS, lines).items():
        kind = _TRAIN_KINDS[key]
        if kind in (int, float):
            value = _number(f"train.{key}", value, lines, kind)
        elif not isinstance(value, kind):
            _fail(f"train.{key}", lines, f"expected a {kind.__name__}, got {value!r}")
        try:
            cfg = replace(cfg, train=replace(cfg.train, **{key: value}))
        except ValueError as exc:
            _fail(f"train.{key}", lines, str(exc))

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
        # missing, empty, truncated, not an .npz archive, another schema version,
        # cut for inconsistent dimensions or holding non-finite parameters
        raise ConfigError(f"checkpoint: cannot load {cfg.checkpoint}: {exc}") from exc
    # a loaded agent's obs_dim fits its num_servers, so the servers decide the fit
    if len(agents) != cfg.users or agents[0].num_servers != cfg.servers:
        shape = f" for {agents[0].num_servers} servers" if agents else ""
        raise ConfigError(
            f"checkpoint: {cfg.checkpoint} holds {len(agents)} agents{shape}, but the "
            f"scenario has {cfg.users} users and {cfg.servers} servers"
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
    policy, and with it the one evaluator it builds.  The grid is visited
    seed by seed, so in a serial run a seed's values follow each other and
    all but the first read its draws from ``gen_scenario``'s memo.  Rows
    come back sorted regardless of worker scheduling, so output is
    deterministic.
    """
    agents = _trained_agents(cfg)
    grid = [
        (cfg, param, value, vi, seed, agents)
        for seed in cfg.seeds
        for vi, value in enumerate(values)
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
    rows = [
        points[si * len(values) + vi][pi]
        for vi in range(len(values))
        for pi in range(len(cfg.policies))
        for si in range(len(cfg.seeds))
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
