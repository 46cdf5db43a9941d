"""Byte-for-byte golden outputs: three training runs, a sweep CSV, an
evaluation with redrawn tasks and a hash of generated scenarios.

The files under ``tests/golden/`` pin the learning curves, a sha256 of
every trained parameter vector, a sweep CSV, the evaluation statistics of
baselines whose every episode draws fresh tasks, and one sha256 over many
``gen_scenario`` outputs, so refactors of the learner, environment,
evaluator or scenario generator can show that no output moved.  After
a deliberate change of results, regenerate them with
``python tests/test_golden.py`` and explain the change.
"""

import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from meqc.bench import _format_cell, emit_csv, parse_config, run_sweep
from meqc.marl import TrainConfig, train, write_learning_curve
from meqc.solvers import BaselinePolicy, EvalStats, PolicyKind, evaluate
from meqc.workload import PIN_FIELDS, gen_scenario, scenario_to_dict

GOLDEN = Path(__file__).parent / "golden"

TRAIN_RUNS = {
    # the shape of the ``train_3x3`` benchmark and acceptance criterion 8
    "train_adam_3x3": dict(
        users=3, servers=3, scenario_seed=0, seed=0,
        cfg=TrainConfig(epochs=2, steps_per_epoch=500, hidden_units=256),
    ),
    "train_redraw": dict(
        users=3, servers=2, scenario_seed=4, seed=1,
        cfg=TrainConfig(epochs=3, steps_per_epoch=32, updates_per_epoch=2,
                        batch_size=16, hidden_units=16, redraw_tasks=True),
    ),
    "train_sgd": dict(
        users=2, servers=3, scenario_seed=5, seed=2,
        cfg=TrainConfig(epochs=3, steps_per_epoch=32, updates_per_epoch=2,
                        batch_size=16, hidden_units=16, optimizer="sgd",
                        learning_rate=0.01),
    ),
}

SCENARIO_SEEDS = (*range(30), 2**32 - 1, 2**70 + 1)
SCENARIO_SHAPES = ((1, 1), (3, 3), (7, 4), (10, 10), (100, 20))
PIN_VALUES = {
    "edge_cpu": 12.5e9,
    "physical_qubits": 4000,
    "decoherence_time": 5e-3,
    "weight_latency": 0.3,
}
assert set(PIN_VALUES) == set(PIN_FIELDS)
# no pins, then each pinnable field on its own
SCENARIO_PINS = (None, *({name: PIN_VALUES[name]} for name in PIN_FIELDS))

SWEEP_CONFIG = (
    "scenario: {users: 3, servers: 2}\n"
    "sweep: {parameter: edge_cpu, values: [10.0e9, 20.0e9]}\n"
    "policies: [local, random, greedy, oracle]\n"
    "episodes: 3\n"
    "seeds: [0, 1]\n"
)

REDRAW_EVAL = dict(users=10, servers=10, seeds=(0, 1, 2), episodes=5,
                   policies=("local", "random", "random_cloud", "greedy"))


def train_outputs(name: str, workdir: Path) -> dict[str, bytes]:
    """The learning-curve CSV and per-network parameter hashes of one run."""
    run = TRAIN_RUNS[name]
    scenario = gen_scenario(run["users"], run["servers"], run["scenario_seed"])
    result = train(scenario, run["cfg"], run["seed"])
    curve = workdir / f"{name}_curve.csv"
    write_learning_curve(curve, result.curve)
    hashes = "".join(
        f"agent{u}.{name} {hashlib.sha256(net.params.tobytes()).hexdigest()}\n"
        for u, agent in enumerate(result.agents)
        for name, net in agent.nets.items()
    )
    return {
        f"{name}_curve.csv": curve.read_bytes(),
        f"{name}_params.txt": hashes.encode(),
    }


def sweep_output(workdir: Path) -> dict[str, bytes]:
    path = workdir / "sweep_3x2.csv"
    emit_csv(run_sweep(parse_config(SWEEP_CONFIG)), path)
    return {path.name: path.read_bytes()}


def redraw_eval_output(workdir: Path) -> dict[str, bytes]:
    """``EvalStats`` of each (policy, seed) with fresh tasks every episode.

    Cells are written as ``emit_csv`` writes them, floats at 12
    significant digits.
    """
    run = REDRAW_EVAL
    path = workdir / "eval_redraw_10x10.csv"
    stat_names = [f.name for f in dataclasses.fields(EvalStats)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "seed", *stat_names])
        for policy in run["policies"]:
            for seed in run["seeds"]:
                stats = evaluate(
                    BaselinePolicy(PolicyKind(policy)),
                    gen_scenario(run["users"], run["servers"], seed),
                    run["episodes"],
                    np.random.default_rng(seed),
                    redraw_tasks=True,
                )
                cells = [getattr(stats, name) for name in stat_names]
                writer.writerow([policy, seed, *map(_format_cell, cells)])
    return {path.name: path.read_bytes()}


def scenarios_output() -> dict[str, bytes]:
    """One sha256 over the JSON form of every (pins, shape, seed) scenario."""
    digest = hashlib.sha256()
    for pins in SCENARIO_PINS:
        for users, servers in SCENARIO_SHAPES:
            for seed in SCENARIO_SEEDS:
                doc = scenario_to_dict(gen_scenario(users, servers, seed, pins=pins))
                digest.update(json.dumps(doc, sort_keys=True).encode())
    return {"scenarios.sha256": f"{digest.hexdigest()}\n".encode()}


@pytest.mark.parametrize("name", sorted(TRAIN_RUNS))
def test_training_matches_golden(name, tmp_path):
    for filename, data in train_outputs(name, tmp_path).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


def test_sweep_matches_golden(tmp_path):
    for filename, data in sweep_output(tmp_path).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


def test_redraw_eval_matches_golden(tmp_path):
    for filename, data in redraw_eval_output(tmp_path).items():
        assert data == (GOLDEN / filename).read_bytes(), filename


def test_scenarios_match_golden():
    for filename, data in scenarios_output().items():
        assert data == (GOLDEN / filename).read_bytes(), filename


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    outputs = sweep_output(GOLDEN)
    outputs.update(redraw_eval_output(GOLDEN))
    outputs.update(scenarios_output())
    for run_name in TRAIN_RUNS:
        outputs.update(train_outputs(run_name, GOLDEN))
    for filename, data in outputs.items():
        (GOLDEN / filename).write_bytes(data)
        print(f"wrote {GOLDEN / filename}", file=sys.stderr)
