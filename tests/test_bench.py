"""Config parsing, sweep plumbing, CSV contract and CLI exit codes."""

import csv
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from meqc.bench import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    build_scenario,
    emit_csv,
    parse_config,
    run_grid,
    run_sweep,
)
from meqc.cli import main
from meqc.env import MeqcEnv
from meqc.marl import HybridAgent, TrainConfig, save_checkpoint, train
from meqc.nn import Mlp
from meqc.solvers import BaselinePolicy, PolicyKind, evaluate
from meqc.workload import gen_scenario


def load_csv(path) -> list[dict]:
    """Read back an emitted CSV with numeric columns restored."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = []
        for row in csv.DictReader(fh):
            parsed = dict(row)
            parsed["seed"] = int(row["seed"])
            for col in CSV_COLUMNS[3:]:
                parsed[col] = float(row[col])
            rows.append(parsed)
    return rows


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.users == 10
        assert cfg.servers == 10
        assert cfg.bandwidth == 20e6
        assert cfg.noise_power == 1e-6
        assert cfg.chip_energy_per_cycle == 1e-11
        assert cfg.error_threshold == 2e-4
        assert cfg.weight_latency == 0.5
        assert cfg.qubit_tech.decoherence_time == 1e-3
        assert cfg.cryostat.total_attenuation_db == 40.0
        assert cfg.seeds == (0,)
        assert cfg.train.epochs == 500
        assert cfg.train.steps_per_epoch == 2000
        assert cfg.train.batch_size == 128
        assert cfg.train.discount == 0.95
        assert cfg.train.learning_rate == 0.001

    def test_sweep_section(self):
        cfg = parse_config(
            "sweep:\n  parameter: edge_cpu\n  values: [10.0e9, 15.0e9, 20.0e9]\n"
        )
        assert cfg.sweep_parameter == "edge_cpu"
        assert cfg.sweep_values == (10e9, 15e9, 20e9)

    def test_negative_bandwidth_rejected_with_key(self):
        with pytest.raises(ConfigError, match="scenario.bandwidth"):
            parse_config("scenario:\n  bandwidth: -5\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"scenario.bananas \(line 3\)"):
            parse_config("scenario:\n  users: 4\n  bananas: 2\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("<<: {a: 1}\n", "a (line 1): unknown key"),
            ("scenario:\n  <<: {bogus: 1}\n", "scenario.bogus (line 2): unknown key"),
            ("base: &b {bogus: 1}\nscenario:\n  <<: *b\n",
             "base (line 1): unknown key"),
            ("episodes: 1\nscenario:\n  <<: [{users: 2}, {users: 3, bogus: 1}]\n",
             "scenario.bogus (line 3): unknown key"),
            # an explicit key wins over a merged one, and so does its line
            ("episodes: 1\nscenario:\n  <<: {users: 2}\n  users: -1\n",
             "scenario.users (line 4): must be"),
            ("episodes: 1\nscenario:\n  users: -1\n  <<: {users: 2, servers: -2}\n",
             "scenario.users (line 3): must be"),
        ],
        ids=["top", "nested", "alias", "sequence", "explicit_after", "explicit_before"],
    )
    def test_merged_key_reports_line(self, text, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("policies: [local]\npolicies: [greedy]\nepisodes: 1\n",
             "policies (lines 1 and 2): repeated key"),
            ("episodes: 1\nscenario:\n  users: 2\n  servers: 3\n  users: 4\n",
             "scenario.users (lines 3 and 5): repeated key"),
            ("episodes: 1\nscenario:\n  <<: {users: 2,\n        users: 3}\n",
             "scenario.users (lines 3 and 4): repeated key"),
        ],
        ids=["top", "section", "in_merged_mapping"],
    )
    def test_repeated_key_rejected_with_both_lines(self, text, where, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        assert main(["eval", "--config", str(config)]) == 2
        assert where in capsys.readouterr().err

    def test_merge_override_is_not_a_repeat(self):
        # a key beside ``<<`` overrides the merged one, and the first of a
        # merged sequence wins over the later ones
        cfg = parse_config(
            "scenario:\n  <<: [{users: 2, servers: 3}, {users: 5}]\n  servers: 4\n"
        )
        assert (cfg.users, cfg.servers) == (2, 4)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("frobnicate: 1\n")

    def test_unknown_sweep_parameter(self):
        with pytest.raises(ConfigError, match="sweep.parameter"):
            parse_config("sweep:\n  parameter: bananas\n  values: [1]\n")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="policies"):
            parse_config("policies: [warlock]\n")

    def test_trained_policy_needs_checkpoint(self):
        with pytest.raises(ConfigError, match="checkpoint"):
            parse_config("policies: [trained]\n")
        cfg = parse_config("policies: [trained]\ncheckpoint: agents.npz\n")
        assert cfg.policies == ("trained",)

    def test_invalid_yaml(self):
        with pytest.raises(ConfigError, match="invalid YAML"):
            parse_config("scenario: [unbalanced\n")

    def test_device_overrides(self):
        cfg = parse_config(
            "device:\n  decoherence_time: 2.0e-3\n  attenuation_db: 50\n"
        )
        assert cfg.qubit_tech.decoherence_time == 2e-3
        assert cfg.cryostat.total_attenuation_db == 50.0

    def test_train_overrides_validated(self):
        with pytest.raises(ConfigError, match="train"):
            parse_config("train:\n  discount: 1.5\n")
        with pytest.raises(ConfigError, match="train.frobs"):
            parse_config("train:\n  frobs: 3\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("episodes: 1\nscenario: {weight_latency: abc}\n",
             "scenario.weight_latency (line 2)"),
            ("episodes: 1\ntrain: {epochs: x}\n", "train.epochs (line 2)"),
            ("episodes: 1\nscenario: {users: 2.7}\n", "scenario.users (line 2)"),
            ("seeds: [0]\nepisodes: true\n", "episodes (line 2)"),
            ("episodes: 1\nseeds: [1.7]\n", "seeds (line 2)"),
            ("episodes: 1\ndevice: {decoherence_time: .nan}\n",
             "device.decoherence_time (line 2)"),
            ("1: 2\nfoo: 3\n", "1 (line 1): unknown key"),
            ("sweep: {1: 2, x: 3, parameter: edge_cpu, values: [1.0e9]}\n",
             "sweep.1 (line 1): unknown key"),
            ("train: {1: 2, x: 3}\n", "train.1 (line 1): unknown key"),
            ("episodes: 1\ntrain:\n  epochs: 0\n", "train.epochs (line 3): epochs must be >= 1"),
            ("episodes: 1\ndevice: {num_stages: 1}\n",
             "device.num_stages (line 2): must be >= 2, got 1"),
            ("scenario: &x {users: *x}\n", "scenario.users (line 1): an alias of a mapping"),
        ],
        ids=["weight_latency_abc", "epochs_x", "users_2.7", "episodes_true", "seeds_1.7",
             "decoherence_time_nan", "top_mixed_keys", "sweep_mixed_keys",
             "train_mixed_keys", "epochs_0", "num_stages_1", "self_alias"],
    )
    def test_ill_typed_value_rejected_with_key_and_line(self, text, where, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        assert main(["eval", "--config", str(config)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("episodes: 1\nscenario: []\n", "scenario (line 2): must be a mapping"),
            ("episodes: 1\nscenario: 0\n", "scenario (line 2): must be a mapping"),
            ("device: false\n", "device (line 1): must be a mapping"),
            ("train: ''\n", "train (line 1): must be a mapping"),
            ("train: []\n", "train (line 1): must be a mapping"),
            ("sweep: []\n", "sweep (line 1): must be a mapping"),
            ("sweep: {}\n", "sweep.parameter"),
            ("device: {bananas: 1, decoherence_time: 1.0e-3}\n",
             "device.bananas (line 1): unknown key"),
        ],
        ids=["scenario_list", "scenario_0", "device_false", "train_empty_string",
             "train_list", "sweep_list", "sweep_empty_mapping", "device_unknown"],
    )
    def test_section_must_be_a_mapping(self, text, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)

    def test_null_sections_are_empty(self):
        cfg = parse_config("scenario:\ndevice:\nsweep:\ntrain:\ncheckpoint:\n")
        assert cfg == parse_config("")
        assert cfg.checkpoint is None

    @pytest.mark.parametrize(
        "text, where",
        [
            ("episodes: 1\noutput:\n", "output (line 2): must be a non-empty path"),
            ("output: ''\n", "output (line 1): must be a non-empty path"),
            ("episodes: 1\ncheckpoint: ''\n", "checkpoint (line 2): must be a non-empty path"),
            ("output: [a, b]\n", "output (line 1): must be a non-empty path, got ['a', 'b']"),
            ("episodes: 1\ncheckpoint: {x: 1}\n",
             "checkpoint (line 2): must be a non-empty path, got {'x': 1}"),
            ("output: true\n", "output (line 1): must be a non-empty path, got True"),
            ("output: 5\n", "output (line 1): must be a non-empty path, got 5"),
        ],
        ids=["output_null", "output_empty", "checkpoint_empty", "output_list",
             "checkpoint_mapping", "output_bool", "output_int"],
    )
    def test_paths_must_be_non_empty(self, text, where, tmp_path, monkeypatch, capsys):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)
        monkeypatch.chdir(tmp_path)
        Path("cfg.yaml").write_text(text)
        for verb in ("eval", "train"):
            assert main([verb, "--config", "cfg.yaml"]) == 2
            assert where in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_integral_float_accepted_as_int(self):
        cfg = parse_config("scenario: {users: 3.0}\ntrain: {epochs: 2.0}\n")
        assert cfg.users == 3 and isinstance(cfg.users, int)
        assert cfg.train.epochs == 2 and isinstance(cfg.train.epochs, int)

    @pytest.mark.parametrize("key, field", [
        ("attenuation_db", "total_attenuation_db"), ("heat_gen", "heat_gen"),
        ("heat_hemt", "heat_hemt"), ("heat_para", "heat_para")])
    def test_device_zero_is_in_the_model_domain(self, key, field):
        assert getattr(parse_config(f"device: {{{key}: 0}}\n").cryostat, field) == 0.0
        with pytest.raises(ConfigError, match=re.escape(f"device.{key} (line 1): must be >= 0")):
            parse_config(f"device: {{{key}: -1.0e-9}}\n")

    def test_swept_allotment_stays_an_exact_int(self):
        cfg = parse_config(
            "scenario: {users: 2, servers: 2}\npolicies: [local]\nepisodes: 1\n"
            "sweep: {parameter: physical_qubits, values: [9007199254740993, 4000.0]}\n"
        )
        assert cfg.sweep_values == (2**53 + 1, 4000)
        assert [type(v) for v in cfg.sweep_values] == [int, int]
        assert [row["value"] for row in run_sweep(cfg)] == [4000.0, 2.0**53]

    @pytest.mark.parametrize(
        "text, where",
        [
            ('episodes: 1\nscenario: {users: "10"}\n',
             "scenario.users (line 2): must be an integer, got '10'"),
            ("episodes: 1\nscenario:\n  bandwidth: '2.0e7'\n",
             "scenario.bandwidth (line 3): must be a finite number, got '2.0e7'"),
            ("episodes: 1\nscenario: {bandwidth: 2_0e6}\n",
             "scenario.bandwidth (line 2): must be a finite number, got '2_0e6'"),
            ('episodes: "3"\n', "episodes (line 1): must be an integer, got '3'"),
            ("episodes: 1\ntrain:\n  learning_rate: '0.01'\n",
             "train.learning_rate (line 3): must be a finite number, got '0.01'"),
            ('sweep: {parameter: edge_cpu, values: ["1.0e9"]}\n',
             "sweep.values (line 1): edge_cpu must be a finite number, got '1.0e9'"),
            ("episodes: 1\noutput: 1e3\n", "output (line 2): must be a non-empty path, got 1000.0"),
        ],
        ids=["users", "bandwidth", "underscored", "episodes", "learning_rate", "sweep_value",
             "output_number"],
    )
    def test_quoted_numbers_rejected_with_key_and_line(self, text, where, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        assert main(["eval", "--config", str(config)]) == 2
        assert where in capsys.readouterr().err

    def test_yaml_1_2_floats_are_numbers(self):
        cfg = parse_config(
            "scenario: {bandwidth: 2.0e7, weight_latency: +.25}\n"
            "device:\n  frequency: 6.0e9\n  decoherence_time: 1e-3\n"
            "train: {learning_rate: 5E-4}\n"
        )
        values = (cfg.bandwidth, cfg.weight_latency, cfg.qubit_tech.frequency,
                  cfg.qubit_tech.decoherence_time, cfg.train.learning_rate)
        assert values == (2e7, 0.25, 6e9, 1e-3, 5e-4)
        assert all(type(v) is float for v in values)
        assert parse_config("scenario: {users: 1e1}\n").users == 10

    def test_yaml_1_2_ints_are_decimal(self):
        cfg = parse_config("episodes: 010\nscenario: {users: 0o17, servers: 0x1F}\n")
        assert (cfg.episodes, cfg.users, cfg.servers) == (10, 15, 31)
        with pytest.raises(ConfigError, match=re.escape("10 (line 1): unknown key")):
            parse_config("010: 3\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("episodes: 1:30\n", "episodes (line 1): must be an integer, got '1:30'"),
            ("episodes: 1\nscenario:\n  bandwidth: 1:30.5\n",
             "scenario.bandwidth (line 3): must be a finite number, got '1:30.5'"),
            ("episodes: 1\nscenario: {bandwidth: 2_0.0}\n",
             "scenario.bandwidth (line 2): must be a finite number, got '2_0.0'"),
            ("episodes: 1\nscenario: {users: 0b11}\n",
             "scenario.users (line 2): must be an integer, got '0b11'"),
        ],
        ids=["sexagesimal_int", "sexagesimal_float", "underscored_float", "binary_int"],
    )
    def test_yaml_1_1_number_forms_rejected(self, text, where, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        assert main(["eval", "--config", str(config)]) == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("train:\n  batch_size: 4\n  epochs: 0\n", "train.epochs (line 3): epochs must be >= 1"),
            ("train:\n  discount: 1.5\n  epochs: 2\n",
             "train.discount (line 2): discount must lie in [0, 1]"),
            ("train: {optimizer: rms}\n", "train.optimizer (line 1): unknown optimizer 'rms'"),
        ],
        ids=["epochs", "discount", "optimizer"],
    )
    def test_train_errors_name_their_key(self, text, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("sweep: {parameter: physical_qubits, values: [1%s]}\n" % ("0" * 400),
             "sweep.values (line 1): physical_qubits is too large, got 1000"),
            ("episodes: 1%s\n" % ("0" * 400), "episodes (line 1): is too large, got 1000"),
        ],
        ids=["sweep_value", "episodes"],
    )
    def test_integer_beyond_float_range_is_too_large(self, text, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            parse_config(text)

    def test_configs_are_frozen_and_hashable(self):
        # A mutable TrainConfig cannot be a dataclass default on Python 3.11+,
        # and on 3.10 every ExperimentConfig would share one mutable instance.
        with pytest.raises(dataclasses.FrozenInstanceError):
            TrainConfig().epochs = 1
        assert hash(parse_config("")) == hash(parse_config(""))


class TestBuildScenario:
    def test_config_fields_propagate(self):
        cfg = parse_config(
            "scenario:\n  users: 3\n  servers: 2\n  noise_power: 2.0e-6\n"
            "device:\n  decoherence_time: 4.0e-3\n"
        )
        scenario = build_scenario(cfg, seed=1)
        assert len(scenario.columns.f_local) == 3
        assert scenario.servers[0].noise_power == 2e-6
        assert scenario.qubit_tech.decoherence_time == 4e-3

    def test_pins_override_generation(self):
        cfg = parse_config("scenario:\n  users: 2\n  servers: 2\n")
        scenario = build_scenario(cfg, seed=0, pins={"edge_cpu": 11e9})
        assert scenario.columns.edge_cpu.tolist() == [11e9, 11e9]


def test_default_eval_grants_are_all_forced():
    """At the default eval, seeds 0-4, every QPU grant costs more than the CPU path.

    Each policy steps its episodes with ``run_grid``'s rng; a forced grant
    is one whose recorded arbitration ``saving`` is negative.
    """
    cfg = ExperimentConfig()
    grants = forced = 0
    for seed in range(5):
        scenario = build_scenario(cfg, seed)
        for policy_idx, policy in enumerate(cfg.policies):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, policy_idx)))
            env, chosen = MeqcEnv(scenario, rng=rng), BaselinePolicy(PolicyKind(policy))
            for _ in range(cfg.episodes):
                env.reset()
                result = env.step(chosen.act(env, rng))
                grants += np.count_nonzero(result.grants)
                forced += np.count_nonzero(result.saving < 0.0)
    assert grants == forced == 224


def tiny_sweep_config(**extra):
    text = (
        "scenario: {users: 2, servers: 2}\n"
        "sweep: {parameter: edge_cpu, values: [10.0e9, 20.0e9]}\n"
        "policies: [local, greedy]\n"
        "episodes: 2\n"
        "seeds: [0, 1]\n"
    )
    for key, value in extra.items():
        text += f"{key}: {value}\n"
    return parse_config(text)


class TestRunSweep:
    def test_row_grid_and_order(self):
        rows = run_sweep(tiny_sweep_config())
        assert len(rows) == 2 * 2 * 2
        keys = [(r["value"], r["policy"], r["seed"]) for r in rows]
        assert keys == sorted(keys)
        assert all(r["param"] == "edge_cpu" for r in rows)

    def test_requires_sweep_section(self):
        with pytest.raises(ConfigError, match="sweep"):
            run_sweep(parse_config("scenario: {users: 1, servers: 1}\n"))

    def test_parallel_matches_serial(self):
        serial = run_sweep(tiny_sweep_config())
        parallel = run_sweep(tiny_sweep_config(workers=2))
        assert serial == parallel

    def test_trained_sweep_through_a_process_pool(self, tmp_path):
        # the pool pickles the loaded agents into each grid point's task
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, train(gen_scenario(2, 2, seed=0), cfg, 0).agents)
        text = (
            "scenario: {users: 2, servers: 2}\n"
            "sweep: {parameter: edge_cpu, values: [10.0e9, 20.0e9]}\n"
            f"policies: [trained, local]\ncheckpoint: {path}\nepisodes: 2\nseeds: [0]\n"
        )
        serial = run_sweep(parse_config(text))
        assert [(r["value"], r["policy"]) for r in serial] == [
            (value, policy) for value in (10.0e9, 20.0e9) for policy in ("local", "trained")
        ]
        assert run_sweep(parse_config(text + "workers: 2\n")) == serial

    def test_pool_bounded_by_grid_size(self, tmp_path, monkeypatch):
        import meqc.bench

        sizes = []

        class SerialPool:
            """Records the pool size it is asked for and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(meqc.bench, "ProcessPoolExecutor", SerialPool)
        emit_csv(run_sweep(tiny_sweep_config()), tmp_path / "serial.csv")
        emit_csv(run_sweep(tiny_sweep_config(workers=64)), tmp_path / "pooled.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        run_grid(tiny_sweep_config(workers=64))  # unswept: one value, two seeds
        assert sizes == [4, 2]

    @pytest.mark.parametrize("runner", ["sweep", "eval"])
    def test_checkpoint_loaded_once_per_run(self, runner, tmp_path, monkeypatch):
        import meqc.bench

        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        save_checkpoint(tmp_path / "agents.npz", train(gen_scenario(2, 2, seed=0), cfg, 0).agents)
        loads = []
        real_load = meqc.bench.load_checkpoint
        monkeypatch.setattr(
            meqc.bench, "load_checkpoint", lambda path: loads.append(path) or real_load(path)
        )
        cfg = parse_config(
            "scenario: {users: 2, servers: 2}\n"
            "sweep: {parameter: edge_cpu, values: [10.0e9, 15.0e9, 20.0e9]}\n"
            f"policies: [trained, local]\ncheckpoint: {tmp_path / 'agents.npz'}\n"
            "episodes: 1\nseeds: [0, 1, 2]\n"
        )
        rows = run_sweep(cfg) if runner == "sweep" else run_grid(cfg)
        assert len(rows) == (18 if runner == "sweep" else 6)
        assert len(loads) == 1

    @pytest.mark.parametrize("runner", ["sweep", "eval"])
    def test_one_scenario_per_value_and_seed(self, runner, monkeypatch):
        import meqc.bench

        calls = []
        monkeypatch.setattr(
            meqc.bench, "gen_scenario",
            lambda *args, **kwargs: calls.append(args) or gen_scenario(*args, **kwargs),
        )
        cfg = parse_config(
            "scenario: {users: 2, servers: 2}\n"
            "sweep: {parameter: edge_cpu, values: [10.0e9, 15.0e9, 20.0e9]}\n"
            "policies: [local, random, random_cloud, greedy, oracle]\n"
            "episodes: 1\nseeds: [0, 1, 2, 3, 4]\n"
        )
        rows = run_sweep(cfg) if runner == "sweep" else run_grid(cfg)
        values = 3 if runner == "sweep" else 1
        assert len(rows) == values * 5 * 5
        assert len(calls) == values * 5

    def test_rows_match_one_evaluation_per_row(self):
        # repeated policies and seeds tie on the sort key; their order holds too
        cfg = parse_config(
            "scenario: {users: 3, servers: 2}\n"
            "sweep: {parameter: physical_qubits, values: [3000, 1000]}\n"
            "policies: [random, greedy, random]\nepisodes: 2\nseeds: [1, 0, 1]\n"
        )
        expected = []
        for vi, value in enumerate(cfg.sweep_values):
            for pi, policy in enumerate(cfg.policies):
                for seed in cfg.seeds:
                    scenario = build_scenario(cfg, seed, {"physical_qubits": value})
                    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(vi, pi)))
                    stats = evaluate(BaselinePolicy(PolicyKind(policy)), scenario, 2, rng)
                    expected.append((value, policy, seed, stats.mean_cost, stats.qpu_grant_rate))
        expected.sort(key=lambda r: r[:3])
        rows = run_sweep(cfg)
        assert [
            (r["value"], r["policy"], r["seed"], r["mean_cost"], r["qpu_grant_rate"])
            for r in rows
        ] == expected
        assert len({r["mean_cost"] for r in rows if r["policy"] == "random"}) > 4

    def test_eval_rows(self):
        cfg = parse_config(
            "scenario: {users: 2, servers: 2}\npolicies: [local]\nepisodes: 1\n"
        )
        rows = run_grid(cfg)
        assert len(rows) == 1
        assert rows[0]["param"] == "none"

    def test_only_the_learned_policy_builds_observations(self, tmp_path, monkeypatch):
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        save_checkpoint(tmp_path / "agents.npz", train(gen_scenario(3, 2, seed=0), cfg, 0).agents)
        built = []
        build = MeqcEnv._make_observations
        monkeypatch.setattr(
            MeqcEnv, "_make_observations", lambda env: built.append(env) or build(env)
        )
        text = "scenario: {users: 3, servers: 2}\nepisodes: 2\n"
        run_grid(parse_config(text))  # every baseline
        assert built == []
        run_grid(parse_config(
            text + f"policies: [trained]\ncheckpoint: {tmp_path / 'agents.npz'}\n"
        ))
        assert len(built) == 1  # one scenario, two episodes


class TestEmitCsv:
    def test_header_only_for_zero_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_round_trip_12_digits(self, tmp_path):
        row = {
            "seed": 3,
            "policy": "greedy",
            "param": "edge_cpu",
            "value": 1.5e10,
            "mean_cost": 123.456789012345,
            "latency_cost": 0.000123456789012,
            "energy_cost": 9.87654321098e8,
            "qpu_grant_rate": 1.0 / 3.0,
            "mean_success_prob": 0.978,
        }
        path = tmp_path / "row.csv"
        emit_csv([row], path)
        parsed = load_csv(path)[0]
        for col in CSV_COLUMNS:
            if isinstance(row[col], float):
                assert parsed[col] == pytest.approx(row[col], rel=1e-11)
            else:
                assert parsed[col] == row[col]

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([], path)
        assert b"\r" not in path.read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        cfg = tiny_sweep_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), a)
        emit_csv(run_sweep(cfg), b)
        assert a.read_bytes() == b.read_bytes()


class TestCli:
    def test_gen_writes_scenario(self, tmp_path):
        out = tmp_path / "scenario.json"
        code = main(["gen", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_eval_writes_csv(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\npolicies: [local]\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
        assert out.read_text().startswith(",".join(CSV_COLUMNS))

    def test_eval_defaults_run(self, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--out", str(out)]) == 0
        policies = [row["policy"] for row in load_csv(out)]
        assert len(policies) == 5 and "oracle" in policies
        assert sorted(policies) == sorted(parse_config("").policies)

    def test_sweep_verb(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\n"
            "sweep: {parameter: edge_cpu, values: [10.0e9]}\n"
            "policies: [greedy]\nepisodes: 1\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 2

    def test_train_verb(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 1, servers: 1}\n"
            f"checkpoint: {tmp_path / 'agents.npz'}\n"
            "train: {epochs: 2, steps_per_epoch: 8, updates_per_epoch: 1, "
            "batch_size: 8, hidden_units: 8}\n"
        )
        out = tmp_path / "curve.csv"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert (tmp_path / "agents.npz").exists()
        assert out.read_text().startswith("epoch,")

    def test_train_with_null_checkpoint_writes_only_the_curve(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("cfg.yaml").write_text(
            "scenario: {users: 1, servers: 1}\ncheckpoint:\n"
            "train: {epochs: 1, steps_per_epoch: 8, updates_per_epoch: 1, "
            "batch_size: 8, hidden_units: 8}\n"
        )
        assert main(["train", "--config", "cfg.yaml", "--out", "curve.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "curve.csv"]

    @pytest.mark.parametrize("verb", ["gen", "eval", "train", "sweep"])
    def test_negative_seed_override_is_config_error(self, verb, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([verb, "--seed", "-1", "--out", "out.csv"]) == 2
        assert "config error: --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_override_is_config_error(self, capsys):
        assert main(["eval", "--out", ""]) == 2
        assert "config error: --out: must be a non-empty path" in capsys.readouterr().err

    def test_train_then_eval_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("cfg.yaml").write_text(
            "scenario: {users: 2, servers: 2}\n"
            "policies: [trained]\ncheckpoint: agents.ckpt\nepisodes: 1\n"
            "train: {epochs: 1, steps_per_epoch: 8, updates_per_epoch: 1, "
            "batch_size: 8, hidden_units: 8}\n"
        )
        assert main(["train", "--config", "cfg.yaml", "--out", "curve.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "agents.ckpt", "cfg.yaml", "curve.csv"
        ]
        assert main(["eval", "--config", "cfg.yaml", "--out", "eval.csv"]) == 0
        assert [row["policy"] for row in load_csv("eval.csv")] == ["trained"]

    @pytest.mark.parametrize("content", [None, b"", b"not a checkpoint", b"PK\x03\x04junk"],
                             ids=["missing", "empty", "junk", "bad_zip"])
    def test_unreadable_checkpoint(self, content, tmp_path, capsys):
        path = tmp_path / "agents.npz"
        if content is not None:
            path.write_bytes(content)
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\n"
            f"policies: [trained]\ncheckpoint: {path}\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 2
        assert f"checkpoint: cannot load {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("users, servers", [(1, 2), (3, 2), (2, 3), (2, 1)],
                             ids=["fewer_users", "more_users", "more_servers", "fewer_servers"])
    def test_checkpoint_not_fitting_scenario(self, users, servers, tmp_path, capsys):
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        agents = train(gen_scenario(2, 2, seed=0), cfg, seed=0).agents
        save_checkpoint(tmp_path / "agents.npz", agents)
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"scenario: {{users: {users}, servers: {servers}}}\n"
            f"policies: [trained]\ncheckpoint: {tmp_path / 'agents.npz'}\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 2
        assert "checkpoint" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_agents(self, tmp_path, capsys):
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        path = tmp_path / "agents.npz"
        save_checkpoint(path, train(gen_scenario(2, 2, seed=0), cfg, seed=0).agents)
        with np.load(path) as data:
            arrays = dict(data)
        with open(path, "wb") as fh:  # the same checkpoint, holding no agents
            np.savez(fh, **{**arrays, "params": arrays["params"][:0]})
        config = tmp_path / "cfg.yaml"
        config.write_text(
            f"scenario: {{users: 2, servers: 2}}\n"
            f"policies: [trained]\ncheckpoint: {path}\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 2
        assert f"checkpoint: {path} holds 0 agents, but" in capsys.readouterr().err
        assert not out.exists()

    def test_loaded_checkpoint_scores_as_the_trained_agents(self, tmp_path, monkeypatch):
        import meqc.bench

        cfg = TrainConfig(epochs=2, steps_per_epoch=8, updates_per_epoch=1,
                          batch_size=8, hidden_units=16)
        agents = train(gen_scenario(3, 2, seed=0), cfg, seed=0).agents
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 3, servers: 2}\n"
            f"policies: [trained, local]\ncheckpoint: {path}\nepisodes: 2\nseeds: [0, 1]\n"
        )
        loaded, memory = tmp_path / "loaded.csv", tmp_path / "memory.csv"
        assert main(["eval", "--config", str(config), "--out", str(loaded)]) == 0
        monkeypatch.setattr(meqc.bench, "load_checkpoint", lambda _: agents)
        assert main(["eval", "--config", str(config), "--out", str(memory)]) == 0
        assert loaded.read_bytes() == memory.read_bytes()

    @pytest.mark.parametrize("case, reason", [
        ("version_1", "unsupported checkpoint schema_version 1"),
        ("version_2", "unsupported checkpoint schema_version 2"),
        ("version_3", "unsupported checkpoint schema_version 3"),
        ("width", "parameters per agent"),
        ("no_servers", "dimensions must be >= 1, got obs_dim 8, num_servers 0"),
        ("no_hidden", "dimensions must be >= 1"),
        ("more_logits", "obs_dim 12 does not fit 3 servers"),
        ("fewer_logits", "obs_dim 12 does not fit 1 servers"),
        ("one_dimensional", "expected a [agents, parameters] block"),
        ("float32", "contiguous float64 vector"),
        ("non_finite", "non-finite parameters for agents [0, 1]"),
    ])
    def test_malformed_checkpoint(self, case, reason, tmp_path, capsys):
        cfg = TrainConfig(epochs=1, steps_per_epoch=4, updates_per_epoch=1,
                          batch_size=4, hidden_units=8)
        agents = train(gen_scenario(2, 2, seed=0), cfg, seed=0).agents
        path = tmp_path / "agents.npz"
        save_checkpoint(path, agents)
        with np.load(path) as data:
            arrays = dict(data)
        if case == "version_1":  # the per-network layout it had before the block
            arrays = {key: arrays[key] for key in ("obs_dim", "num_servers", "hidden_units")}
            arrays.update(schema_version=1, num_agents=len(agents))
            for u, agent in enumerate(agents):
                arrays.update({f"agent{u}.{name}": net.params for name, net in agent.nets.items()})
        elif case == "version_2":  # a second critic after the last network, as version 2 had
            critic = np.stack([agent.nets["value"].params for agent in agents])
            arrays.update(schema_version=2, params=np.hstack([arrays["params"], critic]))
        elif case == "version_3":  # three networks: server logits, critic, ratio
            sizes = [(12, 8, 8, 2), (12, 8, 8, 1), (12, 8, 8, 2)]
            arrays.update(schema_version=3, params=np.zeros(
                (len(agents), sum(Mlp.param_count(s) for s in sizes))))
        elif case == "width":
            arrays["hidden_units"] = np.int64(9)
        elif case == "no_servers":  # an observation without server columns
            arrays.update(obs_dim=8, num_servers=0)
        elif case == "no_hidden":
            arrays["hidden_units"] = np.int64(0)
        elif case.endswith("_logits"):  # well-formed agents whose heads miss the scenario
            servers = 3 if case == "more_logits" else 1
            arrays.update(num_servers=servers, params=np.stack([
                HybridAgent(12, servers, 8, rng=np.random.default_rng(u)).params for u in range(2)
            ]))
        elif case == "one_dimensional":
            arrays["params"] = arrays["params"].ravel()
        elif case == "float32":
            arrays["params"] = arrays["params"].astype(np.float32)
        else:  # NaN logits pick server 0 and a NaN ratio clamps to 0: a plausible score
            arrays["params"][0, 5] = np.nan
            arrays["params"][1, -1] = np.inf
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\n"
            f"policies: [trained, local]\ncheckpoint: {path}\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"checkpoint: cannot load {path}: " in err and reason in err
        assert "Traceback" not in err

    def test_non_finite_cost_fails_the_run(self, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text("scenario: {chip_energy_per_cycle: 1.0e300}\n")
        out = tmp_path / "eval.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["eval", "--config", str(config), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "error: policy local: episode 0 has a non-finite cost inf" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "parameter, value",
        [("edge_cpu", "-5"), ("weight_latency", "1.5"), ("decoherence_time", "0"),
         ("physical_qubits", "2.5")],
    )
    def test_out_of_domain_sweep_value(self, parameter, value, tmp_path, capsys):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\n"
            "policies: [local]\n"
            f"sweep:\n  parameter: {parameter}\n  values: [{value}]\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"sweep.values (line 5): {parameter} must be" in err
        assert not out.exists()

    def test_zero_physical_qubits_sweep_runs(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\n"
            "sweep: {parameter: physical_qubits, values: [0]}\n"
            "policies: [greedy]\nepisodes: 1\n"
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        assert load_csv(out)[0]["qpu_grant_rate"] == 0.0

    def test_unattenuated_line_runs(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\ndevice: {attenuation_db: 0}\n"
            "policies: [oracle]\nepisodes: 1\n"
        )
        out = tmp_path / "eval.csv"
        assert main(["eval", "--config", str(config), "--out", str(out)]) == 0
        assert len(load_csv(out)) == 1

    def test_config_error_exit_code(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("scenario: {bandwidth: -1}\n")
        assert main(["eval", "--config", str(config)]) == 2

    def test_missing_config_exit_code(self):
        assert main(["eval", "--config", "/nonexistent/meqc.yaml"]) == 2

    def test_sweep_without_section_is_config_error(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("scenario: {users: 1, servers: 1}\n")
        assert main(["sweep", "--config", str(config)]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "scenario: {users: 2, servers: 2}\npolicies: [local]\nepisodes: 1\n"
        )
        assert (
            main(["eval", "--config", str(config), "--out",
                  str(tmp_path / "missing" / "dir" / "x.csv")])
            == 3
        )
