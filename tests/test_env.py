"""Environment tests: observation layout, QPU arbitration and reward wiring."""

import dataclasses

import numpy as np
import pytest

from meqc.costs import (
    JointAction,
    QuantumTaskSpec,
    ScenarioEvaluator,
    ServerProfile,
    TaskSpec,
    UserProfile,
    total_cost,
)
from meqc.env import (
    MeqcEnv,
    build_observation,
    observation_length,
    resolve_quantum_allocation,
)
from meqc.workload import gen_scenario


def craft_scenario(num_servers=2, quotas=(54, 54), data_sizes=(1e3, 1e3),
                   edge_cpu=1e3, levels=None):
    """Hand-built scenario where the QPU path can actually be the cheap one:
    tiny payloads with a huge cycle count make the CPU path arbitrarily slow."""
    levels = levels or [2] * num_servers
    users = []
    for quota, size in zip(quotas, data_sizes):
        profile = UserProfile(
            f_local=1e3,
            tx_power=1e-4,
            weight_latency=0.5,
            weight_energy=0.5,
            channel_gains=(6.0,) * num_servers,
            edge_cpu=edge_cpu,
            logical_qubit_quota=quota,
        )
        task = TaskSpec(data_size=size, cycles_per_byte=1e6)
        qtask = QuantumTaskSpec(data_size=size, logical_qubits=20, logical_depth=813)
        users.append(
            dataclasses.replace(
                gen_scenario(1, num_servers, seed=0).users[0],
                profile=profile, task=task, quantum_task=qtask,
            )
        )
    return dataclasses.replace(
        gen_scenario(len(users), num_servers, seed=0),
        users=tuple(users),
        servers=tuple(ServerProfile(concat_level=lv) for lv in levels),
    )


class TestObservations:
    def test_length(self):
        scenario = gen_scenario(3, 3, seed=0)
        obs = build_observation(scenario, 0)
        assert len(obs) == observation_length(3) == 14

    def test_reset_stable_without_redraw(self):
        env = MeqcEnv(gen_scenario(3, 3, seed=4))
        first = env.reset()
        second = env.reset()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_redraw_changes_tasks(self):
        env = MeqcEnv(gen_scenario(3, 3, seed=4), redraw_tasks=True,
                      rng=np.random.default_rng(0))
        first = env.reset()
        second = env.reset()
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))

    def test_normalized_fields_in_unit_interval(self):
        for seed in range(1000):
            scenario = gen_scenario(2, 3, seed=seed)
            for u in range(2):
                obs = build_observation(scenario, u)
                assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
                assert np.all(np.isfinite(obs))


class TestResolveAllocation:
    def test_lone_eligible_user_granted(self):
        scenario = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        evaluator = ScenarioEvaluator(scenario)
        assert evaluator.eligible[0][0]
        assert resolve_quantum_allocation(evaluator, [0], [0.0]) == (1,)

    def test_contested_server_largest_saving_wins(self):
        # same server, user 1 offloads a bigger payload => larger saving
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        evaluator = ScenarioEvaluator(scenario)
        save0 = evaluator.qpu_saving(0, 0, 0.0)
        save1 = evaluator.qpu_saving(1, 0, 0.0)
        assert save1 > save0 > 0.0
        indicators = resolve_quantum_allocation(evaluator, [0, 0], [0.0, 0.0])
        assert indicators == (0, 1)
        # one grant per server, always
        assert sum(indicators) == 1

    def test_tie_breaks_to_lowest_index(self):
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 1e3))
        evaluator = ScenarioEvaluator(scenario)
        assert resolve_quantum_allocation(evaluator, [0, 0], [0.0, 0.0]) == (1, 0)

    def test_first_index_rule(self):
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        evaluator = ScenarioEvaluator(scenario)
        indicators = resolve_quantum_allocation(
            evaluator, [0, 0], [0.0, 0.0], rule="first_index"
        )
        assert indicators == (1, 0)

    def test_no_eligible_users(self):
        scenario = craft_scenario(quotas=(0, 0))
        evaluator = ScenarioEvaluator(scenario)
        assert resolve_quantum_allocation(evaluator, [0, 0], [0.0, 0.0]) == (0, 0)

    def test_exclusivity_over_random_actions(self):
        scenario = gen_scenario(5, 3, seed=8)
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            servers = rng.integers(0, 3, size=5)
            ratios = rng.uniform(0, 1, size=5)
            indicators = resolve_quantum_allocation(evaluator, servers, ratios)
            for server in range(3):
                granted = sum(
                    ind for u, ind in enumerate(indicators) if servers[u] == server
                )
                assert granted <= 1
            for u, ind in enumerate(indicators):
                if ind:
                    assert evaluator.eligible[u][servers[u]]


class TestStep:
    def test_all_local(self):
        scenario = gen_scenario(3, 3, seed=6)
        env = MeqcEnv(scenario)
        env.reset()
        result = env.step([(0, 1.0), (0, 1.0), (0, 1.0)])
        expected, _ = total_cost(scenario, JointAction((0,) * 3, (1.0,) * 3, (0,) * 3))
        assert result.reward == pytest.approx(-expected, rel=1e-12)

    def test_reward_matches_cost_model(self):
        scenario = gen_scenario(4, 3, seed=10)
        env = MeqcEnv(scenario)
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(25):
            actions = [
                (int(rng.integers(0, 3)), float(rng.uniform(0, 1))) for _ in range(4)
            ]
            result = env.step(actions)
            recomputed, _ = total_cost(scenario, result.action)
            assert result.reward == pytest.approx(-recomputed, rel=1e-12)

    def test_determinism(self):
        scenario = gen_scenario(3, 3, seed=6)
        env = MeqcEnv(scenario)
        env.reset()
        actions = [(0, 0.4), (1, 0.0), (2, 0.9)]
        assert env.step(actions).reward == env.step(actions).reward

    def test_ratio_clamping(self):
        env = MeqcEnv(gen_scenario(1, 1, seed=0))
        env.reset()
        result = env.step([(0, 1.7)])
        assert result.action.local_ratio == (1.0,)

    def test_length_mismatch(self):
        env = MeqcEnv(gen_scenario(2, 2, seed=0))
        env.reset()
        with pytest.raises(ValueError, match="expected 2 actions"):
            env.step([(0, 0.5)])

    def test_unknown_server(self):
        env = MeqcEnv(gen_scenario(1, 2, seed=0))
        env.reset()
        with pytest.raises(ValueError, match="unknown server"):
            env.step([(5, 0.5)])

    def test_complete_action_grants_honored(self):
        scenario = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        env = MeqcEnv(scenario)
        env.reset()
        ungranted = JointAction((0,), (0.0,), (0,))
        result = env.step(ungranted)
        assert result.indicators == (0,)
        expected, _ = total_cost(scenario, ungranted)
        assert result.reward == pytest.approx(-expected, rel=1e-12)

    def test_complete_action_infeasible_grant_rejected(self):
        scenario = craft_scenario(quotas=(0,), data_sizes=(1e3,))
        env = MeqcEnv(scenario)
        env.reset()
        with pytest.raises(ValueError, match="infeasible"):
            env.step(JointAction((0,), (0.0,), (1,)))

    def test_reward_invariant_under_user_permutation(self):
        scenario = gen_scenario(3, 2, seed=14)
        actions = [(0, 0.3), (1, 0.0), (1, 1.0)]
        env = MeqcEnv(scenario)
        env.reset()
        base = env.step(actions).reward
        perm = [2, 0, 1]
        permuted_scenario = dataclasses.replace(
            scenario, users=tuple(scenario.users[p] for p in perm)
        )
        env2 = MeqcEnv(permuted_scenario)
        env2.reset()
        assert env2.step([actions[p] for p in perm]).reward == pytest.approx(
            base, rel=1e-12
        )
