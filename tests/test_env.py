"""Environment tests: observation layout, QPU arbitration and reward wiring."""

import dataclasses
import warnings

import numpy as np
import pytest

from meqc.costs import JointAction, ScenarioEvaluator, ServerProfile
from meqc.env import MeqcEnv, grant_mask, observation_length
from meqc.solvers import BaselinePolicy, PolicyKind, evaluate, solve_baseline
from meqc.workload import gen_scenario

from cost_spec import (
    QuantumTaskSpec,
    TaskSpec,
    UserProfile,
    qpu_saving,
    records_of,
    total_cost,
    user_columns,
)
from test_workload import reference_redraw_tasks

# ``grant_mask`` has one rule (largest saving wins); cases carry its name
ONE_RULE = pytest.mark.parametrize("rule", ["max_saving"])


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
        users.append((profile, task, qtask))
    return dataclasses.replace(
        gen_scenario(len(users), num_servers, seed=0),
        columns=user_columns(users),
        servers=tuple(ServerProfile(concat_level=lv) for lv in levels),
    )


def reference_observation(scenario, user: int) -> np.ndarray:
    """User ``user``'s observation, read field by field from the scenario's objects."""
    profile, task, qtask = records_of(scenario)[user]
    scales = scenario.normalization
    fields = [
        profile.f_local / scales.f_local,
        task.data_size / scales.data_size,
        task.cycles_per_byte / scales.cycles_per_byte,
        qtask.logical_qubits / scales.logical_qubits,
        qtask.logical_depth / scales.logical_depth,
        profile.edge_cpu / scales.edge_cpu,
        profile.logical_qubit_quota / scales.logical_qubit_quota,
    ]
    fields.extend(s.concat_level / scales.concat_level for s in scenario.servers)
    fields.append(profile.tx_power / scales.tx_power)
    fields.extend(g / scales.channel_gain for g in profile.channel_gains)
    return np.asarray(fields, dtype=np.float64)


class TestObservations:
    def test_length(self):
        obs = MeqcEnv(gen_scenario(3, 3, seed=0)).observations()
        assert obs.shape == (3, observation_length(3))
        assert observation_length(3) == 14

    def test_reset_stable_without_redraw(self):
        env = MeqcEnv(gen_scenario(3, 3, seed=4))
        env.reset()
        first = env.observations()
        env.reset()
        second = env.observations()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_redraw_changes_tasks(self):
        env = MeqcEnv(gen_scenario(3, 3, seed=4), redraw_tasks=True,
                      rng=np.random.default_rng(0))
        env.reset()
        first = env.observations()
        env.reset()
        second = env.observations()
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))

    def test_redrawn_tables_share_the_drawn_sizes(self):
        env = MeqcEnv(gen_scenario(3, 3, seed=4), redraw_tasks=True,
                      rng=np.random.default_rng(0))
        env.reset()
        sizes = env.tasks[1]
        assert env.evaluator.data_size is env.evaluator._q_data_size is sizes
        assert not sizes.flags.writeable
        batch = env.score(np.zeros((2, 3)), np.zeros((2, 3)), tasks=[env.tasks] * 2)
        assert batch.reward[0] == batch.reward[1] == env.step(np.zeros((3, 2))).reward

    def test_normalized_fields_in_unit_interval(self):
        for seed in range(1000):
            obs = MeqcEnv(gen_scenario(2, 3, seed=seed)).observations()
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
            assert np.all(np.isfinite(obs))


# every table ``ScenarioEvaluator.with_tasks`` rebuilds
TASK_TABLES = ("success", "eligible", "data_size", "cycles_per_byte", "_q_data_size",
               "logical_qubits", "logical_depth")


class TestRedrawnEpisode:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (100, 20), (10, 10)])
    def test_episode_equals_reference_redraw(self, shape):
        base = gen_scenario(*shape, seed=6)
        env = MeqcEnv(base, redraw_tasks=True, rng=np.random.default_rng(11))
        for u, obs in enumerate(env.observations()):  # before the first redraw
            assert obs.tobytes() == reference_observation(base, u).tobytes()
        twin = np.random.default_rng(11)
        decisions = np.random.default_rng(0)
        for _ in range(20):
            env.reset()
            expected = reference_redraw_tasks(base, twin)
            assert env.rng.bit_generator.state == twin.bit_generator.state
            full = ScenarioEvaluator(expected)
            for table in TASK_TABLES:
                assert np.array_equal(getattr(env.evaluator, table), getattr(full, table))
            assert env.observations() is env.observations()  # built once per episode
            for u, obs in enumerate(env.observations()):
                assert obs.tobytes() == reference_observation(expected, u).tobytes()
            servers = decisions.integers(shape[1], size=(1, shape[0]))
            ratios = decisions.random((1, shape[0]))
            assert env.rewards(servers, ratios) == MeqcEnv(expected).rewards(servers, ratios)

    def test_observations_read_keeps_the_stream(self):
        base = gen_scenario(4, 3, seed=6)
        read, unread = (MeqcEnv(base, redraw_tasks=True, rng=np.random.default_rng(2))
                        for _ in range(2))
        for _ in range(5):
            read.reset()
            unread.reset()
            read.observations()
        for table in TASK_TABLES:
            assert np.array_equal(getattr(read.evaluator, table),
                                  getattr(unread.evaluator, table))
        assert read.rng.bit_generator.state == unread.rng.bit_generator.state


def allocate(evaluator, server_choice, local_ratio):
    """Grants of one joint decision: a one-row ``grant_mask`` batch."""
    grants, _ = grant_mask(
        evaluator,
        np.array([server_choice], dtype=np.int64),
        np.array([local_ratio], dtype=np.float64),
    )
    return tuple(grants[0].astype(int).tolist())


class TestResolveAllocation:
    def test_lone_eligible_user_granted(self):
        scenario = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        evaluator = ScenarioEvaluator(scenario)
        assert evaluator.eligible[0][0]
        assert allocate(evaluator, [0], [0.0]) == (1,)

    def test_contested_server_largest_saving_wins(self):
        # same server, user 1 offloads a bigger payload => larger saving
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        evaluator = ScenarioEvaluator(scenario)
        save0 = qpu_saving(evaluator, 0, 0, 0.0)
        save1 = qpu_saving(evaluator, 1, 0, 0.0)
        assert save1 > save0 > 0.0
        indicators = allocate(evaluator, [0, 0], [0.0, 0.0])
        assert indicators == (0, 1)
        # one grant per server, always
        assert sum(indicators) == 1

    def test_tie_breaks_to_lowest_index(self):
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 1e3))
        evaluator = ScenarioEvaluator(scenario)
        assert allocate(evaluator, [0, 0], [0.0, 0.0]) == (1, 0)

    def test_ratio_one_users_do_not_contend(self):
        # at ratio 1 nothing is offloaded, so there is nothing to run on a QPU
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        evaluator = ScenarioEvaluator(scenario)
        assert allocate(evaluator, [0, 0], [1.0, 1.0]) == (0, 0)
        # only the offloading user contends, on whichever server it picked
        assert allocate(evaluator, [0, 0], [0.0, 1.0]) == (1, 0)
        assert allocate(evaluator, [0, 1], [0.99, 1.0]) == (1, 0)

    def test_all_local_baseline_grants_nothing(self):
        scenario = craft_scenario(
            num_servers=2, quotas=(54, 54, 54), data_sizes=(1e3, 2e3, 3e3)
        )
        assert ScenarioEvaluator(scenario).eligible[:, 0].all()
        action = solve_baseline(PolicyKind.LOCAL, scenario)
        assert action.local_ratio.tolist() == [1.0] * 3
        assert action.quantum_indicator.tolist() == [0, 0, 0]
        stats = evaluate(BaselinePolicy(PolicyKind.LOCAL), scenario, 3,
                         np.random.default_rng(0))
        assert stats.qpu_grant_rate == 0.0

    def test_no_eligible_users(self):
        scenario = craft_scenario(quotas=(0, 0))
        evaluator = ScenarioEvaluator(scenario)
        assert allocate(evaluator, [0, 0], [0.0, 0.0]) == (0, 0)

    def test_exclusivity_over_random_actions(self):
        scenario = gen_scenario(5, 3, seed=8)
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            servers = rng.integers(0, 3, size=5)
            ratios = rng.uniform(0, 1, size=5)
            indicators = allocate(evaluator, servers, ratios)
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1.5])
    def test_non_index_server_refused_without_warning(self, value):
        env = MeqcEnv(gen_scenario(2, 2, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"user 0 picked unknown server {value}$"):
                env.step([(value, 0.5), (0, 0.5)])
            with pytest.raises(ValueError, match=f"user 0 picked unknown server {value}$"):
                env.step(np.array([[value, 0.5], [1, 0.5]]))

    def test_complete_action_grants_honored(self):
        scenario = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        env = MeqcEnv(scenario)
        env.reset()
        ungranted = JointAction((0,), (0.0,), (0,))
        result = env.step(ungranted)
        assert result.action.quantum_indicator == (0,)
        expected, _ = total_cost(scenario, ungranted)
        assert result.reward == pytest.approx(-expected, rel=1e-12)

    def test_complete_action_infeasible_grant_rejected(self):
        # step and total_cost validate a JointAction alike: both refuse a grant
        # on an ineligible (user, server) pair, at ratio 1, or to a taken QPU,
        # and every malformed field, a fractional server before any cast
        ineligible = craft_scenario(quotas=(0,), data_sizes=(1e3,))
        eligible = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        pair = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        cases = (
            (ineligible, JointAction((0,), (0.0,), (1,)), "infeasible"),
            (eligible, JointAction((0,), (1.0,), (1,)), "infeasible"),
            (pair, JointAction((0, 0), (0.0, 0.0), (1, 1)), "more than one QPU grant"),
            (gen_scenario(2, 3, 1), JointAction((0.7, 1), (1.0, 1.0), (0, 0)),
             "user 0 picked unknown server 0.7$"),
            (pair, JointAction((0, 0), (1.0,), (0, 0)), "fields must have equal length"),
            (pair, JointAction((0, 0), (0.5, 1.5), (0, 0)), r"local_ratio .* lie in \[0, 1\]"),
            (pair, JointAction((0, 0), (float("nan"), 1.0), (0, 0)), r"lie in \[0, 1\]"),
            (pair, JointAction((0, 0), (0.5, 1.0), (0, 2)), "quantum_indicator .* 0 or 1"),
        )
        for scenario, action, message in cases:
            env = MeqcEnv(scenario)
            env.reset()
            with pytest.raises(ValueError, match=message):
                env.step(action)
            with pytest.raises(ValueError, match=message):
                total_cost(scenario, action)

    def test_step_refuses_grants_that_score_would_take(self):
        # score takes grants as given; step checks them before scoring
        env = MeqcEnv(gen_scenario(3, 2, 0))
        env.reset()
        with pytest.raises(ValueError, match="user 0 claims an infeasible QPU grant on server 0"):
            env.step(JointAction((0, 0, 0), (1.0, 1.0, 1.0), (1, 1, 1)))

    def test_joint_action_fields_are_read_only_copies(self):
        servers, ratios = [0, 1], np.array([0.5, 1.0])
        action = JointAction(servers, ratios, (0, 0))
        servers[0], ratios[0] = 1, 0.0
        assert action == JointAction((0, 1), (0.5, 1.0), (0, 0))
        for field in (action.server_choice, action.local_ratio, action.quantum_indicator):
            with pytest.raises(ValueError, match="read-only"):
                field[0] = 1

    def test_complete_action_grant_at_ratio_one_rejected(self):
        # a user at ratio 1 offloads nothing, so it cannot hold a QPU grant
        scenario = craft_scenario(quotas=(54,), data_sizes=(1e3,))
        env = MeqcEnv(scenario)
        env.reset()
        assert env.step([(0, 1.0)]).action.quantum_indicator == (0,)
        assert env.step(JointAction((0,), (0.5,), (1,))).action.quantum_indicator == (1,)
        with pytest.raises(ValueError, match="infeasible"):
            env.step(JointAction((0,), (1.0,), (1,)))

    def test_reward_invariant_under_user_permutation(self):
        scenario = gen_scenario(3, 2, seed=14)
        actions = [(0, 0.3), (1, 0.0), (1, 1.0)]
        env = MeqcEnv(scenario)
        env.reset()
        base = env.step(actions).reward
        perm = [2, 0, 1]
        records = records_of(scenario)
        permuted_scenario = dataclasses.replace(
            scenario, columns=user_columns([records[p] for p in perm])
        )
        env2 = MeqcEnv(permuted_scenario)
        env2.reset()
        assert env2.step([actions[p] for p in perm]).reward == pytest.approx(
            base, rel=1e-12
        )


def count_checks(monkeypatch) -> list:
    """Record the action of every ``ScenarioEvaluator.check_action`` call from here on."""
    checked, real = [], ScenarioEvaluator.check_action

    def counting(self, action):
        checked.append(action)
        return real(self, action)

    monkeypatch.setattr(ScenarioEvaluator, "check_action", counting)
    return checked


class TestCheckOnce:
    @pytest.mark.parametrize("kind", [PolicyKind.GREEDY, PolicyKind.ORACLE])
    def test_repeated_action_checked_once(self, monkeypatch, kind):
        scenario = gen_scenario(4, 2, seed=3)
        expected = evaluate(BaselinePolicy(kind), scenario, 6, np.random.default_rng(1))
        checked = count_checks(monkeypatch)
        stats = evaluate(BaselinePolicy(kind), scenario, 6, np.random.default_rng(1))
        assert len(checked) == 1 and stats == expected

    def test_checked_arrays_are_read_only_and_reused(self):
        env = MeqcEnv(gen_scenario(3, 2, seed=5))
        action = BaselinePolicy(PolicyKind.GREEDY).act(env, None)
        arrays = env.check(action)
        assert env.check(action) is arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_new_object_or_new_evaluator_checked_again(self, monkeypatch):
        scenario = gen_scenario(3, 2, seed=5)
        action = BaselinePolicy(PolicyKind.GREEDY).act(MeqcEnv(scenario), None)
        checked = count_checks(monkeypatch)
        env = MeqcEnv(scenario)
        env.check(action)
        env.check(dataclasses.replace(action))  # equal, but another object
        assert len(checked) == 2
        local = JointAction((0,) * 3, (1.0,) * 3, (0,) * 3)  # valid in every episode
        redrawn = MeqcEnv(scenario, redraw_tasks=True, rng=np.random.default_rng(0))
        for _ in range(3):
            redrawn.reset()
            redrawn.check(local)
            redrawn.check(local)
        assert len(checked) == 5

    def test_invalid_action_raises_in_episode_zero(self):
        scenario = craft_scenario(quotas=(0,), data_sizes=(1e3,))
        acted = []

        class Infeasible:
            def act(self, env, rng):
                acted.append(env)
                return JointAction((0,), (0.0,), (1,))

        with pytest.raises(ValueError, match="infeasible"):
            evaluate(Infeasible(), scenario, 5, np.random.default_rng(0))
        assert len(acted) == 1
        env, action = acted[0], JointAction((0,), (0.0,), (1,))
        for _ in range(2):  # a refused action is not kept: it raises again
            with pytest.raises(ValueError, match="infeasible"):
                env.check(action)


def rowwise_step_rewards(env, servers, ratios):
    return [
        env.step(list(zip(row_servers, row_ratios))).reward
        for row_servers, row_ratios in zip(servers.tolist(), ratios.tolist())
    ]


def reference_allocation(evaluator, server_choice, local_ratio):
    """The per-server scalar arbitration loop that ``grant_mask`` vectorises."""
    indicators = [0] * len(server_choice)
    for server in range(evaluator.num_servers):
        candidates = [
            u
            for u, choice in enumerate(server_choice)
            if choice == server and evaluator.eligible[u][server] and local_ratio[u] < 1.0
        ]
        if not candidates:
            continue
        winner = max(
            candidates,
            key=lambda u: (qpu_saving(evaluator, u, server, local_ratio[u]), -u),
        )
        indicators[winner] = 1
    return tuple(indicators)


class TestBatchedRewards:
    @ONE_RULE
    @pytest.mark.parametrize(
        "make",
        [
            lambda: gen_scenario(6, 3, seed=12),
            lambda: gen_scenario(10, 4, seed=3),
            lambda: craft_scenario(
                num_servers=2, quotas=(54, 54, 54), data_sizes=(1e3, 2e3, 1.5e3)
            ),
        ],
        ids=["gen_6x3", "gen_10x4", "crafted"],
    )
    def test_rows_equal_step_rewards(self, make, rule):
        scenario = make()
        env = MeqcEnv(scenario)
        users, servers = env.num_users, env.num_servers
        rng = np.random.default_rng(8)
        batch_servers = rng.integers(0, servers, size=(64, users))
        # out-of-range ratios exercise the clamp; exact endpoints the grants
        batch_ratios = rng.choice([-0.5, 0.0, 0.25, 0.6, 1.0, 1.5], size=(64, users))
        batch_ratios[::2] = rng.uniform(0, 1, size=(32, users))
        rewards = env.rewards(batch_servers, batch_ratios)
        assert rewards.shape == (64,)
        assert rewards.tolist() == rowwise_step_rewards(env, batch_servers, batch_ratios)

    @ONE_RULE
    def test_grants_match_reference_loop(self, rule):
        scenario = craft_scenario(
            num_servers=3, quotas=(54, 54, 0, 54, 54), data_sizes=(1e3, 2e3, 1e3, 1e3, 3e3)
        )
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(21)
        servers = rng.integers(0, 3, size=(200, 5))
        ratios = rng.choice([0.0, 0.5, 1.0], size=(200, 5))
        ratios[::2] = rng.uniform(0, 1, size=(100, 5))
        grants, saving = grant_mask(evaluator, servers, ratios)
        for row in range(200):
            want = reference_allocation(
                evaluator, servers[row].tolist(), ratios[row].tolist()
            )
            assert tuple(grants[row].astype(int).tolist()) == want, row
        # the record holds each winner's saving and NaN everywhere else
        rows, users = np.nonzero(grants)
        assert saving[rows, users].tolist() == evaluator.savings(
            servers[rows, users], ratios[rows, users], users=users).tolist()
        assert np.isnan(saving[~grants]).all()
        # a joint action's row is not arbitrated, so its saving is NaN, granted or not
        mixed = MeqcEnv(scenario).score(servers[:4], ratios[:4], [grants[0], None, grants[2], None])
        assert mixed.grants.tolist() == grants[:4].tolist() and grants[[0, 2]].any()
        assert np.isnan(mixed.saving[[0, 2]]).all()
        assert np.array_equal(mixed.saving[[1, 3]], saving[[1, 3]], equal_nan=True)

    def test_crafted_batch_makes_grants(self):
        scenario = craft_scenario(
            num_servers=2, quotas=(54, 54, 54), data_sizes=(1e3, 2e3, 1.5e3)
        )
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(8)
        servers = rng.integers(0, 2, size=(64, 3))
        grants, _ = grant_mask(evaluator, servers, np.zeros((64, 3)))
        assert grants.any()
        for row in range(64):
            for server in range(2):
                assert grants[row][servers[row] == server].sum() <= 1

    @ONE_RULE
    def test_tie_goes_to_lowest_index(self, rule):
        scenario = craft_scenario(quotas=(54, 54, 54), data_sizes=(1e3, 1e3, 1e3))
        env = MeqcEnv(scenario)
        servers = np.array([[0, 0, 0], [1, 1, 1], [1, 0, 0], [0, 1, 1]])
        ratios = np.zeros((4, 3))
        grants, _ = grant_mask(env.evaluator, servers, ratios)
        assert grants.astype(int).tolist() == [
            [1, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 0]
        ]
        assert env.rewards(servers, ratios).tolist() == rowwise_step_rewards(
            env, servers, ratios
        )
        assert env.step([(0, 0.0)] * 3).action.quantum_indicator.tolist() == [1, 0, 0]

    def test_batch_checks_shape_and_servers(self):
        env = MeqcEnv(gen_scenario(2, 2, seed=0))
        with pytest.raises(ValueError, match="expected 2 actions"):
            env.rewards([[0, 1, 0]], [[0.5, 0.5, 0.5]])
        with pytest.raises(ValueError, match="user 1 picked unknown server 2"):
            env.rewards([[0, 1], [0, 2]], [[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.5])
    def test_batch_refuses_non_index_servers_without_warning(self, value):
        env = MeqcEnv(gen_scenario(2, 2, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"user 1 picked unknown server {value}$"):
                env.rewards([[0, 1], [1, value]], [[0.5, 0.5], [0.5, 0.5]])
            # integral floats are indices
            assert env.rewards([[0.0, 1.0]], [[0.5, 0.5]]) == env.rewards([[0, 1]], [[0.5, 0.5]])

    def test_step_splits_cost_into_weighted_parts(self):
        scenario = craft_scenario(quotas=(54, 54), data_sizes=(1e3, 2e3))
        env = MeqcEnv(scenario)
        result = env.step([(0, 0.0), (0, 0.3)])
        assert result.action.quantum_indicator.tolist() == [0, 1]
        _, breakdowns = total_cost(scenario, result.action)
        assert result.latency_cost == sum(
            profile.weight_latency * b.latency_total
            for (profile, _, _), b in zip(records_of(scenario), breakdowns)
        )
        assert result.energy_cost == sum(
            profile.weight_energy * b.energy_total
            for (profile, _, _), b in zip(records_of(scenario), breakdowns)
        )

    def test_observations_built_once_per_scenario(self, monkeypatch):
        calls = []
        build = MeqcEnv._make_observations
        monkeypatch.setattr(
            MeqcEnv, "_make_observations", lambda env: calls.append(env) or build(env)
        )
        env = MeqcEnv(gen_scenario(3, 2, seed=0))
        env.reset()
        assert calls == []  # built only when a policy asks for them
        first = env.observations()
        env.reset()
        env.observations()
        assert len(calls) == 1
        with pytest.raises(ValueError):
            first[0][0] = 1.0  # shared between resets, so read-only
        redrawn = MeqcEnv(gen_scenario(3, 2, seed=0), redraw_tasks=True)
        redrawn.reset()
        redrawn.observations()
        redrawn.reset()
        redrawn.observations()
        assert len(calls) == 1 + 2  # once per redrawn episode
