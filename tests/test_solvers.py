"""Solver tests: baseline semantics, greedy bookkeeping, oracle optimality."""

import itertools

import numpy as np
import pytest

from meqc.costs import JointAction, ScenarioEvaluator, local_cost, total_cost
from meqc.solvers import (
    BaselinePolicy,
    InstanceTooLargeError,
    PolicyKind,
    evaluate,
    solve_baseline,
    solve_exhaustive,
    solve_greedy,
)
from meqc.workload import gen_scenario

from test_env import craft_scenario


def random_instance(rng):
    num_users = int(rng.integers(1, 5))
    num_servers = int(rng.integers(1, 4))
    return gen_scenario(num_users, num_servers, seed=int(rng.integers(0, 2**31)))


class TestBaselines:
    def test_local_cost(self):
        scenario = gen_scenario(4, 3, seed=0)
        action = solve_baseline(PolicyKind.LOCAL, scenario)
        assert action.local_ratio == (1.0,) * 4
        expected = sum(
            local_cost(e.profile, e.task, 1.0, scenario.chip_energy_per_cycle).cost
            for e in scenario.users
        )
        assert total_cost(scenario, action)[0] == pytest.approx(expected, rel=1e-12)

    def test_random_cloud_full_offload(self):
        scenario = gen_scenario(5, 3, seed=1)
        action = solve_baseline(
            PolicyKind.RANDOM_CLOUD, scenario, np.random.default_rng(3)
        )
        assert action.local_ratio == (0.0,) * 5
        assert all(0 <= s < 3 for s in action.server_choice)

    def test_random_reproducible(self):
        scenario = gen_scenario(3, 3, seed=2)
        a = solve_baseline(PolicyKind.RANDOM, scenario, np.random.default_rng(11))
        b = solve_baseline(PolicyKind.RANDOM, scenario, np.random.default_rng(11))
        assert a == b

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            solve_baseline(PolicyKind.RANDOM, gen_scenario(1, 1, seed=0))


def reference_greedy(scenario):
    """The scalar greedy loop that ``solve_greedy`` vectorises, kept as its spec."""
    evaluator = ScenarioEvaluator(scenario)
    num_users = evaluator.num_users
    num_servers = evaluator.num_servers
    order = sorted(
        range(num_users),
        key=lambda u: (
            -scenario.users[u].task.data_size * scenario.users[u].task.cycles_per_byte,
            u,
        ),
    )
    servers = [0] * num_users
    ratios = [1.0] * num_users
    indicators = [0] * num_users
    slot_free = [True] * num_servers
    for u in order:
        best = None
        for server in range(num_servers):
            for ratio in (0.0, 1.0):
                cpu = evaluator.user_cost(u, server, ratio, use_qpu=False).cost
                if best is None or cpu < best[0]:
                    best = (cpu, server, ratio, 0)
                if (
                    slot_free[server]
                    and evaluator.eligible[u][server]
                    and evaluator.qpu_saving(u, server, ratio) > 0.0
                ):
                    qpu = evaluator.user_cost(u, server, ratio, use_qpu=True).cost
                    if qpu < best[0]:
                        best = (qpu, server, ratio, 1)
        _, servers[u], ratios[u], indicators[u] = best
        if indicators[u]:
            slot_free[servers[u]] = False
    return JointAction(
        server_choice=tuple(servers),
        local_ratio=tuple(ratios),
        quantum_indicator=tuple(indicators),
    )


GRANTING_INSTANCES = {
    "one_qpu_four_users": dict(
        num_servers=1, quotas=(54,) * 4, data_sizes=(1e3, 2e3, 3e3, 4e3)
    ),
    "two_servers_ties": dict(num_servers=2, quotas=(54,) * 5, data_sizes=(1e3,) * 5),
    "mixed_levels": dict(
        num_servers=3, quotas=(54, 0, 54, 54, 54), data_sizes=(3e3, 1e3, 2e3, 2e3, 5e2),
        levels=[1, 2, 3],
    ),
    "fast_edge_cpu": dict(
        num_servers=2, quotas=(54, 54, 54), data_sizes=(1e3, 2e3, 3e3), edge_cpu=1e9
    ),
}


class TestGreedy:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_reference_on_default_instances(self, seed):
        scenario = gen_scenario(10, 10, seed=seed)
        assert solve_greedy(scenario) == reference_greedy(scenario)

    @pytest.mark.parametrize("name", sorted(GRANTING_INSTANCES))
    def test_matches_reference_where_grants_happen(self, name):
        scenario = craft_scenario(**GRANTING_INSTANCES[name])
        action = solve_greedy(scenario)
        assert action == reference_greedy(scenario)
        if name != "fast_edge_cpu":
            assert sum(action.quantum_indicator) >= 1

    def test_single_user_matches_oracle(self):
        for seed in range(10):
            scenario = gen_scenario(1, 3, seed=seed)
            greedy_cost = total_cost(scenario, solve_greedy(scenario))[0]
            _, oracle_cost = solve_exhaustive(scenario)
            assert greedy_cost == pytest.approx(oracle_cost, rel=1e-12)

    def test_never_beats_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            scenario = random_instance(rng)
            greedy_cost = total_cost(scenario, solve_greedy(scenario))[0]
            _, oracle_cost = solve_exhaustive(scenario)
            assert greedy_cost >= oracle_cost - 1e-9 * max(1.0, abs(oracle_cost))

    def test_respects_slot_exclusivity(self):
        # several users that all profit from the single QPU
        scenario = craft_scenario(
            num_servers=1, quotas=(54, 54, 54), data_sizes=(1e3, 2e3, 3e3)
        )
        action = solve_greedy(scenario)
        assert sum(action.quantum_indicator) <= 1
        # the heaviest user is served first and takes the slot
        assert action.quantum_indicator[2] == 1

    def test_takes_qpu_only_when_strictly_cheaper(self):
        scenario = gen_scenario(4, 3, seed=9)
        evaluator = ScenarioEvaluator(scenario)
        action = solve_greedy(scenario)
        for u, grant in enumerate(action.quantum_indicator):
            if grant:
                e = action.server_choice[u]
                assert evaluator.qpu_saving(u, e, action.local_ratio[u]) > 0


class TestExhaustive:
    def test_single_pair_enumeration(self):
        scenario = craft_scenario(num_servers=1, quotas=(54,), data_sizes=(1e3,))
        evaluator = ScenarioEvaluator(scenario)
        action, cost = solve_exhaustive(scenario)
        candidates = [
            evaluator.user_cost(0, 0, ratio, use_qpu=bool(grant)).cost
            for ratio in (0.0, 1.0)
            for grant in (0, 1)
        ]
        assert cost == pytest.approx(min(candidates), rel=1e-12)

    def test_dominates_baselines(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            scenario = random_instance(rng)
            _, oracle_cost = solve_exhaustive(scenario)
            for kind in (PolicyKind.LOCAL, PolicyKind.RANDOM, PolicyKind.RANDOM_CLOUD,
                         PolicyKind.GREEDY):
                action = solve_baseline(kind, scenario, rng)
                assert total_cost(scenario, action)[0] >= oracle_cost - 1e-9

    def test_action_is_feasible(self):
        scenario = craft_scenario(
            num_servers=2, quotas=(54, 54, 0), data_sizes=(1e3, 2e3, 1e3)
        )
        action, cost = solve_exhaustive(scenario)
        recomputed, _ = total_cost(scenario, action)
        assert recomputed == pytest.approx(cost, rel=1e-12)
        assert set(action.local_ratio) <= {0.0, 1.0}

    def test_quantum_disabled_search(self):
        scenario = craft_scenario(num_servers=1, quotas=(54,), data_sizes=(1e3,))
        _, with_qpu = solve_exhaustive(scenario)
        action, without = solve_exhaustive(scenario, allow_quantum=False)
        assert action.quantum_indicator == (0,)
        assert with_qpu <= without

    def test_budget_guard(self):
        scenario = gen_scenario(4, 3, seed=0)
        with pytest.raises(InstanceTooLargeError):
            solve_exhaustive(scenario, budget=10)

    def test_endpoint_restriction_matches_grid(self):
        # small copy of the acceptance check: endpoints vs a coarse ratio grid
        rng = np.random.default_rng(13)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(10):
            scenario = random_instance(rng)
            evaluator = ScenarioEvaluator(scenario)
            _, endpoint_cost = solve_exhaustive(scenario)
            grid_cost = _grid_search(evaluator, grid)
            assert endpoint_cost == pytest.approx(grid_cost, rel=1e-9)


def _grid_search(evaluator, grid):
    """Independent minimum over assignments, grants and a ratio grid."""
    num_users, num_servers = evaluator.num_users, evaluator.num_servers
    grid_min = {}
    for u in range(num_users):
        for e in range(num_servers):
            grid_min[(u, e, 0)] = min(
                evaluator.user_cost(u, e, float(r), use_qpu=False).cost for r in grid
            )
            if evaluator.eligible[u][e]:
                grid_min[(u, e, 1)] = min(
                    evaluator.user_cost(u, e, float(r), use_qpu=True).cost for r in grid
                )
    best = np.inf
    for assignment in itertools.product(range(num_servers), repeat=num_users):
        options = []
        for server in range(num_servers):
            choosers = [u for u, a in enumerate(assignment) if a == server]
            options.append([None] + [u for u in choosers if (u, server, 1) in grid_min])
        for grants in itertools.product(*options):
            granted = {u for u in grants if u is not None}
            cost = sum(
                grid_min[(u, assignment[u], 1 if u in granted else 0)]
                for u in range(num_users)
            )
            best = min(best, cost)
    return best


class TestEvaluate:
    def test_deterministic_policy_zero_variance(self):
        scenario = gen_scenario(3, 3, seed=3)
        stats = evaluate(
            BaselinePolicy(PolicyKind.LOCAL), scenario, 5, np.random.default_rng(0)
        )
        assert stats.std_cost == 0.0
        assert stats.episodes == 5

    def test_single_episode_equals_step_cost(self):
        scenario = gen_scenario(2, 2, seed=4)
        stats = evaluate(
            BaselinePolicy(PolicyKind.GREEDY), scenario, 1, np.random.default_rng(0)
        )
        greedy_cost = total_cost(scenario, solve_greedy(scenario))[0]
        assert stats.mean_cost == pytest.approx(greedy_cost, rel=1e-12)

    def test_component_split_sums_to_cost(self):
        scenario = gen_scenario(3, 2, seed=6)
        stats = evaluate(
            BaselinePolicy(PolicyKind.RANDOM), scenario, 16, np.random.default_rng(1)
        )
        assert stats.latency_cost + stats.energy_cost == pytest.approx(
            stats.mean_cost, rel=1e-9
        )

    def test_oracle_not_worse_than_greedy_in_mean(self):
        for seed in range(10):
            scenario = gen_scenario(3, 3, seed=seed)
            rng = np.random.default_rng(seed)
            oracle = evaluate(BaselinePolicy(PolicyKind.ORACLE), scenario, 3, rng)
            greedy = evaluate(BaselinePolicy(PolicyKind.GREEDY), scenario, 3, rng)
            assert oracle.mean_cost <= greedy.mean_cost + 1e-9

    def test_episode_count_validated(self):
        with pytest.raises(ValueError):
            evaluate(
                BaselinePolicy(PolicyKind.LOCAL),
                gen_scenario(1, 1, seed=0),
                0,
                np.random.default_rng(0),
            )
