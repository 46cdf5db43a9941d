"""Solver tests: baseline semantics, greedy bookkeeping, oracle optimality."""

import dataclasses
import itertools
import math
import statistics

import numpy as np
import pytest

import meqc.costs
from meqc.costs import JointAction, ScenarioEvaluator, total_cost
from meqc.env import MeqcEnv
from meqc.marl import LearnedPolicy, TrainConfig, train
from meqc.solvers import (
    BaselinePolicy,
    EvalStats,
    PolicyKind,
    _max_weight_matching,
    evaluate,
    solve_baseline,
    solve_exhaustive,
    solve_greedy,
)
from meqc.costs import QuantumTaskSpec, TaskSpec
from meqc.workload import Scenario, ScenarioUser, gen_scenario

from cost_spec import local_cost, qpu_saving, user_cost
from test_acceptance import instance_set
from test_env import craft_scenario
from test_workload import reference_redraw_tasks


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
                cpu = user_cost(evaluator, u, server, ratio, use_qpu=False).cost
                if best is None or cpu < best[0]:
                    best = (cpu, server, ratio, 0)
                if (
                    slot_free[server]
                    and evaluator.eligible[u][server]
                    and qpu_saving(evaluator, u, server, ratio) > 0.0
                ):
                    qpu = user_cost(evaluator, u, server, ratio, use_qpu=True).cost
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
                assert qpu_saving(evaluator, u, e, action.local_ratio[u]) > 0


def reference_oracle(scenario, *, allow_quantum=True):
    """The exhaustive enumeration that ``solve_exhaustive`` replaced, kept as its spec.

    Enumerates every server assignment and, per server, every choice of at
    most one feasible QPU grant; each user's ratio is then optimized over
    the endpoints {0, 1}.  Ties break lexicographically on (assignment,
    grants, ratios).  Runs in E^U * 2^U steps, so only small instances.
    """
    evaluator = ScenarioEvaluator(scenario)
    num_users = evaluator.num_users
    num_servers = evaluator.num_servers

    # Endpoint costs per (user, server, path); the ratio-1 cost is path- and
    # server-independent (nothing is offloaded).  The hot loop below reads
    # plain lists: indexing numpy arrays element by element is far slower.
    endpoints = evaluator.endpoint_costs()
    local_only = endpoints[:, 0, 1, 0].tolist()
    cpu_full = endpoints[:, :, 0, 0].tolist()
    qpu_full = np.where(evaluator.eligible, endpoints[:, :, 0, 1], math.inf).tolist()
    eligible = evaluator.eligible.tolist()

    best_cost = math.inf
    best_key = None
    best_action = None
    for assignment in itertools.product(range(num_servers), repeat=num_users):
        grant_options = []
        for server in range(num_servers):
            candidates = [None]
            if allow_quantum:
                candidates += [
                    u
                    for u, choice in enumerate(assignment)
                    if choice == server and eligible[u][server]
                ]
            grant_options.append(candidates)
        for grants in itertools.product(*grant_options):
            granted = {u for u in grants if u is not None}
            cost = 0.0
            ratios = []
            for u, server in enumerate(assignment):
                full = qpu_full[u][server] if u in granted else cpu_full[u][server]
                if full <= local_only[u]:
                    cost += full
                    ratios.append(0.0)
                else:
                    cost += local_only[u]
                    ratios.append(1.0)
            indicators = tuple(1 if u in granted else 0 for u in range(num_users))
            key = (assignment, indicators, tuple(ratios))
            if cost < best_cost or (cost == best_cost and key < best_key):
                best_cost = cost
                best_key = key
                best_action = JointAction(
                    server_choice=assignment,
                    local_ratio=tuple(ratios),
                    quantum_indicator=indicators,
                )
    return best_action, best_cost


def crafted_instance(rng, distinct_servers=True):
    """A random QPU-favourable instance (see ``craft_scenario``).

    Users get distinct data sizes; with ``distinct_servers`` every server
    also gets its own bandwidth, so no two servers or users are duplicates.
    """
    num_users = int(rng.integers(1, 6))
    num_servers = int(rng.integers(1, 5))
    scenario = craft_scenario(
        num_servers=num_servers,
        quotas=tuple(int(q) for q in rng.choice([0, 54], p=[0.2, 0.8], size=num_users)),
        data_sizes=tuple(float(d) for d in rng.uniform(2e2, 5e3, size=num_users)),
        edge_cpu=float(rng.choice([1e3, 1e6, 1e9])),
        levels=[int(lv) for lv in rng.integers(1, 4, size=num_servers)],
    )
    if not distinct_servers:
        return scenario
    bandwidths = rng.permutation(np.linspace(5e6, 40e6, 8))[:num_servers]
    return dataclasses.replace(scenario, servers=tuple(
        dataclasses.replace(server, bandwidth=float(bw))
        for server, bw in zip(scenario.servers, bandwidths)
    ))


class TestOracleMatchesReference:
    def test_acceptance_instances(self):
        for scenario in instance_set():
            assert solve_exhaustive(scenario) == reference_oracle(scenario)

    def test_random_instances(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            scenario = random_instance(rng)
            assert solve_exhaustive(scenario) == reference_oracle(scenario)

    def test_crafted_instances_with_distinct_servers(self):
        rng = np.random.default_rng(42)
        granting = 0
        for _ in range(150):
            scenario = crafted_instance(rng)
            action, cost = solve_exhaustive(scenario)
            assert (action, cost) == reference_oracle(scenario)
            assert solve_exhaustive(scenario, allow_quantum=False) == reference_oracle(
                scenario, allow_quantum=False
            )
            granting += any(action.quantum_indicator)
        assert granting >= 50

    def test_duplicate_servers_reach_the_same_cost(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            scenario = crafted_instance(rng, distinct_servers=False)
            action, cost = solve_exhaustive(scenario)
            _, reference_cost = reference_oracle(scenario)
            assert cost == pytest.approx(reference_cost, rel=1e-12)
            assert total_cost(scenario, action)[0] == cost

    def test_full_offload_wins_an_exact_tie(self):
        # energy-only users on a strong link: the uplink energy is below one
        # ulp of the compute energy, so full offload costs exactly as much as local
        scenario = craft_scenario(num_servers=2, quotas=(0, 0), data_sizes=(1e3, 3e3))
        scenario = dataclasses.replace(scenario, users=tuple(
            dataclasses.replace(
                user,
                task=dataclasses.replace(user.task, cycles_per_byte=1e9),
                profile=dataclasses.replace(
                    user.profile, weight_latency=0.0, weight_energy=1.0,
                    tx_power=1e-12, channel_gains=(6e9, 6e9),
                ),
            )
            for user in scenario.users
        ))
        endpoints = ScenarioEvaluator(scenario).endpoint_costs()
        assert (endpoints[:, :, 0, 0] == endpoints[:, :1, 1, 0]).all()
        action, cost = solve_exhaustive(scenario)
        assert action.local_ratio == (0.0, 0.0)
        assert (action, cost) == reference_oracle(scenario)

    def test_tie_rule(self):
        scenario = craft_scenario(**GRANTING_INSTANCES["two_servers_ties"])
        action, cost = solve_exhaustive(scenario)
        reference, reference_cost = reference_oracle(scenario)
        assert action.server_choice == (0, 1, 0, 0, 0)
        assert action.quantum_indicator == (1, 1, 0, 0, 0)
        assert reference.server_choice == (0, 0, 0, 0, 1)
        assert reference.quantum_indicator == (0, 0, 0, 1, 1)
        assert cost == reference_cost == 1500004.4025985901


class TestMaxWeightMatching:
    def test_matches_linear_sum_assignment(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(44)
        shapes = [(e, u) for e in range(1, 9) for u in (1, 3, 8, 20, 40)]
        for rows, cols in shapes:
            for zero_share in (0.0, 0.5, 0.9):
                weights = rng.uniform(0.0, 10.0, size=(rows, cols))
                weights[rng.random((rows, cols)) < zero_share] = 0.0
                pairs = _max_weight_matching(weights)
                assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
                assert all(weights[r, c] > 0.0 for r, c in pairs)
                best = weights[optimize.linear_sum_assignment(weights, maximize=True)].sum()
                assert sum(weights[r, c] for r, c in pairs) == pytest.approx(
                    best, rel=1e-12, abs=1e-12
                )


class TestExhaustive:
    def test_single_pair_enumeration(self):
        scenario = craft_scenario(num_servers=1, quotas=(54,), data_sizes=(1e3,))
        evaluator = ScenarioEvaluator(scenario)
        action, cost = solve_exhaustive(scenario)
        candidates = [
            user_cost(evaluator, 0, 0, ratio, use_qpu=bool(grant)).cost
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

    @pytest.mark.parametrize("users, servers", [(10, 10), (50, 20), (1000, 50)])
    def test_solves_beyond_enumeration_reach(self, users, servers):
        scenario = gen_scenario(users, servers, seed=3)
        action, cost = solve_exhaustive(scenario)
        assert total_cost(scenario, action)[0] == cost

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
                user_cost(evaluator, u, e, float(r), use_qpu=False).cost for r in grid
            )
            if evaluator.eligible[u][e]:
                grid_min[(u, e, 1)] = min(
                    user_cost(evaluator, u, e, float(r), use_qpu=True).cost for r in grid
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

    @staticmethod
    def count_evaluators(monkeypatch) -> list:
        built = []
        init = meqc.costs.ScenarioEvaluator.__init__
        monkeypatch.setattr(
            meqc.costs.ScenarioEvaluator, "__init__",
            lambda self, scenario: built.append(scenario) or init(self, scenario),
        )
        return built

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_random_baselines_build_one_evaluator(self, kind, monkeypatch):
        built = self.count_evaluators(monkeypatch)
        observed = []
        monkeypatch.setattr(MeqcEnv, "_make_observations", observed.append)
        evaluate(BaselinePolicy(kind), gen_scenario(4, 3, seed=5), 10,
                 np.random.default_rng(0))
        # the environment's evaluator; greedy and the oracle are solved on it
        assert len(built) == 1
        assert observed == []  # no baseline reads an observation

    @staticmethod
    def contested_base():
        """Slow CPUs keep the QPUs cheap for redrawn jobs; 8 users contest 4 QPUs."""
        return craft_scenario(num_servers=4, quotas=(54,) * 8, data_sizes=(1e3,) * 8)

    @staticmethod
    def count_calls(monkeypatch, *names) -> dict:
        """Count calls of the named ``ScenarioEvaluator`` methods."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(self, *args, _name=name, _method=getattr(ScenarioEvaluator, name), **kw):
                calls[_name] += 1
                return _method(self, *args, **kw)
            monkeypatch.setattr(meqc.costs.ScenarioEvaluator, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["local", "random", "random_cloud"])
    def test_redraw_scores_in_one_batch(self, kind, monkeypatch):
        """Kernel calls do not grow with the episodes; one task-table build serves them all."""
        scenario = self.contested_base()
        counts = []
        for episodes in (2, 20):
            calls = self.count_calls(monkeypatch, "breakdown", "with_tasks")
            evaluate(BaselinePolicy(kind), scenario, episodes, np.random.default_rng(0),
                     redraw_tasks=True)
            assert calls["with_tasks"] == 1
            counts.append(calls["breakdown"])
        # one scoring pass, plus one saving pass where some user may hold a QPU
        assert counts[0] == counts[1] == (1 if kind == "local" else 2)

    @pytest.mark.parametrize("kind", ["greedy", "oracle"])
    def test_redrawn_solvers_solve_each_episode(self, kind, monkeypatch):
        calls = self.count_calls(monkeypatch, "with_tasks")
        solved = []
        solve = meqc.solvers._solve
        monkeypatch.setattr(meqc.solvers, "_solve",
                            lambda k, evaluator: solved.append(evaluator) or solve(k, evaluator))
        evaluate(BaselinePolicy(kind), gen_scenario(4, 3, seed=5), 6, np.random.default_rng(0),
                 redraw_tasks=True)
        assert len({id(evaluator) for evaluator in solved}) == len(solved) == 6
        assert calls["with_tasks"] == 6 + 1  # one per episode, then the scoring batch

    @pytest.mark.parametrize("kind", [k.value for k in PolicyKind])
    def test_redrawn_episodes_build_user_objects_only_when_read(self, kind, monkeypatch):
        scenario = gen_scenario(5, 3, seed=5)
        built = []
        for cls in (Scenario, ScenarioUser, TaskSpec, QuantumTaskSpec):
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *args, _init=cls.__init__, **kwargs:
                    built.append(type(self)) or _init(self, *args, **kwargs),
            )
        evaluate(BaselinePolicy(kind), scenario, 20, np.random.default_rng(0),
                 redraw_tasks=True)
        # greedy and the oracle are solved on each episode's evaluator
        assert built == []

    @staticmethod
    def reference_stats(policy, base, episodes, twin, redraw=True):
        """``EvalStats`` of an ``evaluate`` run as a test-side loop of single steps on ``twin``.

        The environment and the policy share one generator: each episode
        draws its tasks first (with ``redraw``), then the policy its own
        draws.  Each episode is acted on and stepped in a fresh environment
        on its reference scenario.  A ``PolicyKind``'s actions are built here
        from the baseline definitions; any other policy acts itself.
        """
        users, servers = len(base.users), len(base.servers)
        results = []
        for _ in range(episodes):
            scenario = reference_redraw_tasks(base, twin) if redraw else base
            env = MeqcEnv(scenario)
            if not isinstance(policy, PolicyKind):
                action = policy.act(env, twin)
            elif policy in (PolicyKind.GREEDY, PolicyKind.ORACLE):
                action = solve_baseline(policy, scenario)
            elif policy is PolicyKind.LOCAL:
                action = [(0, 1.0)] * users
            else:
                chosen = twin.integers(0, servers, size=users).tolist()
                ratios = (twin.uniform(0.0, 1.0, size=users).tolist()
                          if policy is PolicyKind.RANDOM else [0.0] * users)
                action = list(zip(chosen, ratios))
            results.append(env.step(action))
        costs = [-r.reward for r in results]
        return EvalStats(
            mean_cost=statistics.fmean(costs),
            std_cost=statistics.pstdev(costs),
            latency_cost=statistics.fmean(r.latency_cost for r in results),
            energy_cost=statistics.fmean(r.energy_cost for r in results),
            qpu_grant_rate=sum(sum(r.indicators) for r in results) / (episodes * users),
            mean_success_prob=sum(sum(r.success_probs) / users for r in results) / episodes,
            episodes=episodes,
        )

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_redrawn_solver_equals_reference_loop(self, kind):
        """Each redrawn episode is solved and scored as its reference scenario would be."""
        episodes, base = 12, self.contested_base()
        stats = evaluate(BaselinePolicy(kind), base, episodes, np.random.default_rng(5),
                         redraw_tasks=True)
        assert stats == self.reference_stats(kind, base, episodes, np.random.default_rng(5))
        assert all(type(value) is float for value in dataclasses.astuple(stats)[:-1])
        assert stats.std_cost > 0.0
        if kind is PolicyKind.LOCAL:
            assert stats.qpu_grant_rate == 0.0
        else:
            assert 0.0 < stats.qpu_grant_rate < 1.0

    def test_redraw_on_any_generator(self):
        """A redrawn evaluation runs on a generator without PCG64's half-word buffer."""
        base = gen_scenario(4, 3, seed=2)
        stats = evaluate(BaselinePolicy(PolicyKind.RANDOM), base, 6,
                         np.random.Generator(np.random.MT19937(0)), redraw_tasks=True)
        twin = np.random.Generator(np.random.MT19937(0))
        assert stats == self.reference_stats(PolicyKind.RANDOM, base, 6, twin)
        assert stats.std_cost > 0.0

    @pytest.mark.parametrize("kind", list(PolicyKind))
    def test_solver_equals_reference_loop(self, kind):
        """Without redraws too, the one batch scores each episode as its own step would."""
        base = self.contested_base()
        stats = evaluate(BaselinePolicy(kind), base, 12, np.random.default_rng(5))
        assert stats == self.reference_stats(kind, base, 12, np.random.default_rng(5),
                                             redraw=False)
        assert (stats.std_cost > 0.0) == (kind in (PolicyKind.RANDOM, PolicyKind.RANDOM_CLOUD))

    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redrawn"])
    def test_learned_policy_equals_reference_loop(self, redraw):
        base = self.contested_base()
        cfg = TrainConfig(epochs=1, steps_per_epoch=16, batch_size=16, hidden_units=8)
        policy = LearnedPolicy(train(base, cfg, seed=0).agents)
        stats = evaluate(policy, base, 8, np.random.default_rng(5), redraw_tasks=redraw)
        assert stats == self.reference_stats(policy, base, 8, np.random.default_rng(5),
                                             redraw=redraw)
        assert (stats.std_cost > 0.0) == redraw

    class Mixed:
        """Cycles through greedy's joint action, an ungranted full offload and random pairs."""

        def __init__(self):
            self.episode = -1

        def act(self, env, rng):
            self.episode += 1
            if self.episode % 3 == 0:
                return BaselinePolicy(PolicyKind.GREEDY).act(env, rng)
            if self.episode % 3 == 1:
                # arbitration would grant some of these users; as given, none runs on a QPU
                servers = rng.integers(0, env.num_servers, size=env.num_users).tolist()
                return JointAction(tuple(servers), (0.0,) * env.num_users, (0,) * env.num_users)
            return BaselinePolicy(PolicyKind.RANDOM).act(env, rng)

    @pytest.mark.parametrize("redraw", [False, True], ids=["fixed", "redrawn"])
    def test_mixed_actions_equal_reference_loop(self, redraw):
        """Joint actions keep their grants and raw rows are arbitrated, in one batch."""
        base = self.contested_base()
        stats = evaluate(self.Mixed(), base, 12, np.random.default_rng(5), redraw_tasks=redraw)
        assert stats == self.reference_stats(self.Mixed(), base, 12, np.random.default_rng(5),
                                             redraw=redraw)
        assert 0.0 < stats.qpu_grant_rate < 1.0

    @pytest.mark.parametrize("kind", ["local", "random", "random_cloud"])
    def test_steps_build_no_joint_action(self, kind, monkeypatch):
        built = []
        init = meqc.costs.JointAction.__init__
        monkeypatch.setattr(
            meqc.costs.JointAction, "__init__",
            lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs),
        )
        scenario = gen_scenario(5, 3, seed=5)
        evaluate(BaselinePolicy(kind), scenario, 20, np.random.default_rng(0),
                 redraw_tasks=True)
        assert built == []
        env = MeqcEnv(scenario)
        result = env.step(BaselinePolicy(kind).act(env, np.random.default_rng(1)))
        assert built == []
        action = result.action
        assert len(built) == 1
        for accepted, resolved in zip(env.evaluator.check_action(action),
                                      (result.servers, result.ratios, result.grants)):
            assert np.array_equal(accepted, resolved)
        assert env.step(action).reward == result.reward

    @pytest.mark.parametrize("episodes", [1, 3])
    def test_non_finite_cost_raises(self, episodes):
        class AllLocal:
            def act(self, env, rng):
                return [(0, 1.0)] * env.num_users

        # the local energy overflows to inf
        scenario = gen_scenario(3, 2, 0, chip_energy_per_cycle=1e300)
        for policy, name in ((BaselinePolicy(PolicyKind.LOCAL), "local"),
                             (BaselinePolicy(PolicyKind.GREEDY), "greedy"),
                             (AllLocal(), "AllLocal")):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(RuntimeError, match=f"policy {name}: episode 0 .*inf"):
                    evaluate(policy, scenario, episodes, np.random.default_rng(0))

    def test_non_finite_cost_names_the_first_bad_episode(self):
        class OffloadIn:
            """All local, except full offload in the given episodes."""

            def __init__(self, offloading):
                self.offloading, self.episode = offloading, -1

            def act(self, env, rng):
                self.episode += 1
                return [(0, 0.0 if self.episode in self.offloading else 1.0)] * env.num_users

        # no link carries data in finite time, so an offloading episode costs inf
        scenario = gen_scenario(3, 2, 0, bandwidth=1e-300)
        assert math.isfinite(evaluate(OffloadIn(()), scenario, 5, np.random.default_rng(0)).mean_cost)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="policy OffloadIn: episode 2 .*inf"):
                evaluate(OffloadIn({2, 4}), scenario, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("server", [2, -1, float("nan"), float("inf"), 0.5])
    def test_bad_server_in_a_later_episode_raises(self, server):
        class BadIn:
            def __init__(self):
                self.episode = -1

            def act(self, env, rng):
                self.episode += 1
                return [(server if self.episode == 3 else 0, 0.5)] * env.num_users

        for redraw in (False, True):
            with pytest.raises(ValueError, match=f"user 0 picked unknown server {server}"):
                evaluate(BadIn(), gen_scenario(2, 2, seed=0), 5, np.random.default_rng(0),
                         redraw_tasks=redraw)

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
