"""Solver tests: baseline semantics, greedy bookkeeping, oracle optimality."""

import copy
import dataclasses
import itertools
import math
import pickle
import statistics
import sys

import numpy as np
import pytest

import meqc.costs
from meqc.costs import JointAction, ScenarioEvaluator
from meqc.env import MeqcEnv
from meqc.marl import LearnedPolicy, TrainConfig, train
from meqc.solvers import (
    BaselinePolicy,
    EvalStats,
    PolicyKind,
    _decisions,
    _max_weight_matching,
    _pstdev,
    evaluate,
    solve_baseline,
    solve_exhaustive,
    solve_greedy,
)
from meqc.device import CryostatConfig, QubitTech
from meqc.workload import Scenario, UserColumns, gen_scenario, scenario_to_dict

from cost_spec import local_cost, qpu_saving, records_of, total_cost, user_cost
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
        assert action.local_ratio.tolist() == [1.0] * 4
        expected = sum(
            local_cost(profile, task, 1.0, scenario.chip_energy_per_cycle).cost
            for profile, task, _ in records_of(scenario)
        )
        assert total_cost(scenario, action)[0] == pytest.approx(expected, rel=1e-12)

    def test_local_decisions(self):
        pairs = _decisions(PolicyKind.LOCAL, 5, 3, None)
        expected = np.tile([0.0, 1.0], (5, 1))
        assert pairs.dtype == expected.dtype and pairs.shape == expected.shape
        assert pairs.tobytes() == expected.tobytes()

    def test_random_cloud_full_offload(self):
        scenario = gen_scenario(5, 3, seed=1)
        action = solve_baseline(
            PolicyKind.RANDOM_CLOUD, scenario, np.random.default_rng(3)
        )
        assert action.local_ratio.tolist() == [0.0] * 5
        assert all(0 <= s < 3 for s in action.server_choice)

    def test_random_reproducible(self):
        scenario = gen_scenario(3, 3, seed=2)
        a = solve_baseline(PolicyKind.RANDOM, scenario, np.random.default_rng(11))
        b = solve_baseline(PolicyKind.RANDOM, scenario, np.random.default_rng(11))
        assert a == b

    def test_random_needs_rng(self):
        with pytest.raises(ValueError):
            solve_baseline(PolicyKind.RANDOM, gen_scenario(1, 1, seed=0))

    def test_every_kind_steps_as_its_own_route(self):
        """``solve_baseline`` gives each kind's direct action: greedy's and the
        oracle's on a fresh evaluator, the others' raw pairs stepped through
        an environment.  Seed rule: 5x4 instances of seeds 0-59 on the default
        device and on one where the QPU pays (latency only, gates 1e4 times
        faster); a random kind draws from ``default_rng(seed)`` on both routes.
        """
        tech = QubitTech()
        fast = dataclasses.replace(tech, **{
            name: getattr(tech, name) * 1e-4
            for name in ("tau_1qb", "tau_2qb", "tau_meas", "tau_step")
        })
        devices = {"default": ({}, tech), "qpu_pays": ({"weight_latency": 1.0}, fast)}
        grants = dict.fromkeys(PolicyKind, 0)
        for device, (pins, qubit_tech) in devices.items():
            for seed in range(60):
                scenario = gen_scenario(5, 4, seed, pins=pins, qubit_tech=qubit_tech)
                for kind in PolicyKind:
                    if kind is PolicyKind.GREEDY:
                        expected = solve_greedy(scenario)
                    elif kind is PolicyKind.ORACLE:
                        expected = solve_exhaustive(scenario)[0]
                    else:
                        pairs = _decisions(kind, 5, 4, np.random.default_rng(seed))
                        expected = MeqcEnv(scenario).step(pairs).action
                    action = solve_baseline(kind, scenario, np.random.default_rng(seed))
                    assert action == expected, (device, seed, kind)
                    grants[kind] += sum(action.quantum_indicator)
        # every kind but local is compared on actions that hold grants
        assert all(grants[kind] for kind in PolicyKind if kind is not PolicyKind.LOCAL)


def reference_greedy(scenario):
    """The scalar greedy loop that ``solve_greedy`` vectorises, kept as its spec."""
    evaluator = ScenarioEvaluator(scenario)
    num_users = evaluator.num_users
    num_servers = evaluator.num_servers
    tasks = [task for _, task, _ in records_of(scenario)]
    order = sorted(
        range(num_users),
        key=lambda u: (-tasks[u].data_size * tasks[u].cycles_per_byte, u),
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

    def test_matches_reference_over_successive_grants(self):
        # the first 12x5 QPU-pays instance on which greedy grants three QPUs,
        # each grant closing a server that later users then solve without
        for seed in range(10):
            scenario = qpu_pays_instance(seed, num_users=12, num_servers=5)
            want = reference_greedy(scenario)
            if sum(want.quantum_indicator) >= 3:
                break
        else:
            pytest.fail("no 12x5 QPU-pays instance among seeds 0-9 grants three QPUs")
        assert solve_greedy(scenario) == want

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


# Gates 10**4 times faster than the default device's, for users who weigh
# latency alone: there the QPU path pays and the oracle's matching grants.
QPU_PAYS_TECH = dataclasses.replace(QubitTech(), **{
    name: getattr(QubitTech(), name) * 1e-4
    for name in ("tau_1qb", "tau_2qb", "tau_meas", "tau_step")
})


def qpu_pays_instance(seed, num_users=5, num_servers=4):
    return gen_scenario(num_users, num_servers, seed, pins={"weight_latency": 1.0},
                        qubit_tech=QPU_PAYS_TECH)


def first_granting_instances(count):
    """The generated QPU-pays instances of the first ``count`` seeds whose oracle grants."""
    instances = (qpu_pays_instance(seed) for seed in itertools.count())
    return list(itertools.islice(
        (s for s in instances if any(solve_exhaustive(s)[0].quantum_indicator)), count))


class TestOracleMatchesReference:
    def test_generated_instances_where_the_qpu_pays(self):
        contested = 0
        for scenario in first_granting_instances(12):
            action, cost = solve_exhaustive(scenario)
            assert (action, cost) == reference_oracle(scenario)
            contested += sum(action.quantum_indicator) > 1
        assert contested >= 2

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
        columns = dataclasses.replace(
            scenario.columns, cycles_per_byte=np.full(2, 1e9), weight_latency=np.zeros(2),
            weight_energy=np.ones(2), tx_power=np.full(2, 1e-12),
            channel_gains=np.full((2, 2), 6e9),
        )
        scenario = dataclasses.replace(scenario, columns=columns)
        endpoints = ScenarioEvaluator(scenario).endpoint_costs()
        assert (endpoints[:, :, 0, 0] == endpoints[:, :1, 1, 0]).all()
        action, cost = solve_exhaustive(scenario)
        assert action.local_ratio.tolist() == [0.0, 0.0]
        assert (action, cost) == reference_oracle(scenario)

    def test_tie_rule(self):
        scenario = craft_scenario(**GRANTING_INSTANCES["two_servers_ties"])
        action, cost = solve_exhaustive(scenario)
        reference, reference_cost = reference_oracle(scenario)
        assert action.server_choice.tolist() == [0, 1, 0, 0, 0]
        assert action.quantum_indicator.tolist() == [1, 1, 0, 0, 0]
        assert reference.server_choice.tolist() == [0, 0, 0, 0, 1]
        assert reference.quantum_indicator.tolist() == [0, 0, 0, 1, 1]
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


    @pytest.mark.parametrize("rows, cols", [(1, 1), (4, 7), (9, 3)])
    def test_zero_weights_match_nothing(self, rows, cols):
        assert _max_weight_matching(np.zeros((rows, cols))) == []


class TestOracleSearchesOnlyPositiveSavings:
    """Deterministic guard on the oracle's work: no timing, only call counts."""

    @staticmethod
    def count_searches(monkeypatch) -> list:
        # each step of an augmenting search picks its column with one np.lexsort
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        return calls

    def test_zero_saving_solve_never_searches(self, monkeypatch):
        scenario = gen_scenario(7, 4, seed=0)
        calls = self.count_searches(monkeypatch)
        action, _ = solve_exhaustive(scenario)
        assert not any(action.quantum_indicator)  # no positive saving to match
        assert calls == []

    def test_granting_solve_searches(self, monkeypatch):
        scenario = first_granting_instances(1)[0]
        calls = self.count_searches(monkeypatch)
        solve_exhaustive(scenario)
        assert len(calls) >= len(scenario.servers)  # one search per server at least


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

    def test_one_evaluator_per_scenario(self, monkeypatch):
        built = self.count_evaluators(monkeypatch)
        scenario = gen_scenario(4, 3, seed=5)
        for kind in PolicyKind:
            evaluate(BaselinePolicy(kind), scenario, 3, np.random.default_rng(0))
        action = solve_greedy(scenario)
        solve_exhaustive(scenario)
        solve_baseline(PolicyKind.RANDOM, scenario, np.random.default_rng(1))
        total_cost(scenario, action)
        assert built == [scenario]
        assert scenario.evaluator is scenario.evaluator

        twin = dataclasses.replace(scenario, rng_seed=scenario.rng_seed + 1)
        assert twin.evaluator is not scenario.evaluator
        assert len(built) == 2

    def test_redraws_leave_the_scenario_evaluator(self):
        scenario = gen_scenario(4, 3, seed=5)
        for kind in PolicyKind:
            evaluate(BaselinePolicy(kind), scenario, 3, np.random.default_rng(0),
                     redraw_tasks=True)
        assert scenario.evaluator.data_size.tobytes() == scenario.columns.data_size.tobytes()
        assert scenario.evaluator.eligible is not None

    def test_failing_build_is_not_kept(self, monkeypatch):
        built = self.count_evaluators(monkeypatch)
        # 10**(1e6 / 10) overflows the attenuation chain
        scenario = gen_scenario(2, 2, seed=0, cryostat=CryostatConfig(total_attenuation_db=1e6))
        for _ in range(2):
            with pytest.raises(OverflowError):
                scenario.evaluator
        assert len(built) == 2
        assert "evaluator" not in vars(scenario)

    def test_copies_carry_no_evaluator(self):
        scenario = gen_scenario(4, 3, seed=5)
        before = scenario_to_dict(scenario)
        scenario.evaluator
        assert scenario_to_dict(scenario) == before
        for twin in (copy.copy(scenario), copy.deepcopy(scenario),
                     pickle.loads(pickle.dumps(scenario))):
            assert twin == scenario and hash(twin) == hash(scenario)
            assert scenario_to_dict(twin) == before
            assert not any(column.flags.writeable for column in vars(twin.columns).values())
            assert "evaluator" not in vars(twin)
            assert twin.evaluator is not scenario.evaluator
            assert not twin.evaluator.rate.flags.writeable
        assert "evaluator" in vars(scenario)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="3.10's pstdev rounds twice")
    def test_pstdev_equals_statistics(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)
        scales = st.sampled_from([1.0, 1e-300, 5e-324, 1e300, 1e5])

        @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            values=st.one_of(
                st.lists(finite, min_size=2, max_size=40),
                st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=40).flatmap(
                    lambda xs: scales.map(lambda scale: [x * scale for x in xs])),
                st.tuples(finite, st.lists(st.integers(-3, 3), min_size=2, max_size=40)).map(
                    lambda pair: [pair[0] + k * math.ulp(pair[0]) for k in pair[1]]),
                st.tuples(finite, st.integers(2, 40)).map(lambda pair: [pair[0]] * pair[1]),
            )
        )
        def check(values):
            hypothesis.assume(all(map(math.isfinite, values)))  # a near-equal list may overflow
            assert _pstdev(values) == statistics.pstdev(values)
            assert type(_pstdev(values)) is float

        check()
        assert _pstdev([3.25] * 20) == 0.0
        assert _pstdev([5e-324, 0.0]) == statistics.pstdev([5e-324, 0.0])

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
        name = "_greedy" if kind == "greedy" else "_oracle"
        solve = getattr(meqc.solvers, name)
        monkeypatch.setattr(meqc.solvers, name,
                            lambda evaluator: solved.append(evaluator) or solve(evaluator))
        evaluate(BaselinePolicy(kind), gen_scenario(4, 3, seed=5), 6, np.random.default_rng(0),
                 redraw_tasks=True)
        assert len({id(evaluator) for evaluator in solved}) == len(solved) == 6
        assert calls["with_tasks"] == 6 + 1  # one per episode, then the scoring batch

    @pytest.mark.parametrize("kind", [k.value for k in PolicyKind])
    def test_redrawn_episodes_build_user_objects_only_when_read(self, kind, monkeypatch):
        scenario = gen_scenario(5, 3, seed=5)
        built = []
        for cls in (Scenario, UserColumns):
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
        users, servers = len(base.columns.f_local), len(base.servers)
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
            qpu_grant_rate=sum(sum(r.action.quantum_indicator) for r in results)
            / (episodes * users),
            mean_success_prob=sum(sum(r.success.tolist()) / users for r in results) / episodes,
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
