"""Cost-model tests: every term pinned by hand arithmetic, plus the
structural properties the solvers rely on (affinity in the local ratio,
monotonicity, permutation equivariance)."""

import dataclasses
import math

import numpy as np
import pytest

import meqc.costs
from meqc.costs import (
    CostBreakdown,
    JointAction,
    ScenarioEvaluator,
    ServerProfile,
    sum_over_users,
)
from meqc.device import QubitTech, gate_power_profile, cryostat_stages, CryostatConfig, logical_resources
from meqc.device import error_suppression, physical_error_rate
from meqc.workload import gen_scenario

from cost_spec import (
    QuantumTaskSpec,
    TaskSpec,
    UserProfile,
    edge_classical_cost,
    edge_quantum_cost,
    local_cost,
    qpu_saving,
    quantum_feasible,
    success_probability,
    records_of,
    total_cost,
    transmission_cost,
    uplink_rate,
    user_columns,
    user_cost,
)
from test_env import TASK_TABLES, craft_scenario
from test_workload import reference_redraw_tasks

CHIP = 1e-11


def make_user(gains=(6.0,), tx_power=1e-4, f_local=2e9, edge_cpu=15e9,
              weight_latency=0.5, quota=25):
    return UserProfile(
        f_local=f_local,
        tx_power=tx_power,
        weight_latency=weight_latency,
        weight_energy=1.0 - weight_latency,
        channel_gains=gains,
        edge_cpu=edge_cpu,
        logical_qubit_quota=quota,
    )


class TestUplinkRate:
    def test_unit_snr(self):
        user = make_user(gains=(1.0,), tx_power=1e-6)
        server = ServerProfile(noise_power=1e-6, bandwidth=20e6)
        assert uplink_rate(user, server, 0) == pytest.approx(2.0e7, rel=1e-12)

    def test_reference_link(self):
        user = make_user()
        server = ServerProfile(noise_power=1e-6, bandwidth=20e6)
        assert uplink_rate(user, server, 0) == pytest.approx(
            20e6 * math.log2(601.0), rel=1e-12
        )
        assert uplink_rate(user, server, 0) == pytest.approx(1.85e8, rel=5e-3)

    def test_vanishing_gain(self):
        user = make_user(gains=(1e-15,))
        server = ServerProfile()
        assert uplink_rate(user, server, 0) == pytest.approx(0.0, abs=1e-4)

    def test_unknown_server(self):
        with pytest.raises(LookupError):
            uplink_rate(make_user(), ServerProfile(), 3)


class TestLocalCost:
    def test_reference_values(self):
        breakdown = local_cost(make_user(), TaskSpec(160e6, 24.0), 1.0, CHIP)
        assert breakdown.latency_local == pytest.approx(1.92, rel=1e-12)
        assert breakdown.energy_local == pytest.approx(0.0384, rel=1e-12)
        assert breakdown.cost == pytest.approx(0.9792, rel=1e-12)

    def test_zero_share(self):
        breakdown = local_cost(make_user(), TaskSpec(160e6, 24.0), 0.0, CHIP)
        assert breakdown.cost == 0.0
        assert breakdown.latency_total == 0.0
        assert breakdown.energy_total == 0.0

    def test_linearity(self):
        user, task = make_user(), TaskSpec(160e6, 24.0)
        half = local_cost(user, task, 0.4, CHIP)
        full = local_cost(user, task, 0.8, CHIP)
        assert full.cost == pytest.approx(2.0 * half.cost, rel=1e-12)
        assert full.latency_local == pytest.approx(2.0 * half.latency_local, rel=1e-12)

    def test_out_of_range_ratio(self):
        with pytest.raises(ValueError):
            local_cost(make_user(), TaskSpec(1.0, 1.0), 1.5, CHIP)


class TestTransmissionCost:
    def test_nothing_sent(self):
        assert transmission_cost(
            make_user(), ServerProfile(), 0, TaskSpec(160e6, 24.0), 1.0
        ) == (0.0, 0.0)

    def test_reference_transfer(self):
        user = make_user()
        latency, energy = transmission_cost(
            user, ServerProfile(), 0, TaskSpec(160e6, 24.0), 0.0
        )
        rate = uplink_rate(user, ServerProfile(), 0)
        assert latency == pytest.approx(160e6 * 8 / rate, rel=1e-12)
        assert latency == pytest.approx(6.93, rel=1e-2)
        assert energy == pytest.approx(1e-4 * latency, rel=1e-12)

    def test_energy_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            user = make_user(
                gains=(float(rng.uniform(4, 8)),),
                tx_power=float(rng.uniform(1e-5, 2e-4)),
            )
            ratio = float(rng.uniform(0, 1))
            latency, energy = transmission_cost(
                user, ServerProfile(), 0, TaskSpec(1e8, 24.0), ratio
            )
            assert energy == pytest.approx(user.tx_power * latency, rel=1e-12)


class TestEdgeClassicalCost:
    def test_reference_processing_latency(self):
        breakdown = edge_classical_cost(
            make_user(), ServerProfile(), 0, TaskSpec(160e6, 24.0), 0.0, CHIP
        )
        assert breakdown.latency_edge_cpu == pytest.approx(0.256, rel=1e-12)

    def test_full_local_share_is_free(self):
        breakdown = edge_classical_cost(
            make_user(), ServerProfile(), 0, TaskSpec(160e6, 24.0), 1.0, CHIP
        )
        assert breakdown.cost == 0.0

    def test_energy_ignores_edge_speed(self):
        task = TaskSpec(160e6, 24.0)
        slow = edge_classical_cost(
            make_user(edge_cpu=10e9), ServerProfile(), 0, task, 0.0, CHIP
        )
        fast = edge_classical_cost(
            make_user(edge_cpu=20e9), ServerProfile(), 0, task, 0.0, CHIP
        )
        assert slow.energy_edge_cpu == fast.energy_edge_cpu
        assert slow.latency_edge_cpu > fast.latency_edge_cpu


class TestEdgeQuantumCost:
    def setup_method(self):
        self.cfg = CryostatConfig()
        self.tech = QubitTech()
        self.powers = gate_power_profile(self.cfg, self.tech, cryostat_stages(self.cfg))
        self.resources = logical_resources(1)

    def quantum_cost(self, ratio, qtask=None):
        qtask = qtask or QuantumTaskSpec(160e6, 20, 813)
        return edge_quantum_cost(
            make_user(), ServerProfile(), 0, qtask, ratio,
            self.resources, self.powers, self.tech,
        )

    def test_full_local_share_is_free(self):
        assert self.quantum_cost(1.0).cost == 0.0

    def test_per_byte_qubit_step_time(self):
        breakdown = self.quantum_cost(0.0)
        per_unit = breakdown.latency_edge_qpu / (160e6 * 20)
        assert per_unit == pytest.approx(3.4248648648648647e-06, rel=1e-12)

    def test_linearity_in_offloaded_share(self):
        quarter = self.quantum_cost(0.75)
        half = self.quantum_cost(0.5)
        assert half.latency_edge_qpu == pytest.approx(
            2.0 * quarter.latency_edge_qpu, rel=1e-12
        )
        assert half.energy_edge_qpu == pytest.approx(
            2.0 * quarter.energy_edge_qpu, rel=1e-12
        )


class TestQuantumFeasible:
    def test_reference_grant(self):
        qtask = QuantumTaskSpec(160e6, 20, 813)
        assert quantum_feasible(qtask, make_user(quota=25), 0.978) == 1

    def test_capacity_violation(self):
        qtask = QuantumTaskSpec(160e6, 26, 6460)
        assert quantum_feasible(qtask, make_user(quota=10), 0.99) == 0

    def test_unreliable_run(self):
        qtask = QuantumTaskSpec(160e6, 20, 813)
        assert quantum_feasible(qtask, make_user(quota=25), 0.5) == 0
        assert quantum_feasible(qtask, make_user(quota=25), 2.0 / 3.0) == 1


def hand_cost(scenario, action):
    """Independent re-derivation of the system cost, term by term."""
    total = 0.0
    stages = cryostat_stages(scenario.cryostat)
    powers = gate_power_profile(scenario.cryostat, scenario.qubit_tech, stages)
    for u, (prof, task, qtask) in enumerate(records_of(scenario)):
        e = action.server_choice[u]
        ratio = action.local_ratio[u]
        server = scenario.servers[e]
        rate = server.bandwidth * math.log2(
            1 + prof.tx_power * prof.channel_gains[e] / server.noise_power
        )
        d_local = ratio * task.data_size * task.cycles_per_byte / prof.f_local
        e_local = scenario.chip_energy_per_cycle * ratio * task.data_size * task.cycles_per_byte
        d_up = (1 - ratio) * task.data_size * 8 / rate
        e_up = prof.tx_power * d_up
        if action.quantum_indicator[u]:
            res = logical_resources(server.concat_level)
            tech = scenario.qubit_tech
            d_proc = (1 - ratio) * qtask.data_size * qtask.logical_qubits * (
                tech.tau_1qb * res.n_1qb + tech.tau_2qb * res.n_2qb + tech.tau_meas * res.n_meas
            )
            e_proc = (1 - ratio) * qtask.data_size * qtask.logical_qubits * (
                powers.e_1qb * res.n_1qb + powers.e_2qb * res.n_2qb
                + powers.e_meas * res.n_meas + powers.e_qubit * res.phys_per_logical
            )
        else:
            cycles = (1 - ratio) * task.data_size * task.cycles_per_byte
            d_proc = cycles / prof.edge_cpu
            e_proc = scenario.chip_energy_per_cycle * cycles
        total += prof.weight_latency * (d_local + d_up + d_proc)
        total += prof.weight_energy * (e_local + e_up + e_proc)
    return total


class TestTotalCost:
    def test_all_local(self):
        scenario = gen_scenario(4, 3, seed=11)
        action = JointAction((0,) * 4, (1.0,) * 4, (0,) * 4)
        cost, breakdowns = total_cost(scenario, action)
        expected = sum(
            local_cost(profile, task, 1.0, scenario.chip_energy_per_cycle).cost
            for profile, task, _ in records_of(scenario)
        )
        assert cost == pytest.approx(expected, rel=1e-12)
        assert all(b.latency_uplink == 0.0 for b in breakdowns)

    def test_single_user_cpu_path(self):
        scenario = gen_scenario(1, 2, seed=3)
        action = JointAction((1,), (0.3,), (0,))
        cost, _ = total_cost(scenario, action)
        profile, task, _ = records_of(scenario)[0]
        expected = (
            local_cost(profile, task, 0.3, scenario.chip_energy_per_cycle).cost
            + edge_classical_cost(
                profile, scenario.servers[1], 1, task, 0.3,
                scenario.chip_energy_per_cycle,
            ).cost
        )
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_matches_hand_summation(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            scenario = gen_scenario(2, 2, seed=seed)
            evaluator = ScenarioEvaluator(scenario)
            servers = tuple(int(s) for s in rng.integers(0, 2, size=2))
            ratios = tuple(float(r) for r in rng.uniform(0, 1, size=2))
            indicators = tuple(
                int(evaluator.eligible[u][servers[u]]) if u == 0 else 0
                for u in range(2)
            )
            if indicators[0] and indicators[1] and servers[0] == servers[1]:
                indicators = (indicators[0], 0)
            action = JointAction(servers, ratios, indicators)
            cost, _ = total_cost(scenario, action)
            assert cost == pytest.approx(hand_cost(scenario, action), rel=1e-12)

    def test_exclusivity_violation_rejected(self):
        scenario = gen_scenario(2, 2, seed=0)
        action = JointAction((0, 0), (0.0, 0.0), (1, 1))
        with pytest.raises(ValueError, match="QPU grant"):
            total_cost(scenario, action)

    def test_permutation_equivariance(self):
        scenario = gen_scenario(3, 3, seed=21)
        action = JointAction((0, 1, 2), (0.2, 0.7, 1.0), (0, 0, 0))
        cost, _ = total_cost(scenario, action)
        perm = [2, 0, 1]
        records = records_of(scenario)
        permuted = dataclasses.replace(
            scenario, columns=user_columns([records[p] for p in perm])
        )
        permuted_action = JointAction(
            tuple(action.server_choice[p] for p in perm),
            tuple(action.local_ratio[p] for p in perm),
            tuple(action.quantum_indicator[p] for p in perm),
        )
        assert total_cost(permuted, permuted_action)[0] == pytest.approx(cost, rel=1e-12)


class TestCostProperties:
    def test_affine_in_local_ratio(self):
        scenario = gen_scenario(1, 2, seed=9)
        evaluator = ScenarioEvaluator(scenario)
        for use_qpu in (False, True):
            if use_qpu and not evaluator.eligible[0][0]:
                continue
            c0 = user_cost(evaluator, 0, 0, 0.0, use_qpu).cost
            c1 = user_cost(evaluator, 0, 0, 1.0, use_qpu).cost
            for ratio in np.linspace(0, 1, 11):
                interpolated = (1 - ratio) * c0 + ratio * c1
                actual = user_cost(evaluator, 0, 0, float(ratio), use_qpu).cost
                assert actual == pytest.approx(interpolated, rel=1e-12)

    def test_weakly_decreasing_in_edge_cpu(self):
        scenario = gen_scenario(3, 2, seed=13)
        action = JointAction((0, 1, 0), (0.0, 0.5, 0.25), (0, 0, 0))
        costs = []
        for f_edge in (10e9, 15e9, 20e9):
            columns = dataclasses.replace(scenario.columns, edge_cpu=np.full(3, f_edge))
            costs.append(total_cost(dataclasses.replace(scenario, columns=columns), action)[0])
        assert costs[0] >= costs[1] >= costs[2]

    def test_weakly_decreasing_in_gain(self):
        scenario = gen_scenario(2, 2, seed=17)
        action = JointAction((0, 1), (0.0, 0.0), (0, 0))
        base = total_cost(scenario, action)[0]
        columns = dataclasses.replace(
            scenario.columns, channel_gains=2 * scenario.columns.channel_gains
        )
        assert total_cost(dataclasses.replace(scenario, columns=columns), action)[0] <= base

    def test_weight_zero_kills_latency_dependence(self):
        scenario = gen_scenario(2, 2, seed=19, pins={"weight_latency": 0.0})
        action = JointAction((0, 1), (0.5, 0.5), (0, 0))
        base = total_cost(scenario, action)[0]
        columns = dataclasses.replace(scenario.columns, f_local=np.full(2, 1e6))
        slowed = total_cost(dataclasses.replace(scenario, columns=columns), action)[0]
        assert slowed == pytest.approx(base, rel=1e-12)

    def test_components_nonnegative_and_finite(self):
        scenario = gen_scenario(4, 3, seed=23)
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = int(rng.integers(4))
            e = int(rng.integers(3))
            ratio = float(rng.uniform(0, 1))
            b = user_cost(evaluator, u, e, ratio, use_qpu=False)
            assert math.isfinite(b.cost) and b.cost >= 0.0
            assert b.latency_total >= 0.0 and b.energy_total >= 0.0


def spec_user_cost(scenario, u, server, ratio, use_qpu):
    """One user's full cost composed from the scalar spec functions alone."""
    profile, task, qtask = records_of(scenario)[u]
    chip = scenario.chip_energy_per_cycle
    target = scenario.servers[server]
    local = local_cost(profile, task, ratio, chip)
    if use_qpu:
        stages = cryostat_stages(scenario.cryostat)
        remote = edge_quantum_cost(
            profile, target, server, qtask, ratio,
            logical_resources(target.concat_level),
            gate_power_profile(scenario.cryostat, scenario.qubit_tech, stages),
            scenario.qubit_tech,
        )
    else:
        remote = edge_classical_cost(profile, target, server, task, ratio, chip)
    return dataclasses.replace(
        remote,
        latency_local=local.latency_local,
        energy_local=local.energy_local,
        cost=local.cost + remote.cost,
    )


KERNEL_SCENARIOS = {
    "gen_4x3_seed0": lambda: gen_scenario(4, 3, seed=0),
    "gen_5x2_seed7": lambda: gen_scenario(5, 2, seed=7),
    "gen_3x4_seed31": lambda: gen_scenario(3, 4, seed=31),
    "crafted_qpu": lambda: craft_scenario(
        num_servers=3, quotas=(54, 54, 0), data_sizes=(1e3, 2e3, 5e2), levels=[1, 2, 3]
    ),
}


def reference_endpoint_costs(evaluator):
    """Every endpoint entry evaluated in full, the ratio-1 half included."""
    return evaluator.breakdown(
        np.arange(evaluator.num_servers)[:, None, None],
        np.array([0.0, 1.0])[:, None],
        np.array([False, True]),
        users=evaluator.user_index[:, None, None, None],
    ).cost


ENDPOINT_SCENARIOS = {
    **KERNEL_SCENARIOS,
    "gen_40x6_seed11": lambda: gen_scenario(40, 6, seed=11),
    "gen_6x5_latency_only": lambda: gen_scenario(6, 5, seed=2, pins={"weight_latency": 1.0}),
    "gen_6x5_energy_only": lambda: gen_scenario(6, 5, seed=2, pins={"weight_latency": 0.0}),
}


class TestKernelMatchesSpec:
    """The array kernel is bit-identical (``==``) to the scalar spec functions."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SCENARIOS))
    def test_user_cost_every_field(self, name):
        scenario = KERNEL_SCENARIOS[name]()
        evaluator = ScenarioEvaluator(scenario)
        rng = np.random.default_rng(3)
        ratios = [0.0, 1.0] + [float(r) for r in rng.uniform(0, 1, size=6)]
        for u in range(evaluator.num_users):
            for e in range(evaluator.num_servers):
                for ratio in ratios:
                    for use_qpu in (False, True):
                        got = user_cost(evaluator, u, e, ratio, use_qpu)
                        want = spec_user_cost(scenario, u, e, ratio, use_qpu)
                        assert got == want, (u, e, ratio, use_qpu)
                    cpu = spec_user_cost(scenario, u, e, ratio, False).cost
                    qpu = spec_user_cost(scenario, u, e, ratio, True).cost
                    assert qpu_saving(evaluator, u, e, ratio) == cpu - qpu

    def test_memoised_rate_matches_scalar_function(self):
        scenario = gen_scenario(100, 20, seed=4)
        meqc.costs._log2_table.cache_clear()
        built, reused = ScenarioEvaluator(scenario), ScenarioEvaluator(scenario)
        info = meqc.costs._log2_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for u, (profile, _, _) in enumerate(records_of(scenario)):
            for e, server in enumerate(scenario.servers):
                assert built.rate[u, e] == reused.rate[u, e] == uplink_rate(profile, server, e)
        table = meqc.costs._log2_table((2,), np.array([2.0, 8.0]).tobytes())
        assert table.tolist() == [1.0, 3.0]
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0

    @pytest.mark.parametrize("name", sorted(KERNEL_SCENARIOS))
    def test_tables_match_scalar_functions(self, name):
        scenario = KERNEL_SCENARIOS[name]()
        evaluator = ScenarioEvaluator(scenario)
        err = physical_error_rate(scenario.cryostat, scenario.qubit_tech)
        for u, (profile, _, qtask) in enumerate(records_of(scenario)):
            for e, server in enumerate(scenario.servers):
                assert evaluator.rate[u, e] == uplink_rate(profile, server, e)
                success = success_probability(
                    qtask.logical_qubits, qtask.logical_depth,
                    server.concat_level, err, scenario.error_threshold,
                )
                assert evaluator.success[u, e] == success
                assert evaluator.eligible[u, e] == quantum_feasible(qtask, profile, success)

    @pytest.mark.parametrize("name", sorted(ENDPOINT_SCENARIOS))
    def test_endpoint_costs(self, name):
        scenario = ENDPOINT_SCENARIOS[name]()
        evaluator = ScenarioEvaluator(scenario)
        endpoints = evaluator.endpoint_costs()
        assert np.array_equal(endpoints, reference_endpoint_costs(evaluator))
        for (u, e, ratio, path), cost in np.ndenumerate(endpoints):
            assert cost == spec_user_cost(scenario, u, e, float(ratio), bool(path)).cost

    def test_crafted_instance_has_eligible_pairs(self):
        evaluator = ScenarioEvaluator(KERNEL_SCENARIOS["crafted_qpu"]())
        assert evaluator.eligible[:2].any() and not evaluator.eligible[2].any()
        assert qpu_saving(evaluator, 0, 1, 0.0) > 0.0

    def test_total_is_user_order_sum_of_spec(self):
        scenario = gen_scenario(9, 3, seed=2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            action = JointAction(
                tuple(int(s) for s in rng.integers(0, 3, size=9)),
                tuple(float(r) for r in rng.uniform(0, 1, size=9)),
                (0,) * 9,
            )
            cost, breakdowns = total_cost(scenario, action)
            want = [
                spec_user_cost(scenario, u, action.server_choice[u], action.local_ratio[u], False)
                for u in range(9)
            ]
            assert breakdowns == tuple(want)
            assert cost == sum(b.cost for b in want)

    @pytest.mark.parametrize("users", [1, 7, 8, 9, 64, 257])
    def test_sum_over_users_adds_in_user_order(self, users):
        values = np.random.default_rng(users).lognormal(0.0, 3.0, size=(4, users))
        sums = sum_over_users(values)
        for row, total in zip(values, sums):
            assert total == sum(row.tolist())

    def test_batch_shapes_broadcast(self):
        scenario = gen_scenario(4, 3, seed=5)
        evaluator = ScenarioEvaluator(scenario)
        servers = np.array([[0, 1, 2, 0], [2, 2, 1, 1]])
        ratios = np.array([[0.0, 0.3, 1.0, 0.7], [0.5, 0.0, 0.25, 1.0]])
        batch = evaluator.breakdown(servers, ratios, False)
        for b in range(2):
            for u in range(4):
                want = user_cost(evaluator, u, int(servers[b, u]), float(ratios[b, u]), False)
                assert batch.cost[b, u] == want.cost
                assert batch.latency_total[b, u] == want.latency_total

    def test_dead_link_raises_only_when_data_is_sent(self):
        scenario = gen_scenario(2, 2, seed=1)
        gains = scenario.columns.channel_gains.copy()
        gains[1] = 6.0, 1e-30
        columns = dataclasses.replace(scenario.columns, channel_gains=gains)
        scenario = dataclasses.replace(scenario, columns=columns)
        evaluator = ScenarioEvaluator(scenario)
        assert evaluator.rate[1, 1] == 0.0
        with pytest.raises(ValueError, match="link to server 1 carries no data"):
            spec_user_cost(scenario, 1, 1, 0.5, False)
        with pytest.raises(ValueError, match="link to server 1 carries no data"):
            user_cost(evaluator, 1, 1, 0.5, False)
        assert user_cost(evaluator, 1, 1, 1.0, False) == spec_user_cost(scenario, 1, 1, 1.0, False)
        assert user_cost(evaluator, 0, 1, 0.5, True) == spec_user_cost(scenario, 0, 1, 0.5, True)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (users, servers, pins); at the pinned decoherence time the success
# probabilities vary between users and servers without clamping to 0 or 1
REFRESH_SHAPES = {
    "1x1": (1, 1, None),
    "3x3": (3, 3, None),
    "100x20": (100, 20, None),
    "3x3_decoherence": (3, 3, {"decoherence_time": 2e-3}),
    "100x20_decoherence": (100, 20, {"decoherence_time": 2e-3}),
}


def task_columns(scenario):
    """The per-user task columns ``ScenarioEvaluator.with_tasks`` takes."""
    columns = scenario.columns
    return tuple(column.tolist() for column in (
        columns.data_size, columns.cycles_per_byte, columns.quantum_data_size,
        columns.logical_qubits, columns.logical_depth,
    ))


class TestWithTasks:
    @pytest.mark.parametrize("name", sorted(REFRESH_SHAPES))
    def test_refresh_equals_full_build(self, name):
        num_users, num_servers, pins = REFRESH_SHAPES[name]
        base = gen_scenario(num_users, num_servers, seed=7, pins=pins)
        evaluator = ScenarioEvaluator(base)
        rng = np.random.default_rng(3)
        for draw in range(3):
            redrawn = reference_redraw_tasks(base, np.random.default_rng(draw))
            refreshed = evaluator.with_tasks(*task_columns(redrawn))
            full = ScenarioEvaluator(redrawn)
            assert not hasattr(refreshed, "scenario")  # no scenario with stale tasks
            assert refreshed.rate is evaluator.rate  # fixed tables are shared
            for table in ("rate", "success", "eligible", "_step_time", "_step_energy",
                          "data_size", "cycles_per_byte", "_q_data_size",
                          "logical_qubits", "logical_depth", "weight_latency",
                          "weight_energy"):
                assert bitwise_equal(getattr(refreshed, table), getattr(full, table)), table
            assert bitwise_equal(refreshed.endpoint_costs(), full.endpoint_costs())
            servers = rng.integers(num_servers, size=(4, num_users))
            ratios = rng.random((4, num_users))
            qpu = rng.random((4, num_users)) < 0.5
            assert bitwise_equal(refreshed.breakdown(servers, ratios, qpu).cost,
                                 full.breakdown(servers, ratios, qpu).cost)
        if pins:
            assert 0.0 < evaluator.success.min() < evaluator.success.max() < 1.0

    def test_refresh_leaves_source_untouched(self):
        base = gen_scenario(3, 3, seed=2)
        evaluator = ScenarioEvaluator(base)
        tables = {name: getattr(evaluator, name).copy() for name in TASK_TABLES}
        redrawn = reference_redraw_tasks(base, np.random.default_rng(0))
        evaluator.with_tasks(*task_columns(redrawn))
        for name, table in tables.items():
            assert bitwise_equal(getattr(evaluator, name), table), name

    def test_rejects_columns_of_wrong_length(self):
        base = gen_scenario(3, 2, seed=2)
        evaluator = ScenarioEvaluator(base)
        columns = task_columns(reference_redraw_tasks(base, np.random.default_rng(0)))
        for i in range(len(columns)):
            for wrong in (columns[i][:2], columns[i] + columns[i][:1], [columns[i]]):
                with pytest.raises(ValueError, match="3 values per task column"):
                    evaluator.with_tasks(*columns[:i], wrong, *columns[i + 1:])

    @pytest.mark.parametrize("name", ["3x3_decoherence", "100x20_decoherence"])
    def test_episode_axis_scores_each_episode(self, name):
        """``[B, U]`` columns score row b exactly as episode b's own evaluator does."""
        num_users, num_servers, pins = REFRESH_SHAPES[name]
        base = gen_scenario(num_users, num_servers, seed=7, pins=pins)
        episodes = [reference_redraw_tasks(base, np.random.default_rng(draw)) for draw in range(4)]
        batch = ScenarioEvaluator(base).with_tasks(
            *(np.stack(column) for column in zip(*map(task_columns, episodes))))
        assert batch.success is None and batch.eligible is None
        rng = np.random.default_rng(3)
        servers = rng.integers(num_servers, size=(4, num_users))
        ratios = rng.random((4, num_users))
        qpu = rng.random((4, num_users)) < 0.5
        scored = batch.breakdown(servers, ratios, qpu)
        success, eligible = batch.feasibility(servers)
        for b, scenario in enumerate(episodes):
            full = ScenarioEvaluator(scenario)
            for field in ("cost", "latency_uplink", "energy_edge_qpu"):
                assert bitwise_equal(getattr(scored, field)[b],
                                     getattr(full.breakdown(servers[b], ratios[b], qpu[b]), field))
            users = np.arange(num_users)
            assert bitwise_equal(success[b], full.success[users, servers[b]])
            assert bitwise_equal(eligible[b], full.eligible[users, servers[b]])
            assert bitwise_equal(batch.candidates(servers, ratios)[b],
                                 full.candidates(servers[b], ratios[b]))
        rows, users = np.nonzero(ratios < 0.7)
        assert bitwise_equal(
            batch.savings(servers[rows, users], ratios[rows, users], users, episodes=rows),
            np.array([ScenarioEvaluator(episodes[r]).savings(servers[r, u], ratios[r, u], users=u)
                      for r, u in zip(rows, users)]))


# The default device, one with no line attenuation or heat loads, and one
# that changes every cryostat and qubit field.
DEVICES = {
    "default": (CryostatConfig(), QubitTech()),
    "bare_line": (
        CryostatConfig(total_attenuation_db=0.0, num_stages=3, heat_gen=0.0, heat_hemt=0.0,
                       heat_para=0.0),
        QubitTech(frequency=4.5e9, decoherence_time=5e-4, tau_1qb=20e-9, tau_2qb=80e-9,
                  tau_meas=300e-9, tau_step=120e-9),
    ),
    "deep_chain": (
        CryostatConfig(total_attenuation_db=70.0, num_stages=8, t_qubit=0.02, t_gen=290.0,
                       heat_gen=3e-5, heat_hemt=1e-4, t_hemt=40.0, heat_para=2e-8, t_para=3.0),
        QubitTech(frequency=7e9, decoherence_time=3e-3, tau_1qb=10e-9, tau_2qb=200e-9,
                  tau_meas=50e-9, tau_step=60e-9),
    ),
}


class TestDevicePhysics:
    """The evaluator computes each device's physics once and reads it exactly."""

    @pytest.mark.parametrize("name", sorted(DEVICES))
    def test_server_tables_match_device_calls(self, name):
        cryostat, tech = DEVICES[name]
        # nine servers at seed 3 use all three concatenation levels
        scenario = gen_scenario(2, 9, seed=3, cryostat=cryostat, qubit_tech=tech)
        assert {s.concat_level for s in scenario.servers} == {1, 2, 3}
        evaluator = ScenarioEvaluator(scenario)
        error_rate = physical_error_rate(cryostat, tech)
        powers = gate_power_profile(cryostat, tech, cryostat_stages(cryostat))
        # one byte of a one-qubit task at ratio 0 costs one QPU step
        unit = QuantumTaskSpec(data_size=1.0, logical_qubits=1, logical_depth=1)
        profile = records_of(scenario)[0][0]
        for e, server in enumerate(scenario.servers):
            level = server.concat_level
            assert evaluator._suppression[e] == error_suppression(
                level, error_rate, scenario.error_threshold)
            step = edge_quantum_cost(
                profile, server, e, unit, 0.0, logical_resources(level), powers, tech)
            assert evaluator._step_time[e] == step.latency_edge_qpu
            assert evaluator._step_energy[e] == step.energy_edge_qpu

    def test_one_device_is_computed_once(self, monkeypatch):
        calls = []

        def counted(cryostat, tech):
            calls.append((cryostat, tech))
            return physical_error_rate(cryostat, tech)

        monkeypatch.setattr(meqc.costs, "physical_error_rate", counted)
        meqc.costs._device_physics.cache_clear()
        cryostat, tech = DEVICES["deep_chain"]
        for seed in range(5):
            scenario = gen_scenario(3, 2, seed=seed, cryostat=cryostat, qubit_tech=tech)
            ScenarioEvaluator(scenario)
        assert calls == [(cryostat, tech)]

    def test_failing_device_fails_every_build(self):
        # 10**(1e6 / 10) overflows the attenuation chain
        scenario = gen_scenario(2, 2, seed=0, cryostat=CryostatConfig(total_attenuation_db=1e6))
        for _ in range(3):
            with pytest.raises(OverflowError):
                ScenarioEvaluator(scenario)

    def test_overflowing_suppression_fails_only_where_used(self):
        # at this threshold level 3's suppression overflows, level 2's does not
        base = gen_scenario(3, 2, seed=0, error_threshold=1e-60)
        for levels, fails in (((1, 2), False), ((2, 3), True)):
            servers = tuple(dataclasses.replace(s, concat_level=level)
                            for s, level in zip(base.servers, levels))
            scenario = dataclasses.replace(base, servers=servers)
            for _ in range(2):
                if fails:
                    with pytest.raises(OverflowError):
                        ScenarioEvaluator(scenario)
                else:
                    assert np.isfinite(ScenarioEvaluator(scenario)._suppression).all()

    def test_stage_count_must_be_an_int(self):
        # an equal float would share the physics of the int count
        with pytest.raises(TypeError):
            CryostatConfig(num_stages=5.0)
        assert CryostatConfig(num_stages=np.int64(5)) == CryostatConfig()
