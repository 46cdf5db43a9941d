"""Multi-agent offloading environment.

Each user is an agent that observes only its own local, edge and wireless
conditions and acts with a (server choice, local ratio) pair.  The
environment resolves which offloaded tasks actually run on a QPU (at most
one per server), scores the joint action with the cost model and hands
every agent the shared reward ``-cost``.

An environment instance is single-owner; run several instances for
parallel rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import CostBreakdown, JointAction, ScenarioEvaluator
from .workload import Scenario, redraw_tasks

ARBITRATION_RULES = ("max_saving", "first_index")


def build_observation(scenario: Scenario, user: int) -> np.ndarray:
    """Per-user observation: local, edge and wireless blocks, scaled to [0, 1].

    Layout (E servers): ``[f_local, data_size, cycles_per_byte,
    logical_qubits, logical_depth, edge_cpu, qubit_quota, level_1..level_E,
    tx_power, gain_1..gain_E]`` with each field divided by its fixed scale
    constant.
    """
    entry = scenario.users[user]
    scales = scenario.normalization
    fields = [
        entry.profile.f_local / scales.f_local,
        entry.task.data_size / scales.data_size,
        entry.task.cycles_per_byte / scales.cycles_per_byte,
        entry.quantum_task.logical_qubits / scales.logical_qubits,
        entry.quantum_task.logical_depth / scales.logical_depth,
        entry.profile.edge_cpu / scales.edge_cpu,
        entry.profile.logical_qubit_quota / scales.logical_qubit_quota,
    ]
    fields.extend(s.concat_level / scales.concat_level for s in scenario.servers)
    fields.append(entry.profile.tx_power / scales.tx_power)
    fields.extend(g / scales.channel_gain for g in entry.profile.channel_gains)
    return np.asarray(fields, dtype=np.float64)


def observation_length(num_servers: int) -> int:
    return 8 + 2 * num_servers


def resolve_quantum_allocation(
    evaluator: ScenarioEvaluator,
    server_choice: Sequence[int],
    local_ratio: Sequence[float],
    rule: str = "max_saving",
) -> tuple[int, ...]:
    """Decide which users run on a QPU, one per server.

    Every user that picked a server and passes the feasibility check is a
    candidate there; the server executes exactly one candidate on its QPU.
    Under ``max_saving`` the candidate whose offloaded share gains the most
    (CPU cost minus QPU cost, at the user's actual ratio) wins, ties going
    to the lowest user index; ``first_index`` simply takes the lowest
    index.  Everyone else falls back to the server CPUs.
    """
    if rule not in ARBITRATION_RULES:
        raise ValueError(f"unknown arbitration rule {rule!r}")
    indicators = [0] * len(server_choice)
    for server in range(evaluator.num_servers):
        candidates = [
            u
            for u, choice in enumerate(server_choice)
            if choice == server and evaluator.eligible[u][server]
        ]
        if not candidates:
            continue
        if rule == "max_saving":
            winner = max(
                candidates,
                key=lambda u: (evaluator.qpu_saving(u, server, local_ratio[u]), -u),
            )
        else:
            winner = candidates[0]
        indicators[winner] = 1
    return tuple(indicators)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one decision slot."""

    reward: float
    breakdowns: tuple[CostBreakdown, ...]
    indicators: tuple[int, ...]
    success_probs: tuple[float, ...]
    action: JointAction


class MeqcEnv:
    """Shared-reward POMDP over one scenario.

    Each step is one decision slot: transitions are stateless unless
    ``redraw_tasks`` is set, in which case every ``reset`` draws fresh
    tasks from the workload generator.  Observations depend only on the
    scenario, so only ``reset`` returns them, not ``step``.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        redraw_tasks: bool = False,
        arbitration: str = "max_saving",
        rng: np.random.Generator | None = None,
    ):
        if arbitration not in ARBITRATION_RULES:
            raise ValueError(f"unknown arbitration rule {arbitration!r}")
        self.base_scenario = scenario
        self.scenario = scenario
        self.redraw = redraw_tasks
        self.arbitration = arbitration
        self.rng = rng if rng is not None else np.random.default_rng(scenario.rng_seed)
        self.evaluator = ScenarioEvaluator(scenario)
        self.num_users = len(scenario.users)
        self.num_servers = len(scenario.servers)

    def observations(self) -> list[np.ndarray]:
        return [build_observation(self.scenario, u) for u in range(self.num_users)]

    def reset(self) -> list[np.ndarray]:
        """Start a new episode; redraws tasks when configured to."""
        if self.redraw:
            self.scenario = redraw_tasks(self.base_scenario, self.rng)
            self.evaluator = ScenarioEvaluator(self.scenario)
        return self.observations()

    def step(self, actions: Sequence[tuple[int, float]] | JointAction) -> StepResult:
        """Resolve one joint decision and return the shared reward.

        Decentralized agents submit raw (server index, local ratio) pairs;
        ratios are clamped to [0, 1] and the QPU indicators are resolved by
        the arbitration rule.  A centralized solver may instead submit a
        complete ``JointAction`` whose grant schedule is honored after
        validation (every claimed grant must be feasible; at most one per
        server).
        """
        if isinstance(actions, JointAction):
            action = actions
            if len(action.server_choice) != self.num_users:
                raise ValueError(
                    f"expected {self.num_users} actions, "
                    f"got {len(action.server_choice)}"
                )
            for u, (server, grant) in enumerate(
                zip(action.server_choice, action.quantum_indicator)
            ):
                if grant and not self.evaluator.eligible[u][server]:
                    raise ValueError(
                        f"user {u} claims an infeasible QPU grant on server {server}"
                    )
            servers = list(action.server_choice)
            ratios = list(action.local_ratio)
            indicators = action.quantum_indicator
        else:
            if len(actions) != self.num_users:
                raise ValueError(
                    f"expected {self.num_users} actions, got {len(actions)}"
                )
            servers = []
            ratios = []
            for u, (server, ratio) in enumerate(actions):
                server = int(server)
                if not 0 <= server < self.num_servers:
                    raise ValueError(f"user {u} picked unknown server {server}")
                servers.append(server)
                ratios.append(min(1.0, max(0.0, float(ratio))))
            indicators = resolve_quantum_allocation(
                self.evaluator, servers, ratios, rule=self.arbitration
            )
            action = JointAction(
                server_choice=tuple(servers),
                local_ratio=tuple(ratios),
                quantum_indicator=indicators,
            )
        cost, breakdowns = self.evaluator.total(action)
        return StepResult(
            reward=-cost,
            breakdowns=breakdowns,
            indicators=indicators,
            success_probs=tuple(
                self.evaluator.success[u][servers[u]] for u in range(self.num_users)
            ),
            action=action,
        )
