"""Multi-agent offloading environment.

Each user is an agent that observes only its own local, edge and wireless
conditions and acts with a (server choice, local ratio) pair.  The
environment resolves which offloaded tasks actually run on a QPU (at most
one per server), scores the joint action with the cost model and hands
every agent the shared reward ``-cost``.  Every policy's raw decisions
become QPU grants in one place, ``grant_mask``.

An environment instance is single-owner; run several instances for
parallel rollouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import JointAction, ScenarioEvaluator, sum_over_users
from .workload import TASK_SHAPES, Scenario, draw_tasks


def _observation_template(scenario: Scenario) -> np.ndarray:
    """Every user's observation row with the task columns (1-4) left zero.

    The other fields depend on profiles and servers only, so a redraw
    never changes them.  See ``MeqcEnv.observations`` for the layout.
    """
    scales = scenario.normalization
    levels = [s.concat_level / scales.concat_level for s in scenario.servers]
    return np.array([
        [
            profile.f_local / scales.f_local,
            0.0, 0.0, 0.0, 0.0,
            profile.edge_cpu / scales.edge_cpu,
            profile.logical_qubit_quota / scales.logical_qubit_quota,
            *levels,
            profile.tx_power / scales.tx_power,
            *(g / scales.channel_gain for g in profile.channel_gains),
        ]
        for profile in (entry.profile for entry in scenario.users)
    ])


def observation_length(num_servers: int) -> int:
    return 8 + 2 * num_servers


def grant_mask(
    evaluator: ScenarioEvaluator, servers: np.ndarray, ratios: np.ndarray
) -> np.ndarray:
    """QPU grants of a ``[B, U]`` batch of decisions, as a boolean ``[B, U]`` array.

    Each row is arbitrated on its own.  Every user that offloads some of
    its task (ratio < 1) to a server and passes the feasibility check there
    is a candidate (``ScenarioEvaluator.candidates``); the server executes
    exactly one candidate on its QPU: the one whose offloaded share gains
    the most (CPU cost minus QPU cost, at the user's actual ratio), ties
    going to the lowest user index.
    Everyone else falls back to the server CPUs.  ``servers`` must hold
    valid server indices.
    """
    grants = np.zeros(servers.shape, dtype=bool)
    rows, users = np.nonzero(evaluator.candidates(servers, ratios))
    if len(users) == 0:
        return grants
    chosen = servers[rows, users]
    # one contest per (row, server); sort each contest's candidates by rank
    contest = rows * evaluator.num_servers + chosen
    saving = evaluator.savings(chosen, ratios[rows, users], users=users)
    order = np.lexsort((users, -saving, contest))
    contest = contest[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = contest[1:] != contest[:-1]
    winners = order[first]
    grants[rows[winners], users[winners]] = True
    return grants


@dataclass(frozen=True, eq=False)
class StepResult:
    """Outcome of one decision slot.

    ``latency_cost`` and ``energy_cost`` are the latency- and
    energy-weighted parts of the cost; they add up to ``-reward``.  The
    arrays are per user: the resolved ``servers``, ``ratios`` and
    ``grants``, and the ``success`` probability at the chosen server.  Their
    tuple and ``JointAction`` views are built when read.
    """

    reward: float
    latency_cost: float
    energy_cost: float
    servers: np.ndarray
    ratios: np.ndarray
    grants: np.ndarray
    success: np.ndarray

    @property
    def indicators(self) -> tuple[int, ...]:
        return tuple(self.grants.astype(int).tolist())

    @property
    def success_probs(self) -> tuple[float, ...]:
        return tuple(self.success.tolist())

    @property
    def action(self) -> JointAction:
        return JointAction(
            server_choice=tuple(self.servers.tolist()),
            local_ratio=tuple(self.ratios.tolist()),
            quantum_indicator=self.indicators,
        )


class MeqcEnv:
    """Shared-reward POMDP over one scenario.

    Each step is one decision slot: transitions are stateless unless
    ``redraw_tasks`` is set, in which case every ``reset`` draws fresh
    tasks from the workload generator.  ``evaluator`` is the episode's only
    state: a redrawn episode is two arrays, the users' primitive exponents
    and data sizes, which refresh the task tables of the base scenario's
    evaluator.  Scoring, the greedy and oracle solvers and ``observations``
    all read the episode from ``evaluator``; no per-user object is built
    for it.
    """

    def __init__(
        self,
        scenario: Scenario,
        *,
        redraw_tasks: bool = False,
        rng: np.random.Generator | None = None,
    ):
        self.base_scenario = scenario
        self.redraw = redraw_tasks
        self.rng = rng if rng is not None else np.random.default_rng(scenario.rng_seed)
        self.num_users = len(scenario.users)
        self.num_servers = len(scenario.servers)
        self._base_evaluator = self.evaluator = ScenarioEvaluator(scenario)
        self._template = None
        self._observations = None

    def observations(self) -> np.ndarray:
        """Every agent's observation: row ``u`` of one read-only ``[U, 8 + 2E]`` array.

        Row ``u`` is user ``u``'s local, edge and wireless conditions,
        ``[f_local, data_size, cycles_per_byte, logical_qubits,
        logical_depth, edge_cpu, qubit_quota, level_1..level_E, tx_power,
        gain_1..gain_E]``, each field divided by its fixed scale constant
        (``Scenario.normalization``).  The four task columns come from
        ``evaluator``; the rest are taken from ``base_scenario`` on the
        first read.  Built once per episode, on the first read.
        """
        if self._observations is None:
            self._observations = self._make_observations()
        return self._observations

    def _make_observations(self) -> np.ndarray:
        if self._template is None:
            self._template = _observation_template(self.base_scenario)
        scales = self.base_scenario.normalization
        evaluator = self.evaluator
        obs = self._template.copy()
        obs[:, 1] = evaluator.data_size / scales.data_size
        obs[:, 2] = evaluator.cycles_per_byte / scales.cycles_per_byte
        obs[:, 3] = evaluator.logical_qubits / scales.logical_qubits
        obs[:, 4] = evaluator.logical_depth / scales.logical_depth
        obs.flags.writeable = False
        return obs

    def reset(self) -> None:
        """Start a new episode; redraws tasks when configured to.

        A redraw takes the users' exponents and data sizes from
        ``draw_tasks``, two numpy draws from ``rng``, and refreshes only the
        base evaluator's task tables with them.
        """
        if self.redraw:
            exponents, data_sizes = draw_tasks(self.rng, self.num_users)
            cycles_per_byte, logical_qubits, logical_depth = TASK_SHAPES[exponents].T
            self.evaluator = self._base_evaluator.with_tasks(
                data_sizes, cycles_per_byte, data_sizes, logical_qubits, logical_depth
            )
            self._observations = None

    def _resolve(self, servers, ratios) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checked ``[B, U]`` server indices, ratios clamped to [0, 1], and QPU grants."""
        servers = np.asarray(servers).astype(np.int64, copy=False)
        ratios = np.asarray(ratios, dtype=np.float64)
        if servers.ndim != 2 or servers.shape[1] != self.num_users:
            raise ValueError(
                f"expected {self.num_users} actions per row, got shape {servers.shape}"
            )
        if ratios.shape != servers.shape:
            raise ValueError(
                f"ratios shape {ratios.shape} != servers shape {servers.shape}"
            )
        self.evaluator.check_servers(servers)
        # min(1, max(0, r)) elementwise; NaN clamps to 0 as it does there
        ratios = np.where(ratios > 0.0, ratios, 0.0)
        ratios = np.where(ratios < 1.0, ratios, 1.0)
        return servers, ratios, grant_mask(self.evaluator, servers, ratios)

    def rewards(self, servers, ratios) -> np.ndarray:
        """Shared reward of each of B joint decisions, ``servers``/``ratios`` ``[B, U]``.

        Row b gets exactly the reward ``step`` returns for the pairs
        ``zip(servers[b], ratios[b])``.
        """
        servers, ratios, grants = self._resolve(servers, ratios)
        return -sum_over_users(self.evaluator.breakdown(servers, ratios, grants).cost)

    def step(self, actions: np.typing.ArrayLike | JointAction) -> StepResult:
        """Resolve one joint decision and return the shared reward.

        Decentralized agents submit raw (server index, local ratio) pairs,
        a list of tuples or a ``[U, 2]`` array, read as one float array;
        ratios are clamped to [0, 1] and the QPU indicators are resolved by
        ``grant_mask``, exactly as ``rewards`` does for a batch.  A
        centralized solver may instead submit a complete ``JointAction``
        whose grant schedule is honored once
        ``ScenarioEvaluator.check_action`` accepts it, the validation
        ``total_cost`` shares.
        """
        evaluator = self.evaluator
        if isinstance(actions, JointAction):
            servers, ratios, grants = evaluator.check_action(actions)
        else:
            pairs = np.asarray(actions, dtype=np.float64)
            if pairs.shape != (self.num_users, 2):
                raise ValueError(f"expected {self.num_users} actions, got shape {pairs.shape}")
            servers, ratios, grants = self._resolve(pairs[None, :, 0], pairs[None, :, 1])
            servers, ratios, grants = servers[0], ratios[0], grants[0]
        b = evaluator.breakdown(servers, ratios, grants)
        return StepResult(
            reward=-float(sum_over_users(b.cost)),
            latency_cost=float(sum_over_users(evaluator.weight_latency * b.latency_total)),
            energy_cost=float(sum_over_users(evaluator.weight_energy * b.energy_total)),
            servers=servers,
            ratios=ratios,
            grants=grants,
            success=evaluator.success[evaluator.user_index, servers],
        )
