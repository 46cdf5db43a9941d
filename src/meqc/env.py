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
    saving = evaluator.savings(chosen, ratios[rows, users], users=users, episodes=rows)
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
    tuple and ``JointAction`` views are built when read.  ``MeqcEnv.score``
    returns one for B slots, every field with a leading batch axis.
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
    tasks from the workload generator: two arrays, ``tasks``, the users'
    primitive exponents and data sizes.  ``evaluator``, the base evaluator
    with those task tables, is built on first read; greedy, the oracle and
    ``observations`` read the episode from it.  ``score`` is the one
    scoring path: ``step`` is its batch of one, ``rewards`` its reward
    column, and ``evaluate`` scores all its episodes in one batch.
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
        self._base_evaluator = self._evaluator = ScenarioEvaluator(scenario)
        self.tasks: tuple[np.ndarray, np.ndarray] | None = None
        self._template = None
        self._observations = None

    @property
    def evaluator(self) -> ScenarioEvaluator:
        """The episode's evaluator; a redrawn episode's is built on first read."""
        if self._evaluator is None:
            self._evaluator = self._with_tasks(*self.tasks)
        return self._evaluator

    def _with_tasks(self, exponents, data_sizes) -> ScenarioEvaluator:
        """The base evaluator with drawn tasks (see ``draw_tasks``), ``[..., U]`` each."""
        cycles_per_byte, logical_qubits, logical_depth = TASK_SHAPES.T[:, exponents]
        columns = (data_sizes, cycles_per_byte, data_sizes, logical_qubits, logical_depth)
        return self._base_evaluator.with_tasks(*columns)

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

        A redraw sets ``tasks`` to the users' exponents and data sizes from
        ``draw_tasks``, two numpy draws from ``rng``, and nothing more: the
        episode's ``evaluator`` and observations are built when first read.
        """
        if self.redraw:
            self.tasks = draw_tasks(self.rng, self.num_users)
            self._evaluator = self._observations = None

    def check(self, action) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Servers, ratios and grants of one joint decision, checked in this episode.

        A ``JointAction`` must pass ``check_action``; raw (server, ratio) pairs,
        tuples or a ``[U, 2]`` array, are read as floats, with grants None.
        """
        if isinstance(action, JointAction):
            return self.evaluator.check_action(action)
        pairs = np.asarray(action, dtype=np.float64)
        if pairs.shape != (self.num_users, 2):
            raise ValueError(f"expected {self.num_users} actions, got shape {pairs.shape}")
        return pairs[:, 0], pairs[:, 1], None

    def score(self, servers, ratios, grants=None, tasks=None) -> StepResult:
        """Resolve and score B joint decisions, ``servers``/``ratios`` ``[B, U]``, in one pass.

        Servers must be server indices; ratios are clamped to [0, 1].  Row b
        keeps ``grants[b]`` (a ``check``-ed joint action's) unless it is None;
        raw rows get ``grant_mask``'s.  ``tasks[b]`` is row b's redrawn
        episode; without ``tasks`` every row is scored on ``evaluator``.  Each
        field of the result has a leading batch axis.
        """
        evaluator = self._with_tasks(*map(np.stack, zip(*tasks))) if tasks else self.evaluator
        servers, ratios = np.asarray(servers), np.asarray(ratios, dtype=np.float64)
        if servers.ndim != 2 or servers.shape[1] != self.num_users:
            raise ValueError(f"expected {self.num_users} actions per row, got shape {servers.shape}")
        if ratios.shape != servers.shape:
            raise ValueError(f"ratios shape {ratios.shape} != servers shape {servers.shape}")
        evaluator.check_servers(servers)  # before the cast, which would hide a NaN
        servers = servers.astype(np.int64, copy=False)
        # min(1, max(0, r)) elementwise; NaN clamps to 0 as it does there
        ratios = np.where(ratios > 0.0, ratios, 0.0)
        ratios = np.where(ratios < 1.0, ratios, 1.0)
        raw = np.array([g is None for g in grants or [None] * len(servers)])
        granted = np.zeros(servers.shape, dtype=bool)
        if not raw.all():
            granted[~raw] = [g for g in grants if g is not None]
        if raw.any():  # only raw rows contend: a user at ratio 1 never does
            granted |= grant_mask(evaluator, servers, np.where(raw[:, None], ratios, 1.0))
        b = evaluator.breakdown(servers, ratios, granted)
        return StepResult(
            -sum_over_users(b.cost),
            sum_over_users(evaluator.weight_latency * b.latency_total),
            sum_over_users(evaluator.weight_energy * b.energy_total),
            servers, ratios, granted, evaluator.feasibility(servers)[0],
        )

    def rewards(self, servers, ratios) -> np.ndarray:
        """Shared rewards of B raw joint decisions ``[B, U]``: ``score``'s reward column."""
        return self.score(servers, ratios).reward

    def step(self, actions: np.typing.ArrayLike | JointAction) -> StepResult:
        """Resolve one joint decision (see ``check``) and return the shared reward.

        Raw pairs get their QPU grants from ``grant_mask``; a ``JointAction``'s
        grant schedule is honored.  ``score`` scores it as a batch of one.
        """
        batch = self.score(*([column] for column in self.check(actions)))
        reward, latency, energy, *arrays = (field[0] for field in vars(batch).values())
        return StepResult(float(reward), float(latency), float(energy), *arrays)
