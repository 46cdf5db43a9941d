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
    users, scales = scenario.columns, scenario.normalization
    num_servers = len(scenario.servers)
    obs = np.zeros((len(users.f_local), observation_length(num_servers)))
    obs[:, 0] = users.f_local / scales.f_local
    obs[:, 5] = users.edge_cpu / scales.edge_cpu
    obs[:, 6] = users.logical_qubit_quota / scales.logical_qubit_quota
    obs[:, 7:7 + num_servers] = [s.concat_level / scales.concat_level for s in scenario.servers]
    obs[:, 7 + num_servers] = users.tx_power / scales.tx_power
    obs[:, 8 + num_servers:] = users.channel_gains / scales.channel_gain
    return obs


def observation_length(num_servers: int) -> int:
    return 8 + 2 * num_servers


def grant_mask(
    evaluator: ScenarioEvaluator, servers: np.ndarray, ratios: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """QPU grants of a ``[B, U]`` batch of decisions, and each winner's saving.

    Rows are arbitrated apart.  Each server runs exactly one of its
    ``candidates`` (ratio < 1, feasible there) on its QPU: the one whose
    offloaded share gains the most (CPU cost minus QPU cost, at its actual
    ratio), ties going to the lowest user index; the rest use the server
    CPUs.  ``servers`` must hold valid server indices.  Returns boolean
    grants and float savings, ``[B, U]`` each, NaN where there is no grant,
    so a forced grant, one dearer than the CPU path, has ``saving < 0``.
    """
    grants, saving = np.zeros(servers.shape, dtype=bool), np.full(servers.shape, np.nan)
    rows, users = np.nonzero(evaluator.candidates(servers, ratios))
    if len(users) == 0:
        return grants, saving
    chosen = servers[rows, users]
    # one contest per (row, server); sort each contest's candidates by rank
    contest = rows * evaluator.num_servers + chosen
    gain = evaluator.savings(chosen, ratios[rows, users], users=users, episodes=rows)
    order = np.lexsort((users, -gain, contest))
    contest = contest[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = contest[1:] != contest[:-1]
    winners = order[first]
    at = rows[winners], users[winners]
    grants[at], saving[at] = True, gain[winners]
    return grants, saving


@dataclass(frozen=True, eq=False)
class StepResult:
    """Outcome of one decision slot; ``MeqcEnv.score`` returns B, batch axis first.

    ``latency_cost`` and ``energy_cost``, the weighted parts of the cost,
    add up to ``-reward``.  Per user: the resolved ``servers``, ``ratios``
    and ``grants``, the ``success`` probability at the chosen server and
    ``grant_mask``'s ``saving``, NaN where it did not arbitrate (every
    ``JointAction`` row).  ``action`` is the first three as a ``JointAction``.
    """

    reward: float
    latency_cost: float
    energy_cost: float
    servers: np.ndarray
    ratios: np.ndarray
    grants: np.ndarray
    success: np.ndarray
    saving: np.ndarray

    @property
    def action(self) -> JointAction:
        return JointAction(self.servers, self.ratios, self.grants.astype(np.int64))


class MeqcEnv:
    """Shared-reward POMDP over one scenario.

    Each step is one decision slot: transitions are stateless unless
    ``redraw_tasks`` is set, in which case every ``reset`` draws fresh
    tasks from the workload generator: two arrays, ``tasks``, the users'
    primitive exponents and data sizes.  The base evaluator is the
    scenario's own ``Scenario.evaluator``, built once per scenario and
    shared with every other environment and solver of it.  ``evaluator``
    is the base evaluator, or in a redrawn episode the base evaluator with
    that episode's task tables, built on first read; greedy, the oracle
    and ``observations`` read the episode from it.  ``score`` is the one
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
        self._evaluator = scenario.evaluator
        self.num_users = self._evaluator.num_users
        self.num_servers = self._evaluator.num_servers
        self.tasks: tuple[np.ndarray, np.ndarray] | None = None
        self._template = None
        self._observations = None
        self._checked = (None, None, None)  # (evaluator, action, arrays) of the last check

    @property
    def evaluator(self) -> ScenarioEvaluator:
        """The episode's evaluator; a redrawn episode's is built on first read."""
        if self._evaluator is None:
            self._evaluator = self._with_tasks(*self.tasks)
        return self._evaluator

    def _with_tasks(self, exponents, data_sizes) -> ScenarioEvaluator:
        """The base evaluator with drawn tasks (see ``draw_tasks``), ``[..., U]`` each.

        ``data_sizes`` is the environment's own array: it is made read-only,
        and the evaluator shares it rather than copying it.
        """
        shapes = TASK_SHAPES.T[:, exponents]
        for column in (shapes, data_sizes):
            column.setflags(write=False)
        cycles_per_byte, logical_qubits, logical_depth = shapes
        columns = (data_sizes, cycles_per_byte, data_sizes, logical_qubits, logical_depth)
        return self.base_scenario.evaluator.with_tasks(*columns)

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
        Greedy and the oracle hand back one action object per evaluator, so
        the last one checked is kept: the same object on the same evaluator
        returns the same arrays without a second check.
        """
        if isinstance(action, JointAction):
            evaluator = self.evaluator
            if self._checked[0] is not evaluator or self._checked[1] is not action:
                self._checked = (evaluator, action, evaluator.check_action(action))
            return self._checked[2]
        pairs = np.asarray(action, dtype=np.float64)
        if pairs.shape != (self.num_users, 2):
            raise ValueError(f"expected {self.num_users} actions, got shape {pairs.shape}")
        return pairs[:, 0], pairs[:, 1], None

    def score(self, servers, ratios, grants=None, tasks=None) -> StepResult:
        """Resolve and score B joint decisions, ``servers``/``ratios`` ``[B, U]``, in one pass.

        Servers must be server indices; ratios are clamped to [0, 1].  Row b
        keeps ``grants[b]`` unless it is None; raw rows get ``grant_mask``'s.
        Grants are not checked here: only ``step`` and ``evaluate`` pass
        them, and both ``check`` them first.  ``tasks[b]`` is row b's redrawn
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
        granted, saving = np.zeros(servers.shape, dtype=bool), np.full(servers.shape, np.nan)
        if not raw.all():
            granted[~raw] = [g for g in grants if g is not None]
        if raw.any():  # only raw rows contend: a user at ratio 1 never does
            arbitrated, saving = grant_mask(evaluator, servers, np.where(raw[:, None], ratios, 1.0))
            granted |= arbitrated
        b = evaluator.breakdown(servers, ratios, granted)
        return StepResult(
            -sum_over_users(b.cost),
            sum_over_users(evaluator.weight_latency * b.latency_total),
            sum_over_users(evaluator.weight_energy * b.energy_total),
            servers, ratios, granted, evaluator.feasibility(servers)[0], saving,
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
