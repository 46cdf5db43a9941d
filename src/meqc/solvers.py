"""Non-learning offloading policies.

Four baselines (all-local, uniform random, random server with full
offload, centralized greedy) and an exact oracle, ``solve_exhaustive``
(named for the enumeration it replaced; the name is kept for its
callers).  The oracle exploits that each user's cost is affine in its
local ratio once the server and QPU grant are fixed, so only the ratio
endpoints {0, 1} matter, and that users decouple once the grants are
fixed, so the grants are one maximum-weight user-server matching.  The
grid cross-check guarding the endpoint lemma and the enumeration the
oracle is checked against live in the test suite.

Policies act on a ``MeqcEnv``; the local and random baselines submit raw
(server, ratio) pairs, so only ``env.grant_mask`` grants their QPUs.
Greedy and the oracle are solved on a ``ScenarioEvaluator``: in an
episode the environment's own ``env.evaluator``, and for the public
``solve_*`` calls one evaluator built from the given scenario.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Protocol

import numpy as np

from .costs import JointAction, ScenarioEvaluator, sum_over_users
from .env import MeqcEnv
from .workload import Scenario


class PolicyKind(str, Enum):
    LOCAL = "local"
    RANDOM = "random"
    RANDOM_CLOUD = "random_cloud"
    GREEDY = "greedy"
    ORACLE = "oracle"


def solve_baseline(
    kind: PolicyKind, scenario: Scenario, rng: np.random.Generator | None = None
) -> JointAction:
    """One joint action per baseline definition.

    local: keep everything on-device.  random: uniform server and uniform
    ratio per user.  random_cloud: uniform server, full offload.  greedy:
    see ``solve_greedy``.  The first three are stepped through a
    ``MeqcEnv``, so the returned action carries exactly the grants that
    would execute.
    """
    kind = PolicyKind(kind)
    if kind in (PolicyKind.GREEDY, PolicyKind.ORACLE):
        return _solve(kind, ScenarioEvaluator(scenario))
    env = MeqcEnv(scenario)
    return env.step(_decisions(kind, env.num_users, env.num_servers, rng)).action


def _decisions(
    kind: PolicyKind, num_users: int, num_servers: int, rng: np.random.Generator | None
) -> np.ndarray:
    """Raw (server, ratio) pair per user of the local and random baselines, ``[U, 2]``."""
    if kind is PolicyKind.LOCAL:
        return np.tile([0.0, 1.0], (num_users, 1))
    if rng is None:
        raise ValueError(f"{kind.value} baseline needs an rng")
    pairs = np.zeros((num_users, 2))
    pairs[:, 0] = rng.integers(0, num_servers, size=num_users)
    if kind is PolicyKind.RANDOM:
        pairs[:, 1] = rng.uniform(0.0, 1.0, size=num_users)
    return pairs  # RANDOM_CLOUD offloads everything: ratio 0


def _solve(kind: PolicyKind, evaluator: ScenarioEvaluator) -> JointAction:
    """Greedy's or the oracle's joint action on ``evaluator``."""
    if kind is PolicyKind.GREEDY:
        return _greedy(evaluator)
    return _oracle(evaluator)[0]


def solve_greedy(scenario: Scenario) -> JointAction:
    """Sequential marginal-cost minimization, heaviest workload first.

    Users are visited in descending cycle count, ties in index order.  Each
    picks the server, endpoint ratio and processing path that minimize its
    own cost given the QPU slots consumed so far; a slot is consumed only
    when the QPU path is feasible and strictly cheaper than the CPU path.
    Options are scanned server by server, ratio 0 before 1, CPU before
    QPU, and the first minimum wins.
    """
    return _greedy(ScenarioEvaluator(scenario))


def _greedy(evaluator: ScenarioEvaluator) -> JointAction:
    """``solve_greedy`` on a scenario's evaluator."""
    num_users = evaluator.num_users
    order = np.argsort(-(evaluator.data_size * evaluator.cycles_per_byte), kind="stable")
    # [U, E, ratio, path] in scan order.  CPU comes before QPU at each
    # (server, ratio), so the first minimum is a QPU option only when that
    # is strictly cheaper, i.e. saves cost.
    options = evaluator.endpoint_costs()
    options[..., 1] = np.where(evaluator.eligible[:, :, None], options[..., 1], np.inf)
    servers = [0] * num_users
    ratios = [1.0] * num_users
    indicators = [0] * num_users
    for u in order:
        server, rest = divmod(int(np.argmin(options[u])), 4)
        ratio, indicators[u] = divmod(rest, 2)
        servers[u], ratios[u] = server, float(ratio)
        if indicators[u]:
            options[:, server, :, 1] = np.inf  # the slot is consumed
    return JointAction(
        server_choice=tuple(servers),
        local_ratio=tuple(ratios),
        quantum_indicator=tuple(indicators),
    )


def solve_exhaustive(
    scenario: Scenario, *, allow_quantum: bool = True
) -> tuple[JointAction, float]:
    """Globally minimal joint action and its cost, exact at every size.

    The name is kept for its callers; nothing is enumerated.  Only the
    ratio endpoints {0, 1} matter (ratio 0 when full offload is no dearer
    than local), and users decouple once grants are fixed.  So each user
    takes its best CPU-or-local cost ``c[u]`` at the first cheapest server,
    and the grants are a maximum-weight user-server matching on the
    strictly positive savings ``c[u] - g[u, e]`` (``g``: QPU cost, eligible
    pairs only).  ``allow_quantum=False`` allows no grant.

    Tie rule: a unique optimum is the action enumeration found (the
    lexicographically smallest (assignment, grants, ratios)).  Exact ties
    come only from duplicate servers or users; there the matching's pick
    is returned.  Five identical users on two identical QPU servers get
    servers (0, 1, 0, 0, 0) and grants (1, 1, 0, 0, 0), where enumeration
    picked (0, 0, 0, 0, 1) and (0, 0, 0, 1, 1) at the same cost.
    """
    return _oracle(ScenarioEvaluator(scenario), allow_quantum=allow_quantum)


def _oracle(
    evaluator: ScenarioEvaluator, *, allow_quantum: bool = True
) -> tuple[JointAction, float]:
    """``solve_exhaustive`` on a scenario's evaluator."""
    users = evaluator.user_index
    endpoints = evaluator.endpoint_costs()
    local = endpoints[:, 0, 1, 0]  # nothing offloaded: the same at every server
    cpu = np.minimum(endpoints[:, :, 0, 0], local[:, None])
    servers = np.argmin(cpu, axis=1)
    saving = cpu[users, servers][:, None] - np.minimum(endpoints[:, :, 0, 1], local[:, None])
    saving = np.where(evaluator.eligible & (saving > 0.0) & allow_quantum, saving, 0.0)
    grants = np.zeros(evaluator.num_users, dtype=bool)
    for server, u in _max_weight_matching(saving.T):
        servers[u], grants[u] = server, True
    full = endpoints[users, servers, 0, grants.astype(int)]
    ratios = np.where(full <= local, 0.0, 1.0)
    action = JointAction(*(tuple(a.tolist()) for a in (servers, ratios, grants.astype(int))))
    return action, float(sum_over_users(np.minimum(full, local)))


def _max_weight_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """(row, column) pairs of a maximum-weight matching of a non-negative matrix.

    Shortest augmenting paths with dual potentials (Jonker & Volgenant
    1987; rectangular form of Crouse 2016) on ``-weights`` plus one zero
    column per row, so any row may stay unmatched; zero-weight pairs are
    not returned.  Rows are matched in index order, a numpy pass per step.
    Among equally short paths a free column (lowest index first) ends the
    search, so a row with nothing to gain stops after one step.
    """
    num_rows = len(weights)
    padded = np.hstack([weights, np.zeros((num_rows, num_rows))])
    width = padded.shape[1]
    u, v = np.zeros(num_rows), np.zeros(width)
    col4row, row4col = np.full(num_rows, -1), np.full(width, -1)
    for start in range(num_rows):
        shortest, path = np.full(width, np.inf), np.full(width, -1)
        unscanned = np.ones(width, dtype=bool)
        i, min_val = start, 0.0
        while True:
            reduced = min_val - padded[i] - u[i] - v
            better = unscanned & (reduced < shortest)
            path[better], shortest[better] = i, reduced[better]
            candidates = np.where(unscanned, shortest, np.inf)
            j = int(np.lexsort((row4col >= 0, candidates))[0])
            min_val, unscanned[j] = candidates[j], False
            if row4col[j] < 0:
                break
            i = row4col[j]
        done = ~unscanned & (row4col >= 0)  # columns whose rows the search passed
        u[start] += min_val
        u[row4col[done]] += min_val - shortest[done]
        v[~unscanned] -= min_val - shortest[~unscanned]
        while j >= 0:  # augment back along the path; col4row[start] is -1
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
    return [(r, int(c)) for r, c in enumerate(col4row) if padded[r, c] > 0.0]


class Policy(Protocol):
    """Anything that can pick a joint decision in an environment.

    ``act`` returns either raw (server, local ratio) pairs, as a list of
    tuples or a ``[U, 2]`` array, leaving QPU arbitration to the
    environment, or a complete ``JointAction`` whose grant schedule the
    environment honors.  A policy that needs the agents' observations reads
    ``env.observations()``.
    """

    def act(
        self, env: MeqcEnv, rng: np.random.Generator
    ) -> list[tuple[int, float]] | np.ndarray | JointAction: ...


class BaselinePolicy:
    """Adapter that replays a baseline through the environment.

    The local and random baselines submit raw (server, ratio) pairs as one
    ``[U, 2]`` array, the random ones redrawn every step, for the
    environment to grant; they never read ``env.evaluator``, so a redrawn
    episode builds none.  Greedy and the oracle are solved on it once per
    evaluator (per episode under ``redraw_tasks``, else once) and submit
    complete joint actions, so a solver's grant schedule is what runs.
    """

    def __init__(self, kind: PolicyKind):
        self.kind = PolicyKind(kind)
        self._solved: tuple[ScenarioEvaluator, JointAction] | None = None

    def act(self, env, rng):
        if self.kind not in (PolicyKind.GREEDY, PolicyKind.ORACLE):
            return _decisions(self.kind, env.num_users, env.num_servers, rng)
        if self._solved is None or self._solved[0] is not env.evaluator:
            self._solved = (env.evaluator, _solve(self.kind, env.evaluator))
        return self._solved[1]


@dataclass(frozen=True)
class EvalStats:
    """Sample statistics of a policy run through the environment."""

    mean_cost: float
    std_cost: float
    latency_cost: float
    energy_cost: float
    qpu_grant_rate: float
    mean_success_prob: float
    episodes: int


def evaluate(
    policy: Policy,
    scenario: Scenario,
    episodes: int,
    rng: np.random.Generator,
    *,
    redraw_tasks: bool = False,
) -> EvalStats:
    """Run ``policy`` for ``episodes`` decision slots and aggregate costs.

    Each episode resets the environment (which draws any tasks from ``rng``
    first) and the policy acts, checked by ``env.check``; one ``env.score``
    batch then scores every episode as ``env.step`` would.  Latency/energy
    splits are the weighted component sums, so they add up to the mean
    cost.  The grant rate is the fraction of (episode, user) pairs that ran
    on a QPU.  Raises ``RuntimeError``, naming the policy and the first
    such episode, if an episode's cost is not finite.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    name = policy.kind.value if isinstance(policy, BaselinePolicy) else type(policy).__name__
    env = MeqcEnv(scenario, redraw_tasks=redraw_tasks, rng=rng)
    decisions, tasks = [], []
    for _ in range(episodes):
        env.reset()
        decisions.append(env.check(policy.act(env, rng)))
        tasks.append(env.tasks)
    result = env.score(*zip(*decisions), tasks if redraw_tasks else None)
    costs = (-result.reward).tolist()
    for episode, cost in enumerate(costs):
        if not math.isfinite(cost):
            raise RuntimeError(f"policy {name}: episode {episode} has a non-finite cost {cost}")
    # each episode's mean over users, summed over episodes, both in index order
    success_sum = sum_over_users(sum_over_users(result.success) / env.num_users)
    return EvalStats(
        mean_cost=statistics.fmean(costs),
        std_cost=statistics.pstdev(costs) if episodes > 1 else 0.0,
        latency_cost=statistics.fmean(result.latency_cost.tolist()),
        energy_cost=statistics.fmean(result.energy_cost.tolist()),
        qpu_grant_rate=int(np.count_nonzero(result.grants)) / result.grants.size,
        mean_success_prob=float(success_sum) / episodes,
        episodes=episodes,
    )
