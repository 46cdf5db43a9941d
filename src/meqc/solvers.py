"""Non-learning offloading policies.

Four baselines (all-local, uniform random, random server with full
offload, centralized greedy) and an exhaustive oracle.  The oracle
exploits that each user's cost is affine in its local ratio once the
server and QPU grant are fixed, so only the ratio endpoints {0, 1} need
enumerating; the grid cross-check guarding that lemma lives in the test
suite.
"""

from __future__ import annotations

import itertools
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from typing import Protocol, Sequence

import numpy as np

from .costs import JointAction, ScenarioEvaluator
from .env import MeqcEnv, resolve_quantum_allocation
from .workload import Scenario

DEFAULT_ENUMERATION_BUDGET = 10_000_000


class InstanceTooLargeError(RuntimeError):
    """Raised when exhaustive enumeration would exceed its budget."""


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
    see ``solve_greedy``.  Indicators of the first three are resolved with
    the environment's allocation rule so the returned action is exactly
    what would execute.
    """
    kind = PolicyKind(kind)
    num_users = len(scenario.users)
    num_servers = len(scenario.servers)
    if kind is PolicyKind.GREEDY:
        return solve_greedy(scenario)
    if kind is PolicyKind.ORACLE:
        return solve_exhaustive(scenario)[0]
    if kind is PolicyKind.LOCAL:
        servers = [0] * num_users
        ratios = [1.0] * num_users
    else:
        if rng is None:
            raise ValueError(f"{kind.value} baseline needs an rng")
        servers = [int(s) for s in rng.integers(0, num_servers, size=num_users)]
        if kind is PolicyKind.RANDOM:
            ratios = [float(r) for r in rng.uniform(0.0, 1.0, size=num_users)]
        else:  # RANDOM_CLOUD
            ratios = [0.0] * num_users
    evaluator = ScenarioEvaluator(scenario)
    indicators = resolve_quantum_allocation(evaluator, servers, ratios)
    return JointAction(
        server_choice=tuple(servers),
        local_ratio=tuple(ratios),
        quantum_indicator=indicators,
    )


def solve_greedy(scenario: Scenario) -> JointAction:
    """Sequential marginal-cost minimization, heaviest workload first.

    Users are visited in descending cycle count.  Each picks the server,
    endpoint ratio and processing path that minimize its own cost given
    the QPU slots consumed so far; a slot is consumed only when the QPU
    path is feasible and strictly cheaper than the CPU path.  Options are
    scanned server by server, ratio 0 before 1, CPU before QPU, and the
    first minimum wins.
    """
    evaluator = ScenarioEvaluator(scenario)
    num_users = evaluator.num_users
    order = sorted(
        range(num_users),
        key=lambda u: (
            -scenario.users[u].task.data_size * scenario.users[u].task.cycles_per_byte,
            u,
        ),
    )
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
    scenario: Scenario,
    *,
    allow_quantum: bool = True,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[JointAction, float]:
    """Globally minimal joint action by enumeration.

    Enumerates every server assignment and, per server, every choice of at
    most one feasible QPU grant; each user's ratio is then optimized over
    the endpoints {0, 1}, which is exact because the cost is affine in the
    ratio at fixed assignment and grant.  Ties break lexicographically on
    (assignment, grants, ratios).  ``allow_quantum=False`` restricts the
    search to CPU-only execution.
    """
    evaluator = ScenarioEvaluator(scenario)
    num_users = evaluator.num_users
    num_servers = evaluator.num_servers
    if num_servers**num_users * 2**num_users > budget:
        raise InstanceTooLargeError(
            f"{num_users} users x {num_servers} servers exceeds the "
            f"enumeration budget of {budget}"
        )

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


class Policy(Protocol):
    """Anything that can pick actions from per-user observations.

    ``act`` returns either raw (server, local ratio) pairs, leaving QPU
    arbitration to the environment, or a complete ``JointAction`` whose
    grant schedule the environment honors.
    """

    def act(
        self,
        scenario: Scenario,
        observations: Sequence[np.ndarray],
        rng: np.random.Generator,
    ) -> list[tuple[int, float]] | JointAction: ...


class BaselinePolicy:
    """Adapter that replays a baseline solution through the environment.

    Deterministic baselines are solved once per scenario and replayed;
    the random baselines redraw on every step.  Solutions are submitted
    as complete joint actions, so a solver's grant schedule is what runs.
    """

    def __init__(self, kind: PolicyKind):
        self.kind = PolicyKind(kind)
        self._cached: JointAction | None = None
        self._cached_for: Scenario | None = None

    def act(self, scenario, observations, rng):
        if self.kind in (PolicyKind.RANDOM, PolicyKind.RANDOM_CLOUD):
            return solve_baseline(self.kind, scenario, rng)
        if self._cached is None or self._cached_for is not scenario:
            self._cached = solve_baseline(self.kind, scenario, rng)
            self._cached_for = scenario
        return self._cached


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

    Latency/energy splits are the weighted component sums, so they add up
    to the mean cost.  The grant rate is the fraction of (episode, user)
    pairs that actually ran on a QPU.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    env = MeqcEnv(scenario, redraw_tasks=redraw_tasks, rng=rng)
    costs = []
    latency_parts = []
    energy_parts = []
    grants = 0
    success_sum = 0.0
    for _ in range(episodes):
        obs = env.reset()
        result = env.step(policy.act(env.scenario, obs, rng))
        costs.append(-result.reward)
        latency_parts.append(result.latency_cost)
        energy_parts.append(result.energy_cost)
        grants += sum(result.indicators)
        success_sum += sum(result.success_probs) / env.num_users
    return EvalStats(
        mean_cost=statistics.fmean(costs),
        std_cost=statistics.pstdev(costs) if len(costs) > 1 else 0.0,
        latency_cost=statistics.fmean(latency_parts),
        energy_cost=statistics.fmean(energy_parts),
        qpu_grant_rate=grants / (episodes * env.num_users),
        mean_success_prob=success_sum / episodes,
        episodes=episodes,
    )
