"""Per-user offloading cost terms and the system total.

Latency/energy for the four processing paths (local CPU, uplink, edge CPU,
edge QPU), the quantum-feasibility indicator, and the weighted sum over
users.  ``ScenarioEvaluator`` tabulates one scenario's ratio-independent
factors and evaluates the formulas on whole numpy batches, so solvers and
the environment can score many candidate actions in one pass.  Its kernel
is the model; the scalar form of each formula lives in the test suite
(``tests/cost_spec.py``) as the reference the kernel is held to.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .device import (
    cryostat_stages,
    error_suppression,
    gate_power_profile,
    logical_resources,
    physical_error_rate,
)

if TYPE_CHECKING:
    from .workload import Scenario

# A quantum execution is accepted when its success probability reaches the
# classical single-run threshold of two thirds.
SUCCESS_THRESHOLD = 2.0 / 3.0

BITS_PER_BYTE = 8.0


@dataclass(frozen=True)
class UserProfile:
    """One mobile user: hardware, radio and subscribed edge resources.

    ``channel_gains[e]`` is the unitless uplink gain toward server ``e``.
    ``edge_cpu`` is the cycles/s the user has subscribed on any edge
    server, ``logical_qubit_quota`` the subscribed number of logical
    qubits.
    """

    f_local: float
    tx_power: float
    weight_latency: float
    weight_energy: float
    channel_gains: tuple[float, ...]
    edge_cpu: float
    logical_qubit_quota: int

    def __post_init__(self):
        if self.f_local <= 0.0:
            raise ValueError("f_local must be > 0")
        if self.tx_power <= 0.0:
            raise ValueError("tx_power must be > 0")
        for w in (self.weight_latency, self.weight_energy):
            if not 0.0 <= w <= 1.0:
                raise ValueError("weights must lie in [0, 1]")
        if any(g <= 0.0 for g in self.channel_gains):
            raise ValueError("channel gains must be > 0")
        if self.edge_cpu <= 0.0:
            raise ValueError("edge_cpu must be > 0")
        if self.logical_qubit_quota < 0:
            raise ValueError("logical_qubit_quota must be >= 0")


@dataclass(frozen=True)
class TaskSpec:
    """A classical task: payload bytes and CPU cycles needed per byte."""

    data_size: float
    cycles_per_byte: float

    def __post_init__(self):
        if self.data_size <= 0.0 or self.cycles_per_byte <= 0.0:
            raise ValueError("data_size and cycles_per_byte must be > 0")


@dataclass(frozen=True)
class QuantumTaskSpec:
    """The compiled quantum form of a task: circuit width and depth."""

    data_size: float
    logical_qubits: int
    logical_depth: int

    def __post_init__(self):
        if self.data_size <= 0.0:
            raise ValueError("data_size must be > 0")
        if self.logical_qubits <= 0 or self.logical_depth <= 0:
            raise ValueError("logical_qubits and logical_depth must be > 0")


@dataclass(frozen=True)
class ServerProfile:
    """One edge server: radio parameters and its error-correction level."""

    noise_power: float = 1e-6
    bandwidth: float = 20e6
    concat_level: int = 1

    def __post_init__(self):
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be > 0")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")
        if self.concat_level not in (1, 2, 3):
            raise ValueError(f"concat_level must be 1, 2 or 3, got {self.concat_level}")


@dataclass(frozen=True)
class CostBreakdown:
    """Latency/energy components of one user's execution and the weighted cost.

    Components not on the active path are zero.  ``cost`` is the
    latency-weighted sum of the active latencies plus the energy-weighted
    sum of the active energies.  ``ScenarioEvaluator.breakdown`` returns
    one whose fields are arrays of a batch's shape.
    """

    latency_local: float = 0.0
    latency_uplink: float = 0.0
    latency_edge_cpu: float = 0.0
    latency_edge_qpu: float = 0.0
    energy_local: float = 0.0
    energy_uplink: float = 0.0
    energy_edge_cpu: float = 0.0
    energy_edge_qpu: float = 0.0
    cost: float = 0.0

    @property
    def latency_total(self) -> float:
        return (
            self.latency_local
            + self.latency_uplink
            + self.latency_edge_cpu
            + self.latency_edge_qpu
        )

    @property
    def energy_total(self) -> float:
        return (
            self.energy_local
            + self.energy_uplink
            + self.energy_edge_cpu
            + self.energy_edge_qpu
        )


@dataclass(frozen=True)
class JointAction:
    """Resolved decisions for every user: server, local ratio, QPU indicator."""

    server_choice: tuple[int, ...]
    local_ratio: tuple[float, ...]
    quantum_indicator: tuple[int, ...]

    def __post_init__(self):
        n = len(self.server_choice)
        if len(self.local_ratio) != n or len(self.quantum_indicator) != n:
            raise ValueError("action fields must have equal length")
        if any(not 0.0 <= r <= 1.0 for r in self.local_ratio):
            raise ValueError("local_ratio entries must lie in [0, 1]")
        if any(i not in (0, 1) for i in self.quantum_indicator):
            raise ValueError("quantum_indicator entries must be 0 or 1")


def sum_over_users(values: np.ndarray) -> np.ndarray:
    """Sum over the last (user) axis, adding users strictly in index order.

    ``np.sum`` adds pairwise, which moves the last bits of a total from
    eight users on; a running sum reproduces ``sum()`` over the users.
    """
    return np.add.accumulate(values, axis=-1)[..., -1]


_FIELDS = tuple(f.name for f in fields(CostBreakdown))
_PATHS = np.array([False, True])


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.float64)


class ScenarioEvaluator:
    """Scores actions against one scenario.

    Construction turns the scenario into numpy tables of every
    ratio-independent factor of the cost formulas.  The scenario-fixed
    tables depend on profiles, servers and device physics only: per-user
    profile vectors and qubit quotas, the per-(user, server) uplink
    ``rate`` (``[U, E]``), and per-server error suppression and QPU step
    time and step energy.  The task tables depend on the users' tasks too:
    the task columns ``data_size``, ``cycles_per_byte``, ``logical_qubits``
    and ``logical_depth`` (and the quantum payload), ``[U]``, and the
    ``[U, E]`` ``success`` and ``eligible`` arrays.  They are built in one
    place, from the scenario or from ``with_tasks`` columns, which may hold
    B episodes' tasks: then the task columns lead with an episode axis, the
    two arrays are None (``feasibility`` reads them at chosen servers) and
    ``breakdown`` scores row b of a ``[B, U]`` batch on episode b.  Solvers
    and observations read their task numbers from the evaluator's tables.
    ``breakdown`` evaluates the formulas on any batch; the tests hold every
    number it returns bit-identical to ``tests/cost_spec.py``.
    ``check_action`` is the one validation of a complete ``JointAction``
    and ``candidates`` the one rule for who may hold a QPU grant.  The
    tables are read-only; one evaluator may be shared by concurrent readers.
    """

    def __init__(self, scenario: Scenario):
        users, servers = scenario.users, scenario.servers
        self.num_users = len(users)
        self.num_servers = len(servers)
        for u, entry in enumerate(users):
            if len(entry.profile.channel_gains) != self.num_servers:
                raise ValueError(
                    f"user {u} has {len(entry.profile.channel_gains)} channel gains "
                    f"for {self.num_servers} servers"
                )

        self.user_index = np.arange(self.num_users)
        self._f_local = _column([e.profile.f_local for e in users])
        self._tx_power = _column([e.profile.tx_power for e in users])
        self._edge_cpu = _column([e.profile.edge_cpu for e in users])
        self.weight_latency = _column([e.profile.weight_latency for e in users])
        self.weight_energy = _column([e.profile.weight_energy for e in users])
        self._quota = np.array([e.profile.logical_qubit_quota for e in users])

        # uplink_rate: bandwidth * log2(1 + tx * gain / noise).  math.log2
        # rather than np.log2, whose SIMD variants may round differently.
        snr = (
            self._tx_power[:, None]
            * _column([e.profile.channel_gains for e in users])
            / _column([s.noise_power for s in servers])
        )
        log_terms = list(map(math.log2, (1.0 + snr).ravel().tolist()))
        self.rate = _column([s.bandwidth for s in servers]) * _column(log_terms).reshape(
            snr.shape
        )
        self._dead_links = not (self.rate > 0.0).all()

        error_rate = physical_error_rate(scenario.cryostat, scenario.qubit_tech)
        self._suppression = _column(
            [
                error_suppression(s.concat_level, error_rate, scenario.error_threshold)
                for s in servers
            ]
        )

        # edge_quantum_cost's per-step time and energy, per server.
        tech = scenario.qubit_tech
        powers = gate_power_profile(
            scenario.cryostat, tech, cryostat_stages(scenario.cryostat)
        )
        step = {}
        for level in {s.concat_level for s in servers}:
            res = logical_resources(level)
            step[level] = (
                tech.tau_1qb * res.n_1qb
                + tech.tau_2qb * res.n_2qb
                + tech.tau_meas * res.n_meas,
                powers.e_1qb * res.n_1qb
                + powers.e_2qb * res.n_2qb
                + powers.e_meas * res.n_meas
                + powers.e_qubit * res.phys_per_logical,
            )
        self._step_time, self._step_energy = _column(
            [step[s.concat_level] for s in servers]
        ).T
        self._chip_energy = scenario.chip_energy_per_cycle
        self._error_threshold = scenario.error_threshold
        self._load_tasks(
            _column([e.task.data_size for e in users]),
            _column([e.task.cycles_per_byte for e in users]),
            _column([e.quantum_task.data_size for e in users]),
            _column([e.quantum_task.logical_qubits for e in users]),
            _column([e.quantum_task.logical_depth for e in users]),
        )

    def _load_tasks(self, *columns: np.ndarray) -> None:
        """Build the task tables from task columns (see ``with_tasks``)."""
        columns = [np.asarray(c, dtype=np.float64) for c in columns]
        shapes = sorted({column.shape for column in columns})
        if len(shapes) > 1 or shapes[0][-1:] != (self.num_users,):
            raise ValueError(f"expected {self.num_users} values per task column, got shapes {shapes}")
        (self.data_size, self.cycles_per_byte, self._q_data_size,
         self.logical_qubits, self.logical_depth) = columns

        self._locations = self.logical_qubits * self.logical_depth
        self._fits = self.logical_qubits <= self._quota
        self.success = self.eligible = None  # a batch of episodes is read at its servers only
        if self._locations.ndim == 1:  # one episode: [U, E] tables
            tables = self.feasibility(np.arange(self.num_servers)[:, None])
            self.success, self.eligible = (table.T for table in tables)

    def with_tasks(
        self, data_size, cycles_per_byte, quantum_data_size, logical_qubits, logical_depth
    ) -> ScenarioEvaluator:
        """An evaluator of this scenario with every user's task replaced.

        Each argument is a ``[U]`` or ``[B, U]`` (B episodes) column of the
        field of the same name (``quantum_data_size`` is
        ``QuantumTaskSpec.data_size``).  The new evaluator shares this one's
        fixed tables and builds only its task tables; this one is left as it
        was.  Raises ``ValueError`` unless all columns have one such shape.
        """
        evaluator = copy.copy(self)
        evaluator._load_tasks(
            data_size, cycles_per_byte, quantum_data_size, logical_qubits, logical_depth
        )
        return evaluator

    def breakdown(self, servers, ratios, qpu, users=None, episodes=None) -> CostBreakdown:
        """Cost components of a whole batch at once, as arrays.

        ``servers``, ``ratios`` and ``qpu`` (the QPU path flag) broadcast
        against ``users``, which defaults to every user along the last axis,
        so ``[B, U]`` arrays score B joint decisions; task tables with an
        episode axis are read at ``[episodes, users]``, by default
        ``[..., users]``.  Inputs are not validated: servers in range, ratios in [0, 1].
        """
        if users is None:
            users = self.user_index
        ratios = np.asarray(ratios, dtype=np.float64)
        chip = self._chip_energy
        index = users if self.data_size.ndim == 1 else (
            (..., users) if episodes is None else (episodes, users))
        data_size, cycles_per_byte, q_data_size, logical_qubits = (column[index] for column in (
            self.data_size, self.cycles_per_byte, self._q_data_size, self.logical_qubits))
        cycles = ratios * data_size * cycles_per_byte
        latency_local = cycles / self._f_local[users]
        energy_local = chip * cycles

        payload = (1.0 - ratios) * np.where(qpu, q_data_size, data_size)
        bits = payload * BITS_PER_BYTE
        rate = self.rate[users, servers]
        if self._dead_links:
            dead = (bits != 0.0) & (rate <= 0.0)
            if dead.any():
                server = np.broadcast_to(servers, dead.shape)[dead].flat[0]
                raise ValueError(f"link to server {server} carries no data")
            rate = np.where(rate > 0.0, rate, 1.0)
        latency_uplink = bits / rate
        energy_uplink = self._tx_power[users] * latency_uplink

        cycles_edge = payload * cycles_per_byte
        volume = payload * logical_qubits
        latency_edge = np.where(
            qpu, volume * self._step_time[servers], cycles_edge / self._edge_cpu[users]
        )
        energy_edge = np.where(qpu, volume * self._step_energy[servers], chip * cycles_edge)

        w_lat, w_en = self.weight_latency[users], self.weight_energy[users]
        cost = (w_lat * latency_local + w_en * energy_local) + (
            w_lat * (latency_uplink + latency_edge) + w_en * (energy_uplink + energy_edge)
        )
        return CostBreakdown(
            latency_local=latency_local,
            latency_uplink=latency_uplink,
            latency_edge_cpu=np.where(qpu, 0.0, latency_edge),
            latency_edge_qpu=np.where(qpu, latency_edge, 0.0),
            energy_local=energy_local,
            energy_uplink=energy_uplink,
            energy_edge_cpu=np.where(qpu, 0.0, energy_edge),
            energy_edge_qpu=np.where(qpu, energy_edge, 0.0),
            cost=cost,
        )

    def endpoint_costs(self) -> np.ndarray:
        """Cost of every user at every server, ratio 0 or 1, CPU or QPU path.

        Shape ``[U, E, 2, 2]``; the last two axes are the ratio (0, 1) and
        the path (CPU, QPU).  QPU entries are computed for ineligible
        pairs too.
        """
        # One kernel call on [U, E + 1, 2]: column e < E is server e at
        # ratio 0.  Column E is ratio 1, where nothing is offloaded, so its
        # cost is the same at every server and on both paths; it is
        # evaluated once (at server 0, CPU path) and broadcast.
        columns = np.arange(self.num_servers + 1)
        ratio_one = columns == self.num_servers
        cost = self.breakdown(
            np.where(ratio_one, 0, columns)[:, None],
            np.where(ratio_one, 1.0, 0.0)[:, None],
            _PATHS,
            users=self.user_index[:, None, None],
        ).cost
        costs = np.empty((self.num_users, self.num_servers, 2, 2))
        costs[:, :, 0] = cost[:, :-1]
        costs[:, :, 1] = cost[:, -1:, :1]
        return costs

    def savings(self, servers, ratios, users=None, episodes=None) -> np.ndarray:
        """CPU-path cost minus QPU-path cost, elementwise (see ``breakdown``), in one call."""
        paths = _PATHS.reshape((2,) + (1,) * np.broadcast(servers, ratios, users, episodes).ndim)
        cost = self.breakdown(servers, ratios, paths, users=users, episodes=episodes).cost
        return cost[0] - cost[1]

    def feasibility(self, servers) -> tuple[np.ndarray, np.ndarray]:
        """Success probability and QPU eligibility of each user's task at ``servers`` ``[..., U]``."""
        # success_probability, clamped the way min(1, max(0, .)) clamps.
        success = 1.0 - self._locations * self._error_threshold * self._suppression[servers]
        success = np.where(success > 0.0, success, 0.0)
        success = np.where(success < 1.0, success, 1.0)
        return success, self._fits & (success >= SUCCESS_THRESHOLD)

    def check_servers(self, servers: np.ndarray) -> None:
        """Raise unless every entry of ``servers`` (users last) is an integral server index."""
        bad = ~((servers >= 0) & (servers < self.num_servers) & (servers == np.trunc(servers)))
        if bad.any():
            u = int(np.nonzero(bad)[-1][0])
            raise ValueError(f"user {u} picked unknown server {servers[bad].flat[0]}")

    def candidates(self, servers: np.ndarray, ratios: np.ndarray) -> np.ndarray:
        """Users that may hold a QPU grant: ratio < 1, at a server where the task is feasible.

        ``servers`` and ``ratios`` are arrays with users along the last
        axis; ``servers`` must hold valid server indices.
        """
        return self.feasibility(servers)[1] & (ratios < 1.0)

    def check_action(self, action: JointAction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The servers, ratios and grants of a complete joint action, validated.

        Raises ``ValueError`` unless the action covers every user, picks
        only known servers, grants the QPU only to ``candidates`` and
        grants each server's QPU at most once.
        """
        if len(action.server_choice) != self.num_users:
            raise ValueError(
                f"expected {self.num_users} actions, got {len(action.server_choice)}"
            )
        servers = np.array(action.server_choice, dtype=np.int64)
        ratios = np.array(action.local_ratio, dtype=np.float64)
        grants = np.array(action.quantum_indicator, dtype=bool)
        self.check_servers(servers)
        infeasible = grants & ~self.candidates(servers, ratios)
        if infeasible.any():
            u = int(np.argmax(infeasible))
            raise ValueError(f"user {u} claims an infeasible QPU grant on server {servers[u]}")
        if (np.bincount(servers[grants], minlength=self.num_servers) > 1).any():
            raise ValueError("more than one QPU grant on a single server")
        return servers, ratios, grants


def total_cost(
    scenario: Scenario, action: JointAction
) -> tuple[float, tuple[CostBreakdown, ...]]:
    """System cost of ``action`` on ``scenario`` plus per-user breakdowns.

    The action is validated by ``ScenarioEvaluator.check_action``, as
    ``MeqcEnv.step`` validates it, so both refuse the same grants.
    """
    evaluator = ScenarioEvaluator(scenario)
    b = evaluator.breakdown(*evaluator.check_action(action))
    columns = [getattr(b, name).tolist() for name in _FIELDS]
    breakdowns = tuple(CostBreakdown(*row) for row in zip(*columns))
    return float(sum_over_users(b.cost)), breakdowns
