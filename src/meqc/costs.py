"""Per-user offloading cost terms and the system total.

Latency/energy for the four processing paths (local CPU, uplink, edge CPU,
edge QPU), the quantum-feasibility indicator, and the weighted sum over
users.  All functions are pure and are the specification;
``ScenarioEvaluator`` tabulates one scenario's ratio-independent factors
and evaluates the same formulas on whole numpy batches, so solvers and the
environment can score many candidate actions in one pass.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .device import (
    GatePowerProfile,
    LogicalResources,
    QubitTech,
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


def uplink_rate(user: UserProfile, server: ServerProfile, target: int) -> float:
    """Shannon uplink rate in bits/s from a user to server ``target``."""
    if not 0 <= target < len(user.channel_gains):
        raise LookupError(f"unknown server id {target}")
    snr = user.tx_power * user.channel_gains[target] / server.noise_power
    return server.bandwidth * math.log2(1.0 + snr)


def local_cost(
    user: UserProfile, task: TaskSpec, local_ratio: float, chip_energy: float
) -> CostBreakdown:
    """Cost of processing the ``local_ratio`` share of a task on the user CPU."""
    if not 0.0 <= local_ratio <= 1.0:
        raise ValueError("local_ratio must lie in [0, 1]")
    cycles = local_ratio * task.data_size * task.cycles_per_byte
    latency = cycles / user.f_local
    energy = chip_energy * cycles
    return CostBreakdown(
        latency_local=latency,
        energy_local=energy,
        cost=user.weight_latency * latency + user.weight_energy * energy,
    )


def transmission_cost(
    user: UserProfile,
    server: ServerProfile,
    target: int,
    task: TaskSpec | QuantumTaskSpec,
    local_ratio: float,
) -> tuple[float, float]:
    """Uplink (latency, energy) of shipping the offloaded share to ``target``.

    Task sizes are bytes while the link rate is bits/s, hence the factor 8.
    """
    bits = (1.0 - local_ratio) * task.data_size * BITS_PER_BYTE
    if bits == 0.0:
        return 0.0, 0.0
    rate = uplink_rate(user, server, target)
    if rate <= 0.0:
        raise ValueError(f"link to server {target} carries no data")
    latency = bits / rate
    return latency, user.tx_power * latency


def edge_classical_cost(
    user: UserProfile,
    server: ServerProfile,
    target: int,
    task: TaskSpec,
    local_ratio: float,
    chip_energy: float,
) -> CostBreakdown:
    """Cost of offloading the remote share to server CPUs, transmission included."""
    d_up, e_up = transmission_cost(user, server, target, task, local_ratio)
    cycles = (1.0 - local_ratio) * task.data_size * task.cycles_per_byte
    latency = cycles / user.edge_cpu
    energy = chip_energy * cycles
    return CostBreakdown(
        latency_uplink=d_up,
        energy_uplink=e_up,
        latency_edge_cpu=latency,
        energy_edge_cpu=energy,
        cost=user.weight_latency * (d_up + latency)
        + user.weight_energy * (e_up + energy),
    )


def edge_quantum_cost(
    user: UserProfile,
    server: ServerProfile,
    target: int,
    qtask: QuantumTaskSpec,
    local_ratio: float,
    resources: LogicalResources,
    powers: GatePowerProfile,
    tech: QubitTech,
) -> CostBreakdown:
    """Cost of offloading the remote share to the server QPU, transmission included.

    Gate latency and energy scale with the offloaded bytes times the
    circuit width; energy adds the static per-physical-qubit draw of one
    logical qubit.
    """
    d_up, e_up = transmission_cost(user, server, target, qtask, local_ratio)
    volume = (1.0 - local_ratio) * qtask.data_size * qtask.logical_qubits
    step_time = (
        tech.tau_1qb * resources.n_1qb
        + tech.tau_2qb * resources.n_2qb
        + tech.tau_meas * resources.n_meas
    )
    step_energy = (
        powers.e_1qb * resources.n_1qb
        + powers.e_2qb * resources.n_2qb
        + powers.e_meas * resources.n_meas
        + powers.e_qubit * resources.phys_per_logical
    )
    latency = volume * step_time
    energy = volume * step_energy
    return CostBreakdown(
        latency_uplink=d_up,
        energy_uplink=e_up,
        latency_edge_qpu=latency,
        energy_edge_qpu=energy,
        cost=user.weight_latency * (d_up + latency)
        + user.weight_energy * (e_up + energy),
    )


def quantum_feasible(
    qtask: QuantumTaskSpec, user: UserProfile, success_prob: float
) -> int:
    """1 when the task fits the user's qubit quota and the run is reliable enough."""
    fits = qtask.logical_qubits <= user.logical_qubit_quota
    reliable = success_prob >= SUCCESS_THRESHOLD
    return 1 if (fits and reliable) else 0


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
    per-user task vectors and the ``[U, E]`` ``success`` and ``eligible``
    arrays.  ``with_tasks`` rebuilds only the task tables, for a scenario
    whose tasks alone differ.  ``breakdown`` evaluates the formulas on any
    batch in the operation order of ``local_cost``, ``transmission_cost``,
    ``edge_classical_cost`` and ``edge_quantum_cost``, so every number is
    bit-identical to those scalar functions.  The scenario and tables are
    read-only; one evaluator may be shared by concurrent readers.
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
        self._load_tasks(scenario)

    def _load_tasks(self, scenario: Scenario) -> None:
        """Build the task tables of ``scenario`` and make it the scored one."""
        self.scenario = scenario
        users = scenario.users
        self._data_size = _column([e.task.data_size for e in users])
        self._cycles_per_byte = _column([e.task.cycles_per_byte for e in users])
        self._q_data_size = _column([e.quantum_task.data_size for e in users])
        self._logical_qubits = _column([e.quantum_task.logical_qubits for e in users])
        depths = _column([e.quantum_task.logical_depth for e in users])

        # success_probability, clamped the way min(1, max(0, .)) clamps.
        locations = self._logical_qubits * depths
        success = 1.0 - locations[:, None] * scenario.error_threshold * self._suppression
        success = np.where(success > 0.0, success, 0.0)
        self.success = np.where(success < 1.0, success, 1.0)
        fits = self._logical_qubits <= self._quota
        self.eligible = fits[:, None] & (self.success >= SUCCESS_THRESHOLD)

    def with_tasks(self, scenario: Scenario) -> ScenarioEvaluator:
        """An evaluator of ``scenario``, which differs from this one's in its tasks only.

        The new evaluator shares this one's scenario-fixed tables and builds
        only its task tables.  Raises ``ValueError`` unless ``scenario`` has
        the same servers, user profiles, cryostat, qubit technology, error
        threshold and chip energy as this evaluator's scenario.
        """
        own = self.scenario
        same = (
            scenario.servers == own.servers
            and [e.profile for e in scenario.users] == [e.profile for e in own.users]
            and scenario.cryostat == own.cryostat
            and scenario.qubit_tech == own.qubit_tech
            and scenario.error_threshold == own.error_threshold
            and scenario.chip_energy_per_cycle == own.chip_energy_per_cycle
        )
        if not same:
            raise ValueError("scenario differs from the evaluator's in more than its tasks")
        evaluator = copy.copy(self)
        evaluator._load_tasks(scenario)
        return evaluator

    def breakdown(self, servers, ratios, qpu, users=None) -> CostBreakdown:
        """Cost components of a whole batch at once, as arrays.

        ``servers``, ``ratios`` and ``qpu`` (the QPU path flag) broadcast
        against ``users``, which defaults to every user along the last
        axis, so ``[B, U]`` arrays score B joint decisions.  Inputs are not
        validated: servers must be in range and ratios in [0, 1].
        """
        if users is None:
            users = self.user_index
        ratios = np.asarray(ratios, dtype=np.float64)
        chip = self.scenario.chip_energy_per_cycle
        cycles = ratios * self._data_size[users] * self._cycles_per_byte[users]
        latency_local = cycles / self._f_local[users]
        energy_local = chip * cycles

        payload = (1.0 - ratios) * np.where(
            qpu, self._q_data_size[users], self._data_size[users]
        )
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

        cycles_edge = payload * self._cycles_per_byte[users]
        volume = payload * self._logical_qubits[users]
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

    def user_cost(
        self, u: int, server: int, local_ratio: float, use_qpu: bool
    ) -> CostBreakdown:
        """Full cost of user ``u`` splitting its task toward ``server``."""
        self._check(server, local_ratio)
        b = self.breakdown(server, local_ratio, bool(use_qpu), users=u)
        return CostBreakdown(*(float(getattr(b, name)) for name in _FIELDS))

    def savings(self, servers, ratios, users=None) -> np.ndarray:
        """CPU-path cost minus QPU-path cost, elementwise (see ``breakdown``)."""
        cpu = self.breakdown(servers, ratios, False, users=users).cost
        return cpu - self.breakdown(servers, ratios, True, users=users).cost

    def qpu_saving(self, u: int, server: int, local_ratio: float) -> float:
        """Cost saved by running user ``u``'s offloaded share on the QPU instead of CPUs."""
        self._check(server, local_ratio)
        return float(self.savings(server, local_ratio, users=u))

    def _check(self, server: int, local_ratio: float) -> None:
        if not 0 <= server < self.num_servers:
            raise LookupError(f"unknown server id {server}")
        if not 0.0 <= local_ratio <= 1.0:
            raise ValueError("local_ratio must lie in [0, 1]")

    def check_servers(self, servers: np.ndarray) -> None:
        """Raise unless every entry of ``servers`` (last axis: users) is a server index."""
        bad = (servers < 0) | (servers >= self.num_servers)
        if bad.any():
            u = int(np.nonzero(bad)[-1][0])
            raise ValueError(f"user {u} picked unknown server {servers[bad].flat[0]}")

    def check_grants(self, servers: np.ndarray, grants: np.ndarray) -> None:
        """Raise unless a single joint action's grants leave each QPU at most one task."""
        if (np.bincount(servers[grants], minlength=self.num_servers) > 1).any():
            raise ValueError("more than one QPU grant on a single server")

    def total(self, action: JointAction) -> tuple[float, tuple[CostBreakdown, ...]]:
        """System cost of a joint action plus per-user breakdowns.

        The indicator set must respect one QPU task per server; a grant to
        an overcommitted server is a contract violation.
        """
        if len(action.server_choice) != self.num_users:
            raise ValueError(
                f"action covers {len(action.server_choice)} users, "
                f"scenario has {self.num_users}"
            )
        servers = np.array(action.server_choice)
        grants = np.array(action.quantum_indicator, dtype=bool)
        self.check_servers(servers)
        self.check_grants(servers, grants)
        b = self.breakdown(servers, action.local_ratio, grants)
        columns = [getattr(b, name).tolist() for name in _FIELDS]
        breakdowns = tuple(CostBreakdown(*row) for row in zip(*columns))
        return float(sum_over_users(b.cost)), breakdowns


def total_cost(
    scenario: Scenario, action: JointAction
) -> tuple[float, tuple[CostBreakdown, ...]]:
    """System cost of ``action`` on ``scenario`` (convenience wrapper)."""
    return ScenarioEvaluator(scenario).total(action)
