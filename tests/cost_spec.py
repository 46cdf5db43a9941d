"""The scalar cost model: the reference the array kernel is held to.

Each function computes one user's cost term, one scalar at a time, in the
operation order of ``ScenarioEvaluator``; the tests compare the kernel to
these with ``==``.  No code in ``meqc`` calls them.  Their inputs are one
user's records: ``UserProfile``, ``TaskSpec`` and ``QuantumTaskSpec``, plain
data that ``records_of`` reads from a scenario's columns and
``user_columns`` turns back into columns.  ``user_cost``, ``qpu_saving``
and ``total_cost`` are views of the kernel itself, for tests that score a
single (user, server, ratio) choice or a whole joint action.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from meqc.costs import (
    BITS_PER_BYTE,
    SUCCESS_THRESHOLD,
    CostBreakdown,
    JointAction,
    ServerProfile,
    sum_over_users,
)
from meqc.device import GatePowerProfile, LogicalResources, QubitTech, error_suppression
from meqc.workload import Scenario, UserColumns


@dataclasses.dataclass(frozen=True)
class UserProfile:
    """One mobile user: hardware, radio and subscribed edge resources.

    ``channel_gains[e]`` is the unitless uplink gain toward server ``e``.
    ``edge_cpu`` is the cycles/s the user has subscribed on any edge
    server, ``logical_qubit_quota`` the subscribed number of logical
    qubits.  The three records check nothing: ``UserColumns`` does.
    """

    f_local: float
    tx_power: float
    weight_latency: float
    weight_energy: float
    channel_gains: tuple[float, ...]
    edge_cpu: float
    logical_qubit_quota: int


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """A classical task: payload bytes and CPU cycles needed per byte."""

    data_size: float
    cycles_per_byte: float


@dataclasses.dataclass(frozen=True)
class QuantumTaskSpec:
    """The compiled quantum form of a task: circuit width and depth."""

    data_size: float
    logical_qubits: int
    logical_depth: int


def user_columns(users) -> UserColumns:
    """The ``UserColumns`` of ``(UserProfile, TaskSpec, QuantumTaskSpec)`` triples."""
    astuple = dataclasses.astuple
    rows = [(*astuple(profile), *astuple(task), *astuple(qtask)) for profile, task, qtask in users]
    return UserColumns(*map(np.array, zip(*rows)))


def records_of(scenario: Scenario) -> list[tuple[UserProfile, TaskSpec, QuantumTaskSpec]]:
    """Each user's records, holding Python scalars and a tuple of gains."""
    rows = zip(*(column.tolist() for column in vars(scenario.columns).values()))
    return [
        (UserProfile(*row[:4], tuple(row[4]), *row[5:7]), TaskSpec(*row[7:9]),
         QuantumTaskSpec(*row[9:]))
        for row in rows
    ]


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


def success_probability(
    q_logical: int, d_logical: int, level: int, err_rate: float, err_threshold: float
) -> float:
    """Linear-approximation probability that a logical circuit completes correctly.

    A circuit of ``q_logical * d_logical`` logical error locations run at
    concatenation level ``level`` fails with probability suppressed as
    ``(err_rate / err_threshold) ** (2 ** level)``.  The approximation can
    go negative for deep circuits above threshold, so the result is
    clamped to [0, 1].
    """
    if q_logical <= 0 or d_logical <= 0:
        raise ValueError("q_logical and d_logical must be > 0")
    suppression = error_suppression(level, err_rate, err_threshold)
    locations = float(q_logical) * float(d_logical)
    failure = locations * err_threshold * suppression
    return min(1.0, max(0.0, 1.0 - failure))


def quantum_feasible(
    qtask: QuantumTaskSpec, user: UserProfile, success_prob: float
) -> int:
    """1 when the task fits the user's qubit quota and the run is reliable enough."""
    fits = qtask.logical_qubits <= user.logical_qubit_quota
    reliable = success_prob >= SUCCESS_THRESHOLD
    return 1 if (fits and reliable) else 0


_FIELDS = tuple(f.name for f in dataclasses.fields(CostBreakdown))


def user_cost(evaluator, u: int, server: int, local_ratio: float, use_qpu: bool) -> CostBreakdown:
    """The kernel's cost of user ``u`` splitting its task toward ``server``, as floats."""
    b = evaluator.breakdown(server, local_ratio, bool(use_qpu), users=u)
    return CostBreakdown(*(float(getattr(b, name)) for name in _FIELDS))


def qpu_saving(evaluator, u: int, server: int, local_ratio: float) -> float:
    """The kernel's saving of running user ``u``'s offloaded share on the QPU."""
    return float(evaluator.savings(server, local_ratio, users=u))


def total_cost(
    scenario: Scenario, action: JointAction
) -> tuple[float, tuple[CostBreakdown, ...]]:
    """System cost of ``action`` on ``scenario`` plus per-user breakdowns.

    The action is validated by ``ScenarioEvaluator.check_action``, as
    ``MeqcEnv.step`` validates it, so both refuse the same grants.
    """
    evaluator = scenario.evaluator
    b = evaluator.breakdown(*evaluator.check_action(action))
    columns = [getattr(b, name).tolist() for name in _FIELDS]
    breakdowns = tuple(CostBreakdown(*row) for row in zip(*columns))
    return float(sum_over_users(b.cost)), breakdowns
