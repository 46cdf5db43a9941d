"""Per-user offloading cost terms and the system total.

Latency/energy for the four processing paths (local CPU, uplink, edge CPU,
edge QPU), the quantum-feasibility indicator, and the weighted sum over
users.  ``ScenarioEvaluator`` tabulates one scenario's ratio-independent
factors and evaluates the formulas on whole numpy batches, so solvers and
the environment can score many candidate actions in one pass.  Its kernel
is the model; the scalar form of each formula lives in the test suite
(``tests/cost_spec.py``) as the reference the kernel is held to.  The
uplink rate's ``log2`` table, the slow part of a build, is memoised on
the exact bytes of its inputs (the last 16), so a regenerated scenario
shares it.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .device import (
    CONCAT_LEVELS,
    CryostatConfig,
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
class ServerProfile:
    """One edge server: radio parameters and its error-correction level."""

    noise_power: float = 1e-6
    bandwidth: float = 20e6
    concat_level: int = 1

    def __post_init__(self):
        # stated so that NaN fails them
        if not 0.0 < self.noise_power < math.inf:
            raise ValueError("noise_power must be finite and > 0")
        if not 0.0 < self.bandwidth < math.inf:
            raise ValueError("bandwidth must be finite and > 0")
        if self.concat_level not in CONCAT_LEVELS:
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


@dataclass(frozen=True, eq=False)
class JointAction:
    """Every user's server, local ratio and QPU indicator, one read-only ``[U]`` array each.

    Fields are copies of their inputs; equality compares values, and like an
    array an action is unhashable.  Only ``ScenarioEvaluator.check_action``
    checks an action.
    """

    server_choice: np.ndarray
    local_ratio: np.ndarray
    quantum_indicator: np.ndarray

    def __post_init__(self):
        for name, values in vars(self).items():
            object.__setattr__(self, name, _frozen(np.array(values)))

    def __eq__(self, other):
        if not isinstance(other, JointAction):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


def sum_over_users(values: np.ndarray) -> np.ndarray:
    """Sum over the last (user) axis, adding users strictly in index order.

    ``np.sum`` adds pairwise, which moves the last bits of a total from
    eight users on; a running sum reproduces ``sum()`` over the users.
    """
    return np.add.accumulate(values, axis=-1)[..., -1]


_PATHS = np.array([False, True])


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


def _column(values) -> np.ndarray:
    """``values`` as a read-only float64 array; a writeable array passed in is copied first."""
    column = np.asarray(values, dtype=np.float64)
    if not column.flags.writeable:
        return column
    return _frozen(column.copy() if column is values else column)


@functools.lru_cache(maxsize=32)
def _device_physics(
    cryostat: CryostatConfig, tech: QubitTech, error_threshold: float
) -> dict[int, tuple[float, float, float]]:
    """Each concatenation level's error suppression, QPU step time and step energy.

    Computed once per device and error threshold: the arguments are frozen,
    and every evaluator that shares them shares the table, which no one
    changes.  The step costs are those of ``edge_quantum_cost``.  A level
    whose suppression overflows is left out, so only a build that uses it
    raises; physics that raises is never cached, so it raises on every build.
    """
    error_rate = physical_error_rate(cryostat, tech)
    powers = gate_power_profile(cryostat, tech, cryostat_stages(cryostat))
    table = {}
    for level in CONCAT_LEVELS:
        try:
            suppression = error_suppression(level, error_rate, error_threshold)
        except OverflowError:
            continue
        res = logical_resources(level)
        table[level] = (
            suppression,
            tech.tau_1qb * res.n_1qb + tech.tau_2qb * res.n_2qb + tech.tau_meas * res.n_meas,
            powers.e_1qb * res.n_1qb
            + powers.e_2qb * res.n_2qb
            + powers.e_meas * res.n_meas
            + powers.e_qubit * res.phys_per_logical,
        )
    return table


@functools.lru_cache(maxsize=16)
def _log2_table(shape: tuple[int, ...], terms: bytes) -> np.ndarray:
    """``log2`` of each float64 in ``terms``, as a read-only array of ``shape``.

    ``math.log2`` rather than ``np.log2``, whose SIMD variants may round
    differently, so it is slow; memoised on the exact bytes (the last 16).
    """
    log_terms = list(map(math.log2, memoryview(terms).cast("d").tolist()))
    return _frozen(np.array(log_terms).reshape(shape))


class ScenarioEvaluator:
    """Scores actions against one scenario.

    Construction turns the scenario into numpy tables of every
    ratio-independent factor of the cost formulas.  A scenario never
    changes, so ``Scenario.evaluator`` builds its evaluator once, on first
    read, and every solver and environment of the scenario shares it;
    calling ``ScenarioEvaluator(scenario)`` builds a fresh one.  The
    scenario-fixed tables depend on profiles, servers and device physics
    only: per-user profile vectors and qubit quotas, the per-(user,
    server) uplink ``rate`` (``[U, E]``), and per-server error suppression
    and QPU step time and step energy.  The task tables depend on the
    users' tasks too: the task columns ``data_size``, ``cycles_per_byte``,
    ``logical_qubits`` and ``logical_depth`` (and the quantum payload),
    ``[U]``, and the ``[U, E]`` ``success`` and ``eligible`` arrays.  They
    are built in one place, from the scenario or from ``with_tasks``
    columns, which may hold B episodes' tasks: then the task columns lead
    with an episode axis, the two arrays are None (``feasibility`` reads
    them at chosen servers) and ``breakdown`` scores row b of a ``[B, U]``
    batch on episode b.  Solvers
    and observations read their task numbers from the evaluator's tables.
    ``breakdown`` evaluates the formulas on any batch; the tests hold every
    number it returns bit-identical to ``tests/cost_spec.py``.
    ``check_action`` is the one validation of a complete ``JointAction``
    and ``candidates`` the one rule for who may hold a QPU grant.  Every
    table is read-only, a ``with_tasks`` evaluator's too, and none aliases
    a writeable array of the caller's, so sharing an evaluator is safe,
    concurrent readers included.
    """

    def __init__(self, scenario: Scenario):
        users, servers = scenario.columns, scenario.servers
        self.num_users = len(users.f_local)
        self.num_servers = len(servers)

        self.user_index = _frozen(np.arange(self.num_users))
        self._f_local = _column(users.f_local)
        self._tx_power = _column(users.tx_power)
        self._edge_cpu = _column(users.edge_cpu)
        self.weight_latency = _column(users.weight_latency)
        self.weight_energy = _column(users.weight_energy)
        self._quota = _column(users.logical_qubit_quota)

        # Per server: noise power and bandwidth, then the error suppression
        # and the per-step time and energy of edge_quantum_cost.
        levels = _device_physics(scenario.cryostat, scenario.qubit_tech, scenario.error_threshold)
        try:
            rows = [(s.noise_power, s.bandwidth, *levels[s.concat_level]) for s in servers]
        except KeyError as missing:  # this level's suppression overflows: raise it here
            error_suppression(
                missing.args[0],
                physical_error_rate(scenario.cryostat, scenario.qubit_tech),
                scenario.error_threshold,
            )
        noise, bandwidth, self._suppression, self._step_time, self._step_energy = _frozen(
            np.array(rows, dtype=np.float64)
        ).T

        # uplink_rate: bandwidth * log2(1 + tx * gain / noise)
        terms = 1.0 + self._tx_power[:, None] * _column(users.channel_gains) / noise
        self.rate = _frozen(bandwidth * _log2_table(terms.shape, terms.tobytes()))
        self._dead_links = not self.rate.min() > 0.0  # a NaN rate is dead too
        self._chip_energy = scenario.chip_energy_per_cycle
        self._error_threshold = scenario.error_threshold
        self._load_tasks(
            users.data_size,
            users.cycles_per_byte,
            users.quantum_data_size,
            users.logical_qubits,
            users.logical_depth,
        )

    def _load_tasks(self, *columns: np.ndarray) -> None:
        """Build the task tables from task columns (see ``with_tasks``)."""
        columns = [_column(c) for c in columns]
        shapes = {column.shape for column in columns}
        if len(shapes) > 1 or columns[0].shape[-1:] != (self.num_users,):
            raise ValueError(
                f"expected {self.num_users} values per task column, got shapes {sorted(shapes)}"
            )
        (self.data_size, self.cycles_per_byte, self._q_data_size,
         self.logical_qubits, self.logical_depth) = columns

        self._locations = _frozen(self.logical_qubits * self.logical_depth)
        self._fits = _frozen(self.logical_qubits <= self._quota)
        self.success = self.eligible = None  # a batch of episodes is read at its servers only
        if self._locations.ndim == 1:  # one episode: [U, E] tables
            tables = self.feasibility(np.s_[:, None])  # every server, as an [E, 1] column
            self.success, self.eligible = (_frozen(table).T for table in tables)

    def with_tasks(
        self, data_size, cycles_per_byte, quantum_data_size, logical_qubits, logical_depth
    ) -> ScenarioEvaluator:
        """An evaluator of this scenario with every user's task replaced.

        Each argument is a ``[U]`` or ``[B, U]`` (B episodes) column of the
        ``UserColumns`` field of the same name.  The new evaluator shares this one's
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
        cost, (latency_local, latency_uplink, latency_edge), (
            energy_local, energy_uplink, energy_edge) = self._cost_terms(
                servers, ratios, qpu, users, episodes)
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

    def _cost_terms(self, servers, ratios, qpu, users, episodes) -> tuple[np.ndarray, ...]:
        """``breakdown``'s cost, then its (local, uplink, edge) latencies and energies.

        Each edge term is on the path ``qpu`` chooses.  ``endpoint_costs``
        needs the cost alone, so it skips splitting them by path.
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
        return cost, (latency_local, latency_uplink, latency_edge), (
            energy_local, energy_uplink, energy_edge)

    def endpoint_costs(self) -> np.ndarray:
        """Cost of every user at every server, ratio 0 or 1, CPU or QPU path.

        Shape ``[U, E, 2, 2]``; the last two axes are the ratio (0, 1) and
        the path (CPU, QPU).  QPU entries are computed for ineligible
        pairs too.
        """
        # One kernel call on [path, E + 1, U], users innermost so that every
        # ufunc runs long inner loops: column e < E is server e at ratio 0.
        # Column E is ratio 1, where nothing is offloaded, so its cost is the
        # same at every server and on both paths; it is read once (at server
        # 0, CPU path) and broadcast.
        columns = np.arange(self.num_servers + 1)
        ratio_one = columns == self.num_servers
        cost = self._cost_terms(
            np.where(ratio_one, 0, columns)[:, None],
            np.where(ratio_one, 1.0, 0.0)[:, None],
            _PATHS[:, None, None],
            self.user_index,
            None,
        )[0]
        costs = np.empty((self.num_users, self.num_servers, 2, 2))
        costs[:, :, 0] = cost[:, :-1].T
        costs[:, :, 1] = cost[0, -1][:, None, None]
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
        """The one check of a joint action: its servers, ratios and grants, read-only.

        Raises ``ValueError`` unless every field holds one entry per user,
        ratios lie in [0, 1], indicators are 0 or 1, servers are known, and
        the QPU goes only to ``candidates``, at most once per server.
        """
        servers, ratios, indicators = vars(action).values()
        if not servers.shape == ratios.shape == indicators.shape:
            raise ValueError("action fields must have equal length")
        if servers.shape != (self.num_users,):
            raise ValueError(f"expected {self.num_users} actions, got shape {servers.shape}")
        ratios = _frozen(ratios.astype(np.float64, copy=False))
        if not ((ratios >= 0.0) & (ratios <= 1.0)).all():  # NaN fails too
            raise ValueError("local_ratio entries must lie in [0, 1]")
        grants = _frozen(indicators == 1)
        if not (grants | (indicators == 0)).all():
            raise ValueError("quantum_indicator entries must be 0 or 1")
        self.check_servers(servers)  # before the cast, which would truncate 0.7 to 0
        servers = _frozen(servers.astype(np.int64, copy=False))
        infeasible = grants & ~self.candidates(servers, ratios)
        if infeasible.any():
            u = int(np.argmax(infeasible))
            raise ValueError(f"user {u} claims an infeasible QPU grant on server {servers[u]}")
        if (np.bincount(servers[grants], minlength=self.num_servers) > 1).any():
            raise ValueError("more than one QPU grant on a single server")
        return servers, ratios, grants
