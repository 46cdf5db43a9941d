"""Seeded workload and scenario generation.

Ray-tracing render jobs are the reference workload: a job over ``2**pb``
scene primitives costs ``3 * 2**pb`` CPU cycles per byte classically and
compiles to a fixed-width quantum search circuit.  Scenario generation
draws every field from its documented range using a splittable,
counter-based RNG scheme: each field of each entity has its own stream
derived from ``(seed, entity kind, entity index, field tag)``, so adding
users or servers never perturbs existing draws and a single field can be
pinned (for sweeps) without disturbing anything else.

A stream is ``default_rng(SeedSequence(seed, spawn_key=key))`` seeded
from numpy's documented ``SeedSequence`` hash.  ``gen_scenario`` runs
that hash once, vectorised over all of a scenario's keys, and hands each
row of seed words to numpy's own ``PCG64``; the scheme and every drawn
value are the same as building one ``SeedSequence`` per stream, and the
tests check the words and generator states against numpy itself.

Redrawn tasks come from one caller-owned generator of any kind instead:
``draw_tasks`` returns a fresh primitive exponent and data size per user as
two arrays, one vectorised numpy call each, and ``TASK_SHAPES`` maps each
exponent to the job's shape.  The environment feeds those columns to its
evaluator; a redrawn episode never becomes a ``Scenario``.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .costs import QuantumTaskSpec, ServerProfile, TaskSpec, UserProfile
from .device import CryostatConfig, QubitTech

SCHEMA_VERSION = 1

# Generation ranges (documented in the scenario format notes).
DATA_SIZE_RANGE = (160e6, 1600e6)  # bytes
PRIMITIVE_EXPONENTS = (3, 9)  # inclusive
CHANNEL_GAIN_RANGE = (4.0, 8.0)
TX_POWER_RANGE = (0.01e-3, 0.2e-3)  # W
LOCAL_CPU_CHOICES = (1e9, 2e9, 3e9)
EDGE_CPU_CHOICES = (10e9, 15e9, 20e9)
PHYSICAL_QUBIT_RANGE = (1000, 5000)  # inclusive
CONCAT_LEVELS = (1, 2, 3)
DEFAULT_WEIGHT_LATENCY = 0.5
DEFAULT_BANDWIDTH = 20e6
DEFAULT_NOISE_POWER = 1e-6
DEFAULT_CHIP_ENERGY = 1e-11
DEFAULT_ERROR_THRESHOLD = 2e-4
RAYS_PER_PRIMITIVE = 3
DEFAULT_COORD_BITS = 6

# Entity namespaces and field tags for the per-field RNG streams.
_USER, _SERVER = 1, 2
# Tag 2 is retired (it drew an unread frame count); tags are never reused.
_F_TASK, _F_PRIM, _F_GAIN, _F_TX, _F_CPU_LOCAL = 0, 1, 3, 4, 5
_F_CPU_EDGE, _F_SUB_PHYS, _F_SUB_LEVEL, _F_LEVEL = 6, 7, 8, 9

# Pinnable generation fields (used by parameter sweeps).
PIN_FIELDS = ("edge_cpu", "physical_qubits", "decoherence_time", "weight_latency")


# Constants of numpy's SeedSequence hash (O'Neill's seed_seq alternative).
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _Words(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands ``PCG64`` its precomputed four uint64 state words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _seed_words(seed) -> list[int]:
    """The seed's little-endian uint32 words, as ``SeedSequence`` splits it."""
    seed = operator.index(seed)  # TypeError for non-integers, as numpy
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` hash constants ``init * mult**i mod 2**32``."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


# Both work on Python ints and, elementwise, on uint32 arrays.
def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ result >> 16


def _field_rngs(seed: int, keys: np.ndarray) -> Iterator[np.random.Generator]:
    """``default_rng(SeedSequence(seed, spawn_key=k))`` for each row ``k`` of ``keys``.

    ``keys`` is an ``[N, 3]`` table of ``(entity, index, tag)`` entries,
    each below ``2**32``.  This is ``SeedSequence``'s entropy mix and
    ``generate_state(4, np.uint64)`` in numpy's order.  The seed words are
    the same for every stream, so they are mixed once; each key word is
    then mixed into ``[4, N]`` pool words at once.  numpy's ``PCG64``
    seeds from each stream's row of state words; generators are built as
    the iterator is read, so only the streams in use are held.
    """
    words = _seed_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    # one hashmix per pool word for each entropy word, in numpy's order
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * (len(words) + keys.shape[1]) + 1)

    pool = [_hashmix(w, consts[i], consts[i + 1]) for i, w in enumerate(words[:_POOL_SIZE])]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k], consts[k + 1]))
                k += 1
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts[k], consts[k + 1]))
            k += 1

    pool = np.array(pool, dtype=np.uint32)[:, None]
    consts = np.array(consts, dtype=np.uint32)[:, None]
    for column in keys.T.astype(np.uint32):
        window = consts[k:k + _POOL_SIZE + 1]
        pool = _mix(pool, _hashmix(column, window[:-1], window[1:]))
        k += _POOL_SIZE

    # generate_state(4, np.uint64): eight uint32 words cycled from the pool
    consts = np.array(_hash_consts(_INIT_B, _MULT_B, 9), dtype=np.uint32)[:, None]
    state = _hashmix(np.tile(pool, (2, 1)), consts[:-1], consts[1:])
    state = np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
    return (np.random.Generator(np.random.PCG64(_Words(row))) for row in state)


@dataclass(frozen=True)
class RayTracingParams:
    """Shape of one render job before compilation.

    ``primitive_exponent`` sets the scene size ``2**primitive_exponent``;
    ``coord_bits`` is the fixed-point width of one intersection
    coordinate.  Range limits of the generator are enforced at draw time,
    not here, so hand-built corner cases stay constructible.
    """

    primitive_exponent: int
    coord_bits: int = DEFAULT_COORD_BITS
    rays_per_primitive: int = RAYS_PER_PRIMITIVE

    def __post_init__(self):
        if self.primitive_exponent < 0 or self.coord_bits < 0:
            raise ValueError("primitive_exponent and coord_bits must be >= 0")
        if self.rays_per_primitive < 1:
            raise ValueError("rays_per_primitive must be >= 1")


@dataclass(frozen=True)
class ObservationScales:
    """Fixed per-field constants that map raw observation values into [0, 1]."""

    f_local: float = LOCAL_CPU_CHOICES[-1]
    data_size: float = DATA_SIZE_RANGE[1]
    cycles_per_byte: float = RAYS_PER_PRIMITIVE * 2 ** PRIMITIVE_EXPONENTS[1]
    logical_qubits: float = PRIMITIVE_EXPONENTS[1] + 2 * DEFAULT_COORD_BITS + 5
    logical_depth: float = 6460.0
    edge_cpu: float = EDGE_CPU_CHOICES[-1]
    logical_qubit_quota: float = PHYSICAL_QUBIT_RANGE[1] // 91
    concat_level: float = CONCAT_LEVELS[-1]
    tx_power: float = TX_POWER_RANGE[1]
    channel_gain: float = CHANNEL_GAIN_RANGE[1]


@dataclass(frozen=True)
class ScenarioUser:
    """One generated user: profile plus its classical and quantum task."""

    profile: UserProfile
    task: TaskSpec
    quantum_task: QuantumTaskSpec


@dataclass(frozen=True)
class Scenario:
    """A complete offloading instance: users, servers and device physics."""

    users: tuple[ScenarioUser, ...]
    servers: tuple[ServerProfile, ...]
    cryostat: CryostatConfig
    qubit_tech: QubitTech
    rng_seed: int
    chip_energy_per_cycle: float = DEFAULT_CHIP_ENERGY
    error_threshold: float = DEFAULT_ERROR_THRESHOLD
    normalization: ObservationScales = ObservationScales()

    def __post_init__(self):
        if not self.users or not self.servers:
            raise ValueError("scenario needs at least one user and one server")


def compile_quantum(params: RayTracingParams, task: TaskSpec) -> QuantumTaskSpec:
    """Quantum footprint of a render job.

    The search circuit needs ``pb + 2*cb + 5`` qubits (primitive register,
    two coordinate registers, bookkeeping) and its depth is the register
    preparation plus the optimal number of search iterations over the
    ``2**width`` joint states.
    """
    width = params.primitive_exponent + 2 * params.coord_bits + 5
    iterations = math.floor(math.pi / 4.0 * math.sqrt(2.0**width))
    return QuantumTaskSpec(
        data_size=task.data_size,
        logical_qubits=width,
        logical_depth=3 * params.primitive_exponent + iterations,
    )


def _uniform(rng: np.random.Generator, bounds: tuple[float, float], size=None):
    """``rng.uniform(*bounds, size)``: the same values and generator state, cheaper."""
    lo, hi = bounds
    return lo + (hi - lo) * rng.random(size)


def _choice(rng: np.random.Generator, choices: tuple):
    """``rng.choice(choices)``: the same value and generator state, cheaper."""
    return choices[rng.integers(len(choices))]


def _cycles_per_byte(params: RayTracingParams) -> float:
    return float(params.rays_per_primitive * 2**params.primitive_exponent)


def _task_shape(primitive_exponent: int) -> tuple[float, int, int]:
    """``(cycles_per_byte, logical_qubits, logical_depth)`` of a generated render job."""
    params = RayTracingParams(primitive_exponent=primitive_exponent)
    cycles_per_byte = _cycles_per_byte(params)
    qtask = compile_quantum(params, TaskSpec(DATA_SIZE_RANGE[0], cycles_per_byte))
    return cycles_per_byte, qtask.logical_qubits, qtask.logical_depth


# A generated job's shape depends on its primitive exponent alone: row ``pb``
# is ``(cycles_per_byte, logical_qubits, logical_depth)`` over ``2**pb``
# primitives, as float64 (every entry is an exact integer).
TASK_SHAPES = np.array([_task_shape(pb) for pb in range(PRIMITIVE_EXPONENTS[1] + 1)])


def _pin(pins: dict | None, name: str):
    return None if pins is None else pins.get(name)


def gen_scenario(
    num_users: int,
    num_servers: int,
    seed: int,
    *,
    pins: dict | None = None,
    noise_power: float = DEFAULT_NOISE_POWER,
    bandwidth: float = DEFAULT_BANDWIDTH,
    chip_energy_per_cycle: float = DEFAULT_CHIP_ENERGY,
    error_threshold: float = DEFAULT_ERROR_THRESHOLD,
    cryostat: CryostatConfig | None = None,
    qubit_tech: QubitTech | None = None,
) -> Scenario:
    """Generate a full scenario from ``(num_users, num_servers, seed)``.

    ``pins`` maps a field name from ``PIN_FIELDS`` to a fixed value; the
    pinned field replaces its draw while every other stream is untouched,
    which is what parameter sweeps rely on.
    """
    if num_users < 1 or num_servers < 1:
        raise ValueError("need at least one user and one server")
    if pins:
        unknown = set(pins) - set(PIN_FIELDS)
        if unknown:
            raise ValueError(f"unknown pinned fields: {sorted(unknown)}")

    # one stream per (user, field) in user_tags, then one per server
    user_tags = [_F_PRIM, _F_TASK, _F_GAIN, _F_CPU_LOCAL, _F_TX, _F_SUB_LEVEL]
    if _pin(pins, "edge_cpu") is None:
        user_tags.append(_F_CPU_EDGE)
    if _pin(pins, "physical_qubits") is None:
        user_tags.append(_F_SUB_PHYS)
    per_user = len(user_tags)
    n_user = num_users * per_user
    keys = np.empty((n_user + num_servers, 3), dtype=np.int64)
    keys[:n_user, 0] = _USER
    keys[:n_user, 1] = np.repeat(np.arange(num_users), per_user)
    keys[:n_user, 2] = np.tile(user_tags, num_users)
    keys[n_user:, 0] = _SERVER
    keys[n_user:, 1] = np.arange(num_servers)
    keys[n_user:, 2] = _F_LEVEL
    streams = _field_rngs(seed, keys)

    users = []
    for _ in range(num_users):
        # zip stops at the end of user_tags before reading another stream
        rng = dict(zip(user_tags, streams))
        prim = int(
            rng[_F_PRIM].integers(PRIMITIVE_EXPONENTS[0], PRIMITIVE_EXPONENTS[1] + 1)
        )
        gains = tuple(_uniform(rng[_F_GAIN], CHANNEL_GAIN_RANGE, num_servers).tolist())
        edge_cpu = _pin(pins, "edge_cpu")
        if edge_cpu is None:
            edge_cpu = _choice(rng[_F_CPU_EDGE], EDGE_CPU_CHOICES)
        sub_phys = _pin(pins, "physical_qubits")
        if sub_phys is None:
            sub_phys = int(
                rng[_F_SUB_PHYS].integers(
                    PHYSICAL_QUBIT_RANGE[0], PHYSICAL_QUBIT_RANGE[1] + 1
                )
            )
        sub_level = int(
            rng[_F_SUB_LEVEL].integers(CONCAT_LEVELS[0], CONCAT_LEVELS[-1] + 1)
        )
        weight_latency = _pin(pins, "weight_latency")
        if weight_latency is None:
            weight_latency = DEFAULT_WEIGHT_LATENCY

        profile = UserProfile(
            f_local=_choice(rng[_F_CPU_LOCAL], LOCAL_CPU_CHOICES),
            tx_power=_uniform(rng[_F_TX], TX_POWER_RANGE),
            weight_latency=float(weight_latency),
            weight_energy=1.0 - float(weight_latency),
            channel_gains=gains,
            edge_cpu=float(edge_cpu),
            logical_qubit_quota=int(sub_phys) // 91**sub_level,
        )
        size = _uniform(rng[_F_TASK], DATA_SIZE_RANGE)
        cycles_per_byte, width, depth = TASK_SHAPES[prim].tolist()
        users.append(ScenarioUser(
            profile=profile,
            task=TaskSpec(data_size=size, cycles_per_byte=cycles_per_byte),
            quantum_task=QuantumTaskSpec(
                data_size=size, logical_qubits=int(width), logical_depth=int(depth)
            ),
        ))

    servers = tuple(
        ServerProfile(
            noise_power=noise_power,
            bandwidth=bandwidth,
            concat_level=int(rng.integers(CONCAT_LEVELS[0], CONCAT_LEVELS[-1] + 1)),
        )
        for rng in streams
    )

    decoherence = _pin(pins, "decoherence_time")
    tech = qubit_tech if qubit_tech is not None else QubitTech()
    if decoherence is not None:
        tech = replace(tech, decoherence_time=float(decoherence))

    return Scenario(
        users=tuple(users),
        servers=servers,
        cryostat=cryostat if cryostat is not None else CryostatConfig(),
        qubit_tech=tech,
        rng_seed=seed,
        chip_energy_per_cycle=chip_energy_per_cycle,
        error_threshold=error_threshold,
    )


def draw_tasks(rng: np.random.Generator, num_users: int) -> tuple[np.ndarray, np.ndarray]:
    """Primitive exponents and data sizes of ``num_users`` fresh render jobs.

    Two vectorised draws from ``rng``, in this order:
    ``rng.integers(low, high + 1, size=num_users)`` over
    ``PRIMITIVE_EXPONENTS``, then ``num_users`` uniform data sizes over
    ``DATA_SIZE_RANGE``.  Any ``Generator`` works.
    """
    exponents = rng.integers(
        PRIMITIVE_EXPONENTS[0], PRIMITIVE_EXPONENTS[1] + 1, size=num_users
    )
    return exponents, _uniform(rng, DATA_SIZE_RANGE, num_users)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario (JSON-compatible, round-trip stable)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "rng_seed": scenario.rng_seed,
        "chip_energy_per_cycle": scenario.chip_energy_per_cycle,
        "error_threshold": scenario.error_threshold,
        "users": [
            {
                "profile": {
                    **asdict(entry.profile),
                    "channel_gains": list(entry.profile.channel_gains),
                },
                "task": asdict(entry.task),
                "quantum_task": asdict(entry.quantum_task),
            }
            for entry in scenario.users
        ],
        "servers": [asdict(s) for s in scenario.servers],
        "device": {
            "cryostat": asdict(scenario.cryostat),
            "qubit_tech": asdict(scenario.qubit_tech),
        },
        "normalization": asdict(scenario.normalization),
    }


def scenario_from_dict(doc: dict) -> Scenario:
    """Rebuild a scenario from its dict form, checking the schema version."""
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema_version {version!r}")
    users = tuple(
        ScenarioUser(
            profile=UserProfile(
                **{
                    **entry["profile"],
                    "channel_gains": tuple(entry["profile"]["channel_gains"]),
                }
            ),
            task=TaskSpec(**entry["task"]),
            quantum_task=QuantumTaskSpec(**entry["quantum_task"]),
        )
        for entry in doc["users"]
    )
    return Scenario(
        users=users,
        servers=tuple(ServerProfile(**s) for s in doc["servers"]),
        cryostat=CryostatConfig(**doc["device"]["cryostat"]),
        qubit_tech=QubitTech(**doc["device"]["qubit_tech"]),
        rng_seed=doc["rng_seed"],
        chip_energy_per_cycle=doc["chip_energy_per_cycle"],
        error_threshold=doc["error_threshold"],
        normalization=ObservationScales(**doc["normalization"]),
    )


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8"
    )


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
