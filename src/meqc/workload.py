"""Seeded workload and scenario generation.

Ray-tracing render jobs are the reference workload: a job over ``2**pb``
scene primitives costs ``3 * 2**pb`` CPU cycles per byte classically and
compiles to a fixed-width quantum search circuit.  Scenario generation
draws every field from its documented range using a splittable,
counter-based RNG scheme: each field of each entity has its own stream
derived from ``(seed, entity kind, entity index, field tag)``, so adding
users or servers never perturbs existing draws and a single field can be
pinned (for sweeps) without disturbing anything else.

A stream is ``default_rng(SeedSequence(seed, spawn_key=key))``.
``gen_scenario`` builds none: it replays numpy's ``SeedSequence`` hash,
``PCG64`` seeding and XSL-RR outputs in arrays over all of a scenario's
streams at once, then reads doubles and bounded integers (Lemire's
multiply-shift) from the outputs as ``Generator`` does.  The tests hold
every word, output and draw to numpy itself, so a numpy change to its
generators fails them rather than moving a scenario.  The draws depend
only on ``(num_users, num_servers, seed, drawn tags)``, so they are
memoised under that key (the last 16, read-only): a sweep regenerating
one seed for each pinned value replays its streams once, and every call
still builds and checks its own columns, scenario and servers.

The draws go straight into a scenario's ``UserColumns``, one array per
user field; a scenario's users take no other form.

Redrawn tasks come from one caller-owned generator of any kind instead:
``draw_tasks`` returns a fresh primitive exponent and data size per user as
two arrays, one vectorised numpy call each, and ``TASK_SHAPES`` maps each
exponent to the job's shape.  The environment feeds those columns to its
evaluator; a redrawn episode never becomes a ``Scenario``.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .costs import ScenarioEvaluator, ServerProfile
from .device import CONCAT_LEVELS, PHYS_PER_LOGICAL, CryostatConfig, QubitTech

SCHEMA_VERSION = 1

# Generation ranges (documented in the scenario format notes).
DATA_SIZE_RANGE = (160e6, 1600e6)  # bytes
PRIMITIVE_EXPONENTS = (3, 9)  # inclusive
CHANNEL_GAIN_RANGE = (4.0, 8.0)
TX_POWER_RANGE = (0.01e-3, 0.2e-3)  # W
LOCAL_CPU_CHOICES = (1e9, 2e9, 3e9)
EDGE_CPU_CHOICES = (10e9, 15e9, 20e9)
PHYSICAL_QUBIT_RANGE = (1000, 5000)  # inclusive
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

# numpy's PCG64: a 128-bit LCG with this multiplier and XSL-RR output
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LOW32 = np.uint64(_MASK32)


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


def _state_words(seed: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=k).generate_state(4, np.uint64)`` of each row ``k``.

    ``keys`` is an ``[N, 3]`` table of ``(entity, index, tag)`` entries,
    each below ``2**32``; the result is ``[N, 4]`` uint64.  This is
    ``SeedSequence``'s entropy mix in numpy's order.  The seed words are
    the same for every stream, so they are mixed once; each key word is
    then mixed into ``[4, N]`` pool words at once.
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
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


@functools.lru_cache(maxsize=8)
def _pcg64_jumps(count: int) -> np.ndarray:
    """``M**(s+1)`` and ``1 + M + ... + M**(s+1)`` mod ``2**128`` for ``s < count``.

    Rows are the powers' high words, the sums' high words, then the two low
    words, ``[4, count]`` uint64; read-only, as every caller shares it.
    """
    jumps, power, total = [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(count):
        jumps.append([power >> 64, total >> 64, power % 2**64, total % 2**64])
        power = power * _PCG_MULT % 2**128
        total = (total + power) % 2**128
    table = np.array(jumps, dtype=np.uint64).T.copy()
    table.flags.writeable = False
    return table


def _pcg64_raw(words: np.ndarray, rows: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Output ``steps[i] >= 1`` of numpy's ``PCG64`` seeded from ``words[rows[i]]``.

    A row is ``(initstate hi, lo, initseq hi, lo)``; ``PCG64`` seeds
    ``inc = initseq << 1 | 1``, ``state = (inc + initstate) * M + inc`` and
    steps ``state = state * M + inc`` before each XSL-RR output, so output
    ``s`` reads ``initstate * M**(s+1) + inc * (1 + M + ... + M**(s+1))``
    mod ``2**128``.  Both products run on stacked (hi, lo) uint64 arrays,
    which wrap silently (numpy scalar products would warn).
    """
    bh, bl = _pcg64_jumps(int(steps.max()) + 1).take(steps, axis=1).reshape(2, 2, -1)
    w = words.T.take(rows, axis=1)  # a contiguous copy, ours to write
    w[2] = w[2] << 1 | w[3] >> 63
    w[3] = w[3] << 1 | 1
    ah, al = w[0::2], w[1::2]  # (initstate, inc)
    a1, a0, b1, b0 = al >> 32, al & _LOW32, bl >> 32, bl & _LOW32
    t = a1 * b0 + (a0 * b0 >> 32)
    u = (t & _LOW32) + a0 * b1
    hi = a1 * b1 + (t >> 32) + (u >> 32) + ah * bl + al * bh
    lo = al * bl
    lo_sum = lo[0] + lo[1]
    hi = hi[0] + hi[1] + (lo_sum < lo[0])
    x, rot = hi ^ lo_sum, hi >> 58  # XSL-RR
    return x >> rot | x << (-rot & 63)


def _uniform_raw(raw: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """``Generator.uniform(*bounds)`` of each output: ``random()`` is its top 53 bits."""
    lo, hi = bounds
    return lo + (hi - lo) * ((raw >> 11) * 2.0**-53)


def _integers(seed: int, keys: np.ndarray, raw: np.ndarray, low, high) -> np.ndarray:
    """``integers(low, high + 1)`` of the fresh streams ``keys`` of ``seed``,
    from their first outputs ``raw``.

    numpy's Lemire multiply-shift over ``n = high - low + 1 < 2**32``
    values is ``low + (low32(raw) * n >> 32)``, rejected when
    ``low32(raw) * n mod 2**32 < 2**32 mod n`` (one in 2.4 million over
    ``PHYSICAL_QUBIT_RANGE``); numpy's own generator redraws those streams.
    """
    n = high - low + 1
    m = (raw & _LOW32).astype(np.int64) * n
    values = low + (m >> 32)
    for i in np.flatnonzero((m & _MASK32) < (1 << 32) % n).tolist():
        stream = np.random.SeedSequence(seed, spawn_key=keys[i].tolist())
        values[i] = np.random.Generator(np.random.PCG64(stream)).integers(low[i], high[i] + 1)
    return values


@dataclass(frozen=True)
class ObservationScales:
    """Fixed per-field constants that map raw observation values into [0, 1]."""

    f_local: float = LOCAL_CPU_CHOICES[-1]
    data_size: float = DATA_SIZE_RANGE[1]
    cycles_per_byte: float = RAYS_PER_PRIMITIVE * 2 ** PRIMITIVE_EXPONENTS[1]
    logical_qubits: float = PRIMITIVE_EXPONENTS[1] + 2 * DEFAULT_COORD_BITS + 5
    logical_depth: float = 6460.0
    edge_cpu: float = EDGE_CPU_CHOICES[-1]
    logical_qubit_quota: float = PHYSICAL_QUBIT_RANGE[1] // PHYS_PER_LOGICAL
    concat_level: float = CONCAT_LEVELS[-1]
    tx_power: float = TX_POWER_RANGE[1]
    channel_gain: float = CHANNEL_GAIN_RANGE[1]


@dataclass(frozen=True, eq=False)
class UserColumns:
    """Every user of a scenario as one read-only column per field.

    The fields are a user's profile, classical task and quantum task, in
    the order of a scenario file's records (``_USER_KEYS``).  Each is a
    ``[U]`` array, except the ``[U, E]`` ``channel_gains``.  Construction
    checks every per-user rule on whole columns; no other code states those
    rules.  Equality and hashing compare values: an int column equals the
    equal float one.
    """

    f_local: np.ndarray
    tx_power: np.ndarray
    weight_latency: np.ndarray
    weight_energy: np.ndarray
    channel_gains: np.ndarray
    edge_cpu: np.ndarray
    logical_qubit_quota: np.ndarray
    data_size: np.ndarray
    cycles_per_byte: np.ndarray
    quantum_data_size: np.ndarray
    logical_qubits: np.ndarray
    logical_depth: np.ndarray

    def __post_init__(self):
        # each rule states what must hold, so NaN fails it; the last ones refuse
        # ±inf in float columns (an object column holds exact Python-int quotas)
        weights = np.concatenate([self.weight_latency, self.weight_energy])
        rules = (
            (self.f_local > 0.0, "f_local must be > 0"),
            (self.tx_power > 0.0, "tx_power must be > 0"),
            ((0.0 <= weights) & (weights <= 1.0), "weights must lie in [0, 1]"),
            (self.channel_gains > 0.0, "channel gains must be > 0"),
            (self.edge_cpu > 0.0, "edge_cpu must be > 0"),
            (self.logical_qubit_quota >= 0, "logical_qubit_quota must be >= 0"),
            ((self.data_size > 0.0) & (self.cycles_per_byte > 0.0),
             "data_size and cycles_per_byte must be > 0"),
            (self.quantum_data_size > 0.0, "data_size must be > 0"),
            ((self.logical_qubits > 0) & (self.logical_depth > 0),
             "logical_qubits and logical_depth must be > 0"),
            *((np.isfinite(column), f"{name} must be finite")
              for name, column in vars(self).items() if column.dtype.kind == "f"),
        )
        for holds, message in rules:
            if not holds.all():
                raise ValueError(message)
        for column in vars(self).values():
            column.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, UserColumns):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __hash__(self):
        # Python scalars hash an int as the equal float, as ``__eq__`` compares
        return hash(tuple(tuple(column.ravel().tolist()) for column in vars(self).values()))

    def __reduce__(self):
        # copies and pickles rebuild through the constructor, which checks and freezes
        return UserColumns, tuple(vars(self).values())


@dataclass(frozen=True)
class Scenario:
    """A complete offloading instance: users, servers and device physics.

    ``columns`` holds the users.  Equality and hashing compare every field
    by value, the columns included.
    """

    columns: UserColumns
    servers: tuple[ServerProfile, ...]
    cryostat: CryostatConfig
    qubit_tech: QubitTech
    rng_seed: int
    chip_energy_per_cycle: float = DEFAULT_CHIP_ENERGY
    error_threshold: float = DEFAULT_ERROR_THRESHOLD
    normalization: ObservationScales = ObservationScales()

    def __post_init__(self):
        """At least one user and one server; ``[U]`` columns and ``[U, E]`` gains."""
        num_users = len(self.columns.f_local)
        if not num_users or not self.servers:
            raise ValueError("scenario needs at least one user and one server")
        for name, column in vars(self.columns).items():
            shape = (num_users, len(self.servers)) if name == "channel_gains" else (num_users,)
            if column.shape != shape:
                raise ValueError(f"{name} has shape {column.shape}, expected {shape}")

    @functools.cached_property
    def evaluator(self) -> ScenarioEvaluator:
        """This scenario's ``ScenarioEvaluator``, built on the first read and kept.

        The scenario is immutable, so its tables are too: every solver and
        environment of it reads this one evaluator, whose tables live as
        long as the scenario.  A build that raises keeps nothing, so it
        raises again on the next read.  ``dataclasses.replace`` makes a new
        scenario, with a new evaluator.
        """
        return ScenarioEvaluator(self)

    def __reduce__(self):
        # copies and pickles rebuild from the fields, without the cached tables
        return Scenario, tuple(getattr(self, f.name) for f in fields(self))


def _uniform(rng: np.random.Generator, bounds: tuple[float, float], size=None):
    """``rng.uniform(*bounds, size)``: the same values and generator state, cheaper."""
    lo, hi = bounds
    return lo + (hi - lo) * rng.random(size)


def _job_shape(primitive_exponent: int) -> tuple[int, int, int]:
    """``(cycles_per_byte, logical_qubits, logical_depth)`` of a render job over
    ``2**pb`` primitives.

    Classically it costs ``RAYS_PER_PRIMITIVE * 2**pb`` cycles per byte.  Its
    quantum search circuit needs ``pb + 2*cb + 5`` qubits (primitive
    register, two coordinate registers of ``cb = DEFAULT_COORD_BITS`` bits,
    bookkeeping) and its depth is the register preparation plus the optimal
    number of search iterations over the ``2**width`` joint states.
    """
    width = primitive_exponent + 2 * DEFAULT_COORD_BITS + 5
    iterations = math.floor(math.pi / 4.0 * math.sqrt(2.0**width))
    return RAYS_PER_PRIMITIVE * 2**primitive_exponent, width, 3 * primitive_exponent + iterations


# A generated job's shape depends on its primitive exponent alone: row ``pb``
# is ``_job_shape(pb)`` as float64 (every entry is an exact integer).
TASK_SHAPES = np.array([_job_shape(pb) for pb in range(PRIMITIVE_EXPONENTS[1] + 1)], dtype=float)


# (low, high) of each bounded draw; a choice draws its index
_BOUNDS = {
    _F_PRIM: PRIMITIVE_EXPONENTS,
    _F_CPU_LOCAL: (0, len(LOCAL_CPU_CHOICES) - 1),
    _F_SUB_LEVEL: (CONCAT_LEVELS[0], CONCAT_LEVELS[-1]),
    _F_CPU_EDGE: (0, len(EDGE_CPU_CHOICES) - 1),
    _F_SUB_PHYS: PHYSICAL_QUBIT_RANGE,
    _F_LEVEL: (CONCAT_LEVELS[0], CONCAT_LEVELS[-1]),
}


@functools.lru_cache(maxsize=16)
def _draw_streams(num_users: int, num_servers: int, seed: int, tags: tuple[int, ...]):
    """Every draw of a scenario's streams: ``(gains, sizes, tx_power, ints, levels)``.

    ``tags`` are the users' bounded draws, in order; ``ints`` is
    ``[len(tags), U]``, row i the draws of ``tags[i]``, and ``levels`` the
    servers' concatenation levels.  The draws are a pure function of the
    arguments, so they are memoised (the last 16 keys) and returned
    read-only: a sweep that regenerates one seed for each pinned value
    replays its streams once.
    """
    tags = (_F_GAIN, _F_TASK, _F_TX, *tags)
    # one stream per (field, user), field by field, then one per server
    n_user = num_users * len(tags)
    keys = np.empty((n_user + num_servers, 3), dtype=np.int64)
    keys[:n_user, 0] = _USER
    keys[:n_user, 1] = np.arange(n_user) % num_users
    keys[:n_user, 2] = np.repeat(tags, num_users)
    keys[n_user:] = _SERVER, 0, _F_LEVEL
    keys[n_user:, 1] = np.arange(num_servers)

    # num_servers outputs of each gain stream, then the first of every other
    n_gain, n_float = num_users * num_servers, (num_servers + 2) * num_users
    gain_rows, gain_steps = np.divmod(np.arange(n_gain), num_servers)
    rows = np.concatenate([gain_rows, np.arange(num_users, len(keys))])
    steps = np.concatenate([gain_steps + 1, np.ones(len(keys) - num_users, dtype=np.int64)])
    raw = _pcg64_raw(_state_words(seed, keys), rows, steps)

    bounds = np.array([_BOUNDS[tag] for tag in (*tags[3:], _F_LEVEL)]).T
    low, high = np.repeat(bounds, [num_users] * (len(tags) - 3) + [num_servers], axis=1)
    ints = _integers(seed, keys[3 * num_users:], raw[n_float:], low, high)
    draws = (
        _uniform_raw(raw[:n_gain], CHANNEL_GAIN_RANGE).reshape(num_users, num_servers),
        _uniform_raw(raw[n_gain:n_gain + num_users], DATA_SIZE_RANGE),
        _uniform_raw(raw[n_gain + num_users:n_float], TX_POWER_RANGE),
        ints[:-num_servers].reshape(-1, num_users),
        ints[-num_servers:],
    )
    for array in draws:
        array.flags.writeable = False
    return draws


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
    pins = {name: value for name, value in (pins or {}).items() if value is not None}
    edge_cpu, sub_phys = pins.get("edge_cpu"), pins.get("physical_qubits")
    weight_latency = float(pins.get("weight_latency", DEFAULT_WEIGHT_LATENCY))

    # each user's bounded draws; a pinned field draws nothing
    tags = (_F_PRIM, _F_CPU_LOCAL, _F_SUB_LEVEL,
            *((_F_CPU_EDGE,) if edge_cpu is None else ()),
            *((_F_SUB_PHYS,) if sub_phys is None else ()))
    # int keys, so that seed 1.0 raises rather than hits seed 1's entry
    gains, sizes, tx_power, ints, server_levels = _draw_streams(
        *map(operator.index, (num_users, num_servers, seed)), tags)
    draws = dict(zip(tags, ints))
    levels = draws[_F_SUB_LEVEL]
    if sub_phys is None:
        quota = draws[_F_SUB_PHYS] // PHYS_PER_LOGICAL**levels
    else:  # a pinned allotment may exceed int64: keep its quotas Python ints
        quota = np.array([int(sub_phys) // PHYS_PER_LOGICAL**k for k in CONCAT_LEVELS])[levels - 1]
    cycles_per_byte, width, depth = TASK_SHAPES[draws[_F_PRIM]].T

    columns = UserColumns(
        f_local=np.array(LOCAL_CPU_CHOICES)[draws[_F_CPU_LOCAL]],
        tx_power=tx_power,
        weight_latency=np.full(num_users, weight_latency),
        weight_energy=np.full(num_users, 1.0 - weight_latency),
        channel_gains=gains,
        edge_cpu=(np.full(num_users, float(edge_cpu)) if edge_cpu is not None
                  else np.array(EDGE_CPU_CHOICES)[draws[_F_CPU_EDGE]]),
        logical_qubit_quota=quota,
        data_size=sizes,
        cycles_per_byte=cycles_per_byte,
        quantum_data_size=sizes,
        logical_qubits=width.astype(np.int64),
        logical_depth=depth.astype(np.int64),
    )
    # one checked, frozen profile per distinct level, shared by its servers
    server_levels = server_levels.tolist()
    profiles = {
        level: ServerProfile(noise_power=noise_power, bandwidth=bandwidth, concat_level=level)
        for level in set(server_levels)
    }
    servers = tuple(profiles[level] for level in server_levels)

    decoherence = pins.get("decoherence_time")
    tech = qubit_tech if qubit_tech is not None else QubitTech()
    if decoherence is not None:
        tech = replace(tech, decoherence_time=float(decoherence))

    return Scenario(
        columns,
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


# A user's record in a scenario file: its parts and their keys, which are the
# ``UserColumns`` fields in order (the quantum task's ``data_size`` is
# ``quantum_data_size``).
_USER_KEYS = {
    "profile": ("f_local", "tx_power", "weight_latency", "weight_energy", "channel_gains",
                "edge_cpu", "logical_qubit_quota"),
    "task": ("data_size", "cycles_per_byte"),
    "quantum_task": ("data_size", "logical_qubits", "logical_depth"),
}
_COUNT_KEYS = ("logical_qubit_quota", "logical_qubits", "logical_depth")


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict form of a scenario (JSON-compatible, round-trip stable).

    A user's values are its columns' Python scalars: a file's ``1000`` is
    written back as ``1000`` in an int column and as ``1000.0`` in a float one.
    """
    users = []
    for row in zip(*(column.tolist() for column in vars(scenario.columns).values())):
        values = iter(row)
        users.append({part: {key: next(values) for key in keys}
                      for part, keys in _USER_KEYS.items()})
    return {
        "schema_version": SCHEMA_VERSION,
        "rng_seed": scenario.rng_seed,
        "chip_energy_per_cycle": scenario.chip_energy_per_cycle,
        "error_threshold": scenario.error_threshold,
        "users": users,
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
    servers = tuple(ServerProfile(**s) for s in doc["servers"])
    records = doc["users"]
    for u, record in enumerate(records):
        for part, keys in _USER_KEYS.items():
            if set(record.get(part, ())) != set(keys):
                raise ValueError(f"user {u} {part} needs exactly the keys {', '.join(keys)}")
            for key in keys:
                values = record[part][key]
                if key != "channel_gains":
                    values = [values]
                elif not isinstance(values, list):
                    raise ValueError(f"user {u} {part} {key} must be a list, got {values!r}")
                for value in values:
                    # a string or a bool is not a number, and a count is a whole one
                    if isinstance(value, bool) or not isinstance(value, numbers.Real):
                        raise ValueError(f"user {u} {part} {key} must be a number, got {value!r}")
                    if key in _COUNT_KEYS and not (
                            isinstance(value, numbers.Integral) or float(value).is_integer()):
                        raise ValueError(f"user {u} {part} {key} must be a whole number, "
                                         f"got {value!r}")
        gains = record["profile"]["channel_gains"]
        if len(gains) != len(servers):
            raise ValueError(f"user {u} has {len(gains)} channel gains for {len(servers)} servers")
    columns = UserColumns(*(
        np.array([record[part][key] for record in records])
        for part, keys in _USER_KEYS.items() for key in keys
    ))
    return Scenario(
        columns,
        servers=servers,
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
