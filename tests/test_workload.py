"""Workload generation: compilation arithmetic, range discipline and the
stability contract of the counter-based draw scheme."""

import dataclasses
import json
import math

import numpy as np
import pytest

from meqc.costs import ServerProfile, _log2_table
from meqc.device import CryostatConfig, QubitTech
from meqc.env import MeqcEnv
from meqc.workload import (
    CHANNEL_GAIN_RANGE,
    CONCAT_LEVELS,
    DATA_SIZE_RANGE,
    DEFAULT_BANDWIDTH,
    DEFAULT_NOISE_POWER,
    DEFAULT_WEIGHT_LATENCY,
    EDGE_CPU_CHOICES,
    LOCAL_CPU_CHOICES,
    PHYSICAL_QUBIT_RANGE,
    PIN_FIELDS,
    PRIMITIVE_EXPONENTS,
    TASK_SHAPES,
    Scenario,
    TX_POWER_RANGE,
    _F_CPU_EDGE,
    _F_CPU_LOCAL,
    _F_GAIN,
    _F_LEVEL,
    _F_PRIM,
    _F_SUB_LEVEL,
    _F_SUB_PHYS,
    _F_TASK,
    _F_TX,
    _SERVER,
    _USER,
    _draw_streams,
    _integers,
    _pcg64_raw,
    _state_words,
    _uniform,
    _uniform_raw,
    draw_tasks,
    gen_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from cost_spec import QuantumTaskSpec, TaskSpec, UserProfile, records_of, user_columns


def reference_job(pb: int, data_size: float) -> tuple[TaskSpec, QuantumTaskSpec]:
    """A render job over ``2**pb`` primitives, compiled by hand.

    It costs ``3 * 2**pb`` cycles per byte.  Its search circuit has a
    ``pb``-qubit primitive register, two 6-bit coordinate registers and 5
    bookkeeping qubits; its depth is ``3 * pb`` preparation steps plus the
    optimal number of search iterations over the ``2**width`` joint states.
    """
    width = pb + 2 * 6 + 5
    depth = 3 * pb + math.floor(math.pi / 4 * math.sqrt(2**width))
    return TaskSpec(data_size, float(3 * 2**pb)), QuantumTaskSpec(data_size, width, depth)


class TestCompileQuantum:
    """``TASK_SHAPES`` row ``pb`` is the compiled shape of a job over ``2**pb`` primitives."""

    def test_reference_small_job(self):
        assert TASK_SHAPES[3].tolist() == [24.0, 20.0, 813.0]

    def test_reference_large_job(self):
        assert TASK_SHAPES[9].tolist() == [1536.0, 26.0, 6460.0]

    def test_degenerate_job(self):
        # a single primitive: 17 qubits, no preparation steps, 284 search iterations
        assert TASK_SHAPES[0].tolist() == [3.0, 17.0, math.floor(math.pi / 4 * math.sqrt(2**17))]
        assert TASK_SHAPES[0, 2] == 284

    def test_qubit_set_over_generator_range(self):
        assert set(TASK_SHAPES[3:10, 1].tolist()) == set(range(20, 27))

    def test_every_row_matches_the_hand_compilation(self):
        assert TASK_SHAPES.dtype == np.float64
        assert len(TASK_SHAPES) == PRIMITIVE_EXPONENTS[1] + 1
        for pb, row in enumerate(TASK_SHAPES.tolist()):
            task, qtask = reference_job(pb, 1e8)
            assert row == [task.cycles_per_byte, qtask.logical_qubits, qtask.logical_depth]

    def test_data_size_carried_over(self):
        columns = gen_scenario(20, 2, seed=4).columns
        assert columns.quantum_data_size.tobytes() == columns.data_size.tobytes()


def gen_task(pb: int, rng: np.random.Generator) -> TaskSpec:
    """Reference draw of one classical task for a render job over ``2**pb``
    primitives, as ``gen_scenario`` draws each user's data size and cycles per byte."""
    return reference_job(pb, _uniform(rng, DATA_SIZE_RANGE))[0]


class TestGenTask:
    @pytest.mark.parametrize("pb,cycles", [(3, 24.0), (9, 1536.0)])
    def test_cycles_follow_primitive_count(self, pb, cycles):
        task = gen_task(pb, np.random.default_rng(0))
        assert task.cycles_per_byte == cycles == TASK_SHAPES[pb, 0]

    def test_seed_determinism(self):
        a = gen_task(5, np.random.default_rng(42))
        b = gen_task(5, np.random.default_rng(42))
        assert a == b

    def test_size_range(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            task = gen_task(4, rng)
            assert DATA_SIZE_RANGE[0] <= task.data_size <= DATA_SIZE_RANGE[1]


def field_rng(seed, *key):
    """Reference stream: one numpy ``SeedSequence`` per (entity, field) slot."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5)


def stream_keys() -> np.ndarray:
    """Structured keys around the real ones, then random full-range keys."""
    grid = [
        (entity, index, tag)
        for entity in (1, 2)
        for index in (0, 1, 7, 99, 10**6, 2**31, 2**32 - 1)
        for tag in range(10)
    ]
    random = np.random.default_rng(0).integers(0, 2**32, size=(160, 3))
    return np.concatenate([np.array(grid), random])


def replayed_outputs(seed, keys, count):
    """``[N, count]`` first outputs of each key's stream, from the array replay."""
    n = len(keys)
    rows = np.repeat(np.arange(n), count)
    steps = np.tile(np.arange(1, count + 1), n)
    return _pcg64_raw(_state_words(seed, keys), rows, steps).reshape(n, count)


# every bounded range gen_scenario draws: a choice draws its index
BOUNDED_RANGES = (
    PRIMITIVE_EXPONENTS,
    (0, len(LOCAL_CPU_CHOICES) - 1),
    (CONCAT_LEVELS[0], CONCAT_LEVELS[-1]),
    PHYSICAL_QUBIT_RANGE,
)


class TestFieldStreams:
    """The array replay of ``SeedSequence`` and ``PCG64`` is numpy's, draw for draw."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_words_and_states_match_numpy(self, seed):
        keys = stream_keys()
        words = _state_words(seed, keys)
        assert words.shape == (len(keys), 4) and words.dtype == np.uint64
        for key, row in zip(keys.tolist(), words):
            want = np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_outputs_and_draws_match_numpy(self, seed):
        keys = stream_keys()
        raw = replayed_outputs(seed, keys, 5)
        unit = _uniform_raw(raw, (0.0, 1.0))
        gains = _uniform_raw(raw, CHANNEL_GAIN_RANGE)
        draws = [
            _integers(seed, keys, raw[:, 0], np.full(len(keys), low), np.full(len(keys), high))
            for low, high in BOUNDED_RANGES
        ]
        for i, key in enumerate(keys.tolist()):
            assert np.array_equal(field_rng(seed, *key).bit_generator.random_raw(5), raw[i])
            assert field_rng(seed, *key).random(5).tobytes() == unit[i].tobytes()
            want = field_rng(seed, *key).uniform(*CHANNEL_GAIN_RANGE, 5)
            assert want.tobytes() == gains[i].tobytes()
            for (low, high), drawn in zip(BOUNDED_RANGES, draws):
                assert drawn[i] == field_rng(seed, *key).integers(low, high + 1)

    def test_jumps_past_one_step(self):
        """Outputs far along a stream, as many servers draw from each gain stream."""
        keys = stream_keys()[::40]
        raw = replayed_outputs(7, keys, 300)
        for key, row in zip(keys.tolist(), raw):
            assert np.array_equal(field_rng(7, *key).bit_generator.random_raw(300), row)

    def test_rejected_draws_match_numpy(self, monkeypatch):
        """numpy rejects these two first draws over ``PHYSICAL_QUBIT_RANGE``
        and retries; only they build a generator."""
        keys = np.array([(_USER, 921540, _F_SUB_PHYS), (_USER, 1995455, _F_SUB_PHYS)])
        raw = replayed_outputs(0, keys, 1)[:, 0]
        n = PHYSICAL_QUBIT_RANGE[1] - PHYSICAL_QUBIT_RANGE[0] + 1
        low_words = (raw & 0xFFFFFFFF).astype(np.int64)
        assert ((low_words * n) % 2**32 < 2**32 % n).all()
        assert (PHYSICAL_QUBIT_RANGE[0] + (low_words * n >> 32)).tolist() == [1989, 3826]

        built = count_pcg64(monkeypatch)
        drawn = _integers(0, keys, raw, *(np.full(2, b) for b in PHYSICAL_QUBIT_RANGE))
        assert len(built) == 2
        want = [field_rng(0, *key).integers(PHYSICAL_QUBIT_RANGE[0], PHYSICAL_QUBIT_RANGE[1] + 1)
                for key in keys.tolist()]
        assert drawn.tolist() == want == [4638, 2603]

    @pytest.mark.parametrize("shape", [(100, 20), (10, 10)])
    def test_gen_scenario_builds_no_generator(self, monkeypatch, shape):
        _draw_streams.cache_clear()  # a memo hit would replay nothing
        built = count_pcg64(monkeypatch)
        gen_scenario(*shape, seed=0)
        assert built == []

    def test_bad_seeds_fail_like_numpy(self):
        with pytest.raises(ValueError):
            gen_scenario(2, 2, seed=-1)
        with pytest.raises(TypeError):
            gen_scenario(2, 2, seed=1.5)

    def test_numpy_integer_seed_gives_same_scenario(self):
        assert gen_scenario(4, 3, seed=np.int64(7)) == gen_scenario(4, 3, seed=7)


def count_pcg64(monkeypatch) -> list:
    """Record every ``np.random.PCG64`` built from here on."""
    built, real = [], np.random.PCG64

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counting)
    return built


def reference_gen_scenario(num_users, num_servers, seed, pins=None):
    """The per-stream loop: one ``default_rng(SeedSequence(seed, spawn_key=key))``
    per (entity, index, field), drawn with numpy's own calls."""
    pins = pins or {}
    weight_latency = float(pins.get("weight_latency", DEFAULT_WEIGHT_LATENCY))
    users = []
    for u in range(num_users):
        def rng(tag):
            return field_rng(seed, _USER, u, tag)

        prim = int(rng(_F_PRIM).integers(PRIMITIVE_EXPONENTS[0], PRIMITIVE_EXPONENTS[1] + 1))
        gains = tuple(rng(_F_GAIN).uniform(*CHANNEL_GAIN_RANGE, num_servers).tolist())
        edge_cpu = pins.get("edge_cpu")
        if edge_cpu is None:
            edge_cpu = rng(_F_CPU_EDGE).choice(EDGE_CPU_CHOICES)
        sub_phys = pins.get("physical_qubits")
        if sub_phys is None:
            sub_phys = int(rng(_F_SUB_PHYS).integers(
                PHYSICAL_QUBIT_RANGE[0], PHYSICAL_QUBIT_RANGE[1] + 1))
        sub_level = int(rng(_F_SUB_LEVEL).integers(CONCAT_LEVELS[0], CONCAT_LEVELS[-1] + 1))
        profile = UserProfile(
            f_local=float(rng(_F_CPU_LOCAL).choice(LOCAL_CPU_CHOICES)),
            tx_power=rng(_F_TX).uniform(*TX_POWER_RANGE),
            weight_latency=weight_latency,
            weight_energy=1.0 - weight_latency,
            channel_gains=gains,
            edge_cpu=float(edge_cpu),
            logical_qubit_quota=sub_phys // 91**sub_level,
        )
        users.append((profile, *reference_job(prim, rng(_F_TASK).uniform(*DATA_SIZE_RANGE))))
    servers = tuple(
        ServerProfile(
            noise_power=DEFAULT_NOISE_POWER,
            bandwidth=DEFAULT_BANDWIDTH,
            concat_level=int(field_rng(seed, _SERVER, e, _F_LEVEL).integers(
                CONCAT_LEVELS[0], CONCAT_LEVELS[-1] + 1)),
        )
        for e in range(num_servers)
    )
    tech = QubitTech()
    if "decoherence_time" in pins:
        tech = dataclasses.replace(tech, decoherence_time=float(pins["decoherence_time"]))
    return Scenario(user_columns(users), servers=servers, cryostat=CryostatConfig(),
                    qubit_tech=tech, rng_seed=seed)


REFERENCE_PINS = (
    None,
    {"edge_cpu": 12.5e9},
    {"physical_qubits": 4000, "weight_latency": 0.3},
    {"decoherence_time": 5e-3},
)


def assert_equals_reference(num_users, num_servers, seed, pins):
    ours = gen_scenario(num_users, num_servers, seed, pins=pins)
    theirs = reference_gen_scenario(num_users, num_servers, seed, pins)
    assert ours == theirs
    assert repr(ours) == repr(theirs)  # the same types, not only equal values


class TestEqualsReferenceLoop:
    @pytest.mark.parametrize(
        "pins", REFERENCE_PINS, ids=["none", "edge", "phys_weight", "decoherence"]
    )
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (7, 4), (10, 10), (100, 20)])
    def test_stream_seeds(self, shape, pins):
        for seed in STREAM_SEEDS:
            assert_equals_reference(*shape, seed, pins)

    def test_random_seeds_and_shapes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @hypothesis.given(
            seed=st.integers(0, 2**130),
            num_users=st.integers(1, 20),
            num_servers=st.integers(1, 20),
            pins=st.sampled_from(REFERENCE_PINS),
        )
        def check(seed, num_users, num_servers, pins):
            assert_equals_reference(num_users, num_servers, seed, pins)

        check()


class TestGenScenario:
    def test_shape(self):
        scenario = gen_scenario(10, 10, seed=0)
        assert len(scenario.columns.f_local) == 10
        assert len(scenario.servers) == 10
        assert scenario.rng_seed == 0

    def test_degenerate_pair(self):
        scenario = gen_scenario(1, 1, seed=0)
        assert len(scenario.columns.f_local) == 1
        assert len(scenario.servers) == 1

    def test_all_fields_within_ranges(self):
        # ~1e4 drawn fields across seeds
        for seed in range(150):
            scenario = gen_scenario(5, 4, seed=seed)
            for p, task, qtask in records_of(scenario):
                assert p.f_local in LOCAL_CPU_CHOICES
                assert p.edge_cpu in EDGE_CPU_CHOICES
                assert TX_POWER_RANGE[0] <= p.tx_power <= TX_POWER_RANGE[1]
                assert all(
                    CHANNEL_GAIN_RANGE[0] <= g <= CHANNEL_GAIN_RANGE[1]
                    for g in p.channel_gains
                )
                assert len(p.channel_gains) == 4
                assert 0 <= p.logical_qubit_quota <= PHYSICAL_QUBIT_RANGE[1] // 91
                assert p.weight_latency == 0.5 and p.weight_energy == 0.5
                assert DATA_SIZE_RANGE[0] <= task.data_size <= DATA_SIZE_RANGE[1]
                assert task.cycles_per_byte in {3 * 2**pb for pb in range(3, 10)}
                assert 20 <= qtask.logical_qubits <= 26
            for server in scenario.servers:
                assert server.concat_level in (1, 2, 3)

    def test_determinism_and_seed_sensitivity(self):
        assert gen_scenario(3, 3, seed=7) == gen_scenario(3, 3, seed=7)
        a = gen_scenario(3, 3, seed=7)
        b = gen_scenario(3, 3, seed=8)
        assert a.columns.channel_gains[0].tolist() != b.columns.channel_gains[0].tolist()

    def test_adding_users_keeps_existing_draws(self):
        small = gen_scenario(2, 3, seed=5)
        large = gen_scenario(4, 3, seed=5)
        assert records_of(large)[:2] == records_of(small)
        assert large.servers == small.servers

    def test_adding_servers_keeps_user_prefix_draws(self):
        small = gen_scenario(2, 2, seed=5)
        large = gen_scenario(2, 3, seed=5)
        for narrow, wide in zip(records_of(small), records_of(large)):
            assert wide[0].channel_gains[:2] == narrow[0].channel_gains
            assert wide[1] == narrow[1]

    def test_pinning_changes_only_target_field(self):
        base = gen_scenario(3, 2, seed=2)
        pinned = gen_scenario(3, 2, seed=2, pins={"edge_cpu": 12.5e9})
        for before, after in zip(records_of(base), records_of(pinned)):
            assert after[0].edge_cpu == 12.5e9
            assert after[0].channel_gains == before[0].channel_gains
            assert after[0].tx_power == before[0].tx_power
            assert after[1] == before[1]
        assert pinned.servers == base.servers

    def test_decoherence_pin(self):
        pinned = gen_scenario(1, 1, seed=0, pins={"decoherence_time": 5e-3})
        assert pinned.qubit_tech.decoherence_time == 5e-3

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="pinned"):
            gen_scenario(1, 1, seed=0, pins={"bananas": 1.0})

    def test_quota_matches_subscription_formula(self):
        # pin the physical allotment; quota must be floor(pins / 91**level)
        pinned = gen_scenario(6, 2, seed=3, pins={"physical_qubits": 4000})
        for profile, _, _ in records_of(pinned):
            assert profile.logical_qubit_quota in (4000 // 91, 0)


# a value for each pinnable field, and the columns that pin replaces
PINS = {"edge_cpu": 15e9, "physical_qubits": 4000, "decoherence_time": 5e-3,
        "weight_latency": 0.3}
PINNED_COLUMNS = {"edge_cpu": {"edge_cpu"}, "physical_qubits": {"logical_qubit_quota"},
                  "decoherence_time": set(), "weight_latency": {"weight_latency", "weight_energy"}}


class TestDrawMemo:
    def test_cached_draws_are_read_only(self):
        tags = (_F_PRIM, _F_CPU_LOCAL, _F_SUB_LEVEL)
        draws = _draw_streams(5, 3, 1, tags)
        assert _draw_streams(5, 3, 1, tags) is draws
        for array in draws:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_pinned_variants_share_unpinned_columns(self):
        assert set(PINS) == set(PIN_FIELDS)
        _draw_streams.cache_clear()
        base = gen_scenario(30, 6, seed=9)
        pinned = {field: gen_scenario(30, 6, seed=9, pins={field: value})
                  for field, value in PINS.items()}
        # one draw for the unpinned tags, one each without edge_cpu or physical_qubits
        info = _draw_streams.cache_info()
        assert (info.misses, info.hits) == (3, 2)
        for field, scenario in pinned.items():
            for name, column in vars(base.columns).items():
                if name not in PINNED_COLUMNS[field]:
                    assert np.array_equal(getattr(scenario.columns, name), column), (field, name)
            assert scenario.servers == base.servers
            _draw_streams.cache_clear()
            assert gen_scenario(30, 6, seed=9, pins={field: PINS[field]}) == scenario

    def test_sweep_at_one_seed_draws_once(self):
        _draw_streams.cache_clear()
        _log2_table.cache_clear()
        for value in EDGE_CPU_CHOICES:
            assert gen_scenario(10, 4, seed=3, pins={"edge_cpu": value}).evaluator
        for memo in (_draw_streams, _log2_table):
            info = memo.cache_info()
            assert (info.misses, info.hits) == (1, 2), memo

    def test_integral_float_seed_does_not_hit(self):
        gen_scenario(2, 2, seed=1)
        with pytest.raises(TypeError):
            gen_scenario(2, 2, seed=1.0)
        with pytest.raises(TypeError):
            gen_scenario(2.0, 2, seed=1)


class TestRedrawTasks:
    def test_profiles_kept_tasks_changed(self):
        env = MeqcEnv(gen_scenario(3, 2, seed=1), redraw_tasks=True,
                      rng=np.random.default_rng(99))
        base = env.evaluator
        env.reset()
        redrawn = env.evaluator
        assert redrawn.rate is base.rate  # profile and server tables are kept
        for table in ("weight_latency", "weight_energy", "_f_local", "_quota"):
            assert getattr(redrawn, table) is getattr(base, table)
        assert not np.array_equal(redrawn.data_size, base.data_size)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (100, 20)])
    @pytest.mark.parametrize("half_used", [False, True], ids=["fresh", "half_used"])
    def test_matches_scalar_reference(self, shape, half_used):
        scenario = gen_scenario(*shape, seed=4)
        for seed in range(5):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            if half_used:
                # five uint32 draws leave half a uint64 in PCG64's buffer
                ours.integers(0, 3, size=5)
                theirs.integers(0, 3, size=5)
            expected = reference_redraw_tasks(scenario, theirs)
            assert_tasks_of(draw_tasks(ours, shape[0]), expected)
            assert ours.bit_generator.state == theirs.bit_generator.state


def assert_tasks_of(drawn, scenario):
    """``draw_tasks``' exponents and data sizes, through ``TASK_SHAPES``, are
    exactly the tasks of ``scenario``'s users."""
    exponents, data_sizes = drawn
    got = [
        (size, size, *shape)
        for size, shape in zip(data_sizes.tolist(), TASK_SHAPES[exponents].tolist())
    ]
    want = [
        (task.data_size, qtask.data_size, task.cycles_per_byte,
         qtask.logical_qubits, qtask.logical_depth)
        for _, task, qtask in records_of(scenario)
    ]
    assert got == want


def reference_redraw_tasks(scenario, rng):
    """Redraw as numpy's two calls, built into per-user records through ``reference_job``."""
    records = records_of(scenario)
    prims = rng.integers(PRIMITIVE_EXPONENTS[0], PRIMITIVE_EXPONENTS[1] + 1, size=len(records))
    sizes = rng.uniform(*DATA_SIZE_RANGE, size=len(records))
    users = [
        (profile, *reference_job(prim, size))
        for (profile, _, _), prim, size in zip(records, prims.tolist(), sizes.tolist())
    ]
    return dataclasses.replace(scenario, columns=user_columns(users))


class TestDrawTasks:
    """``draw_tasks`` is numpy's two vectorised calls, on any generator."""

    @pytest.mark.parametrize("num_users", [1, 2, 3, 100])
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
         np.random.MT19937],
    )
    def test_equals_two_numpy_calls(self, bit_generator, num_users):
        for seed in range(5):
            ours = np.random.Generator(bit_generator(seed))
            twin = np.random.Generator(bit_generator(seed))
            exponents, data_sizes = draw_tasks(ours, num_users)
            assert np.array_equal(exponents, twin.integers(
                PRIMITIVE_EXPONENTS[0], PRIMITIVE_EXPONENTS[1] + 1, size=num_users))
            assert np.array_equal(data_sizes, twin.uniform(*DATA_SIZE_RANGE, size=num_users))
            # the whole state, key arrays and half-word buffers included
            np.testing.assert_equal(ours.bit_generator.state, twin.bit_generator.state)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]
    )
    @pytest.mark.parametrize("buffer", [(0, 0xDEADBEEF), (1, 0xDEADBEEF)],
                             ids=["stale", "half_used"])
    def test_other_half_word_generators(self, bit_generator, buffer):
        """A stale or half-used uint32 buffer is read as numpy reads it."""
        scenario = gen_scenario(3, 2, seed=4)
        for seed in range(5):
            ours = np.random.Generator(bit_generator(seed))
            theirs = np.random.Generator(bit_generator(seed))
            for rng in (ours, theirs):
                state = rng.bit_generator.state
                state.update(has_uint32=buffer[0], uinteger=buffer[1])
                rng.bit_generator.state = state
            assert_tasks_of(draw_tasks(ours, 3), reference_redraw_tasks(scenario, theirs))
            np.testing.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)

    def test_columns(self):
        exponents, data_sizes = draw_tasks(np.random.default_rng(0), 50)
        assert exponents.shape == data_sizes.shape == (50,)
        assert exponents.dtype.kind == "i" and data_sizes.dtype == np.float64
        assert PRIMITIVE_EXPONENTS[0] <= exponents.min()
        assert exponents.max() <= PRIMITIVE_EXPONENTS[1]
        assert DATA_SIZE_RANGE[0] <= data_sizes.min() <= data_sizes.max() < DATA_SIZE_RANGE[1]


class TestDrawsMatchNumpy:
    """The generator's shortcut draws give numpy's values and generator states."""

    SEEDS = range(1000)

    @pytest.mark.parametrize(
        "bounds,size",
        [(DATA_SIZE_RANGE, None), (TX_POWER_RANGE, None),
         (CHANNEL_GAIN_RANGE, 1), (CHANNEL_GAIN_RANGE, 20)],
    )
    def test_uniform(self, bounds, size):
        for seed in self.SEEDS:
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = _uniform(ours, bounds, size), theirs.uniform(*bounds, size=size)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("choices", [LOCAL_CPU_CHOICES, EDGE_CPU_CHOICES])
    def test_choice(self, choices):
        """A choice is read as the chosen index: ``choices[integers(0, len)]``."""
        keys = np.array([(_USER, u, _F_CPU_LOCAL) for u in range(3)])
        last = np.full(len(keys), len(choices) - 1)
        for seed in self.SEEDS:
            raw = replayed_outputs(seed, keys, 1)[:, 0]
            drawn = _integers(seed, keys, raw, np.zeros_like(last), last).tolist()
            ours = [choices[i] for i in drawn]
            assert ours == [field_rng(seed, *key).choice(choices) for key in keys.tolist()]


class TestSerialization:
    def test_dict_round_trip(self):
        scenario = gen_scenario(4, 3, seed=12)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_file_round_trip(self, tmp_path):
        scenario = gen_scenario(2, 2, seed=31)
        path = tmp_path / "scenario.json"
        save_scenario(scenario, path)
        assert load_scenario(path) == scenario

    def test_schema_version_checked(self):
        doc = scenario_to_dict(gen_scenario(1, 1, seed=0))
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            scenario_from_dict(doc)

    def test_integer_spelled_floats_save_back_unchanged(self, tmp_path):
        """A hand-written file spelling every data size as an integer writes back byte for byte."""
        doc = scenario_to_dict(gen_scenario(3, 2, seed=6))
        for record in doc["users"]:
            record["task"]["data_size"] = record["quantum_task"]["data_size"] = 1000
        text = json.dumps(doc, indent=2) + "\n"
        (tmp_path / "in.json").write_text(text, encoding="utf-8")
        scenario = load_scenario(tmp_path / "in.json")
        assert scenario.columns.data_size.dtype.kind == "i"
        save_scenario(scenario, tmp_path / "out.json")
        assert (tmp_path / "out.json").read_bytes() == text.encode("utf-8")

    def test_mixed_spellings_save_back_as_floats(self, tmp_path):
        """One column holds one type: ``1000`` beside ``1500.5`` is rewritten as ``1000.0``."""
        doc = scenario_to_dict(gen_scenario(2, 2, seed=6))
        doc["users"][0]["task"]["data_size"] = 1000
        doc["users"][1]["task"]["data_size"] = 1500.5
        (tmp_path / "in.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        save_scenario(load_scenario(tmp_path / "in.json"), tmp_path / "out.json")
        saved = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
        assert [u["task"]["data_size"] for u in saved["users"]] == [1000.0, 1500.5]
        assert '"data_size": 1000.0' in (tmp_path / "out.json").read_text(encoding="utf-8")
        doc["users"][0]["task"]["data_size"] = 1000.0
        assert saved == doc

    @pytest.mark.parametrize("part, key, value, message", [
        ("profile", "f_local", "3e9", "must be a number"),
        ("profile", "f_local", True, "must be a number"),
        ("task", "data_size", None, "must be a number"),
        ("profile", "channel_gains", [6.0, "6.0"], "must be a number"),
        ("profile", "channel_gains", "ab", "must be a list"),
        ("quantum_task", "logical_qubits", 20.5, "must be a whole number"),
        ("quantum_task", "logical_depth", False, "must be a number"),
        ("profile", "logical_qubit_quota", 2.5, "must be a whole number"),
    ], ids=["string", "bool", "null", "string_gain", "string_gains", "fractional_qubits",
            "bool_depth", "fractional_quota"])
    def test_user_value_types_checked(self, part, key, value, message):
        doc = scenario_to_dict(gen_scenario(3, 2, seed=0))
        doc["users"][1][part][key] = value
        with pytest.raises(ValueError, match=f"^user 1 {part} {key} {message}, got "):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("part, change", [
        ("profile", lambda record: record.pop("edge_cpu")),
        ("task", lambda record: record.update(frames=3)),
        ("quantum_task", lambda record: record.clear()),
    ], ids=["missing", "unknown", "empty"])
    def test_user_record_keys_checked(self, part, change):
        doc = scenario_to_dict(gen_scenario(3, 2, seed=0))
        change(doc["users"][2][part])
        with pytest.raises(ValueError, match=f"^user 2 {part} needs exactly the keys "):
            scenario_from_dict(doc)
        del doc["users"][2][part]
        with pytest.raises(ValueError, match=f"^user 2 {part} needs exactly the keys "):
            scenario_from_dict(doc)
