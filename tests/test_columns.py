"""A scenario's users are columns: generation builds one ``UserColumns`` and
scoring none, scenarios loaded or built from records give the same tables,
and the column checks are the only per-user checks: every route to a
scenario refuses what the columns refuse."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from meqc.costs import ScenarioEvaluator, ServerProfile
from meqc.env import MeqcEnv, _observation_template
from meqc.solvers import BaselinePolicy, PolicyKind, evaluate
from meqc.workload import (
    Scenario,
    UserColumns,
    gen_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

from cost_spec import records_of, user_columns
from test_workload import REFERENCE_PINS

PIN_IDS = ["none", "edge", "phys_weight", "decoherence"]

# every table an evaluator builds from a scenario, user columns first
TABLES = (
    "_f_local", "_tx_power", "_edge_cpu", "weight_latency", "weight_energy", "_quota",
    "rate", "data_size", "cycles_per_byte", "_q_data_size", "logical_qubits",
    "logical_depth", "success", "eligible", "_suppression", "_step_time", "_step_energy",
)


def count_inits(monkeypatch, *classes) -> list:
    """Record the class of every instance of ``classes`` built from here on."""
    built = []
    for cls in classes:
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *args, _init=cls.__init__, **kwargs:
                built.append(type(self)) or _init(self, *args, **kwargs),
        )
    return built


def assert_identical(ours: np.ndarray, theirs: np.ndarray):
    assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def test_generate_and_score_build_no_user_objects(monkeypatch):
    built = count_inits(monkeypatch, Scenario, UserColumns)
    scenario = gen_scenario(100, 20, seed=3)
    assert built == [UserColumns, Scenario]
    ScenarioEvaluator(scenario)
    MeqcEnv(scenario).observations()
    for kind in PolicyKind:
        for redraw in (False, True):
            evaluate(BaselinePolicy(kind), scenario, 2, np.random.default_rng(0),
                     redraw_tasks=redraw)
    assert built == [UserColumns, Scenario]


@pytest.mark.parametrize("pins", REFERENCE_PINS, ids=PIN_IDS)
@pytest.mark.parametrize("shape", [(1, 1), (7, 4), (100, 20)], ids=["1x1", "7x4", "100x20"])
def test_generated_and_object_built_twins_share_tables(shape, pins):
    scenario = gen_scenario(*shape, seed=11, pins=pins)
    loaded = scenario_from_dict(scenario_to_dict(scenario))
    built = dataclasses.replace(scenario, columns=user_columns(records_of(scenario)))
    for twin in (loaded, built):
        assert twin == scenario and twin.columns is not scenario.columns
        assert hash(twin) == hash(scenario) and repr(twin) == repr(scenario)
        ours, theirs = ScenarioEvaluator(scenario), ScenarioEvaluator(twin)
        for name in TABLES:
            assert_identical(getattr(ours, name), getattr(theirs, name))
        assert_identical(_observation_template(scenario), _observation_template(twin))


def test_pinned_allotment_beyond_int64_keeps_exact_quotas():
    phys = 10**30
    scenario = gen_scenario(4, 2, seed=0, pins={"physical_qubits": phys})
    quotas = scenario.columns.logical_qubit_quota.tolist()
    assert all(isinstance(q, int) for q in quotas)
    assert set(quotas) <= {phys // 91, phys // 91**2, phys // 91**3}
    assert scenario == scenario_from_dict(scenario_to_dict(scenario))


NAN, INF = math.nan, math.inf

# (column, user record, field of that record, values its check refuses,
# values it accepts); every check refuses NaN, and every float column ±inf
RULES = [
    ("f_local", "profile", "f_local", [0.0, -1.0, NAN, INF], [1e-300, 1e300]),
    ("tx_power", "profile", "tx_power", [0.0, -1e-3, NAN, INF], [1e-300]),
    ("weight_latency", "profile", "weight_latency", [-0.1, 1.5, NAN, -INF], [0.0, 1.0]),
    ("weight_energy", "profile", "weight_energy", [-1e-12, 1.0 + 1e-12, NAN, INF], [0.0, 1.0]),
    ("channel_gains", "profile", "channel_gains", [0.0, -2.0, NAN, INF], [1e-300, 1e300]),
    ("edge_cpu", "profile", "edge_cpu", [0.0, -5e9, NAN, INF], [1e-300]),
    ("logical_qubit_quota", "profile", "logical_qubit_quota", [-1], [0, 10**6]),
    ("data_size", "task", "data_size", [0.0, -1.0, NAN, INF], [1e-300]),
    ("cycles_per_byte", "task", "cycles_per_byte", [0.0, -3.0, NAN, INF], [1e-300]),
    ("quantum_data_size", "quantum_task", "data_size", [0.0, -1.0, NAN, -INF, INF], [1e-300]),
    ("logical_qubits", "quantum_task", "logical_qubits", [0, -4], [1]),
    ("logical_depth", "quantum_task", "logical_depth", [0, -4], [1]),
]


def outcome(build):
    """The message of the ``ValueError`` that ``build()`` raises, or None."""
    try:
        build()
    except ValueError as error:
        return str(error)
    return None


@pytest.mark.parametrize("column, part, name, refused, accepted", RULES,
                         ids=[rule[0] for rule in RULES])
def test_column_checks_match_object_checks(column, part, name, refused, accepted):
    """A scenario built from records, or loaded from its dict, refuses
    exactly what its columns refuse, with the columns' message."""
    scenario = gen_scenario(3, 2, seed=4)
    records, columns = records_of(scenario), scenario.columns
    parts = ("profile", "task", "quantum_task")

    def with_column(value):
        values = getattr(columns, column).copy()
        values[(1, 1) if values.ndim == 2 else 1] = value  # user 1, server 1
        return dataclasses.replace(columns, **{column: values})

    def with_object(value):
        changed = list(records[1])
        obj = changed[parts.index(part)]
        if name == "channel_gains":
            value = (obj.channel_gains[0], value)
        changed[parts.index(part)] = dataclasses.replace(obj, **{name: value})
        return dataclasses.replace(
            scenario, columns=user_columns([records[0], changed, records[2]]))

    def loaded(value):
        doc = scenario_to_dict(scenario)
        record = doc["users"][1][part]
        if name == "channel_gains":
            record[name][1] = value
        else:
            record[name] = value
        return scenario_from_dict(doc)

    for value in refused:
        message = outcome(lambda: with_column(value))
        assert message is not None
        assert outcome(lambda: with_object(value)) == message
        assert outcome(lambda: loaded(value)) == message
    for value in accepted:
        for build in (with_column, with_object, loaded):
            assert outcome(lambda: build(value)) is None


def test_non_finite_values_name_their_column():
    columns = gen_scenario(3, 2, seed=4).columns
    for name in ("f_local", "tx_power", "channel_gains", "edge_cpu", "data_size",
                 "cycles_per_byte", "quantum_data_size"):
        values = getattr(columns, name).copy()
        values.flat[-1] = INF
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            dataclasses.replace(columns, **{name: values})


@pytest.mark.parametrize("field", ["noise_power", "bandwidth"])
def test_servers_refuse_non_finite_values(field):
    for value in (0.0, -1.0, NAN, INF, -INF):
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0$"):
            ServerProfile(**{field: value})
    assert getattr(ServerProfile(**{field: 1e-300}), field) == 1e-300


def count_column_checks(monkeypatch) -> list:
    """Record every run of ``UserColumns.__post_init__`` from here on."""
    runs, check = [], UserColumns.__post_init__
    monkeypatch.setattr(UserColumns, "__post_init__", lambda self: runs.append(1) or check(self))
    return runs


def test_scenario_of_records_checks_them_once(monkeypatch):
    scenario = gen_scenario(100, 20, seed=3)
    records = records_of(scenario)
    runs = count_column_checks(monkeypatch)
    assert dataclasses.replace(scenario, columns=user_columns(records)) == scenario
    assert len(runs) == 1
    assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
    assert len(runs) == 2


def test_gains_row_of_wrong_length_names_user_and_servers():
    doc = scenario_to_dict(gen_scenario(2, 3, seed=0))
    doc["users"][1]["profile"]["channel_gains"] = [6.0]
    with pytest.raises(ValueError, match=r"^user 1 has 1 channel gains for 3 servers$"):
        scenario_from_dict(doc)


# misfit -> (the changed columns, the servers kept, the message)
MISFITS = {
    "gains_for_one_server": (
        lambda c: dataclasses.replace(c, channel_gains=c.channel_gains[:, :1]), 3,
        r"^channel_gains has shape \(3, 1\), expected \(3, 3\)$",
    ),
    "no_servers": (lambda c: c, 0, r"^scenario needs at least one user and one server$"),
    "short_tx_power": (
        lambda c: dataclasses.replace(c, tx_power=c.tx_power[:2]), 3,
        r"^tx_power has shape \(2,\), expected \(3,\)$",
    ),
}


@pytest.mark.parametrize("misfit, servers, message", MISFITS.values(), ids=MISFITS)
def test_from_columns_checks_the_scenario_shape(misfit, servers, message):
    scenario = gen_scenario(3, 3, seed=0)
    fields = {f.name: getattr(scenario, f.name) for f in dataclasses.fields(Scenario)}
    fields["columns"] = misfit(scenario.columns)
    fields["servers"] = scenario.servers[:servers]
    with pytest.raises(ValueError, match=message):
        Scenario(**fields)


def test_columns_are_read_only():
    scenario = gen_scenario(3, 2, seed=4)
    with pytest.raises(ValueError, match="read-only"):
        scenario.columns.f_local[0] = 1.0
    # a copy or pickle of the columns, alone or in their scenario, is rebuilt read-only
    for twin in (copy.copy(scenario.columns), copy.deepcopy(scenario.columns),
                 pickle.loads(pickle.dumps(scenario.columns)),
                 copy.deepcopy(scenario).columns, pickle.loads(pickle.dumps(scenario)).columns):
        assert twin == scenario.columns and hash(twin) == hash(scenario.columns)
        assert not any(column.flags.writeable for column in vars(twin).values())
    # the evaluator a scenario shares, a fresh one, and one-episode and batch task evaluators
    tasks = [np.array([5e8, 6e8, 7e8]), np.full(3, 96.0), np.array([5e8, 6e8, 7e8]),
             np.array([20, 21, 22]), np.array([30, 31, 32])]
    evaluators = [scenario.evaluator, ScenarioEvaluator(scenario),
                  scenario.evaluator.with_tasks(*tasks),
                  scenario.evaluator.with_tasks(*(np.stack([c, c]) for c in tasks))]
    for evaluator in evaluators:
        names = ["user_index", "_locations", "_fits", *TABLES]
        if evaluator.success is None:  # a batch reads feasibility at chosen servers
            names = [name for name in names if name not in ("success", "eligible")]
        for name in names:
            table = getattr(evaluator, name)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    for column in tasks:  # a caller's arrays are neither frozen nor aliased
        assert column.flags.writeable
        column[0] = 1
    assert evaluators[2].data_size[0] == evaluators[2]._q_data_size[0] == 5e8
    assert evaluators[2].logical_qubits[0] == 20


def test_equality_and_hash_compare_values_not_dtypes():
    """An int column equals, and hashes as, the equal float column."""
    scenario = gen_scenario(3, 2, seed=4, pins={"physical_qubits": 4000})
    columns = scenario.columns
    as_floats = dataclasses.replace(columns, logical_qubits=columns.logical_qubits.astype(float),
                                    logical_qubit_quota=columns.logical_qubit_quota.astype(float))
    as_objects = dataclasses.replace(columns, logical_qubit_quota=np.array(
        columns.logical_qubit_quota.tolist(), dtype=object))
    for twin in (as_floats, as_objects):
        assert twin == columns and hash(twin) == hash(columns)
        assert dataclasses.replace(scenario, columns=twin) == scenario
    changed = columns.data_size.copy()
    changed[2] += 1.0
    assert dataclasses.replace(columns, data_size=changed) != columns
    assert columns.__eq__(columns.data_size) is NotImplemented  # only columns equal columns
