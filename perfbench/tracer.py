"""Span tracer that wraps meqc's public functions from outside the package.

Each target is named by dotted path.  A module-level function is patched
in every ``meqc`` module that binds it (``resolve_quantum_allocation``
lives in both ``env`` and ``solvers``), a method on its class.  A name that
no longer resolves is reported as absent instead of failing the run, so
the benchmark survives refactors that delete or rename internals.

Spans are kept in memory as columns (metric, start, end, parent, item) and
written out once the traced items are done.  Self time is a span's duration minus
the time covered by its child spans, accumulated as each span closes.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _forward_rows(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return 1 if np.ndim(x) == 1 else len(x)


def _batch_rows(args, kwargs):
    batch = args[2] if len(args) > 2 else kwargs["batch"]
    return len(batch["obs"])


def _search_space(args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    users, servers = len(scenario.users), len(scenario.servers)
    return servers**users * 2**users


# (metric, dotted targets, optional counter of work units per call).
# The work counter feeds ``<metric>.rows``; for the oracle it is the
# computed E^U * 2^U candidate count, not a measurement.
TARGETS = (
    ("workload.gen_scenario", ("meqc.workload.gen_scenario",), None),
    ("workload.redraw_tasks", ("meqc.workload.redraw_tasks",), None),
    ("device.success_probability", ("meqc.device.success_probability",), None),
    (
        "device.tables",
        (
            "meqc.device.cryostat_stages",
            "meqc.device.physical_error_rate",
            "meqc.device.gate_power_profile",
            "meqc.device.logical_resources",
        ),
        None,
    ),
    ("costs.evaluator_init", ("meqc.costs.ScenarioEvaluator.__init__",), None),
    ("costs.user_cost", ("meqc.costs.ScenarioEvaluator.user_cost",), None),
    ("costs.qpu_saving", ("meqc.costs.ScenarioEvaluator.qpu_saving",), None),
    ("costs.total", ("meqc.costs.ScenarioEvaluator.total",), None),
    ("costs.merge", ("meqc.costs._merge",), None),
    ("env.step", ("meqc.env.MeqcEnv.step",), None),
    ("env.arbitration", ("meqc.env.resolve_quantum_allocation",), None),
    ("env.observations", ("meqc.env.build_observation",), None),
    ("solvers.greedy", ("meqc.solvers.solve_greedy",), None),
    ("solvers.baseline", ("meqc.solvers.solve_baseline",), None),
    ("solvers.evaluate", ("meqc.solvers.evaluate",), None),
    ("solvers.exhaustive", ("meqc.solvers.solve_exhaustive",), _search_space),
    ("nn.forward", ("meqc.nn.Mlp.forward_cached",), _forward_rows),
    ("nn.backward", ("meqc.nn.Mlp.backward",), None),
    ("nn.optim_step", ("meqc.nn.Adam.step", "meqc.nn.Sgd.step"), None),
    ("marl.sample_action", ("meqc.marl.HybridAgent.sample_action",), None),
    ("marl.values", ("meqc.marl.HybridAgent.values",), None),
    ("marl.ppo_update", ("meqc.marl.ppo_update",), _batch_rows),
    ("marl.gae", ("meqc.marl.gae",), None),
    ("marl.buffer_add", ("meqc.marl.RolloutBuffer.add",), None),
    ("marl.train", ("meqc.marl.train",), None),
)

LAYERS = ("workload", "device", "costs", "env", "solvers", "nn", "marl")

_MISSING = object()


def _resolve(dotted: str):
    """(owner, attribute name, object) for a dotted path, or None if absent."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, _MISSING)
            if owner is _MISSING:
                return None
        obj = getattr(owner, parts[-1], _MISSING)
        return None if obj is _MISSING else (owner, parts[-1], obj)
    return None


class Tracer:
    """Patches the targets on ``install`` and restores them on ``uninstall``."""

    def __init__(self):
        self.metrics: list[str] = []  # span metric ids index this list
        self._metric_ids: dict[str, int] = {}
        self.span_metric = array("i")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rows: dict[str, int] = defaultdict(int)
        self.row_errors: dict[str, str] = {}
        self.absent: list[str] = []
        self.item = -1
        self.enabled = False  # on only inside ``run_item``
        self._stack: list = []
        self._patches: list = []

    def install(self, targets=TARGETS) -> None:
        for metric, names, count in targets:
            for dotted in names:
                found = _resolve(dotted)
                if found is None:
                    self.absent.append(dotted)
                    continue
                owner, attr, original = found
                wrapper = self._wrap(metric, original, count)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "meqc" and not mod_name.startswith("meqc."):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._patches):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def _wrap(self, metric, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if count is not None:
                try:
                    tracer.rows[metric] += count(args, kwargs)
                except (LookupError, TypeError, AttributeError) as exc:
                    tracer.row_errors[metric] = repr(exc)
            return tracer.call(metric, fn, *args, **kwargs)

        return wrapper

    def run_item(self, item: int, thunk):
        """Trace one benchmark item; calls made outside items are not recorded."""
        self.item = item
        self.enabled = True
        try:
            return self.call("item", thunk)
        finally:
            self.enabled = False

    def call(self, metric, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``metric``."""
        metric_id = self._metric_ids.get(metric)
        if metric_id is None:
            metric_id = self._metric_ids[metric] = len(self.metrics)
            self.metrics.append(metric)
        stack = self._stack
        index = len(self.span_metric)
        self.span_metric.append(metric_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_item.append(self.item)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        child = [0.0]
        stack.append((index, child))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1][0] += duration
            self.calls[metric] += 1
            self.self_s[metric] += duration - child[0]
            self.span_start[index] = start
            self.span_end[index] = end

    def write_spans(self, path) -> None:
        """Spans as arrays; ``metric`` indexes ``metric_names``, ``parent`` the spans."""
        np.savez_compressed(
            path,
            metric_names=np.array(self.metrics),
            metric=np.asarray(self.span_metric),
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=np.asarray(self.span_parent),
            item=np.asarray(self.span_item),
        )
