"""meqc benchmark: one workload, timed from outside the package.

    python3 perfbench/run.py --workload sweep_100x20 --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run times items until ``--seconds`` have passed and
reports the end-to-end metrics, scaled to a reference machine speed; with
``--trace 1`` it runs the workload's fixed items under the span tracer,
replays them untraced, and reports the per-layer metrics and the tracing
overhead.  Either way every output is checked, a manifest lands in
``perfbench/results/`` and the last line of stdout is the JSON result.
See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process, one BLAS thread: the figures are those of a plain serial
# run, and a shared two-core machine does not add thread-scheduling noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

_CALIBRATION_MATRIX = np.random.default_rng(0).normal(size=(256, 256)) / 16

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median of 1 + 4
TAIL_BEYOND = 10
# Reported times are scaled to a machine on which ``calibrate`` takes this
# long, using the median of the calibrations two either side of an item.
CALIBRATION_REF_S = 0.007
CALIBRATION_WINDOW = 2


def _import_program():
    """Import meqc from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import meqc
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import meqc from {src}: {exc}")
    if Path(meqc.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: meqc resolved to {meqc.__file__}, not under {src}")
    sys.path.insert(0, str(BENCH_DIR))
    import tracer
    import workloads
    return tracer, workloads


# ---------------------------------------------------------------- running


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    On a shared machine the same item can take twice as long a few seconds
    later; CPU time drifts with it, so the drift is speed, not preemption.
    Calibrating between items and scaling each item's time by
    ``CALIBRATION_REF_S / calibration`` removes most of that drift.  The mix
    (dict updates, tiny ufuncs, 256-wide matrix-vector products) follows
    what the workloads spend their time on, but uses no meqc code, so no
    change to meqc moves it.
    """
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(10000):
        table[i & 255] = acc
        acc += i * 0.5
    values = np.arange(64.0)
    for _ in range(1000):
        values = np.sqrt(values + 1.0)
    vector = np.full(256, 1.0 / 16)
    for _ in range(300):
        values = np.tanh(vector @ _CALIBRATION_MATRIX)
    return time.perf_counter() - start


class Run:
    """Item times, failures and digest rows of one pass over the items.

    ``times`` are wall-clock seconds; ``calibrated_before[k]`` indexes the
    calibration taken just before item k.
    """

    def __init__(self):
        self.attempted = 0
        self.times: list[float] = []
        self.calibrated_before: list[int] = []
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        self.digest_rows: dict[int, list] = {}
        self.wall = 0.0

    @property
    def scaled(self) -> list[float]:
        """Item times scaled by the median calibration around each item."""
        cals, w = self.calibrations, CALIBRATION_WINDOW
        return [
            t * CALIBRATION_REF_S / statistics.median(cals[max(0, j - w + 1): j + w + 1])
            for t, j in zip(self.times, self.calibrated_before)
        ]


def run_items(workload, *, seconds=None, count=None, tracer=None) -> Run:
    """Time items until ``seconds`` pass, or for exactly ``count`` items.

    Each output is checked right after its item, outside the item's time
    and outside the tracer's spans.
    """
    run = Run()
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    run.calibrations.append(calibrate())
    while run.attempted < count if count is not None else time.perf_counter() < deadline:
        i = run.attempted
        label, thunk = workload.item(i)
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            output = thunk() if tracer is None else tracer.run_item(i, thunk)
        except Exception as exc:  # an item that raises is a failed item
            run.failures.append(f"item {i} {label}: {exc!r}")
            run.calibrations.append(calibrate())
            continue
        run.times.append(time.perf_counter() - t0)
        run.calibrated_before.append(len(run.calibrations) - 1)
        run.calibrations.append(calibrate())
        problem, rows = workload.check(label, output)
        if problem is not None:
            run.failures.append(f"item {i}: {problem}")
        if i < workload.fixed_items:
            run.digest_rows[i] = rows
    run.wall = time.perf_counter() - start
    return run


def _format_cell(value) -> str:
    """The cell format of ``meqc.bench.emit_csv``: floats to 12 significant digits."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def result_digest(workload, run: Run) -> dict:
    """sha256 of the first ``fixed_items`` items' rows, written as emit_csv writes."""
    done = [i for i in range(workload.fixed_items) if i in run.digest_rows]
    columns, rows = workload.digest_rows(
        [row for i in done for row in run.digest_rows[i]]
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return {
        "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        "items": len(done),
        "complete": len(done) == workload.fixed_items,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def setup_probe(args) -> tuple[float, float]:
    """(wall, scaled) set-up time of a fresh interpreter running this workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--probe-setup"]
    before = calibrate()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    after = calibrate()
    wall = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return wall, wall * 2 * CALIBRATION_REF_S / (before + after)


# ---------------------------------------------------------------- manifest


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import ctypes

    info = {"name": "unknown", "threads": None, "threads_requested": BLAS_THREADS}
    try:
        info["name"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_revision() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, workload, run: Run, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
                    "platform": platform.platform()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "blas": _blas()},
        "items": {"attempted": run.attempted, "completed": len(run.times),
                  "failed": len(run.failures), "fixed_items": workload.fixed_items},
        "fail_ratio": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures[:20],
        "result_digest": result_digest(workload, run),
        **extra,
    }


# ---------------------------------------------------------------- metrics


def _timing(times: list[float], setups: list[float]) -> dict:
    if not times:
        nan = float("nan")
        return {"items_per_s": 0.0, "item_p50_ms": nan, "item_tail_ms": nan,
                "setup_s": statistics.median(setups)}
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_tail_ms": tail(times)[1] * 1e3,
        "setup_s": statistics.median(setups),
    }


def end_to_end(args, workload, setup: tuple[float, float]) -> tuple[Run, dict, dict]:
    run = run_items(workload, seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    scaled = _timing(run.scaled, [s for _, s in setups])
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "items_per_s": (scaled["items_per_s"], "1/s"),
        "item_p50_ms": (scaled["item_p50_ms"], "ms"),
        "item_tail_ms": (scaled["item_tail_ms"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "wall_clock": {**_timing(run.times, [w for w, _ in setups]),
                       "loop_items_per_s": len(run.times) / run.wall, "loop_s": run.wall},
        "setup_samples_s": [{"wall": w, "scaled": s} for w, s in setups],
        "calibration_s": {"reference": CALIBRATION_REF_S,
                          "median": statistics.median(run.calibrations),
                          "min": min(run.calibrations), "max": max(run.calibrations)},
        "item_tail": {"percentile": tail(run.scaled)[0] if run.scaled else None,
                      "items": len(run.scaled)},
        "tracing_overhead": "measured by the --trace 1 run",
    }
    return run, metrics, extra


def per_layer(args, workload, tracer_mod) -> tuple[Run, dict, dict]:
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        run = run_items(workload, count=workload.fixed_items, tracer=tracer)
    finally:
        tracer.uninstall()
    replay = run_items(workload, count=workload.fixed_items)
    traced_s = sum(run.times)
    # Overhead compares scaled sums, so a change in machine speed between
    # the two passes does not read as tracing cost.
    overhead_s = sum(run.scaled) - sum(replay.scaled)
    calls, self_s, rows = tracer.calls, tracer.self_s, tracer.rows

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {"items.count": (len(run.times), "count"), "items.wall_s": (traced_s, "s")}
    for metric, _, _ in tracer_mod.TARGETS:
        metrics[f"{metric}.calls"] = (calls[metric], "count")
        metrics[f"{metric}.self_s"] = (self_s[metric], "s")
    metrics["costs.evaluator_init.per_step"] = (
        ratio(calls["costs.evaluator_init"], calls["env.step"]), "ratio")
    metrics["nn.forward.rows"] = (rows["nn.forward"], "count")
    metrics["nn.forward.rows_per_call"] = (ratio(rows["nn.forward"], calls["nn.forward"]),
                                           "ratio")
    metrics["marl.ppo_update.rows"] = (rows["marl.ppo_update"], "count")
    rolled_out = len(run.times) * getattr(workload, "agent_steps_per_item", 0)
    metrics["marl.samples_used_ratio"] = (ratio(rows["marl.ppo_update"], rolled_out), "ratio")
    metrics["solvers.exhaustive.search_space"] = (rows["solvers.exhaustive"],
                                                  "count_computed")
    for layer in tracer_mod.LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        metrics[f"share.{layer}"] = (ratio(layer_s, traced_s), "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    metrics["trace.overhead_ratio"] = (ratio(overhead_s, sum(replay.scaled)), "ratio")
    metrics["trace.absent_targets"] = (len(tracer.absent), "count")

    RESULTS.mkdir(exist_ok=True)
    spans_file = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.write_spans(spans_file)
    extra = {
        "tracing_overhead": {"traced_items_scaled_s": sum(run.scaled),
                             "untraced_items_scaled_s": sum(replay.scaled),
                             "traced_items_wall_s": traced_s,
                             "untraced_items_wall_s": sum(replay.times),
                             "overhead_s": overhead_s},
        "absent_targets": tracer.absent,
        "row_count_errors": tracer.row_errors,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": len(tracer.span_metric),
    }
    run.attempted += replay.attempted
    run.failures += [f"untraced replay: {f}" for f in replay.failures]
    return run, metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    tracer_mod, workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        run, metrics, extra = per_layer(args, workload, tracer_mod)
    else:
        calibrate()  # the first call also pays numpy's first-use costs
        setup = (setup_s, setup_s * CALIBRATION_REF_S / calibrate())
        run, metrics, extra = end_to_end(args, workload, setup)
    record = manifest(args, workload, run, extra)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    manifest_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    manifest_file.write_text(json.dumps(record, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r:>24} {unit}")
    print(f"{'fail_ratio':36s} {record['fail_ratio']!r:>24} ratio")
    if not args.trace:
        print(f"item_tail percentile {extra['item_tail']['percentile']} "
              f"of {extra['item_tail']['items']} items")
    print(f"result_digest {record['result_digest']}")
    for failure in run.failures[:5]:
        print(f"FAILED {failure}")
    print(f"manifest {manifest_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
