"""Benchmark of scorerisk: one workload per run, outputs checked, metrics printed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli|kinked|fit --seconds S [--seed N] [--trace 0|1]

A run builds the workload's inputs from the seed, times the import and
warm-up in fresh interpreters (``setup_s``), then runs whole rounds of the
workload's operations as a closed loop with one client until the timed
operations add up to about ``--seconds`` and at least `MIN_OPS` have run.
Every output is checked against the benchmark's own reference computations.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``.

The package is imported from ``src/`` of the checkout the script sits in;
without it the run exits with code 2.
"""

import os

# numeric libraries run single-threaded; set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# p90 needs at least ten operations beyond it
MIN_OPS = 100
SETUP_REPEATS = 15

END_TO_END_UNITS = {"wall_s": "s", "op_s.p50": "s", "op_s.p90": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


SETUP_TEMPLATE = """
import time
t0 = time.perf_counter()
{code}
elapsed = time.perf_counter() - t0
import json, scorerisk
print(json.dumps({{"setup_s": elapsed, "module": scorerisk.__file__}}))
"""


def time_setup(code: str, env: dict) -> float:
    """Import and warm-up time, measured inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_TEMPLATE.format(code=code)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed: {proc.stderr[-500:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if Path(out["module"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"scorerisk was imported from {out['module']}, not from {SRC}")
    return out["setup_s"]


class InProcessTrace:
    """Layer tracer for workloads that call the package in this process."""

    def __init__(self) -> None:
        self.tracer = None

    def start(self, memory: bool) -> None:
        import tracing

        self.tracer = tracing.Tracer(track_memory=memory)
        self.tracer.install()

    def stop(self):
        self.tracer.uninstall()
        return self.tracer.summary(), [self.tracer.spans()]

    def begin(self, op_id: int) -> None:
        self.tracer.op = op_id
        self.tracer.active = True

    def end(self) -> None:
        self.tracer.active = False


class ChildTrace:
    """Layer tracer for the cli workload: each command runs under
    cli_traced.py, which writes its layer summary and spans to a file."""

    def __init__(self, trace_file: Path) -> None:
        self.trace_file = trace_file
        self.memory = False
        self.op_id = 0
        self.runs: list[dict] = []

    def command(self, args: list[str]) -> list[str]:
        return [sys.executable, str(BENCH / "cli_traced.py"), str(self.trace_file),
                str(int(self.memory)), *args]

    def after_run(self, proc) -> None:
        with open(self.trace_file) as handle:
            data = json.load(handle)
        self.trace_file.unlink()
        data["summary"]["cli.stdout_bytes"] = len(proc.stdout)
        spans = {k: v if k == "names" else np.asarray(v) for k, v in data["spans"].items()}
        spans["op"] = np.full(spans["name"].size, self.op_id, dtype=np.int32)
        self.runs.append({"summary": data["summary"], "spans": spans})

    def start(self, memory: bool) -> None:
        self.memory = memory
        self.runs = []

    def stop(self):
        import tracing

        return (tracing.merge_summaries(r["summary"] for r in self.runs),
                [r["spans"] for r in self.runs])

    def begin(self, op_id: int) -> None:
        self.op_id = op_id

    def end(self) -> None:
        pass


def build(name: str, seed: int, workdir: Path, env: dict, trace: bool):
    """The workload and, for a traced run, its layer tracer."""
    import workloads

    if name == "cli":
        probe = ChildTrace(workdir / "op_trace.json") if trace else None
        command = probe.command if trace else (
            lambda args: [sys.executable, "-m", "scorerisk.cli", *args])
        workload = workloads.cli_workload(seed, workdir / "inputs", command, env, ROOT,
                                          probe.after_run if trace else None)
        return workload, probe
    workload = workloads.kinked_workload(seed) if name == "kinked" else workloads.fit_workload(seed)
    return workload, InProcessTrace() if trace else None


class Tally:
    """Attempted and failed operations, and every problem seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []

    def record(self, op, out, error) -> None:
        self.attempted += 1
        error = error or op.failed(out)
        wrong = None if error else op.check(out)
        if not (error or wrong) and op.known_fault is not None:
            error = op.known_fault(out)
        if error:
            self.failed += 1
            self.problems.append({"op": op.label, "failed": error})
        elif wrong:
            self.problems.append({"op": op.label, "wrong": wrong})


def measure(workload, seconds: float, min_ops: int, probe, tally: Tally):
    """Whole rounds until the timed operations add up to about ``seconds``
    and at least ``min_ops`` have run; returns op latencies and round times."""
    latencies, round_times = [], []
    while True:
        ops = workload.round_ops(len(round_times))
        outputs = []
        for op in ops:
            if probe is not None:
                probe.begin(len(latencies))
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # a failing operation is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if probe is not None:
                probe.end()
            outputs.append((out, error))
        round_times.append(sum(latencies[-len(ops):]))
        # checks run outside the timed region
        for op, (out, error) in zip(ops, outputs):
            tally.record(op, out, error)
        log(f"round {len(round_times)}: {round_times[-1]:.3f} s, "
            f"{len(tally.problems)} problems so far")
        measured = sum(round_times)
        if len(latencies) >= min_ops and measured * (1.0 + 0.5 / len(round_times)) >= seconds:
            return latencies, round_times


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(workload, probe, seconds: float, tally: Tally, workdir: Path,
                  import_times: list[float]) -> dict:
    """The traced run: one round with tracemalloc for per-call peaks, then
    rounds with spans only for times and counts, reported per round."""
    import tracing

    probe.start(memory=True)
    try:
        measure(workload, 0.0, 0, probe, tally)
    finally:
        memory_summary, _ = probe.stop()
    probe.start(memory=False)
    try:
        _, round_times = measure(workload, seconds, 0, probe, tally)
    finally:
        summary, span_sets = probe.stop()
    tracing.write_spans(workdir / "spans.npz", span_sets)
    values = {}
    for name in per_layer_units():
        if name.endswith(".peak_mb"):
            values[name] = memory_summary.get(name, 0.0)
        else:
            values[name] = summary.get(name, 0.0) / len(round_times)
    values["cli.import_s"] = statistics.median(import_times)
    values["_traced_wall_s"] = statistics.median(round_times)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli", "kinked", "fit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds per run: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scorerisk" / "__init__.py").is_file():
        log(f"error: no scorerisk package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env()
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    workload, probe = build(args.workload, args.seed, workdir, env, bool(args.trace))
    # fresh interpreters time the workload's import and warm-up (setup_s), or
    # in a traced run the import of scorerisk.cli (cli.import_s)
    setup_name = "cli.import_s" if args.trace else "setup_s"
    setup_code = "import scorerisk.cli" if args.trace else workload.setup_code
    setup_times = [time_setup(setup_code, env) for _ in range(SETUP_REPEATS)]
    if workload.in_process:
        exec(workload.setup_code, {})  # the same import and warm-up, untimed
        import scorerisk

        if Path(scorerisk.__file__).resolve().parent.parent != SRC:
            raise RuntimeError(f"scorerisk was imported from {scorerisk.__file__}")
    log(f"{args.workload} seed {args.seed}: {workload.ops_per_round} ops per round, "
        f"{setup_name} {statistics.median(setup_times):.3f} s")

    tally = Tally()
    raw = {"workload": args.workload, "seed": args.seed, "ops_per_round": workload.ops_per_round,
           setup_name: setup_times}
    try:
        if args.trace:
            values = layer_metrics(workload, probe, args.seconds, tally, workdir, setup_times)
            raw["traced_wall_s"] = values.pop("_traced_wall_s")
            units = per_layer_units()
        else:
            latencies, round_times = measure(workload, args.seconds, MIN_OPS, None, tally)
            values = {
                "wall_s": statistics.median(round_times),
                "op_s.p50": statistics.median(latencies),
                "op_s.p90": statistics.quantiles(latencies, n=10)[8],
                "peak_rss_mb": peak_rss_mib(children=not workload.in_process),
                "setup_s": statistics.median(setup_times),
            }
            raw.update(round_s=round_times, op_s=latencies)
            units = END_TO_END_UNITS
    finally:
        if workload.input_files:
            shutil.rmtree(workdir / "inputs", ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not any("wrong" in p for p in tally.problems),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    with open(workdir / ("trace.json" if args.trace else "result.json"), "w") as handle:
        json.dump({**result, **raw, "problems": tally.problems}, handle)
    for problem in tally.problems[:20]:
        log(f"problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
