"""nantree benchmark: one workload per run, metrics as JSON on the last line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cv_sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 20 --trace 1

A run imports nantree from ``src/`` of the checkout and builds the
workload's inputs from ``--seed``; this set-up is repeated ``SETUP_REPS``
times, each time with the import timed in a fresh interpreter. It then runs
the workload's units (one sweep scenario, one tree, ...) in turn until
``--seconds`` have passed. Every unit checks its outputs, repetitions must
agree, and at seed 0 the outputs must match ``perfbench/digests.json``.

Times are in host-speed-adjusted seconds (see ``hostspeed``): this host's
speed drifts by up to a half within seconds, and dividing by the slowdown
measured while a unit ran cuts the run-to-run spread of ``pass_s`` from
about 0.15-0.3 to about 0.05 of its median. ``pass_s`` sums, over the
units, the median of a unit's repetitions. Per-call latencies (tasks,
``predict_row``) stay too noisy here to gate on; they are printed, with the
raw unit times and the slowdowns, in the ``detail`` line.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` the set-up and whole rounds of units
run under the tracer, one untraced round follows for the tracing overhead,
the last line carries the per-layer metrics and the spans go to
``perfbench/out/``. The exit code is 0 only when every operation succeeded
and every check held.
"""
from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy loads, so the load stays
# on one CPU and the numbers measure nantree.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
DIGESTS = ROOT / "perfbench" / "digests.json"
DIGEST_SEED = 0
SETUP_REPS = 3
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy, nantree
print(time.perf_counter() - t0)
"""


def import_program() -> None:
    """Import nantree from ``src/`` of this checkout, never from elsewhere."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    import nantree

    if Path(nantree.__file__).resolve().parent != src / "nantree":
        raise ImportError(f"nantree was imported from {nantree.__file__}, not from {src}")


def import_seconds() -> float:
    """Time to import numpy and nantree in a fresh interpreter, as a user's
    process pays it; the benchmark's own process has them loaded already."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Attempted and failed operations over the whole run, plus the
    determinism and digest checks that compare outcomes."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, outcome) -> None:
        for op, digest in outcome.digests.items():
            seen = self.first.setdefault(op, digest)
            if digest != seen:
                outcome.fail(op, "output differs from its first repetition")
            elif op in self.expected and digest != self.expected[op]:
                outcome.fail(op, "output differs from the digest committed for this seed")
        self.attempted += outcome.attempted
        self.failed += len(outcome.failed)
        self.messages += [f"{label} {op}: {msg}" for op, msg in outcome.failed.items()]


def run_workload(args, spec: dict) -> int:
    from perfbench import workloads

    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: {args.workload!r} is not a workload of BENCHMARK.json", file=sys.stderr)
        return 2
    expected = {}
    if args.seed == DIGEST_SEED and not args.record_digests:
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh).get(args.workload, {})
    env = environment(args)
    print("env " + json.dumps(env), flush=True)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        run = Run(expected)
        try:
            if args.trace:
                metrics = traced(args, workload, run, env)
            else:
                metrics = untraced(args, workload, run)
        except workloads.Aborted as exc:
            run.record("aborted", exc.args[0])
            metrics = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in run.messages:
        print(f"FAILED {message}", file=sys.stderr)
    if args.record_digests:
        return record_digests(args, run)
    correct = run.failed == 0 and metrics is not None
    if metrics is None:
        return 1
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]},
    }), flush=True)
    return 0 if correct else 1


def untraced(args, workload, run: Run) -> dict:
    from perfbench import hostspeed
    from perfbench.workloads import median_sum

    sampler = hostspeed.Sampler()
    setup_times = []
    for rep in range(SETUP_REPS):
        with sampler.unit() as slowdown:
            t0 = sampler.clock()
            outcome = workload.setup()
            seconds = sampler.clock() - t0
        setup_times.append((seconds + import_seconds()) / slowdown[0])
        run.record(f"setup {rep}", outcome)
    reps = measure(args.seconds, workload, run, sampler=sampler)
    details = workload.details(reps)
    details["ops_failed_frac"] = (run.failed / run.attempted, "ratio")
    details["raw_unit_s"] = ({name: [sum(o.seconds.values()) for o in outs] for name, outs in reps.items()}, "s")
    details["slowdown"] = ({name: [o.slowdown for o in outs] for name, outs in reps.items()}, "ratio")
    print("detail " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in details.items()}), flush=True)
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": median_sum(reps),
    }


def measure(seconds: float, workload, run: Run, round_hook=None, sampler=None) -> dict[str, list]:
    """Run the workload's units in turn until ``seconds`` have gone by and
    each unit ran at least once; returns every unit's outcomes.

    With ``round_hook`` (a context manager factory) only whole rounds run,
    each inside ``round_hook()``. With ``sampler`` each unit gets the
    host slowdown measured while it ran.
    """
    from perfbench.workloads import Outcome

    units = workload.units()
    reps: dict[str, list] = {name: [] for name, _ in units}
    t_end = time.perf_counter() + seconds
    while True:
        with round_hook() if round_hook is not None else contextlib.nullcontext():
            for name, unit in units:
                if round_hook is None and all(reps.values()) and time.perf_counter() >= t_end:
                    return reps
                if sampler is None:
                    outcome = Outcome()
                    unit(outcome)
                else:
                    outcome = Outcome(sampler.clock)
                    with sampler.unit() as slowdown:
                        unit(outcome)
                    outcome.slowdown = slowdown[0]
                run.record(f"{name} #{len(reps[name])}", outcome)
                reps[name].append(outcome)
        if time.perf_counter() >= t_end:
            return reps


def traced(args, workload, run: Run, env: dict) -> dict:
    """Set-up and whole rounds of units under the tracer, then one
    untraced round that gives the tracing overhead. Times here are raw:
    the host-speed sampler would add its own time to the spans."""
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import median_sum

    tracer = Tracer()
    workload.tracer = tracer
    segments = []

    @contextlib.contextmanager
    def segment(label):
        layers.install(tracer)
        first = tracer.mark()
        try:
            yield
        finally:
            tracer.uninstall()
        metrics = layers.segment_metrics(tracer, first)
        tracer.results.clear()  # live trees would slow the garbage collector later on
        segments.append({"label": label, "metrics": metrics, **tracer.aggregates()})

    with segment("setup"):
        outcome = workload.setup()
    run.record("setup", outcome)
    reps = measure(args.seconds, workload, run, lambda: segment(f"round {len(segments) - 1}"))
    workload.tracer = None
    plain = measure(0, workload, run)

    setup_metrics, rounds = segments[0]["metrics"], [seg["metrics"] for seg in segments[1:]]
    # counts repeat exactly from round to round; times take the median
    metrics = {key: setup_metrics.get(key, 0) + statistics.median(m[key] for m in rounds) for key in rounds[0]}
    for key in ("tree.max_middle_chain", "tree.depth"):
        metrics[key] = max(setup_metrics[key], rounds[0][key])
    layers.finish(metrics)
    ds, min_samples = workload.probe_input()
    metrics.update(layers.root_probes(ds, min_samples))
    traced_s, plain_s = median_sum(reps), median_sum(plain)
    metrics["tracing.overhead_s"] = traced_s - plain_s
    metrics["tracing.overhead_ratio"] = traced_s / plain_s - 1.0

    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "segments": segments,
                   "spans": tracer.span_records()}, fh)
    print(f"trace written to {path.relative_to(ROOT)}", flush=True)
    return metrics


def record_digests(args, run: Run) -> int:
    if args.seed != DIGEST_SEED or run.failed:
        print("error: digests are recorded at seed 0 from a run without failures", file=sys.stderr)
        return 1
    stored = {}
    if DIGESTS.exists():
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    stored[args.workload] = dict(sorted(run.first.items()))
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(run.first)} digests for {args.workload}")
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{w['name']}] {line}")
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            print(f"error: {w['name']} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print(f"[{w['name']}] {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the outputs' digests at seed 0 instead of checking them")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args, spec)
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import nantree from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
