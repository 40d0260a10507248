"""The repository benchmark: the paper's artifact flow, end to end.

Run from the root of a checkout::

    python3 flowbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

Four workloads (see :mod:`flows`): ``campaign`` (Algorithm 1 over the
catalog, Tables 3/4, Fig. 6), ``evaluation`` (the Fig. 17/18 mitigation
grid, Fig. 16 on its baseline cache, Fig. 19), ``service`` (a closed-loop
client of ``serve-api`` on a 2-worker fleet) and ``checked`` (physics
guards, a strict protocol-checked campaign and sweep).  ``--workload all``
runs the four in turn.

A run repeats *passes* of one workload for ``--seconds``, ten to fifteen
of them in 30 seconds; each pass is a fresh interpreter (:mod:`passrun`)
at the default execution policy, the batch workloads on the local
scheduler at ``jobs=1`` and pinned to the CPU that runs a short probe
loop fastest as the pass starts (:func:`fastest_cpu`).  The same seed
gives every pass the same inputs, so each timed unit -- a pass segment, a
task, a job, a repeat -- recurs once per pass, and the run takes each unit
at its best repetition: each vCPU of a shared host slows by up to ~1.7x
in spells of seconds to tens of seconds, and some repetition of a short
unit lands in a fast one.  ``wall_s`` adds up the best segments,
which tile a pass from its first call to its checked outputs;
``op_mean_ms`` is the mean operation at its best (the median and the tail
are printed beside it); ``setup_s`` is the median over the passes.  With
``--trace 0`` the passes are untraced and the run reports the end-to-end
metrics; with
``--trace 1`` the first half of the time runs untraced passes and the
rest traced ones (:mod:`tracing`), and the run reports the per-layer
metrics.  Every pass's outputs are digested and checked: against
``reference.json`` at the default seed, and on any seed against the first
pass of the run and against the re-read repeat.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A record with the environment (``nproc``, Python and numpy
versions, the kernel each stage resolves to) lands in
``.flowbench/results/``.

``--scale smoke`` shrinks every workload to seconds; ``--fleet-gap``
attributes the service's fleet-vs-local new-job gap; ``--record-reference``
re-pins ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "evaluation", "service", "checked")
DEFAULT_SEED = 0  # keep equal to flows.DEFAULT_SEED (run.py stays import-light)

#: End-to-end metric -> unit.  Every workload reports every metric; what
#: "work" and an "operation" are differs per workload (see ``--help``).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
    "op_mean_ms": "ms",
    "repeat_p50_ms": "ms",
}

#: Operation latencies the run prints beside the end-to-end metrics but
#: does not report in its result object (see ``summarize``).
PRINTED_ONLY = {"op_p50_ms": "ms", "op_tail_ms": "ms"}

WORK_UNITS = {
    "campaign": ("persisted row measurements", "one module's task"),
    "evaluation": ("simulated requests x cores", "one grid point's task"),
    "service": ("completed jobs", "a new job, submit to figure"),
    "checked": ("row measurements + simulated requests",
                "one module's or grid point's task"),
}

#: The names the workload's own figures go by, printed beside the generic
#: end-to-end metrics they are.
ALIASES = {
    "campaign": {"measurements_per_s": "work_per_s"},
    "evaluation": {"sim_requests_per_s": "work_per_s"},
    "service": {"job_mean_ms": "op_mean_ms", "job_p50_ms": "op_p50_ms",
                "job_tail_ms": "op_tail_ms", "dedup_p50_ms": "repeat_p50_ms"},
    "checked": {},
}

#: A run starts no pass that would end past its deadline, but always makes
#: at least this many (a best repetition needs repetitions).
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, samples)`` (the maximum below 11 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = max(n - 11, 0) if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def best_of(passes: list[dict], key: str) -> dict[str, float]:
    """Per name, the smallest value over the passes' ``[(name, value)]``
    lists under ``key``: each timed unit at its best repetition."""
    best: dict[str, float] = {}
    for p in passes:
        for name, value in p[key]:
            best[name] = min(value, best.get(name, value))
    return best


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant
    (the kernel folds grandchildren, e.g. fleet workers, into a child's
    figure when the child reaps them)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def spin(iterations: int = 60_000) -> int:
    """A fixed piece of interpreter work, a few milliseconds long."""
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def fastest_cpu() -> int | None:
    """The CPU that runs :func:`spin` fastest right now (``None`` with
    only one).  Each vCPU of a shared host slows by up to ~1.7x in spells
    of seconds to tens of seconds, largely independently of the other, so
    a pass pinned to the faster one at its start runs slowed less often."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    best = dict.fromkeys(cpus, float("inf"))
    try:
        for _ in range(3):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                spin()
                best[cpu] = min(best[cpu], time.perf_counter() - start)
    finally:
        os.sched_setaffinity(0, cpus)
    return min(best, key=best.get)


def run_pass(root: Path, args: argparse.Namespace, trace: int,
             workdir: Path, cpu: int | None = None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "pass.json"
    env = dict(os.environ)
    env.pop("FLOWBENCH_TRACE_DIR", None)
    # Fleet workers make their scratch directories through tempfile: keep
    # them inside the checkout too.
    scratch = root / ".flowbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "passrun.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--scheduler", args.scheduler,
               "--trace", str(trace), "--workdir", str(workdir),
               "--out", str(out)]
    if cpu is not None:
        command += ["--cpu", str(cpu)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
        record = json.loads(out.read_text()) if out.exists() else {}
        if proc.returncode and "error" not in record:
            record["error"] = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
    except subprocess.TimeoutExpired:
        record = {"error": f"pass exceeded {PASS_TIMEOUT_S}s"}
    record["trace_on"] = trace
    record["elapsed_s"] = time.perf_counter() - spawned
    if "ready" in record:
        record["setup_s"] = record["ready"] - spawned
    for child in workdir.iterdir():  # keep only the spans
        if child.name != "trace":
            if child.is_dir():
                shutil.rmtree(child, ignore_errors=True)
            else:
                child.unlink()
    return record


def run_workload(root: Path, args: argparse.Namespace) -> dict:
    """All passes of one run; returns the result record."""
    rundir = root / ".flowbench" / "runs" / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    start = time.perf_counter()
    deadline = start + args.seconds
    # Traced and untraced halves make about as many passes each, so their
    # best repetitions compare (trace_overhead_frac).
    untraced_until = start + (args.seconds / 2 if args.trace else
                              args.seconds)
    passes: list[dict] = []

    def want(trace: int) -> bool:
        done = [p for p in passes if p["trace_on"] == trace]
        if not done or (not args.trace and len(done) < MIN_PASSES):
            return True
        limit = untraced_until if args.trace and not trace else deadline
        longest = max(p["elapsed_s"] for p in passes)
        return time.perf_counter() + longest <= limit

    for trace in ((0, 1) if args.trace else (0,)):
        while want(trace):
            # serve-api and its fleet workers use every CPU: only batch
            # passes are pinned.
            cpu = fastest_cpu() if args.workload != "service" else None
            passes.append(run_pass(root, args, trace,
                                   rundir / f"pass-{len(passes)}", cpu))
            if "error" in passes[-1]:
                return summarize(args, passes)
    return summarize(args, passes)


def summarize(args: argparse.Namespace, passes: list[dict]) -> dict:
    ok = [p for p in passes if "error" not in p]
    errors = [p["error"] for p in passes if "error" in p]
    attempted = sum(p["attempted"] for p in ok) + len(errors)
    failed = sum(p["failed"] for p in ok) + len(errors)
    # Same seed, same inputs: every pass, traced or not, must produce the
    # same bytes as the first.
    for p in ok[1:]:
        attempted += len(p["outputs"])
        failed += sum(1 for name, value in p["outputs"].items()
                      if ok[0]["outputs"].get(name) != value)
    record = {"workload": args.workload, "seed": args.seed,
              "scale": args.scale, "trace": args.trace,
              "scheduler": args.scheduler, "seconds": args.seconds,
              "passes": len(passes), "errors": errors,
              "pass_times": [{key: p.get(key) for key in
                              ("trace_on", "setup_s", "wall_s", "repeat_s",
                               "elapsed_s")}
                             for p in passes],
              "attempted": attempted, "failed": failed,
              "correct": bool(ok) and not errors and failed == 0,
              "env": dict(ok[0]["env"] if ok else {},
                          runner_python=platform.python_version())}
    untraced = [p for p in ok if not p["trace_on"]]
    traced = [p for p in ok if p["trace_on"]]
    if untraced:
        # A vCPU's speed swings by up to ~1.7x in spells of seconds, so
        # every timed unit (pass segment, task, job, repeat) is taken at its
        # best repetition in the run; wall_s adds up the segments, which
        # tile the pass.
        segments = best_of(untraced, "segments")
        wall = sum(segments.values())
        ops = list(best_of(untraced, "ops").values())
        # The median and the tail are printed, not bounded: a service job's
        # latency steps by the stream verb's 50 ms poll, so a median or a
        # tail of a few jobs jumps by whole steps; a mean does not.
        pooled, percentile, samples = tail(
            [ms for p in untraced for _, ms in p["ops"]])
        record["op_stats"] = {"op_p50_ms": median(ops), "op_tail_ms": pooled,
                              "tail_percentile": percentile,
                              "samples": samples}
        record["best_segments_s"] = segments
        # Every repetition of every timed unit, so another statistic over
        # the same passes can be computed from the saved record.
        record["pass_detail"] = [{key: p[key] for key in
                                  ("setup_s", "segments", "ops", "repeats")}
                                 for p in untraced]
        record["end_to_end"] = {
            "wall_s": wall,
            "setup_s": median([p["setup_s"] for p in untraced]),
            "peak_rss_mb": peak_rss_mb(),
            "work_per_s": untraced[0]["work"] / wall,
            "op_mean_ms": sum(ops) / len(ops),
            "repeat_p50_ms": median(list(best_of(untraced,
                                                 "repeats").values())),
        }
    if traced and untraced:
        merged = tracing.merge(p["trace"] for p in traced)
        traced_wall = sum(best_of(traced, "segments").values())
        record["per_layer"] = tracing.per_layer(
            merged, len(traced),
            sum(p["wall_s"] + p["repeat_s"] for p in traced),
            traced_wall / record["end_to_end"]["wall_s"] - 1)
        record["trace_counts"] = merged["counts"]
        record["traced_passes"] = len(traced)
        record["ops_per_pass"] = median([len(p["ops"]) for p in traced])
    return record


def report(record: dict) -> dict:
    """Print the human summary; return the contract's result object."""
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    work, operation = WORK_UNITS[record["workload"]]
    print(f"{record['workload']}: {record['passes']} passes; work = {work}; "
          f"operation = {operation}")
    for error in record["errors"]:
        print(f"pass failed: {error}", file=sys.stderr)
    if record["trace"]:
        units, values = tracing.PER_LAYER_UNITS, record.get("per_layer", {})
    else:
        units, values = END_TO_END, record.get("end_to_end", {})
    metrics = {}
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<36} {values[name]:>14.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    if not record["trace"]:
        stats = record.get("op_stats", {})
        notes = {"op_p50_ms": "of the operations at their best",
                 "op_tail_ms": f"p{stats.get('tail_percentile', 0):.1f} of "
                               f"all {stats.get('samples', 0)} samples"}
        for name, unit in PRINTED_ONLY.items():
            if name in stats:
                print(f"  {name:<36} {stats[name]:>14.6g} {unit}  "
                      f"({notes[name]}; printed, not bounded)")
        for alias, name in ALIASES[record["workload"]].items():
            value = values.get(name, stats.get(name))
            if value is not None:
                unit = units.get(name) or PRINTED_ONLY[name]
                print(f"  {alias:<36} {value:>14.6g} {unit}  (= {name})")
        print(f"  {'failed_frac':<36} "
              f"{record['failed'] / max(record['attempted'], 1):>14.6g} "
              f"ratio  ({record['failed']} of {record['attempted']})")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def save(root: Path, record: dict) -> None:
    results = root / ".flowbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{record['workload']}-seed{record['seed']}-{record['scale']}"
            f"-trace{record['trace']}-{record['scheduler']}.json")
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True))


def fleet_gap(root: Path, args: argparse.Namespace) -> dict:
    """The service workload traced on the fleet and on the local scheduler
    at one seed, side by side per new job: which named ``runtime.*`` and
    ``service.*`` figures make up the fleet's extra new-job latency."""
    rows = {}
    for scheduler in ("fleet", "local"):
        run = argparse.Namespace(**vars(args))
        run.workload, run.trace, run.scheduler = "service", 1, scheduler
        record = run_workload(root, run)
        save(root, record)
        rows[scheduler] = record

    def per_job(record: dict, counter: str, scale: float = 1e3) -> float:
        return (scale * record["trace_counts"].get(counter, 0)
                / record["traced_passes"] / record["ops_per_pass"])

    def layer(record: dict, name: str) -> float:
        return record["per_layer"][name]

    figures = {
        "new_job_p50_ms": lambda r: r["op_stats"]["op_p50_ms"],
        "new_job_mean_ms": lambda r: r["end_to_end"]["op_mean_ms"],
        "scheduler_run_ms": lambda r: per_job(r, "runtime.engine.run.s"),
        "fleet_spawn_ms": lambda r: layer(r, "runtime.distributed.spawn_ms"),
        "fleet_teardown_ms":
            lambda r: layer(r, "runtime.distributed.teardown_ms"),
        "leases": lambda r: (layer(r, "runtime.distributed.leases")
                             / r["ops_per_pass"]),
        "worker_idle_polls":
            lambda r: per_job(r, "runtime.distributed.idle_polls", 1),
        "worker_busy_ms":
            lambda r: per_job(r, "runtime.distributed.worker_busy_s"),
        "wire_frames": lambda r: per_job(r, "runtime.wire.frames", 1),
        "wire_recv_wait_ms": lambda r: per_job(r, "runtime.wire.recv.s"),
        "stream_p50_ms": lambda r: layer(r, "service.stream_ms"),
        "queue_wait_p50_ms": lambda r: layer(r, "service.queue_wait_ms"),
    }
    print(f"{'per new job':<22} {'fleet':>10} {'local':>10} {'fleet-local':>12}")
    metrics = {}
    for name, figure in figures.items():
        fleet, local = figure(rows["fleet"]), figure(rows["local"])
        print(f"{name:<22} {fleet:>10.2f} {local:>10.2f} {fleet - local:>12.2f}")
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[f"{name}.fleet"] = {"value": fleet, "unit": unit}
        metrics[f"{name}.local"] = {"value": local, "unit": unit}
    return {"correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "metrics": metrics}


def record_reference(root: Path, args: argparse.Namespace) -> dict:
    """Re-pin ``reference.json``: one untraced pass per workload and scale
    at the default seed."""
    pinned: dict = {}
    path = HERE / "reference.json"
    for workload in WORKLOADS:
        for scale in ("full", "smoke"):
            run = argparse.Namespace(**vars(args))
            run.workload, run.scale, run.seed = workload, scale, DEFAULT_SEED
            record = run_pass(root, run, 0, root / ".flowbench" / "runs"
                              / f"reference-{workload}-{scale}")
            if "error" in record:
                raise SystemExit(record["error"])
            pinned.setdefault(workload, {})[scale] = record["outputs"]
            print(f"{workload}/{scale}: {len(record['outputs'])} outputs")
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--fleet-gap", action="store_true",
                        help="trace the service workload on the fleet and "
                             "on the local scheduler and compare them")
    parser.add_argument("--record-reference", action="store_true",
                        help="re-pin reference.json at the default seed")
    parser.set_defaults(scheduler="fleet")  # --fleet-gap also runs "local"
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        result = record_reference(root, args)
    elif args.fleet_gap:
        result = fleet_gap(root, args)
    elif args.workload == "all":
        # One process per workload, so each peak_rss_mb is its own.
        result = {"correct": True, "attempted": 0, "failed": 0,
                  "metrics": {}}
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", args.scale],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            part = json.loads(lines[-1]) if proc.returncode == 0 else {
                "correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            result["correct"] = result["correct"] and part["correct"]
            result["attempted"] += part["attempted"]
            result["failed"] += part["failed"]
            result["metrics"].update(
                {f"{workload}.{name}": value
                 for name, value in part["metrics"].items()})
    else:
        record = run_workload(root, args)
        save(root, record)
        if not record.get("end_to_end"):
            print("error: no pass completed", file=sys.stderr)
            for error in record["errors"]:
                print(error, file=sys.stderr)
            return 1
        result = report(record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
