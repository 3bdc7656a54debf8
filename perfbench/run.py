"""tribelief benchmark: the sweep, roundtrip and cli workloads.

    python3 perfbench/run.py --workload sweep|roundtrip|cli|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/tribelief``.  Every workload runs in fresh worker processes
(worker.py) with one caller in a closed loop: the next op starts when the
previous one has finished and been checked.

``--trace 0`` reports the end-to-end metrics, measured untraced.  The
measuring process runs its ops in SETUP_CHUNKS chunks; after each chunk,
SETUP_PER_CHUNK fresh processes time set-up alone.  Set-up is reported as
the median of these and the measuring process's own, so that its samples
span the same stretch of time as the ops, not one spell of a machine whose
speed drifts from second to second.

``--trace 1`` reports the per-layer metrics.  It runs the workload untraced
for half the time, then exactly the same ops again in a fresh process with
tracer.py's wrappers, and reports the difference as the tracing overhead.
For cli the traced ops are the same argvs through ``tribelief.cli.main`` in
process, compared with an untraced in-process replay.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record of each run, with the environment, goes to perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import SWEEP_BLOCK

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep", "roundtrip", "cli")
SETUP_CHUNKS = 10  # chunks of a --trace 0 run, each followed by set-up processes
SETUP_PER_CHUNK = 2
IMPORT_REPS = 5
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
WORKER_TIMEOUT_S = 150

# Self times go into the JSON line only for the layers every workload runs,
# so that no reported time reads 0 on every run of some workload; the report
# lines and the run record carry the self time of every layer.
SELF_TIMED = ("semantics.value_profile", "ranking.formula_of_ranking")


def declared_units(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}


class BenchError(Exception):
    pass


def spawn(workload, seed, *options, chunks=(), between=None):
    """Run one worker; returns (seconds until it printed READY, its result).

    The worker runs ops for each of `chunks` seconds in turn; `between` is
    called after each chunk, while the worker waits.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    proc = subprocess.Popen([*cmd, *options], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    first = rest = ""
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        if first.strip() == "READY":
            for seconds in chunks:
                print(seconds, file=proc.stdin, flush=True)
                if proc.stdout.readline().strip() != "DONE":
                    break
                if between is not None:
                    between()
        proc.stdin.close()
        rest = proc.stdout.read()
        proc.wait()
    except BrokenPipeError:
        pass  # the worker died; its exit code says so below
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} worker {' '.join(options)} exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def timed_command(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT, env=env)
    return perf_counter() - start


def import_ms():
    """Median of ``import tribelief.cli`` minus median of a bare interpreter."""
    bare, loaded = [], []
    for _ in range(IMPORT_REPS):
        bare.append(timed_command("pass"))
        loaded.append(timed_command("import tribelief.cli"))
    return (statistics.median(loaded) - statistics.median(bare)) * 1000


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples beyond it, or the maximum of a short run."""
    ordered = sorted(values)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def commit():
    if (ROOT / ".git").exists():  # not some enclosing repository's HEAD
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    return "unknown"


def environment(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
    }


def failure_lines(runs):
    """The kept failure witnesses of each (label, result) run."""
    lines = []
    for label, result in runs:
        lines += [f"  FAILED {label} {entry}" for entry in result["failures"]]
        lines += [f"  KNOWN DEFECT {label} {entry}" for entry in result["known_defects"]]
    return lines


def end_to_end(workload, seed, seconds):
    spawn(workload, seed, "--setup-only")  # unmeasured: fills __pycache__ and the file cache
    setups = []

    def time_setups():
        setups.extend(spawn(workload, seed, "--setup-only")[0] for _ in range(SETUP_PER_CHUNK))

    ready, result = spawn(workload, seed, chunks=[seconds / SETUP_CHUNKS] * SETUP_CHUNKS, between=time_setups)
    setups.append(ready)
    op_s = result["op_s"]
    count, known = len(op_s), len(result["known_defects"])
    tail_s, tail_pct, beyond = tail(op_s)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": result["work"] / sum(op_s),
        "op_p50_ms": statistics.median(op_s) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    unit = {"sweep": "tables", "roundtrip": "rankings", "cli": "commands"}[workload]
    op_name = {"sweep": f"block of {SWEEP_BLOCK} tables", "roundtrip": "ranking", "cli": "command"}[workload]
    errors = result["failed"] + known
    lines = [
        f"setup_s          {metrics['setup_s']:.4f} s      median of {len(setups)} fresh processes (import + warm-up), "
        f"taken between {SETUP_CHUNKS} chunks of ops",
        f"throughput_per_s {metrics['throughput_per_s']:.2f} {unit}/s   {result['work']} {unit} in {sum(op_s):.2f} s of ops",
        f"op_p50_ms        {metrics['op_p50_ms']:.3f} ms    one op = one {op_name}; n={count}",
        f"op_tail_ms       {metrics['op_tail_ms']:.3f} ms    p{tail_pct:.1f}, {beyond} of n={count} beyond",
        f"error_rate       {errors / count:.4f}       {errors} failed of {count} attempted"
        + (f" ({known} of them the known deep-input defect)" if known else ""),
        f"peak_rss_mb      {metrics['peak_rss_mb']:.2f} MB     "
        + ("largest child process" if workload == "cli" else "the measuring process"),
    ]
    if workload == "cli":
        lines.append("per-command p50 ms: " + per_kind(result))
    if "caches" in result:
        lines.append("cache deltas: " + cache_text(result["caches"]))
    lines += failure_lines([("", result)])
    summary = {"correct": result["failed"] == 0, "attempted": count, "failed": result["failed"]}
    return metrics, lines, summary, {"known_defects": result["known_defects"], "caches": result.get("caches")}


def per_kind(result):
    by_kind = {}
    for kind, seconds in zip(result["kinds"], result["op_s"]):
        by_kind.setdefault(kind, []).append(seconds)
    return "  ".join(f"{kind} {statistics.median(v) * 1000:.0f} (n={len(v)})" for kind, v in sorted(by_kind.items()))


def hit_ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def cache_text(caches):
    return "  ".join(
        f"{name} {hits}/{hits + misses} hits ({hit_ratio(hits, misses):.4f})" for name, (hits, misses) in caches.items()
    )


def per_layer(workload, seed, seconds):
    _, untraced = spawn(workload, seed, chunks=[seconds / 2])
    count = len(untraced["op_s"])
    spans_path = OUT / f"spans-{workload}.csv.gz"  # the latest traced run of each workload
    runs = [("untraced", untraced)]
    lines, extra = [], {}
    if workload == "cli":
        # process_ms from the subprocess run; main_ms from an untraced in-process replay
        _, replay = spawn(workload, seed, "--ops", str(count), "--in-process")
        _, traced = spawn(workload, seed, "--ops", str(count), "--in-process", "--trace", "--spans", str(spans_path))
        runs += [("in-process", replay), ("traced", traced)]
        process, main = untraced["op_s"], replay["op_s"]
        extra = {
            "cli.process_ms": statistics.median(process) * 1000,
            "cli.main_ms": statistics.median(main) * 1000,
            "cli.startup_ms": statistics.median(p - m for p, m in zip(process, main)) * 1000,
        }
        lines.append(
            "  ".join(f"{name} {value:.2f}" for name, value in extra.items())
            + f"  (medians over n={count} commands; startup is the per-command difference)"
        )
        baseline = replay
    else:
        _, traced = spawn(workload, seed, "--ops", str(count), "--trace", "--spans", str(spans_path))
        runs.append(("traced", traced))
        baseline = untraced
    base_s, traced_s = sum(baseline["op_s"]), sum(traced["op_s"])
    overhead = (traced_s - base_s) / base_s * 100

    layers, counters, caches = traced["layers"], traced["counters"], traced["caches"]
    metrics = {}
    for name, (calls, _) in layers.items():
        metrics[f"{name}.calls"] = calls
    for name, value in counters.items():
        metrics[name] = value
    for name, (hits, misses) in caches.items():
        metrics[f"{name}.lookups"] = hits + misses
        metrics[f"{name}.hit_ratio"] = hit_ratio(hits, misses)
    for name in SELF_TIMED:
        metrics[f"{name}.self_ms"] = layers[name][1] * 1000
    metrics["cli.import_ms"] = import_ms()
    metrics["cli.known_defect_failed"] = len(traced["known_defects"])
    metrics["trace.ops"] = count
    metrics["trace.overhead_pct"] = overhead

    traced_total = sum(self_s for _, self_s in layers.values())
    lines.append(f"per-layer self time over {count} traced ops ({traced['spans']} spans, written to {spans_path.relative_to(ROOT)}):")
    for name, (calls, self_s) in sorted(layers.items(), key=lambda item: -item[1][1]):
        if calls:
            lines.append(f"  {name:42s} calls {calls:9d}  self_ms {self_s * 1000:10.2f}  {self_s / traced_total * 100:5.1f}%")
    lines.append("counters: " + "  ".join(f"{name} {value}" for name, value in counters.items()))
    lines.append("cache deltas (traced run): " + cache_text(caches))
    if workload == "roundtrip":
        repeats = traced["repeated_inputs"]
        lines.append(
            f"roundtrip: {repeats} of {count} drawn rankings repeat an earlier one (share {repeats / count:.4f}); "
            f"formula_of_ranking hit_ratio {metrics['ranking.formula_of_ranking.hit_ratio']:.4f} "
            f"of {metrics['ranking.formula_of_ranking.lookups']} lookups"
        )
    lines.append(f"cli.import_ms {metrics['cli.import_ms']:.2f} ms (import tribelief.cli minus a bare interpreter, medians of {IMPORT_REPS})")
    lines.append(f"tracing overhead {overhead:.2f}% ({traced_s:.3f} s traced vs {base_s:.3f} s untraced, same {count} ops)")
    lines += failure_lines(runs)
    failed = sum(r["failed"] for _, r in runs)
    summary = {"correct": failed == 0, "attempted": sum(len(r["op_s"]) for _, r in runs), "failed": failed}
    extra["layers"] = {name: {"calls": calls, "self_ms": self_s * 1000} for name, (calls, self_s) in layers.items()}
    return metrics, lines, summary, extra


def run_workload(workload, seed, seconds, trace, units):
    env = environment(workload, seed, seconds, trace)
    measure = per_layer if trace else end_to_end
    values, lines, summary, extra = measure(workload, seed, seconds)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"== {workload}  seed {seed}  {seconds:g} s  trace {trace}  python {env['python']}  cores {env['cores']}  commit {env['commit'][:12]}")
    for line in lines:
        print(line)
    OUT.mkdir(exist_ok=True)
    record = {**env, **summary, "metrics": metrics, **extra}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return metrics, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "tribelief" / "__init__.py").is_file():
        print(f"perfbench: no tribelief sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        units = declared_units(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot read the metrics from BENCHMARK.json: {exc!r}", file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, totals = {}, {"correct": True, "attempted": 0, "failed": 0}
    try:
        for workload in chosen:
            metrics, summary = run_workload(workload, args.seed, args.seconds, args.trace, units)
            prefix = f"{workload}." if len(chosen) > 1 else ""
            combined.update({prefix + name: metric for name, metric in metrics.items()})
            totals["correct"] &= summary["correct"]
            totals["attempted"] += summary["attempted"]
            totals["failed"] += summary["failed"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({**totals, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
