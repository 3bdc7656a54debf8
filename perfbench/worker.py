"""One workload in a fresh process, so its set-up time and memory are its own.

    python3 perfbench/worker.py --root ROOT --workload W --seed N
        [--ops K] [--setup-only] [--in-process] [--trace] [--spans PATH]

Imports tribelief from ROOT/src, warms up and prints ``READY`` (the parent
times set-up up to that line).  With ``--ops K`` it then runs exactly K ops.
Otherwise it reads one number of seconds per line from standard input, runs
ops for that long (at least one op) and prints ``DONE``, so that the parent
can time set-up processes between these chunks; at the end of its input it
stops.  Either way it prints one JSON object last.  ``--in-process`` runs
cli commands through ``tribelief.cli.main`` instead of a subprocess;
``--trace`` wraps the modules' public functions (tracer.py) before the first
op.
"""

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracer import Tracer

FAILURES_KEPT = 5


def peak_rss_mb(children):
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # VmHWM is this process's own peak; ru_maxrss would also count what the
    # parent had resident when it started us.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def lru_caches():
    """tribelief's lru-cached functions, taken before any tracing wraps them."""
    from tribelief import ranking, semantics

    return {
        "ranking.formula_of_ranking": ranking.formula_of_ranking,
        "ranking.capture_valuation": ranking.capture_valuation,
        "semantics.interpretations": semantics.interpretations,
    }


def cache_counts(caches):
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


def make_workload(name, seed, root, in_process):
    if name == "cli" and not in_process:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(root / "src"), env.get("PYTHONPATH"))))
        return workloads.Cli(seed, root, env)
    import tribelief
    import tribelief.cli  # every module must be loaded before tracing

    if not Path(tribelief.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"tribelief imported from {tribelief.__file__}, not from {root / 'src'}")
    if name == "cli":
        return workloads.Cli(seed, root, env=None)
    return workloads.Sweep(seed) if name == "sweep" else workloads.Roundtrip(seed)


def new_result():
    return {"op_s": [], "kinds": [], "work": 0, "failed": 0, "failures": [], "known_defects": []}


def measure(workload, run, result, seconds=None, count=None):
    """Add ops to result: for `seconds` (at least one op), or until it holds `count` ops."""
    op_s = result["op_s"]
    start = perf_counter()
    first = True
    while len(op_s) < count if count is not None else (first or perf_counter() - start < seconds):
        first = False
        op = workload.next_op()
        t0 = perf_counter()
        out = None
        try:
            out = run(op)
            witness = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            witness = f"raised {type(exc).__name__}: {str(exc)[:160]}"
        elapsed = perf_counter() - t0
        if witness is None:
            try:
                witness = workload.check(op, out)
            except Exception as exc:
                witness = f"output not checkable: {type(exc).__name__}: {str(exc)[:160]}"
        result["work"] += workload.work(op)
        op_s.append(elapsed)
        result["kinds"].append(op.kind)
        if witness is None:
            continue
        entry = f"op {len(op_s)} ({workloads.describe(op)}): {witness}"
        if workloads.known_defect(op, out):
            result["known_defects"].append(entry)
        else:
            result["failed"] += 1
            if len(result["failures"]) < FAILURES_KEPT:
                result["failures"].append(entry)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=("sweep", "roundtrip", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    subprocesses = args.workload == "cli" and not args.in_process
    workload = make_workload(args.workload, args.seed, args.root, args.in_process)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return

    caches = None if subprocesses else lru_caches()
    run = workload.run
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("op", run)
    before = None if caches is None else cache_counts(caches)

    result = new_result()
    if args.ops is not None:
        measure(workload, run, result, count=args.ops)
    else:
        for line in sys.stdin:
            measure(workload, run, result, seconds=float(line))
            print("DONE", flush=True)

    result["peak_rss_mb"] = peak_rss_mb(children=subprocesses)
    if caches is not None:
        result["caches"] = {
            name: [hits - before[name][0], misses - before[name][1]]
            for name, (hits, misses) in cache_counts(caches).items()
        }
    if isinstance(workload, workloads.Roundtrip):
        result["repeated_inputs"] = workload.repeats
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = tracer.counters
        result["spans"] = len(tracer.span_id)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
