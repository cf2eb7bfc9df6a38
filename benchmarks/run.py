"""ringlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 benchmarks/run.py --workload sr-corpus --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
workloads are defined in ``workloads.py``.  One process, one thread, a closed
loop over the items of a pass.  A run makes about ``--seconds`` worth of
passes, and at least two; an item's time is the median over its passes, and
``wall_s`` is the sum of those medians.

Times are scaled to a reference machine speed measured in the run itself (see
``run_pass``), because other tenants of a shared machine change its speed by
tens of percent within minutes.  The raw pass times and the probe times are
printed with the results.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one plain
and one traced pass and prints the per-layer metrics (``layers.py``) with the
overhead of tracing.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines above it give a
table of every metric with its unit, the run environment and the guard
counts.  Exit status: 0 when every item passed its check, 1 when one did not,
2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = (
    "fields", "linalg", "graphs", "monomials", "constructions", "sr_invariants",
    "artin", "modules", "verify", "cli",
)  # fmt: skip
SETUP_REPEATS = 5
MIN_TAIL_BEYOND = 10
# Times are scaled to a machine that runs reference_task in REFERENCE_S.
REFERENCE_S = 0.002

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_ringlab() -> types.SimpleNamespace:
    """Import ringlab afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "ringlab" or m.startswith("ringlab.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"ringlab.{m}") for m in MODULES})


def git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    package = os.path.join(SRC, "ringlab")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def tail(sorted_times: list[float]) -> tuple[float, float]:
    """The value with exactly MIN_TAIL_BEYOND items above it, and its percentile."""
    n = len(sorted_times)
    k = max(n - MIN_TAIL_BEYOND - 1, 0)
    return sorted_times[k], 100.0 * (k + 1) / n


def reference_task() -> int:
    """A fixed pure-Python task of the same kind as the library's work (small
    tuples, frozensets, dicts, sorting) that calls no ringlab code."""
    acc = 0
    for k in range(10):
        items = [((i * 7919 + k) % 53, (i * 104729) % 47, i % 5) for i in range(150)]
        table = {t: i for i, t in enumerate(items)}
        sets = [frozenset(t) for t in items[:30]]
        acc += sum(table[t] for t in sorted(table)) + sum(a <= b for a in sets for b in sets)
    return acc


def probe(walls: list, cpus: list) -> None:
    """Append the wall and CPU time of the reference task, the better of two runs."""
    wall = cpu = float("inf")
    for _ in range(2):
        c0, t0 = time.process_time(), time.perf_counter()
        reference_task()
        t1, c1 = time.perf_counter(), time.process_time()
        wall, cpu = min(wall, t1 - t0), min(cpu, c1 - c0)
    walls.append(wall)
    cpus.append(cpu)


def run_pass(items, probe_every: int, guard, tracer=None) -> dict:
    """One closed-loop pass over the items; each is timed and then checked.

    Other tenants of a shared machine slow it down by tens of percent for
    minutes at a time.  So each item's times are also given scaled by the
    speed of the machine at that moment: by REFERENCE_S over the mean of the
    probes taken just before and just after it.  A probe runs before every
    ``probe_every``-th item, a fixed place, so that the garbage collections
    its allocations cause fall on the same items in every pass.
    """
    gc.collect()
    raw_times, raw_cpus, kinds, verdicts, chunk_of = [], [], [], [], []
    failures = []
    groups: dict[str, Counter] = {}
    clock, cpu_clock = time.perf_counter, time.process_time
    probe_walls, probe_cpus = [], []
    for index, item in enumerate(items):
        if index % probe_every == 0:
            probe(probe_walls, probe_cpus)
        before = Counter(guard.counts)
        error = None
        c0, t0 = cpu_clock(), clock()
        try:
            if tracer is None:
                result = item.run()
            else:
                with tracer.span("item." + item.kind):
                    result = item.run()
        except Exception:  # an item that raises is a failed item, not a crashed run
            error = traceback.format_exc(limit=4)
        t1, c1 = clock(), cpu_clock()
        raw_times.append(t1 - t0)
        raw_cpus.append(c1 - c0)
        kinds.append(item.kind)
        chunk_of.append(len(probe_walls) - 1)
        groups.setdefault(item.group, Counter()).update(guard.counts - before)
        if error is None:
            try:
                ok = item.check(result)
            except Exception:
                ok, error = False, traceback.format_exc(limit=4)
            if not ok and error is None:
                error = f"wrong verdict: {result!r}"[:500]
        verdicts.append(error is None)
        if error is not None:
            failures.append(f"{item.kind} [{item.group}]: {error}")
    probe(probe_walls, probe_cpus)
    wall_scale = [2 * REFERENCE_S / (probe_walls[k] + probe_walls[k + 1]) for k in chunk_of]
    cpu_scale = [2 * REFERENCE_S / (probe_cpus[k] + probe_cpus[k + 1]) for k in chunk_of]
    return {
        "times": [t * f for t, f in zip(raw_times, wall_scale)],
        "cpus": [t * f for t, f in zip(raw_cpus, cpu_scale)],
        "raw_times": raw_times,
        "probe_ms": 1000 * statistics.median(probe_walls),
        "kinds": kinds,
        "verdicts": verdicts,
        "failures": failures,
        "groups": groups,
    }


def check_guards(workload, passes) -> list[dict]:
    out = []
    for group, counter, expected in workload.guards:
        got = set()
        for p in passes:
            if group is None:
                got.add(sum(c[counter] for c in p["groups"].values()))
            else:
                got.add(p["groups"].get(group, Counter())[counter])
        out.append({"group": group or "pass", "counter": counter, "expected": expected,
                    "got": sorted(got), "held": got == {expected}})  # fmt: skip
    return out


def with_setup(setup_trace, spans, counts) -> tuple[list, Counter]:
    """Prefix a pass's spans and counts with those of the traced set-up."""
    setup_spans, setup_counts = setup_trace
    shift = len(setup_spans)
    spans = [(n, tag, p + shift if p >= 0 else p, t0, t1) for n, tag, p, t0, t1 in spans]
    return setup_spans + spans, setup_counts + counts


def item_medians(passes, key: str) -> list[float]:
    """Per item, the median over its passes.  On a machine shared with other
    work this is steadier from run to run than a pass total or a minimum."""
    return [statistics.median(ts) for ts in zip(*(p[key] for p in passes))]


def end_to_end(passes, setup_times) -> dict[str, float]:
    times = item_medians(passes, "times")
    return {
        "wall_s": sum(times),
        "cpu_s": sum(item_medians(passes, "cpus")),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_tail_ms": 1000 * tail(sorted(times))[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ringlab", "__init__.py")):
        print(f"error: no ringlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
    }

    # set-up: import, corpus enumeration and seeded sampling, several times
    setup_times = []
    for _ in range(SETUP_REPEATS):
        rl = inputs = None
        gc.collect()
        walls: list = []
        probe(walls, [])
        t0 = time.perf_counter()
        rl = import_ringlab()
        inputs, setup_checks = workload.prepare(rl, args.seed)
        t1 = time.perf_counter()
        probe(walls, [])
        setup_times.append((t1 - t0) * 2 * REFERENCE_S / sum(walls))
    env["ringlab"] = os.path.dirname(sys.modules["ringlab"].__file__)
    if os.path.realpath(env["ringlab"]) != os.path.realpath(os.path.join(SRC, "ringlab")):
        print(f"error: imported ringlab from {env['ringlab']}, not from {SRC}", file=sys.stderr)
        return 2

    modules = {m: getattr(rl, m) for m in MODULES}
    setup_trace: tuple = ([], Counter())
    if args.trace:
        # one more set-up, traced, for the layers that only the set-up calls
        rl = import_ringlab()
        modules = {m: getattr(rl, m) for m in MODULES}
        with Tracer(modules) as tracer:
            layers.install(tracer)
            inputs, setup_checks = workload.prepare(rl, args.seed)
            setup_trace = tracer.take()

    guard = Tracer(modules)
    workload.guard_probes(guard)
    # a fixed number of passes, so that every run takes the median of as many;
    # a traced run makes one plain and one traced pass
    count = 1 if args.trace else max(2, round(args.seconds / workload.pass_seconds))
    traced = None
    try:
        passes = [run_pass(workload.items(rl, inputs), workload.probe_every, guard) for _ in range(count)]
        if args.trace:
            with Tracer(modules) as tracer:
                layers.install(tracer)
                traced = run_pass(workload.items(rl, inputs), workload.probe_every, guard, tracer)
                layer_metrics = layers.span_metrics(*with_setup(setup_trace, *tracer.take()))
    finally:
        guard.restore()

    all_passes = passes + ([traced] if traced else [])
    failures = [f for p in all_passes for f in p["failures"]]
    failures += [f"set-up check failed: {label}" for label, ok in setup_checks if not ok]
    attempted = sum(len(p["times"]) for p in all_passes) + len(setup_checks)

    times = item_medians(passes, "times")
    if args.trace:
        units = layers.PER_LAYER
        # span times are scaled like item times, by the traced pass's probes
        scale = REFERENCE_S / (traced["probe_ms"] / 1000)
        metrics = {n: v * scale if units[n] == "s" else v for n, v in layer_metrics.items()}
        for name, kind in layers.ITEM_KINDS.items():
            metrics[name] = sum(t for t, k in zip(times, passes[0]["kinds"]) if k == kind)
        metrics["trace.overhead_frac"] = sum(traced["times"]) / sum(times) - 1
        metrics = {name: metrics[name] for name in units}
    else:
        units = END_TO_END
        metrics = end_to_end(passes, setup_times)

    summary = {
        "env": env,
        "passes": len(passes),
        "traced_passes": int(traced is not None),
        "items_per_pass": len(times),
        "item_tail_percentile": tail(sorted(times))[1],
        "raw_pass_walls": [sum(p["raw_times"]) for p in passes],
        "probe_ms": [p["probe_ms"] for p in passes],
        "fail_frac": len(failures) / attempted,
        "guards": check_guards(workload, all_passes),
    }
    print(json.dumps(summary))
    for f in failures[:10]:
        print(f"FAIL {f}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6f} {units[name]}")
    print(f"  {'fail_frac':<36} {summary['fail_frac']:>16.6f} fraction")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
