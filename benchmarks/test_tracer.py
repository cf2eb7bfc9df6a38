"""Tests of the benchmark's tracer and of its agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import importlib
import inspect
import json
import os
import shutil
import subprocess
import sys
import types

import layers
import run
from tracer import Tracer, self_times
from workloads import WORKLOADS

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


def ringlab_modules() -> dict:
    return {m: importlib.import_module(f"ringlab.{m}") for m in run.MODULES}


def bindings(modules: dict) -> dict:
    """Every module attribute and every class attribute of ringlab, by identity."""
    out = {}
    for mod in modules.values():
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("ringlab."):
                for attr, raw in vars(value).items():
                    out[(value.__qualname__, attr)] = raw
    return out


def test_probes_patch_consumer_bindings_and_restore_them():
    modules = ringlab_modules()
    linalg, sr = modules["linalg"], modules["sr_invariants"]
    original = linalg.gf2_rank
    before = bindings(modules)
    with Tracer(modules) as guard:
        guard.count_module("linalg", "linalg")
        with Tracer(modules) as tracer:
            layers.install(tracer)
            assert sr.gf2_rank is linalg.gf2_rank is not original
            assert sr.rational_rank is linalg.rational_rank
            g = modules["graphs"].Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(u, 5) for u in range(1, 5)])
            reports = modules["verify"].check_theorem_A_fields(g, (modules["fields"].QQ, modules["fields"].GF2))
            assert all(r.passed for r in reports.values())
            spans, _ = tracer.take()
        assert sr.gf2_rank is not original  # the guard's probe is still in place
    assert bindings(modules) == before
    # the ranks ran inside the Hochster scan, through sr_invariants' own binding
    names = [s[0] for s in spans]
    ranks = [s for s in spans if s[0] == "linalg.gf2_rank"]
    assert ranks and all(names[s[2]] == "sr_invariants.cm_scan" for s in ranks)
    assert guard.counts["linalg"] >= len(ranks)
    # properly nested spans: the self times of a tree add up to its root's duration
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[2] == -1]
    total = sum(spans[i][4] - spans[i][3] for i in roots)
    assert abs(sum(own) - total) < 1e-9 * max(1, len(spans))


def test_self_times_of_a_synthetic_span_tree():
    spans = [
        ("root", None, -1, 0.0, 10.0),
        ("a", None, 0, 1.0, 4.0),
        ("b", None, 0, 3.0, 6.0),  # overlaps a: together they cover [1, 6]
        ("c", None, 1, 2.0, 3.0),
        ("d", None, 0, 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        ("e", None, 3, 2.5, 2.75),
    ]
    assert self_times(spans) == [3.0, 2.0, 3.0, 0.75, 4.0, 0.25]


def test_generator_spans_cover_only_the_generator():
    modules = ringlab_modules()
    with Tracer(modules) as tracer:
        layers.install(tracer)
        with tracer.span("consumer"):
            graphs = list(modules["graphs"].enumerate_graphs(3))
        spans, _ = tracer.take()
    assert len(graphs) == 8
    resumes = [s for s in spans if s[0] == "graphs.enumerate"]
    assert len(resumes) == 9  # eight graphs and the final StopIteration
    assert all(s[2] == 0 for s in resumes)


def _sample_items(name, rl, inputs):
    items = WORKLOADS[name].items(rl, inputs)
    if name == "sr-corpus":
        return items[:60] + items[-40:]
    if name == "square-corpus":
        return items[:150] + [i for i in items if i.kind == "split"][-40:] + [i for i in items if i.kind == "gorenstein"][-40:]
    return [i for i in items if i.kind == "poincare" and i.group == "fp:2"][:7] + [i for i in items if i.kind != "poincare"]


def test_traced_and_untraced_runs_give_identical_verdicts():
    modules = ringlab_modules()
    rl = types.SimpleNamespace(**modules)
    for name, workload in WORKLOADS.items():
        inputs, checks = workload.prepare(rl, seed=7)
        assert all(ok for _, ok in checks)
        with Tracer(modules) as guard:
            workload.guard_probes(guard)
            plain = run.run_pass(_sample_items(name, rl, inputs), workload.probe_every, guard)
            with Tracer(modules) as tracer:
                layers.install(tracer)
                traced = run.run_pass(_sample_items(name, rl, inputs), workload.probe_every, guard, tracer)
                metrics = layers.span_metrics(*tracer.take())
        assert plain["failures"] == traced["failures"] == [], name
        assert plain["verdicts"] == traced["verdicts"], name
        assert plain["groups"] == traced["groups"], name
        assert set(metrics) | set(layers.ITEM_KINDS) | {"trace.overhead_frac"} == set(layers.PER_LAYER)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "sr-corpus", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
