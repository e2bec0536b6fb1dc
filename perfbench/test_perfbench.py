"""Self-tests of the benchmark: span arithmetic, binding restore, counts.

Run with:  python3 -m pytest perfbench/test_perfbench.py
"""

import importlib
import json
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker

# Tiny sections of every executor kind the workloads use.  The krylov and
# fokker_planck sections re-simulate an ensemble they already have, so the
# Euler loops take more trajectory steps than the config asks for.
TINY = {
    "density_bound": ("""
[db]
kind = density_bound
field = ou_linear
d = 1
t = 0.02
dt = 0.001
trajectories = 300
p_list = 2
seed = 5
""", False),
    "entropy_budget": ("""
[eb]
kind = entropy_budget
field = sign_drift
d = 1
horizon = 0.5
dt = 0.0005
trajectories = 200
n_list = 4
seed = 5
""", False),
    "coupling": ("""
[cp]
kind = coupling
field = sign_drift
d = 1
t = 0.02
dt = 0.001
trajectories = 100
n_list = 2, 4
n_ref = 8
seed = 5
""", False),
    "krylov": ("""
[kr]
kind = krylov
field = translate
d = 1
t = 0.05
dt = 0.001
trajectories = 200
slab_widths = 0.1, 0.05
seed = 5
""", True),
    "fokker_planck": ("""
[fp]
kind = fokker_planck
field = translate
d = 1
t = 0.04
dt = 0.001
trajectories = 400
grid_R = 6.0
grid_h = 0.1
grid_tau = 0.001
factorization_samples = 2000
seed = 5
""", True),
    "fokker_planck_2d": ("""
[fp2]
kind = fokker_planck
field = ou_linear
d = 2
t = 0.016
dt = 0.001
trajectories = 100
grid_R = 3.0
grid_h = 0.2
grid_tau = 0.002
seed = 5
""", True),
}


def _parse(tmp_path, text):
    from flowlab.config import parse_config

    path = tmp_path / "tiny.ini"
    path.write_text(text)
    return parse_config(str(path))


def _span(sid, name, start, end, parent=None, thread=0):
    return (sid, name, float(start), float(end), parent, thread)


def test_covered_merges_and_clips():
    assert spans.covered(0, 10, []) == 0.0
    assert spans.covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5.0
    assert spans.covered(2, 4, [(0, 3), (3.5, 9)]) == 1.5
    assert spans.covered(0, 1, [(2, 3)]) == 0.0


def test_self_time_and_busy_time_of_nested_spans():
    trace = [
        _span(0, "a", 0, 10),
        _span(1, "b", 1, 4, parent=0),
        _span(2, "b", 3, 6, parent=0, thread=1),   # pool thread, overlaps span 1
        _span(3, "a", 5, 7, parent=2, thread=1),   # a inside b inside a
        _span(4, "c", 12, 13),
    ]
    busy, self_s, calls = spans.aggregate(trace)
    assert busy["a"] == 10.0                  # the inner a is not counted again
    assert busy["b"] == 6.0                   # thread-seconds: overlap counts twice
    assert self_s["a"] == (10 - 5) + 2        # children cover [1, 6] of the outer a
    assert self_s["b"] == 3 + (3 - 1)          # the inner a covers [5, 6] of span 2
    assert self_s["c"] == busy["c"] == 1.0
    assert calls == {"a": 2, "b": 2, "c": 1}


def test_pool_thread_spans_attach_to_the_waiting_span():
    tracer = spans.Tracer()

    def work(i):
        time.sleep(0.002)
        return i

    def one_call(args, kwargs, result, exc):
        yield "calls", 1

    wrapped = tracer.wrap("inner", work, one_call)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("outer"):
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(wrapped, range(400)))
    finally:
        sys.setswitchinterval(old)
    assert results == list(range(400))
    assert tracer.counts["calls"] == 400      # no update lost across threads
    trace = tracer.spans
    (outer,) = [s for s in trace if s[1] == "outer"]
    inner = [s for s in trace if s[1] == "inner"]
    assert len(inner) == 400
    assert all(s[4] == outer[0] for s in inner)
    assert len({s[5] for s in inner}) > 1
    busy, self_s, _ = spans.aggregate(trace)
    cover = spans.covered(outer[2], outer[3], [(s[2], s[3]) for s in inner])
    assert self_s["outer"] == pytest.approx(busy["outer"] - cover)
    assert 0.0 <= self_s["outer"] < busy["outer"]


def _snapshot():
    """Every binding a flowlab module, class or function default holds, by place."""
    import flowlab.experiments  # noqa: F401

    for _, module, _, _ in spans.TARGETS:
        importlib.import_module(module)
    state = {}
    for mod in spans._flowlab_modules():
        state[mod.__name__] = dict(vars(mod))
        for name, val in vars(mod).items():
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if isinstance(val, type):
                state[mod.__name__, name] = dict(vars(val))
            elif isinstance(val, types.FunctionType):
                state[mod.__name__, name] = val.__defaults__
    return state


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(a[k] is b[k] for k in a)
    return a is b


def test_every_wrapper_restores_the_original_binding():
    import flowlab.convergence
    import flowlab.sde

    before = _snapshot()
    noise = flowlab.sde.brownian_increments
    coupling = flowlab.convergence.coupling_convergence
    defaults = coupling.__defaults__
    with spans.Tracer():
        assert flowlab.sde.brownian_increments is not noise
        assert coupling.__defaults__ != defaults      # regularizer=regularize is wrapped
        during = _snapshot()
        changed = [k for k in before if not _same(before[k], during[k])]
        assert len(changed) >= len({t[1] for t in spans.TARGETS})
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if not _same(before[k], after[k])] == []
    assert coupling.__defaults__ is defaults


def test_a_missing_target_leaves_nothing_wrapped(monkeypatch):
    before = _snapshot()
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("x", "flowlab.sde", "no_such_function", None),))
    with pytest.raises(KeyError):
        spans.Tracer().install()
    after = _snapshot()
    assert [k for k in before if not _same(before[k], after[k])] == []


def _traced_counts(configs, threads, out_dir):
    tracer = spans.Tracer().install()
    try:
        records = worker.run_sections(configs, threads, out_dir, tracer)
    finally:
        tracer.uninstall()
    assert all("error" not in r for r in records.values()), records
    return tracer.counts, spans.layer_metrics(tracer.spans, tracer.counts)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_counts_repeat_and_match_the_config(tmp_path, kind):
    text, reuses_ensembles = TINY[kind]
    configs = _parse(tmp_path, text)
    counts1, layers1 = _traced_counts(configs, 2, tmp_path / "a")
    counts2, layers2 = _traced_counts(configs, 2, tmp_path / "b")
    worker.run_sections(configs, 1, tmp_path / "plain")

    assert counts1 == counts2
    for name in ("rng.generators", "sde.traj_steps", "gaussian.ou_smooth.calls",
                 "fokker_planck.mc_measure.calls"):
        assert layers1[name] == layers2[name]
    assert run.digest(tmp_path / "a") == run.digest(tmp_path / "plain")

    requested = sum(workloads.requested_work(cfg) for cfg in configs)
    if reuses_ensembles:
        assert layers1["sde.traj_steps"] > requested
    else:
        assert layers1["sde.traj_steps"] == requested
    assert counts1["rng.generators"] == counts1["sde.trajectories"] + counts1["rng.reserved_generators"]


def test_config_text_writes_the_seed_into_every_section(tmp_path):
    for wl in workloads.WORKLOADS.values():
        configs = _parse(tmp_path, workloads.config_text(wl, 12345))
        assert [c.name for c in configs] == workloads.section_names(wl)
        assert [c.kind for c in configs] == list(workloads.section_kinds(wl).values())
        assert all(c.seed == 12345 for c in configs)


def test_threaded_workload_ensembles_split_into_two_chunks_per_thread(tmp_path):
    from flowlab.config import build_field
    from flowlab.sde import _chunk_edges

    for wl in workloads.WORKLOADS.values():
        if wl.threads == 1:
            continue
        for cfg in _parse(tmp_path, workloads.config_text(wl, 1)):
            m = build_field(cfg).m
            for n_traj, steps, _ in workloads.ensemble_plan(cfg):
                assert len(_chunk_edges(n_traj, steps, m)) >= 2 * wl.threads, (cfg.name, n_traj)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == run.per_layer_unit(m["name"])


def test_row_gate_applies_the_documented_rule(tmp_path):
    (tmp_path / "x.csv").write_text(
        "experiment,quantity,value,stderr,bound,passed\n"
        "x,ok,1.0,0.1,0.8,true\n"          # 1.0 <= 0.8 + 3 * 0.1
        "x,beyond_slack,1.2,0.1,0.8,true\n"
        "x,unchecked,5.0,,,\n"
        "x,verdict_only,2.0,,,False\n"
        "x,numpy_bool,0.5,,1.0,True\n")
    (tmp_path / "o.csv").write_text(
        "experiment,quantity,value,stderr,bound,passed\n"
        "o,oracle,1.0000001,,1.0,true\n")
    attempted, failures = run.check_rows(tmp_path, {"x": "density_bound", "o": "oracle_suite"},
                                         {"x": {}, "o": {}})
    assert attempted == 5
    assert [f.split(" = ")[0] for f in failures] == ["x: beyond_slack", "x: verdict_only"]
