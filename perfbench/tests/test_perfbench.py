"""Tests of the benchmark's own code: inputs, spans, correctness checks, the
benchmark definition, and a tiny traced run of every workload.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _p in (str(ROOT), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import inputs, session  # noqa: E402
from perfbench.spans import Tracer, layer_totals, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    END_TO_END,
    OUTCOMES,
    PER_LAYER,
    WORKLOADS,
    Checker,
    covers_mismatch,
    labels_mismatch,
    make_inputs,
    run_workload,
)

TINY_GRAPH = dict(n=40, k=6, maxk=10, mu=0.1, on=4, om=2, min_c=5, max_c=12)


# -- inputs -------------------------------------------------------------------
def test_same_seed_gives_same_inputs():
    for wl in WORKLOADS.values():
        a = make_inputs(wl, 5).describe()
        assert make_inputs(wl, 5).describe() == a
        b = make_inputs(wl, 6).describe()
        assert b["graph_hash"] != a["graph_hash"]
        assert b["stream_hash"] != a["stream_hash"]


def test_each_batch_is_drawn_against_the_graph_as_it_stands():
    g = inputs.planted_graph(seed=2, **TINY_GRAPH)
    edges = g.edges
    for ins, dels in inputs.edit_stream(edges, n_batches=3, n_edits=10, seed=2):
        present = set(map(tuple, edges.to_numpy()))
        assert set(map(tuple, dels.to_numpy())) <= present
        assert not set(map(tuple, ins.to_numpy())) & present
        assert len(ins) + len(dels) == 10
        edges = inputs.apply_edits(edges, ins, dels)


# -- spans --------------------------------------------------------------------
class FakeContext:
    """Runs jobs under the job group a tracer sets, as a SparkContext does."""

    def __init__(self):
        self.group = None
        self.job_groups = []  # the group of job 0, 1, 2, ...
        scheduler = SimpleNamespace(numTotalJobs=lambda: len(self.job_groups))
        bus = SimpleNamespace(waitUntilEmpty=lambda: None)
        self._jsc = SimpleNamespace(
            sc=lambda: SimpleNamespace(dagScheduler=lambda: scheduler, listenerBus=lambda: bus)
        )

    def setJobGroup(self, gid, desc):
        self.group = gid

    def setLocalProperty(self, key, value):
        if key == "spark.jobGroup.id":
            self.group = value

    def run_job(self):
        self.job_groups.append(self.group)

    def statusTracker(self):
        return SimpleNamespace(
            getJobIdsForGroup=lambda g: [i for i, x in enumerate(self.job_groups) if x == g]
        )


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # a: [0, 20]; b: [1, 9] holds c: [3, 4]; d: [12, 15], a sibling of b.
    tr = Tracer(enabled=True, clock=_ticks(0.0, 1.0, 3.0, 4.0, 9.0, 12.0, 15.0, 20.0))
    with tr.span("a"):
        with tr.span("b"):
            with tr.span("c"):
                pass
        with tr.span("d"):
            pass
    assert [s.name for s in tr.spans] == ["a", "b", "c", "d"]
    assert self_times(tr.spans) == [20.0 - 8.0 - 3.0, 8.0 - 1.0, 1.0, 3.0]
    tot = layer_totals(tr.spans, 0)
    assert tot["a"]["self_s"] == 9.0 and tot["a"]["wall_s"] == 20.0
    assert tot["b"]["self_s"] == 7.0 and tot["c"]["calls"] == 1


def test_nested_span_restores_its_parents_job_group():
    sc = FakeContext()
    tr = Tracer(sc, enabled=True)
    with tr.span("outer"):
        outer = sc.group
        with tr.span("inner"):
            assert sc.group not in (None, outer)
        assert sc.group == outer
    assert sc.group is None


def _traced_jobs(lose_parent_group=False, foreign_group=False):
    """outer runs a job, then inner runs one, then outer runs another."""
    sc = FakeContext()
    tr = Tracer(sc, enabled=True)
    with tr.span("outer"):
        sc.run_job()
        with tr.span("inner"):
            if foreign_group:
                sc.setJobGroup("set-by-the-program", "")
            sc.run_job()
        if lose_parent_group:
            sc.setLocalProperty("spark.jobGroup.id", None)
        sc.run_job()
    tr.resolve_jobs(tr.spans)
    return tr


def test_jobs_are_attributed_to_the_span_they_ran_in():
    tr = _traced_jobs()
    assert [s.jobs for s in tr.spans] == [[0, 2], [1]]
    assert tr.attribution_mismatch(0) is None


def test_a_lost_or_foreign_job_group_is_an_attribution_failure():
    lost = _traced_jobs(lose_parent_group=True)
    assert lost.spans[0].jobs == [0]
    assert "outer" in lost.attribution_mismatch(0)
    foreign = _traced_jobs(foreign_group=True)
    assert foreign.spans[1].jobs == []
    assert "inner" in foreign.attribution_mismatch(0)


def test_inclusive_jobs_add_children():
    tr = Tracer(enabled=True, clock=_ticks(*range(6)))
    with tr.span("a"):
        with tr.span("b"):
            with tr.span("c"):
                pass
    for sp, jobs in zip(tr.spans, ([1], [2, 3], [4, 5, 6])):
        sp.jobs = jobs
    tot = layer_totals(tr.spans, 0)
    assert (tot["a"]["jobs"], tot["b"]["jobs"], tot["c"]["jobs"]) == (6, 5, 3)


def test_wrap_installs_and_uninstall_restores():
    original = inputs.content_hash
    tr = Tracer(enabled=True)
    tr.wrap("perfbench.inputs", "content_hash", "inputs.content_hash")
    tr.wrap("perfbench.inputs", "no_such_function", "inputs.none")
    assert inputs.content_hash is not original
    inputs.content_hash(pd.DataFrame({"src": [0], "dst": [1]}))
    assert [s.name for s in tr.spans] == ["inputs.content_hash"]
    assert tr.missing == ["perfbench.inputs.no_such_function"]
    tr.uninstall()
    assert inputs.content_hash is original


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    with tr.span("a") as sp:
        assert sp is None
    assert tr.spans == []


# -- correctness checks -------------------------------------------------------
def test_corrupted_results_count_as_failures():
    ref = pd.DataFrame({"id": [1, 1, 2, 2], "t": [0, 1, 0, 1], "label": [1, 2, 2, 2]})
    bad = ref.copy()
    bad.loc[1, "label"] = 99
    checker = Checker()
    checker.check("identical", lambda: labels_mismatch(ref.sample(frac=1, random_state=0), ref))
    checker.check("corrupted label", lambda: labels_mismatch(bad, ref))
    checker.check("missing row", lambda: labels_mismatch(ref.iloc[:3], ref))
    checker.check("same cover", lambda: covers_mismatch([{2, 1}, {3}], [{3}, {1, 2}]))
    checker.check("other cover", lambda: covers_mismatch([{1, 2}], [{1, 2, 3}]))
    checker.check("check raises", lambda: 1 // 0)
    assert (checker.attempted, checker.failed) == (6, 4)
    assert len(checker.errors) == 4


# -- the benchmark definition ----------------------------------------------
def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: (m["unit"], m["better"]) for k, m in e2e.items()} == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    # Each candidate threshold costs one connected_components run.
    assert PER_LAYER["postprocess.candidates"] == ("count", "lower")
    costs = [k for k in PER_LAYER if k.endswith(("_s", ".jobs", ".stages", ".tasks", ".rounds"))]
    assert all(PER_LAYER[k][1] == "lower" for k in costs)
    assert not set(OUTCOMES) & set(PER_LAYER)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- a tiny traced run of every workload --------------------------------------
@pytest.fixture(scope="module")
def spark():
    s = session.start_session(session.deployment(ROOT))
    yield s
    session.stop_session(s)


def _tiny(name: str):
    wl = WORKLOADS[name]
    return dataclasses.replace(
        wl, graph=TINY_GRAPH, n_iters=6, batch_edits=max(2, wl.batch_edits // 20),
        n_batches=2, propagate_reps=1, slpa_iters=2,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_every_workload(spark, name):
    rec = run_workload(spark, _tiny(name), seed=3, seconds=0, trace=True, started=time.perf_counter())
    assert rec["attempted"] > 0
    assert rec["failed"] == 0, rec["errors"]
    assert set(rec["e2e"]) == set(END_TO_END)
    assert all(v > 0 for v in rec["e2e"].values())
    assert sorted(rec["per_layer"]) == sorted(PER_LAYER)
    assert sorted(rec["outcomes"]) == sorted(OUTCOMES)
    assert rec["missing_spans"] == []
    # Labels per propagation, stats and labels per batch, thresholds and
    # cover of the detection, the SLPA cover; then one span-job check per op.
    assert len(rec["ops"]) == 1 + 2 + 1 + 1
    assert rec["attempted"] == 1 + 2 * 2 + 2 + 1 + len(rec["ops"])
    if name == "stream-small":
        again = run_workload(spark, _tiny(name), seed=3, seconds=0, trace=True, started=time.perf_counter())
        counts = {k: v for k, v in rec["per_layer"].items() if not k.endswith("_s")}
        assert {k: again["per_layer"][k] for k in counts} == counts
