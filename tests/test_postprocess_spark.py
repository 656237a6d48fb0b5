"""Tests for the Spark post-processing (repro.core.postprocess): DuckDB
oracle on the weight join-aggregate, threshold semantics, the spanning
forest, exact equality of the full pipeline against the reference engine,
and the detection job budget after an edit stream."""
import uuid

import numpy as np
import pandas as pd
import pytest

from repro.cc.reference import components_of_edges
from repro.core.incremental import apply_batch
from repro.core.postprocess import (
    FANIN,
    detect_from_weights,
    edge_weights,
    extract_communities,
    spanning_forest,
    tau2_int_of,
)
from repro.core.rslpa import detect_communities, run_static
from repro.oracle import assert_equivalent
from repro.reference.incremental_ref import ref_apply_batch, ref_run_static
from repro.reference.postprocess_ref import (
    detect_from_weights_ref,
    postprocess_ref,
    tau2_int_ref,
)
from repro.reference.rslpa_ref import propagate
from repro.webgraph.generator import edit_batch, web_graph

T_ITERS = 8
SEED = 5


@pytest.fixture(scope="module")
def state(spark):
    pdf = web_graph(n=250, avg_degree=6, seed=1)
    st = run_static(spark.createDataFrame(pdf), T_ITERS, SEED)
    return st, pdf


class TestEdgeWeights:
    def test_oracle(self, spark, state):
        st, _ = state
        w = edge_weights(st.edges, st.labels, T_ITERS).select(
            "src", "dst", "w_int"
        )
        assert_equivalent(
            w,
            """
            WITH counts AS (
                SELECT id, label, COUNT(*) AS cnt FROM labels GROUP BY id, label
            )
            SELECT e.src, e.dst,
                   COALESCE(SUM(cs.cnt * cd.cnt), 0) AS w_int
            FROM e
            LEFT JOIN counts cs ON cs.id = e.src
            LEFT JOIN counts cd ON cd.id = e.dst AND cd.label = cs.label
            GROUP BY e.src, e.dst
            """,
            e=st.edges,
            labels=st.labels,
        )

    def test_weight_normalization(self, state):
        st, _ = state
        w = edge_weights(st.edges, st.labels, T_ITERS).toPandas()
        assert ((0 <= w["w"]) & (w["w"] <= 1)).all()
        assert (w["w"] * (T_ITERS + 1) ** 2 - w["w_int"]).abs().max() < 1e-9

    def test_self_similarity_is_max(self, spark):
        # Identical twin vertices (same neighborhood) get near-max weight.
        pdf = pd.DataFrame({"src": [1, 1, 2, 2], "dst": [2, 3, 3, 4]})
        st = run_static(spark.createDataFrame(pdf), 2, 0)
        w = edge_weights(st.edges, st.labels, 2).toPandas()
        assert (w["w_int"] <= 9).all()

    def test_tau2(self, spark):
        w = spark.createDataFrame(
            pd.DataFrame(
                {"src": [0, 1, 2], "dst": [1, 2, 3], "w_int": [10, 5, 8]}
            )
        )
        assert tau2_int_of(spanning_forest(w)) == 8


class TestExtractCommunities:
    @pytest.fixture(scope="class")
    def weights(self, spark):
        return spark.createDataFrame(
            pd.DataFrame(
                {
                    "src": [0, 2, 1, 3],
                    "dst": [1, 3, 4, 4],
                    "w_int": [10, 10, 4, 4],
                }
            )
        )

    def test_overlap_via_weak_vertex(self, weights):
        out = extract_communities(
            weights, spanning_forest(weights), tau1_int=10, tau2_int=4
        ).toPandas()
        cover = {
            comp: set(grp["id"]) for comp, grp in out.groupby("comp")
        }
        assert cover[0] == {0, 1, 4}
        assert cover[2] == {2, 3, 4}

    def test_high_tau2_blocks_weak(self, weights):
        out = extract_communities(
            weights, spanning_forest(weights), tau1_int=10, tau2_int=5
        ).toPandas()
        cover = {comp: set(g["id"]) for comp, g in out.groupby("comp")}
        assert cover == {0: {0, 1}, 2: {2, 3}}


class TestFullPipelineEquality:
    def test_matches_reference_engine(self, state):
        st, pdf = state
        res = detect_communities(st)
        g, _, _, labels = propagate(pdf, T_ITERS, SEED)
        ref_cover, ref_t1, ref_t2 = postprocess_ref(pdf, g, labels)
        assert (res.tau1_int, res.tau2_int) == (ref_t1, ref_t2)
        assert {frozenset(c) for c in res.cover()} == {
            frozenset(c) for c in ref_cover
        }

    def test_thresholds_ordered(self, state):
        st, _ = state
        res = detect_communities(st)
        assert res.tau1_int >= res.tau2_int
        assert 0.0 <= res.tau2 <= res.tau1 <= 1.0

    def test_two_cliques_communities(self, spark):
        cl1 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        cl2 = [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        pdf = pd.DataFrame(cl1 + cl2 + [(5, 6)], columns=["src", "dst"])
        st = run_static(spark.createDataFrame(pdf), 40, seed=2)
        cover = detect_communities(st).cover()
        assert any(len(c & set(range(6))) >= 5 for c in cover)
        assert any(len(c & set(range(6, 12))) >= 5 for c in cover)


def _covers(cover):
    return {frozenset(c) for c in cover}


def _random_weights(n, m, seed, w_max, offset=0):
    """``m`` distinct canonical edges over ``n`` vertices, random ``w_int``."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        u, v = sorted(rng.integers(0, n, 2).tolist())
        if u != v:
            pairs.add((u + offset, v + offset))
    src, dst = zip(*sorted(pairs))
    return pd.DataFrame(
        {"src": src, "dst": dst, "w_int": rng.integers(0, w_max + 1, m)}
    ).astype("int64")


def _weight_cases():
    """(weight table, partitions) per forest edge case."""
    equal = _random_weights(60, 200, seed=1, w_max=0).assign(w_int=7)
    # Vertex 100 has only weight-0 edges, so τ2 = 0.
    zeros = pd.concat(
        [
            _random_weights(60, 200, seed=2, w_max=5),
            pd.DataFrame({"src": [3, 7], "dst": [100, 100], "w_int": [0, 0]}),
        ],
        ignore_index=True,
    )
    disconnected = pd.concat(
        [_random_weights(30, 60, seed=s, w_max=9, offset=100 * s) for s in range(4)],
        ignore_index=True,
    )
    many = _random_weights(300, 2000, seed=5, w_max=40)
    return {
        "all_weights_equal": (equal, 4),
        "zero_weights_tau2_zero": (zeros, 4),
        "disconnected": (disconnected, 4),
        "multi_pass_filtering": (many, 4 * FANIN + 3),
    }


class TestForestEdgeCases:
    @pytest.mark.parametrize("case", list(_weight_cases()))
    def test_matches_reference_engine(self, spark, case):
        pdf, parts = _weight_cases()[case]
        weights = spark.createDataFrame(pdf).repartition(parts)
        assert weights.rdd.getNumPartitions() == parts
        res = detect_from_weights(weights, n_iters=1)
        ref_cover, ref_t1, ref_t2 = detect_from_weights_ref(pdf)
        assert (res.tau1_int, res.tau2_int) == (ref_t1, ref_t2)
        assert _covers(res.cover()) == _covers(ref_cover)
        if case == "zero_weights_tau2_zero":
            assert ref_t2 == 0

    def test_forest_spans_every_threshold(self, spark):
        pdf, parts = _weight_cases()["multi_pass_filtering"]
        # More partitions than FANIN: at least two filtering passes.
        assert parts > FANIN
        forest = spanning_forest(spark.createDataFrame(pdf).repartition(parts))
        n = len(np.unique(pdf[["src", "dst"]].to_numpy()))
        all_comps = components_of_edges(zip(pdf["src"], pdf["dst"]))
        assert len(forest) == n - len(all_comps)
        assert tau2_int_of(forest) == tau2_int_ref(pdf)
        for tau in np.unique(pdf["w_int"]):
            kept, fk = pdf[pdf["w_int"] >= tau], forest[forest["w_int"] >= tau]
            assert components_of_edges(
                zip(fk["src"], fk["dst"])
            ) == components_of_edges(zip(kept["src"], kept["dst"]))


class TestDetectAfterStream:
    # Weights checkpoint, distinct weights, the forest and the extraction,
    # each a few jobs: a constant, whatever the number of τ1 candidates. This
    # detection measured 17 jobs over 20 candidates. A Spark aggregation for
    # τ2 and sort-merge joins in the extraction took 23; one
    # connected-components run per candidate took 430 over 8.
    JOB_BUDGET = 17

    def test_matches_reference_within_job_budget(self, spark):
        pdf = web_graph(n=200, avg_degree=6, seed=3)
        st = run_static(spark.createDataFrame(pdf), 8, seed=6)
        rst = ref_run_static(pdf, 8, seed=6)
        for i in range(3):
            ins, dele = edit_batch(rst.edges, 20, seed=40 + i)
            st, _ = apply_batch(
                st, spark.createDataFrame(ins), spark.createDataFrame(dele)
            )
            rst, _ = ref_apply_batch(rst, ins, dele)
        sc = spark.sparkContext
        group = f"detect-budget-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "detect_communities job budget")
        try:
            res = detect_communities(st)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        jobs = len(sc.statusTracker().getJobIdsForGroup(group))
        ref_cover, ref_t1, ref_t2 = postprocess_ref(rst.edges, rst.g, rst.labels)
        assert (res.tau1_int, res.tau2_int) == (ref_t1, ref_t2)
        assert _covers(res.cover()) == _covers(ref_cover)
        assert jobs <= self.JOB_BUDGET, jobs
