"""Tests for the DataFrame graph substrate (repro.core.graph), with DuckDB
oracle checks for every relational operation."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def raw_edges(spark):
    pdf = pd.DataFrame(
        {
            "src": [1, 2, 2, 3, 3, 4, 5, 5, 1],
            "dst": [2, 1, 3, 2, 4, 3, 5, 6, 1],
        }
    )
    return spark.createDataFrame(pdf), pdf


class TestCanonicalEdges:
    def test_orientation(self, raw_edges):
        df, _ = raw_edges
        out = G.canonical_edges(df).toPandas()
        assert (out["src"] < out["dst"]).all()

    def test_dedup_and_loops(self, raw_edges):
        df, _ = raw_edges
        out = G.canonical_edges(df).toPandas()
        # {1,2}, {2,3}, {3,4}, {5,6} — loops (1,1),(5,5) dropped, dups merged.
        assert len(out) == 4

    def test_oracle(self, raw_edges):
        df, pdf = raw_edges
        assert_equivalent(
            G.canonical_edges(df),
            """
            SELECT DISTINCT LEAST(src, dst) AS src, GREATEST(src, dst) AS dst
            FROM e WHERE src <> dst
            """,
            e=pdf,
        )


class TestSymmetrizeDegrees:
    def test_symmetrize_doubles(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        assert G.symmetrize(e).count() == 2 * e.count()

    def test_vertices_oracle(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        assert_equivalent(
            G.vertices(e),
            "SELECT DISTINCT id FROM (SELECT src AS id FROM e "
            "UNION ALL SELECT dst AS id FROM e)",
            e=e,
        )


class TestAdjacency:
    def test_sorted_arrays(self, raw_edges):
        df, _ = raw_edges
        adj = G.adjacency(G.canonical_edges(df)).toPandas()
        by_id = {int(r["id"]): list(r["nbrs"]) for _, r in adj.iterrows()}
        assert by_id[3] == [2, 4]
        assert by_id[2] == [1, 3]
        assert all(v == sorted(v) for v in by_id.values())

    def test_matches_degrees(self, raw_edges):
        df, _ = raw_edges
        e = G.canonical_edges(df)
        adj = G.adjacency(e).select(
            "id", F.size("nbrs").alias("degree")
        )
        assert_equivalent(
            adj,
            """
            SELECT id, COUNT(*) AS degree FROM (
                SELECT src AS id FROM e UNION ALL SELECT dst AS id FROM e
            ) GROUP BY id
            """,
            e=e,
        )
