"""Tests for the synthetic graph wrappers (repro.synth_data), with a DuckDB
oracle check of edge orientation."""
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent


class TestGraphSchemas:
    def test_lfr_edges_spark(self, spark):
        df = synth_data.lfr_edges(spark, n=200, k=8, maxk=20, on=20, seed=1)
        assert df.columns == ["src", "dst"]
        assert df.count() > 200

    def test_web_edges_spark(self, spark):
        df = synth_data.web_edges(spark, n=500, avg_degree=6, seed=1)
        assert df.columns == ["src", "dst"]
        assert df.count() == pytest.approx(1500, rel=0.05)

    def test_web_edges_canonical_oracle(self, spark):
        df = synth_data.web_edges(spark, n=300, avg_degree=6, seed=2)
        assert_equivalent(
            df.select("src", "dst"),
            "SELECT src, dst FROM e WHERE src < dst",
            e=df,
        )
