"""Synthetic graphs for the rSLPA reproduction as Spark edge frames.

Thin Spark-facing wrappers over the NumPy generators (see DESIGN.md §4 for
the dataset substitutions). Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
from pyspark.sql import DataFrame, SparkSession


def lfr_edges(
    spark: SparkSession,
    *,
    n: int = 1000,
    k: float = 20.0,
    maxk: int = 50,
    mu: float = 0.1,
    on: int = 100,
    om: int = 2,
    seed: int = 0,
) -> DataFrame:
    """LFR-lite benchmark edges as a Spark DataFrame (src, dst).

    Ground truth and knobs live in ``repro.lfr.generator``; this wrapper is
    the Spark-facing entry point at "scale factor" = n.
    """
    from repro.lfr.generator import lfr_graph

    res = lfr_graph(n=n, k=k, maxk=maxk, mu=mu, on=on, om=om, seed=seed)
    return spark.createDataFrame(res.edges)


def web_edges(
    spark: SparkSession,
    *,
    n: int = 20_000,
    avg_degree: float = 25.0,
    seed: int = 0,
) -> DataFrame:
    """Synthetic eu-2015-tpd substitute (Chung–Lu power law) as Spark edges."""
    from repro.webgraph.generator import web_graph

    return spark.createDataFrame(web_graph(n=n, avg_degree=avg_degree, seed=seed))
