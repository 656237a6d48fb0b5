"""Undirected-graph substrate on Spark DataFrames.

The paper operates on binary graphs (undirected, unweighted, no self-loops,
no multi-edges). Canonical representation here:

* ``edges``  — one row per undirected edge with ``src < dst``;
* ``adj``    — both directions, one row per (vertex, neighbor);
* ``adjacency`` — one row per vertex with its **sorted** neighbor array.

The sorted neighbor array is load-bearing: Algorithm 1 picks
``src_i^t = nbrs_i[h mod deg_i]``, and sortedness makes the pick a pure
function of the edge *set* (partition- and order-independent), so the Spark
engine and the NumPy reference agree bit-for-bit.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def canonical_edges(edges: DataFrame) -> DataFrame:
    """Drop self-loops and duplicates; orient every edge ``src < dst``."""
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return (
        edges.select(lo, hi)
        .where(F.col("src") != F.col("dst"))
        .distinct()
    )


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both directions of each canonical edge: columns ``id``, ``nbr``."""
    fwd = edges.select(F.col("src").alias("id"), F.col("dst").alias("nbr"))
    rev = edges.select(F.col("dst").alias("id"), F.col("src").alias("nbr"))
    return fwd.unionByName(rev)


def adjacency(edges: DataFrame) -> DataFrame:
    """Per-vertex sorted neighbor array: columns ``id``, ``nbrs``."""
    return (
        symmetrize(edges)
        .groupBy("id")
        .agg(F.array_sort(F.collect_list("nbr")).alias("nbrs"))
    )


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertex ids appearing in the edge set: column ``id``."""
    return symmetrize(edges).select("id").distinct()
