"""rSLPA post-processing (paper Section III-B) on Spark DataFrames.

Pipeline:

1. **Edge weights** — ``w_ij = P(l_i = l_j)``, the probability that uniform
   draws from ``L_i`` and ``L_j`` coincide. With label histograms ``f_i``,
   ``w_ij = Σ_l f_i(l)·f_j(l) / (T+1)^2``. We carry the *integer* match count
   ``w_int = Σ_l f_i(l)·f_j(l)`` everywhere (thresholds included) so the
   Spark and NumPy engines agree bit-for-bit — floats appear only in reports.
2. **τ2 = min_i max_j w_ij** (Eq. 2, "no isolated vertex"), read off the
   maximum spanning forest of step 3 (``tau2_int_of``).
3. **τ1 = argmax of community-size entropy** (Eq. 1) over every distinct
   weight in ``[τ2, max w]``, the paper's full grid. By the cut property, the
   components of the ``w ≥ τ`` graph are those of a maximum spanning forest
   restricted to its edges with ``w ≥ τ``, whatever the ties. So one forest
   serves every candidate: ``spanning_forest`` builds it in Spark by
   filter-Kruskal, and ``sweep_entropies`` scores all candidates in one
   descending union-find pass over it on the driver.
4. **Extraction** — components of the τ1-filtered forest with ≥ 2 vertices
   are strong communities; remaining ("isolated") vertices attach weakly to
   each neighboring community reachable over an edge with ``w ≥ τ2`` —
   multi-attachment is what makes communities overlap. The weak join runs in
   Spark over all edges.

``candidate_taus``, ``sweep_entropies``, ``strong_components`` and
``select_tau1`` are shared with the reference engine, which feeds them all
edges instead of the forest; the engine-equality tests therefore check the
forest argument.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.cc.reference import UnionFind, components_of_edges
from repro.metrics.entropy import entropy_of_size_counts

FOREST_SCHEMA = "src long, dst long, w_int long"
# Partitions merged into one per filtering pass; each merged task holds at
# most FANIN·(|V|−1) forest edges.
FANIN = 8


def candidate_taus(distinct_w: Sequence[int], tau2_int: int) -> List[int]:
    """Candidate grid: every distinct integer weight in ``[τ2, max]``
    (ascending), or ``[τ2]`` when there is none."""
    ws = np.unique(np.asarray(list(distinct_w), dtype=np.int64))
    ws = ws[ws >= tau2_int]
    return [int(w) for w in ws] if len(ws) else [int(tau2_int)]


def sweep_entropies(
    edges: pd.DataFrame, cands: Sequence[int], n_vertices: int
) -> List[Tuple[int, float]]:
    """(τ, entropy) for each candidate, ascending τ, from one pass that adds
    ``(src, dst, w_int)`` edges to a union-find in descending weight.

    A histogram of component sizes is updated at each union, so a candidate
    costs O(distinct sizes), not a pass over the vertices. Only edge
    endpoints enter the union-find, so every component has ≥ 2 vertices.
    """
    order = np.argsort(-edges["w_int"].to_numpy(), kind="stable")
    src = edges["src"].to_numpy()[order].tolist()
    dst = edges["dst"].to_numpy()[order].tolist()
    wv = edges["w_int"].to_numpy()[order].tolist()
    uf = UnionFind()
    sizes: Counter = Counter()
    out: List[Tuple[int, float]] = []
    i = 0
    for tau in sorted(cands, reverse=True):
        while i < len(wv) and wv[i] >= tau:
            u, v = src[i], dst[i]
            uf.add(u)
            uf.add(v)
            ru, rv = uf.find(u), uf.find(v)
            if ru != rv:
                for s in (uf.size[ru], uf.size[rv]):
                    if s > 1:
                        sizes[s] -= 1
                sizes[uf.size[ru] + uf.size[rv]] += 1
                uf.union(ru, rv)
            i += 1
        out.append((tau, entropy_of_size_counts(sizes, n_vertices)))
    return out[::-1]


def select_tau1(
    entropies: Sequence[Tuple[int, float]],
) -> int:
    """Argmax entropy over (τ, entropy) pairs; ascending τ, strict improvement
    wins, so ties resolve to the smallest τ — identical in both engines."""
    best_tau, best_e = None, -1.0
    for tau, e in entropies:
        if e > best_e + 1e-12:
            best_tau, best_e = tau, e
    assert best_tau is not None
    return int(best_tau)


def strong_components(edges: pd.DataFrame, tau_int: int) -> Dict[int, List[int]]:
    """Components of the ``w_int ≥ τ`` edges, keyed by min id; each has
    ≥ 2 vertices, since only edge endpoints enter."""
    kept = edges[edges["w_int"] >= tau_int]
    return components_of_edges(zip(kept["src"].tolist(), kept["dst"].tolist()))


def _kruskal(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    """A maximum spanning forest of one partition's edges."""
    parts = list(batches)
    if not parts:
        return
    pdf = pd.concat(parts, ignore_index=True).sort_values(
        ["w_int", "src", "dst"], ascending=[False, True, True]
    )
    uf = UnionFind()
    keep = []
    for i, (u, v) in enumerate(zip(pdf["src"].tolist(), pdf["dst"].tolist())):
        uf.add(u)
        uf.add(v)
        if uf.union(u, v):
            keep.append(i)
    yield pdf.iloc[keep]


def spanning_forest(weights: DataFrame) -> pd.DataFrame:
    """A maximum spanning forest of the ``(src, dst, w_int)`` table, on the
    driver.

    Filtering (Lattanzi et al., SPAA 2011): every partition keeps only its
    own maximum spanning forest. An edge it drops closes a cycle of edges at
    least as heavy, so the components at every threshold survive. The
    survivors, at most |V|−1 per partition, are merged ``FANIN`` partitions
    at a time and filtered again until one partition is left. The merge is a
    ``repartition``, not a ``coalesce``: a coalesce would fold the earlier
    passes into the fewer tasks of the later ones.
    """
    df = weights.select("src", "dst", "w_int").mapInPandas(
        _kruskal, FOREST_SCHEMA
    )
    parts = weights.rdd.getNumPartitions()
    while parts > 1:
        parts = -(-parts // FANIN)
        df = df.repartition(parts).mapInPandas(_kruskal, FOREST_SCHEMA)
    return df.toPandas()


def edge_weights(edges: DataFrame, labels: DataFrame, n_iters: int) -> DataFrame:
    """Per-edge similarity: ``(src, dst, w_int, w)`` with
    ``w = w_int/(T+1)^2``; edges with no common label get ``w_int = 0``."""
    counts = labels.groupBy("id", "label").agg(F.count("*").alias("cnt"))
    cs = counts.select(
        F.col("id").alias("src"), "label", F.col("cnt").alias("cnt_s")
    )
    cd = counts.select(
        F.col("id").alias("dst"), "label", F.col("cnt").alias("cnt_d")
    )
    matched = (
        edges.join(cs, "src")
        .join(cd, ["dst", "label"])
        .groupBy("src", "dst")
        .agg(F.sum(F.col("cnt_s") * F.col("cnt_d")).alias("w_int"))
    )
    denom = float((n_iters + 1) ** 2)
    return (
        edges.join(matched, ["src", "dst"], "left")
        .select(
            "src",
            "dst",
            F.coalesce("w_int", F.lit(0)).cast("long").alias("w_int"),
        )
        .withColumn("w", F.col("w_int") / F.lit(denom))
    )


def tau2_int_of(forest: pd.DataFrame) -> int:
    """Eq. 2 on integer weights, min over vertices of max incident w_int,
    read off a maximum spanning forest of the weight table.

    By the cut property for ``({v}, V∖{v})``, every maximum spanning forest
    holds an edge at ``v`` of ``v``'s maximum incident weight, and every
    vertex of the table lies on a forest edge.
    """
    if forest.empty:
        return 0
    ids = np.concatenate([forest["src"].to_numpy(), forest["dst"].to_numpy()])
    w = np.tile(forest["w_int"].to_numpy(), 2)
    return int(pd.Series(w).groupby(ids).max().min())


@dataclass
class PostprocessResult:
    """Communities plus the thresholds that produced them."""

    communities: DataFrame  # (comp, id) — one row per membership
    tau1_int: int
    tau2_int: int
    n_iters: int

    @property
    def tau1(self) -> float:
        return self.tau1_int / float((self.n_iters + 1) ** 2)

    @property
    def tau2(self) -> float:
        return self.tau2_int / float((self.n_iters + 1) ** 2)

    def cover(self) -> List[set]:
        """Driver-side list-of-sets view (for NMI and tests)."""
        rows = self.communities.collect()
        by_comp: Dict[int, set] = {}
        for r in rows:
            by_comp.setdefault(int(r["comp"]), set()).add(int(r["id"]))
        return [by_comp[k] for k in sorted(by_comp)]


def extract_communities(
    weights: DataFrame, forest: pd.DataFrame, tau1_int: int, tau2_int: int
) -> DataFrame:
    """Strong components of the forest at τ1 plus weak attachments over the
    weight table at τ2: checkpointed rows (comp, id). The strong rows (at
    most |V|) are built on the driver and broadcast to both probes."""
    strong = weights.sparkSession.createDataFrame(
        pd.DataFrame(
            [
                (root, v)
                for root, members in strong_components(forest, tau1_int).items()
                for v in members
            ],
            columns=["comp", "id"],
            dtype="int64",
        ),
        "comp long, id long",
    )
    sym = weights.select(
        F.col("src").alias("a"), F.col("dst").alias("b"), "w_int"
    ).unionByName(
        weights.select(F.col("dst").alias("a"), F.col("src").alias("b"), "w_int")
    )
    weak = (
        sym.where(F.col("w_int") >= F.lit(tau2_int))
        .join(F.broadcast(strong.select(F.col("id").alias("a"))), "a", "left_anti")
        .join(F.broadcast(strong.select(F.col("id").alias("b"), "comp")), "b")
        .select(F.col("a").alias("id"), "comp")
        .distinct()
    )
    return strong.unionByName(weak.select("comp", "id")).localCheckpoint(
        eager=True
    )


def detect_from_weights(weights: DataFrame, n_iters: int) -> PostprocessResult:
    """τ2, the τ1 sweep and extraction over a checkpointed weight table.

    Only the forest (≤ |V|−1 rows) and the distinct weights reach the driver.
    Every vertex of the table lies on a forest edge, so the forest also
    gives |V| and τ2.
    """
    forest = spanning_forest(weights)
    tau2 = tau2_int_of(forest)
    distinct_w = [
        int(r["w_int"]) for r in weights.select("w_int").distinct().collect()
    ]
    n_vertices = len(np.unique(forest[["src", "dst"]].to_numpy()))
    entropies = sweep_entropies(
        forest, candidate_taus(distinct_w, tau2), n_vertices
    )
    tau1 = select_tau1(entropies)
    return PostprocessResult(
        communities=extract_communities(weights, forest, tau1, tau2),
        tau1_int=tau1,
        tau2_int=tau2,
        n_iters=n_iters,
    )


def postprocess(edges: DataFrame, labels: DataFrame, n_iters: int) -> PostprocessResult:
    """Full Section III-B pipeline; returns communities and thresholds."""
    weights = edge_weights(edges, labels, n_iters).localCheckpoint(eager=True)
    return detect_from_weights(weights, n_iters)
