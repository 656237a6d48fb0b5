"""End-to-end rSLPA on Spark: Algorithm 1 + Section III-B post-processing.

``run_static`` performs the randomized label propagation from scratch and
returns an :class:`RslpaState` — the complete paper state: the adjacency,
and one row per (vertex, iteration) holding the choice ``(src, pos)`` and
the label it yields. The choice columns double as the receiver records R
via the reverse join on ``(src, pos)``.
``repro.core.incremental.apply_batch`` evolves that state under edge edits.
``detect_communities`` runs the post-processing on whatever state you have —
the paper's operational mode of "handle changes continuously, compute
communities once per hour" (Section V-B3) falls out of this split.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import graph as G
from repro.core.choices import draw_choices
from repro.core.postprocess import PostprocessResult, postprocess
from repro.core.resolve import resolve_labels


@dataclass
class RslpaState:
    """Everything rSLPA must retain between batches (paper Section IV)."""

    adjacency: DataFrame  # (id, sorted nbrs) for degree >= 1 vertices
    # (id, t, src, pos, label) for t in [0..T]; t = 0 is the anchor
    # (id, 0, id, 0, id).
    table: DataFrame
    n_iters: int
    seed: int
    epoch: int  # bumps once per applied batch -> fresh re-pick draws

    @property
    def edges(self) -> DataFrame:
        """Canonical undirected edges ``(src, dst)`` with ``src < dst``."""
        pairs = self.adjacency.select(
            F.col("id").alias("src"), F.explode("nbrs").alias("dst")
        )
        return pairs.where(F.col("src") < F.col("dst"))

    @property
    def choices(self) -> DataFrame:
        """``(id, t, src, pos)`` for t in [1..T]."""
        return self.table.where(F.col("t") >= 1).select("id", "t", "src", "pos")

    @property
    def labels(self) -> DataFrame:
        """``(id, t, label)`` for t in [0..T]."""
        return self.table.select("id", "t", "label")


STATE_PARTS = 16  # state tables are scan-heavy; keep task counts low


def checkpoint(df: DataFrame) -> DataFrame:
    """``df`` coalesced to ``STATE_PARTS`` partitions and checkpointed."""
    return df.coalesce(STATE_PARTS).localCheckpoint(eager=True)


def run_static(edges: DataFrame, n_iters: int, seed: int) -> RslpaState:
    """Algorithm 1 from scratch on a static graph."""
    adj = checkpoint(G.adjacency(G.canonical_edges(edges)))
    table = checkpoint(resolve_labels(adj, draw_choices(adj, n_iters, seed, epoch=0)))
    return RslpaState(adjacency=adj, table=table, n_iters=n_iters, seed=seed, epoch=0)


def detect_communities(state: RslpaState) -> PostprocessResult:
    """Section III-B post-processing over the current label table."""
    return postprocess(state.edges, state.labels, state.n_iters)
