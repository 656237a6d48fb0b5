"""Incremental updating after an edge-edit batch (paper Section IV, Alg. 2).

Where the data lives. Every frame whose size follows the batch is held on
the driver as pandas: the edit keys, the affected vertices' old adjacency
and state rows, the phase-1 decisions, each round's messages and the final
overlay. The two O(T·|V|) tables (adjacency, and the state table of
``(id, t, src, pos, label)`` rows) stay in Spark and are only *probed* with
``F.broadcast`` joins against those small frames, so a probe costs one
Spark action and never reshuffles global state — the dataflow form of the
paper's point that Correction Propagation sends small messages to receivers
(Section IV-B/C). Driver memory is bounded by O(|affected|·T) rows for
phase 1, plus one round's messages, plus the O(η) overlay of every round's
messages (η = labels needing update, Eq. 8).

Spark actions per batch: one to collect the batch keys, one for the touched
vertices' old adjacency, one checkpoint of the new adjacency, one for the
affected vertices' old state rows, one label lookup for the re-picked rows'
sources, and **one per correction round**. Every row read carries its
pre-batch label, so the η accounting needs no lookup of its own.

Two phases, exactly as the paper structures them:

**1. Handling adjacent edge changes** (Section IV-A). The edit diff comes
from the batch keys and the touched vertices' old neighbor arrays; only
affected vertices get patched neighbor arrays. Every (vertex, iteration) row
of an affected vertex is classified into the paper's three categories and
re-picked only when required (``repro.core.choices.repick_arrays``):

* Category 1 (no neighbor change) — row untouched (vertex not in the
  affected set at all).
* Category 2 (only lost neighbors) — re-pick iff the recorded ``src`` was
  removed; Theorem 4 guarantees a kept ``src`` is still uniform over the
  remaining neighbors.
* Category 3 (gained neighbors, possibly also lost some) — if ``src`` was
  removed, re-pick over all current neighbors; otherwise keep with
  probability ``n_u/(n_u+n_a)`` else pick uniformly among the *added*
  neighbors (Theorem 5's auxiliary process, realized with a fresh
  epoch-keyed coin).

Vertex insertion/deletion follows the paper's reduction: a vertex whose rows
are missing (new, or previously degree-0) re-picks everything; a vertex that
drops to degree 0 loses its rows (its sequence reverts to ``(i)``).

**2. Correction Propagation** (Section IV-B/C, Algorithm 2). Re-picked rows
form the first message frame: each carries the label of its new
``(src, pos)``, read from the pre-update labels. Each round delivers the
messages to their *receivers* — the rows whose ``(src, pos)`` equals a
message's ``(id, t)`` — which become the next round's messages, carrying the
same label value. The paper materializes receiver records ``R_i``; here the
state table's ``(src, pos)`` columns are the record and receivers are
recovered by the reverse equi-join on ``(src, pos)`` — the same information, maintained for free
(DESIGN.md Section 2). Because a receiver's iteration is strictly larger
than its source's, the loop terminates within T rounds; in practice it runs
for the depth of the perturbed propagation trees, O(log T) in expectation.
Latest write wins: a row's new label is the one of the last round that
reached it. The receivers are found in the *pre-batch* table, whose rows
of affected vertices are then swapped on the driver for the matching rows
of the phase-1 decisions — the same set as a probe of the updated choices,
without building them in Spark.

The new state table is one lazy overlay keyed by ``(id, t)`` (a broadcast
anti-join of the updated keys and the dropped vertices' rows, plus a union
with the updated rows and the new vertices' anchors) over the previous
table; nothing O(T·|V|) is rewritten unless ``materialize`` asks for it.
Its labels provably equal a from-scratch resolution of its choices — the
paper's "same communities as from scratch" claim, asserted bit-for-bit in
tests.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.choices import pairs_in, repick_arrays
from repro.core.rslpa import RslpaState, checkpoint


@dataclass
class UpdateStats:
    """Observability of one incremental batch (drives the Fig. 9 table)."""

    m_inserted: int
    m_deleted: int
    n_affected_vertices: int
    n_repicked: int  # rows re-picked in phase 1 (|F0|)
    n_value_changed: int  # rows whose final label differs from the old one
    eta: int  # |F0 ∪ value-changed| — the paper's η
    rounds: int  # correction-propagation message rounds until quiescence
    round_deltas: List[int] = field(default_factory=list)  # messages/round


def _batch_keys(inserts: DataFrame | None, deletes: DataFrame | None):
    """The batch's distinct canonical keys (n×2, ``src < dst``) with masks
    ``(inserted, deleted)``; self-loops are dropped. One Spark action."""
    parts = [
        df.select("src", "dst", F.lit(flag).alias("ins"))
        for df, flag in ((inserts, True), (deletes, False))
        if df is not None
    ]
    if not parts:
        return np.empty((0, 2), np.int64), np.empty(0, bool), np.empty(0, bool)
    frame = parts[0] if len(parts) == 1 else parts[0].unionByName(parts[1])
    pdf = frame.toPandas()
    s, d = pdf["src"].to_numpy(np.int64), pdf["dst"].to_numpy(np.int64)
    ins = pdf["ins"].to_numpy(bool)
    pairs = np.stack([np.minimum(s, d), np.maximum(s, d)], axis=1)
    loop = pairs[:, 0] == pairs[:, 1]
    pairs, ins = pairs[~loop], ins[~loop]
    keys = np.unique(pairs, axis=0)
    return keys, pairs_in(keys, pairs[ins]), pairs_in(keys, pairs[~ins])


def _frame(like: DataFrame, pdf: pd.DataFrame) -> DataFrame:
    """``pdf`` as a Spark frame with the column types of ``like``."""
    schema = T.StructType([like.schema[c] for c in pdf.columns])
    return like.sparkSession.createDataFrame(pdf, schema)


def _lookup(table: DataFrame, keys: pd.DataFrame) -> pd.DataFrame:
    """Rows of ``table`` matching ``keys`` on its columns: one Spark action."""
    probe = F.broadcast(_frame(table, keys))
    return table.join(probe, list(keys.columns)).toPandas()


def _patch(table: DataFrame, drop: pd.DataFrame, rows: pd.DataFrame) -> DataFrame:
    """Lazy overlay: ``table`` minus its rows matching ``drop`` on its
    columns, plus ``rows``."""
    kept = table.join(F.broadcast(_frame(table, drop)), list(drop.columns), "left_anti")
    return kept.unionByName(_frame(table, rows[table.columns]).coalesce(1))


def _sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _both_ways(edges: np.ndarray) -> np.ndarray:
    return np.concatenate([edges, edges[:, ::-1]])


def _csr(pairs: np.ndarray, ids: np.ndarray):
    """CSR ``(flat, offsets)`` of the sorted ``ids``' neighbor arrays, from
    sorted (id, nbr) pairs whose ids all appear in ``ids``."""
    return pairs[:, 1], np.append(np.searchsorted(pairs[:, 0], ids), len(pairs))


def _rows(ids: np.ndarray, ts: np.ndarray, **cols) -> pd.DataFrame:
    """One row per (id, t) of the grid ``ids × ts``, in (id, t) order."""
    grid = {"id": np.repeat(ids, len(ts)), "t": np.tile(ts, len(ids))}
    return pd.DataFrame({**grid, **cols})


def apply_batch(
    state: RslpaState,
    inserts: DataFrame | None,
    deletes: DataFrame | None,
    materialize: bool = False,
) -> tuple[RslpaState, UpdateStats]:
    """Evolve ``state`` under one batch of edge inserts/deletes.

    Set semantics per batch: deletes apply after inserts, so an edge both
    inserted and deleted ends up absent. ``materialize=True`` checkpoints the
    updated state table (an O(T·|V|) rewrite) — useful before a long run of
    subsequent batches to cap lineage depth; by default the new table is a
    lazy overlay over the previous checkpointed one.
    """
    n_iters, seed = state.n_iters, state.seed
    epoch = state.epoch + 1
    ts = np.arange(1, n_iters + 1, dtype=np.int32)

    # --- Edit diff: batch keys against the touched vertices' old neighbors --
    keys, inserted, deleted = _batch_keys(inserts, deletes)
    old_adj = _lookup(state.adjacency, pd.DataFrame({"id": np.unique(keys)}))
    old_pairs = np.stack(
        [
            np.repeat(old_adj["id"].to_numpy(np.int64), old_adj["nbrs"].map(len)),
            np.concatenate([np.empty(0, np.int64), *old_adj["nbrs"]]),
        ],
        axis=1,
    )
    was = pairs_in(keys, old_pairs)
    now = (inserted | was) & ~deleted
    added, removed = keys[now & ~was], keys[was & ~now]
    affected = np.unique(np.concatenate([added, removed]))
    if len(affected) == 0:
        return state, UpdateStats(0, 0, 0, 0, 0, 0, 0)

    # --- Adjacency: patch only the affected vertices' neighbor arrays ------
    old_pairs = _sorted_pairs(old_pairs[np.isin(old_pairs[:, 0], affected)])
    new_pairs = _sorted_pairs(
        np.concatenate(
            [old_pairs[~pairs_in(old_pairs, _both_ways(removed))], _both_ways(added)]
        )
    )
    survivors = np.unique(new_pairs[:, 0])  # affected vertices left with degree >= 1
    dropped = np.setdiff1d(affected, survivors)
    new_vertices = np.setdiff1d(survivors, old_pairs[:, 0])
    new_flat, new_off = _csr(new_pairs, survivors)
    nbrs = [new_flat[a:b] for a, b in zip(new_off[:-1], new_off[1:])]
    new_adj = checkpoint(
        _patch(
            state.adjacency,
            pd.DataFrame({"id": affected}),
            pd.DataFrame({"id": survivors, "nbrs": nbrs}),
        )
    )

    # --- Phase 1: classify & re-pick the affected vertices' rows -----------
    # Old rows in (vertex, t) order; a vertex without rows (new, or back from
    # degree 0) keeps zeros, and its old labels are its anchor sequence: its
    # own id.
    old = _lookup(state.table, pd.DataFrame({"id": survivors}))
    old = old[old["t"] > 0]
    at = np.searchsorted(survivors, old["id"].to_numpy(np.int64)) * n_iters + (
        old["t"].to_numpy(np.int64) - 1
    )
    old_src = np.zeros(len(survivors) * n_iters, dtype=np.int64)
    old_pos = np.zeros(len(survivors) * n_iters, dtype=np.int64)
    old_label = np.repeat(survivors, n_iters)
    old_src[at] = old["src"].to_numpy(np.int64)
    old_pos[at] = old["pos"].to_numpy(np.int64)
    old_label[at] = old["label"].to_numpy(np.int64)
    src, pos, changed = repick_arrays(
        survivors,
        *_csr(old_pairs[np.isin(old_pairs[:, 0], survivors)], survivors),
        new_flat,
        new_off,
        old_src,
        old_pos,
        n_iters,
        seed,
        epoch,
    )
    dec = _rows(survivors, ts, src=src, pos=pos.astype(np.int32), old=old_label)
    frontier = dec[changed]

    # --- Phase 2: Correction Propagation, one Spark action per round --------
    # Every message is a whole row (id, t, src, pos, label) plus its
    # pre-batch label ``old``. Round-1 messages: each re-picked row carries
    # the pre-update label of its new (src, pos). A source without label rows
    # is a new vertex, whose pre-update sequence is its anchor: its own id.
    src_keys = frontier[["src", "pos"]].drop_duplicates().set_axis(["id", "t"], axis=1)
    found = _lookup(state.labels, src_keys).set_axis(["src", "pos", "label"], axis=1)
    msgs = frontier.merge(found, on=["src", "pos"], how="left")
    msgs["label"] = msgs["label"].fillna(msgs["src"]).astype(np.int64)
    spark = state.table.sparkSession
    rounds = 0
    round_deltas: List[int] = []
    sent: List[pd.DataFrame] = []
    while len(msgs):
        if rounds > n_iters + 1:
            raise RuntimeError("correction propagation did not converge")
        rounds += 1
        round_deltas.append(len(msgs))
        sent.append(msgs)
        # Receivers: rows whose (src, pos) is a message's (id, t) after
        # phase 1, i.e. the pre-batch rows of unaffected vertices and the
        # affected vertices' decisions.
        heard = msgs[["id", "t", "label"]].set_axis(["src", "pos", "label"], axis=1)
        sources = spark.createDataFrame(
            heard.rename(columns={"label": "sent"}), "src long, pos int, sent long"
        )
        probed = (
            state.table.join(F.broadcast(sources), ["src", "pos"])
            .select(
                "id", "t", "src", "pos", F.col("sent").alias("label"),
                F.col("label").alias("old"),
            )
            .toPandas()
        )
        msgs = pd.concat(
            [probed[~probed["id"].isin(affected)], dec.merge(heard, on=["src", "pos"])],
            ignore_index=True,
        )

    # Latest write wins: rounds are concatenated in order, so keeping the
    # last row per (id, t) keeps the label of the last round to reach it.
    updates = pd.concat(sent or [msgs]).drop_duplicates(["id", "t"], keep="last")
    anchors = pd.DataFrame(
        {"id": new_vertices, "t": 0, "src": new_vertices, "pos": 0, "label": new_vertices}
    ).astype({"t": np.int32, "pos": np.int32})
    table = _patch(
        state.table,
        pd.concat([updates[["id", "t"]], _rows(dropped, np.arange(n_iters + 1, dtype=np.int32))]),
        pd.concat([updates, anchors]),
    )
    if materialize:
        table = checkpoint(table)

    # η accounting: only updated rows can differ from their pre-batch label;
    # add the re-picked rows.
    moved = updates.loc[updates["label"] != updates["old"], ["id", "t"]]
    eta = len(pd.concat([frontier[["id", "t"]], moved]).drop_duplicates())

    new_state = RslpaState(
        adjacency=new_adj, table=table, n_iters=n_iters, seed=seed, epoch=epoch
    )
    stats = UpdateStats(
        m_inserted=len(added),
        m_deleted=len(removed),
        n_affected_vertices=len(affected),
        n_repicked=len(frontier),
        n_value_changed=len(moved),
        eta=eta,
        rounds=rounds,
        round_deltas=round_deltas,
    )
    return new_state, stats
