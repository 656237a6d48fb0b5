"""Drawing the rSLPA choice table (Algorithm 1's random state).

For every vertex ``i`` with degree ≥ 1 and every iteration ``t ∈ [1..T]``:

* ``src_i^t`` = uniformly picked neighbor — realized as the
  ``h mod deg_i``-th entry of the sorted neighbor array;
* ``pos_i^t`` = uniform position in ``[0, t-1]``.

Labels are *not* drawn here; they are fully determined by this table
(see ``repro.core.resolve``). The draw is a pure function of
``(seed, epoch, i, t)`` via ``repro.core.rand``, so the Spark path
(``draw_choices``, vectorized ``mapInPandas``) and the NumPy reference path
(``draw_choices_arrays``) produce identical tables.

Degree-0 vertices get no rows: they cannot pick (Algorithm 1 requires a
neighbor) and nobody can pick from them; their label sequence stays ``(i)``.
"""
from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import rand

CHOICE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("t", T.IntegerType(), False),
        T.StructField("src", T.LongType(), False),
        T.StructField("pos", T.IntegerType(), False),
    ]
)


def draw_choices_arrays(
    ids: np.ndarray,
    nbrs_flat: np.ndarray,
    offsets: np.ndarray,
    n_iters: int,
    seed: int,
    epoch: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draw for a batch of vertices (shared Spark/NumPy kernel).

    ``nbrs_flat`` is the concatenation of each vertex's sorted neighbor
    array; ``offsets[v]`` is the start of vertex ``v``'s slice and
    ``offsets[v+1]`` its end (CSR layout). Returns flat arrays
    ``(id, t, src, pos)`` with ``len = len(ids) * n_iters``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    deg = np.diff(offsets).astype(np.int64)
    n = len(ids)
    id_rep = np.repeat(ids, n_iters)
    t_rep = np.tile(np.arange(1, n_iters + 1, dtype=np.int64), n)
    deg_rep = np.repeat(deg, n_iters)
    start_rep = np.repeat(offsets[:-1].astype(np.int64), n_iters)
    src_idx = rand.hash_mod(seed, rand.SRC, deg_rep, epoch, id_rep, t_rep)
    src = np.asarray(nbrs_flat, dtype=np.int64)[start_rep + src_idx]
    pos = rand.hash_mod(seed, rand.POS, t_rep, epoch, id_rep, t_rep)
    return id_rep, t_rep, src, pos


def pairs_in(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise membership of the integer pairs ``a`` (n×2) in ``b`` (m×2)."""
    a = np.asarray(a, dtype=np.int64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 2)
    _, inv = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    inv = inv.ravel()
    return np.isin(inv[: len(a)], inv[len(a) :])


def repick_arrays(
    ids: np.ndarray,
    old_flat: np.ndarray,
    old_offsets: np.ndarray,
    new_flat: np.ndarray,
    new_offsets: np.ndarray,
    old_src: np.ndarray,
    old_pos: np.ndarray,
    n_iters: int,
    seed: int,
    epoch: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Section IV-A's Category 2/3 re-pick for a batch of affected vertices.

    Each vertex in ``ids`` keeps degree >= 1 after the batch; its old and new
    sorted neighbor arrays are given in CSR layout (an empty old slice means
    the vertex had no rows: it is new, or was degree 0). ``old_src`` and
    ``old_pos`` hold its old rows flat in ``(vertex, t)`` order, with any
    value where it had none. Returns flat ``(src, pos, changed)`` in the same
    order, ``changed`` marking re-picked rows:

    * ``src`` no longer a neighbor (or no old row) — re-pick over all new
      neighbors (the ``NSRC`` draw mod ``n_new``);
    * ``src`` kept and neighbors added — switch to a uniform *added* neighbor
      iff the ``KEEP`` coin is ``>= n_u / (n_u + n_a)`` (Theorem 5);
    * otherwise keep the row (Theorem 4).

    A re-picked row takes a fresh ``NPOS`` position. All draws are keyed by
    ``(seed, purpose, epoch, id, t)``, as in ``repro.reference.incremental_ref``.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    old_deg = np.diff(old_offsets)
    n_new = np.diff(new_offsets)
    vert = np.arange(n)
    new_pairs = np.stack([np.repeat(vert, n_new), new_flat], axis=1)
    old_pairs = np.stack([np.repeat(vert, old_deg), old_flat], axis=1)
    is_added = ~pairs_in(new_pairs, old_pairs)
    added_flat = new_flat[is_added]
    n_add = np.bincount(new_pairs[is_added, 0], minlength=n)
    add_offsets = np.concatenate([[0], np.cumsum(n_add)])

    row = np.repeat(vert, n_iters)
    id_rep = ids[row]
    t_rep = np.tile(np.arange(1, n_iters + 1, dtype=np.int64), n)
    keep_ok = (old_deg[row] > 0) & pairs_in(
        np.stack([row, old_src], axis=1), new_pairs
    )
    u = rand.hash_unit(seed, rand.KEEP, epoch, id_rep, t_rep)
    idx_full = rand.hash_mod(seed, rand.NSRC, n_new[row], epoch, id_rep, t_rep)
    idx_add = rand.hash_mod(seed, rand.NSRC, n_add[row], epoch, id_rep, t_rep)
    new_pos = rand.hash_mod(seed, rand.NPOS, t_rep, epoch, id_rep, t_rep)
    keep_prob = (n_new - n_add)[row] / n_new[row]
    switch = keep_ok & (n_add[row] > 0) & (u >= keep_prob)
    full = ~keep_ok

    src = np.asarray(old_src, dtype=np.int64).copy()
    src[full] = new_flat[new_offsets[row[full]] + idx_full[full]]
    src[switch] = added_flat[add_offsets[row[switch]] + idx_add[switch]]
    changed = full | switch
    pos = np.where(changed, new_pos, old_pos).astype(np.int64)
    return src, pos, changed


def _csr(nbrs_col: pd.Series) -> Tuple[np.ndarray, np.ndarray]:
    lens = nbrs_col.map(len).to_numpy(dtype=np.int64)
    offsets = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    flat = (
        np.concatenate([np.asarray(a, dtype=np.int64) for a in nbrs_col])
        if len(nbrs_col)
        else np.empty(0, dtype=np.int64)
    )
    return flat, offsets


def draw_choices(
    adjacency: DataFrame, n_iters: int, seed: int, epoch: int = 0
) -> DataFrame:
    """Spark choice table from an ``adjacency`` frame (``id``, ``nbrs``).

    One output row per (vertex, iteration): ``(id, t, src, pos)``.
    """

    def gen(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            pdf = pdf[pdf["nbrs"].map(len) > 0]
            if pdf.empty:
                continue
            flat, offsets = _csr(pdf["nbrs"])
            i, t, s, p = draw_choices_arrays(
                pdf["id"].to_numpy(dtype=np.int64),
                flat,
                offsets,
                n_iters,
                seed,
                epoch,
            )
            yield pd.DataFrame(
                {
                    "id": i,
                    "t": t.astype(np.int32),
                    "src": s,
                    "pos": p.astype(np.int32),
                }
            )

    return adjacency.mapInPandas(gen, schema=CHOICE_SCHEMA)


def base_rows(adjacency: DataFrame) -> DataFrame:
    """The ``t = 0`` pointer rows ``(id, 0, id, 0)`` — each chain's anchor."""
    return adjacency.select(
        F.col("id"),
        F.lit(0).cast("int").alias("t"),
        F.col("id").alias("src"),
        F.lit(0).cast("int").alias("pos"),
    )
