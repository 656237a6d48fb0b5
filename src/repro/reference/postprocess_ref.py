"""NumPy/pandas reference of the rSLPA post-processing (Section III-B).

Computes the weights and τ2 on its own and shares the τ1 sweep and strong
extraction with ``repro.core.postprocess`` (``candidate_taus``,
``sweep_entropies``, ``select_tau1``, ``strong_components``), but feeds them
*all* edges where the Spark engine feeds them its maximum spanning forest.
The Spark and reference pipelines return identical thresholds and covers —
the equality, and with it the forest argument, is asserted in tests.
"""
from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd

from repro.core.postprocess import (
    candidate_taus,
    select_tau1,
    strong_components,
    sweep_entropies,
)
from repro.reference.rslpa_ref import RefGraph


def label_counts(g: RefGraph, labels: np.ndarray) -> pd.DataFrame:
    """Histogram of each vertex's label sequence: (id, label, cnt)."""
    n, w = labels.shape
    ids = np.repeat(g.ids, w)
    pairs = np.stack([ids, labels.ravel()], axis=1)
    uniq, cnt = np.unique(pairs, axis=0, return_counts=True)
    return pd.DataFrame(
        {"id": uniq[:, 0], "label": uniq[:, 1], "cnt": cnt.astype(np.int64)}
    )


def edge_weights_ref(
    edges: pd.DataFrame, counts: pd.DataFrame
) -> pd.DataFrame:
    """Integer match-count weights per canonical edge: (src, dst, w_int)."""
    cs = counts.rename(columns={"id": "src", "cnt": "cnt_s"})
    cd = counts.rename(columns={"id": "dst", "cnt": "cnt_d"})
    m = edges.merge(cs, on="src").merge(cd, on=["dst", "label"])
    m["prod"] = m["cnt_s"] * m["cnt_d"]
    agg = m.groupby(["src", "dst"], as_index=False)["prod"].sum()
    out = edges.merge(
        agg.rename(columns={"prod": "w_int"}), on=["src", "dst"], how="left"
    )
    out["w_int"] = out["w_int"].fillna(0).astype(np.int64)
    return out


def tau2_int_ref(weights: pd.DataFrame) -> int:
    """Eq. 2 on integer weights: min over vertices of max incident w_int."""
    sym = pd.concat(
        [
            weights[["src", "w_int"]].rename(columns={"src": "id"}),
            weights[["dst", "w_int"]].rename(columns={"dst": "id"}),
        ]
    )
    if sym.empty:
        return 0
    return int(sym.groupby("id")["w_int"].max().min())


def extract_cover(
    weights: pd.DataFrame, tau1_int: int, tau2_int: int
) -> List[Set[int]]:
    """Strong components at τ1 plus weak τ2-attachments (may overlap)."""
    strong = strong_components(weights, tau1_int)
    comp_of: Dict[int, int] = {
        v: root for root, s in strong.items() for v in s
    }
    cover = {root: set(s) for root, s in strong.items()}
    weak = weights[weights["w_int"] >= tau2_int]
    for u, v in zip(weak["src"].to_numpy(), weak["dst"].to_numpy()):
        u, v = int(u), int(v)
        for iso, anchor in ((u, v), (v, u)):
            if iso not in comp_of and anchor in comp_of:
                cover[comp_of[anchor]].add(iso)
    return [cover[k] for k in sorted(cover)]


def detect_from_weights_ref(
    weights: pd.DataFrame,
) -> Tuple[List[Set[int]], int, int]:
    """τ2, the τ1 sweep over all edges, and extraction: (cover, τ1, τ2)."""
    tau2 = tau2_int_ref(weights)
    cands = candidate_taus(weights["w_int"].unique(), tau2)
    n_vertices = len(np.unique(weights[["src", "dst"]].to_numpy()))
    tau1 = select_tau1(sweep_entropies(weights, cands, n_vertices))
    return extract_cover(weights, tau1, tau2), tau1, tau2


def postprocess_ref(
    edges: pd.DataFrame,
    g: RefGraph,
    labels: np.ndarray,
) -> Tuple[List[Set[int]], int, int]:
    """Full reference post-processing: returns (cover, τ1_int, τ2_int)."""
    counts = label_counts(g, labels)
    canon = pd.DataFrame(
        {
            "src": np.minimum(edges["src"], edges["dst"]),
            "dst": np.maximum(edges["src"], edges["dst"]),
        }
    )
    canon = canon[canon["src"] != canon["dst"]].drop_duplicates()
    return detect_from_weights_ref(edge_weights_ref(canon, counts))
