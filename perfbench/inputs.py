"""The benchmark's own input generators, seeded by the benchmark's argument.

These are frozen copies of the planted-overlap generator
(``repro.lfr.generator.lfr_graph``) and of the paper's edit workload
(``repro.webgraph.generator.edit_batch``). Keeping copies here means a later
change to the program's generators (for example a fix to the realized mixing
parameter) cannot silently change a workload: the content hash of every
input is printed with each result.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np
import pandas as pd


@dataclass
class PlantedGraph:
    """Canonical edge list (``src < dst``) plus its planted cover."""

    edges: pd.DataFrame
    communities: List[Set[int]]


def _truncated_powerlaw(
    rng: np.random.Generator, size: int, lo: int, hi: int, exponent: float
) -> np.ndarray:
    support = np.arange(lo, hi + 1, dtype=np.float64)
    p = support**-exponent
    p /= p.sum()
    return rng.choice(np.arange(lo, hi + 1), size=size, p=p)


def _degree_kmin(k_avg: float, maxk: int, t1: float) -> int:
    """Smallest kmin whose truncated power-law mean is closest to k_avg."""
    best, best_err = 1, np.inf
    for kmin in range(1, maxk):
        d = np.arange(kmin, maxk + 1, dtype=np.float64)
        p = d**-t1
        err = abs((d * p).sum() / p.sum() - k_avg)
        if err < best_err:
            best, best_err = kmin, err
    return best


def _pair_stubs(
    rng: np.random.Generator,
    stubs: np.ndarray,
    existing: Set[Tuple[int, int]],
    allowed,
    max_rounds: int = 8,
) -> List[Tuple[int, int]]:
    """Configuration-model matching; invalid pairs are reshuffled a few
    rounds and stubborn leftovers dropped."""
    out: List[Tuple[int, int]] = []
    pool = np.array(stubs, dtype=np.int64)
    for _ in range(max_rounds):
        if len(pool) < 2:
            break
        rng.shuffle(pool)
        if len(pool) % 2:
            pool = pool[:-1]
        leftover = []
        for u, v in zip(pool[0::2], pool[1::2]):
            u, v = int(min(u, v)), int(max(u, v))
            if u == v or (u, v) in existing or not allowed(u, v):
                leftover.extend((u, v))
                continue
            existing.add((u, v))
            out.append((u, v))
        pool = np.array(leftover, dtype=np.int64)
    return out


def planted_graph(
    n: int,
    k: float,
    maxk: int,
    mu: float,
    on: int,
    om: int,
    min_c: int,
    max_c: int,
    seed: int,
    t1: float = 2.0,
    t2: float = 1.0,
) -> PlantedGraph:
    """LFR-style overlapping-community graph (same construction and the same
    draws as ``repro.lfr.generator.lfr_graph`` at the time of copying)."""
    rng = np.random.default_rng(seed)
    max_c = min(max_c, n)
    kmin = _degree_kmin(k, maxk, t1)
    deg = _truncated_powerlaw(rng, n, kmin, maxk, t1).astype(np.int64)
    slots = n + on * (om - 1)
    sizes: List[int] = []
    while sum(sizes) < slots:
        sizes.append(int(_truncated_powerlaw(rng, 1, min_c, max_c, t2)[0]))
    sizes[-1] = max(min_c, sizes[-1] - (sum(sizes) - slots))
    n_comm = len(sizes)
    caps = np.array(sizes, dtype=np.float64)
    member_count = np.ones(n, dtype=np.int64)
    member_count[rng.choice(n, size=min(on, n), replace=False)] = om
    memberships: Dict[int, Set[int]] = {v: set() for v in range(n)}
    for v in rng.permutation(n):
        m = int(member_count[v])
        avail = np.flatnonzero(caps > 0)
        if len(avail) < m:
            avail = np.arange(n_comm)
        p = np.maximum(caps[avail], 0.25)
        for c in rng.choice(avail, size=m, replace=False, p=p / p.sum()):
            memberships[int(v)].add(int(c))
            caps[c] -= 1
    comm_members: List[Set[int]] = [set() for _ in range(n_comm)]
    for v, cs in memberships.items():
        for c in cs:
            comm_members[c].add(v)
    existing: Set[Tuple[int, int]] = set()
    edges: List[Tuple[int, int]] = []
    internal_deg = np.round((1.0 - mu) * deg).astype(np.int64)
    comm_stubs: List[List[int]] = [[] for _ in range(n_comm)]
    internal_assigned = np.zeros(n, dtype=np.int64)
    for v in range(n):
        cs = sorted(memberships[v])
        base, rem = divmod(int(internal_deg[v]), len(cs))
        extra = set(rng.choice(len(cs), size=rem, replace=False)) if rem else set()
        for j, c in enumerate(cs):
            want = base + (1 if j in extra else 0)
            take = min(want, max(len(comm_members[c]) - 1, 0))
            comm_stubs[c].extend([v] * take)
            internal_assigned[v] += take
    for c in range(n_comm):
        edges.extend(
            _pair_stubs(
                rng,
                np.array(comm_stubs[c], dtype=np.int64),
                existing,
                allowed=lambda u, v: True,
            )
        )
    ext_stubs = np.repeat(
        np.arange(n, dtype=np.int64), np.maximum(deg - internal_assigned, 0)
    )
    edges.extend(
        _pair_stubs(
            rng,
            ext_stubs,
            existing,
            allowed=lambda u, v: not (memberships[u] & memberships[v]),
        )
    )
    arr = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return PlantedGraph(
        edges=pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]}),
        communities=[s for s in comm_members if len(s) >= 2],
    )


def edit_batch(
    edges: pd.DataFrame, n_edits: int, seed: int
) -> Tuple[pd.DataFrame, pd.DataFrame]:
    """The paper's edit workload: ``(inserts, deletes)``, half each.

    Deletions are uniform over existing edges; insertions are uniform over
    vertex pairs not present (rejection-sampled).
    """
    rng = np.random.default_rng(seed)
    existing = {(int(a), int(b)) for a, b in edges.to_numpy()}
    vertex_ids = np.unique(edges[["src", "dst"]].to_numpy())
    n_del = n_edits // 2
    n_ins = n_edits - n_del
    del_idx = rng.choice(len(edges), size=min(n_del, len(edges)), replace=False)
    deletes = edges.iloc[np.sort(del_idx)].reset_index(drop=True)
    inserts: Set[Tuple[int, int]] = set()
    while len(inserts) < n_ins:
        need = (n_ins - len(inserts)) * 2 + 8
        u = rng.choice(vertex_ids, size=need)
        v = rng.choice(vertex_ids, size=need)
        for a, b in zip(np.minimum(u, v), np.maximum(u, v)):
            a, b = int(a), int(b)
            if a != b and (a, b) not in existing and (a, b) not in inserts:
                inserts.add((a, b))
                if len(inserts) >= n_ins:
                    break
    arr = np.array(sorted(inserts), dtype=np.int64).reshape(-1, 2)
    return pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]}), deletes


def apply_edits(
    edges: pd.DataFrame, inserts: pd.DataFrame, deletes: pd.DataFrame
) -> pd.DataFrame:
    """Edge set after one batch: inserts first, then deletes (set semantics)."""
    cur = {(int(a), int(b)) for a, b in edges.to_numpy()}
    cur |= {(int(a), int(b)) for a, b in inserts.to_numpy()}
    cur -= {(int(a), int(b)) for a, b in deletes.to_numpy()}
    arr = np.array(sorted(cur), dtype=np.int64).reshape(-1, 2)
    return pd.DataFrame({"src": arr[:, 0], "dst": arr[:, 1]})


def edit_stream(
    edges: pd.DataFrame, n_batches: int, n_edits: int, seed: int
) -> List[Tuple[pd.DataFrame, pd.DataFrame]]:
    """Sequential batches, each drawn against the graph as it then stands."""
    out = []
    for i in range(n_batches):
        ins, dels = edit_batch(edges, n_edits, seed=seed * 1_000 + i)
        out.append((ins, dels))
        edges = apply_edits(edges, ins, dels)
    return out


def content_hash(*frames: pd.DataFrame) -> str:
    """Short SHA-256 over the int64 contents of edge frames, in order."""
    h = hashlib.sha256()
    for f in frames:
        h.update(np.ascontiguousarray(f[["src", "dst"]].to_numpy(np.int64)))
        h.update(b"|")
    return h.hexdigest()[:16]
