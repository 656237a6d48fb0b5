"""Union-find connected components for the rSLPA post-processing.

Both engines use it on the driver (``repro.core.postprocess``): the
per-partition Kruskal that builds the maximum spanning forest, the
descending τ1 sweep that adds edges to one union-find instance, and the
strong-community extraction at τ1.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple


class UnionFind:
    """Path-halving union-find over arbitrary hashable vertex ids."""

    def __init__(self, items: Iterable[int] = ()):  # noqa: D107
        self.parent: Dict[int, int] = {}
        self.size: Dict[int, int] = {}
        for v in items:
            self.add(v)

    def add(self, v: int) -> None:
        if v not in self.parent:
            self.parent[v] = v
            self.size[v] = 1

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        """Merge the components of ``a`` and ``b``; False if already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True

    def components(self) -> Dict[int, List[int]]:
        """Map from component root to sorted member list."""
        out: Dict[int, List[int]] = {}
        for v in self.parent:
            out.setdefault(self.find(v), []).append(v)
        return {min(m): sorted(m) for m in out.values()}


def components_of_edges(
    edges: Sequence[Tuple[int, int]], vertices: Iterable[int] = ()
) -> Dict[int, List[int]]:
    """Connected components keyed by their minimum vertex id."""
    uf = UnionFind(vertices)
    for u, v in edges:
        uf.add(u)
        uf.add(v)
        uf.union(u, v)
    return uf.components()

