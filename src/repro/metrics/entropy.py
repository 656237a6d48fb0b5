"""Community-size information entropy (paper Eq. 1).

Used by the τ1 selection principle "maximize the information": the entropy of
the relative community sizes, ``-Σ (|C_i|/|V|) log(|C_i|/|V|)``. Both engines
(Spark and reference) funnel their component sizes through this module so the
argmax decision cannot drift between them. The sum runs over the distinct
sizes in ascending order, each term weighted by its count, so its value is
bit-identical for any order in which the communities were found.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np


def entropy_of_size_counts(counts: Mapping[int, int], n_vertices: int) -> float:
    """Eq. 1 from a histogram ``{community size: number of communities}``."""
    sizes = sorted(s for s, c in counts.items() if s > 0 and c > 0)
    if not sizes or n_vertices <= 0:
        return 0.0
    p = np.asarray(sizes, dtype=np.float64) / float(n_vertices)
    c = np.asarray([counts[s] for s in sizes], dtype=np.float64)
    return float(-(c * p * np.log(p)).sum())


def size_entropy(sizes: Iterable[int], n_vertices: int) -> float:
    """Entropy of community sizes relative to the whole graph (natural log).

    ``sizes`` are the extracted community sizes (components with >= 2
    vertices); communities are not required to partition V, matching Eq. 1.
    """
    return entropy_of_size_counts(Counter(int(s) for s in sizes), n_vertices)
