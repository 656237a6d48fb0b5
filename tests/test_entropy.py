"""Tests for the community-size entropy, paper Eq. 1 (repro.metrics.entropy)."""
import math

import numpy as np
import pytest

from repro.metrics.entropy import size_entropy


class TestSizeEntropy:
    def test_empty(self):
        assert size_entropy([], 100) == 0.0

    def test_single_full_community(self):
        # One community covering everything: -1*log(1) = 0.
        assert size_entropy([100], 100) == pytest.approx(0.0)

    def test_two_halves(self):
        assert size_entropy([50, 50], 100) == pytest.approx(math.log(2))

    def test_equal_partition_maximizes(self):
        # Among partitions into 4 communities of 100 total, equal sizes win.
        eq = size_entropy([25, 25, 25, 25], 100)
        skew = size_entropy([70, 10, 10, 10], 100)
        assert eq > skew

    def test_more_micro_vs_one_macro(self):
        # Eq. 1's purpose: both extremes score lower than a balanced middle.
        macro = size_entropy([99], 100)
        micro = size_entropy([2] * 50, 100)
        balanced = size_entropy([20] * 5, 100)
        assert balanced > macro
        # 50 communities of 2: entropy = -sum(0.02*log0.02) = log(50)*... —
        # actually high; Eq. 1 penalizes micro only via sizes. Check value:
        assert micro == pytest.approx(-50 * (2 / 100) * math.log(2 / 100))

    def test_matches_formula(self):
        sizes, n = [10, 30, 5], 100
        expect = -sum((s / n) * math.log(s / n) for s in sizes)
        assert size_entropy(sizes, n) == pytest.approx(expect)

    def test_non_partition_allowed(self):
        # Communities need not cover V (Eq. 1 uses |C_i|/|V| directly).
        assert size_entropy([10], 1000) > 0.0

    def test_zero_vertices(self):
        assert size_entropy([1, 2], 0) == 0.0

    def test_permutation_invariant_bit_exact(self):
        # The τ1 argmax compares entropies of the same communities found in
        # different orders (forest vs all edges): they must be equal bits.
        rng = np.random.default_rng(0)
        sizes = rng.integers(2, 60, 500).tolist()
        want = size_entropy(sizes, 20_000)
        for _ in range(20):
            assert size_entropy(rng.permutation(sizes).tolist(), 20_000) == want
