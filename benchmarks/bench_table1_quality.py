"""Benchmark for the Table I quality study (one representative point per
sweep; full tables via ``jobs/table1_quality.py``).

Measures the end-to-end rSLPA and SLPA pipelines on the reference engine at
a mid-size LFR instance and stores the achieved NMI in ``extra_info`` so the
quality numbers land in bench_output.txt next to the timings.
"""
import pytest

from repro.lfr.generator import lfr_graph
from repro.metrics.nmi import overlapping_nmi
from repro.reference.incremental_ref import ref_run_static
from repro.reference.postprocess_ref import postprocess_ref
from repro.slpa.reference import slpa_communities_ref

N = 2000
T_SLPA, T_RSLPA = 100, 200


@pytest.fixture(scope="module")
def lfr():
    return lfr_graph(
        n=N, k=30, maxk=100, mu=0.1, on=N // 10, om=2, min_c=20, max_c=100,
        seed=0,
    )


def test_rslpa_quality_pipeline(benchmark, lfr):
    def pipeline():
        st = ref_run_static(lfr.edges, T_RSLPA, seed=1)
        cover, t1, t2 = postprocess_ref(lfr.edges, st.g, st.labels)
        return cover

    cover = benchmark.pedantic(pipeline, rounds=2, iterations=1)
    nmi = overlapping_nmi(cover, lfr.communities)
    benchmark.extra_info["nmi"] = round(nmi, 3)
    benchmark.extra_info["n_communities"] = len(cover)
    benchmark.extra_info["setting"] = f"LFR n={N}, mu=0.1, om=2, T={T_RSLPA}"
    assert nmi > 0.5


def test_slpa_quality_pipeline(benchmark, lfr):
    cover = benchmark.pedantic(
        lambda: slpa_communities_ref(lfr.edges, T_SLPA, seed=1, tau=0.2),
        rounds=2,
        iterations=1,
    )
    nmi = overlapping_nmi(cover, lfr.communities)
    benchmark.extra_info["nmi"] = round(nmi, 3)
    benchmark.extra_info["n_communities"] = len(cover)
    benchmark.extra_info["setting"] = f"LFR n={N}, mu=0.1, om=2, T={T_SLPA}"
    assert nmi > 0.5


def test_rslpa_quality_high_overlap(benchmark):
    """Fig. 7e's interesting point: om=4, where rSLPA's retained detail
    narrows the gap to SLPA (paper: rSLPA overtakes for om > 3)."""
    res = lfr_graph(
        n=N, k=30, maxk=100, mu=0.1, on=N // 10, om=4, min_c=20, max_c=100,
        seed=0,
    )

    def pipeline():
        st = ref_run_static(res.edges, T_RSLPA, seed=1)
        cover, _, _ = postprocess_ref(res.edges, st.g, st.labels)
        slpa_cover = slpa_communities_ref(res.edges, T_SLPA, seed=1, tau=0.2)
        return cover, slpa_cover

    cover, slpa_cover = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    benchmark.extra_info["nmi_rslpa_om4"] = round(
        overlapping_nmi(cover, res.communities), 3
    )
    benchmark.extra_info["nmi_slpa_om4"] = round(
        overlapping_nmi(slpa_cover, res.communities), 3
    )
