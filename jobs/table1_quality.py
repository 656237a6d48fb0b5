"""Table I — LFR parameters and the quality study they drive (Fig. 7 data).

The paper's Table I lists the LFR knobs; the quality experiments sweep them
(Fig. 7a–f) and report NMI for SLPA (T=100, τ=0.2) and rSLPA (T=200,
τ1/τ2 from Eqs. 1–2). This job reproduces those sweeps as printed tables.

Sweeps run on the *reference engine*, which is asserted bit-identical to the
Spark engine elsewhere in the test suite (DESIGN.md Section 4 documents why:
6 sweeps x 5 points x several runs at T=100..200 do not fit a single-machine
Spark budget). Scale is configurable: the defaults reproduce the paper's
parameter ratios at n=2000 (paper: n=10,000); pass ``--paper-scale`` for the
paper's full N=10,000 (slower).

Run: ``python jobs/table1_quality.py [--runs R] [--n N] [--paper-scale]``
"""
from __future__ import annotations

import sys
import time
from typing import Dict, List

import numpy as np

from repro.lfr.generator import lfr_graph
from repro.metrics.nmi import overlapping_nmi
from repro.reference.incremental_ref import ref_run_static
from repro.reference.postprocess_ref import postprocess_ref
from repro.slpa.reference import slpa_communities_ref


def _nmi_rslpa(res, n_iters, seed) -> float:
    st = ref_run_static(res.edges, n_iters, seed)
    cover, _, _ = postprocess_ref(res.edges, st.g, st.labels)
    return overlapping_nmi(cover, res.communities)


def _nmi_slpa(res, n_iters, seed, tau=0.2) -> float:
    cover = slpa_communities_ref(res.edges, n_iters, seed, tau=tau)
    return overlapping_nmi(cover, res.communities)


def run_point(
    *, runs: int, t_slpa: int, t_rslpa: int, **lfr_kwargs
) -> Dict[str, float]:
    """Average NMI for both algorithms at one parameter point."""
    s_scores, r_scores = [], []
    for run in range(runs):
        res = lfr_graph(seed=run, **lfr_kwargs)
        s_scores.append(_nmi_slpa(res, t_slpa, seed=run))
        r_scores.append(_nmi_rslpa(res, t_rslpa, seed=run))
    return {
        "slpa": float(np.mean(s_scores)),
        "rslpa": float(np.mean(r_scores)),
    }


def sweeps(n_base: int, runs: int, t_slpa: int, t_rslpa: int):
    """Yield (sweep name, x value, scores) for every Fig. 7 panel."""
    k, maxk = 30, 100
    scale = n_base / 10_000

    def base(n=None, **over):
        n = n or n_base
        d = dict(
            n=n, k=k, maxk=maxk, mu=0.1, on=int(0.1 * n), om=2,
            min_c=20, max_c=min(100, n // 4),
        )
        d.update(over)
        return d

    # Fig. 7a — convergence: rSLPA NMI vs T.
    res = lfr_graph(seed=0, **base())
    for T in (50, 100, 200, 400):
        yield ("7a:T", T, {"rslpa": _nmi_rslpa(res, T, seed=0), "slpa": float("nan")})
    # Fig. 7b — N.
    for n in (n_base, 2 * n_base, 5 * n_base):
        yield ("7b:N", n, run_point(runs=runs, t_slpa=t_slpa, t_rslpa=t_rslpa, **base(n=n, on=int(0.1 * n))))
    # Fig. 7c — average degree k.
    for kk in (10, 30, 50, 70):
        yield ("7c:k", kk, run_point(runs=runs, t_slpa=t_slpa, t_rslpa=t_rslpa, **base(k=kk, maxk=max(maxk, kk + 10))))
    # Fig. 7d — mixing parameter μ.
    for mu in (0.1, 0.2, 0.3):
        yield ("7d:mu", mu, run_point(runs=runs, t_slpa=t_slpa, t_rslpa=t_rslpa, **base(mu=mu)))
    # Fig. 7e — om.
    for om in (2, 3, 4, 5):
        yield ("7e:om", om, run_point(runs=runs, t_slpa=t_slpa, t_rslpa=t_rslpa, **base(om=om)))
    # Fig. 7f — on.
    for frac in (0.1, 0.2, 0.3):
        yield ("7f:on", frac, run_point(runs=runs, t_slpa=t_slpa, t_rslpa=t_rslpa, **base(on=int(frac * n_base))))


def main(argv: List[str]):
    runs = 3
    n_base = 2000
    t_slpa, t_rslpa = 100, 200
    if "--runs" in argv:
        runs = int(argv[argv.index("--runs") + 1])
    if "--n" in argv:
        n_base = int(argv[argv.index("--n") + 1])
    if "--paper-scale" in argv:
        n_base, runs = 10_000, 10
    print(
        f"Table I quality study (LFR-lite, n={n_base}, runs={runs}, "
        f"T_SLPA={t_slpa}, T_rSLPA={t_rslpa})"
    )
    print(f"{'sweep':<8}{'x':>8}{'NMI(SLPA)':>12}{'NMI(rSLPA)':>12}")
    t0 = time.time()
    for sweep, x, scores in sweeps(n_base, runs, t_slpa, t_rslpa):
        print(
            f"{sweep:<8}{x:>8}{scores['slpa']:>12.3f}{scores['rslpa']:>12.3f}",
            flush=True,
        )
    print(f"total {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main(sys.argv)
