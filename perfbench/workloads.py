"""The workloads and one measured run of a workload.

Every workload runs rSLPA on one planted-overlap graph: propagate from
scratch (Algorithm 1), then apply a stream of edit batches (Algorithm 2).
The workloads differ in the size of the edit batches.

A run has three parts:

* set-up (``setup_s``): Spark start, input generation and load, and two
  untimed propagations on the workload's graph, which pay the first-use
  costs of the JVM and the Python workers;
* the timed operations, each ending with one action that reads every column
  of its result, so that work deferred into a lazy frame is still timed;
* correctness checks, outside the timed sections: every timed Spark result is
  compared with the NumPy reference engines.

The propagation phase repeats ``run_static`` until ``--seconds`` have passed
(at least ``propagate_reps`` times). The stream has a fixed number of
batches, so its counters repeat exactly from run to run.

A traced run does the same up to the end-to-end figures, so that the
difference between a traced and an untraced run is the cost of the spans.
Then it detects communities on the static state (Section III-B) and runs the
SLPA baseline (Fig. 8), for their per-layer numbers. Neither is an
end-to-end metric: one detection costs 400-450 Spark jobs, 20-35 s on a
4-core machine, and its spread across seeds (a quarter of its median) is
wider than any bound the benchmark may set. Detection after the stream is
not run at all: reading through the stream's lazy overlays made it an order
of magnitude slower (325 s against 26 s on a 300-vertex graph after three
20-edit batches). ``incremental.plan_chars`` tracks the overlay growth.
"""
from __future__ import annotations

import gc
import re
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import pandas as pd

from perfbench import inputs
from perfbench.spans import Tracer, layer_totals, subtree


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graph: Dict[str, float]  # planted_graph parameters, except the seed
    n_iters: int  # rSLPA T
    batch_edits: int
    n_batches: int
    propagate_reps: int  # minimum from-scratch runs
    slpa_iters: int
    slpa_tau: float = 0.2


# T = 50 makes pointer doubling take 4 rounds on every seed (T = 20 takes 3
# or 4), so the propagation work does not jump between seeds.
#
# Both streams are bound by Spark jobs (50-70 ms each on 4 cores): from 10 to
# 400 edits a batch, eta grows over 20x but update_s only about 1.2x, in step
# with the apply_batch job count (109 -> 144 on seed 7, 122 -> 153 on seed
# 11). A regime where eta-proportional work dominates needs graphs far larger
# than a run's time allows.
GRAPH = dict(n=200, k=20, maxk=40, mu=0.1, on=20, om=2, min_c=20, max_c=40)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="stream-small",
            why=(
                "10-edit batches: about 110-120 Spark jobs and 230 changed labels (eta) "
                "per batch; the per-job cost sets update_s"
            ),
            graph=GRAPH,
            n_iters=50,
            batch_edits=10,
            n_batches=3,
            propagate_reps=4,
            slpa_iters=4,
        ),
        Workload(
            name="stream-large",
            why=(
                "400-edit batches: over 20x the eta and 30x the messages of stream-small, "
                "yet only about 30% more Spark jobs, which set update_s"
            ),
            graph=GRAPH,
            n_iters=50,
            batch_edits=400,
            n_batches=3,
            propagate_reps=4,
            slpa_iters=4,
        ),
    )
}

# Spans installed in a traced run: (module, attribute, span name).
SPANNED = [
    ("repro.core.rslpa", "run_static", "rslpa.run_static"),
    ("repro.core.rslpa", "resolve_labels", "resolve.resolve_labels"),
    ("repro.core.rslpa", "detect_communities", "rslpa.detect_communities"),
    ("repro.core.rslpa", "postprocess", "postprocess.postprocess"),
    ("repro.core.postprocess", "tau2_int_of", "postprocess.tau2_int_of"),
    ("repro.core.postprocess", "extract_communities", "postprocess.extract_communities"),
    ("repro.core.postprocess", "connected_components", "cc.connected_components"),
    ("repro.core.incremental", "apply_batch", "incremental.apply_batch"),
    ("repro.slpa.slpa", "run_slpa", "slpa.run_slpa"),
    ("repro.slpa.slpa", "slpa_communities", "slpa.slpa_communities"),
]
LAZY_IN_CALLER = ["choices.draw_choices", "postprocess.edge_weights", "graph.*"]

# name -> (unit, better) for every end-to-end metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "propagate_s": ("s", "lower"),
    "update_s": ("s", "lower"),
    "edits_per_s": ("1/s", "higher"),
    "state_mb": ("MB", "lower"),
}

# Per-layer quantities read from each operation's span tree:
# (span name, quantity of layer_totals, metric name).
SPAN_METRICS = {
    "propagate": [
        ("rslpa.run_static", "wall_s", "rslpa.run_static.wall_s"),
        ("rslpa.run_static", "self_s", "rslpa.run_static.self_s"),
        ("rslpa.run_static", "jobs", "rslpa.run_static.jobs"),
        ("resolve.resolve_labels", "wall_s", "resolve.resolve_labels.wall_s"),
        ("resolve.resolve_labels", "jobs", "resolve.resolve_labels.jobs"),
    ],
    "detect": [
        ("rslpa.detect_communities", "wall_s", "rslpa.detect_communities.wall_s"),
        ("postprocess.postprocess", "self_s", "postprocess.postprocess.self_s"),
        ("postprocess.postprocess", "jobs", "postprocess.postprocess.jobs"),
        ("postprocess.tau2_int_of", "wall_s", "postprocess.tau2_int_of.wall_s"),
        ("postprocess.tau2_int_of", "jobs", "postprocess.tau2_int_of.jobs"),
        ("postprocess.extract_communities", "self_s", "postprocess.extract_communities.self_s"),
        ("postprocess.extract_communities", "jobs", "postprocess.extract_communities.jobs"),
        ("cc.connected_components", "calls", "cc.connected_components.calls"),
        ("cc.connected_components", "wall_s", "cc.connected_components.wall_s"),
        ("cc.connected_components", "jobs", "cc.connected_components.jobs"),
        # Each component round ends with one changed-label count.
        ("cc.connected_components", "count_actions", "cc.connected_components.rounds"),
    ],
    "slpa": [
        ("slpa.run_slpa", "wall_s", "slpa.run_slpa.wall_s"),
        ("slpa.run_slpa", "jobs", "slpa.run_slpa.jobs"),
        ("slpa.slpa_communities", "wall_s", "slpa.slpa_communities.wall_s"),
    ],
    "update": [
        ("incremental.apply_batch", "wall_s", "incremental.apply_batch.wall_s"),
        ("incremental.apply_batch", "self_s", "incremental.apply_batch.self_s"),
        ("incremental.apply_batch", "jobs", "incremental.apply_batch.jobs"),
        ("incremental.apply_batch", "actions", "incremental.apply_batch.actions"),
    ],
}

# Per-layer figures that come from results and counters, not from spans.
COUNTERS = [
    "choices.rows",
    "resolve.resolve_labels.rounds",
    "postprocess.candidates",
    "quality.nmi",
    "quality.slpa_nmi",
    "incremental.affected_vertices",
    "incremental.repicked",
    "incremental.rounds",
    "incremental.messages",
    "incremental.eta",
    "incremental.useful_msg_ratio",
    "incremental.plan_chars",
]

# Reported beside the per-layer metrics but not metrics themselves, as
# neither more nor less of them is better: the thresholds and the cover's
# community and membership counts (which the checks hold equal to the
# reference), and eta_hat (Eq. 8), a function of the inputs only, printed to
# compare with the measured eta.
OUTCOMES = [
    "postprocess.tau1_int",
    "postprocess.tau2_int",
    "postprocess.communities",
    "postprocess.memberships",
    "incremental.eta_hat",
]

# Every per-layer metric is a cost (time, Spark jobs, stages, tasks, rows
# materialised, rounds, messages, plan size, candidates -- each candidate is
# one connected_components run), better lower; except the two NMIs against
# the planted cover and the share of messages that changed a label.
_HIGHER_BETTER = {"quality.nmi", "quality.slpa_nmi", "incremental.useful_msg_ratio"}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in _HIGHER_BETTER:
        return "ratio"
    if name.endswith("plan_chars"):
        return "chars"
    return "count"


# name -> (unit, better) for every per-layer metric.
PER_LAYER = {
    name: (_unit(name), "higher" if name in _HIGHER_BETTER else "lower")
    for name in sorted(
        [m for rows in SPAN_METRICS.values() for _, _, m in rows]
        + [
            f"{op}.{q}"
            for op in SPAN_METRICS
            for q in ("force.wall_s", "spark.jobs", "spark.stages", "spark.tasks")
        ]
        + COUNTERS
    )
}


@dataclass
class Inputs:
    graph: inputs.PlantedGraph
    stream: List[Tuple[pd.DataFrame, pd.DataFrame]]

    def describe(self) -> Dict[str, object]:
        flat = [f for pair in self.stream for f in pair]
        return {
            "vertices": int(np.unique(self.graph.edges.to_numpy()).size),
            "edges": int(len(self.graph.edges)),
            "graph_hash": inputs.content_hash(self.graph.edges),
            "batches": len(self.stream),
            "edits": int(sum(len(f) for f in flat)),
            "stream_hash": inputs.content_hash(*flat),
            "planted_communities": len(self.graph.communities),
        }


def make_inputs(wl: Workload, seed: int) -> Inputs:
    """Everything a run feeds the program, as a function of ``seed`` only."""
    g = inputs.planted_graph(seed=seed, **wl.graph)
    stream = inputs.edit_stream(g.edges, wl.n_batches, wl.batch_edits, seed)
    return Inputs(graph=g, stream=stream)


def force(df) -> Tuple[int, int]:
    """One action that reads every column: (row count, xor of row hashes)."""
    from pyspark.sql import functions as F

    row = (
        df.select(F.xxhash64(*df.columns).alias("h"))
        .agg(F.count("*").alias("n"), F.bit_xor("h").alias("x"))
        .collect()[0]
    )
    return int(row["n"]), int(row["x"] or 0)


# -- correctness ------------------------------------------------------------
class Checker:
    """Counts checked results and failures; times the reference engines."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.reference_s = 0.0

    def check(self, what: str, fn: Callable[[], Optional[str]]) -> None:
        """``fn`` returns None when the result is right, else a reason."""
        self.attempted += 1
        t = self.clock()
        try:
            reason = fn()
        except Exception as exc:  # a check that raises is a failed check
            reason = f"check raised {exc!r}"
        self.reference_s += self.clock() - t
        if reason is not None:
            self.failed += 1
            self.errors.append(f"{what}: {reason}")

    def op_failed(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: raised {exc!r}")


def labels_mismatch(spark_labels: pd.DataFrame, ref_labels: pd.DataFrame) -> Optional[str]:
    """None when the (id, t, label) tables are bit-identical."""
    cols = ["id", "t", "label"]
    a = spark_labels[cols].astype(np.int64).sort_values(["id", "t"]).to_numpy()
    b = ref_labels[cols].astype(np.int64).sort_values(["id", "t"]).to_numpy()
    if a.shape != b.shape:
        return f"label rows {a.shape[0]} != reference {b.shape[0]}"
    diff = int((a != b).any(axis=1).sum())
    return None if diff == 0 else f"{diff} label rows differ from the reference"


def covers_mismatch(got, want) -> Optional[str]:
    """None when two covers are equal as sets of vertex sets."""
    g = {frozenset(int(v) for v in c) for c in got}
    w = {frozenset(int(v) for v in c) for c in want}
    if g == w:
        return None
    return f"covers differ: {len(g - w)} communities extra, {len(w - g)} missing"


def cover_of(communities: pd.DataFrame) -> List[set]:
    return [set(grp["id"].astype(int)) for _, grp in communities.groupby("comp")]


# -- the run ----------------------------------------------------------------
@dataclass
class Op:
    kind: str  # propagate | detect | slpa | update
    seconds: float
    root: Optional[int] = None  # root span index when traced
    extra: Dict[str, float] = field(default_factory=dict)


def _timed(tracer: Tracer, kind: str, call: Callable, result_frame: Callable, clock):
    """Run ``call``, then force ``result_frame(result)``; time both."""
    root = len(tracer.spans) if tracer.enabled else None
    with tracer.span(f"bench.{kind}"):
        t = clock()
        out = call()
        with tracer.span("bench.force"):
            frame = result_frame(out)
            if frame is not None:
                force(frame)
        seconds = clock() - t
    return out, Op(kind=kind, seconds=seconds, root=root)


WARMUP_PROPAGATIONS = 2


def warm_up(edges, wl: Workload, seed: int) -> None:
    """Untimed propagations on the workload's graph.

    The first ``run_static`` of a process takes about three times as long
    as the next, and the next few still speed up by a tenth or so each; after
    two the timed repetitions are level. Updates get no warm-up pass of their
    own (it would cost a whole batch of set-up time); the first batch's extra
    cost is in the stream, where the median over batches discounts it.
    """
    from repro.core import rslpa

    for _ in range(WARMUP_PROPAGATIONS):
        force(rslpa.run_static(edges, wl.n_iters, seed).labels)


def storage_mb(spark) -> float:
    """Blocks Spark holds (memory + disk) once unreachable state is cleaned.

    Dropped Python references release their JVM objects; a JVM collection
    then lets Spark's context cleaner remove the blocks of unreachable
    checkpoints, which it does asynchronously, so the figure is read once it
    stops changing.
    """
    sc = spark.sparkContext

    def held() -> int:
        return sum(i.memSize() + i.diskSize() for i in sc._jsc.sc().getRDDStorageInfo())

    readings: List[int] = []
    for _ in range(40):
        gc.collect()
        sc._jvm.java.lang.System.gc()
        time.sleep(0.1)
        readings.append(held())
        if len(readings) >= 5 and len(set(readings[-5:])) == 1:
            break
    return readings[-1] / 1e6


def plan_chars(df) -> int:
    """Length of the optimized plan, with expression ids stripped so that
    the figure does not depend on how many plans the JVM built before."""
    text = df._jdf.queryExecution().optimizedPlan().toString()
    return len(re.sub(r"#\d+L?", "#", text))


def run_workload(
    spark,
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    clock: Callable[[], float] = time.perf_counter,
) -> Dict[str, object]:
    """Set up, measure and check one run; returns the full result record."""
    from repro.core import complexity, incremental, rslpa
    from repro.metrics.nmi import overlapping_nmi
    from repro.reference.incremental_ref import ref_apply_batch, ref_run_static
    from repro.reference.postprocess_ref import postprocess_ref
    from repro.reference.rslpa_ref import labels_long
    from repro.slpa import slpa
    from repro.slpa.reference import slpa_communities_ref

    # -- set-up ------------------------------------------------------------
    t = clock()
    inp = make_inputs(wl, seed)
    edges = spark.createDataFrame(inp.graph.edges).localCheckpoint(eager=True)
    batches = [
        (spark.createDataFrame(i), spark.createDataFrame(d)) for i, d in inp.stream
    ]
    inputs_s = clock() - t
    t = clock()
    warm_up(edges, wl, seed)
    warmup_s = clock() - t
    setup_s = clock() - started

    tracer = Tracer(spark.sparkContext if trace else None, enabled=trace, clock=clock)
    if trace:
        for module, attr, name in SPANNED:
            tracer.wrap(module, attr, name)
        tracer.count_actions(type(edges))
    checker = Checker(clock)
    ops: List[Op] = []
    layer: Dict[str, List[float]] = {}

    def note(name: str, value: float) -> None:
        layer.setdefault(name, []).append(float(value))

    def check_labels(what: str, st, ref) -> None:
        checker.check(
            what,
            lambda: labels_mismatch(st.labels.toPandas(), labels_long(ref.g, ref.labels)),
        )

    T, s = wl.n_iters, seed
    state_mb = float("nan")
    try:
        t = clock()
        ref_static = ref_run_static(inp.graph.edges, T, s)
        checker.reference_s += clock() - t

        # -- propagate: run_static from scratch, repeated ---------------------
        # Results are checked after the timed repetitions, so that no check
        # work sits between them.
        t_window = clock()
        static_states = []
        while True:
            state, op = _timed(
                tracer, "propagate", lambda: rslpa.run_static(edges, T, s),
                lambda st: st.labels, clock,
            )
            ops.append(op)
            static_states.append(state)
            if len(static_states) >= wl.propagate_reps and clock() - t_window >= seconds:
                break
        for st in static_states:
            check_labels("run_static labels", st, ref_static)
            note("choices.rows", st.choices.count())
        # The last static state is the stream's base; a traced run detects
        # communities on it once the end-to-end figures are taken.
        base = static_states[-1]
        del static_states, st

        # -- stream of edit batches, each applied to the state before it -------
        updated = []
        for (ins, dels), (ins_df, dels_df) in zip(inp.stream, batches):
            (state, stats), op = _timed(
                tracer, "update",
                lambda: incremental.apply_batch(state, ins_df, dels_df),
                lambda out: out[0].labels, clock,
            )
            op.extra["edits"] = len(ins) + len(dels)
            ops.append(op)
            updated.append((state, stats))
        ref_state = ref_static
        for b, ((ins, dels), (st, stats)) in enumerate(zip(inp.stream, updated)):
            n_vertices, n_edges = ref_state.g.n, len(ref_state.edges)
            t = clock()
            ref_state, ref_stats = ref_apply_batch(ref_state, ins, dels)
            checker.reference_s += clock() - t
            got = {k: getattr(stats, k) for k in ref_stats}
            checker.check(
                f"apply_batch {b} stats",
                lambda: None if got == ref_stats else f"{got} != reference {ref_stats}",
            )
            check_labels(f"apply_batch {b} labels", st, ref_state)
            messages = sum(stats.round_deltas)
            pc = complexity.p_c(stats.m_deleted, stats.m_inserted, n_edges)
            note("incremental.affected_vertices", stats.n_affected_vertices)
            note("incremental.repicked", stats.n_repicked)
            note("incremental.rounds", stats.rounds)
            note("incremental.messages", messages)
            note("incremental.eta", stats.eta)
            note("incremental.eta_hat", complexity.eta_expected(T, n_vertices, pc))
            note(
                "incremental.useful_msg_ratio",
                stats.n_value_changed / messages if messages else 0.0,
            )
        del updated, st
        note("incremental.plan_chars", plan_chars(state.labels))
        state_mb = storage_mb(spark)

        # Up to here a traced run does what an untraced run does, so the
        # difference of their end-to-end figures is the cost of the spans.
        if trace:
            # -- detect communities on the static state -----------------------
            result, op = _timed(
                tracer, "detect", lambda: rslpa.detect_communities(base),
                lambda r: r.communities, clock,
            )
            ops.append(op)
            t = clock()
            ref_cover, ref_tau1, ref_tau2 = postprocess_ref(
                ref_static.edges, ref_static.g, ref_static.labels
            )
            checker.reference_s += clock() - t
            got_taus = (result.tau1_int, result.tau2_int)
            checker.check(
                "detect thresholds",
                lambda: None
                if got_taus == (ref_tau1, ref_tau2)
                else f"(tau1, tau2) = {got_taus} != reference {(ref_tau1, ref_tau2)}",
            )
            comms = result.communities.toPandas()
            checker.check("detect cover", lambda: covers_mismatch(cover_of(comms), ref_cover))
            note("postprocess.tau1_int", result.tau1_int)
            note("postprocess.tau2_int", result.tau2_int)
            note("postprocess.communities", comms["comp"].nunique())
            note("postprocess.memberships", len(comms))
            note("quality.nmi", overlapping_nmi(cover_of(comms), inp.graph.communities))
            del result

            # -- SLPA baseline -----------------------------------------------
            def slpa_call():
                mem = slpa.run_slpa(edges, wl.slpa_iters, s)
                with tracer.span("bench.force"):
                    force(mem)
                return slpa.slpa_communities(mem, wl.slpa_tau, wl.slpa_iters)

            slpa_cover, op = _timed(tracer, "slpa", slpa_call, lambda c: None, clock)
            ops.append(op)
            t = clock()
            want = slpa_communities_ref(inp.graph.edges, wl.slpa_iters, s, wl.slpa_tau)
            checker.reference_s += clock() - t
            checker.check("slpa cover", lambda: covers_mismatch(slpa_cover, want))
            note("quality.slpa_nmi", overlapping_nmi(slpa_cover, inp.graph.communities))
    except Exception as exc:  # an operation that raises ends the run
        checker.op_failed(f"operation {len(ops) + 1}", exc)
    finally:
        tracer.uninstall()

    if trace:
        # Every job of a timed operation must belong to the span it ran in.
        tracer.resolve_jobs(tracer.spans)
        for i, op in enumerate(ops):
            checker.check(
                f"{op.kind} {i} span jobs", lambda: tracer.attribution_mismatch(op.root)
            )
    e2e = end_to_end(ops, setup_s, state_mb)
    record: Dict[str, object] = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "inputs": inp.describe(),
        "inputs_s": inputs_s,
        "warmup_s": warmup_s,
        "reference_s": checker.reference_s,
        "ops": [{"kind": o.kind, "seconds": o.seconds, **o.extra} for o in ops],
        "e2e": e2e,
        "fig9_ratio": e2e["propagate_s"] / e2e["update_s"],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
    }
    if trace:
        figures = per_layer(tracer, ops, layer)
        record["per_layer"] = {k: v for k, v in figures.items() if k in PER_LAYER}
        record["outcomes"] = {k: v for k, v in figures.items() if k in OUTCOMES}
        record["missing_spans"] = tracer.missing
        record["lazy_in_caller_self"] = LAZY_IN_CALLER
    return record


def end_to_end(ops: List[Op], setup_s: float, state_mb: float) -> Dict[str, float]:
    def med(kind: str) -> float:
        vals = [o.seconds for o in ops if o.kind == kind]
        return statistics.median(vals) if vals else float("nan")

    updates = [o for o in ops if o.kind == "update"]
    total = sum(o.seconds for o in updates)
    return {
        "setup_s": setup_s,
        "propagate_s": med("propagate"),
        "update_s": med("update"),
        "edits_per_s": sum(o.extra["edits"] for o in updates) / total if total else float("nan"),
        "state_mb": state_mb,
    }


def per_layer(tracer: Tracer, ops: List[Op], layer: Dict[str, List[float]]) -> Dict[str, float]:
    """Median over a run's operations of each per-layer quantity."""
    vals: Dict[str, List[float]] = {k: list(v) for k, v in layer.items()}

    def add(name: str, value: float) -> None:
        vals.setdefault(name, []).append(float(value))

    spans = tracer.spans
    for op in ops:
        tot = layer_totals(spans, op.root)
        for span_name, qty, metric in SPAN_METRICS[op.kind]:
            add(metric, tot.get(span_name, {}).get(qty, 0))
        add(f"{op.kind}.force.wall_s", tot["bench.force"]["wall_s"])
        jobs = [j for i in subtree(spans, op.root) for j in spans[i].jobs]
        stages, tasks = tracer.stage_task_counts(jobs)
        add(f"{op.kind}.spark.jobs", len(jobs))
        add(f"{op.kind}.spark.stages", stages)
        add(f"{op.kind}.spark.tasks", tasks)
        if op.kind == "propagate":
            # One pending-chain count per doubling round, plus the final one.
            resolve = tot.get("resolve.resolve_labels", {})
            add("resolve.resolve_labels.rounds", max(resolve.get("count_actions", 0) - 1, 0))
        if op.kind == "detect":
            pp = {i for i in subtree(spans, op.root) if spans[i].name == "postprocess.postprocess"}
            add(
                "postprocess.candidates",
                sum(sp.name == "cc.connected_components" and sp.parent in pp for sp in spans),
            )
    return {k: statistics.median(v) for k, v in sorted(vals.items())}
