"""Per-layer spans installed from outside the program.

A :class:`Tracer` wraps module attributes at their call sites (for example
``repro.core.postprocess.connected_components``), so every call opens a
span. Spans nest; each span runs its Spark jobs under a job group of its own
and restores its parent's group on exit, so a job belongs to exactly the
innermost open span. DataFrame actions (``localCheckpoint``, ``count``,
``collect``, ``toPandas``) are counted on the innermost open span too.

Each span also reads Spark's job counter when it opens and closes, so the
jobs it should own are known independently of the job groups:
:meth:`Tracer.attribution_mismatch` compares the two and fails when a job
ran under another span's group or under none (for example because a nested
span did not restore its parent's group).

Functions that only build lazy frames (``choices.draw_choices``,
``postprocess.edge_weights``, ``graph.*``) do no work when called; their
cost shows up in the self time of whichever span runs the action.

With tracing off no attribute is wrapped and no job group is set, so the
untraced run executes exactly the program's code.
"""
from __future__ import annotations

import functools
import importlib
import time
import uuid
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ACTIONS = ("localCheckpoint", "count", "collect", "toPandas")


@dataclass
class Span:
    """One timed call. ``parent`` indexes the tracer's span list."""

    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    group: Optional[str] = None
    actions: Counter = field(default_factory=Counter)
    jobs: List[int] = field(default_factory=list)  # this span's own jobs
    jobs_from: int = 0  # Spark's job counter when the span opened
    jobs_to: int = 0  # ... and when it closed

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children of one span run one after another on the driver thread, so
    their covered part is the sum of their durations.
    """
    out = [s.wall_s for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.wall_s
    return out


def subtree(spans: Sequence[Span], root: int) -> List[int]:
    """Indices of ``root`` and all its descendants (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


class Tracer:
    """Records spans; a disabled tracer times nothing and wraps nothing."""

    def __init__(self, sc=None, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.sc = sc
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._in_action = False
        self.missing: List[str] = []
        # Job groups must not repeat between tracers on one SparkContext.
        self._group_prefix = f"perfbench-{uuid.uuid4().hex[:12]}"

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        sp = Span(name=name, parent=parent, start=self.clock())
        self.spans.append(sp)
        self._stack.append(idx)
        if self.sc is not None:
            sp.group = f"{self._group_prefix}-{idx}"
            self.sc.setJobGroup(sp.group, name)
            sp.jobs_from = self._jobs_submitted()
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if self.sc is not None:
                sp.jobs_to = self._jobs_submitted()
                if parent is not None:
                    p = self.spans[parent]
                    self.sc.setJobGroup(p.group, p.name)
                else:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)
                    self.sc.setLocalProperty("spark.job.description", None)

    def _jobs_submitted(self) -> int:
        """Jobs submitted so far in the SparkContext; job ids are 0, 1, 2, ..."""
        return self.sc._jsc.sc().dagScheduler().numTotalJobs()

    def current(self) -> Optional[Span]:
        return self.spans[self._stack[-1]] if self._stack else None

    # -- installation ------------------------------------------------------
    def wrap(self, module_name: str, attr: str, span_name: str) -> None:
        """Replace ``module.attr`` by a spanned call; record it if absent."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with self.span(span_name):
                return fn(*args, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, spanned)

    def count_actions(self, frame_cls: type) -> None:
        """Count each action on the innermost open span (outermost call only,
        so an action implemented through another is counted once)."""
        for name in ACTIONS:
            fn = getattr(frame_cls, name)

            def counted(df, *args, _fn=fn, _name=name, **kwargs):
                cur = self.current()
                if cur is None or self._in_action:
                    return _fn(df, *args, **kwargs)
                cur.actions[_name] += 1
                self._in_action = True
                try:
                    return _fn(df, *args, **kwargs)
                finally:
                    self._in_action = False

            self._patched.append((frame_cls, name, fn))
            setattr(frame_cls, name, counted)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- Spark job accounting ----------------------------------------------
    def resolve_jobs(self, spans: Sequence[Span]) -> None:
        """Fill ``span.jobs`` once the listener bus has seen every job."""
        if self.sc is None:
            return
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for sp in spans:
            if sp.group is not None:
                sp.jobs = sorted(tracker.getJobIdsForGroup(sp.group))

    def attribution_mismatch(self, root: int) -> Optional[str]:
        """None when, in ``root``'s subtree, every span's job group holds
        exactly the jobs submitted while it was the innermost open span.

        Call after :meth:`resolve_jobs`.
        """
        idx = subtree(self.spans, root)
        expected = {i: set(range(self.spans[i].jobs_from, self.spans[i].jobs_to)) for i in idx}
        for i in idx:
            p = self.spans[i].parent
            if i != root and p is not None:
                expected[p] -= expected[i]
        bad = [
            f"{self.spans[i].name}: jobs {sorted(set(self.spans[i].jobs) ^ expected[i])[:5]}"
            for i in idx
            if set(self.spans[i].jobs) != expected[i]
        ]
        if not bad:
            return None
        return f"{len(bad)} spans own other jobs than ran inside them, e.g. {bad[0]}"

    def stage_task_counts(self, job_ids: Sequence[int]) -> Tuple[int, int]:
        """(stages run, tasks run) of the given jobs; skipped stages excluded."""
        tracker = self.sc.statusTracker()
        stages, tasks = 0, 0
        for jid in job_ids:
            info = tracker.getJobInfo(jid)
            if info is None:
                continue
            for sid in info.stageIds:
                st = tracker.getStageInfo(sid)
                if st is not None and st.numCompletedTasks > 0:
                    stages += 1
                    tasks += st.numTasks
        return stages, tasks


def layer_totals(spans: Sequence[Span], root: int) -> Dict[str, Dict[str, float]]:
    """Per span name within one operation: calls, wall and self time,
    inclusive jobs and action counts, summed over calls."""
    idx = subtree(spans, root)
    selfs = self_times(spans)
    incl_jobs = {i: len(spans[i].jobs) for i in idx}
    for i in reversed(idx):
        p = spans[i].parent
        if i != root and p is not None:
            incl_jobs[p] += incl_jobs[i]
    out: Dict[str, Dict[str, float]] = {}
    for i in idx:
        sp = spans[i]
        t = out.setdefault(
            sp.name,
            {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "jobs": 0, "actions": 0, "count_actions": 0},
        )
        t["calls"] += 1
        t["wall_s"] += sp.wall_s
        t["self_s"] += selfs[i]
        t["jobs"] += incl_jobs[i]
        t["actions"] += sum(sp.actions.values())
        t["count_actions"] += sp.actions["count"]
    return out
