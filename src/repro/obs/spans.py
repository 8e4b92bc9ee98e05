"""Hierarchical span tracing across the sweep fabric.

A *span* is one timed region of the sweep with a name, a kind, optional
structured metadata, point-in-time *events* and nested child spans.  The
tracer records the execution of a sweep as a tree::

    sweep                      (one per SweepExecutor.run_cells call)
    └── cell                   (one per cell, in submission order)
        └── attempt            (exec-side: where/when the cell computed)
            ├── build_traces   (phase)
            └── run:<policy>   (phase)
                ├── engine:event_loop
                └── engine:finish

with cache hits, retries, timeouts and pool-break fallbacks recorded as
*span events* on the enclosing span.

Spans are strictly opt-in (``Telemetry(spans=True)``) and cross process
boundaries by riding the :class:`~repro.obs.snapshot.TelemetrySnapshot`
capture/merge path: a worker's capture telemetry records the cell's
subtree, :func:`~repro.obs.snapshot.capture_snapshot` freezes it into
document form, and the parent grafts it under the cell span at merge
time — so the same subtree is replayed identically whether the cell ran
inline, in a worker, or straight out of the ``<fp>.obs.json`` cache
sidecar.

Determinism contract (``tests/test_obs_spans.py``): the **normalized**
tree — wall-clock fields stripped, execution-side spans spliced out and
execution-side events dropped — is byte-identical across serial,
``--jobs N``, warm-cache and relaunched sweeps.  Anything
nondeterministic (timings, worker pids, attempt indices, cache-hit
events) must therefore be marked ``exec_side`` or live in the stripped
wall-clock fields; ``meta`` of a non-exec span must hold simulated /
structural values only.

Timeline semantics: span *durations* are measured wall-clock where the
work actually ran; span *placement* is logical.  Worker-side spans are
recorded in real time, but the parent's per-cell merge spans are opened
with ``rebase=True``: a rebased span starts where its previous sibling
ended (or at its parent's start) and ends where its last child ends,
never consulting the wall clock — so the cells of a sweep lay out
sequentially in submission order even though the merge happens long
after the computation it describes.  That keeps the tree
mode-independent: the sweep root spans ``max(real elapsed, serialized
work)``, and the critical path (:mod:`repro.analysis.spans`) — the sum
of measured durations along the longest chain — matches the profiling
wall time of a serial sweep and measures *total work* for a parallel
or cache-served one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Version stamped into span documents; bump on breaking changes.
SPANS_SCHEMA_VERSION = 1

#: Well-known span kinds (free-form strings; these are the ones the
#: executor/runner emit and the analyzer groups by).
KIND_SWEEP = "sweep"
KIND_CELL = "cell"
KIND_ATTEMPT = "attempt"
KIND_PHASE = "phase"
KIND_ENGINE = "engine"


class Span:
    """One timed region: name, kind, meta, events, children.

    ``t0_s``/``t1_s`` are seconds relative to the owning tracer's epoch
    (``t1_s`` is ``None`` while the span is open).  ``exec_side`` marks
    spans whose existence depends on *how* the sweep executed (attempts,
    retries) rather than *what* it computed; they are spliced out of the
    normalized tree.
    """

    __slots__ = ("name", "kind", "t0_s", "t1_s", "meta", "events",
                 "children", "exec_side")

    def __init__(self, name: str, kind: str = KIND_PHASE,
                 t0_s: float = 0.0, t1_s: float | None = None,
                 meta: dict | None = None, exec_side: bool = False) -> None:
        self.name = name
        self.kind = kind
        self.t0_s = t0_s
        self.t1_s = t1_s
        self.meta = dict(meta) if meta else {}
        self.events: list[dict] = []
        self.children: list[Span] = []
        self.exec_side = exec_side

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return 0.0 if self.t1_s is None else self.t1_s - self.t0_s

    def walk(self):
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, kind={self.kind!r}, "
                f"dur={self.duration_s:.6f}s, "
                f"children={len(self.children)})")


class SpanTracer:
    """Records a span tree against a private monotonic epoch.

    The tracer keeps an open-span stack: :meth:`begin` attaches the new
    span to the innermost open span (or as a new root) and pushes it;
    :meth:`end` closes it.  A span never starts before its previous
    sibling ended — real time moves only forward, and grafted subtrees
    (whose recorded times belong to another process's epoch) are laid
    out sequentially at the insertion point.
    """

    __slots__ = ("epoch", "roots", "_stack", "_rebased")

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        #: ids of open spans placed logically (``begin(rebase=True)``).
        self._rebased: set[int] = set()

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return time.perf_counter() - self.epoch

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, kind: str = KIND_PHASE,
              meta: dict | None = None, exec_side: bool = False,
              rebase: bool = False) -> Span:
        """Open a span nested under the innermost open span.

        ``rebase=True`` places the span logically instead of at the
        wall clock: it starts where its previous sibling ended (or at
        its parent's start) and :meth:`end` will close it at its last
        child's end.  The executor uses this for the per-cell merge
        spans, whose grafted content describes work that happened
        earlier, elsewhere.
        """
        siblings = self._stack[-1].children if self._stack else self.roots
        t0 = self._cursor() if rebase else \
            max(self.now(), self._cursor())
        span = Span(name, kind, t0_s=t0, meta=meta, exec_side=exec_side)
        siblings.append(span)
        self._stack.append(span)
        if rebase:
            self._rebased.add(id(span))
        return span

    def end(self, span: Span, meta: dict | None = None) -> None:
        """Close ``span``; its end extends to cover every child.

        Rebased spans end at their last child (they live on the logical
        timeline); everything else ends no earlier than now.
        """
        if meta:
            span.meta.update(meta)
        end = span.t0_s if id(span) in self._rebased else self.now()
        self._rebased.discard(id(span))
        for child in span.children:
            if child.t1_s is not None and child.t1_s > end:
                end = child.t1_s
        if end < span.t0_s:
            end = span.t0_s
        span.t1_s = end
        if span in self._stack:
            while self._stack and self._stack.pop() is not span:
                pass

    def _cursor(self) -> float:
        """The logical insertion point at the current nesting level:
        the previous sibling's end, else the open parent's start, else
        0.0 at the root."""
        siblings = self._stack[-1].children if self._stack else self.roots
        if siblings and siblings[-1].t1_s is not None:
            return siblings[-1].t1_s
        if self._stack:
            return self._stack[-1].t0_s
        return 0.0

    @contextmanager
    def span(self, name: str, kind: str = KIND_PHASE,
             meta: dict | None = None, exec_side: bool = False):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        span = self.begin(name, kind, meta=meta, exec_side=exec_side)
        try:
            yield span
        finally:
            self.end(span)

    def event(self, name: str, meta: dict | None = None,
              exec_side: bool = True) -> dict | None:
        """Record a point-in-time event on the innermost open span.

        Dropped (returns ``None``) when no span is open — events only
        make sense inside a region.  Events default to ``exec_side``
        because nearly all of them (cache hits, retries, timeouts)
        describe execution, not simulation.
        """
        if not self._stack:
            return None
        record: dict = {"name": name, "t_s": self.now(),
                        "exec": bool(exec_side)}
        if meta:
            record["meta"] = dict(meta)
        self._stack[-1].events.append(record)
        return record

    def current(self) -> Span | None:
        """The innermost open span, or ``None``."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Cross-process graft
    # ------------------------------------------------------------------
    def graft_docs(self, docs: list) -> list[Span]:
        """Adopt span documents (another tracer's subtree) here.

        The documents are copied into fresh :class:`Span` objects (the
        source — typically a cached, replayable snapshot — is never
        mutated) and rebased as a block: relative offsets inside the
        subtree are preserved, and the block is placed at the logical
        insertion cursor — the previous sibling's end, else the open
        parent's start (the wall clock is irrelevant: the block
        describes work that already happened, possibly in another
        process).  Undecodable documents are skipped — a damaged
        sidecar degrades to a thinner tree, never an exception.
        """
        spans = [span for span in map(span_from_doc, docs)
                 if span is not None]
        if not spans:
            return []
        siblings = self._stack[-1].children if self._stack else self.roots
        cursor = self._cursor() if self._stack else \
            max(self.now(), self._cursor())
        shift = cursor - min(span.t0_s for span in spans)
        for span in spans:
            _shift(span, shift)
            siblings.append(span)
        return spans

    def to_docs(self) -> list[dict]:
        """Every root span in document form."""
        return [span_to_doc(root) for root in self.roots]

    def span_count(self) -> int:
        """Total spans recorded (all roots, all depths)."""
        return sum(1 for root in self.roots for _ in root.walk())


def _shift(span: Span, delta_s: float) -> None:
    span.t0_s += delta_s
    if span.t1_s is not None:
        span.t1_s += delta_s
    for event in span.events:
        event["t_s"] = event.get("t_s", 0.0) + delta_s
    for child in span.children:
        _shift(child, delta_s)


# ----------------------------------------------------------------------
# Document form (JSON-able, rides TelemetrySnapshot and span files)
# ----------------------------------------------------------------------
def span_to_doc(span: Span) -> dict:
    """JSON-serialisable document form of ``span`` (deep copy)."""
    return {
        "name": span.name,
        "kind": span.kind,
        "t0_s": span.t0_s,
        "t1_s": span.t1_s,
        "exec": span.exec_side,
        "meta": dict(span.meta),
        "events": [dict(event) for event in span.events],
        "children": [span_to_doc(child) for child in span.children],
    }


def span_from_doc(doc) -> Span | None:
    """Rebuild a span from its document form.

    Returns ``None`` on structural mismatch so a corrupt span document
    is treated like a missing one (mirrors ``snapshot_from_doc``).
    """
    if not isinstance(doc, dict):
        return None
    name = doc.get("name")
    kind = doc.get("kind")
    t0 = doc.get("t0_s")
    t1 = doc.get("t1_s")
    meta = doc.get("meta", {})
    events = doc.get("events", [])
    children = doc.get("children", [])
    if not isinstance(name, str) or not isinstance(kind, str):
        return None
    if not isinstance(t0, (int, float)):
        return None
    if t1 is not None and not isinstance(t1, (int, float)):
        return None
    if not isinstance(meta, dict) or not isinstance(events, list) \
            or not isinstance(children, list):
        return None
    if not all(isinstance(event, dict) and isinstance(event.get("name"),
                                                      str)
               for event in events):
        return None
    span = Span(name, kind, t0_s=float(t0),
                t1_s=None if t1 is None else float(t1),
                meta=meta, exec_side=bool(doc.get("exec", False)))
    span.events = [dict(event) for event in events]
    for child_doc in children:
        child = span_from_doc(child_doc)
        if child is None:
            return None
        span.children.append(child)
    return span


# ----------------------------------------------------------------------
# Normalization (the cross-mode determinism contract)
# ----------------------------------------------------------------------
def normalized_tree(spans: list[Span]) -> list[dict]:
    """The deterministic skeleton of a span forest.

    Strips every wall-clock field, drops execution-side events, and
    *splices* execution-side spans — their (non-exec) children are
    promoted into the parent's child list in order, so a cell's phase
    spans survive the removal of the ``attempt`` wrapper around them.
    Serial, parallel, warm-cache and relaunched sweeps must produce
    byte-identical normalized trees (compare ``json.dumps`` with
    ``sort_keys=True``).
    """
    normalized: list[dict] = []
    for span in spans:
        if span.exec_side:
            normalized.extend(normalized_tree(span.children))
            continue
        normalized.append({
            "name": span.name,
            "kind": span.kind,
            "meta": dict(span.meta),
            "events": [
                {"name": event["name"], "meta": event.get("meta", {})}
                for event in span.events if not event.get("exec", True)
            ],
            "children": normalized_tree(span.children),
        })
    return normalized
