"""Picklable per-cell telemetry snapshots and the deterministic merge.

A sweep cell executed in a worker process records into a private,
in-memory :class:`~repro.obs.Telemetry` built from a :class:`CaptureSpec`
(the picklable recipe the parent ships with the cell).  When the cell
finishes, :func:`capture_snapshot` freezes everything that telemetry
observed — metric values, journal records, full-precision timeline
samples and profiling totals — into a :class:`TelemetrySnapshot`: a
plain-data record that survives both pickling (worker → parent) and JSON
(the content-addressed telemetry artifact stored next to the
:class:`~repro.exec.cache.RunCache` entry).

The parent folds snapshots into its own telemetry with
:func:`merge_snapshot`, in cell submission order.  The merge is
deterministic by construction:

* **counters** sum;
* **gauges** are last-write-wins in cell order;
* **histograms** merge element-wise (bucket bounds must match);
* **timeline samples** interleave by ``(time_ps, subchannel, tick)``
  within each cell;
* **journal records** append in cell order with the per-worker ``run``
  index remapped to the parent's global run sequence;
* **profiling totals** (phase seconds, throughput intervals) accumulate.

Because every cell's snapshot is itself deterministic (simulated time,
seeded RNG) and the merge order is the fixed submission order, serial,
parallel, cached and relaunched sweeps all produce byte-identical merged
metrics and journals.  Wall-clock quantities are kept out of the
deterministic sections entirely (see ``Telemetry.snapshot``).

Snapshots are *replayable*: merging the same snapshot object several
times (memoised cells appear once per occurrence in a sweep) must leave
the snapshot untouched, so the merge copies every record it adapts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.timeline import DEFAULT_SAMPLE_EVERY_REFI, TimelineSample

#: Version stamped into snapshot documents; bump on breaking changes.
#: v2 added the ``spans`` section — v1 sidecars are treated as misses so
#: the cell recomputes and the artifact is rewritten complete.
SNAPSHOT_SCHEMA_VERSION = 2

#: TimelineSample field names, in declaration order (pickle/JSON shape).
_SAMPLE_FIELDS = tuple(f.name for f in dataclasses.fields(TimelineSample))


@dataclass(frozen=True)
class CaptureSpec:
    """Picklable recipe for the worker-side capture telemetry.

    Only the knobs that shape *what gets recorded* travel to the worker;
    output destinations (journal files, metric dumps) stay with the
    parent.  Workers always journal in memory so the snapshot is complete
    regardless of which parent flags requested it — a cached telemetry
    artifact can then serve any later flag combination.
    """

    sample_every_refi: int = DEFAULT_SAMPLE_EVERY_REFI

    @classmethod
    def from_telemetry(cls, telemetry) -> "CaptureSpec":
        """The spec reproducing ``telemetry``'s capture behaviour."""
        return cls(sample_every_refi=telemetry.timeline.sample_every_refi)

    def build(self):
        """A fresh in-memory capture telemetry for one cell.

        Spans are always recorded here (same principle as the always-on
        in-memory journal): the snapshot must be complete so a cached
        sidecar can serve a later spans-enabled sweep even if the sweep
        that wrote it had spans off.
        """
        from repro.obs import Telemetry
        return Telemetry(journal_memory=True,
                         sample_every_refi=self.sample_every_refi,
                         spans=True)


@dataclass
class TelemetrySnapshot:
    """Frozen telemetry of one sweep cell (picklable, JSON-able).

    ``metrics`` maps instrument name to its serialised state
    (``{"kind": "counter"|"gauge", "value": v}`` or
    ``{"kind": "histogram", "bounds": [...], "counts": [...],
    "overflow": n, "count": n, "total": x}``); ``journal`` holds the
    cell's journal records verbatim; ``timeline`` holds full-precision
    ``dataclasses.asdict`` forms of every :class:`TimelineSample`;
    ``phases``/``throughput`` carry the profiling totals; ``spans``
    holds the cell's span subtree in document form (see
    :mod:`repro.obs.spans`).
    """

    metrics: dict = field(default_factory=dict)
    journal: list = field(default_factory=list)
    timeline: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    throughput: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    schema: int = SNAPSHOT_SCHEMA_VERSION


def _metric_state(instrument) -> dict:
    if isinstance(instrument, Counter):
        return {"kind": "counter", "value": instrument.value}
    if isinstance(instrument, Gauge):
        return {"kind": "gauge", "value": instrument.value}
    if isinstance(instrument, Histogram):
        return {"kind": "histogram",
                "bounds": list(instrument.bounds),
                "counts": list(instrument.counts),
                "overflow": instrument.overflow,
                "count": instrument.count,
                "total": instrument.total}
    raise TypeError(f"unknown instrument type: {type(instrument).__name__}")


def capture_snapshot(telemetry) -> TelemetrySnapshot:
    """Freeze everything ``telemetry`` recorded into a snapshot."""
    registry: MetricsRegistry = telemetry.registry
    metrics = {name: _metric_state(registry.get(name))
               for name in registry.names()}
    journal = [] if telemetry.journal is None \
        else list(telemetry.journal.records)
    timeline = [dataclasses.asdict(sample)
                for sample in telemetry.timeline.samples]
    throughput_gauge = telemetry.profiler.throughput
    spans = [] if telemetry.spans is None else telemetry.spans.to_docs()
    return TelemetrySnapshot(
        metrics=metrics,
        journal=journal,
        timeline=timeline,
        phases=telemetry.profiler.phases.snapshot(),
        throughput={"events": throughput_gauge.events,
                    "seconds": throughput_gauge.seconds,
                    "intervals": throughput_gauge.intervals},
        spans=spans,
    )


def _merge_metric(registry: MetricsRegistry, name: str,
                  state: dict) -> None:
    kind = state.get("kind")
    if kind == "counter":
        registry.counter(name).inc(state["value"])
    elif kind == "gauge":
        registry.gauge(name).set(state["value"])
    elif kind == "histogram":
        bounds = tuple(state["bounds"])
        histogram = registry.histogram(name, bounds)
        if histogram.bounds != bounds:
            raise ValueError(
                f"histogram {name!r}: snapshot bounds {bounds} are "
                f"incompatible with registered bounds {histogram.bounds}")
        for index, count in enumerate(state["counts"]):
            histogram.counts[index] += count
        histogram.overflow += state["overflow"]
        histogram.count += state["count"]
        histogram.total += state["total"]
    else:
        raise ValueError(f"metric {name!r}: unknown kind {kind!r}")


def merge_snapshot(telemetry, snapshot: TelemetrySnapshot) -> None:
    """Fold one cell's snapshot into the parent ``telemetry``.

    Counts this as one run of the parent (``run`` indices in replayed
    journal records are remapped to the parent's sequence).  The snapshot
    is never mutated, so the same object can be merged repeatedly — a
    memoised cell contributes once per occurrence in the sweep.
    """
    telemetry.run_index += 1
    run = telemetry.run_index
    journal = telemetry.journal
    trace = telemetry.trace
    for original in snapshot.journal:
        record = dict(original)
        if "run" in record:
            record["run"] = run
        if journal is not None:
            journal.append_record(record)
        if trace is not None and record.get("kind") == "mitigation":
            trace.record(record)
    samples = [TimelineSample(**sample) for sample in snapshot.timeline]
    samples.sort(key=lambda s: (s.time_ps, s.subchannel, s.tick))
    telemetry.timeline.samples.extend(samples)
    registry = telemetry.registry
    for name in sorted(snapshot.metrics):
        _merge_metric(registry, name, snapshot.metrics[name])
    telemetry.profiler.phases.absorb(snapshot.phases)
    throughput = snapshot.throughput
    telemetry.profiler.throughput.absorb(
        throughput.get("events", 0), throughput.get("seconds", 0.0),
        throughput.get("intervals", 0))
    if telemetry.spans is not None and snapshot.spans:
        telemetry.spans.graft_docs(snapshot.spans)


def snapshot_to_doc(snapshot: TelemetrySnapshot) -> dict:
    """JSON-serialisable document form of a snapshot."""
    return {
        "schema": snapshot.schema,
        "metrics": snapshot.metrics,
        "journal": snapshot.journal,
        "timeline": snapshot.timeline,
        "phases": snapshot.phases,
        "throughput": snapshot.throughput,
        "spans": snapshot.spans,
    }


def snapshot_from_doc(doc) -> TelemetrySnapshot | None:
    """Rebuild a snapshot from its document form.

    Returns ``None`` on any structural mismatch (wrong schema, missing
    or mistyped sections, malformed timeline rows) so callers can treat
    a damaged telemetry artifact exactly like a cache miss.
    """
    if not isinstance(doc, dict):
        return None
    if doc.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        return None
    metrics = doc.get("metrics")
    journal = doc.get("journal")
    timeline = doc.get("timeline")
    phases = doc.get("phases")
    throughput = doc.get("throughput")
    spans = doc.get("spans")
    if not isinstance(metrics, dict) or not isinstance(journal, list) \
            or not isinstance(timeline, list) \
            or not isinstance(phases, dict) \
            or not isinstance(throughput, dict) \
            or not isinstance(spans, list):
        return None
    if not all(isinstance(record, dict) for record in journal):
        return None
    for sample in timeline:
        if not isinstance(sample, dict) \
                or tuple(sample) != _SAMPLE_FIELDS:
            return None
    if not all(isinstance(span, dict) for span in spans):
        return None
    return TelemetrySnapshot(metrics=metrics, journal=journal,
                             timeline=timeline, phases=phases,
                             throughput=throughput, spans=spans)
