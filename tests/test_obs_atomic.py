"""Every artifact writer goes through one atomic helper.

A writer whose serialisation raises part-way must leave neither its
temp file nor a partial target behind, and an existing target must
survive untouched.
"""

import pytest

from repro.exec.cache import RunCache
from repro.obs import EventTrace, Telemetry, TelemetrySnapshot
from repro.obs.atomic import write_atomic

UNSERIALISABLE = object()
FINGERPRINT = "ab" * 32


def _cache_sidecar(tmp_path):
    cache = RunCache(tmp_path)
    snapshot = TelemetrySnapshot(metrics={"bad": UNSERIALISABLE})
    return (cache.telemetry_path_for(FINGERPRINT),
            lambda path: cache.put_telemetry(FINGERPRINT, snapshot))


def _trace(tmp_path):
    trace = EventTrace()
    trace.record({"kind": "mitigation", "rlp": 1})
    trace.record({"kind": "mitigation", "rlp": UNSERIALISABLE})
    return tmp_path / "trace.jsonl", trace.write_jsonl


def _metrics(tmp_path):
    telemetry = Telemetry()
    telemetry.registry.gauge("sim.bad").set(UNSERIALISABLE)
    return tmp_path / "metrics.json", telemetry.write_metrics


def _spans(tmp_path):
    telemetry = Telemetry()
    with telemetry.spans.span("cell", meta={"bad": UNSERIALISABLE}):
        pass
    return tmp_path / "spans.json", telemetry.write_spans


@pytest.mark.parametrize("writer", [_cache_sidecar, _trace, _metrics,
                                    _spans],
                         ids=["cache", "trace", "metrics", "spans"])
def test_failed_serialisation_leaves_no_trace(tmp_path, writer):
    target, write = writer(tmp_path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("previous\n")
    with pytest.raises(TypeError):
        write(str(target))
    assert target.read_text() == "previous\n"
    assert not list(tmp_path.rglob("*.tmp"))


def test_success_replaces_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    write_atomic(target, lambda handle: handle.write("new\n"),
                 prefix=".out.")
    assert target.read_text() == "new\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
