"""The wall-clock profile, a view folded from the span tree.

:func:`~repro.obs.spans.fold_profile` groups phase spans by name into
``{seconds, calls}`` and sums the ``engine:event_loop`` spans into the
engine throughput; :func:`~repro.obs.spans.render_profile` prints that
dict for ``--profile`` and ``repro stats``.  The class names follow the
profiler objects these views replaced.
"""

import json
import re

import pytest

from repro.cli import main
from repro.obs import Telemetry
from repro.obs.spans import (ENGINE_LOOP, KIND_ENGINE, Span, fold_profile,
                             render_profile, span_from_doc)


def _closed(name, t0, t1, kind="phase", meta=None):
    return Span(name, kind, t0_s=t0, t1_s=t1, meta=meta)


def _loop(t0, t1, events):
    return _closed(ENGINE_LOOP, t0, t1, kind=KIND_ENGINE,
                   meta={"events": events})


class TestPhaseTimer:
    """Phase timing: phase spans folded by name."""

    def test_phase_accumulates_time_and_calls(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.phase("build"):
                pass
        phases = fold_profile(telemetry.spans.roots)["phases"]
        assert phases["build"]["calls"] == 3
        assert phases["build"]["seconds"] >= 0.0

    def test_add_direct(self):
        roots = [_closed("run", 0.0, 1.25), _closed("run", 1.25, 2.0)]
        phases = fold_profile(roots)["phases"]
        assert phases["run"] == {"seconds": pytest.approx(2.0),
                                 "calls": 2}
        assert "never" not in phases

    def test_render_orders_slowest_first(self):
        rendered = render_profile(fold_profile(
            [_closed("fast", 0.0, 0.1), _closed("slow", 0.1, 9.1)]))
        assert rendered.index("slow") < rendered.index("fast")

    def test_exception_inside_phase_still_counted(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.phase("boom"):
                raise RuntimeError("x")
        phases = fold_profile(telemetry.spans.roots)["phases"]
        assert phases["boom"]["calls"] == 1


class TestThroughputGauge:
    """Engine throughput: ``engine:event_loop`` spans summed."""

    def test_events_per_sec(self):
        throughput = fold_profile([_loop(0.0, 2.0, 1000),
                                   _loop(2.0, 4.0, 1000)])["throughput"]
        assert throughput["events"] == 2000
        assert throughput["seconds"] == pytest.approx(4.0)
        assert throughput["events_per_sec"] == pytest.approx(500.0)

    def test_zero_time_is_safe(self):
        profile = fold_profile([_loop(1.0, 1.0, 10)])
        assert profile["throughput"]["events_per_sec"] == 0.0
        assert "engine throughput" in render_profile(profile)
        assert render_profile(fold_profile([])) == "(no phases recorded)"


class TestProfiler:
    """The telemetry-level profile: ``snapshot()["profiling"]``."""

    def test_phase_and_snapshot(self):
        telemetry = Telemetry()
        with telemetry.phase("sweep"):
            telemetry.spans.roots[0].children.append(_loop(0.0, 0.5, 100))
        profile = telemetry.snapshot()["profiling"]
        assert "sweep" in profile["phases"]
        assert profile["throughput"]["events"] == 100
        rendered = render_profile(profile)
        assert "sweep" in rendered and "events/s" in rendered


def _profile_run(tmp_path, capsys, tag, *flags):
    """One ``run ablation-atm --profile --spans``: the printed phase
    calls and events beside those counted in the written span tree."""
    spans = tmp_path / f"{tag}.json"
    assert main(["run", "ablation-atm", "--requests", "1500", "--json",
                 "--profile", "--spans", str(spans), *flags]) == 0
    captured = capsys.readouterr()
    table = captured.out.split("== wall-clock profile ==\n", 1)[1]
    printed = {match.group(1): int(match.group(2)) for match in
               re.finditer(r"^(\S+)\s+[\d.]+s\s+x(\d+)$", table, re.M)}
    events = int(re.search(r"\(([\d,]+) events", table)
                 .group(1).replace(",", ""))
    doc = json.loads(spans.read_text())
    assert "profiling" not in doc
    calls: dict[str, int] = {}
    loop_events = 0
    for root in doc["spans"]:
        for span in span_from_doc(root).walk():
            if span.kind == "phase":
                calls[span.name] = calls.get(span.name, 0) + 1
            elif span.name == ENGINE_LOOP:
                loop_events += span.meta["events"]
    return ({"calls": printed, "events": events},
            {"calls": calls, "events": loop_events}, captured.err)


class TestProfileIsASpanView:
    def test_profile_matches_span_fold_across_modes(self, tmp_path,
                                                    capsys):
        cache = str(tmp_path / "cache")
        serial = _profile_run(tmp_path, capsys, "serial")
        parallel = _profile_run(tmp_path, capsys, "jobs2", "--jobs", "2")
        _profile_run(tmp_path, capsys, "cold", "--cache-dir", cache)
        warm = _profile_run(tmp_path, capsys, "warm", "--cache-dir", cache)
        assert "misses=0" in warm[2]
        for printed, folded, _ in (serial, parallel, warm):
            assert printed == folded
            assert printed == serial[0]
        calls = serial[0]["calls"]
        assert calls["build_traces"] == sum(
            count for name, count in calls.items()
            if name.startswith("run:"))
        assert serial[0]["events"] > 0
