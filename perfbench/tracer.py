"""Layer spans for the repro CLI, recorded from outside the package.

Run as::

    PYTHONPATH=src python3 perfbench/tracer.py OUT_DIR <repro cli args...>

The script imports :mod:`repro.cli` (timing the import), wraps the
public functions of each layer at every module that binds them, then
calls ``repro.cli.main(argv)`` exactly as the ``repro`` command would.
Spans (name, start, end, parent, run id) are kept in memory and written
to ``OUT_DIR/spans-<pid>.json`` when the process exits.  Worker
processes forked by the executor's pool inherit the wrappers and write
their own file when the pool shuts them down.

:func:`summarize` folds the span files of one run into the per-layer
metrics and the counters the benchmark reconciles with the program's
own.  Per-event functions (controller service, bank activation) are
never wrapped: they run millions of times per command.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Experiments reported one by one as ``experiments.s.<name>``.
EXPERIMENTS = ("table3", "fig5", "fig9", "fig10", "fig23",
               "ablation-scheduler", "table5", "fig17")

#: Counters compared with the executor's own accounting.
RECONCILED = ("cells", "computed", "memo_hits", "cache_hits",
              "cache_misses", "cache_stores")


class Recorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.executors: list = []
        self.role = "main"
        self.out_dir: Path | None = None
        self.import_s = 0.0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """``fn`` wrapped in a span; ``info(args, kwargs, result)`` adds
        fields to the span once the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent, run = stack[-1] if stack else (None, span_id)
            stack.append((span_id, run))
            extra = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, run, name, started,
                                   ended, extra])

        traced.__perfbench_original__ = fn
        return traced

    def after_fork(self) -> None:
        """Start a pool worker with an empty span list of its own."""
        import multiprocessing.util

        self.spans = []
        self.executors = []
        self.role = "worker"
        self._local = threading.local()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        if self.out_dir is None:
            return
        executors = []
        for executor in self.executors:
            stats = executor.stats
            entry = {"cells": stats.cells, "computed": stats.computed,
                     "memo_hits": stats.memo_hits}
            cache = executor.cache
            if cache is not None:
                entry.update(cache_hits=cache.stats.hits,
                             cache_misses=cache.stats.misses,
                             cache_stores=cache.stats.stores)
            executors.append(entry)
        doc = {"pid": os.getpid(), "role": self.role,
               "import_s": self.import_s, "spans": self.spans,
               "executors": executors}
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)


def _sim_info(args, kwargs, result) -> dict:
    return {"events": result.requests_completed,
            "activations": result.activations,
            "mitigations": result.mitigation_commands}


def _cells_info(args, kwargs, result) -> dict:
    cells = kwargs["cells"] if "cells" in kwargs else args[1]
    return {"cells": len(cells)}


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions wherever they are bound."""
    import multiprocessing.util

    from repro.exec import executor as exec_mod
    from repro.exec.cache import RunCache
    from repro.experiments import registry
    from repro.mc.scheduler import QueuedScheduler
    from repro.sim import runner
    from repro.workloads import builder, mixes, synthetic

    functions = [
        (registry.run_experiment, "experiments.run",
         lambda a, k, r: {"experiment": a[0] if a else k["name"]}),
        (builder.build_traces, "workloads.build_traces", None),
        (synthetic.generate_trace, "workloads.generate_trace", None),
        (builder.calibrate_gap_ps, "workloads.calibrate", None),
        (mixes.build_mix_traces, "workloads.build_mix_traces", None),
        (runner.run_simulation, "sim.run", _sim_info),
        (exec_mod.cell_fingerprint, "exec.fingerprint",
         lambda a, k, r: {"fp": r}),
    ]
    replacements = {id(fn): recorder.wrap(name, fn, info)
                    for fn, name, info in functions}
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or
                                  module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None and \
                    getattr(wrapped, "__perfbench_original__") is value:
                setattr(module, attr, wrapped)

    hit = lambda a, k, r: {"hit": r is not None}  # noqa: E731
    methods = [
        (QueuedScheduler, "run", "mc.queued_scheduler",
         lambda a, k, r: {"requests": len(r)}),
        (RunCache, "get", "exec.cache.get", hit),
        (RunCache, "get_with_telemetry", "exec.cache.get", hit),
        (RunCache, "put", "exec.cache.put", None),
        (exec_mod.SweepExecutor, "run_cells", "exec.run_cells",
         _cells_info),
    ]
    for cls, attr, name, info in methods:
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), info))

    init = exec_mod.SweepExecutor.__init__

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.executors.append(self)

    exec_mod.SweepExecutor.__init__ = counted_init
    multiprocessing.util.register_after_fork(recorder, Recorder.after_fork)


# ----------------------------------------------------------------------
# Folding span files into per-layer metrics
# ----------------------------------------------------------------------
def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(out_dir: Path) -> tuple[dict, dict, dict]:
    """Per-layer metrics, traced counters and the executors' own
    counters for every span file under ``out_dir``."""
    docs = [json.loads(path.read_text())
            for path in sorted(out_dir.glob("spans-*.json"))]
    metrics = {f"experiments.s.{name}": 0.0 for name in EXPERIMENTS}
    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    fingerprints = set()
    own = {name: 0 for name in RECONCILED}
    import_s = [doc["import_s"] for doc in docs if doc["import_s"]]
    for doc in docs:
        spans = {span[0]: span for span in doc["spans"]}
        child_time: dict[int, float] = {}
        generated = set()
        for span_id, parent, _, _, start, end, _ in spans.values():
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + \
                    (end - start)
        for span_id, parent, _, name, start, end, extra in spans.values():
            extra = extra or {}
            took = end - start
            layer = _layer(name)
            add(f"{layer}.self_s", took - child_time.get(span_id, 0.0))
            add(f"{name}.calls", 1)
            add(f"{name}.s", took)
            if name == "experiments.run":
                key = f"experiments.s.{extra.get('experiment')}"
                metrics[key] = metrics.get(key, 0.0) + took
            elif name == "workloads.generate_trace":
                generated.add(parent)
            elif name == "exec.fingerprint" and extra.get("fp"):
                fingerprints.add(extra["fp"])
            elif name == "exec.cache.get":
                add("cache_hits" if extra.get("hit") else "cache_misses", 1)
            elif name == "exec.run_cells":
                add("cells", extra.get("cells", 0))
            elif name == "mc.queued_scheduler":
                add("mc.requests", extra.get("requests", 0))
            elif name == "sim.run":
                caller = "cell" if doc["role"] == "worker" else "direct"
                ancestor = parent
                while ancestor in spans:
                    above = spans[ancestor][3]
                    if above == "workloads.calibrate":
                        caller = "pilot"
                        break
                    if above == "exec.run_cells":
                        caller = "cell"
                    ancestor = spans[ancestor][1]
                add(f"sim.calls.{caller}", 1)
                add(f"sim.s.{caller}", took)
                for field in ("events", "activations", "mitigations"):
                    add(f"sim.{field}", extra.get(field, 0))
        add("trace_misses", sum(
            1 for span in spans.values()
            if span[3] == "workloads.build_traces" and span[0] in generated))
        for entry in doc["executors"]:
            for name in RECONCILED:
                own[name] += entry.get(name, 0)

    def total(key: str) -> float:
        return totals.get(key, 0.0)

    build_calls = total("workloads.build_traces.calls")
    get_calls = total("exec.cache.get.calls")
    events = total("sim.events")
    sim_s = sum(total(f"sim.s.{c}") for c in ("cell", "pilot", "direct"))
    counts = {
        "cells": int(total("cells")),
        "computed": int(total("sim.calls.cell")),
        "cache_hits": int(total("cache_hits")),
        "cache_misses": int(total("cache_misses")),
        "cache_stores": int(total("exec.cache.put.calls")),
    }
    counts["memo_hits"] = counts["cells"] - counts["computed"] - \
        counts["cache_hits"]
    metrics.update({
        "cli.import_s": min(import_s) if import_s else 0.0,
        "experiments.self_s": total("experiments.self_s"),
        "workloads.build_traces.calls": build_calls,
        "workloads.build_traces.s": total("workloads.build_traces.s"),
        "workloads.calibrate.calls": total("workloads.calibrate.calls"),
        "workloads.calibrate.s": total("workloads.calibrate.s"),
        "workloads.build_mix_traces.s":
            total("workloads.build_mix_traces.s"),
        "workloads.trace_hit_ratio":
            1.0 - total("trace_misses") / build_calls if build_calls
            else 0.0,
        "sim.events": events,
        "sim.host_us_per_event": sim_s / events * 1e6 if events else 0.0,
        "sim.activations": total("sim.activations"),
        "sim.mitigation_commands": total("sim.mitigations"),
        "mc.queued_scheduler.s": total("mc.queued_scheduler.s"),
        "mc.queued_scheduler.requests": total("mc.requests"),
        "exec.executors": sum(len(doc["executors"]) for doc in docs),
        "exec.cells": counts["cells"],
        "exec.computed": counts["computed"],
        "exec.memo_hits": counts["memo_hits"],
        "exec.cache_hits": counts["cache_hits"],
        "exec.useful_ratio": (len(fingerprints) / counts["computed"]
                              if counts["computed"] else 1.0),
        "exec.self_s": total("exec.self_s"),
        "exec.fingerprint.calls": total("exec.fingerprint.calls"),
        "exec.fingerprint.s": total("exec.fingerprint.s"),
        "exec.cache.get.calls": get_calls,
        "exec.cache.get.s": total("exec.cache.get.s"),
        "exec.cache.hit_ratio":
            counts["cache_hits"] / get_calls if get_calls else 0.0,
        "exec.cache.put.calls": total("exec.cache.put.calls"),
        "exec.cache.put.s": total("exec.cache.put.s"),
    })
    for caller in ("cell", "pilot", "direct"):
        metrics[f"sim.calls.{caller}"] = total(f"sim.calls.{caller}")
        metrics[f"sim.s.{caller}"] = total(f"sim.s.{caller}")
    return metrics, counts, own


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder()
    recorder.out_dir = out_dir
    started = time.perf_counter()
    import repro.cli

    recorder.import_s = time.perf_counter() - started
    install(recorder)
    try:
        return repro.cli.main(argv[1:])
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
