"""End-to-end determinism of telemetry under every execution mode.

The tentpole guarantee: a sweep run serially, fanned over workers,
served from a warm cache, or relaunched on a partly filled cache produces
**byte-identical** merged telemetry — the deterministic ``metrics``
section, the journal records and the timeline — because each cell's
snapshot is captured where the cell executes and merged in the fixed
submission order.
"""

import json

import pytest

from repro.exec import runtime as exec_runtime
from repro.exec.cache import RunCache
from repro.exec.executor import SweepExecutor
from repro.experiments.common import DesignSpec, sweep_designs
from repro.mc.mitigation import coupled_para_factory
from repro.mc.policy import no_mitigation_factory
from repro.obs import Telemetry
from repro.obs import runtime as obs_runtime
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def workloads():
    return profiles_for(names=["mcf"])


@pytest.fixture
def designs():
    return [DesignSpec("none", no_mitigation_factory()),
            DesignSpec("para", coupled_para_factory(2000))]


#: Cells in the sweep: shared baseline + one per design.
CELLS = 3


def _merged(designs, small_system, small_sim, workloads, executor=None):
    """Run one instrumented sweep; return its comparable telemetry."""
    telemetry = Telemetry(journal_memory=True, sample_every_refi=2)
    with obs_runtime.activated(telemetry), \
            exec_runtime.activated(executor):
        sweep_designs(designs, small_system, small_sim,
                      workloads=workloads)
    return {
        "metrics": json.dumps(telemetry.snapshot()["metrics"],
                              sort_keys=True),
        "journal": json.dumps(telemetry.journal.records, default=str),
        "timeline": json.dumps(
            [sample.time_ps for sample in telemetry.timeline.samples]),
        "telemetry": telemetry,
    }


class TestByteIdenticalAcrossModes:
    def test_all_modes_match_serial(self, tmp_path, small_system,
                                    small_sim, designs, workloads):
        serial = _merged(designs, small_system, small_sim, workloads)
        with SweepExecutor(jobs=2) as pooled:
            parallel = _merged(designs, small_system, small_sim,
                               workloads, pooled)
        cache_dir = tmp_path / "runcache"
        with SweepExecutor(cache=RunCache(cache_dir)) as cold_exec:
            cold = _merged(designs, small_system, small_sim, workloads,
                           cold_exec)
        with SweepExecutor(cache=RunCache(cache_dir)) as warm_exec:
            warm = _merged(designs, small_system, small_sim, workloads,
                           warm_exec)
        assert warm_exec.stats.computed == 0
        for key in ("metrics", "journal", "timeline"):
            assert parallel[key] == serial[key], key
            assert cold[key] == serial[key], key
            assert warm[key] == serial[key], key

    def test_resume_matches_serial_without_double_counting(
            self, tmp_path, small_system, small_sim, designs, workloads):
        serial = _merged(designs, small_system, small_sim, workloads)
        with SweepExecutor(cache=RunCache(tmp_path / "runcache")) \
                as cold_exec:
            _merged(designs, small_system, small_sim, workloads,
                    cold_exec)
        # Relaunch on the same cache: every cell is served warm.
        resume_cache = RunCache(tmp_path / "runcache")
        with SweepExecutor(cache=resume_cache) as resumed_exec:
            resumed = _merged(designs, small_system, small_sim,
                              workloads, resumed_exec)
        assert resume_cache.stats.hits == CELLS
        assert resumed_exec.stats.computed == 0
        for key in ("metrics", "journal", "timeline"):
            assert resumed[key] == serial[key], key
        # A relaunched sweep counts every cell exactly
        # once — no double-counted runs, no duplicated journal records
        # or timeline samples.
        telemetry = resumed["telemetry"]
        assert telemetry.registry.counter("sim.runs").value == CELLS
        kinds = telemetry.journal.kinds()
        assert kinds["run_start"] == CELLS
        assert kinds["summary"] == CELLS
        assert len(telemetry.timeline.samples) == \
            len(serial["telemetry"].timeline.samples)

    def test_run_result_json_unchanged_by_telemetry(self, small_system,
                                                    small_sim, designs,
                                                    workloads):
        def results(telemetry):
            from repro.experiments.common import sweep_cells
            cells = sweep_cells(designs, small_system, small_sim,
                                workloads)
            with obs_runtime.activated(telemetry):
                with SweepExecutor(jobs=2) as executor:
                    return [result.to_json()
                            for result in executor.run_cells(cells)]

        plain = results(None)
        instrumented = results(Telemetry(journal_memory=True))
        assert instrumented == plain
