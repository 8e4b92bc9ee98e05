"""Unit tests for the shared experiment machinery."""

import pytest

from repro.dram.timing import ns
from repro.exec import runtime as exec_runtime
from repro.exec.executor import SweepExecutor
from repro.experiments.common import (DesignSpec, ExperimentResult,
                                      default_sim_config, default_system,
                                      full_mode_enabled, series_rows,
                                      sweep_designs)
from repro.mc.policy import no_mitigation_factory
from repro.sim.config import SimConfig, SystemConfig
from repro.trackers.prac import moat_factory
from repro.workloads.builder import clear_cache
from repro.workloads.profiles import profiles_for


class TestDefaults:
    def test_default_system_shape(self):
        system = default_system()
        assert system.timing.refs_per_window == 32
        assert system.organization.rows_per_bank == 512
        assert system.num_cores == 8

    def test_default_system_cores(self):
        assert default_system(num_cores=16).num_cores == 16

    def test_default_sim_config_quick_vs_full(self):
        assert default_sim_config(True).requests_per_core < \
            default_sim_config(False).requests_per_core

    def test_explicit_budget_wins(self):
        assert default_sim_config(True, 123).requests_per_core == 123

    def test_full_mode_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_mode_enabled()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_mode_enabled()


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            experiment="unit",
            title="Unit test result",
            rows=[{"a": 1, "b": 2.5}, {"a": 2, "b": 3.5}],
            paper_reference={"a": "1"},
            notes="note",
        )

    def test_render_contains_everything(self):
        text = self._result().render()
        assert "Unit test result" in text
        assert "2.50" in text
        assert "paper reference" in text
        assert "note" in text

    def test_row_by(self):
        assert self._result().row_by(a=2)["b"] == 3.5

    def test_row_by_missing(self):
        with pytest.raises(KeyError):
            self._result().row_by(a=99)

    def test_render_empty_rows(self):
        empty = ExperimentResult(experiment="e", title="t")
        assert "t" in empty.render()


class TestSweep:
    def test_prac_system_override_applies(self, small_sim):
        # The PRAC design runs on extended timings against the normal
        # baseline, so even a no-op tracker shows intrinsic slowdown.
        clear_cache()
        system = default_system()
        prac = SystemConfig.prac(system.timing.refs_per_window)
        sim = SimConfig(requests_per_core=2_000, seed=3)
        specs = [
            DesignSpec("noop", no_mitigation_factory()),
            DesignSpec("prac", moat_factory(1000), system=prac),
        ]
        with exec_runtime.activated(SweepExecutor()):
            series = sweep_designs(specs, system, sim,
                                   workloads=profiles_for(names=["mcf"]))
        assert series["noop"].average_slowdown == pytest.approx(0.0,
                                                                abs=0.1)
        assert series["prac"].average_slowdown > 2.0
        assert prac.timing.t_rp == ns(36)
        clear_cache()

    def test_series_rows_structure(self):
        clear_cache()
        system = default_system()
        sim = SimConfig(requests_per_core=1_000, seed=3)
        specs = [DesignSpec("noop", no_mitigation_factory())]
        with exec_runtime.activated(SweepExecutor()):
            series = sweep_designs(specs, system, sim,
                                   workloads=profiles_for(
                                       names=["blender", "add"]))
        rows = series_rows(series)
        assert [row["workload"] for row in rows] == \
            ["add", "blender", "AVERAGE"]
        assert all("noop" in row for row in rows)
        clear_cache()

    def test_requires_an_active_executor(self, small_sim):
        specs = [DesignSpec("noop", no_mitigation_factory())]
        assert exec_runtime.active() is None
        with pytest.raises(RuntimeError, match="run_experiment"):
            sweep_designs(specs, default_system(), small_sim,
                          workloads=profiles_for(names=["mcf"]))

    def test_series_rows_empty(self):
        assert series_rows({}) == []

    def test_series_rows_rejects_mismatched_coverage(self):
        # A design missing one workload means the sweep lost a cell;
        # rendering would silently produce a table with holes.
        from repro.analysis.slowdown import SlowdownSeries

        full = SlowdownSeries("full")
        full.slowdowns.update({"mcf": 1.0, "add": 2.0})
        partial = SlowdownSeries("partial")
        partial.slowdowns.update({"mcf": 1.5})
        with pytest.raises(ValueError, match="different workload sets"):
            series_rows({"full": full, "partial": partial})

    def test_series_rows_error_names_offending_design(self):
        from repro.analysis.slowdown import SlowdownSeries

        full = SlowdownSeries("full")
        full.slowdowns.update({"mcf": 1.0, "add": 2.0})
        partial = SlowdownSeries("partial")
        partial.slowdowns.update({"mcf": 1.5})
        with pytest.raises(ValueError, match=r"partial: \['add'\]"):
            series_rows({"full": full, "partial": partial})
