"""Smoke + structure tests for every experiment in the registry.

The simulation-backed experiments run with a tiny request budget and a
two-workload subset (monkeypatched quick set), checking result structure
and first-order orderings rather than absolute values; the full sweeps
live in ``benchmarks/``.
"""

import pytest

from repro.exec import runtime as exec_runtime
from repro.exec.executor import SweepExecutor
from repro.experiments import registry
from repro.experiments.common import ExperimentResult
from repro.workloads.builder import clear_cache

#: Tiny per-core budget for the smoke runs.
BUDGET = 800

#: Experiments that are pure analytics (fast at any size).
ANALYTIC = ("table1", "table4", "table6", "fig11", "dos",
            "ablation-rate-limit")

#: Experiments backed by full simulation sweeps.
SIMULATED = ("fig5", "fig9", "fig10", "fig15", "fig17", "fig19", "fig22",
             "fig23", "table3", "table5", "table7", "ablation-atm",
             "ablation-vertical", "ablation-window-scaling",
             "ablation-mlp", "ablation-page-policy",
             "ablation-scheduler", "motivation-trr",
             "motivation-prac-extrinsic")


@pytest.fixture(autouse=True)
def tiny_quick_subset(monkeypatch):
    clear_cache()
    monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                        ("blender", "add"))
    yield
    clear_cache()


@pytest.fixture(autouse=True)
def ambient_executor():
    """The runners are called directly, not through ``run_experiment``,
    so each test activates the executor that call would."""
    with SweepExecutor() as executor, exec_runtime.activated(executor):
        yield executor


class TestRegistry:
    def test_all_experiments_present(self):
        # 16 paper tables/figures + 2 motivation studies + 7 ablations.
        assert len(registry.names()) == 25
        assert len(registry.ABLATIONS) == 7
        assert len(registry.MOTIVATION) == 2

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("fig99")

    def test_paper_order(self):
        names = registry.names()
        assert names.index("fig5") < names.index("fig9") < \
            names.index("fig19")


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_experiments_run(name):
    result = registry.get(name)(quick=True)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.paper_reference
    assert name in result.render()


@pytest.mark.parametrize("name", SIMULATED)
def test_simulated_experiments_run(name):
    result = registry.get(name)(quick=True, requests_per_core=BUDGET)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    rendered = result.render()
    assert result.title in rendered


class TestResultStructure:
    def test_fig9_structure_and_ordering(self):
        # A larger budget so MINT windows complete on both workloads.
        result = registry.get("fig9")(quick=True, requests_per_core=5_000)
        average = result.row_by(workload="AVERAGE")
        assert set(average) >= {"para-nrr", "para-drfmsb", "para-dream-r",
                                "mint-nrr", "mint-drfmsb", "mint-dream-r"}
        assert average["para-dream-r"] < average["para-drfmsb"]
        assert average["mint-dream-r"] < average["mint-drfmsb"]

    def test_table5_rlp_ordering(self):
        result = registry.get("table5")(quick=True,
                                        requests_per_core=5_000)
        rlp = {row["design"]: row["average_rlp"] for row in result.rows}
        assert rlp["para-dream-r"] > rlp["para-drfmsb"]
        assert rlp["mint-dream-r"] > rlp["mint-drfmsb"]
        assert rlp["mint-dream-r"] <= 8.0

    def test_row_by_raises_on_missing(self):
        result = registry.get("table1")(quick=True)
        with pytest.raises(KeyError):
            result.row_by(t_rh=123456)

    def test_table6_matches_paper_exactly(self):
        result = registry.get("table6")(quick=True)
        for row in result.rows:
            assert row["dream_c_kb_per_bank"] == pytest.approx(
                row["paper_dream_kb"], rel=0.01)

    def test_to_json_round_trips(self):
        import json

        result = registry.get("table1")(quick=True)
        decoded = json.loads(result.to_json())
        assert decoded["experiment"] == "table1"
        assert len(decoded["rows"]) == len(result.rows)
        assert decoded["rows"][0]["entries"] == 4800
