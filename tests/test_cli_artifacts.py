"""The unified CLI error taxonomy, as a parametrized matrix.

Every subcommand that consumes an artifact (``stats``/``trace``/
``spans``/``bench``) or a service endpoint (``submit``/``jobs``) is
driven through the same fault classes and must behave identically:

* unusable artifact / unreachable service → one ``error: <message>``
  line on stderr, exit 2, never a traceback;
* artifact loaded but the command's check failed → exit 1;
* success → exit 0.
"""

import json

import pytest

from repro.analysis.artifacts import (ArtifactError, load_bench_metrics,
                                      load_journal_records,
                                      load_spans_doc)
from repro.cli import main
from repro.exec.executor import SweepExecutor
from repro.service import JobScheduler, ServiceThread
from repro.workloads.builder import clear_cache


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for name in ("REPRO_FULL", "REPRO_JOBS", "REPRO_CACHE_DIR",
                 "REPRO_FAULTS", "REPRO_SERVICE_URL"):
        monkeypatch.delenv(name, raising=False)


def _unreachable_url():
    import socket

    placeholder = socket.socket()
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    return f"http://127.0.0.1:{port}"


def _write_fault(tmp_path, fault: str) -> str:
    """Materialise one fault class as an on-disk artifact; returns its
    path (which may intentionally not exist)."""
    if fault == "missing":
        return str(tmp_path / "nope")
    path = tmp_path / "artifact"
    if fault == "malformed":
        path.write_text("{torn!")
    elif fault == "journal-future":
        path.write_text('{"v": 99, "kind": "run_start", "run": 0}\n')
    elif fault == "spans-future":
        path.write_text(json.dumps({"schema": 99, "spans": []}))
    return str(path)


#: (argv-builder, fault) — every row must print ``error: ...`` and
#: exit 2.  The service rows reach a port nothing listens on.
MATRIX = [
    pytest.param(lambda p: ["stats", p], "missing", id="stats-missing"),
    pytest.param(lambda p: ["stats", p], "malformed",
                 id="stats-malformed"),
    pytest.param(lambda p: ["stats", p], "journal-future",
                 id="stats-future"),
    pytest.param(lambda p: ["trace", p], "missing", id="trace-missing"),
    pytest.param(lambda p: ["trace", p], "malformed",
                 id="trace-malformed"),
    pytest.param(lambda p: ["trace", p], "journal-future",
                 id="trace-future"),
    pytest.param(lambda p: ["spans", p], "missing", id="spans-missing"),
    pytest.param(lambda p: ["spans", p], "malformed",
                 id="spans-malformed"),
    pytest.param(lambda p: ["spans", p], "spans-future",
                 id="spans-future"),
    pytest.param(lambda p: ["bench", "record", "--results-dir", p],
                 "missing", id="bench-record-missing"),
    pytest.param(lambda p: ["bench", "check", "--results-dir", p],
                 "missing", id="bench-check-missing"),
]


class TestExitTwoMatrix:
    @pytest.mark.parametrize("argv_for,fault", MATRIX)
    def test_unusable_artifact_exits_2(self, tmp_path, capsys,
                                       argv_for, fault):
        path = _write_fault(tmp_path, fault)
        with pytest.raises(SystemExit) as excinfo:
            main(argv_for(path))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,env", [
        pytest.param(["run", "table1", "--jobs", "-2"], {}, id="jobs"),
        pytest.param(["run", "table1", "--retries", "-1"], {},
                     id="retries"),
        pytest.param(["run", "table1", "--timeout", "0"], {},
                     id="timeout"),
        pytest.param(["report", "table1", "--requests", "0"], {},
                     id="requests"),
        pytest.param(["serve", "--jobs", "-1", "--port", "0"], {},
                     id="serve-jobs"),
        pytest.param(["run", "table1"], {"REPRO_JOBS": "abc"},
                     id="env-jobs"),
    ])
    def test_bad_input_exits_2(self, capsys, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv_for", [
        pytest.param(lambda url: ["jobs", "--url", url],
                     id="jobs-unreachable"),
        pytest.param(lambda url: ["jobs", "j1", "--url", url],
                     id="jobs-one-unreachable"),
        pytest.param(lambda url: ["submit", "table4", "--url", url],
                     id="submit-unreachable"),
    ])
    def test_unreachable_service_exits_2(self, capsys, argv_for):
        with pytest.raises(SystemExit) as excinfo:
            main(argv_for(_unreachable_url()))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: cannot reach sweep service" in err
        assert "Traceback" not in err


class TestLoadersRaiseArtifactError:
    def test_journal_loader(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read journal"):
            load_journal_records(str(tmp_path / "nope"))

    def test_spans_loader(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read spans"):
            load_spans_doc(str(tmp_path / "nope"))

    def test_bench_loader(self, tmp_path):
        with pytest.raises(ArtifactError,
                           match="no benchmark snapshots"):
            load_bench_metrics(str(tmp_path / "empty"))

    def test_exit_code_attribute(self):
        assert ArtifactError("x").exit_code == 2


class TestServiceCommands:
    @pytest.fixture
    def service(self):
        with JobScheduler(SweepExecutor()) as scheduler:
            with ServiceThread(scheduler) as thread:
                yield thread

    def test_submit_prints_result_json(self, service, capsys):
        assert main(["submit", "table4", "--url", service.url,
                     "--quiet"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["experiment"] == "table4"
        assert "submitted table4" in captured.err

    def test_submit_matches_local_run_byte_for_byte(self, service,
                                                    capsys,
                                                    monkeypatch):
        monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                            ("blender", "add"))
        clear_cache()
        argv = ["ablation-atm", "--seed", "11", "--requests", "500"]
        assert main(["submit", *argv, "--url", service.url,
                     "--quiet"]) == 0
        served = capsys.readouterr().out
        clear_cache()
        assert main(["run", *argv, "--json"]) == 0
        local = capsys.readouterr().out
        clear_cache()
        assert served == local

    def test_submit_unknown_experiment_exits_2(self, service, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "nope", "--url", service.url])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "unknown experiment" in err

    def test_submit_failed_job_exits_1(self, service, capsys,
                                       monkeypatch):
        from repro.exec import faults

        monkeypatch.setattr("repro.workloads.profiles.QUICK_SUBSET",
                            ("blender", "add"))
        clear_cache()
        faults.install(faults.FaultPlan.parse("crash:*:99"))
        try:
            code = main(["submit", "ablation-atm", "--url", service.url,
                         "--seed", "11", "--requests", "500",
                         "--retries", "0", "--quiet"])
        finally:
            faults.install(None)
            clear_cache()
        assert code == 1
        assert "failed" in capsys.readouterr().err

    def test_jobs_listing_and_record(self, service, capsys):
        assert main(["submit", "table4", "--url", service.url,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["jobs", "--url", service.url]) == 0
        listing = capsys.readouterr().out
        assert "j1" in listing and "done" in listing
        assert "memo_hits=" in listing
        assert main(["jobs", "j1", "--url", service.url]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "done"
        assert record["experiment"] == "table4"

    def test_jobs_unknown_id_exits_2(self, service, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["jobs", "j99", "--url", service.url])
        assert excinfo.value.code == 2
        assert "404" in capsys.readouterr().err

    def test_url_from_environment(self, service, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_URL", service.url)
        assert main(["jobs"]) == 0
        assert "no jobs" in capsys.readouterr().out
