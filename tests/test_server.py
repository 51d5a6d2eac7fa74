"""The sanitizer-as-a-service control plane, end to end over a socket.

Three families of guarantees:

(a) **Fidelity** — a job's results, telemetry, and rendered error
    reports are byte-identical to running the same configuration
    directly through :class:`repro.runtime.session.Session` (or the
    fuzz/sweep drivers).  The server adds transport, never semantics.
(b) **Isolation** — concurrent jobs run under explicit ExecConfigs; one
    job's config (tool/fastpath, telemetry registry) can never leak into a
    neighbour, and no job touches the process environment.
(c) **Lifecycle** — submissions validate at the door (422 with a
    FastAPI-shaped detail body), cancellation lands mid-run at the next
    checkpoint, and shutdown drains the job manager and the shared
    execution fabric (no orphaned workers).
"""

import dataclasses
import json
import os
import socket
import threading
import time

import pytest

from repro import ExecConfig, ProgramBuilder, Session
from repro.analysis import parallel
from repro.reporting import format_all_reports
from repro.runtime import Interpreter
from repro.server import ServerConfig, create_app
from repro.server.config import config_from_env
from repro.server.programs import build_demo_program, load_program
from repro.server.services.runner import run_result_payload
from repro.server.testclient import TestClient


@pytest.fixture(autouse=True)
def _fresh_fabric():
    """Each test starts and ends without a live fabric."""
    parallel.shutdown_pool()
    yield
    parallel.shutdown_pool()


@pytest.fixture
def client():
    with TestClient(create_app(ServerConfig(max_concurrency=2))) as tc:
        yield tc


def _normalized_telemetry(snapshot: dict) -> dict:
    """A snapshot dict with wall-clock phase timings zeroed.

    Counters, convergence, declines, and phase event counts are
    deterministic; phase seconds are real wall time and legitimately
    differ between two executions of the same program.
    """
    normalized = dict(snapshot)
    normalized["phases"] = {
        name: {**stat, "seconds": 0.0}
        for name, stat in snapshot["phases"].items()
    }
    return normalized


def _submit_and_wait(client, kind, payload, timeout=120.0):
    response = client.post(f"/jobs/{kind}", json=payload)
    assert response.status_code == 202, response.text
    job_id = response.json()["id"]
    return client.wait_for_job(job_id, timeout=timeout)


DEMO_IR = {
    "functions": [
        {
            "name": "main",
            "body": [
                {"op": "malloc", "dst": "buf", "size": 100},
                {
                    "op": "loop",
                    "var": "i",
                    "start": 0,
                    "end": 26,
                    "bounded": False,
                    "body": [
                        {
                            "op": "store",
                            "base": "buf",
                            "offset": {"op": "*", "left": "i", "right": 4},
                            "width": 4,
                            "value": "i",
                        }
                    ],
                },
                {"op": "free", "ptr": "buf"},
            ],
        }
    ]
}


# ----------------------------------------------------------------------
# health + validation at the door
# ----------------------------------------------------------------------
class TestSubmissionValidation:
    def test_healthz(self, client):
        payload = client.get("/healthz").json()
        assert payload["status"] == "ok"
        assert payload["accepting"] is True

    def test_unknown_tool_is_422(self, client):
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"tool": "NotASanitizer"}},
        )
        assert response.status_code == 422
        detail = response.json()["detail"]
        assert any("unknown tool" in item["msg"] for item in detail)

    def test_unknown_corpus_is_422(self, client):
        response = client.post(
            "/jobs/run", json={"program": {"corpus": "spec:nope"}}
        )
        assert response.status_code == 422

    def test_shadow_field_is_422(self, client):
        # one shadow plane: the request models offer no backend choice
        for kind, payload in (
            ("run", {"program": {"corpus": "demo"},
                     "config": {"shadow": "bytearray"}}),
            ("sweep", {"target": "fig11", "shadow": "bytearray"}),
        ):
            assert client.post(f"/jobs/{kind}", json=payload).status_code == 422

    def test_engine_field_is_422(self, client):
        # the session picks the engine per run: no request can choose it
        for kind, payload in (
            ("run", {"program": {"corpus": "demo"},
                     "config": {"engine": "compiled"}}),
            ("sweep", {"target": "fig11", "engine": "compiled"}),
        ):
            response = client.post(f"/jobs/{kind}", json=payload)
            assert response.status_code == 422
            assert response.json()["detail"][0]["loc"][-1] == "engine"

    def test_interprocedural_field_is_422(self, client):
        # the passes are intraprocedural: no request can ask otherwise
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"interprocedural": False}},
        )
        assert response.status_code == 422
        assert response.json()["detail"][0]["loc"][-1] == "interprocedural"

    def test_corpus_and_ir_both_is_422(self, client):
        response = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo", "ir": DEMO_IR}},
        )
        assert response.status_code == 422

    def test_malformed_inline_ir_is_422_not_a_failed_job(self, client):
        bad = {"functions": [{"name": "main", "body": [{"op": "warp"}]}]}
        response = client.post("/jobs/run", json={"program": {"ir": bad}})
        assert response.status_code == 422
        assert client.get("/jobs").json()["jobs"] == []

    def test_missing_body_is_422(self, client):
        assert client.post("/jobs/run").status_code == 422

    def test_malformed_json_body_is_422(self, client):
        response = client.post("/jobs/run", body=b"{not json")
        assert response.status_code == 422

    def test_fuzz_iterations_over_cap_is_422(self, client):
        cap = client.get("/stats").json()["config"]["fuzz_iteration_cap"]
        response = client.post("/jobs/fuzz", json={"iterations": cap + 1})
        assert response.status_code == 422
        assert "exceeds the server cap" in response.json()["detail"][0]["msg"]

    def test_sweep_jobs_over_worker_cap_is_422(self, client):
        cap = client.get("/stats").json()["config"]["worker_cap"]
        response = client.post(
            "/jobs/sweep", json={"target": "fig11", "jobs": cap + 1}
        )
        assert response.status_code == 422

    def test_unknown_sweep_target_is_422(self, client):
        response = client.post("/jobs/sweep", json={"target": "table99"})
        assert response.status_code == 422

    @pytest.mark.parametrize("length", ["-5", "-1"])
    def test_negative_content_length_is_400(self, client, length):
        # a raw socket that stays open after the headers, so a server
        # that reads the body to EOF times out instead of answering
        with socket.create_connection(
            ("127.0.0.1", client._server.port), timeout=5
        ) as sock:
            sock.sendall(
                f"POST /jobs/run HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n".encode()
            )
            reply = b""
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", reply
        assert json.loads(body) == {"detail": "bad content-length"}

    def test_unknown_job_is_404(self, client):
        assert client.get("/jobs/doesnotexist").status_code == 404

    def test_unknown_route_is_404_and_wrong_method_is_405(self, client):
        assert client.get("/nope").status_code == 404
        assert client.delete("/jobs").status_code == 405


# ----------------------------------------------------------------------
# run jobs: fidelity against direct Session execution
# ----------------------------------------------------------------------
class TestRunJobs:
    def test_demo_corpus_reports_byte_identical_to_direct_session(
        self, client
    ):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        session = Session("GiantSan", telemetry=True)
        result = session.run(build_demo_program())
        assert served["reports"] == format_all_reports(session.sanitizer)
        assert served["return_value"] == result.return_value
        assert served["total_cycles"] == result.total_cycles()
        assert served["instructions_executed"] == result.instructions_executed
        assert served["stats"] == result.stats.as_dict()
        assert [e["kind"] for e in served["errors"]] == [
            r.kind.value for r in result.errors.reports
        ]
        assert _normalized_telemetry(served["telemetry"]) == (
            _normalized_telemetry(result.telemetry.as_dict())
        )

    def test_inline_ir_matches_builder_program(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"ir": DEMO_IR}}
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        session = Session("GiantSan", telemetry=True)
        result = session.run(load_program(DEMO_IR))
        assert served["reports"] == format_all_reports(session.sanitizer)
        assert served["stats"] == result.stats.as_dict()

    def test_explicit_cell_is_honoured_not_env(self, client, monkeypatch):
        # the server must use the request cell + captured defaults, not
        # whatever the environment says at run time
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        detail = _submit_and_wait(
            client,
            "run",
            {
                "program": {"corpus": "demo"},
                "config": {"tool": "ASan", "fastpath": False},
            },
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]
        assert served["tool"] == "ASan"

        session = Session(
            "ASan",
            ExecConfig(fastpath=False),
            telemetry=True,
        )
        session.run(build_demo_program())
        assert served["reports"] == format_all_reports(session.sanitizer)

    def test_result_endpoint_conflicts_until_done(self, client):
        job_id = client.post(
            "/jobs/fuzz", json={"iterations": 120, "seed": 3}
        ).json()["id"]
        assert client.get(f"/jobs/{job_id}/result").status_code == 409
        client.wait_for_job(job_id)
        assert client.get(f"/jobs/{job_id}/result").status_code == 200

    def test_telemetry_endpoint_and_process_aggregate(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        payload = client.get(f"/jobs/{detail['id']}/telemetry").json()
        assert payload["telemetry"]["tool"] == "GiantSan"
        assert payload["telemetry"]["counters"]["checks_executed"] > 0
        totals = client.get("/stats").json()["telemetry_totals"]
        assert totals["runs"] == 1
        assert (
            totals["tools"]["GiantSan"]["counters"]["checks_executed"]
            == payload["telemetry"]["counters"]["checks_executed"]
        )

    def test_spec_corpus_uses_default_scale(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "spec:505.mcf_r"}}
        )
        assert detail["status"] == "done", detail["error"]
        assert detail["result"]["errors"] == []

    def test_callheavy_corpus_uses_default_scale(self, client):
        from repro.workloads import build_callheavy_program
        from repro.workloads.callheavy import DEFAULT_SCALE

        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "callheavy"}}
        )
        assert detail["status"] == "done", detail["error"]

        session = Session("GiantSan", telemetry=True)
        result = session.run(build_callheavy_program(), [DEFAULT_SCALE])
        expected = run_result_payload(session, result)
        served = detail["result"]
        assert _normalized_telemetry(served.pop("telemetry")) == (
            _normalized_telemetry(expected.pop("telemetry"))
        )
        assert served == expected

    def test_juliet_unknown_case_fails_at_run_time(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "juliet:nope"}}
        )
        assert detail["status"] == "failed"
        assert "juliet" in detail["error"]


# ----------------------------------------------------------------------
# isolation: concurrent jobs cannot contaminate each other
# ----------------------------------------------------------------------
class TestConcurrentJobIsolation:
    def test_two_concurrent_runs_keep_telemetry_scoped(self, client):
        """Two jobs in flight together == the same two jobs run alone."""
        first = client.post(
            "/jobs/run",
            json={"program": {"corpus": "demo"},
                  "config": {"tool": "GiantSan"}},
        ).json()["id"]
        second = client.post(
            "/jobs/run",
            json={"program": {"corpus": "spec:519.lbm_r"},
                  "config": {"tool": "ASan"}},
        ).json()["id"]
        results = {
            job_id: client.wait_for_job(job_id) for job_id in (first, second)
        }
        assert all(d["status"] == "done" for d in results.values())

        expected = {}
        for job_id, tool, program in (
            (first, "GiantSan", build_demo_program()),
            (second, "ASan", None),
        ):
            session = Session(tool, telemetry=True)
            if program is None:
                from repro.workloads import SPEC_BY_NAME

                spec = SPEC_BY_NAME["519.lbm_r"]
                session.run(spec.build(), [spec.default_scale])
            else:
                session.run(program)
            expected[job_id] = _normalized_telemetry(
                session.telemetry.snapshot().as_dict()
            )
        for job_id in (first, second):
            served = _normalized_telemetry(
                results[job_id]["result"]["telemetry"]
            )
            assert served == expected[job_id], "telemetry cross-contaminated"

    def test_sweep_job_never_writes_environ(self, client, monkeypatch):
        def refuse(*args):  # os.environ writes go through these two
            raise AssertionError(f"a job wrote os.environ: {args}")

        with monkeypatch.context() as patch:
            patch.setattr(os, "putenv", refuse)
            patch.setattr(os, "unsetenv", refuse)
            detail = _submit_and_wait(
                client, "sweep", {"target": "fig11"}
            )
        assert detail["status"] == "done", detail["error"]

    def test_concurrent_sweeps_run_in_parallel(self, client, monkeypatch):
        """Sweeps of two targets overlap, and each renders exactly what
        ``repro <target>`` prints."""
        from repro.analysis import detection, figures, render_study

        # neither study may start until both are in flight: a server
        # that serializes sweeps times out here and fails both jobs
        barrier = threading.Barrier(2, timeout=60)
        studies = {"fig11": (figures, "run_figure11_study"),
                   "table4": (detection, "run_linux_flaw_study")}

        def rendezvous(study):
            def wait_then_run(**kwargs):
                barrier.wait()
                return study(**kwargs)
            return wait_then_run

        with monkeypatch.context() as patch:
            for module, name in studies.values():
                patch.setattr(module, name, rendezvous(getattr(module, name)))
            ids = {
                target: client.post(
                    "/jobs/sweep", json={"target": target}
                ).json()["id"]
                for target in studies
            }
            details = {t: client.wait_for_job(i) for t, i in ids.items()}
        first, second = details.values()
        # both reported running at once: their running spans overlap
        assert first["started_at"] < second["finished_at"]
        assert second["started_at"] < first["finished_at"]
        for target, detail in details.items():
            assert detail["status"] == "done", detail["error"]
            # what `repro <target>` prints
            assert detail["result"]["rendered"] == render_study(
                target, config=ExecConfig()
            )

    def test_sweep_runs_under_app_defaults_not_env(self, monkeypatch):
        runs, run = [], Interpreter.run  # the fast path of every run
        monkeypatch.setattr(Interpreter, "run", lambda self, *args: (
            runs.append(self.fastpath) or run(self, *args)
        ))
        monkeypatch.setenv("REPRO_FASTPATH", "1")
        app = create_app(ServerConfig(), defaults=ExecConfig(fastpath=False))
        with TestClient(app) as client:
            detail = _submit_and_wait(client, "sweep", {"target": "fig11"})
            assert detail["status"] == "done", detail["error"]
            stats = client.get("/stats").json()
        assert stats["defaults"]["fastpath"] is False
        assert runs and set(runs) == {False}


# ----------------------------------------------------------------------
# fuzz + sweep jobs: fidelity against the direct drivers
# ----------------------------------------------------------------------
class TestCampaignJobs:
    def test_fuzz_job_matches_direct_driver(self, client):
        detail = _submit_and_wait(
            client, "fuzz",
            {"iterations": 20, "seed": 11, "bug_probability": 0.6},
        )
        assert detail["status"] == "done", detail["error"]
        served = detail["result"]

        from repro.fuzz.driver import fuzz_span

        direct = fuzz_span(11, 0, 20, 0.6, config=ExecConfig())
        assert served["cases"] == direct.cases == 20
        assert served["buggy_cases"] == direct.buggy_cases
        assert served["invariant_checks"] == direct.invariant_checks
        assert served["findings"] == direct.findings

    def test_sweep_job_matches_direct_study(self, client):
        detail = _submit_and_wait(
            client, "sweep", {"target": "fig11", "jobs": 2}
        )
        assert detail["status"] == "done", detail["error"]
        from repro.analysis import render_figure11, run_figure11_study

        assert detail["result"]["rendered"] == render_figure11(
            run_figure11_study(jobs=1)
        )
        assert detail["result"]["target"] == "fig11"


# ----------------------------------------------------------------------
# cancellation + events + shutdown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_cancel_mid_fuzz_lands_at_next_checkpoint(self, client):
        job_id = client.post(
            "/jobs/fuzz", json={"iterations": 1500, "seed": 5}
        ).json()["id"]
        # wait until the job is actually running (first checkpoint hit)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if client.get(f"/jobs/{job_id}").json()["status"] == "running":
                break
            time.sleep(0.01)
        response = client.post(f"/jobs/{job_id}/cancel")
        assert response.json()["cancel_requested"] is True
        detail = client.wait_for_job(job_id)
        assert detail["status"] == "cancelled"
        assert detail["result"] is None

    def test_cancel_queued_job_never_starts(self, client):
        blocker = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 1}
        ).json()["id"]
        second = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 2}
        ).json()["id"]
        queued = client.post(
            "/jobs/fuzz", json={"iterations": 600, "seed": 3}
        ).json()["id"]
        assert client.delete(f"/jobs/{queued}").status_code == 200
        for job_id in (blocker, second):
            client.post(f"/jobs/{job_id}/cancel")
        detail = client.wait_for_job(queued)
        assert detail["status"] == "cancelled"
        assert detail["started_at"] is None

    def test_cancel_terminal_job_reports_false(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        response = client.post(f"/jobs/{detail['id']}/cancel")
        assert response.json()["cancel_requested"] is False

    def test_event_stream_replays_full_lifecycle(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        response = client.get(f"/jobs/{detail['id']}/events")
        assert response.status_code == 200
        assert "text/event-stream" in response.headers["content-type"]
        events = response.events()
        statuses = [e["status"] for e in events if e["type"] == "status"]
        assert statuses == ["queued", "running", "done"]
        assert [e["seq"] for e in events] == list(range(len(events)))
        # `after` resumes past the replayed prefix
        tail = client.get(
            f"/jobs/{detail['id']}/events?after={events[-2]['seq']}"
        ).events()
        assert [e["seq"] for e in tail] == [events[-1]["seq"]]

    def test_list_filter_and_counts(self, client):
        detail = _submit_and_wait(
            client, "run", {"program": {"corpus": "demo"}}
        )
        listing = client.get("/jobs?status=done").json()
        assert [job["id"] for job in listing["jobs"]] == [detail["id"]]
        assert listing["counts"]["done"] == 1
        assert client.get("/jobs?status=running").json()["jobs"] == []

    def test_shutdown_drains_fabric_and_rejects_submissions(self):
        app = create_app(ServerConfig(max_concurrency=2))
        with TestClient(app) as client:
            detail = _submit_and_wait(
                client, "sweep", {"target": "fig11", "jobs": 2}
            )
            assert detail["status"] == "done", detail["error"]
            assert parallel.fabric_stats() is not None  # sweep made a pool
        # context exit ran lifespan shutdown: pool drained, store closed
        assert parallel.fabric_stats() is None
        assert app.state.manager.accepting is False


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_config_from_env_reads_and_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        monkeypatch.setenv("REPRO_SERVE_CONCURRENCY", "4")
        config = config_from_env(max_concurrency=8)
        assert config.port == 9999
        assert config.max_concurrency == 8  # explicit override wins

    def test_config_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "lots")
        with pytest.raises(SystemExit):
            config_from_env()

    def test_create_app_defaults_ignore_the_execution_switches(
        self, monkeypatch
    ):
        # repro serve passes the CLI's config; the library never reads
        # the REPRO_* execution switches itself
        monkeypatch.setenv("REPRO_INSTRUMENT_CACHE", "0")
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        assert create_app(ServerConfig()).state.defaults == ExecConfig()
        cell = ExecConfig(memoize=False, fastpath=False)
        assert create_app(ServerConfig(), cell).state.defaults == cell

    def test_stats_reports_config_echo(self, client):
        stats = client.get("/stats").json()
        assert stats["config"]["max_concurrency"] == 2
        assert stats["defaults"] == dataclasses.asdict(ExecConfig())
        assert stats["jobs"]["queued"] == 0
