"""Regression: ``repro serve`` over a real socket, and signals around it.

Fabric workers are forked from the server process, so they used to
inherit its signal state: the SIGTERM handler and the signal wakeup fd
that wires a signal into the server's shutdown.  A SIGTERM sent to one
idle worker then shut the whole server down, and the worker itself
survived.  Workers now reset SIGTERM to the default action and drop the
wakeup fd.

Both tests run the shipped entry point, ``python -m repro serve --port
0``, in its own process group, read the bound port from its banner, and
talk to it with ``urllib``.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

pytestmark = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(),
    reason="reads process states from /proc",
)


def _start_server():
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"http://([^:]+):(\d+) ", banner)
    if match is None or match.group(2) == "0":
        _stop(proc)
        raise AssertionError(f"no bound port in banner {banner!r}")
    return proc, f"http://{match.group(1)}:{match.group(2)}"


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)


def _call(base: str, path: str, payload=None):
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    with urllib.request.urlopen(
        urllib.request.Request(base + path, data=data), timeout=60
    ) as response:
        return response.status, json.loads(response.read())


def _run_job(base: str, kind: str, payload: dict) -> dict:
    status, job = _call(base, f"/jobs/{kind}", payload)
    assert status == 202, job
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        detail = _call(base, f"/jobs/{job['id']}")[1]
        if detail["status"] in ("done", "failed", "cancelled"):
            return detail
        time.sleep(0.05)
    raise AssertionError(f"job {job['id']} never settled")


def _worker_pids(base: str) -> list:
    return _call(base, "/stats")[1]["fabric"]["pids"]


def _exited(pid: int) -> bool:
    """Gone or a zombie: the process has stopped running."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _group_members(pgid: int) -> list:
    """Running processes in process group ``pgid``."""
    members = []
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry.name))
    return members


def _wait_until(condition, timeout: float = 15.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if condition():
            return True
        time.sleep(0.05)
    return condition()


def test_worker_sigterm_leaves_server_up():
    proc, base = _start_server()
    try:
        detail = _run_job(base, "sweep", {"target": "fig11", "jobs": 2})
        assert detail["status"] == "done", detail["error"]
        pid = _worker_pids(base)[0]

        os.kill(pid, signal.SIGTERM)
        assert _wait_until(lambda: _exited(pid)), "worker ignored SIGTERM"
        time.sleep(0.5)  # a server following the worker down needs a moment
        status, health = _call(base, "/healthz")
        assert status == 200
        assert health["accepting"] is True
        assert proc.poll() is None
    finally:
        _stop(proc)


def test_serve_end_to_end_and_sigterm_drain():
    proc, base = _start_server()
    try:
        status, job = _call(
            base, "/jobs/run",
            {"program": {"corpus": "demo"}, "config": {"tool": "GiantSan"}},
        )
        assert status == 202
        with urllib.request.urlopen(
            f"{base}/jobs/{job['id']}/events", timeout=60
        ) as stream:
            assert "text/event-stream" in stream.headers["content-type"]
            body = stream.read().decode("utf-8")  # returns at stream close
        events = [
            json.loads(line[len("data: "):])
            for line in body.splitlines()
            if line.startswith("data: ")
        ]
        assert [e["status"] for e in events if e["type"] == "status"] == [
            "queued", "running", "done"
        ]

        # give the drain a fabric to retire
        detail = _run_job(base, "sweep", {"target": "fig11", "jobs": 2})
        assert detail["status"] == "done", detail["error"]
        workers = _worker_pids(base)
        assert len(workers) == 2

        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        _stop(proc)
    assert proc.returncode == 0, stderr
    assert "server stopped" in stdout
    assert all(_exited(pid) for pid in workers)
    # no repro-fabric-* child (or any other helper) left in the group
    assert _wait_until(lambda: not _group_members(proc.pid)), (
        _group_members(proc.pid)
    )


def test_second_sigterm_aborts_the_drain():
    proc, base = _start_server()
    try:
        # a fabric-backed campaign with no checkpoint for a long while
        status, job = _call(
            base, "/jobs/fuzz", {"iterations": 2000, "jobs": 2}
        )
        assert status == 202
        assert _wait_until(
            lambda: _call(base, f"/jobs/{job['id']}")[1]["status"]
            == "running"
        )
        time.sleep(1.0)  # the workers are forked and busy
        proc.send_signal(signal.SIGTERM)
        time.sleep(1.0)
        assert proc.poll() is None  # the first signal waits for the job
        started = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        elapsed = time.monotonic() - started
    finally:
        _stop(proc)
    assert proc.returncode == 130
    assert elapsed < 15, f"abort took {elapsed:.1f}s"
    assert _wait_until(lambda: not _group_members(proc.pid)), (
        _group_members(proc.pid)
    )
