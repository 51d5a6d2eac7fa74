"""Regression: interrupted sweeps must not orphan workers or leak shm.

A terminal Ctrl-C delivers SIGINT to the whole foreground process
group.  Fabric workers used to die mid-unit from their own SIGINT while
the parent's cleanup raced them, which could leave ``/dev/shm`` segments
behind and (with an unlucky interleaving) live worker processes whose
parent had already exited.  The fix is two-sided:
workers ignore SIGINT (the parent owns interrupt cleanup), and the CLI
retires the fabric in a ``finally`` block — ``shutdown_pool`` on
interrupt, graceful ``drain_pool`` otherwise — with SIGTERM routed
through ``SystemExit`` so the same path runs under a supervisor kill.

These tests run a real ``python -m repro fuzz --jobs 2`` in its own
process group, signal it mid-sweep, and assert the ground truth the
bug was about: exit code, zero surviving processes in the group, and a
byte-identical ``/dev/shm`` listing.  A sweep counts as started once its
process group holds the parent and both workers.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

REPO_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
SHM_DIR = pathlib.Path("/dev/shm")
PROC_DIR = pathlib.Path("/proc")

pytestmark = pytest.mark.skipif(
    not (SHM_DIR.is_dir() and PROC_DIR.is_dir()),
    reason="requires /dev/shm and /proc",
)


def _shm_listing() -> set:
    return set(os.listdir(SHM_DIR))


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _spawn_fuzz_sweep():
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fuzz",
            "--iterations", "4000", "--jobs", "2",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group, like a terminal
    )


def _group_size(pgid: int) -> int:
    """Live processes in group ``pgid``, from ``/proc/<pid>/stat``."""
    size = 0
    for stat in PROC_DIR.glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process exited mid-scan
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces
        fields = text[text.rindex(")") + 2 :].split()
        if int(fields[2]) == pgid:
            size += 1
    return size


def _wait_for_workers(pgid: int, timeout: float = 60.0) -> None:
    """Wait until the sweep's group holds the parent and two workers."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _group_size(pgid) >= 3:
            time.sleep(0.3)  # let the map actually start dispatching
            return
        time.sleep(0.05)
    raise AssertionError("fabric workers never started")


def _assert_group_gone(pgid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _group_alive(pgid):
            return
        time.sleep(0.05)
    raise AssertionError(f"process group {pgid} still has live members")


@pytest.mark.parametrize(
    "signum,expected_code",
    [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
    ids=["sigint", "sigterm"],
)
def test_signal_mid_sweep_leaves_no_workers_and_no_shm(signum, expected_code):
    before = _shm_listing()
    proc = _spawn_fuzz_sweep()
    try:
        _wait_for_workers(proc.pid)
        os.killpg(proc.pid, signum)
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
    assert code == expected_code, proc.stderr.read()
    _assert_group_gone(proc.pid)
    leaked = _shm_listing() - before
    assert leaked == set(), f"leaked shared memory segments: {leaked}"


def test_sigterm_to_the_parent_alone_drains_promptly():
    # a supervisor that kills only the parent: the CLI drains the
    # fabric while its workers still run.  When a worker then holds a
    # Table 2 row larger than a pipe buffer (timing decides), a drain
    # that joined workers before reading their pipes used to hang
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "table2", "--jobs", "2"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _wait_for_workers(proc.pid)
        os.kill(proc.pid, signal.SIGTERM)
        started = time.monotonic()
        code = proc.wait(timeout=60)
        elapsed = time.monotonic() - started
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
    assert code == 143, proc.stderr.read()
    assert elapsed < 20.0, f"drain took {elapsed:.1f} s"
    _assert_group_gone(proc.pid)


def test_clean_run_drains_gracefully_and_leaves_no_shm():
    before = _shm_listing()
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "fuzz",
            "--iterations", "8", "--jobs", "2",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        start_new_session=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fuzzed 8 cases" in proc.stdout
    leaked = _shm_listing() - before
    assert leaked == set(), f"leaked shared memory segments: {leaked}"
