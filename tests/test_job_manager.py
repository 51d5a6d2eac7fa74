"""The job manager under thread contention.

HTTP handlers run on one thread per connection, so submissions, store
reads and event followers race each other and the job threads.  A lost
store update, a follower that misses a wakeup, or a status change seen
without its event breaks the invariants asserted here.
"""

import sys
import threading

from repro.server import ServerConfig
from repro.server.jobs import JobManager

SUBMITTERS = 8
JOBS_EACH = 20


def _runner(context):
    for step in range(3):
        context.progress("step", step=step)
    return {"steps": 3}


def test_concurrent_submit_and_follow_lose_nothing():
    manager = JobManager(ServerConfig(max_concurrency=4))
    followed = {}
    errors = []

    def follow(job):
        events = list(manager.follow_events(job))
        followed[job.id] = events

    def submit():
        try:
            followers = []
            for _ in range(JOBS_EACH):
                job = manager.submit("run", {}, _runner)
                follower = threading.Thread(target=follow, args=(job,))
                follower.start()
                followers.append(follower)
                manager.counts()  # readers race the submitters
            for follower in followers:
                follower.join(timeout=60)
                assert not follower.is_alive(), "follower never woke"
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        submitters = [
            threading.Thread(target=submit) for _ in range(SUBMITTERS)
        ]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        manager.shutdown()

    assert errors == []
    total = SUBMITTERS * JOBS_EACH
    assert manager.counts()["done"] == len(manager.snapshot()) == total
    assert len(followed) == total
    for events in followed.values():
        assert [e["seq"] for e in events] == list(range(6))
        assert [e.get("status") for e in events if e["type"] == "status"] == [
            "queued", "running", "done"
        ]
