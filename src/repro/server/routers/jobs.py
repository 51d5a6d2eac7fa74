"""Job endpoints: submission, status, results, telemetry, events, cancel.

Submission returns 202 with the job summary; everything else reads the
in-process job store.  ``GET /jobs/{id}/events`` streams the job's
event feed as server-sent events and closes once the job settles, so a
client can follow queued → running → done without polling.
"""

from __future__ import annotations

import functools

from ..http import HTTPError, validate
from ..jobs import JobManager
from ..models import FuzzJobRequest, RunJobRequest, SweepJobRequest
from ..services import execute_fuzz_job, execute_run_job, execute_sweep_job


def _manager(request) -> JobManager:
    return request.state.manager


def _cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise HTTPError(
            422,
            [{"loc": ["body", what],
              "msg": f"{what} {value} exceeds the server cap of {cap}",
              "type": "value_error.cap"}],
        )


def submit_run(request):
    payload = validate(RunJobRequest, request.json())
    state = request.state
    runner = functools.partial(
        execute_run_job,
        request=payload,
        defaults=state.defaults,
        aggregate=state.telemetry_totals,
    )
    job = _manager(request).submit(
        "run", payload.model_dump(mode="json"), runner
    )
    return 202, job.summary()


def submit_sweep(request):
    payload = validate(SweepJobRequest, request.json())
    state = request.state
    _cap(payload.jobs, state.config.worker_cap, "jobs")
    runner = functools.partial(
        execute_sweep_job, request=payload, defaults=state.defaults
    )
    job = _manager(request).submit(
        "sweep", payload.model_dump(mode="json"), runner
    )
    return 202, job.summary()


def submit_fuzz(request):
    payload = validate(FuzzJobRequest, request.json())
    state = request.state
    _cap(payload.jobs, state.config.worker_cap, "jobs")
    _cap(
        payload.iterations, state.config.fuzz_iteration_cap, "iterations"
    )
    runner = functools.partial(
        execute_fuzz_job, request=payload, defaults=state.defaults
    )
    job = _manager(request).submit(
        "fuzz", payload.model_dump(mode="json"), runner
    )
    return 202, job.summary()


def list_jobs(request):
    manager = _manager(request)
    status = request.query_params.get("status")
    jobs = [
        job.summary()
        for job in manager.snapshot()
        if status is None or job.status.value == status
    ]
    return 200, {"jobs": jobs, "counts": manager.counts()}


def job_detail(request):
    return 200, _manager(request).get(request.path_params["job_id"]).detail()


def job_result(request):
    job = _manager(request).get(request.path_params["job_id"])
    if job.status.value in ("queued", "running"):
        raise HTTPError(409, f"job {job.id} is still {job.status.value}")
    if job.result is None:
        raise HTTPError(
            409, f"job {job.id} {job.status.value} without a result"
        )
    return 200, {
        "id": job.id, "status": job.status.value, "result": job.result
    }


def job_telemetry(request):
    job = _manager(request).get(request.path_params["job_id"])
    if job.result is None or "telemetry" not in job.result:
        raise HTTPError(409, f"job {job.id} has no telemetry snapshot")
    return 200, {"id": job.id, "telemetry": job.result["telemetry"]}


def job_events(request):
    manager = _manager(request)
    job = manager.get(request.path_params["job_id"])
    try:
        after = int(request.query_params.get("after", -1))
    except ValueError:
        raise HTTPError(422, "'after' must be an integer") from None
    return 200, manager.follow_events(job, after=after)


def cancel_job(request):
    manager = _manager(request)
    job = manager.get(request.path_params["job_id"])
    changed = manager.cancel(job)
    return 200, {
        "id": job.id,
        "status": job.status.value,
        "cancel_requested": changed,
    }


ROUTES = {
    ("POST", "/jobs/run"): submit_run,
    ("POST", "/jobs/sweep"): submit_sweep,
    ("POST", "/jobs/fuzz"): submit_fuzz,
    ("GET", "/jobs"): list_jobs,
    ("GET", "/jobs/{job_id}"): job_detail,
    ("GET", "/jobs/{job_id}/result"): job_result,
    ("GET", "/jobs/{job_id}/telemetry"): job_telemetry,
    ("GET", "/jobs/{job_id}/events"): job_events,
    ("POST", "/jobs/{job_id}/cancel"): cancel_job,
    ("DELETE", "/jobs/{job_id}"): cancel_job,
}
