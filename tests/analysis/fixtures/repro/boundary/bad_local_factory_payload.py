"""REP130 bad fixture: the factory that builds the payload is defined in
the submitting module itself, and its return annotation
(``build_jobs() -> List[UploadJob]``) names a job type that carries a
lock across the pickle boundary."""

from dataclasses import dataclass
from threading import Lock
from typing import List

from repro.experiments.parallel import run_jobs


@dataclass
class UploadJob:
    shard: int
    guard: Lock


def build_jobs(n: int) -> List[UploadJob]:
    guard = Lock()
    return [UploadJob(shard=i, guard=guard) for i in range(n)]


def _upload(job) -> int:
    return job.shard


def upload_all(n: int):
    jobs = build_jobs(n)
    return run_jobs(jobs, _upload)
