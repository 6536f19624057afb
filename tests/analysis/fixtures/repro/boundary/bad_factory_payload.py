"""REP130 bad fixture: the payload type is reachable only through the
factory helper's return annotation (``build_jobs() -> List[UploadJob]``
in a sibling module), and it carries a lock across the pickle boundary."""

from repro.experiments.parallel import run_jobs

from .factories import build_jobs


def _upload(job) -> int:
    return job.shard


def upload_all(n: int):
    jobs = build_jobs(n)
    return run_jobs(jobs, _upload)
