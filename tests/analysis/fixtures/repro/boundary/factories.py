"""Support module for bad_factory_payload: a job factory whose return
annotation is the only place the payload type is named."""

from dataclasses import dataclass
from threading import Lock
from typing import List


@dataclass
class UploadJob:
    shard: int
    guard: Lock


def build_jobs(n: int) -> List[UploadJob]:
    guard = Lock()
    return [UploadJob(shard=i, guard=guard) for i in range(n)]
