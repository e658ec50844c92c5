"""Pluggable scheduling policies for the fleet simulator.

A policy decides which queued requests a freshly free server launches
as its next batch.  Batches are always single-model (one weight set per
kernel launch), so a policy really makes two choices: *which model to
serve next* and *which requests of that model to admit*.  The built-in
policies span the classic trade-offs:

* :class:`FifoPolicy` — fairness baseline; head-of-line model wins.
* :class:`ShortestJobFirst` — latency-optimal for mean latency, at the
  cost of starving long requests (video behind images).
* :class:`ModelAffinityPolicy` — keeps serving the model whose weights
  are already resident, avoiding the pool's model-swap cost; falls back
  to FIFO when its queue for that model runs dry.

Policies see an immutable view of the queue (every entry has already
arrived by ``now``) and return *indices* into it; the simulator removes
the selected entries and charges the pool's swap cost if the batch's
model differs from the server's last-served model.

The fleet engine recognizes the three built-in classes by exact type
and dispatches to index-loop equivalents of their ``select``; custom
policies — including *subclasses* of the built-ins — are called
through a :class:`QueueView` proxy (slower, same result).  All times
are seconds.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.serving.workload import Request


class QueueView(Protocol):
    """What a policy may observe about one queued request."""

    @property
    def request(self) -> Request:
        """The underlying request (model, service time, id)."""
        ...

    @property
    def queued_since_s(self) -> float:
        """When this attempt entered the queue (retries re-enter)."""
        ...


class SchedulingPolicy(Protocol):
    """Strategy interface: pick the next batch for a free server."""

    name: str

    def select(
        self,
        queue: Sequence[QueueView],
        *,
        now: float,
        max_batch: int,
        last_model: str | None,
    ) -> list[int]:
        """Indices of queue entries to launch as one same-model batch.

        Must return between 1 and ``max_batch`` indices, all naming
        entries with the same ``request.model``; an empty queue is
        never passed.
        """
        ...


def _same_model_indices(
    queue: Sequence[QueueView], model: str, max_batch: int
) -> list[int]:
    # One slot per request id: hedging can queue two copies of the
    # same request in one pool, and co-scheduling them in one batch
    # would defeat the hedge (both copies would share every fault and
    # finish together).  Without hedging ids are unique, so this is
    # exactly the old first-``max_batch`` FIFO pick.
    picked: list[int] = []
    seen: set[int] = set()
    for index, entry in enumerate(queue):
        if len(picked) == max_batch:
            break
        if entry.request.model != model:
            continue
        if entry.request.request_id in seen:
            continue
        seen.add(entry.request.request_id)
        picked.append(index)
    return picked


class FifoPolicy:
    """First-come-first-served; the head of line picks the model."""

    name = "fifo"

    def select(
        self,
        queue: Sequence[QueueView],
        *,
        now: float,
        max_batch: int,
        last_model: str | None,
    ) -> list[int]:
        """Batch the head request with queued same-model followers."""
        del now, last_model
        return _same_model_indices(
            queue, queue[0].request.model, max_batch
        )


class ShortestJobFirst:
    """Serve the model of the cheapest queued request first.

    Minimizes mean latency under load (images overtake video), the
    standard SJF/SRPT trade: tail latency of expensive models grows.
    """

    name = "sjf"

    def select(
        self,
        queue: Sequence[QueueView],
        *,
        now: float,
        max_batch: int,
        last_model: str | None,
    ) -> list[int]:
        """Batch around the smallest-service-time queued request."""
        del now, last_model
        cheapest = min(
            range(len(queue)),
            key=lambda index: (
                queue[index].request.service_s,
                queue[index].queued_since_s,
            ),
        )
        return _same_model_indices(
            queue, queue[cheapest].request.model, max_batch
        )


class ModelAffinityPolicy:
    """Stay on the resident model while work for it exists.

    Avoids the pool's weight-swap cost (gigabytes of HBM traffic per
    switch for TTI/TTV checkpoints); drains the resident model's queue
    FIFO and only then switches — to the model with the oldest queued
    request, bounding starvation.
    """

    name = "affinity"

    def select(
        self,
        queue: Sequence[QueueView],
        *,
        now: float,
        max_batch: int,
        last_model: str | None,
    ) -> list[int]:
        """Prefer ``last_model``; otherwise switch to the oldest head."""
        del now
        if last_model is not None:
            resident = _same_model_indices(queue, last_model, max_batch)
            if resident:
                return resident
        return _same_model_indices(
            queue, queue[0].request.model, max_batch
        )


POLICIES: dict[str, type] = {
    FifoPolicy.name: FifoPolicy,
    ShortestJobFirst.name: ShortestJobFirst,
    ModelAffinityPolicy.name: ModelAffinityPolicy,
}


def policy_from_name(name: str) -> SchedulingPolicy:
    """Instantiate a scheduling policy by registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
