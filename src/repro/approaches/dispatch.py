"""Approach selection: "the overall design space is not flat".

Figure 10's conclusion as an API: given a workload, rank every applicable
approach by modelled throughput and pick the winner.  The paper's
qualitative rules fall out of the ranking:

* very small problems (n < ~16, huge batches) -> one per thread,
* small-to-medium batched problems -> one per block,
* single large problems -> the hybrid CPU+GPU blocked library,
* and the CPU wins when the batch is too small to feed the GPU.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from ..observe.events import emit
from ..observe.tracer import current_tracer, span
from .base import Approach, Workload
from .baselines import CpuLapackApproach, CublasStreamsApproach, HybridBlockedApproach
from .per_block import PerBlockApproach
from .per_thread import PerThreadApproach

__all__ = ["Ranking", "default_approaches", "rank_approaches", "best_approach"]


@dataclasses.dataclass(frozen=True)
class Ranking:
    """One approach's evaluation for a workload."""

    approach: Approach
    gflops: float

    @property
    def name(self) -> str:
        return self.approach.name


def default_approaches() -> list[Approach]:
    """The five contenders of Figures 10-12."""
    return [
        PerThreadApproach(),
        PerBlockApproach(),
        HybridBlockedApproach(),
        CublasStreamsApproach(),
        CpuLapackApproach(),
    ]


def _from_cache(entry, candidates: Sequence[Approach]) -> list[Ranking] | None:
    """Rebuild a ranking from cached ``(name, gflops)`` pairs.

    Every cached name must match a candidate; otherwise (a changed
    approach roster, a stale file) the entry is unusable and the caller
    re-ranks from scratch.
    """
    by_name = {a.name: a for a in candidates}
    ranked = []
    for name, gflops in entry:
        approach = by_name.get(name)
        if approach is None:
            return None
        ranked.append(Ranking(approach=approach, gflops=gflops))
    return ranked or None


def rank_approaches(
    work: Workload,
    approaches: Sequence[Approach] | None = None,
    cache=None,
) -> list[Ranking]:
    """All applicable approaches, fastest first.

    Throughput ties are broken by approach name so the ranking -- and any
    trace events derived from it -- is deterministic regardless of the
    order the candidates were supplied in.

    Pass a :class:`repro.runtime.DispatchCache` as ``cache`` to memoize
    the decision per ``(op, m, n, batch, complex, device)`` key: a hit
    skips the modelled-throughput evaluation of every candidate and
    emits a ``dispatch.cache_hit`` instant instead of the full ranking
    span.
    """
    tracer = current_tracer()
    candidates = approaches if approaches is not None else default_approaches()
    workload = dict(op=work.kind, m=work.m, n=work.n, batch=work.batch)
    if cache is not None:
        entry = cache.lookup(work)
        if entry is not None:
            ranked = _from_cache(entry, candidates)
            if ranked is not None:
                if tracer is not None:
                    tracer.counters.add("dispatch.cache_hits")
                emit(
                    "dispatch.cache_hit",
                    approach=ranked[0].name,
                    outcome="cache-hit",
                    **workload,
                )
                return ranked
    ranked = [
        Ranking(approach=a, gflops=a.gflops(work))
        for a in candidates
        if a.supports(work)
    ]
    if not ranked:
        raise ValueError(f"no approach supports workload {work}")
    ranked.sort(key=lambda r: (-r.gflops, r.name))
    with span(
        "dispatch.rank", "dispatch", kind=work.kind, m=work.m, n=work.n,
        batch=work.batch, complex=work.complex_dtype,
    ):
        if tracer is not None:
            for position, entry in enumerate(ranked):
                tracer.instant(
                    "dispatch.candidate", "dispatch", approach=entry.name,
                    gflops=entry.gflops, rank=position,
                )
            tracer.counters.add("dispatch.rankings")
        emit(
            "dispatch.winner",
            approach=ranked[0].name,
            gflops=ranked[0].gflops,
            outcome="computed",
            **workload,
        )
    if cache is not None:
        cache.store(work, [(r.name, r.gflops) for r in ranked])
    return ranked


def best_approach(
    work: Workload,
    approaches: Sequence[Approach] | None = None,
    cache=None,
) -> Ranking:
    """The Figure-10 winner for this workload."""
    return rank_approaches(work, approaches, cache=cache)[0]
