"""Pluggable execution strategies for planned query batches.

The planner (:func:`repro.serving.protocol.plan_batch`) decides *what*
must be evaluated; an :class:`Executor` decides *where and how*:

:class:`InlineExecutor`
    The historical sequential path: every request, in order, through
    the handle's public (LRU-consulting) query methods.  No dedup, no
    pre-filter — byte-for-byte the cache-counter behavior single-shot
    callers observe.
:class:`ThreadExecutor`
    The historical ``batch(..., parallel=True)`` path, now planner
    driven: dedup + cache pre-filter, then fan-out — through the
    service's own ``_fanout_jobs`` hook when it has one (the sharded
    handle's per-shard grouping) or a chunked thread pool otherwise.

Every executor implements ``run(service, requests, strict=...)`` and
returns one :class:`QueryResult` per request, in request order, with
per-request error semantics.  The conformance suite holds both
bit-identical on the full §V family.  To evaluate a batch in another
process, serve the handle and send the batch through a
:class:`~repro.serving.router.GraphClient`.

:func:`fork_map` is the fork primitive behind process-parallel shard
*builds*.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import (
    Any,
    Callable,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.exceptions import QueryError
from repro.queries.cache import QueryCache
from repro.serving.protocol import (
    CACHEABLE_KINDS,
    KIND_METHODS,
    BatchPlan,
    QueryRequest,
    QueryResult,
    bound_args,
    plan_batch,
)

__all__ = [
    "Executor",
    "InlineExecutor",
    "ThreadExecutor",
    "evaluate_request",
    "finish_plan",
    "fork_map",
]

_T = TypeVar("_T")

RequestLike = Union[QueryRequest, Sequence[Any]]


def evaluate_request(service: Any, request: QueryRequest,
                     uncached: bool = False) -> QueryResult:
    """One dispatched query; failures become the result's ``error``.

    ``uncached=True`` routes through the service's ``_uncached_query``
    hook (planned paths pre-filter the LRU, so consulting it again
    per-job would double-count), with the arguments the kind's method
    would pass on; otherwise the method itself runs, LRU and all.
    A ``TypeError`` — malformed arguments — is reported as such.
    """
    try:
        if uncached:
            value = service._uncached_query(request.kind,
                                            bound_args(request))
        else:
            method = KIND_METHODS[request.kind]
            value = getattr(service, method)(*request.args)
        return QueryResult(id=request.id, value=value)
    except QueryError as exc:
        return QueryResult(id=request.id, error=str(exc))
    except TypeError as exc:
        return QueryResult(
            id=request.id,
            error=f"bad arguments for batch query "
                  f"{request.kind.value!r}: {exc}")


def finish_plan(plan: BatchPlan,
                results: List[Optional[QueryResult]]
                ) -> List[QueryResult]:
    """Settle a plan after its jobs ran: cache, duplicates, errors.

    * executed cacheable answers are **bulk-inserted** into the plan's
      LRU (errors are not cached — a later retry re-evaluates);
    * pre-filtered cache hits and planner-detected invalid requests
      become results;
    * duplicate positions repeat the original's answer, with the same
      copy-out discipline as the cache (callers may mutate answers).
    """
    cache = plan.cache
    if cache is not None:
        for request in plan.jobs:
            if request.kind not in CACHEABLE_KINDS:
                continue
            result = results[request.id]
            if result is None or not result.ok:
                continue
            try:
                cache.store(request.key, result.value)
            except TypeError:  # unhashable args: never cacheable
                continue
            # The stored object must never be the one callers mutate
            # (the LRU's copy-out contract); hand the caller a copy.
            result.value = QueryCache._copy_out(result.value)
    for position, value in plan.cached:
        results[position] = QueryResult(
            id=position, value=QueryCache._copy_out(value))
    for position, message in plan.invalid:
        results[position] = QueryResult(id=position, error=message)
    for position, original in plan.duplicates:
        source = results[original]
        results[position] = QueryResult(
            id=position,
            value=QueryCache._copy_out(source.value),
            error=source.error)
    settled: List[QueryResult] = []
    for position, result in enumerate(results):
        if result is None:  # pragma: no cover - planner invariant
            result = QueryResult(id=position,
                                 error="request was never evaluated")
        settled.append(result)
    return settled


class Executor:
    """Strategy interface: evaluate a request mix against a service.

    ``strict=True`` reproduces the legacy ``batch()`` contract —
    malformed requests (empty / unknown kind) raise immediately;
    otherwise they become per-request errors.
    """

    def run(self, service: Any, requests: Sequence[RequestLike],
            strict: bool = False) -> List[QueryResult]:
        raise NotImplementedError


class InlineExecutor(Executor):
    """Sequential, in-process, through the public cached methods."""

    def run(self, service: Any, requests: Sequence[RequestLike],
            strict: bool = False) -> List[QueryResult]:
        plan = plan_batch(requests, cache=None, dedup=False,
                          strict=strict)
        results: List[Optional[QueryResult]] = [None] * len(plan)
        for request in plan.jobs:
            results[request.id] = evaluate_request(service, request)
        return finish_plan(plan, results)


def _service_cache(service: Any) -> Optional[QueryCache]:
    cache = getattr(service, "cache", None)
    return cache if isinstance(cache, QueryCache) else None


def _thread_fanout(service: Any, jobs: List[QueryRequest],
                   emit: Callable[[int, QueryResult], None],
                   max_workers: Optional[int]) -> None:
    """Generic chunked thread fan-out over the uncached evaluators.

    One pool task per chunk, not per request: thread dispatch is pure
    overhead for sub-millisecond queries.
    """
    from concurrent.futures import ThreadPoolExecutor

    def run_chunk(chunk: List[QueryRequest]) -> None:
        for request in chunk:
            emit(request.id,
                 evaluate_request(service, request, uncached=True))

    workers = min(max_workers or min(8, len(jobs)), len(jobs))
    if workers <= 1:
        run_chunk(jobs)
        return
    chunks = [jobs[index::workers] for index in range(workers)]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        for _ in pool.map(run_chunk, chunks):
            pass


class ThreadExecutor(Executor):
    """Planned thread fan-out (the ``parallel=True`` path).

    Dedup + LRU pre-filter, then the service's own ``_fanout_jobs``
    (per-shard grouping on the sharded handle) or the generic chunked
    pool.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    def run(self, service: Any, requests: Sequence[RequestLike],
            strict: bool = False) -> List[QueryResult]:
        plan = plan_batch(requests, cache=_service_cache(service),
                          dedup=True, strict=strict)
        results: List[Optional[QueryResult]] = [None] * len(plan)

        def emit(position: int, result: QueryResult) -> None:
            results[position] = result

        if plan.jobs:
            fanout = getattr(service, "_fanout_jobs", None)
            if fanout is not None:
                fanout(plan.jobs, emit, self.max_workers)
            else:
                _thread_fanout(service, plan.jobs, emit,
                               self.max_workers)
        return finish_plan(plan, results)


# ----------------------------------------------------------------------
# Fork helpers (process-parallel shard builds, forked shard servers)
# ----------------------------------------------------------------------
def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, AttributeError):  # pragma: no cover
        pass
    return None  # pragma: no cover - non-POSIX fallback


def fork_map(tasks: Sequence[Callable[[], _T]],
             max_workers: Optional[int] = None) -> List[_T]:
    """Run independent thunks across forked workers; results in order.

    The process-pool analogue of the build's thread fan-out: each
    worker inherits the parent address space copy-on-write (no task
    pickling — only *results* cross the pipe), computes its chunk,
    and ships the outcomes back.  A task that raises fails the whole
    map, re-raising the original exception object in the parent when
    it pickles (so ``GrammarError`` stays ``GrammarError`` — callers'
    error contracts survive the fork) and a ``RuntimeError`` carrying
    the message otherwise.  Falls back to sequential execution when
    fork is unavailable or pointless (one task, one worker).
    """
    import pickle

    context = _fork_context()
    workers = min(max_workers or os.cpu_count() or 1, len(tasks))
    if context is None or workers <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]

    def worker(indices: List[int], conn: Any) -> None:
        payload: List[Any] = []
        for index in indices:
            try:
                payload.append((index, tasks[index](), None))
            except Exception as exc:  # ship the failure, keep going
                try:
                    pickle.loads(pickle.dumps(exc))
                    shipped: Any = exc
                except Exception:
                    shipped = RuntimeError(
                        f"forked task failed: "
                        f"{type(exc).__name__}: {exc}")
                payload.append((index, None, shipped))
        conn.send(payload)
        conn.close()

    chunks = [list(range(len(tasks)))[offset::workers]
              for offset in range(workers)]
    children = []
    for indices in chunks:
        parent_conn, child_conn = context.Pipe(duplex=False)
        process = context.Process(target=worker,
                                  args=(indices, child_conn))
        process.start()
        child_conn.close()
        children.append((process, parent_conn, indices))
    results: List[Any] = [None] * len(tasks)
    failure: Optional[BaseException] = None
    for process, conn, indices in children:
        try:
            payload = conn.recv()
        except EOFError:
            payload = [(index, None,
                        RuntimeError("forked task failed: worker "
                                     "process died"))
                       for index in indices]
        finally:
            conn.close()
        process.join()
        for index, value, error in payload:
            if error is not None and failure is None:
                failure = error
            results[index] = value
    if failure is not None:
        raise failure
    return results
