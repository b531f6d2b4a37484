"""The event-loop serving core: one loop, many in-flight frames.

The original serving loop was strict request–response: one thread per
connection, one frame in flight, each reply written before the next
frame was even read.  A single slow cross-shard ``reach`` therefore
head-of-line-blocked every other query on that connection — the exact
bottleneck the ROADMAP's "millions of users" item names.

:class:`ServerLoop` replaces it with an :mod:`asyncio` front end:

* one event loop accepts connections and reads frames from all of
  them concurrently;
* **sequence-tagged** ``batch`` frames (see :mod:`repro.serving.codec`)
  are dispatched to a bounded pool of daemon worker threads and the
  reply is written *when that batch completes* — other frames on the
  same connection keep flowing, overtaking slow ones freely;
* **untagged** frames keep the legacy strict contract per connection
  (the reply is awaited before the next frame is read), so old
  clients observe exactly the behavior they were written against;
* wire hardening lives here too: an over-limit length header gets a
  structured ``error`` reply before the deterministic close (the
  unread payload has desynchronized the stream — continuing would
  misparse payload bytes as headers), truncated frames surface as
  :class:`~repro.serving.codec.FrameError` instead of masquerading as
  clean closes, and a listener that fails while the server is *not*
  shutting down records a :class:`~repro.exceptions.ReproError`
  carrying the errno on :attr:`ServerLoop.fault` instead of silently
  ending the accept loop.

The loop owns no graph state: it speaks to any ``GraphService`` (the
router's proxy-backed sharded handle, a shard process's local handle)
through ``service.execute(requests, executor=...)``, exactly like the
threaded loop it replaces — which is why pipelining cannot change a
single answer.
"""

from __future__ import annotations

import asyncio
import queue
import socket
import struct
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.exceptions import ReproError
from repro.serving.codec import (
    MAX_FRAME_BYTES,
    FrameError,
    OversizedFrameError,
    WireError,
    decode_frame,
    frame_bytes,
    results_to_wire,
    wire_to_requests,
)

__all__ = ["DEFAULT_PIPELINE", "ServerLoop"]

_LENGTH = struct.Struct("!I")

#: Default bound on concurrently evaluating batches per server —
#: shared across connections, so one chatty client cannot starve the
#: pool and an idle server holds no threads beyond it.
DEFAULT_PIPELINE = 16

_READY_TIMEOUT_SECONDS = 30.0


def _resolve_future(future: "asyncio.Future[Any]", value: Any,
                    error: Optional[BaseException]) -> None:
    if future.cancelled():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(value)


class _WorkerPool:
    """A fixed set of daemon threads evaluating batches for the loop.

    Deliberately not a :class:`concurrent.futures.ThreadPoolExecutor`:
    its workers are non-daemon and joined at interpreter exit, so one
    batch stuck on a dead shard link would keep the whole process
    alive.  These workers are daemons — a hung evaluation can never
    outlive the server that scheduled it.
    """

    def __init__(self, workers: int) -> None:
        self._queue: "queue.SimpleQueue[Optional[Tuple[Any, ...]]]" = \
            queue.SimpleQueue()
        self._workers = workers
        for index in range(workers):
            threading.Thread(target=self._worker_main, daemon=True,
                             name=f"repro-batch-{index}").start()

    def submit(self, loop: asyncio.AbstractEventLoop,
               task: Callable[[], Any]) -> "asyncio.Future[Any]":
        future: "asyncio.Future[Any]" = loop.create_future()
        self._queue.put((loop, task, future))
        return future

    def _worker_main(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            loop, task, future = item
            try:
                value, error = task(), None
            except BaseException as exc:  # shipped to the awaiter
                value, error = None, exc
            try:
                loop.call_soon_threadsafe(_resolve_future, future,
                                          value, error)
            except RuntimeError:  # loop already closed: shutdown race
                return

    def stop(self) -> None:
        for _ in range(self._workers):
            self._queue.put(None)


class ServerLoop:
    """An asyncio serving loop over an already-bound listener socket.

    ``start()`` runs the loop in a daemon thread (the router's shape);
    ``run()`` runs it in the calling thread (the shard processes'
    shape — they serve until the parent terminates them).  ``stop()``
    is the *deliberate* shutdown path: it sets the stopping flag
    before waking the loop, which is how the accept loop tells an
    orderly close from a listener that died under it.
    """

    def __init__(self, listener: socket.socket, service: Any,
                 executor: Any, info: Dict[str, Any],
                 pipeline: Optional[int] = None) -> None:
        self._listener = listener
        self._service = service
        self._executor = executor
        self._info = info
        self._workers = max(1, (DEFAULT_PIPELINE if pipeline is None
                                else pipeline))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._pool: Optional[_WorkerPool] = None
        self._stopping = threading.Event()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: An unexpected death of the serving loop (listener failure,
        #: loop crash) — ``None`` while healthy or after ``stop()``.
        self.fault: Optional[ReproError] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServerLoop":
        """Run the loop in a background daemon thread; wait until live."""
        self._thread = threading.Thread(target=self.run, daemon=True,
                                        name="repro-serving-loop")
        self._thread.start()
        if not self._ready.wait(_READY_TIMEOUT_SECONDS):
            raise ReproError("serving loop failed to come up within "
                             f"{_READY_TIMEOUT_SECONDS:.0f}s")
        return self

    def run(self) -> None:
        """Run the loop in the calling thread until stopped or dead."""
        try:
            asyncio.run(self._main())
        except ReproError as exc:
            if not self._stopping.is_set():
                self.fault = exc
        except Exception as exc:  # pragma: no cover - defensive
            if not self._stopping.is_set():
                self.fault = ReproError(
                    f"serving loop died unexpectedly: "
                    f"{type(exc).__name__}: {exc}")
        finally:
            self._ready.set()  # never leave start() waiting on a crash

    def stop(self, timeout: float = 2.0) -> None:
        """Deliberate shutdown: flag first, then wake and join the loop."""
        self._stopping.set()
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:  # loop closed between check and call
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _signal_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._stop_event = asyncio.Event()
        self._pool = _WorkerPool(self._workers)
        self._listener.setblocking(False)
        connections: Set["asyncio.Task[Any]"] = set()
        accept = loop.create_task(self._accept_loop(connections))
        stopped = loop.create_task(self._stop_event.wait())
        self._ready.set()
        try:
            await asyncio.wait({accept, stopped},
                               return_when=asyncio.FIRST_COMPLETED)
        finally:
            accept.cancel()
            stopped.cancel()
            for task in list(connections):
                task.cancel()
            await asyncio.gather(stopped, *connections,
                                 return_exceptions=True)
            self._pool.stop()
        # A finished (not cancelled) accept task means the listener
        # failed while we were not shutting down: propagate the fault.
        if accept.done() and not accept.cancelled():
            accept.result()
        else:
            await asyncio.gather(accept, return_exceptions=True)

    async def _accept_loop(self,
                           connections: Set["asyncio.Task[Any]"]
                           ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                conn, _ = await loop.sock_accept(self._listener)
            except asyncio.CancelledError:
                raise
            except OSError as exc:
                if self._stopping.is_set():
                    return  # orderly: close() flagged before closing us
                raise ReproError(
                    f"server listener failed unexpectedly "
                    f"(errno {exc.errno}): {exc}") from exc
            task = loop.create_task(self._serve_connection(conn))
            connections.add(task)
            task.add_done_callback(connections.discard)

    # ------------------------------------------------------------------
    # One connection
    # ------------------------------------------------------------------
    async def _serve_connection(self, conn: socket.socket) -> None:
        try:
            reader, writer = await asyncio.open_connection(sock=conn)
        except OSError:
            conn.close()
            return
        write_lock = asyncio.Lock()
        in_flight: Set["asyncio.Task[Any]"] = set()
        try:
            while True:
                try:
                    received = await _read_frame(reader)
                except OversizedFrameError as exc:
                    # The unread payload poisons the stream: answer
                    # with a structured error, then close — the peer
                    # learns *why* instead of seeing a bare RST.
                    await self._reply(writer, write_lock, None,
                                      {"op": "error",
                                       "message": str(exc),
                                       "fatal": True})
                    return
                except FrameError:
                    return  # desynchronized: only closing is safe
                except WireError as exc:
                    # Payload fully consumed before the decode failed:
                    # the stream is intact, tell the peer (addressed
                    # to the request when its sequence id was read).
                    await self._reply(writer, write_lock,
                                      getattr(exc, "seq", None),
                                      {"op": "error",
                                       "message": str(exc)})
                    continue
                if received is None:
                    return  # clean close on a frame boundary
                seq, message = received
                op = message.get("op")
                if op == "ping":
                    await self._reply(writer, write_lock, seq,
                                      {"op": "pong"})
                elif op == "info":
                    await self._reply(writer, write_lock, seq,
                                      {"op": "info_reply",
                                       **self._info})
                elif op == "batch":
                    work = self._answer_batch(writer, write_lock, seq,
                                              message)
                    if seq is None:
                        # Untagged = legacy strict request-response:
                        # the reply must precede the next read.
                        await work
                    else:
                        task = asyncio.get_running_loop().create_task(
                            work)
                        in_flight.add(task)
                        task.add_done_callback(in_flight.discard)
                else:
                    await self._reply(writer, write_lock, seq,
                                      {"op": "error",
                                       "message": f"unknown op {op!r}"})
        except (ConnectionError, OSError):
            return  # peer vanished mid-conversation
        finally:
            for task in list(in_flight):
                task.cancel()
            writer.close()

    async def _answer_batch(self, writer: asyncio.StreamWriter,
                            write_lock: asyncio.Lock,
                            seq: Optional[int],
                            message: Dict[str, Any]) -> None:
        try:
            pairs = wire_to_requests(message.get("requests", []))
        except WireError as exc:
            await self._reply(writer, write_lock, seq,
                              {"op": "error", "message": str(exc)})
            return
        loop = asyncio.get_running_loop()
        try:
            wire = await self._pool.submit(
                loop, lambda: self._run_batch(pairs))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # The evaluation itself died — a shared fate, but still
            # *this batch's* fate: report it per-request (the batch
            # contract) instead of as a connection-level error that a
            # pipelined client would treat as poisoning the link.
            message = f"batch failed: {exc}"
            await self._reply(writer, write_lock, seq,
                              {"op": "results",
                               "results": [{"id": client_id,
                                            "error": message}
                                           for client_id, _ in pairs]})
            return
        await self._reply(writer, write_lock, seq,
                          {"op": "results", "results": wire})

    def _run_batch(self, pairs: List[Tuple[int, Tuple[Any, ...]]]
                   ) -> List[Dict[str, Any]]:
        """Evaluate one batch on a worker thread (identical to the
        threaded loop: plan + executor via ``service.execute``, client
        ids echoed back on the results)."""
        results = self._service.execute(
            [request for _, request in pairs], executor=self._executor)
        for (client_id, _), result in zip(pairs, results):
            result.id = client_id
        return results_to_wire(results)

    async def _reply(self, writer: asyncio.StreamWriter,
                     write_lock: asyncio.Lock, seq: Optional[int],
                     message: Dict[str, Any]) -> None:
        payload = frame_bytes(message, seq=seq)
        async with write_lock:
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer vanished; the read path closes us


async def _read_frame(reader: asyncio.StreamReader
                      ) -> Optional[Tuple[Optional[int],
                                          Dict[str, Any]]]:
    """The async twin of :func:`repro.serving.codec.recv_frame`."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close on a frame boundary
        raise FrameError(f"connection closed mid-frame "
                         f"({len(exc.partial)}/{_LENGTH.size} header "
                         f"bytes read)") from None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(f"connection closed mid-frame "
                         f"({len(exc.partial)}/{length} payload bytes "
                         f"read)") from None
    return decode_frame(payload)
