"""Asyncio front door for the admission service.

One event loop owns every connection: accept, read, and JSON decode happen
on the loop, and the synchronous admission core is reached through a
**bounded** thread pool (``--pool-size``), so ten thousand idle connections
cost file descriptors, not threads — the thread-per-connection scaling wall
ROADMAP item 3 names.

Two rules keep the sync core honest:

* **Never block the loop.**  Every call that can take the service lock (or
  sleep in a failpoint) runs in the pool via ``run_in_executor``.
* **Never park a pool thread on a wait.**  ``submit`` is two-phase: the
  enqueue runs in the pool with ``wait=False`` and the decision is awaited
  on the loop through an :class:`asyncio.Future` bridged from
  ``Ticket.add_done_callback`` — a thousand in-flight submits hold zero
  pool threads while the admission batcher works.

The wire protocol is the line-JSON contract of :mod:`repro.service.server`;
the op table and error envelope are imported from there.
"""

from __future__ import annotations

import argparse
import asyncio
import concurrent.futures
import json
import logging
import signal
from typing import Any, Dict, Optional

from repro.faults.failpoints import FAILPOINTS, FP_SERVER_RESPONSE
from repro.service.codec import CodecError
from repro.service.concurrency import AdmissionService, Ticket
from repro.service.errors import ServiceError
from repro.service.server import (
    announce_ready,
    dispatch_command,
    dump_flight_on_sigusr2,
    error_response,
    final_shutdown,
)

logger = logging.getLogger(__name__)

DEFAULT_POOL_SIZE = 8


class AsyncFrontDoor:
    """Asyncio accept/read/decode loop over one :class:`AdmissionService`.

    Construct, then ``await start()`` (binds and spins up the pool), then
    ``await serve_until_shutdown()``.  ``request_shutdown`` is thread-safe:
    protocol handlers call it from pool threads and signal handlers call it
    from the loop.
    """

    def __init__(
        self,
        service: AdmissionService,
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: int = DEFAULT_POOL_SIZE,
        client_timeout: Optional[float] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.service = service
        self.host = host
        self.port = port
        self.pool_size = pool_size
        self.client_timeout = client_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = asyncio.Event()
        self._shutdown_pending = False
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the bridge pool; updates ``port``."""
        self._loop = asyncio.get_running_loop()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.pool_size, thread_name_prefix="aio-bridge"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info(
            "async front door listening on %s:%d (pool=%d)",
            self.host, self.port, self.pool_size,
        )

    async def serve_until_shutdown(self) -> None:
        """Serve connections until :meth:`request_shutdown` fires."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await self._stop.wait()
        # Listener closed; reap connections still parked on readline before
        # tearing down the pool they would otherwise try to schedule on.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=False)

    def request_shutdown(self) -> None:
        """Stop serving immediately (callable from any thread).

        Signal handlers use this; the ``shutdown`` protocol op goes through
        :meth:`_defer_shutdown` instead so its ``bye`` response is flushed
        before the listener drops.
        """
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._stop.set)

    def _defer_shutdown(self) -> None:
        """Pool-side shutdown request: stop once the response is on the wire."""
        self._shutdown_pending = True

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        peer_host = peer[0] if peer else "?"
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stop.is_set():
                try:
                    if self.client_timeout is not None:
                        raw = await asyncio.wait_for(
                            reader.readline(), timeout=self.client_timeout
                        )
                    else:
                        raw = await reader.readline()
                except asyncio.TimeoutError:
                    logger.warning(
                        "peer=%s timed out mid-operation; closing connection",
                        peer_host,
                    )
                    break
                if not raw:
                    break
                line = raw.strip()
                if not line:
                    continue
                response = await self._process(line)
                # Failpoint runs in the pool: a delay-mode stall must pin
                # this connection, not the shared event loop.
                await self._run_sync(FAILPOINTS.hit, FP_SERVER_RESPONSE)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if self._shutdown_pending:
                    self._stop.set()
                if response.get("bye"):
                    break
        except ConnectionError:
            pass  # peer vanished mid-read; nothing to answer
        except asyncio.CancelledError:
            # Shutdown reaps idle connections; completing normally keeps
            # asyncio's connection_made callback from logging the cancel.
            if not self._stop.is_set():
                raise
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _process(self, line: bytes) -> Dict[str, Any]:
        """Decode and execute one protocol line, mapping errors to envelopes."""
        try:
            command = json.loads(line)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"malformed JSON: {exc.msg}"}
        op = command.get("op") if isinstance(command, dict) else None
        try:
            if op == "submit":
                return await self._submit(command)
            return await self._run_sync(
                dispatch_command, self.service, command, self._defer_shutdown
            )
        except (ServiceError, CodecError) as exc:
            return error_response(exc)
        except Exception as exc:  # never kill the connection on one bad op
            logger.warning("op=%s raised: %s", op, exc, exc_info=True)
            return error_response(exc)

    async def _submit(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Two-phase submit: pool-side enqueue, loop-side decision wait."""
        ticket: Ticket = await self._run_sync(self._enqueue, command)
        if bool(command.get("wait", True)) and not ticket.done:
            await self._await_ticket(ticket, command.get("wait_timeout"))
        return {"ok": True, **ticket.describe()}

    def _enqueue(self, command: Dict[str, Any]) -> Ticket:
        """Pool-side half of submit: enqueue without blocking on the decision."""
        self.service.gate("submit")  # same degradation gate as dispatch_command
        return self.service.submit(
            command["request"],
            priority=int(command.get("priority", 0)),
            timeout_s=command.get("timeout_s"),
            wait=False,
            idempotency_key=command.get("idem"),
            tenant=command.get("tenant"),
        )

    async def _await_ticket(
        self, ticket: Ticket, wait_timeout: Optional[float]
    ) -> None:
        """Await the worker's decision without holding a pool thread.

        On timeout the request simply stays queued and the caller reports
        the ticket as queued.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()

        def _resolved(_ticket: Ticket) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(None)
            )

        ticket.add_done_callback(_resolved)
        try:
            if wait_timeout is not None:
                await asyncio.wait_for(asyncio.shield(future), float(wait_timeout))
            else:
                await future
        except asyncio.TimeoutError:
            pass

    async def _run_sync(self, fn, *args):
        """Run a blocking call on the bounded bridge pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn, *args
        )


# ----------------------------------------------------------------------
# ``svc-repro serve``
# ----------------------------------------------------------------------


def run_async_server(service: AdmissionService, args: argparse.Namespace) -> int:
    """Blocking entry point wired behind ``svc-repro serve``.

    Owns the event loop: binds, starts the admission workers, installs
    signal handlers on the loop, prints the ready line, serves until a
    shutdown op or signal, then runs the shared teardown (checkpoint +
    journal close).
    """
    async def _main() -> None:
        door = AsyncFrontDoor(
            service,
            host=args.host,
            port=args.port,
            pool_size=args.pool_size,
            client_timeout=args.client_timeout_s,
        )
        await door.start()
        service.start()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, door.request_shutdown)
            loop.add_signal_handler(signal.SIGINT, door.request_shutdown)
            loop.add_signal_handler(signal.SIGUSR2, dump_flight_on_sigusr2)
        except (NotImplementedError, AttributeError, ValueError):
            pass  # platform without loop signal support
        announce_ready(service, args, door.host, door.port)
        await door.serve_until_shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        final_shutdown(service)
    return 0
