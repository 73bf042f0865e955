"""Asyncio front door for the admission service.

One thread does a request's whole life: accept, read, JSON decode, the
command itself and the reply all run on the event loop, so ten thousand idle
connections cost file descriptors, not threads, and a request costs no thread
hand-off.  (The admission core holds the GIL for nearly all it does; a second
thread bought no parallelism, only a wake-up each way.)  Two rules follow:

* **A command holds the loop for its own duration, and nothing longer.**  A
  slow one (a large heterogeneous DP, an ``obs`` dump) delays the other
  connections by that much and neither drops nor reorders them; a delay-mode
  failpoint is slept with ``asyncio.sleep``, which pins its connection only.
* **Never wait on the loop for another thread's decision.**  A ``wait:true``
  submit enqueues without waking a worker and runs one decision step itself
  (``submit(inline=True)``).  The fair queue still picks who that step
  serves; when it was another tenant's turn, the ticket is awaited through
  an :class:`asyncio.Future` bridged from ``Ticket.add_done_callback``.
  ``wait:false`` wakes a worker and answers ``queued`` at once.

The wire protocol is the line-JSON contract of :mod:`repro.service.server`;
the op table and error envelope are imported from there.
"""

from __future__ import annotations

import argparse
import asyncio
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


class AsyncFrontDoor:
    """Asyncio accept/read/decode loop over one :class:`AdmissionService`.

    Construct, then ``await start()`` (binds), then
    ``await serve_until_shutdown()``.  ``request_shutdown`` is thread-safe.
    """

    def __init__(
        self,
        service: AdmissionService,
        host: str = "127.0.0.1",
        port: int = 0,
        client_timeout: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.client_timeout = client_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop = asyncio.Event()
        self._shutdown_pending = False
        self._conn_tasks: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener; updates ``port``."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        logger.info("async front door listening on %s:%d", self.host, self.port)

    async def serve_until_shutdown(self) -> None:
        """Serve connections until :meth:`request_shutdown` fires."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.start_serving()
            await self._stop.wait()
        # Listener closed; reap connections still parked on readline.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

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
        """The ``shutdown`` op's request: stop once the response is on the wire."""
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
                # A delay-mode stall must pin this connection, not the
                # shared event loop: collect its length, sleep it here.
                stalls: list = []
                FAILPOINTS.hit(FP_SERVER_RESPONSE, sleep=stalls.append)
                for stall_s in stalls:
                    await asyncio.sleep(stall_s)
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
            return dispatch_command(self.service, command, self._defer_shutdown)
        except (ServiceError, CodecError) as exc:
            return error_response(exc)
        except Exception as exc:  # never kill the connection on one bad op
            logger.warning("op=%s raised: %s", op, exc, exc_info=True)
            return error_response(exc)

    async def _submit(self, command: Dict[str, Any]) -> Dict[str, Any]:
        """Submit on the loop thread: ``wait:true`` decides here, in queue order."""
        wait = bool(command.get("wait", True))
        self.service.gate("submit")  # same degradation gate as dispatch_command
        ticket: Ticket = self.service.submit(
            command["request"],
            priority=int(command.get("priority", 0)),
            timeout_s=command.get("timeout_s"),
            wait=False,
            idempotency_key=command.get("idem"),
            tenant=command.get("tenant"),
            inline=wait,
        )
        if wait and not ticket.done:
            await self._await_ticket(ticket, command.get("wait_timeout"))
        return {"ok": True, **ticket.describe()}

    async def _await_ticket(
        self, ticket: Ticket, wait_timeout: Optional[float]
    ) -> None:
        """Await a decision another thread makes, without blocking the loop.

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
