"""Shared fixtures for the service-layer tests."""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest

from repro.service.aio import AsyncFrontDoor
from repro.service.journal import DurabilityStore


@contextlib.contextmanager
def served_front_door(service):
    """Serve ``service`` behind an ``AsyncFrontDoor`` thread; yields the port."""
    doors = []
    bound = threading.Event()

    async def serve():
        door = AsyncFrontDoor(service, port=0)
        await door.start()
        doors.append(door)
        bound.set()
        await door.serve_until_shutdown()

    thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    assert bound.wait(10.0), "front door never bound"
    try:
        yield doors[0].port
    finally:
        doors[0].request_shutdown()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


@pytest.fixture()
def store(tmp_path) -> DurabilityStore:
    """A fresh durability directory with frequent snapshots."""
    with DurabilityStore(tmp_path / "journal", snapshot_every=5) as handle:
        yield handle


@pytest.fixture()
def plain_store(tmp_path) -> DurabilityStore:
    """A durability directory that never snapshots automatically."""
    with DurabilityStore(tmp_path / "journal") as handle:
        yield handle
