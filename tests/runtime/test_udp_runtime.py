"""AsyncioUdpRuntime: real sockets, wall clock, same contract."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import NetworkError
from repro.core.identifiers import NodeId, ZonePath
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.runtime.interface import Runtime

BASE_PORT = 49550


class Recorder:
    def __init__(self, node_id: NodeId):
        self.node_id = node_id
        self.inbox = []
        self.crashed = False

    def receive(self, sender, message):
        self.inbox.append((sender, message))


def make_pair(base_port: int = BASE_PORT):
    alice = Recorder(ZonePath(("alice",)))
    bob = Recorder(ZonePath(("bob",)))
    runtime = AsyncioUdpRuntime(
        seed=1,
        address_book={
            str(alice.node_id): ("127.0.0.1", base_port),
            str(bob.node_id): ("127.0.0.1", base_port + 1),
        },
    )
    runtime.register(alice)
    runtime.register(bob)
    return runtime, alice, bob


async def settle(predicate, timeout: float = 2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.01)
    return True


def test_satisfies_runtime_protocol():
    runtime = AsyncioUdpRuntime(seed=1)
    assert isinstance(runtime, Runtime)
    assert runtime.kind == "live"


def test_datagram_round_trip():
    async def main():
        runtime, alice, bob = make_pair()
        await runtime.start()
        try:
            assert runtime.send(alice.node_id, bob.node_id, {"n": 1})
            assert await settle(lambda: bob.inbox)
            assert bob.inbox == [(alice.node_id, {"n": 1})]
            stats = runtime.node_stats(alice.node_id)
            assert stats.sent_messages == 1
            assert runtime.node_stats(bob.node_id).received_messages == 1
        finally:
            runtime.close()

    asyncio.run(main())


def test_identifier_keys_survive_the_wire():
    """ZonePath dict keys must hash correctly after unpickling — the
    cross-process regression that motivates ZonePath.__reduce__."""
    import pickle

    path = ZonePath(("z0", "n3"))
    clone = pickle.loads(pickle.dumps(path))
    assert clone == path
    assert hash(clone) == hash(path)
    assert clone in {path: True}


# Pickles a ZonePath and an ItemId, both with their caches filled.
_DUMP = """
import pickle, sys
from repro.core.identifiers import ItemId, ZonePath
path, item = ZonePath(("z0", "n3")), ItemId("wire", 7, 1)
hash(path), str(path), hash(item), str(item)
sys.stdout.write(pickle.dumps((path, item)).hex())
"""

# Loads them under another string-hash salt and uses them as keys.
_LOAD = """
import pickle, sys
from repro.core.identifiers import ItemId, ZonePath
path, item = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh_path, fresh_item = ZonePath(("z0", "n3")), ItemId("wire", 7, 1)
assert hash(path) == hash(fresh_path), "ZonePath hash crossed the wire"
assert hash(item) == hash(fresh_item), "ItemId hash crossed the wire"
assert {fresh_path: 1}.get(path) == 1 and {path: 1}.get(fresh_path) == 1
assert {fresh_item: 1}.get(item) == 1 and {item: 1}.get(fresh_item) == 1
assert (str(path), str(item)) == ("/z0/n3", "wire:7.r1")
print("ok")
"""


def test_identifier_caches_rebuilt_in_another_interpreter():
    """Live nodes are separate interpreters with different string-hash
    salts: a hash cached by the sender must not survive unpickling."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def run(code, seed, stdin=""):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run(
            [sys.executable, "-c", code], input=stdin, env=env,
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    dumped = run(_DUMP, "1")
    assert run(_LOAD, "2", dumped).strip() == "ok"


def test_send_to_unknown_destination_counts_drop():
    async def main():
        runtime, alice, bob = make_pair(BASE_PORT + 10)
        await runtime.start()
        try:
            ghost = ZonePath(("ghost",))
            assert runtime.send(alice.node_id, ghost, "x") is False
            assert runtime.stats.dropped_unknown == 1
        finally:
            runtime.close()

    asyncio.run(main())


def test_oversize_payload_refused():
    async def main():
        runtime, alice, bob = make_pair(BASE_PORT + 20)
        runtime.max_datagram = 512
        await runtime.start()
        try:
            assert runtime.send(alice.node_id, bob.node_id, "y" * 4096) is False
            assert runtime.dropped_oversize == 1
            assert not bob.inbox
        finally:
            runtime.close()

    asyncio.run(main())


def test_crashed_handler_drops_delivery():
    async def main():
        runtime, alice, bob = make_pair(BASE_PORT + 30)
        await runtime.start()
        try:
            bob.crashed = True
            runtime.send(alice.node_id, bob.node_id, "z")
            await asyncio.sleep(0.1)
            assert not bob.inbox
            assert runtime.stats.dropped_crashed >= 1
        finally:
            runtime.close()

    asyncio.run(main())


def test_handler_exception_does_not_kill_the_loop(capsys):
    async def main():
        runtime, alice, bob = make_pair(BASE_PORT + 40)
        bob.receive = lambda sender, message: 1 / 0
        await runtime.start()
        try:
            runtime.send(alice.node_id, bob.node_id, "boom")
            assert await settle(lambda: runtime.receive_errors)
            # The transport still works afterwards.
            assert runtime.send(bob.node_id, alice.node_id, "ok")
            assert await settle(lambda: alice.inbox)
        finally:
            runtime.close()

    asyncio.run(main())
    assert "handler error" in capsys.readouterr().err


def test_register_requires_address_book_entry():
    runtime = AsyncioUdpRuntime(seed=1)
    with pytest.raises(NetworkError):
        runtime.register(Recorder(ZonePath(("nowhere",))))


def test_register_after_start_rejected():
    async def main():
        runtime, alice, bob = make_pair(BASE_PORT + 50)
        await runtime.start()
        try:
            late = Recorder(ZonePath(("late",)))
            runtime.address_book[str(late.node_id)] = ("127.0.0.1", 1)
            with pytest.raises(NetworkError):
                runtime.register(late)
        finally:
            runtime.close()

    asyncio.run(main())


def test_timers_require_started_runtime():
    runtime = AsyncioUdpRuntime(seed=1)
    with pytest.raises(NetworkError):
        runtime.call_after(0.1, lambda: None)


def test_run_for_is_not_available_live():
    runtime = AsyncioUdpRuntime(seed=1)
    with pytest.raises(NetworkError):
        runtime.run_for(1.0)


def test_shared_epoch_aligns_clocks():
    import time

    epoch = time.time() - 100.0
    runtime = AsyncioUdpRuntime(seed=1, epoch=epoch)
    assert runtime.now == pytest.approx(100.0, abs=5.0)
