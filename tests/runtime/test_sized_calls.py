"""Per-message RPCs accounted by size: ``async_call`` builds no payload.

``RankContext.async_call`` books every call at
``RpcRegistry.call_size`` — the exact ``len(dumps(...))`` of the reference
codec in :mod:`repro.oracle.codec` — and passes its arguments by reference.
Every counter must add up to those sizes, since the legacy survey drivers
ride this path and Table 4 must not move.  Also covers the vectorized
``stable_hash``.
"""

from __future__ import annotations

import random

import pytest

from repro.oracle.codec import dumps
from repro.runtime.message_buffer import WIRE_ENVELOPE_BYTES
from repro.runtime.serialization import SerializationError
from repro.runtime.world import (
    World,
    stable_hash,
    stable_hash_int_array,
    stable_tuple_hash_array,
)

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


def _run_workload(world: World) -> tuple:
    """A small RPC storm with remote and local traffic plus handler replies.

    Returns what the handlers received and, per rank, the calls it sent and
    ran, and the ``call_size`` total of its local and remote sends and of
    the remote calls it ran.
    """
    received = []
    sent = [0] * world.nranks
    ran = [0] * world.nranks
    local = [0] * world.nranks
    remote = [0] * world.nranks
    incoming = [0] * world.nranks

    def send(ctx, dest, handle, *args):
        sent[ctx.rank] += 1
        ran[dest] += 1
        nbytes = world.registry.call_size(handle, args)
        if dest == ctx.rank:
            local[ctx.rank] += nbytes
        else:
            remote[ctx.rank] += nbytes
            incoming[dest] += nbytes
        ctx.async_call(dest, handle, *args)

    def _reply_handler(ctx, token):
        received.append((ctx.rank, token))

    def _main_handler(ctx, token, payload):
        received.append((ctx.rank, token, tuple(payload)))
        send(ctx, (ctx.rank + 1) % ctx.nranks, h_reply, token)

    h_reply = world.register_handler(_reply_handler, "reply")
    h_main = world.register_handler(_main_handler, "main")

    world.begin_phase("storm")
    rng = random.Random(13)
    for ctx in world.ranks:
        for i in range(120):
            dest = rng.randrange(world.nranks)
            payload = [rng.randrange(10**6) for _ in range(rng.randrange(8))]
            send(ctx, dest, h_main, f"{ctx.rank}:{i}", payload)
    world.barrier()
    received.sort()
    return received, (sent, ran, local, remote, incoming)


class TestSizedCalls:
    @pytest.mark.parametrize("flush_threshold", [256, 4096])
    def test_counters_book_the_call_size_of_every_send(self, flush_threshold):
        world = World(5, flush_threshold_bytes=flush_threshold)
        received, (sent, ran, local, remote, incoming) = _run_workload(world)
        assert len(received) == sum(sent) == 2 * 5 * 120  # every call and reply ran
        for rank, rank_stats in enumerate(world.stats.ranks):
            phase = rank_stats.phases["storm"]
            assert phase.rpcs_sent == sent[rank]
            assert phase.rpcs_executed == ran[rank]
            assert phase.bytes_sent_local == local[rank]
            assert phase.bytes_sent_remote == remote[rank]
            assert phase.bytes_received == incoming[rank]
            # Every remote byte reaches the wire once, in some flush.
            assert phase.wire_bytes == remote[rank] + WIRE_ENVELOPE_BYTES * phase.wire_messages

    def test_local_shortcut_delivers_immediately_at_barrier_semantics(self):
        world = World(3)
        seen = []
        handler = world.register_handler(lambda ctx, x: seen.append((ctx.rank, x)))
        world.begin_phase("p")
        world.ranks[1].async_call(1, handler, "local")
        world.barrier()
        assert seen == [(1, "local")]
        phase = world.stats.ranks[1].phases["p"]
        assert phase.bytes_sent_local > 0
        assert phase.bytes_sent_remote == 0
        assert phase.bytes_received == 0

    def test_unserializable_args_raise_at_send_time(self):
        world = World(2)
        handler = world.register_handler(lambda ctx, x: None)
        with pytest.raises(SerializationError):
            world.ranks[0].async_call(1, handler, object())

    def test_call_size_matches_encode_call(self):
        world = World(2)
        handler = world.register_handler(lambda ctx, *a: None)
        cases = [
            (),
            (1, 2, 3),
            ("q", 5, None, [1.5, "meta"], {"k": (1, 2)}),
            (list(range(500)),),
            (2**80, -(2**90)),
        ]
        for args in cases:
            assert world.registry.call_size(handler, args) == len(
                dumps((handler.handler_id, list(args)))
            )


@pytest.mark.skipif(np is None, reason="requires numpy")
class TestStableHashArray:
    def test_matches_scalar_on_random_int64(self):
        rng = random.Random(5)
        values = [rng.randrange(-(2**63), 2**63) for _ in range(2000)]
        values += [0, 1, -1, 2**63 - 1, -(2**63)]
        hashed = stable_hash_int_array(np.array(values, dtype=np.int64))
        assert [int(h) for h in hashed] == [stable_hash(v) for v in values]

    def test_empty_array(self):
        assert len(stable_hash_int_array(np.empty(0, dtype=np.int64))) == 0

    def test_tuple_hash_array_matches_scalar(self):
        keys = [0, 1, -7, 2**40, 12345]
        hashes = stable_hash_int_array(np.array(keys, dtype=np.int64))
        # Scalar prefix item (a structure name) + per-row key column.
        combined = stable_tuple_hash_array([stable_hash("edge_list"), hashes])
        assert [int(h) for h in combined] == [
            stable_hash(("edge_list", k)) for k in keys
        ]
        # Two array columns: canonical pairs.
        pair = stable_tuple_hash_array([hashes, hashes])
        assert [int(h) for h in pair] == [stable_hash((k, k)) for k in keys]

    def test_tuple_hash_array_requires_an_array_column(self):
        with pytest.raises(ValueError):
            stable_tuple_hash_array([stable_hash("only-scalars")])
