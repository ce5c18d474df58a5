"""Unit tests for the RPC registry."""

from __future__ import annotations

import pytest

from repro.runtime.rpc import RpcError, RpcRegistry


def _handler_a(ctx, x):
    return x


def _handler_b(ctx, x, y):
    return x + y


class TestRegistration:
    def test_register_returns_handle_with_dense_ids(self):
        registry = RpcRegistry()
        h1 = registry.register(_handler_a)
        h2 = registry.register(_handler_b)
        assert h1.handler_id == 0
        assert h2.handler_id == 1
        assert len(registry) == 2

    def test_registering_same_callable_twice_reuses_handle(self):
        registry = RpcRegistry()
        h1 = registry.register(_handler_a)
        h2 = registry.register(_handler_a)
        assert h1 == h2
        assert len(registry) == 1

    def test_duplicate_explicit_name_rejected(self):
        registry = RpcRegistry()
        registry.register(_handler_a, name="thing")
        with pytest.raises(RpcError):
            registry.register(_handler_b, name="thing")

    def test_lambdas_get_unique_names(self):
        registry = RpcRegistry()
        h1 = registry.register(lambda ctx: None)
        h2 = registry.register(lambda ctx: None)
        assert h1 != h2
        assert h1.name != h2.name

    def test_resolve_accepts_handles_and_callables(self):
        registry = RpcRegistry()
        handle = registry.register(_handler_a)
        assert registry.resolve(handle) == handle
        assert registry.resolve(_handler_a) == handle

    def test_resolve_rejects_foreign_handle(self):
        registry_a = RpcRegistry()
        registry_b = RpcRegistry()
        handle = registry_a.register(_handler_a)
        with pytest.raises(RpcError):
            registry_b.resolve(handle)


class TestHandlersAndSizes:
    def test_unknown_handler_id_rejected(self):
        registry = RpcRegistry()
        with pytest.raises(RpcError):
            registry.handler(99)

    def test_released_handler_rejected_and_its_id_never_reused(self):
        registry = RpcRegistry()
        handle = registry.register(_handler_a)
        registry.release(handle)
        registry.release(handle)  # idempotent
        with pytest.raises(RpcError):
            registry.handler(handle.handler_id)
        assert registry.register(_handler_b).handler_id == handle.handler_id + 1

    def test_call_size_counts_only_id_and_args(self):
        # The function reference is a small fixed-size id, not the name or
        # code: the wire cost of an RPC is dominated by its arguments.
        registry = RpcRegistry()
        handle = registry.register(_handler_a, name="a_rather_long_handler_name" * 4)
        assert registry.call_size(handle, (1,)) < 16
