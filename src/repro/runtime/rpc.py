"""Remote procedure call registry for the simulated YGM communicator.

YGM messages have three components: a function to execute, serialized
arguments, and a destination MPI rank.  In the C++ implementation the
"function" is a lambda whose address offset is exchanged between sender and
receiver (all ranks run the same binary, so offsets are meaningful after
adjusting for ASLR).  In this simulated runtime every rank lives in one
Python process, so the equivalent of "same binary everywhere" is a shared
:class:`RpcRegistry` mapping small integer handler ids to Python callables.

Only the handler *id* and the serialized arguments count on the simulated
wire (:meth:`RpcRegistry.call_size`), so the byte accounting matches the C++
system: a small function reference plus variable-length arguments.

Handlers receive the destination rank's context object as their first
argument, mirroring YGM's convention of lambdas receiving a pointer to the
local communicator/data structure.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .serialization import serialized_size

__all__ = ["RpcRegistry", "RpcHandle", "RpcError"]


class RpcError(Exception):
    """Raised for unknown, released or foreign handlers."""


class RpcHandle:
    """A lightweight reference to a registered handler.

    Instances compare equal by id and can be used directly as the ``func``
    argument of :meth:`repro.runtime.world.RankContext.async_call`.
    """

    __slots__ = ("registry", "handler_id", "name")

    def __init__(self, registry: "RpcRegistry", handler_id: int, name: str) -> None:
        self.registry = registry
        self.handler_id = handler_id
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RpcHandle({self.handler_id}, {self.name!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RpcHandle)
            and other.registry is self.registry
            and other.handler_id == self.handler_id
        )

    def __hash__(self) -> int:
        return hash((id(self.registry), self.handler_id))


class RpcRegistry:
    """Maps handler names/callables to dense integer ids shared by all ranks."""

    def __init__(self) -> None:
        self._handlers: List[Callable[..., Any]] = []
        self._by_name: Dict[str, int] = {}
        self._by_callable: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._handlers)

    # ------------------------------------------------------------------
    def register(self, func: Callable[..., Any], name: Optional[str] = None) -> RpcHandle:
        """Register ``func`` and return its handle.

        Registering the same callable twice returns the same handle.  Names
        must be unique; by default the callable's qualified name plus a
        uniquifying suffix is used, so anonymous lambdas can be registered
        without collisions.
        """
        key = id(func)
        existing = self._by_callable.get(key)
        if existing is not None:
            return RpcHandle(self, existing, self._handler_name(existing))
        if name is None:
            base = getattr(func, "__qualname__", "handler")
            name = f"{base}#{len(self._handlers)}"
        if name in self._by_name:
            raise RpcError(f"handler name {name!r} already registered")
        handler_id = len(self._handlers)
        self._handlers.append(func)
        self._by_name[name] = handler_id
        self._by_callable[key] = handler_id
        return RpcHandle(self, handler_id, name)

    def resolve(self, func_or_handle: Callable[..., Any] | RpcHandle) -> RpcHandle:
        """Return the handle for ``func_or_handle``, registering if needed."""
        if isinstance(func_or_handle, RpcHandle):
            if func_or_handle.registry is not self:
                raise RpcError("handle belongs to a different registry")
            return func_or_handle
        return self.register(func_or_handle)

    def release(self, handle: RpcHandle) -> None:
        """Drop a handler's callable while keeping its id slot allocated.

        Long-lived worlds that register per-batch closures (the incremental
        survey engines, superseded DODGr rebuilds) use this so the registry
        does not pin every captured graph for the world's lifetime.  The id
        slot is tombstoned, never recycled: later registrations keep getting
        fresh ids, so the serialized size of every subsequently accounted
        message — which includes a handler-id varint — is unchanged.
        Invoking a released handler raises :class:`RpcError`.  Idempotent.
        """
        try:
            func = self._handlers[handle.handler_id]
        except IndexError as exc:
            raise RpcError(f"unknown handler id {handle.handler_id}") from exc
        if func is None:
            return
        self._handlers[handle.handler_id] = None
        self._by_callable.pop(id(func), None)

    def handler(self, handler_id: int) -> Callable[..., Any]:
        try:
            func = self._handlers[handler_id]
        except IndexError as exc:
            raise RpcError(f"unknown handler id {handler_id}") from exc
        if func is None:
            raise RpcError(f"handler id {handler_id} has been released")
        return func

    def _handler_name(self, handler_id: int) -> str:
        for name, hid in self._by_name.items():
            if hid == handler_id:
                return name
        return f"handler#{handler_id}"

    # ------------------------------------------------------------------
    def call_size(self, handle: RpcHandle, args: Tuple[Any, ...]) -> int:
        """Exact wire size of one call: ``(handler_id, list(args))`` serialized.

        Equal to ``len(dumps((handle.handler_id, list(args))))`` of the
        reference codec :mod:`repro.oracle.codec` for every encodable
        argument tuple, without building the payload; unsupported values
        raise :class:`~repro.runtime.serialization.SerializationError` as
        encoding would.  :meth:`repro.runtime.world.RankContext.async_call`
        accounts every per-message RPC at this size.
        """
        return serialized_size((handle.handler_id, list(args)))
