"""The four workloads.  Each module has ``SIZES`` (``full``/``quick``),
``setup(seed, size)`` → inputs, ``measure(inputs, clock, budget, checks)``
→ :class:`~perf.record.Measured` plus exact counts (the untraced run on
the one-call public API), and ``trace(inputs, clock, checks, tracer)``
→ (per-layer metrics, median traced op seconds) from one outside-in traced
round."""

from . import closure_push, count_pushpull, service_mix, stream_delta

BY_NAME = {
    "count_pushpull": count_pushpull,
    "closure_push": closure_push,
    "stream_delta": stream_delta,
    "service_mix": service_mix,
}
