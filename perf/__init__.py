"""perf — this repository's benchmark (see ``perf/README.md``).

``python3 -m perf --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload and prints one JSON result line (the ``BENCHMARK.json``
contract); ``python3 -m perf --seed <n>`` runs all four, untraced and
traced, each in a fresh subprocess, and prints every metric by name with
its unit; ``python3 -m perf.compare A.json B.json`` applies the bounds.

The program under test is ``src/repro``.  It is put on ``sys.path`` here
so that the one documented command works from the root of a plain
checkout with no ``PYTHONPATH``; an already importable ``repro`` wins.
"""

import importlib.util
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if importlib.util.find_spec("repro") is None and os.path.isdir(_SRC):
    sys.path.insert(0, _SRC)
