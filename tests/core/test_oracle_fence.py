"""Production never loads the oracle: ``repro.oracle`` is imported only when
``engine="legacy"`` is asked for.

Runs in a fresh interpreter, so no earlier test has imported the oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

PRODUCTION_THEN_LEGACY = """
import sys

import repro
from repro import ClosureTimeSurvey, DODGraph, StreamingSurvey, World, rmat
from repro.core import triangle_survey_push_pull
from repro.graph.metadata import temporal_edge_meta
from repro.service import SurveyService

generated = rmat(7, edge_factor=6, seed=3)
world = World(4)
dodgr = DODGraph.build(generated.to_distributed(world), mode="bulk")
assert triangle_survey_push_pull(dodgr, engine="columnar").triangles > 0

records = [(u, v, temporal_edge_meta(float(i), i % 3)) for i, (u, v, _) in enumerate(generated.edges)]
stream = StreamingSurvey(World(4), ClosureTimeSurvey)
stream.ingest(records)
stream.close()
service = SurveyService(World(4))
service.ingest(records)
assert service.query("closure").outcome == "exact"
service.close()
print("production", "repro.oracle" in sys.modules)

triangle_survey_push_pull(dodgr, engine="legacy")
print("legacy", "repro.oracle" in sys.modules)
"""


def test_production_never_loads_the_oracle():
    environ = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", PRODUCTION_THEN_LEGACY],
        env=environ,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["production", "False", "legacy", "True"]
