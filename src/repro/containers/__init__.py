"""YGM-style distributed containers.

Of the container family the paper builds on the fire-and-forget RPC layer
(Section 4.1.4), the survey needs one: the distributed counting set that
keeps the histograms of every non-trivial survey.  The DODGr keeps its own
columns (:mod:`repro.graph.dodgr`).
"""

from .counting_set import DistributedCountingSet

__all__ = ["DistributedCountingSet"]
