"""Pure happens-before detection — the paper's DRD baseline.

Every synchronization operation (including lock release→acquire) creates
a happens-before edge; an access pair is a race exactly when neither
access happens-before the other.  No lockset filtering, no spin-loop
knowledge, no coarse condvar heuristics: precise on what it sees, but

* it *misses* races that the observed interleaving happened to order
  (e.g. through coincidental lock acquisition order) — the paper's DRD
  column misses 20 of the suite's races where the hybrid misses 8;
* it drowns in false positives on ad-hoc synchronization it cannot see
  (vips 858.6, facesim/streamcluster/raytrace capped at 1000 contexts).
"""

from __future__ import annotations

from repro.detectors.base import VectorClockAlgorithm


class PureHappensBeforeAlgorithm(VectorClockAlgorithm):
    """DRD stand-in: hb-only, locks included in hb.

    Happens-before is the only criterion; nothing excuses a pair.
    """

    locks_as_hb = True
    name = "pure-hb"
