"""Mega-scale simulation backend: columnar state + batched gossip.

The object backend simulates every Astrolabe agent as a Python object
with its own replicated tables, timers and message queues — faithful,
but at 10^5 nodes the interpreter drowns in per-agent bookkeeping long
before the protocol itself becomes the bottleneck.  This package holds
the columnar alternative (docs/SCALE.md):

* :mod:`repro.scale.columns` — struct-of-arrays membership/interest
  store keyed by dense node index (heartbeat, zone id, interest
  bitmask, representative flag);
* :mod:`repro.scale.batched` — batched gossip rounds: ONE kernel event
  processes an entire population round (heartbeat refresh, expiry,
  staged aggregate propagation, root-replica anti-entropy);
* :mod:`repro.scale.backend` — the :class:`ColumnarNewsWire` system
  facade experiments drive through ``SystemSpec(backend="columnar")``.

The contract with the object backend is *canonical-trace equivalence*:
a fixed-seed run produces byte-identical publish/deliver sets, row
counts and invariant verdicts (``tests/scale/test_equivalence.py``);
per-event timings are statistically, not bitwise, equivalent.
"""

from repro.scale.backend import (
    ColumnarNewsWire,
    build_columnar,
    canonical_digest,
    canonical_trace,
)
from repro.scale.batched import BatchedGossip
from repro.scale.columns import MembershipColumns

__all__ = [
    "BatchedGossip",
    "ColumnarNewsWire",
    "MembershipColumns",
    "build_columnar",
    "canonical_digest",
    "canonical_trace",
]
