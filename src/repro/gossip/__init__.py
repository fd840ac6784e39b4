"""Epidemic building blocks: anti-entropy, rumors."""

from repro.gossip.antientropy import Entry, Version, VersionedStore
from repro.gossip.epidemic import RumorBuffer

__all__ = [
    "Entry",
    "RumorBuffer",
    "Version",
    "VersionedStore",
]
