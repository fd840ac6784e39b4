"""Push-pull anti-entropy over versioned key/value stores.

This is the reconciliation engine under Astrolabe's epidemic protocol:
each agent keeps a :class:`VersionedStore` per replicated zone table,
and a gossip exchange is *digest → delta → delta* — the initiator sends
a version digest, the responder returns entries the initiator is
missing plus its own digest, and the initiator pushes back what the
responder lacks.  Merging is by version with a deterministic tiebreak,
which makes replica state a join-semilattice: merges are commutative,
associative and idempotent (hypothesis-tested), so replicas converge —
the paper's "guaranteed eventual consistency".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Iterator, Optional, Tuple, TypeVar

KeyT = TypeVar("KeyT", bound=Hashable)
ValueT = TypeVar("ValueT")

#: Version: (timestamp, writer-tiebreak).  Timestamps come from the row
#: owner's clock; the writer id breaks exact ties deterministically so
#: every replica resolves a conflict the same way.
Version = Tuple[float, str]


@dataclass(frozen=True)
class Entry(Generic[ValueT]):
    """A versioned value as shipped between replicas."""

    version: Version
    value: ValueT


class VersionedStore(Generic[KeyT, ValueT]):
    """Last-writer-wins replicated map with digest/delta reconciliation.

    The version digest is maintained *incrementally*: every mutation
    updates a parallel ``key -> version`` map, so :meth:`digest` — paid
    once per store per gossip exchange, every round, at every agent —
    is a flat dict copy instead of a rebuild that touches every entry.
    """

    def __init__(self) -> None:
        self._entries: Dict[KeyT, Entry[ValueT]] = {}
        self._digest: Dict[KeyT, Version] = {}
        self._generation = 0

    @property
    def generation(self) -> int:
        """Monotone counter of accepted mutations.

        Batched gossip (``repro.scale``) snapshots this per replica
        pair: when neither side's generation moved since their last
        exchange, the round skips the digest comparison entirely — the
        replicas cannot have diverged in the meantime.
        """
        return self._generation

    # -- local access ------------------------------------------------------

    def put(self, key: KeyT, value: ValueT, version: Version) -> bool:
        """Install ``value`` if ``version`` beats the stored one."""
        current = self._entries.get(key)
        if current is not None and current.version >= version:
            return False
        self._entries[key] = Entry(version, value)
        self._digest[key] = version
        self._generation += 1
        return True

    def get(self, key: KeyT) -> Optional[ValueT]:
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    def entry(self, key: KeyT) -> Optional[Entry[ValueT]]:
        return self._entries.get(key)

    def version(self, key: KeyT) -> Optional[Version]:
        entry = self._entries.get(key)
        return entry.version if entry is not None else None

    def remove(self, key: KeyT) -> None:
        """Forget a key locally (e.g. a zone member that departed).

        Note: anti-entropy may resurrect it from a peer that still has
        it; true deletion requires the owner to stop refreshing the row
        and expiry to reap it (see Astrolabe's row timeouts).
        """
        if key in self._entries:
            self._generation += 1
        self._entries.pop(key, None)
        self._digest.pop(key, None)

    def keys(self) -> Iterator[KeyT]:
        return iter(self._entries)

    def items(self) -> Iterator[tuple[KeyT, ValueT]]:
        return ((key, entry.value) for key, entry in self._entries.items())

    def __contains__(self, key: KeyT) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # -- reconciliation -----------------------------------------------------

    def digest(self) -> Dict[KeyT, Version]:
        """Version summary sent to a gossip partner.

        A flat copy of the incrementally-maintained digest map (so the
        caller gets snapshot semantics for in-flight messages without
        the per-entry rebuild this used to cost).
        """
        return self._digest.copy()

    def digest_view(self) -> Dict[KeyT, Version]:
        """The live digest map — zero-copy, for local read-only use.

        Callers must not mutate it or hold it across store mutations;
        anything shipped in a message wants :meth:`digest` instead.
        """
        return self._digest

    def delta_for(self, remote_digest: Dict[KeyT, Version]) -> Dict[KeyT, Entry[ValueT]]:
        """Entries the remote replica is missing or has stale.

        Entry objects are shared, never copied — they are immutable, so
        the delta (and the replica that merges it) can alias them.

        The scan iterates the slim digest map (key → version tuple)
        rather than the entry map, touching an ``Entry`` only for the
        keys actually shipped.  Because entries (and hence version
        tuples) are *shared* between replicas that reconciled — see
        :meth:`merge` — a converged key's remote version is usually
        the identical object, so the common case per key is one dict
        probe plus a pointer comparison, no tuple ordering at all.
        """
        local = self._digest
        if remote_digest == local:
            return {}  # replicas already agree — the steady-state case
        delta: Dict[KeyT, Entry[ValueT]] = {}
        entries = self._entries
        get_remote = remote_digest.get
        for key, version in local.items():
            remote_version = get_remote(key)
            if remote_version is version:
                continue  # same shared tuple: reconciled earlier
            if remote_version is None or remote_version < version:
                delta[key] = entries[key]
        return delta

    def apply_delta(self, delta: Dict[KeyT, Entry[ValueT]]) -> list[KeyT]:
        """Merge a received delta; returns keys whose value changed."""
        return self.merge(delta)[0]

    def merge(
        self,
        delta: Dict[KeyT, Entry[ValueT]],
        min_timestamp: float = float("-inf"),
        max_timestamp: float = float("inf"),
        capacity: Optional[int] = None,
    ) -> tuple[list[KeyT], list[Optional[Entry[ValueT]]], int]:
        """Install, in one pass and by reference, every newer entry of ``delta``.

        Entries are immutable, so replicas alias them: memory stays
        linear in distinct rows rather than replicas × rows, which
        matters when simulating 10^5 agents.  Entries stamped outside
        ``[min_timestamp, max_timestamp]`` are refused, as are new keys
        once the store holds ``capacity``.  Returns the installed keys
        in delta order, the entries they replaced (None for new keys)
        and how many were refused for being stamped too late.
        """
        entries = self._entries
        digest = self._digest
        installed: list[KeyT] = []
        replaced: list[Optional[Entry[ValueT]]] = []
        future = 0
        for key, entry in delta.items():
            version = entry.version
            if version[0] < min_timestamp:
                continue
            if version[0] > max_timestamp:
                future += 1
                continue
            current = entries.get(key)
            if current is None:
                if capacity is not None and len(entries) >= capacity:
                    continue
            elif current.version >= version:
                continue
            entries[key] = entry
            digest[key] = version
            installed.append(key)
            replaced.append(current)
        self._generation += len(installed)
        return installed, replaced, future

    def merge_from(self, other: "VersionedStore[KeyT, ValueT]") -> list[KeyT]:
        """Full-state merge (used by tests and state transfer)."""
        return self.apply_delta(other._entries)

    def expire(self, cutoff: Version) -> list[KeyT]:
        """Drop entries with versions strictly older than ``cutoff``.

        Astrolabe reaps rows whose owner has stopped refreshing them;
        expiry is how crashed members eventually leave zone tables.
        """
        stale = [key for key, entry in self._entries.items() if entry.version < cutoff]
        for key in stale:
            del self._entries[key]
            del self._digest[key]
        if stale:
            self._generation += 1
        return stale

    def __repr__(self) -> str:
        return f"VersionedStore({len(self._entries)} entries)"


def reconcile(
    a: VersionedStore[KeyT, ValueT], b: VersionedStore[KeyT, ValueT]
) -> tuple[list[KeyT], list[KeyT]]:
    """Symmetric in-process anti-entropy between two replicas.

    Equivalent to one full digest → delta → delta exchange — ``b``
    ships what ``a`` lacks, then ``a`` ships what ``b`` still lacks —
    but without serializing anything: digests are read zero-copy
    (:meth:`VersionedStore.digest_view`) and entries are shared by
    reference.  Thanks to entry sharing, converged keys compare by
    pointer identity in ``delta_for``, so the steady-state cost per
    pair is one dict equality check.

    This is the primitive batched gossip rounds (``repro.scale``) use:
    one kernel event reconciles an entire zone level by calling this
    over the scheduled replica pairs, instead of one simulated message
    exchange per pair.

    Returns ``(changed_in_a, changed_in_b)``.
    """
    changed_a = a.apply_delta(b.delta_for(a.digest_view()))
    changed_b = b.apply_delta(a.delta_for(b.digest_view()))
    return changed_a, changed_b
