"""Subscriptions: subjects plus SQL-style metadata predicates (§7–§8).

A subscription names a *subject* (the coarse routing key that is
hashed into the Bloom filter / category masks) and optionally a
predicate over the item's metadata, written in the AQL expression
language — the paper's "more complex selection criteria based on the
meta-data associated with the news-items, in the form of an SQL
query".  The subject drives in-network filtering; the predicate is
evaluated only at the leaf, against the full item.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

from repro.core.errors import AggregationError, SubscriptionError
from repro.astrolabe.aql import compile_predicate


def subjects_key(subscriptions: Iterable["Subscription"]) -> tuple[str, ...]:
    """Canonical interest-set identity: sorted, de-duplicated subjects.

    Predicates narrow *which items* of a subject match at the leaf but
    never widen routing interest, so two subscription sets with equal
    subject keys occupy identical bits in every scheme's summary —
    the identity subgroup clustering and the churn tests key on.
    """
    return tuple(sorted({s.subject for s in subscriptions}))


class Subscription:
    """One expression of interest held by a subscriber."""

    __slots__ = ("subject", "predicate_source", "_predicate")

    def __init__(self, subject: str, predicate: Optional[str] = None):
        if not subject:
            raise SubscriptionError("subscription subject must be non-empty")
        self.subject = subject
        self.predicate_source = predicate
        if predicate is None:
            self._predicate: Optional[Callable[[Mapping], bool]] = None
        else:
            try:
                self._predicate = compile_predicate(predicate)
            except AggregationError as exc:
                raise SubscriptionError(
                    f"bad subscription predicate {predicate!r}: {exc}"
                ) from exc

    @property
    def is_wildcard(self) -> bool:
        """True for prefix subscriptions like ``reuters/sports/*``.

        Part of the richer subscription space the paper plans for the
        NewsML move (§7); requires a wildcard-aware scheme
        (:class:`~repro.pubsub.schemes.PrefixBloomScheme`) for
        in-network filtering — with the flat schemes the leaf match
        still works but zones cannot prune.
        """
        return self.subject.endswith("/*")

    def matches_subject(self, subject: str) -> bool:
        if self.is_wildcard:
            prefix = self.subject[:-2]
            return subject == prefix or subject.startswith(prefix + "/")
        return self.subject == subject

    def matches(self, subject: str, metadata: Mapping[str, object]) -> bool:
        """The authoritative leaf-level test (§6's "final test")."""
        return self.matches_subject(subject) and self.admits(metadata)

    def admits(
        self,
        metadata: Mapping[str, object],
        on_error: Optional[Callable[[], None]] = None,
    ) -> bool:
        """The predicate half of :meth:`matches` (True without one).

        A predicate that raises on an item does not match it, so a bad
        item cannot take the subscriber down; ``on_error`` is called
        for each such failure, so the caller can count it.
        """
        if self._predicate is None:
            return True
        try:
            return self._predicate(metadata)
        except Exception:
            if on_error is not None:
                on_error()
            return False

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subscription)
            and self.subject == other.subject
            and self.predicate_source == other.predicate_source
        )

    def __hash__(self) -> int:
        return hash((self.subject, self.predicate_source))

    def __repr__(self) -> str:
        if self.predicate_source is None:
            return f"Subscription({self.subject!r})"
        return f"Subscription({self.subject!r}, {self.predicate_source!r})"
