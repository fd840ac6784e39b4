"""Identifiers for zones, nodes and news items.

Astrolabe organises agents into a tree of *zones* (the paper compares
them to DNS domains).  A :class:`ZonePath` names one zone as the
sequence of labels from the root; the root itself is the empty path,
written ``/``.  A *leaf* zone corresponds to a single agent (machine or
user), so a node identifier is simply the leaf's zone path.

News items are identified by ``(publisher, serial)`` pairs, which the
paper relies on for duplicate suppression when redundant
representatives forward the same item (section 9).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from repro.core.errors import ZoneError

_LABEL_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@total_ordering
class ZonePath:
    """Immutable path of zone labels from the root.

    ``ZonePath()`` is the root zone; ``ZonePath.parse("/usa/ithaca")``
    is a depth-2 zone.  Paths are hashable, ordered lexicographically,
    and support ``child``/``parent``/``ancestors`` navigation.
    """

    __slots__ = ("_labels", "_hash", "_str")

    def __init__(self, labels: tuple[str, ...] = ()):
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ZoneError(f"invalid zone label: {label!r}")
        self._labels = tuple(labels)
        self._hash = hash(self._labels)
        self._str: str | None = None

    @classmethod
    def parse(cls, text: str) -> "ZonePath":
        """Parse ``/a/b/c`` (or ``/`` for the root) into a path."""
        text = text.strip()
        if text in ("", "/"):
            return cls()
        if not text.startswith("/"):
            raise ZoneError(f"zone path must start with '/': {text!r}")
        path = cls(tuple(part for part in text.split("/") if part))
        if "//" not in text and not text.endswith("/"):
            # Already canonical: ``str(path)`` shares the caller's string.
            path._str = text
        return path

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def depth(self) -> int:
        """Distance from the root; the root has depth 0."""
        return len(self._labels)

    @property
    def is_root(self) -> bool:
        return not self._labels

    @property
    def name(self) -> str:
        """The last label, or ``/`` for the root."""
        return self._labels[-1] if self._labels else "/"

    def child(self, label: str) -> "ZonePath":
        return ZonePath(self._labels + (label,))

    def parent(self) -> "ZonePath":
        if self.is_root:
            raise ZoneError("the root zone has no parent")
        return ZonePath(self._labels[:-1])

    def ancestors(self, include_self: bool = False) -> Iterator["ZonePath"]:
        """Yield every ancestor from the root downward.

        The root is always yielded first; ``include_self`` adds the path
        itself as the final element.
        """
        upper = len(self._labels) + 1 if include_self else len(self._labels)
        for i in range(upper):
            yield ZonePath(self._labels[:i])

    def is_ancestor_of(self, other: "ZonePath") -> bool:
        """True when this zone strictly contains ``other``."""
        return (
            len(self._labels) < len(other._labels)
            and other._labels[: len(self._labels)] == self._labels
        )

    def contains(self, other: "ZonePath") -> bool:
        """True when ``other`` lies in this zone's subtree (or is it)."""
        return self == other or self.is_ancestor_of(other)

    def relative_to(self, ancestor: "ZonePath") -> tuple[str, ...]:
        """Labels of this path below ``ancestor``."""
        if not ancestor.contains(self):
            raise ZoneError(f"{ancestor} does not contain {self}")
        return self._labels[len(ancestor._labels):]

    def __iter__(self) -> Iterator[str]:
        return iter(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZonePath) and self._labels == other._labels

    def __lt__(self, other: "ZonePath") -> bool:
        return self._labels < other._labels

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # The cached hash is process-local (string hashing is salted per
        # interpreter), so unpickling must rebuild through the
        # constructor — carrying the slot values verbatim would poison
        # every dict lookup in the receiving process.  The cached string
        # is dropped with it and rebuilt on first use.
        return (ZonePath, (self._labels,))

    def __str__(self) -> str:
        # Built once per path, so every trace field naming this zone
        # or node shares one string.
        text = self._str
        if text is None:
            text = self._str = "/" + "/".join(self._labels)
        return text

    def __repr__(self) -> str:
        return f"ZonePath({str(self)!r})"


ROOT = ZonePath()


# A node is identified by its leaf zone path.  The alias documents intent
# in signatures without introducing a second type to convert between.
NodeId = ZonePath


@dataclass(frozen=True, order=True)
class ItemId:
    """Unique identifier of a news item: publisher name + serial number.

    The publisher assigns serials monotonically; forwarding components
    use the pair to drop duplicates introduced by redundant
    representatives (paper, section 9).  Revisions of the same story
    share a ``story`` id and bump ``revision``.
    """

    publisher: str
    serial: int
    revision: int = 0

    def __post_init__(self) -> None:
        # The caches live outside the dataclass fields, so equality,
        # ordering, ``repr`` and ``asdict`` are unchanged.  The hash is
        # the value the dataclass itself would compute (set and
        # frozenset iteration orders stay the same); the string is
        # shared by every trace field naming this item, and the story
        # key by every cache holding it.
        object.__setattr__(
            self, "_hash", hash((self.publisher, self.serial, self.revision))
        )
        object.__setattr__(
            self, "_str", f"{self.publisher}:{self.serial}.r{self.revision}"
        )
        object.__setattr__(self, "_story_key", (self.publisher, self.serial))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Like ZonePath: the cached hash is process-local, so unpickling
        # rebuilds the caches through the constructor.
        return (ItemId, (self.publisher, self.serial, self.revision))

    def with_revision(self, revision: int) -> "ItemId":
        return ItemId(self.publisher, self.serial, revision)

    @property
    def story_key(self) -> tuple[str, int]:
        """Identity of the story across revisions."""
        return self._story_key

    def __str__(self) -> str:
        return self._str
