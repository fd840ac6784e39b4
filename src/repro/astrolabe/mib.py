"""MIB rows — the versioned attribute records Astrolabe gossips.

Each zone is "a collection of hierarchical database tables" (§3); a
table holds one :class:`Row` per child zone.  A leaf row is written by
its owning agent ("a row is assigned to a particular process or user,
which is allowed to update this row with attributes & values");
internal rows are computed by aggregation functions.

Rows are immutable values.  Their version is the anti-entropy ordering
key: ``(timestamp, writer)`` — last writer wins, with the writer id as
a deterministic tiebreak so all replicas resolve conflicts identically.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional

from repro.core.errors import ZoneError
from repro.gossip.antientropy import Version

#: Attribute values must be plain immutable data so rows can be shared
#: between replicas without aliasing bugs.
AttributeValue = Any  # None | bool | int | float | str | bytes | tuple

_ALLOWED_TYPES = (type(None), bool, int, float, str, bytes, tuple)


def check_attribute_value(name: str, value: AttributeValue) -> None:
    """Reject mutable or exotic values before they enter a row."""
    if not isinstance(value, _ALLOWED_TYPES):
        raise ZoneError(
            f"attribute {name!r} has unsupported type {type(value).__name__}; "
            "allowed: None, bool, int, float, str, bytes, tuple"
        )
    if isinstance(value, tuple):
        for element in value:
            check_attribute_value(name, element)


class Row(Mapping[str, AttributeValue]):
    """An immutable attribute map with a version and a writer identity.

    ``mapping`` is the attribute dict itself, read-only by contract:
    hot paths (AQL over every row, every round) read it without a copy.
    """

    __slots__ = ("mapping", "version", "writer", "_wire")

    def __init__(
        self,
        attributes: Mapping[str, AttributeValue],
        version: Version,
        writer: str,
    ):
        for name, value in attributes.items():
            check_attribute_value(name, value)
        self.mapping: Dict[str, AttributeValue] = dict(attributes)
        self.version = version
        self.writer = writer
        self._wire: Optional[int] = None

    # -- Mapping interface -------------------------------------------------

    def __getitem__(self, name: str) -> AttributeValue:
        return self.mapping[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.mapping)

    def __len__(self) -> int:
        return len(self.mapping)

    def get(self, name: str, default: AttributeValue = None) -> AttributeValue:
        return self.mapping.get(name, default)

    # -- derivation ----------------------------------------------------------

    def updated(self, changes: Mapping[str, AttributeValue], version: Version) -> "Row":
        """A new row with ``changes`` applied and a fresh version."""
        merged = dict(self.mapping)
        merged.update(changes)
        return Row(merged, version, self.writer)

    def restamped(self, version: Version) -> "Row":
        """The same attributes under a new version.

        Rows are immutable, so the already validated attribute map and
        its cached wire size are shared instead of re-checked, copied
        and re-sized — the per-round refresh of an unchanged row.
        """
        row = Row.__new__(Row)
        row.mapping = self.mapping
        row.version = version
        row.writer = self.writer
        row._wire = self.wire_size()
        return row

    @property
    def timestamp(self) -> float:
        return self.version[0]

    def attributes(self) -> Dict[str, AttributeValue]:
        """A defensive copy of the attribute map."""
        return dict(self.mapping)

    def wire_size(self) -> int:
        """Approximate serialized size in bytes (cached; rows are immutable)."""
        if self._wire is None:
            size = 48  # version + writer + framing
            for name, value in self.mapping.items():
                size += 8 + len(name) + _value_size(value)
            self._wire = size
        return self._wire

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Row)
            and self.mapping == other.mapping
            and self.version == other.version
            and self.writer == other.writer
        )

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.mapping.items(), key=lambda kv: kv[0])),
                     self.version, self.writer))

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.mapping.items()))
        return f"Row({{{attrs}}}, v={self.version})"


def _value_size(value: AttributeValue) -> int:
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(4, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, tuple):
        return 4 + sum(_value_size(element) for element in value)
    return 16


def make_version(timestamp: float, writer: str) -> Version:
    return (timestamp, writer)
