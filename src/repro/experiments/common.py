"""Shared machinery for the claim-reproduction experiments E1–E12."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError, FlowControlError
from repro.core.identifiers import ItemId, ZonePath
from repro.metrics.report import format_table
from repro.news.deployment import NewsWireSystem, build_newswire
from repro.news.item import NewsItem
from repro.obs.sinks import TraceSink
from repro.pubsub.subscription import Subscription
from repro.workloads.populations import InterestModel
from repro.workloads.traces import Publication


# ----------------------------------------------------------------------
# Keyword validation shared by every run_eN surface
# ----------------------------------------------------------------------

def validate_positive(name: str, value) -> None:
    """``value`` must be a positive number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive number, got {value!r}")


def validate_non_negative(name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise ConfigurationError(
            f"{name} must be a non-negative number, got {value!r}"
        )


def validate_fraction(name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def validate_sizes(name: str, values, entry=validate_positive) -> None:
    """A non-empty sweep axis: positive sizes, or whatever ``entry``
    (another ``validate_*``) accepts of each value."""
    try:
        items = list(values)
    except TypeError:
        raise ConfigurationError(f"{name} must be a sequence, got {values!r}")
    if not items:
        raise ConfigurationError(f"{name} must not be empty")
    for value in items:
        entry(f"{name} entry", value)


def validate_seed(value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"seed must be an int, got {value!r}")


# ----------------------------------------------------------------------
# Standard system construction
# ----------------------------------------------------------------------

#: The ``build_newswire`` parameters ``SystemSpec.network`` may carry.
NETWORK_KEYS = ("loss_rate", "bandwidth", "ingress_bandwidth")


@dataclass(frozen=True)
class SystemSpec:
    """Declarative description of the standard experiment deployment —
    the one every NewsWire runner (E2–E4, E6–E11) builds through
    :func:`build_system`, so the backend is chosen and the system is
    built and settled in exactly one place.

    ``seed`` drives the simulation RNG streams; ``interest_seed``
    (default: same as ``seed``) drives the subscription population, so
    sweeps that vary the deployment seed per size while keeping the
    interest distribution fixed (E2's ``seed + num_nodes`` pattern)
    stay byte-identical to their historical form.
    """

    num_nodes: int
    #: Vocabulary of the Zipf :class:`InterestModel` that seeds
    #: subscriptions; unused (may stay empty) with ``subscriptions_for``.
    subjects: Sequence[str] = ()
    subscriptions_per_node: int = 3
    seed: int = 0
    interest_seed: Optional[int] = None
    publisher_names: Sequence[str] = ("newswire",)
    publisher_rate: float = 50.0
    config: Optional[NewsWireConfig] = None
    sinks: Optional[Sequence[TraceSink]] = field(default=None, compare=False)
    #: State representation: "object" (default) is the faithful
    #: per-agent deployment; "columnar" is the struct-of-arrays
    #: mega-scale backend (docs/SCALE.md), canonical-trace-equivalent
    #: at fixed seed and simulator-only.
    backend: str = "object"
    #: An explicit ``index -> subscriptions`` in place of an interest
    #: model (flash crowds, hand-built populations, a model shared with
    #: baseline systems); ``build_system`` then returns ``None`` for
    #: the interests.
    subscriptions_for: Optional[Callable[[int], Sequence[Subscription]]] = field(
        default=None, compare=False
    )
    #: Gossip rounds (``config.gossip.interval`` each) the system runs
    #: before it is handed over.
    settle_rounds: float = 0.0
    #: Simulated-network shaping forwarded to ``build_newswire``; the
    #: columnar backend models none of it and refuses a non-empty one.
    network: Mapping[str, float] = field(default_factory=dict)

    def validate(self) -> "SystemSpec":
        validate_positive("num_nodes", self.num_nodes)
        if self.subscriptions_for is None and not list(self.subjects):
            raise ConfigurationError(
                "subjects must not be empty unless subscriptions_for is given"
            )
        validate_positive("subscriptions_per_node", self.subscriptions_per_node)
        validate_positive("publisher_rate", self.publisher_rate)
        validate_seed(self.seed)
        if self.interest_seed is not None:
            validate_seed(self.interest_seed)
        if self.backend not in ("object", "columnar"):
            raise ConfigurationError(
                f"backend must be 'object' or 'columnar', got {self.backend!r}"
            )
        validate_non_negative("settle_rounds", self.settle_rounds)
        unknown = sorted(set(self.network) - set(NETWORK_KEYS))
        if unknown:
            raise ConfigurationError(
                f"network takes {NETWORK_KEYS}, got {unknown}"
            )
        if self.network and self.backend == "columnar":
            raise ConfigurationError(
                "the columnar backend models no network shaping; "
                f"drop {sorted(self.network)} or use backend='object'"
            )
        return self


def build_system(spec: SystemSpec) -> tuple:
    """Stand up and settle the NewsWire deployment a ``SystemSpec``
    describes — the only place under ``repro.experiments`` that calls
    ``build_newswire`` or ``build_columnar``.

    Returns the running system and the interest model used to seed
    subscriptions (experiments need it for expected-delivery counts;
    ``None`` when the spec brought its own ``subscriptions_for``).
    With ``backend="columnar"`` the system is a
    :class:`repro.scale.backend.ColumnarNewsWire` exposing the same
    driving surface (``runtime`` / ``trace`` / ``publisher`` /
    ``run_for``); otherwise a :class:`NewsWireSystem`.
    """
    spec.validate()
    interests = None
    subscriptions_for = spec.subscriptions_for
    if subscriptions_for is None:
        interests = InterestModel(
            subjects=spec.subjects,
            subscriptions_per_node=spec.subscriptions_per_node,
            seed=spec.interest_seed if spec.interest_seed is not None else spec.seed,
        )
        interests.prepare(spec.num_nodes)
        subscriptions_for = interests.subscriptions_for
    config = spec.config if spec.config is not None else NewsWireConfig()
    population = dict(
        publisher_names=tuple(spec.publisher_names),
        publisher_rate=spec.publisher_rate,
        subscriptions_for=subscriptions_for,
        seed=spec.seed,
        sinks=spec.sinks,
    )
    if spec.backend == "columnar":
        # Deferred: repro.scale pulls in the whole columnar stack,
        # which object-backend callers never need.
        from repro.scale.backend import build_columnar

        system = build_columnar(spec.num_nodes, config, **population)
    else:
        system = build_newswire(
            spec.num_nodes, config, **population, **spec.network
        )
    system.run_for(spec.settle_rounds * config.gossip.interval)
    return system, interests


#: Average English word length + space, for body size synthesis.
WORD = "lorem "


def body_text(words: int) -> str:
    return (WORD * words)[: max(0, words * len(WORD) - 1)]


def item_from_publication(
    publication: Publication, publisher: str, serial: int
) -> NewsItem:
    return NewsItem(
        item_id=ItemId(publisher, serial),
        subject=publication.subject,
        headline=publication.headline,
        body=body_text(publication.body_words),
        publisher=publisher,
        categories=publication.categories,
        urgency=publication.urgency,
        published_at=publication.time,
    )


def story_trace(
    start: float,
    items: int,
    subjects: Sequence[str],
    *,
    spacing: float = 1.0,
    body_words: int = 120,
    headline: str = "story",
    urgency: Callable[[int], int] = lambda index: 5,
) -> list[Publication]:
    """``items`` stories ``spacing`` seconds apart from ``start``,
    cycling through ``subjects``; ``urgency`` maps a story's index to
    its urgency (default: everything routine)."""
    return [
        Publication(
            time=start + index * spacing,
            subject=subjects[index % len(subjects)],
            headline=f"{headline} {index}",
            body_words=body_words,
            urgency=urgency(index),
        )
        for index in range(items)
    ]


def publish_at_origin(sim, origin, trace: Sequence[Publication], publisher: str) -> None:
    """Schedule ``trace`` on a baseline origin (pull / push / CDN),
    serials in trace order from 1 — what :func:`drive_trace` does for a
    NewsWire publisher."""
    for serial, publication in enumerate(trace, start=1):
        sim.call_at(
            publication.time,
            origin.publish,
            item_from_publication(publication, publisher, serial),
        )


@dataclass
class TraceDriveStats:
    published: int = 0
    flow_controlled: int = 0


def drive_trace(
    system: NewsWireSystem,
    publisher_name: str,
    trace: Sequence[Publication],
    zone: Optional[ZonePath] = None,
) -> TraceDriveStats:
    """Schedule every publication of ``trace`` on the simulation.

    Items a publisher cannot inject because of flow control are counted
    and skipped (they would be retried by a real agent; experiments
    size their rates to avoid this unless testing flow control).
    """
    stats = TraceDriveStats()
    publisher = system.publisher(publisher_name)

    def publish_one(publication: Publication) -> None:
        try:
            publisher.publish_news(
                subject=publication.subject,
                headline=publication.headline,
                body=body_text(publication.body_words),
                categories=publication.categories,
                urgency=publication.urgency,
                zone=zone,
            )
        except FlowControlError:
            stats.flow_controlled += 1
        else:
            stats.published += 1

    for publication in trace:
        system.runtime.call_at(publication.time, publish_one, publication)
    return stats


def expected_deliveries(
    interests: InterestModel,
    num_nodes: int,
    trace: Sequence[Publication],
    publisher_name: str,
) -> Dict[str, int]:
    """item-id string -> expected receiver count for a driven trace.

    Assumes serials are assigned in trace order starting at 1 (true
    when flow control never fires) and that *subject* matching defines
    expectation; predicate-based narrowing is handled by the specific
    experiments that use predicates.
    """
    by_subject: Dict[str, int] = {}
    expected: Dict[str, int] = {}
    for serial, publication in enumerate(trace, start=1):
        count = by_subject.get(publication.subject)
        if count is None:
            count = interests.expected_receivers(num_nodes, publication.subject)
            by_subject[publication.subject] = count
        expected[str(ItemId(publisher_name, serial))] = count
    return expected


def expected_delivery_nodes(
    interests: InterestModel,
    system: NewsWireSystem,
    trace: Sequence[Publication],
    publisher_name: str,
) -> Dict[str, set[str]]:
    """item-id string -> the *node names* expected to deliver it.

    The set-valued sibling of :func:`expected_deliveries`, consumed by
    :meth:`repro.obs.causal.CausalSink.expect` so loss attribution can
    name the exact subscribers an item failed to reach.  Relies on the
    build invariant that ``deployment.agents[i]`` received
    ``interests.subscriptions_for(i)``.
    """
    agents = system.deployment.agents
    by_subject: Dict[str, set[str]] = {}
    expected: Dict[str, set[str]] = {}
    for serial, publication in enumerate(trace, start=1):
        nodes = by_subject.get(publication.subject)
        if nodes is None:
            nodes = {
                str(agents[index].node_id)
                for index in range(len(agents))
                if any(
                    subscription.matches_subject(publication.subject)
                    for subscription in interests.subscriptions_for(index)
                )
            }
            by_subject[publication.subject] = nodes
        expected[str(ItemId(publisher_name, serial))] = nodes
    return expected


class TableResult:
    """Base of the single-table ``*Result`` dataclasses: ``columns``
    pairs each header with the row attribute that fills it, or with a
    ``row -> cell`` callable, so a column is declared once."""

    title: str = ""
    columns: tuple = ()

    def report(self) -> str:
        return format_table(
            [header for header, _ in self.columns],
            [
                [cell(row) if callable(cell) else getattr(row, cell)
                 for _, cell in self.columns]
                for row in self.rows
            ],
            title=self.title,
        )
