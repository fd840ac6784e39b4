"""Seeded random scenarios: topology × workload × failure schedule.

A :class:`FuzzScenario` is a complete, JSON-serializable description
of one randomized run — population size, subject universe, interest
parameters, publish workload, failure schedule and the queue/network
knobs.  :func:`sample_scenario` draws one from a seed;
:func:`run_scenario` executes it under the full
:class:`~repro.testkit.invariants.InvariantSuite` and returns the
verdicts.  The JSON form is what shrunk repro files embed, so any
failing draw replays bit-for-bit from its artifact.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.core.config import (
    QUEUE_STRATEGIES,
    BloomConfig,
    MulticastConfig,
    NewsWireConfig,
)
from repro.core.errors import ConfigurationError
from repro.experiments.common import drive_trace, expected_delivery_nodes
from repro.news.deployment import NEWSWIRE_TRACE_KINDS, build_newswire
from repro.pubsub.schemes import scheme_by_name
from repro.sim.failures import FailureEvent, FailureInjector, FailureSchedule
from repro.testkit.invariants import InvariantChecker, InvariantSuite, Violation
from repro.workloads.populations import InterestModel, zipf_weights
from repro.workloads.scenarios import sample_subjects
from repro.workloads.traces import Publication

__all__ = [
    "SCENARIO_PROFILES",
    "TESTKIT_TRACE_KINDS",
    "FuzzScenario",
    "ScenarioResult",
    "run_scenario",
    "sample_scenario",
]

#: The news-layer kinds plus node lifecycle milestones — the
#: EventualDelivery checker exempts ever-crashed nodes, so fuzz runs
#: must see crash/recover events (default deployments filter them out).
TESTKIT_TRACE_KINDS = NEWSWIRE_TRACE_KINDS | {"node-crash", "node-recover"}

#: Floor on fuzzed population size — below this the zone tree
#: degenerates and scenarios stop exercising forwarding at all.
MIN_NODES = 8

#: Sampling profiles: ``default`` is the classic crash/partition/loss
#: mix; ``routing`` adds interest churn storms plus summary corruption
#: under a stabilizing scheme, targeting ``routing-stabilizes``.
SCENARIO_PROFILES = ("default", "routing")


@dataclass(frozen=True)
class FuzzScenario:
    """One complete randomized run, serializable for replay."""

    seed: int
    num_nodes: int
    subjects: tuple[str, ...]
    subscriptions_per_node: int
    zipf_exponent: float
    publications: tuple[Publication, ...]
    schedule: FailureSchedule = field(default_factory=FailureSchedule)
    publisher: str = "newswire"
    queue_strategy: str = "weighted_rr"
    max_send_rate: float = 500.0
    loss_rate: float = 0.0
    drain_time: float = 45.0
    #: Small branching factors force multi-level zone trees even at
    #: fuzz-sized populations, so forwarding recursion is exercised.
    branching_factor: int = 8
    #: 2 turns on redundant-representative forwarding (§9 duplicates).
    send_to_representatives: int = 1
    #: Forwarding scheme (one of :data:`repro.pubsub.schemes.SCHEME_NAMES`).
    scheme: str = "bloom"

    def validate(self) -> "FuzzScenario":
        scheme_by_name(self.scheme, BloomConfig())  # refuses an unknown name
        if self.num_nodes < MIN_NODES:
            raise ConfigurationError(
                f"num_nodes must be >= {MIN_NODES}, got {self.num_nodes}"
            )
        if not 2 <= self.branching_factor <= 1024:
            raise ConfigurationError("branching_factor must be in [2, 1024]")
        if self.send_to_representatives not in (1, 2):
            raise ConfigurationError("send_to_representatives must be 1 or 2")
        if not self.subjects:
            raise ConfigurationError("subjects must not be empty")
        if not self.publications:
            raise ConfigurationError("at least one publication is required")
        if self.queue_strategy not in QUEUE_STRATEGIES:
            raise ConfigurationError(
                f"unknown queue strategy {self.queue_strategy!r}"
            )
        if self.drain_time <= 0:
            raise ConfigurationError("drain_time must be positive")
        self.schedule.validate_for(self.num_nodes)
        return self

    @property
    def size(self) -> int:
        """Shrink metric: nodes + publications + failure events."""
        return self.num_nodes + len(self.publications) + len(self.schedule)

    @property
    def end_time(self) -> float:
        """When the run stops: last activity plus the drain window."""
        last_publish = max(p.time for p in self.publications)
        return max(last_publish, self.schedule.end_time) + self.drain_time

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "subjects": list(self.subjects),
            "subscriptions_per_node": self.subscriptions_per_node,
            "zipf_exponent": self.zipf_exponent,
            "publications": [
                {
                    "time": p.time,
                    "subject": p.subject,
                    "headline": p.headline,
                    "body_words": p.body_words,
                    "urgency": p.urgency,
                }
                for p in self.publications
            ],
            "schedule": self.schedule.as_dict(),
            "publisher": self.publisher,
            "queue_strategy": self.queue_strategy,
            "max_send_rate": self.max_send_rate,
            "loss_rate": self.loss_rate,
            "drain_time": self.drain_time,
            "branching_factor": self.branching_factor,
            "send_to_representatives": self.send_to_representatives,
            "scheme": self.scheme,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "FuzzScenario":
        return cls(
            seed=int(raw["seed"]),
            num_nodes=int(raw["num_nodes"]),
            subjects=tuple(str(s) for s in raw["subjects"]),
            subscriptions_per_node=int(raw["subscriptions_per_node"]),
            zipf_exponent=float(raw["zipf_exponent"]),
            publications=tuple(
                Publication(
                    time=float(p["time"]),
                    subject=str(p["subject"]),
                    headline=str(p.get("headline", "")),
                    body_words=int(p.get("body_words", 200)),
                    urgency=int(p.get("urgency", 5)),
                )
                for p in raw["publications"]
            ),
            schedule=FailureSchedule.from_dict(raw.get("schedule", {})),
            publisher=str(raw.get("publisher", "newswire")),
            queue_strategy=str(raw.get("queue_strategy", "weighted_rr")),
            max_send_rate=float(raw.get("max_send_rate", 500.0)),
            loss_rate=float(raw.get("loss_rate", 0.0)),
            drain_time=float(raw.get("drain_time", 45.0)),
            branching_factor=int(raw.get("branching_factor", 8)),
            send_to_representatives=int(raw.get("send_to_representatives", 1)),
            scheme=str(raw.get("scheme", "bloom")),
        ).validate()

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FuzzScenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def read(cls, path: Union[str, Path]) -> "FuzzScenario":
        """Load from a scenario file or a repro container file."""
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if "scenario" in raw:  # shrinker repro container
            raw = raw["scenario"]
        return cls.from_dict(raw)


def sample_scenario(
    seed: int, quick: bool = False, profile: str = "default"
) -> FuzzScenario:
    """Draw one scenario from ``seed`` — same seed, same scenario.

    ``quick`` bounds the population and workload so a 25–50 seed sweep
    fits a CI smoke budget; the full mode samples wider.  The
    ``routing`` profile layers a churn storm and summary corruption on
    top of the base draw, under a stabilizing scheme (new draws happen
    strictly after the base ones, so a seed's default-profile scenario
    is unchanged by the profile machinery).
    """
    if profile not in SCENARIO_PROFILES:
        raise ConfigurationError(
            f"unknown profile {profile!r}; choose from {SCENARIO_PROFILES}"
        )
    rng = random.Random(f"newswire-fuzz-{seed}")
    num_nodes = rng.randint(12, 32) if quick else rng.randint(16, 64)
    subjects = tuple(sample_subjects(rng))
    subscriptions_per_node = rng.randint(1, 4)
    zipf_exponent = round(rng.uniform(0.6, 1.2), 3)

    # Publications start after a settle window (representatives and
    # subscription blooms need a few gossip rounds to propagate).
    settle = rng.choice((8.0, 10.0, 12.0))
    weights = zipf_weights(len(subjects), zipf_exponent)
    count = rng.randint(2, 5) if quick else rng.randint(3, 8)
    time = settle
    publications: List[Publication] = []
    for index in range(count):
        time = round(time + rng.uniform(0.4, 2.5), 3)
        publications.append(
            Publication(
                time=time,
                subject=rng.choices(list(subjects), weights=weights, k=1)[0],
                headline=f"story {index}",
                body_words=rng.randint(60, 400),
                urgency=rng.randint(1, 8),
            )
        )
    window_end = time

    # Failure schedule: node 0 is the publisher and stays in the
    # majority side of every event, so the workload itself always runs.
    events: List[FailureEvent] = []
    for _ in range(rng.randint(0, 2 if quick else 3)):
        kind = rng.choices(
            ("crash", "partition", "loss-burst"), weights=(0.4, 0.35, 0.25), k=1
        )[0]
        at = round(rng.uniform(settle * 0.5, window_end + 4.0), 3)
        if kind == "crash":
            victim = rng.randrange(1, num_nodes)
            down_forever = rng.random() < 0.25
            events.append(
                FailureEvent(
                    "crash",
                    at,
                    duration=0.0 if down_forever else round(rng.uniform(6.0, 18.0), 3),
                    nodes=(victim,),
                )
            )
        elif kind == "partition":
            lo = rng.randrange(1, num_nodes)
            hi = rng.randint(lo + 1, num_nodes)
            events.append(
                FailureEvent(
                    "partition",
                    at,
                    duration=round(rng.uniform(6.0, 20.0), 3),
                    groups=(tuple(range(lo, hi)),),
                )
            )
        else:
            events.append(
                FailureEvent(
                    "loss-burst",
                    at,
                    duration=round(rng.uniform(4.0, 15.0), 3),
                    rate=round(rng.uniform(0.05, 0.3), 3),
                )
            )
    queue_strategy = rng.choice(QUEUE_STRATEGIES)
    max_send_rate = rng.choice((100.0, 250.0, 500.0))
    loss_rate = rng.choice((0.0, 0.0, 0.01, 0.03))
    branching_factor = rng.choice((4, 8, 64))
    send_to_representatives = rng.choice((1, 1, 2))

    # Profile extensions draw *after* every base field so a seed's
    # default-profile scenario is bit-identical across profiles.
    scheme = "bloom"
    if profile == "routing":
        scheme = rng.choice(("stabilizing-bloom", "stabilizing-subgroup"))
        storm_start = round(rng.uniform(settle * 0.5, settle), 3)
        storm_duration = round(rng.uniform(6.0, 14.0), 3)
        events.append(
            FailureEvent(
                "churn-storm",
                storm_start,
                duration=storm_duration,
                rate=round(rng.uniform(0.5, 2.0), 3),
                subjects=subjects,
            )
        )
        victims = tuple(
            sorted(
                rng.sample(
                    range(num_nodes), rng.randint(1, max(2, num_nodes // 4))
                )
            )
        )
        corrupt_at = round(storm_start + rng.uniform(0.0, storm_duration), 3)
        events.append(
            FailureEvent("summary-corruption", corrupt_at, nodes=victims)
        )
    schedule = FailureSchedule(tuple(sorted(events, key=lambda e: (e.time, e.kind))))

    return FuzzScenario(
        seed=seed,
        num_nodes=num_nodes,
        subjects=subjects,
        subscriptions_per_node=subscriptions_per_node,
        zipf_exponent=zipf_exponent,
        publications=tuple(publications),
        schedule=schedule,
        queue_strategy=queue_strategy,
        max_send_rate=max_send_rate,
        loss_rate=loss_rate,
        drain_time=45.0 if quick else 60.0,
        branching_factor=branching_factor,
        send_to_representatives=send_to_representatives,
        scheme=scheme,
    ).validate()


@dataclass
class ScenarioResult:
    """What one scenario execution produced."""

    scenario: FuzzScenario
    violations: List[Violation]
    suite: InvariantSuite
    delivered: int
    expected: int
    flow_controlled: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_line(self) -> str:
        verdict = "ok" if self.ok else f"VIOLATIONS={len(self.violations)}"
        return (
            f"seed={self.scenario.seed} nodes={self.scenario.num_nodes} "
            f"pubs={len(self.scenario.publications)} "
            f"failures={len(self.scenario.schedule)} "
            f"delivered={self.delivered}/{self.expected} {verdict}"
        )


def run_scenario(
    scenario: FuzzScenario,
    checkers: Optional[List[InvariantChecker]] = None,
) -> ScenarioResult:
    """Execute ``scenario`` under the invariant suite.

    Builds the system with the suite attached as a trace sink, arms
    the failure schedule, drives the publish workload, registers the
    expected-delivery sets, then finalizes every checker against the
    still-live system.
    """
    scenario.validate()
    suite = InvariantSuite(checkers)
    interests = InterestModel(
        subjects=scenario.subjects,
        subscriptions_per_node=scenario.subscriptions_per_node,
        zipf_exponent=scenario.zipf_exponent,
        seed=scenario.seed,
    )
    config = NewsWireConfig(
        branching_factor=scenario.branching_factor,
        multicast=MulticastConfig(
            queue_strategy=scenario.queue_strategy,
            max_send_rate=scenario.max_send_rate,
            send_to_representatives=scenario.send_to_representatives,
        ),
    ).validate()
    system = build_newswire(
        scenario.num_nodes,
        config,
        scheme=scheme_by_name(scenario.scheme, config.bloom),
        publisher_names=(scenario.publisher,),
        publisher_rate=50.0,
        subscriptions_for=interests.subscriptions_for,
        seed=scenario.seed,
        loss_rate=scenario.loss_rate,
        sinks=[suite],
        trace_kinds=set(TESTKIT_TRACE_KINDS),
    )
    injector = FailureInjector(system.sim, system.network)
    scenario.schedule.apply(injector, system.nodes)
    trace = list(scenario.publications)
    drive_stats = drive_trace(system, scenario.publisher, trace)
    system.sim.run_until(scenario.end_time)

    expected_total = 0
    churned = any(event.kind == "churn-storm" for event in scenario.schedule)
    if drive_stats.flow_controlled == 0 and not churned:
        # Serial numbering matches trace order only when nothing was
        # flow-controlled, and the initial interest assignment predicts
        # deliveries only when no churn rewired it mid-run; otherwise
        # skip expectations (the online invariants still checked every
        # event, and routing-stabilizes checks the end state).
        for item, nodes in expected_delivery_nodes(
            interests, system, trace, scenario.publisher
        ).items():
            suite.expect(item, nodes)
            expected_total += len(nodes)
    violations = suite.finalize(system)
    return ScenarioResult(
        scenario=scenario,
        violations=violations,
        suite=suite,
        delivered=system.trace.count("deliver"),
        expected=expected_total,
        flow_controlled=drive_stats.flow_controlled,
    )
