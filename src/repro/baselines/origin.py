"""The centralized origin server all pull baselines talk to (paper §1).

Models a news website: it exposes its front page (the most recent
``page_items`` stories) and serves requests with a bounded service
capacity — which is what makes it "very sensitive to overload and
denial of service attacks": requests beyond the queue bound are
dropped, exactly the September-2001 failure mode the paper recalls.

Supported request flavours (one server, all §1 access models):

* ``full``  — classic GET: the entire front page every time;
* ``cond``  — if-modified-since: 304-style tiny response when nothing
  changed, full page otherwise;
* ``delta`` — delta encoding: only items newer than the client's last
  seen serial;
* ``rss``   — RSS channel: headline summaries only (client fetches
  full articles separately with ``article`` requests).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.core.errors import ConfigurationError
from repro.core.identifiers import NodeId
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.failures import FloodMessage
from repro.sim.network import Network
from repro.sim.node import Process
from repro.sim.trace import TraceLog
from repro.news.item import NewsItem

#: Approximate bytes of one item as HTML on the page vs in an RSS summary.
SUMMARY_BYTES = 96
NOT_MODIFIED_BYTES = 64
REQUEST_BYTES = 200


@dataclass
class PullRequest:
    mode: str                     # "full" | "cond" | "delta" | "rss"
    last_serial: int = 0          # highest serial the client has seen
    wire_size: int = REQUEST_BYTES


@dataclass
class ArticleRequest:
    serial: int
    wire_size: int = REQUEST_BYTES


@dataclass
class PullResponse:
    mode: str
    items: tuple[NewsItem, ...]          # full payloads (full/cond/delta)
    summaries: tuple[tuple[int, str], ...]  # (serial, subject) for rss
    latest_serial: int
    not_modified: bool
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        if self.not_modified:
            self.wire_size = NOT_MODIFIED_BYTES
        else:
            self.wire_size = (
                128
                + sum(item.wire_size() for item in self.items)
                + SUMMARY_BYTES * len(self.summaries)
            )


@dataclass
class ArticleResponse:
    item: Optional[NewsItem]
    wire_size: int = field(init=False)

    def __post_init__(self) -> None:
        self.wire_size = 128 + (self.item.wire_size() if self.item else 0)


@dataclass
class OriginStats:
    requests: int = 0
    served: int = 0
    dropped_overload: int = 0
    flood_requests: int = 0
    bytes_sent: int = 0


class OriginServer(Process):
    """A publisher's website with bounded service capacity."""

    def __init__(
        self,
        node_id: NodeId,
        sim: Simulation,
        network: Network,
        capacity: float = 200.0,       # requests served per second
        max_queue: int = 100,
        page_items: int = 15,
        trace: Optional[TraceLog] = None,
    ):
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if max_queue < 1:
            raise ConfigurationError("max_queue must be >= 1")
        super().__init__(node_id, SimRuntime(sim, network))
        self.capacity = capacity
        self.max_queue = max_queue
        self.page_items = page_items
        self.trace = trace if trace is not None else TraceLog(sim, kinds=set())
        self.stats = OriginStats()
        self._items: list[NewsItem] = []
        self._queue: Deque[tuple[NodeId, object]] = deque()
        self._serving = False

    # -- publishing (driven by the workload trace) --------------------------

    def publish(self, item: NewsItem) -> None:
        self._items.append(item)
        self.trace.record("origin-publish", item=str(item.item_id))

    @property
    def latest_serial(self) -> int:
        return self._items[-1].item_id.serial if self._items else 0

    def front_page(self) -> list[NewsItem]:
        return self._items[-self.page_items:]

    # -- request handling with bounded capacity -------------------------------

    def on_message(self, sender: NodeId, message: object) -> None:
        if isinstance(message, (PullRequest, ArticleRequest, FloodMessage)):
            if isinstance(message, FloodMessage):
                self.stats.flood_requests += 1
            else:
                self.stats.requests += 1
            if len(self._queue) >= self.max_queue:
                self.stats.dropped_overload += 1
                self.trace.record("origin-drop", sender=str(sender))
                return
            self._queue.append((sender, message))
            self._ensure_serving()

    def _ensure_serving(self) -> None:
        if not self._serving and self._queue:
            self._serving = True
            self.set_timer(1.0 / self.capacity, self._serve_one)

    def _serve_one(self) -> None:
        self._serving = False
        if not self._queue:
            return
        sender, message = self._queue.popleft()
        if isinstance(message, PullRequest):
            response = self._respond(message)
            self.stats.served += 1
            self.stats.bytes_sent += response.wire_size
            self.send(sender, response)
        elif isinstance(message, ArticleRequest):
            item = next(
                (i for i in self._items if i.item_id.serial == message.serial), None
            )
            response = ArticleResponse(item)
            self.stats.served += 1
            self.stats.bytes_sent += response.wire_size
            self.send(sender, response)
        # FloodMessage: consumes a service slot, produces nothing.
        self._ensure_serving()

    def _respond(self, request: PullRequest) -> PullResponse:
        latest = self.latest_serial
        page = self.front_page()
        if request.mode == "cond" and request.last_serial >= latest:
            return PullResponse("cond", (), (), latest, not_modified=True)
        if request.mode == "delta":
            fresh = tuple(
                item for item in page if item.item_id.serial > request.last_serial
            )
            return PullResponse("delta", fresh, (), latest, not_modified=False)
        if request.mode == "rss":
            summaries = tuple(
                (item.item_id.serial, item.subject) for item in page
            )
            return PullResponse("rss", (), summaries, latest, not_modified=False)
        # full (and cond with changes): the whole front page.
        return PullResponse(request.mode, tuple(page), (), latest, not_modified=False)
