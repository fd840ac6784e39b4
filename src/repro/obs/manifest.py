"""Run manifests: the provenance record written next to experiment output.

A :class:`RunManifest` captures everything needed to reproduce or audit
one experiment run — the seed, the effective configuration, the source
revision, wall-clock cost and a metrics snapshot — in one JSON file.
``python -m repro.experiments --json DIR`` writes one per experiment.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

#: Manifest schema version — bump when fields change meaning.
MANIFEST_VERSION = 1


def git_revision(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The current git commit hash, or None outside a repo / without git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=str(cwd) if cwd is not None else None,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def _jsonable(value: Any) -> Any:
    """Fold dataclasses and exotic scalars into JSON-native shapes."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class RunManifest:
    """Provenance + outcome summary of one experiment run."""

    experiment: str
    #: None when the run used each experiment's own default seed (the
    #: CLI only pins a value under ``--seed``).
    seed: Optional[int]
    quick: bool = False
    config: Dict[str, Any] = field(default_factory=dict)
    git_rev: Optional[str] = None
    started_at: str = ""
    wall_time_s: float = 0.0
    metrics: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    @classmethod
    def start(
        cls,
        experiment: str,
        *,
        seed: Optional[int],
        quick: bool = False,
        config: Optional[Mapping[str, Any]] = None,
        clock: Optional[Any] = None,
        started_at: Optional[str] = None,
    ) -> "RunManifest":
        """Open a manifest before the run; ``finish()`` stamps the cost.

        ``clock`` is a zero-argument callable returning monotonic
        seconds (default :func:`time.perf_counter`) and ``started_at``
        an explicit ISO-8601 stamp — injectable so harnesses on a
        virtual clock (or replaying old runs) never read the wall clock
        behind the caller's back.
        """
        manifest = cls(
            experiment=experiment,
            seed=seed,
            quick=quick,
            config=dict(config or {}),
            git_rev=git_revision(),
            started_at=(
                started_at
                if started_at is not None
                else time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
            ),
        )
        manifest._clock = clock if clock is not None else time.perf_counter
        manifest._clock_start = manifest._clock()
        return manifest

    def finish(
        self,
        *,
        metrics: Optional[Mapping[str, Any]] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Record wall time, the metric snapshot and result extras."""
        started = getattr(self, "_clock_start", None)
        if started is not None:
            clock = getattr(self, "_clock", time.perf_counter)
            self.wall_time_s = clock() - started
        if metrics is not None:
            self.metrics = dict(metrics)
        self.extra.update(extra)
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "experiment": self.experiment,
            "seed": self.seed,
            "quick": self.quick,
            "config": _jsonable(self.config),
            "git_rev": self.git_rev,
            "started_at": self.started_at,
            "wall_time_s": self.wall_time_s,
            "metrics": _jsonable(self.metrics),
            "extra": _jsonable(self.extra),
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write the manifest as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.as_dict(), indent=2, sort_keys=False, default=str)
            + "\n",
            encoding="utf-8",
        )
        return target

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunManifest":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            experiment=raw.get("experiment", ""),
            seed=raw.get("seed"),
            quick=raw.get("quick", False),
            config=raw.get("config", {}),
            git_rev=raw.get("git_rev"),
            started_at=raw.get("started_at", ""),
            wall_time_s=raw.get("wall_time_s", 0.0),
            metrics=raw.get("metrics", {}),
            extra=raw.get("extra", {}),
            version=raw.get("version", MANIFEST_VERSION),
        )


#: (key, predicate, human-readable expectation) for every top-level field.
_TOP_LEVEL_FIELDS = (
    ("version", lambda v: isinstance(v, int) and not isinstance(v, bool), "int"),
    ("experiment", lambda v: isinstance(v, str) and bool(v), "non-empty str"),
    (
        "seed",
        lambda v: v is None or (isinstance(v, int) and not isinstance(v, bool)),
        "int or null",
    ),
    ("quick", lambda v: isinstance(v, bool), "bool"),
    ("config", lambda v: isinstance(v, dict), "dict"),
    ("git_rev", lambda v: v is None or isinstance(v, str), "str or null"),
    ("started_at", lambda v: isinstance(v, str), "str"),
    (
        "wall_time_s",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and v >= 0,
        "non-negative number",
    ),
    ("metrics", lambda v: isinstance(v, dict), "dict"),
    ("extra", lambda v: isinstance(v, dict), "dict"),
)

#: Required scalar counters inside each ``extra.causal`` summary (from
#: CausalSink.summary).
_CAUSAL_INT_FIELDS = ("items", "deliveries", "repaired")

#: Required keys inside ``extra.causal.critical_path``.
_CRITICAL_PATH_FIELDS = (
    "count",
    "mean_total",
    "max_total",
    "mean_hops",
    "queue_wait",
    "net_wait",
    "round_wait",
)

#: Required counters inside ``extra.causal.losses``.
_LOSS_INT_FIELDS = ("expected", "missing")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _causal_block_errors(block: Any) -> list:
    """Schema errors for ``extra.causal``: ``{label: summary}``, one
    :meth:`CausalSink.summary` per system the run built."""
    if not isinstance(block, dict):
        return [f"extra.causal: expected dict, got {type(block).__name__}"]
    return [
        f"{error} (under {label!r})"
        for label, summary in block.items()
        for error in _causal_errors(summary)
    ]


def _causal_errors(causal: Any) -> list:
    """Schema errors for one ``CausalSink.summary()`` dict."""
    if not isinstance(causal, dict):
        return [f"extra.causal: expected dict, got {type(causal).__name__}"]
    errors = []
    for key in _CAUSAL_INT_FIELDS:
        if not _is_int(causal.get(key)):
            errors.append(f"extra.causal.{key}: expected int, got {causal.get(key)!r}")
    path = causal.get("critical_path")
    if not isinstance(path, dict):
        errors.append(
            f"extra.causal.critical_path: expected dict, got {type(path).__name__}"
        )
    else:
        for key in _CRITICAL_PATH_FIELDS:
            if not _is_number(path.get(key)):
                errors.append(
                    "extra.causal.critical_path."
                    f"{key}: expected number, got {path.get(key)!r}"
                )
    for key in ("hop_counts", "fanout_by_level"):
        if not isinstance(causal.get(key), dict):
            errors.append(
                f"extra.causal.{key}: expected dict, "
                f"got {type(causal.get(key)).__name__}"
            )
    losses = causal.get("losses")
    if not isinstance(losses, dict):
        errors.append(
            f"extra.causal.losses: expected dict, got {type(losses).__name__}"
        )
    else:
        for key in _LOSS_INT_FIELDS:
            if not _is_int(losses.get(key)):
                errors.append(
                    f"extra.causal.losses.{key}: expected int, "
                    f"got {losses.get(key)!r}"
                )
        if not isinstance(losses.get("attributed"), dict):
            errors.append(
                "extra.causal.losses.attributed: expected dict, "
                f"got {losses.get('attributed')!r}"
            )
    return errors


def _invariants_errors(block: Any) -> list:
    """Schema errors for the ``extra.invariants`` block."""
    if not isinstance(block, dict):
        return [f"extra.invariants: expected dict, got {type(block).__name__}"]
    errors = []
    checked = block.get("checked")
    if not isinstance(checked, list) or not all(
        isinstance(name, str) for name in checked or []
    ):
        errors.append(f"extra.invariants.checked: expected list of str, got {checked!r}")
    violations = block.get("violations")
    if not isinstance(violations, list) or not all(
        isinstance(v, dict) for v in violations or []
    ):
        errors.append(
            f"extra.invariants.violations: expected list of dict, got {violations!r}"
        )
    return errors


def manifest_schema_errors(raw: Mapping[str, Any]) -> list:
    """All schema violations in a manifest dict; empty means valid.

    Validates the top-level fields ``as_dict()`` promises, and — when
    present — the shapes the CLI attaches under ``extra.causal``
    (``--report``) and ``extra.invariants`` (``--check-invariants``).
    Returns human-readable ``"path: expectation"`` strings so a failing
    test names the drift directly.
    """
    if not isinstance(raw, Mapping):
        return [f"manifest: expected mapping, got {type(raw).__name__}"]
    errors = []
    for key, predicate, expectation in _TOP_LEVEL_FIELDS:
        if key not in raw:
            errors.append(f"{key}: missing required key")
        elif not predicate(raw[key]):
            errors.append(f"{key}: expected {expectation}, got {raw[key]!r}")
    for key in raw:
        if key not in {name for name, _, _ in _TOP_LEVEL_FIELDS}:
            errors.append(f"{key}: unexpected top-level key")
    extra = raw.get("extra")
    if isinstance(extra, dict):
        if "causal" in extra:
            errors.extend(_causal_block_errors(extra["causal"]))
        if "invariants" in extra:
            errors.extend(_invariants_errors(extra["invariants"]))
    return errors
