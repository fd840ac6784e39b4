"""Reports from observability artifacts.

Usage::

    # Replay an offline JSONL trace (written by JsonlFileSink):
    python -m repro.obs.report --trace runs/trace.jsonl

    # Same, with the run's provenance manifest for context:
    python -m repro.obs.report --trace runs/trace.jsonl \
        --manifest runs/e2.json

    # Render a saved event-kernel profile (experiments --profile):
    python -m repro.obs.report --profile profile/e2-profile.json

    # Summarize a live-run telemetry artifact (python -m repro.live):
    python -m repro.obs.report --telemetry live-telemetry.jsonl

Offline replays rebuild per-item dissemination trees with
:meth:`repro.obs.causal.CausalSink.replay`; expected-delivery sets are
derived from the trace's ``subscribe`` + ``publish`` events, so loss
attribution works without the original interest model.  (For the
report of a fresh run: ``python -m repro.experiments NAME --report``.)

Every artifact path is validated up front: a missing or corrupt file
produces a one-line error and a nonzero exit, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs.causal import CausalSink, format_causal_report
from repro.obs.manifest import RunManifest


class ReportError(Exception):
    """A user-facing artifact problem: message only, no traceback."""


def read_jsonl(path: Path) -> List[Dict[str, Any]]:
    """Parse a JSONL artifact, pointing at the exact corrupt line."""
    rows: List[Dict[str, Any]] = []
    try:
        with path.open("r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise ReportError(
                        f"corrupt JSONL in {path}, line {lineno}: {exc.msg}"
                    ) from exc
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc.strerror}") from exc
    return rows


def _describe_manifest(path: Path) -> str:
    manifest = RunManifest.read(path)
    parts = [
        f"experiment={manifest.experiment}",
        f"seed={manifest.seed}",
        f"quick={manifest.quick}",
    ]
    if manifest.git_rev:
        parts.append(f"git={manifest.git_rev[:12]}")
    if manifest.started_at:
        parts.append(f"started={manifest.started_at}")
    return "manifest: " + "  ".join(parts)


def report_from_trace(
    trace_path: Path,
    manifest_path: Optional[Path] = None,
    max_items: int = 10,
) -> str:
    """Replay ``trace_path`` and render the causal report."""
    # Validate first: replay's own parse would surface a bare
    # JSONDecodeError with no file/line context.
    read_jsonl(trace_path)
    sink = CausalSink.replay(trace_path)
    header = [
        f"trace: {trace_path} ({sink.events_seen} events, "
        f"{len(sink.trees)} items)"
    ]
    if manifest_path is not None:
        header.append(_describe_manifest(manifest_path))
    return "\n".join(header) + "\n\n" + format_causal_report(sink, max_items)


def report_from_telemetry(path: Path) -> str:
    """Summarize a live-run telemetry JSONL per worker."""
    from repro.metrics.report import format_table

    rows = read_jsonl(path)
    workers: Dict[Any, Dict[str, Any]] = {}
    max_queue: Dict[Any, float] = {}
    for snap in rows:
        worker = snap.get("worker", "?")
        workers[worker] = snap  # snapshots are cumulative; last wins
        depth = snap.get("queue_depth", 0) or 0
        if depth >= max_queue.get(worker, 0):
            max_queue[worker] = depth
    table = format_table(
        ["worker", "snapshots", "last t (s)", "delivered", "dup", "published",
         "max queue"],
        [
            (
                f"w{worker}",
                sum(1 for s in rows if s.get("worker", "?") == worker),
                last.get("t", 0.0),
                last.get("delivered", 0),
                last.get("dup_dropped", 0),
                last.get("published", 0),
                max_queue.get(worker, 0),
            )
            for worker, last in sorted(workers.items(), key=lambda kv: str(kv[0]))
        ],
        title=f"telemetry: {path} ({len(rows)} snapshots, "
        f"{len(workers)} workers)",
    )
    return table


def report_from_profile(path: Path) -> str:
    """Render a saved ``<name>-profile.json`` artifact."""
    from repro.obs.profile import format_profile_payload

    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReportError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ReportError(
            f"corrupt profile JSON in {path}, line {exc.lineno}: {exc.msg}"
        ) from exc
    if not isinstance(payload, dict) or "categories" not in payload:
        raise ReportError(
            f"{path} is not a profile artifact (no 'categories' field); "
            "expected the <name>-profile.json written by "
            "python -m repro.experiments --profile"
        )
    return f"profile: {path}\n" + format_profile_payload(payload)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Reports from trace, profile and telemetry artifacts.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--trace", metavar="FILE",
        help="JSONL trace artifact (JsonlFileSink output) to replay",
    )
    source.add_argument(
        "--profile", metavar="FILE",
        help="render a saved profile artifact (experiments --profile)",
    )
    source.add_argument(
        "--telemetry", metavar="FILE",
        help="summarize a live-run telemetry JSONL (python -m repro.live)",
    )
    parser.add_argument(
        "--manifest", metavar="FILE", default=None,
        help="RunManifest JSON to print provenance from (with --trace)",
    )
    parser.add_argument(
        "--max-items", type=int, default=10,
        help="critical-path rows to show (default: 10 slowest items)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.trace is not None:
            trace_path = Path(args.trace)
            if not trace_path.exists():
                print(f"no such trace file: {trace_path}", file=sys.stderr)
                return 2
            manifest = Path(args.manifest) if args.manifest else None
            if manifest is not None and not manifest.exists():
                print(f"no such manifest file: {manifest}", file=sys.stderr)
                return 2
            print(report_from_trace(trace_path, manifest, args.max_items))
        elif args.profile is not None:
            profile_path = Path(args.profile)
            if not profile_path.exists():
                print(f"no such profile file: {profile_path}", file=sys.stderr)
                return 2
            print(report_from_profile(profile_path))
        else:
            telemetry_path = Path(args.telemetry)
            if not telemetry_path.exists():
                print(
                    f"no such telemetry file: {telemetry_path}", file=sys.stderr
                )
                return 2
            print(report_from_telemetry(telemetry_path))
    except ReportError as exc:  # artifact problem: one line, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # CLI surface: report, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
