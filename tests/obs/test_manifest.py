"""Tests for run manifests and their schema validator."""

import json
from dataclasses import dataclass

import pytest

from repro.obs.causal import CausalSink
from repro.obs.manifest import (
    MANIFEST_VERSION,
    RunManifest,
    git_revision,
    manifest_schema_errors,
)


@dataclass
class FakeResult:
    rows: tuple
    note: str = "ok"


class TestGitRevision:
    def test_inside_repo_returns_hash(self):
        rev = git_revision()
        assert rev is None or (len(rev) == 40 and all(
            c in "0123456789abcdef" for c in rev))

    def test_outside_repo_returns_none(self, tmp_path):
        assert git_revision(cwd=tmp_path) is None


class TestRunManifest:
    def test_start_finish_roundtrip(self, tmp_path):
        manifest = RunManifest.start(
            "e2", seed=7, quick=True, config={"sizes": (100, 400)}
        )
        manifest.finish(
            metrics={"gossip.rounds": 12},
            result=FakeResult(rows=(1, 2)),
        )
        path = manifest.write(tmp_path / "deep" / "e2.json")

        raw = json.loads(path.read_text())
        assert raw["version"] == MANIFEST_VERSION
        assert raw["experiment"] == "e2"
        assert raw["seed"] == 7
        assert raw["quick"] is True
        assert raw["config"]["sizes"] == [100, 400]
        assert raw["metrics"]["gossip.rounds"] == 12
        assert raw["extra"]["result"]["rows"] == [1, 2]
        assert raw["wall_time_s"] >= 0.0
        assert raw["started_at"]

        back = RunManifest.read(path)
        assert back.experiment == "e2"
        assert back.seed == 7
        assert back.metrics == {"gossip.rounds": 12}

    def test_finish_without_start_clock(self):
        manifest = RunManifest(experiment="e1", seed=0)
        manifest.finish(note="manual")
        assert manifest.wall_time_s == 0.0
        assert manifest.extra == {"note": "manual"}

    def test_non_json_values_stringified(self, tmp_path):
        manifest = RunManifest(experiment="e1", seed=0)
        manifest.extra = {"obj": object()}
        path = manifest.write(tmp_path / "m.json")
        assert "object" in path.read_text()

    def test_default_seed_survives_write_read(self, tmp_path):
        # The CLI passes seed=None unless --seed pins one; the manifest
        # must carry that through rather than coercing it to 0.
        manifest = RunManifest.start("e1", seed=None)
        path = manifest.finish().write(tmp_path / "m.json")
        assert json.loads(path.read_text())["seed"] is None
        assert RunManifest.read(path).seed is None


def _valid_manifest_dict() -> dict:
    return RunManifest.start(
        "e2", seed=7, quick=True, config={"sizes": (100, 400)}
    ).finish(metrics={"gossip.rounds": 3}).as_dict()


class TestManifestSchema:
    def test_as_dict_passes_schema(self):
        assert manifest_schema_errors(_valid_manifest_dict()) == []

    def test_seedless_manifest_passes_schema(self):
        raw = RunManifest.start("e1", seed=None).finish().as_dict()
        assert manifest_schema_errors(raw) == []

    def test_written_file_passes_schema(self, tmp_path):
        manifest = RunManifest.start("e2", seed=1)
        path = manifest.finish(result={"rows": [1]}).write(tmp_path / "e2.json")
        assert manifest_schema_errors(json.loads(path.read_text())) == []

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda raw: raw.pop("experiment"), "experiment: missing"),
            (lambda raw: raw.update(experiment=""), "experiment"),
            (lambda raw: raw.update(seed="7"), "seed"),
            (lambda raw: raw.update(quick=1), "quick"),
            (lambda raw: raw.update(config=None), "config"),
            (lambda raw: raw.update(wall_time_s=-0.5), "wall_time_s"),
            (lambda raw: raw.update(version="1"), "version"),
            (lambda raw: raw.update(metrics=[]), "metrics"),
            (lambda raw: raw.update(surprise=1), "surprise: unexpected"),
        ],
    )
    def test_schema_flags_drift(self, mutate, fragment):
        raw = _valid_manifest_dict()
        mutate(raw)
        errors = manifest_schema_errors(raw)
        assert errors, f"mutation {fragment!r} not caught"
        assert any(fragment in error for error in errors), errors

    def test_non_mapping_rejected(self):
        assert manifest_schema_errors(["not", "a", "dict"])

    def test_causal_summary_shape_accepted(self):
        # The producer's shape: extra.causal in CLI manifests maps each
        # observed system's label to its CausalSink.summary() (even with
        # no events, the summary's shape is full).
        raw = _valid_manifest_dict()
        raw["extra"]["causal"] = {
            "nodes=100/sim0": CausalSink().summary(),
            "nodes=400/sim0": CausalSink().summary(),
        }
        assert manifest_schema_errors(raw) == []
        raw["extra"]["causal"] = CausalSink().summary()  # flat: not that shape
        assert manifest_schema_errors(raw)

    @pytest.mark.parametrize("name", ["e2", "e12"])
    def test_real_report_manifest_passes_schema(self, name, tmp_path, capsys):
        # The real producer (e2 failed, e12 stored no extra.causal at all).
        from repro.experiments.__main__ import main

        assert main([name, "--quick", "--report", "--json", str(tmp_path)]) == 0
        capsys.readouterr()
        raw = json.loads((tmp_path / f"{name}.json").read_text())
        assert manifest_schema_errors(raw) == []
        causal = raw["extra"]["causal"]
        assert len(causal) == len(raw["extra"]["result"]["rows"])
        assert all(summary["deliveries"] > 0 for summary in causal.values())

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: c.pop("items"), "extra.causal.items"),
            (lambda c: c.update(critical_path=None), "critical_path"),
            (
                lambda c: c["critical_path"].pop("mean_total"),
                "critical_path.mean_total",
            ),
            (lambda c: c.update(hop_counts=[]), "hop_counts"),
            (lambda c: c["losses"].update(missing="3"), "losses.missing"),
            (lambda c: c["losses"].update(attributed=4), "losses.attributed"),
        ],
    )
    def test_schema_flags_causal_drift(self, mutate, fragment):
        raw = _valid_manifest_dict()
        causal = CausalSink().summary()
        mutate(causal)
        raw["extra"]["causal"] = {"e10/sim0": causal}
        errors = manifest_schema_errors(raw)
        assert any(fragment in error for error in errors), errors

    def test_invariants_block_validated(self):
        raw = _valid_manifest_dict()
        raw["extra"]["invariants"] = {"checked": ["no-duplicate-delivery"],
                                      "violations": []}
        assert manifest_schema_errors(raw) == []
        raw["extra"]["invariants"] = {"checked": "oops", "violations": None}
        errors = manifest_schema_errors(raw)
        assert any("invariants.checked" in error for error in errors)
        assert any("invariants.violations" in error for error in errors)
