"""Tests for the experiment helpers and the runner registry."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import NewsWireConfig
from repro.core.errors import ConfigurationError
from repro.core.identifiers import ItemId
from repro.experiments import (
    ExperimentConfig,
    all_specs,
    experiment_names,
    get_spec,
)
from repro.experiments.common import (
    SystemSpec,
    TableResult,
    body_text,
    build_system,
    drive_trace,
    expected_deliveries,
    item_from_publication,
    publish_at_origin,
    story_trace,
    validate_fraction,
    validate_non_negative,
    validate_positive,
    validate_seed,
    validate_sizes,
)
from repro.experiments.__main__ import _run_one, main
from repro.experiments.registry import RunOptions
from repro.metrics.report import format_table
from repro.news.deployment import build_newswire
from repro.obs.manifest import manifest_schema_errors
from repro.pubsub.subscription import Subscription
from repro.sim.engine import Simulation
from repro.workloads.populations import InterestModel
from repro.workloads.traces import Publication


class TestCommonHelpers:
    def test_body_text_word_count(self):
        text = body_text(10)
        assert len(text.split()) == 10

    def test_body_text_zero(self):
        assert body_text(0) == ""

    def test_item_from_publication(self):
        publication = Publication(
            time=5.0, subject="a/b", headline="H", body_words=20,
            categories=("b",), urgency=3,
        )
        item = item_from_publication(publication, "pub", 7)
        assert item.item_id == ItemId("pub", 7)
        assert item.subject == "a/b"
        assert item.urgency == 3
        assert item.published_at == 5.0
        assert len(item.body.split()) == 20

    def test_expected_deliveries_keys_match_item_ids(self):
        interests = InterestModel(["a/b", "a/c"], subscriptions_per_node=1, seed=1)
        trace = [
            Publication(time=1.0, subject="a/b", headline="x", body_words=10),
            Publication(time=2.0, subject="a/c", headline="y", body_words=10),
        ]
        expected = expected_deliveries(interests, 20, trace, "pub")
        assert set(expected) == {"pub:1.r0", "pub:2.r0"}
        assert sum(expected.values()) == 20  # one subscription each

    def test_drive_trace_counts_flow_control(self):
        system = build_newswire(
            20,
            NewsWireConfig(branching_factor=6),
            publisher_names=("p",),
            publisher_rate=2.0,  # burst of 2, then blocked
            subscriptions_for=lambda i: (Subscription("a/b"),),
            seed=3,
        )
        trace = [
            Publication(time=1.0 + k * 0.01, subject="a/b",
                        headline=f"h{k}", body_words=10)
            for k in range(6)
        ]
        stats = drive_trace(system, "p", trace)
        system.run_for(5.0)
        assert stats.published == 2
        assert stats.flow_controlled == 4

    def test_story_trace_spacing_cycling_and_urgency(self):
        trace = story_trace(
            10.0, 5, ("a/b", "a/c"), spacing=0.5, body_words=7,
            headline="breaking", urgency=lambda index: 1 if index % 2 else 6,
        )
        assert [p.time for p in trace] == [10.0, 10.5, 11.0, 11.5, 12.0]
        assert [p.subject for p in trace] == ["a/b", "a/c", "a/b", "a/c", "a/b"]
        assert [p.urgency for p in trace] == [6, 1, 6, 1, 6]
        assert trace[3].headline == "breaking 3" and trace[3].body_words == 7
        plain = story_trace(0.0, 2, ("a/b",))
        assert plain[1] == Publication(
            time=1.0, subject="a/b", headline="story 1", body_words=120
        )

    def test_publish_at_origin_numbers_serials_in_trace_order(self):
        class Origin:
            def __init__(self, sim):
                self.sim, self.seen = sim, []

            def publish(self, item):
                self.seen.append((self.sim.now, str(item.item_id), item.subject))

        sim = Simulation(seed=0)
        origin = Origin(sim)
        publish_at_origin(sim, origin, story_trace(2.0, 3, ("a/b", "a/c")), "www")
        sim.run()
        assert origin.seen == [
            (2.0, "www:1.r0", "a/b"), (3.0, "www:2.r0", "a/c"), (4.0, "www:3.r0", "a/b"),
        ]

    def test_table_result_declares_each_column_once(self):
        class Result(TableResult):
            title = "T: a table"
            columns = (
                ("nodes", "num_nodes"),
                ("state", lambda row: "n/a" if row.state is None else row.state),
            )

            def __init__(self, rows):
                self.rows = rows

        class Row:
            def __init__(self, num_nodes, state):
                self.num_nodes, self.state = num_nodes, state

        rows = [Row(1000, None), Row(20, 0.25)]
        assert Result(rows).report() == format_table(
            ["nodes", "state"], [(1000, "n/a"), (20, 0.25)], title="T: a table"
        )


class TestValidationHelpers:
    def test_validate_positive_rejects_zero_and_bool(self):
        validate_positive("x", 3)
        with pytest.raises(ConfigurationError):
            validate_positive("x", 0)
        with pytest.raises(ConfigurationError):
            validate_positive("x", True)

    def test_validate_fraction_bounds(self):
        validate_fraction("f", 0.0)
        validate_fraction("f", 1.0)
        with pytest.raises(ConfigurationError):
            validate_fraction("f", 1.5)

    def test_validate_sizes_rejects_empty_and_nonpositive(self):
        validate_sizes("sizes", (10, 20))
        with pytest.raises(ConfigurationError):
            validate_sizes("sizes", ())
        with pytest.raises(ConfigurationError):
            validate_sizes("sizes", (10, -1))

    def test_validate_seed_rejects_non_int(self):
        validate_seed(7)
        with pytest.raises(ConfigurationError):
            validate_seed("7")

    def test_validate_sizes_takes_another_entry_rule(self):
        validate_sizes("rates", (0.0, 5.0), entry=validate_non_negative)
        with pytest.raises(ConfigurationError, match="rates entry"):
            validate_sizes("rates", (0.0, -5.0), entry=validate_non_negative)

    def test_sweep_axes_refuse_empty_and_negative_values(self):
        # Regressions: a "-5 req/s flood" row that ran no flood, and
        # empty tables from empty axes.
        with pytest.raises(ConfigurationError, match="flood_rates"):
            get_spec("e4").runner(flood_rates=(-5.0,))
        with pytest.raises(ConfigurationError, match="flood_rates"):
            get_spec("e4").runner(flood_rates=())
        with pytest.raises(ConfigurationError, match="strategies"):
            get_spec("e9").runner(strategies=())


class TestBuildSystem:
    def test_build_system_stands_up_population(self):
        system, interests = build_system(
            SystemSpec(
                num_nodes=20,
                subjects=("a/b", "a/c"),
                subscriptions_per_node=1,
                seed=5,
                publisher_names=("p",),
            )
        )
        assert len(system.nodes) == 20
        assert "p" in system.publishers
        assert interests.subscriptions_per_node == 1

    def test_build_system_validates(self):
        with pytest.raises(ConfigurationError):
            build_system(SystemSpec(num_nodes=0, subjects=("a/b",)))
        with pytest.raises(ConfigurationError):
            build_system(SystemSpec(num_nodes=10, subjects=()))

    def test_explicit_subscriptions_need_no_interest_model(self):
        system, interests = build_system(
            SystemSpec(
                num_nodes=12,
                subscriptions_for=lambda index: (Subscription("a/b"),),
            )
        )
        assert interests is None
        assert all(
            [s.subject for s in node.subscriptions] == ["a/b"]
            for node in system.nodes
        )
        with pytest.raises(ConfigurationError, match="subscriptions_for"):
            build_system(SystemSpec(num_nodes=12))  # neither source of interests

    def test_settle_rounds_run_before_the_system_is_handed_over(self):
        spec = SystemSpec(num_nodes=12, subjects=("a/b",), settle_rounds=2)
        for backend in ("object", "columnar"):
            system, _ = build_system(dataclasses.replace(spec, backend=backend))
            assert system.sim.now == 2 * NewsWireConfig().gossip.interval
        unsettled, _ = build_system(SystemSpec(num_nodes=12, subjects=("a/b",)))
        assert unsettled.sim.now == 0.0

    def test_network_shaping_reaches_the_object_network_only(self):
        system, _ = build_system(
            SystemSpec(num_nodes=12, subjects=("a/b",), network={"loss_rate": 0.05})
        )
        assert system.network.loss_rate == 0.05
        with pytest.raises(ConfigurationError, match=r"\['bandwidth', 'loss_rate'\]"):
            build_system(
                SystemSpec(
                    num_nodes=12,
                    subjects=("a/b",),
                    backend="columnar",
                    network={"loss_rate": 0.05, "bandwidth": 1e6},
                )
            )
        with pytest.raises(ConfigurationError, match="runtime"):
            build_system(
                SystemSpec(num_nodes=12, subjects=("a/b",), network={"runtime": None})
            )


class TestE3Workload:
    """Regression: one truncated Poisson draw gave ``run_e3(items=N)``
    at most N items — 4 of 5 at ``--quick``, and a ZeroDivisionError
    when the draw came back empty (``items=1`` at seeds 0, 2, 6)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_one_item_is_one_item_at_every_seed(self, seed):
        rows = get_spec("e3").runner(sizes=(10,), items=1, seed=seed).rows
        assert [row.items for row in rows] == [1, 1, 1, 1]

    def test_quick_size_publishes_all_five(self):
        rows = get_spec("e3").runner(sizes=(10,), items=5, seed=0).rows
        assert [row.items for row in rows] == [5, 5, 5, 5]


class TestRunnerRegistry:
    def test_registry_covers_e1_to_e12(self):
        assert set(experiment_names()) == {f"e{i}" for i in range(1, 13)}

    def test_specs_have_claims_and_valid_quick_params(self):
        for spec in all_specs():
            assert spec.claim
            assert set(spec.quick_params) <= set(spec.parameters)
            assert "seed" in spec.parameters

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError):
            get_spec("e99")
        assert main(["e99"]) == 2

    def test_unknown_override_rejected(self):
        spec = get_spec("e2")
        with pytest.raises(ConfigurationError):
            spec.build_kwargs(ExperimentConfig(overrides={"sices": (10,)}))

    def test_build_kwargs_precedence(self):
        spec = get_spec("e2")
        kwargs = spec.build_kwargs(
            ExperimentConfig(seed=9, quick=True, overrides={"items": 7})
        )
        assert kwargs["sizes"] == (100, 400)  # quick param
        assert kwargs["items"] == 7           # override beats quick
        assert kwargs["seed"] == 9            # seed beats everything

    def test_run_eN_rejects_positional_arguments(self):
        with pytest.raises(TypeError):
            get_spec("e2").runner((60,))  # sizes must be keyword-only

    def test_list_flag_enumerates_all_specs(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_quick_runner_executes(self, capsys):
        assert main(["--quick", "e10"]) == 0
        out = capsys.readouterr().out
        assert "E10" in out and "completed in" in out

    def test_json_artifact_written(self, tmp_path, capsys):
        assert main(["--quick", "--seed", "3", "--json", str(tmp_path), "e10"]) == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "e10.json").read_text())
        assert payload["experiment"] == "e10"
        assert payload["seed"] == 3
        assert payload["quick"] is True
        assert payload["config"]["num_nodes"] == 120
        assert payload["wall_time_s"] >= 0
        assert payload["extra"]["result"]["rows"]
        # The CLI injects a registry so the manifest carries the
        # aggregate metric snapshot of the run.
        assert payload["metrics"]["multicast.delivers"] > 0
        assert payload["metrics"]["gossip.rounds"] > 0
        assert manifest_schema_errors(payload) == []

    def test_failure_manifest_names_the_runners_own_error(self, tmp_path, capsys):
        # In-process cells propagate exceptions unchanged, so the
        # failure artifact says what went wrong, not "a cell failed".
        bad = ExperimentConfig(quick=True, overrides={"sizes": ()})
        with pytest.raises(ConfigurationError, match="sizes"):
            _run_one(get_spec("e2"), bad, RunOptions(), tmp_path, tmp_path)
        assert "[e2 failed; manifest ->" in capsys.readouterr().err
        payload = json.loads((tmp_path / "e2.json").read_text())
        assert payload["extra"]["error"]["type"] == "ConfigurationError"
        assert manifest_schema_errors(payload) == []

    def test_check_invariants_manifest(self, tmp_path, capsys):
        assert main([
            "--quick", "--json", str(tmp_path), "--check-invariants", "e10",
        ]) == 0
        out = capsys.readouterr().out
        assert "[e10 invariants: clean]" in out
        payload = json.loads((tmp_path / "e10.json").read_text())
        assert manifest_schema_errors(payload) == []
        block = payload["extra"]["invariants"]
        assert "no-duplicate-delivery" in block["checked"]
        assert block["violations"] == []


def _run(capsys, tmp_path, *argv):
    """One ``--quick --json`` CLI run of ``argv[0]``: exit code,
    scrubbed stdout, stderr, and the manifest minus its wall-clock
    fields.  Successive calls reuse the directory, so paths compare."""
    json_dir = tmp_path / "manifests"
    code = main([*argv, "--quick", "--json", str(json_dir)])
    captured = capsys.readouterr()
    manifest = json.loads((json_dir / f"{argv[0]}.json").read_text())
    for field in ("started_at", "wall_time_s"):
        manifest.pop(field)
    out = re.sub(r"completed in [0-9.]+s", "completed in Xs", captured.out)
    return code, out, captured.err, manifest


class TestFlagMatrix:
    """Every run-shaping flag.  ``--check-invariants``, ``--report`` and
    ``--sink jsonl`` attach where a trace is built, so they apply to
    every spec — E1 (baselines only) is the vacuous case, E9 the
    several-systems-in-one-cell case.  ``--backend``, ``--sink
    memory|streaming`` and ``--workers`` need something of the spec: on
    E1, which has none of it, each leaves one note on stderr and the
    run otherwise equal to the bare one.  (``--workers`` on specs with
    a cell plan is ``tests/parallel/test_equivalence.py``.)
    """

    @pytest.fixture(autouse=True)
    def _scratch_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # traces/ and profile/ land here

    @pytest.mark.parametrize(
        "flags, needs",
        [
            (["--backend", "columnar"], "backend"),
            (["--sink", "streaming"], "sink"),
            (["--workers", "2"], "cells"),
        ],
        ids=["backend", "sink-streaming", "workers"],
    )
    def test_flag_the_spec_cannot_honour_is_noted_once(
        self, flags, needs, capsys, tmp_path
    ):
        bare = _run(capsys, tmp_path, "e1")
        code, out, err, manifest = _run(capsys, tmp_path, "e1", *flags)
        assert err == f"[e1 takes no {needs}; {flags[0]} ignored]\n"
        assert (code, out, "", manifest) == bare
        assert not Path("traces").exists()

    def test_observers_on_a_spec_without_a_newswire_are_vacuous(
        self, capsys, tmp_path
    ):
        # E1's baseline traces record nothing: the catalogue still
        # verdicts (clean), there is nothing to explain, the spool is empty.
        bare_code, bare_out, _, bare = _run(capsys, tmp_path, "e1")
        code, out, err, manifest = _run(
            capsys, tmp_path, "e1", "--check-invariants", "--report", "--sink", "jsonl"
        )
        for note in ("[e1 invariants: clean]\n", "[e1 trace -> traces/e1.jsonl]\n"):
            assert out.count(note) == 1
            out = out.replace(note, "")
        assert (code, out, err) == (bare_code, bare_out, "")
        assert len(manifest["extra"].pop("invariants")["checked"]) == 8
        assert manifest == bare and "causal" not in manifest["extra"]
        assert Path("traces/e1.jsonl").stat().st_size == 0

    @pytest.mark.parametrize("name", ["e1", "e10"])
    def test_profile_with_a_registry_records_per_cell_series(
        self, name, capsys, tmp_path
    ):
        # Every cell owns a registry, so every spec gets series — E1,
        # whose baselines register no instrument, still one recorder.
        code, out, err, manifest = _run(
            capsys, tmp_path, name, "--profile", "--profile-dir", "prof"
        )
        assert (code, err) == (0, "")
        assert manifest["extra"]["profile"]["events"] > 0
        assert manifest["extra"]["timeseries"]["cells"] == [f"{name}/sim0"]
        assert Path(f"prof/{name}-profile.json").stat().st_size > 0
        assert Path(f"prof/{name}-timeseries.jsonl").exists()
        assert "event-kernel profile" in out

    def test_report_adds_causal_sections(self, capsys, tmp_path):
        _, bare_out, _, bare = _run(capsys, tmp_path, "e12")
        code, out, err, manifest = _run(capsys, tmp_path, "e12", "--report")
        assert (code, err) == (0, "")
        assert "causal report" not in bare_out
        labels = [f"scheme:{row['scheme']}/sim0" for row in bare["extra"]["result"]["rows"]]
        assert re.findall(r"--- causal report \((.*)\) ---", out) == labels
        assert list(manifest["extra"].pop("causal")) == labels
        assert manifest == bare  # the result and config blocks never see the flag

    def test_report_labels_every_system_of_one_cell(self, capsys, tmp_path):
        # E9 builds four systems in its one cell; item keys repeat
        # across them, so each needs its own sink to come out whole.
        code, out, err, manifest = _run(
            capsys, tmp_path, "e9", "--report", "--check-invariants"
        )
        assert (code, err) == (0, "")
        labels = [f"e9/sim{n}" for n in range(4)]
        assert re.findall(r"--- causal report \((.*)\) ---", out) == labels
        assert list(manifest["extra"]["causal"]) == labels
        for summary in manifest["extra"]["causal"].values():
            assert summary["losses"]["expected"] > 0
            assert summary["losses"]["missing"] == 0
        assert "[e9 invariants: clean]" in out

    @pytest.mark.parametrize("name", ["e7", "e11"])
    def test_robustness_experiments_are_checked_and_explained(
        self, name, capsys, tmp_path
    ):
        # The paper's robustness claims live in E4/E7/E11 — the specs
        # that could be neither checked nor explained before.
        code, out, err, manifest = _run(
            capsys, tmp_path, name, "--report", "--check-invariants"
        )
        assert (code, err) == (0, "")
        assert f"[{name} invariants: clean]" in out
        assert manifest_schema_errors(
            {**manifest, "started_at": "", "wall_time_s": 0.0}
        ) == []
        causal = manifest["extra"]["causal"]
        assert len(causal) == len(manifest["extra"]["result"]["rows"])
        for summary in causal.values():
            losses = summary["losses"]
            assert losses["expected"] > 0
            assert sum(losses["attributed"].values()) == losses["missing"]
        if name == "e7":  # crashed representatives: real, explained misses
            assert all(s["losses"]["missing"] > 0 for s in causal.values())

    @pytest.mark.parametrize(
        "flags, parameter",
        [(["--backend", "columnar"], "backend"), (["--sink", "streaming"], "sink")],
        ids=["backend-columnar", "sink-streaming"],
    )
    def test_backend_and_sink_selectors_reach_the_runner(
        self, flags, parameter, capsys, tmp_path
    ):
        code, out, err, manifest = _run(capsys, tmp_path, "e2", *flags)
        assert (code, err) == (0, "")
        assert manifest["config"][parameter] == flags[1]
        rows = manifest["extra"]["result"]["rows"]
        assert [row["delivered"] for row in rows] == [208, 828]  # as memory/object

    def test_jsonl_spool_observes_without_displacing_the_primary(
        self, capsys, tmp_path
    ):
        # Regression: the spool used to *replace* the MemorySink E10
        # reads its deliveries from, zeroing the `inside` column.
        bare = _run(capsys, tmp_path, "e10")
        code, out, err, manifest = _run(capsys, tmp_path, "e10", "--sink", "jsonl")
        trace_note = "[e10 trace -> traces/e10.jsonl]\n"
        assert (code, out.replace(trace_note, ""), err, manifest) == bare
        assert trace_note in out
        rows = manifest["extra"]["result"]["rows"]
        assert [row["delivered_inside"] for row in rows] == [120, 11, 40]
        assert Path("traces/e10.jsonl").stat().st_size > 0

    def test_jsonl_spool_and_invariant_suite_attach_together(self, capsys, tmp_path):
        # Regression: --sink jsonl used to switch the suite off
        # (an "invariant checking skipped" verdict, exit 0).
        code, out, err, manifest = _run(
            capsys, tmp_path, "e10", "--sink", "jsonl", "--check-invariants"
        )
        assert (code, err) == (0, "")
        assert "[e10 invariants: clean]" in out
        assert manifest["extra"]["invariants"]["checked"]
        assert Path("traces/e10.jsonl").stat().st_size > 0

    def test_jsonl_spool_refuses_worker_processes(self, capsys):
        # Regression: used to run serially under a wrong "[e2 is not
        # cell-decomposable]" note.
        assert main(["e2", "--quick", "--sink", "jsonl", "--workers", "2"]) == 2
        captured = capsys.readouterr()
        assert "--sink jsonl" in captured.err and "--workers" in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not Path("traces").exists()


class TestImportFootprint:
    def test_common_import_loads_no_executor_and_no_more_modules(self):
        """``import repro.experiments.common`` sits inside every bench
        workload's ``setup_s``: it must not start pulling in the
        executor (``multiprocessing``), the testkit or the columnar
        stack, nor grow past the 86 ``repro.*`` modules it loads today.
        """
        src = Path(__file__).resolve().parents[2] / "src"
        probe = (
            "import sys, repro.experiments.common; "
            "print('\\n'.join(sorted(sys.modules)))"
        )
        loaded = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.split()
        ours = [name for name in loaded if name.split(".")[0] == "repro"]
        for package in ("repro.parallel", "repro.testkit", "repro.scale"):
            assert not [name for name in ours if name.startswith(package)]
        assert "multiprocessing" not in loaded
        assert len(ours) <= 86, ours
