"""Worker-count equivalence: the tentpole acceptance pins.

``--workers 2`` must be byte-identical to ``--workers 1`` on the
decomposable quick sweeps (E2, E5, E7, E12): same report text, same
result payload, same manifest ``result``/``config`` blocks, same
invariant verdicts — and both equal to the plain ``spec.run`` call.
Only wall-time/provenance fields may differ.
"""

import contextlib
import dataclasses
import io
import json
import re

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import ExperimentConfig, RunOptions, get_spec
from repro.parallel import run_spec

#: Manifest fields allowed to differ between the two runs.
_PROVENANCE_FIELDS = ("wall_time_s", "started_at", "git_rev")


def _scrub_wall_times(text: str) -> str:
    return re.sub(r"completed in [0-9.]+s", "completed in Xs", text)


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, _scrub_wall_times(buffer.getvalue())


def _load_scrubbed(path):
    manifest = json.loads(path.read_text())
    for field in _PROVENANCE_FIELDS:
        manifest.pop(field, None)
    return manifest


class TestSpecEquivalence:
    @pytest.mark.parametrize("name", ["e2", "e5"])
    def test_quick_sweep_identical(self, name):
        spec = get_spec(name)
        config = ExperimentConfig(quick=True)
        serial = spec.run(config)
        parallel = run_spec(spec, config, RunOptions(workers=2))
        assert dataclasses.asdict(parallel.result) == dataclasses.asdict(serial)
        assert parallel.result.report() == serial.report()

    def test_cell_manifests_cover_every_cell(self):
        spec = get_spec("e5")
        config = ExperimentConfig(quick=True)
        run = run_spec(spec, config, RunOptions(workers=2))
        cells = spec.plan_cells(config)
        assert [m["cell"] for m in run.cells] == [c.index for c in cells]
        assert [m["label"] for m in run.cells] == [c.label for c in cells]


class TestCliEquivalence:
    @pytest.mark.parametrize("name", ["e2", "e5", "e7", "e12"])
    def test_workers_flag_byte_identical(self, name, tmp_path):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        flags = [name, "--quick", "--report", "--check-invariants", "--json"]
        code_serial, out_serial = _run_cli([*flags, str(serial_dir)])
        code_parallel, out_parallel = _run_cli(
            [*flags, str(parallel_dir), "--workers", "2"]
        )
        assert code_serial == code_parallel == 0
        # The causal sections must survive the worker boundary, not be
        # equal by both sides dropping them (E12 once did).
        assert "causal report" in out_parallel
        assert out_serial.replace(str(serial_dir), "DIR") == (
            out_parallel.replace(str(parallel_dir), "DIR")
        )
        serial_manifest = _load_scrubbed(serial_dir / f"{name}.json")
        parallel_manifest = _load_scrubbed(parallel_dir / f"{name}.json")
        assert serial_manifest == parallel_manifest

    def test_workers_validation(self, capsys):
        assert main(["e5", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
