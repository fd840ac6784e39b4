"""The invariant suite is a pure observer — the transparency pin.

Re-runs the E2 golden-fingerprint configurations (see
``tests/integration/test_golden_fingerprints.py``) with the full
invariant suite attached as a trace sink.  The fingerprints must stay
byte-identical to the sink-free goldens: attaching every checker can
never perturb a fixed-seed run.  This is what lets the experiments CLI
offer ``--check-invariants`` without a determinism caveat.
"""

from repro.experiments.e2_latency import run_e2
from repro.experiments.e12_routing import run_e12
from repro.sim.engine import instrumented
from repro.testkit.invariants import InvariantSuite

from tests.integration.test_golden_fingerprints import (
    E12_SMALL_GOLDEN,
    E12_SMALL_KWARGS,
    e12_fingerprint,
    fingerprint,
)

E2_SMALL_KWARGS = dict(
    sizes=(48,),
    items=3,
    item_spacing=1.0,
    subscriptions_per_node=2,
    settle_rounds=2.0,
    drain_time=20.0,
    seed=11,
)

E2_SMALL_GOLDEN = (
    48, 3, 71, 71, 1.0,
    0.07920745575383048,
    0.11288422608405124,
    0.1264471050192081,
    0.12767120304479818,
)


class TestSuiteTransparency:
    def test_fingerprint_identical_with_suite_attached(self):
        suite = InvariantSuite()
        with instrumented(trace=[lambda trace: suite]):
            result = run_e2(**E2_SMALL_KWARGS)
        assert fingerprint(result) == E2_SMALL_GOLDEN
        # The suite genuinely observed the run...
        assert suite.causal.events_seen > 0
        assert suite.causal.trees
        # ...retained no event objects, and found nothing wrong.
        assert suite.retained_events == 0
        assert suite.finalize(None) == []

    def test_suite_attached_matches_default_run(self):
        # A bare run vs one observed by a suite: identical results
        # either way.
        baseline = run_e2(**E2_SMALL_KWARGS)
        with instrumented(trace=[lambda trace: InvariantSuite()]):
            observed = run_e2(**E2_SMALL_KWARGS)
        assert fingerprint(baseline) == fingerprint(observed)

    def test_e12_fingerprint_identical_with_suite_attached(self):
        # The PR-9 checkers (routing-stabilizes, false-positive-bounded)
        # joined the catalogue; prove the grown suite is still a pure
        # observer on the experiment that stresses them hardest —
        # churn, corruption, and repair rounds all under observation.
        # One suite per scheme: item keys repeat across the four systems.
        suites = []

        def suite_per_trace(trace):
            suites.append(InvariantSuite())
            return suites[-1]

        with instrumented(trace=[suite_per_trace]):
            result = run_e12(**E12_SMALL_KWARGS)
        assert e12_fingerprint(result) == E12_SMALL_GOLDEN
        assert len(suites) == len(result.rows)
        for suite in suites:
            assert suite.causal.events_seen > 0
            assert suite.retained_events == 0
            assert suite.finalize(None) == []
