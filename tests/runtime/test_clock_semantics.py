"""The Clock contract both runtimes must honour, exercised identically.

Each scenario is a plain function that schedules against a runtime and
returns observations; a driver pair runs it on the simulator (virtual
time) and on the asyncio UDP runtime (compressed real time) and the
assertions are shared.  This is what lets protocol code treat the two
substrates as interchangeable.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.errors import SimulationError
from repro.runtime.asyncio_udp import AsyncioUdpRuntime
from repro.runtime.sim import SimRuntime
from repro.sim.engine import Simulation
from repro.sim.network import Network

#: One simulated second is compressed to this many wall seconds when a
#: scenario replays on the live runtime.
SCALE = 0.02


def sim_runtime(seed: int) -> SimRuntime:
    sim = Simulation(seed=seed)
    return SimRuntime(sim, Network(sim))


def run_on_sim(scenario, horizon: float = 20.0):
    runtime = sim_runtime(1)
    finish = scenario(runtime, 1.0)
    runtime.run_for(horizon)
    return finish()


def run_on_live(scenario, horizon: float = 20.0):
    async def main():
        runtime = AsyncioUdpRuntime(seed=1)
        await runtime.start()
        try:
            finish = scenario(runtime, SCALE)
            await asyncio.sleep(horizon * SCALE)
            return finish()
        finally:
            runtime.close()

    return asyncio.run(main())


DRIVERS = [
    pytest.param(run_on_sim, id="sim"),
    pytest.param(run_on_live, id="live"),
]


@pytest.mark.parametrize("driver", DRIVERS)
class TestOneShotHandles:
    def test_cancel_prevents_fire(self, driver):
        def scenario(runtime, unit):
            fired = []
            handle = runtime.call_after(2 * unit, fired.append, "a")
            handle.cancel()
            return lambda: (fired, handle.cancelled)

        fired, cancelled = driver(scenario)
        assert fired == []
        assert cancelled is True

    def test_cancel_is_idempotent(self, driver):
        def scenario(runtime, unit):
            handle = runtime.call_after(2 * unit, lambda: None)
            handle.cancel()
            handle.cancel()
            return lambda: handle.cancelled

        assert driver(scenario) is True

    def test_fired_handle_reads_cancelled(self, driver):
        """Consumed-as-cancelled: holders prune fired timers via the flag."""

        def scenario(runtime, unit):
            seen = []
            handle = runtime.call_after(
                unit, lambda: seen.append(handle.cancelled)
            )
            return lambda: (seen, handle.cancelled)

        seen, after = driver(scenario)
        # The flag flips *before* the callback runs, and stays set.
        assert seen == [True]
        assert after is True

    def test_cancel_after_fire_is_harmless(self, driver):
        def scenario(runtime, unit):
            fired = []
            handle = runtime.call_after(unit, fired.append, "x")
            runtime.call_after(3 * unit, handle.cancel)
            return lambda: fired

        assert driver(scenario) == ["x"]

    def test_negative_delay_rejected(self, driver):
        def scenario(runtime, unit):
            with pytest.raises(SimulationError):
                runtime.call_after(-1.0, lambda: None)
            with pytest.raises(SimulationError):
                runtime.call_after(float("nan"), lambda: None)
            return lambda: None

        driver(scenario)


@pytest.mark.parametrize("driver", DRIVERS)
class TestPeriodicHandles:
    def test_fires_repeatedly_until_cancelled(self, driver):
        def scenario(runtime, unit):
            ticks = []
            series = runtime.call_every(2 * unit, lambda: ticks.append(1))
            runtime.call_after(7 * unit, series.cancel)
            return lambda: (ticks, series.active)

        ticks, active = driver(scenario)
        assert len(ticks) == 3
        assert active is False

    def test_first_delay_overrides_interval(self, driver):
        def scenario(runtime, unit):
            ticks = []
            series = runtime.call_every(
                10 * unit, lambda: ticks.append(1), first_delay=1 * unit
            )
            return lambda: (ticks, series)

        ticks, series = driver(scenario)
        assert len(ticks) >= 1
        series.cancel()

    def test_until_bounds_the_series(self, driver):
        def scenario(runtime, unit):
            ticks = []
            series = runtime.call_every(
                2 * unit, lambda: ticks.append(1), until=runtime.now + 7 * unit
            )
            return lambda: (ticks, series.active)

        ticks, active = driver(scenario)
        assert len(ticks) == 3
        assert active is False

    def test_callback_may_cancel_its_own_series(self, driver):
        def scenario(runtime, unit):
            ticks = []
            series = runtime.call_every(
                unit, lambda: (ticks.append(1), series.cancel())
            )
            return lambda: (ticks, series.active)

        ticks, active = driver(scenario)
        assert ticks == [1]
        assert active is False

    def test_bad_interval_rejected(self, driver):
        def scenario(runtime, unit):
            with pytest.raises(SimulationError):
                runtime.call_every(0.0, lambda: None)
            with pytest.raises(SimulationError):
                runtime.call_every(-1.0, lambda: None)
            return lambda: None

        driver(scenario)


class TestCallAtAsymmetry:
    """The one documented contract divergence between the runtimes."""

    def test_sim_rejects_past_deadline(self):
        runtime = sim_runtime(1)
        runtime.run_for(5.0)
        with pytest.raises(SimulationError):
            runtime.call_at(1.0, lambda: None)

    def test_live_clamps_past_deadline(self):
        async def main():
            runtime = AsyncioUdpRuntime(seed=1)
            await runtime.start()
            try:
                fired = []
                runtime.call_at(runtime.now - 5.0, fired.append, "late")
                await asyncio.sleep(0.05)
                return fired
            finally:
                runtime.close()

        assert asyncio.run(main()) == ["late"]

    def test_both_reject_non_finite_deadline(self):
        runtime = sim_runtime(1)
        with pytest.raises(SimulationError):
            runtime.call_at(float("inf"), lambda: None)

        async def main():
            runtime = AsyncioUdpRuntime(seed=1)
            await runtime.start()
            try:
                with pytest.raises(SimulationError):
                    runtime.call_at(float("nan"), lambda: None)
            finally:
                runtime.close()

        asyncio.run(main())
