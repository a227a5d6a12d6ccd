"""Telemetry overhead benches: the disabled path must be free.

Telemetry is opt-in; the contract that lets it ride inside the hot loop
is that a campaign built *without* a recorder pays (near) nothing for
the instrumentation points — the null tracer hands every call site one
shared no-op span. These benches time the same short campaign with
telemetry off and on, assert the off path stays within a small guard of
the historical plain-loop cost, and ratchet the enabled-path cost: cheap
traces deposit their telemetry in bulk, one sweep per run of cheap
executions, so attaching a recorder must stay within a fixed factor of
the disabled run.

The guard compares medians of interleaved repeats (not single shots) so
host noise doesn't flake CI; results between modes are also checked
identical, which is the other half of the "observability changes
nothing" contract.
"""

import pytest

from repro.core.walltime import Stopwatch
from repro.fuzzer import Campaign, CampaignConfig
from repro.target import get_benchmark
from repro.telemetry.recorder import TelemetryRecorder

#: Tolerated regression of the telemetry-disabled hot path relative to
#: the telemetry-enabled one (the enabled path does strictly more work,
#: so disabled must not be slower than enabled times this slack).
DISABLED_OVERHEAD_GUARD = 1.02

#: Ratchet on the telemetry-enabled run relative to the disabled one.
#: Per-exec telemetry put this ratio at 1.3-1.5; the bulk cheap-run
#: deposits bring it to 1.0-1.15.
ENABLED_OVERHEAD_RATCHET = 1.30

REPEATS = 5


@pytest.fixture(scope="module")
def built():
    return get_benchmark("libpng").build(scale=0.25, seed_scale=1.0)


def config():
    return CampaignConfig(
        benchmark="libpng", fuzzer="bigmap", map_size=1 << 18,
        scale=0.25, seed_scale=1.0, virtual_seconds=2.0,
        max_real_execs=8_000, rng_seed=11)


def timed_run(built, telemetry):
    watch = Stopwatch()
    result = Campaign(config(), built=built, telemetry=telemetry).run()
    return watch.elapsed(), result


def median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


@pytest.fixture(scope="module")
def interleaved(built):
    """Interleaved off/on repeats: ``(off_median, on_median, results)``."""
    off_times, on_times = [], []
    results = set()
    for _ in range(REPEATS):
        elapsed, result = timed_run(built, None)
        off_times.append(elapsed)
        results.add((result.execs, result.discovered_locations))
        elapsed, result = timed_run(built, TelemetryRecorder(0))
        on_times.append(elapsed)
        results.add((result.execs, result.discovered_locations))
    return median(off_times), median(on_times), results


class TestDisabledOverhead:
    def test_disabled_within_guard_of_enabled(self, interleaved,
                                              benchmark):
        """Interleaved A/B: the disabled path must not regress past the
        guard relative to the enabled path. Enabled does strictly more
        work, so this bounds the *absolute* cost of the disabled
        instrumentation points at ~the guard margin."""
        off, on, results = interleaved
        benchmark.extra_info["disabled_median_s"] = round(off, 4)
        benchmark.extra_info["enabled_median_s"] = round(on, 4)
        benchmark.extra_info["enabled_over_disabled"] = \
            round(on / off, 3) if off else float("inf")
        benchmark(lambda: None)
        assert len(results) == 1, "telemetry changed campaign results"
        assert off <= on * DISABLED_OVERHEAD_GUARD, (
            f"telemetry-disabled run ({off:.4f}s) slower than "
            f"{DISABLED_OVERHEAD_GUARD}x the enabled run ({on:.4f}s); "
            f"the null-tracer path has grown a real cost")


class TestEnabledCost:
    def test_enabled_within_ratchet_of_disabled(self, interleaved,
                                                benchmark):
        """The enabled path pays per cheap-run sweep and per replay,
        not per execution: its median must stay within the ratchet of
        the disabled median."""
        off, on, _ = interleaved
        benchmark.extra_info["enabled_over_disabled"] = \
            round(on / off, 3) if off else float("inf")
        benchmark(lambda: None)
        assert on <= ENABLED_OVERHEAD_RATCHET * off, (
            f"telemetry-enabled run ({on:.4f}s) slower than "
            f"{ENABLED_OVERHEAD_RATCHET}x the disabled run ({off:.4f}s); "
            f"per-exec telemetry work is back on the hot path")

    def test_enabled_run_reports_profile(self, built, benchmark):
        recorder = TelemetryRecorder(0)
        _, result = timed_run(built, recorder)
        profile = recorder.tracer.profile()
        benchmark.extra_info["spans"] = {
            name: profile[name]["calls"] for name in sorted(profile)
            if not name.startswith("op.")}
        benchmark.extra_info["events"] = len(recorder.events)
        benchmark(lambda: None)
        assert profile["execute"]["calls"] == result.execs
