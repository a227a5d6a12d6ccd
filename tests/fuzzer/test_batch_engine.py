"""Batched-vs-serial engine equivalence (the batch equivalence contract).

``batch_execution`` is an execution strategy, not a semantic change:
with the same config and RNG seed, the batched and serial engines must
produce bit-identical campaigns — same executions, same admitted corpus,
same coverage curves, same charged cycles, same crash/hang records, and
byte-identical checkpoints. DESIGN.md documents why this holds; these
tests pin it.
"""

import numpy as np
import pytest

from repro.fuzzer import Campaign, CampaignConfig, run_campaign
from repro.target import get_benchmark


def _config(fuzzer, benchmark, *, batch, rng_seed=3, **overrides):
    base = dict(benchmark=benchmark, fuzzer=fuzzer, map_size=1 << 16,
                scale=0.2, seed_scale=1.0, virtual_seconds=0.5,
                max_real_execs=3_000, rng_seed=rng_seed,
                batch_execution=batch)
    base.update(overrides)
    return CampaignConfig(**base)


def _assert_seeds_equal(a, b):
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.seed_id == sb.seed_id
        assert sa.data == sb.data
        assert sa.exec_cycles == sb.exec_cycles
        assert sa.coverage_hash == sb.coverage_hash
        assert np.array_equal(sa.covered_locations, sb.covered_locations)
        assert sa.depth == sb.depth
        assert sa.found_at == sb.found_at
        assert sa.parent_id == sb.parent_id
        assert sa.favored == sb.favored
        assert sa.fuzzed == sb.fuzzed


def assert_checkpoints_equal(a, b):
    assert a.clock_cycles == b.clock_cycles
    assert a.execs == b.execs
    assert a.hangs == b.hangs
    assert a.unique_hangs == b.unique_hangs
    assert a.next_seed_id == b.next_seed_id
    assert a.rng_state == b.rng_state
    _assert_seeds_equal(a.seeds, b.seeds)
    assert a.top_rated == b.top_rated
    assert a.scheduler_cursor == b.scheduler_cursor
    assert a.queue_cycles == b.queue_cycles
    assert np.array_equal(a.virgin, b.virgin)
    assert a.crash_records.keys() == b.crash_records.keys()
    assert np.array_equal(a.afl_crash_virgin, b.afl_crash_virgin)
    assert a.afl_unique_crashes == b.afl_unique_crashes
    assert np.array_equal(a.tmout_virgin, b.tmout_virgin)
    assert a.tmout_unique_crashes == b.tmout_unique_crashes
    assert a.op_cycles == b.op_cycles
    assert a.coverage_curve == b.coverage_curve
    assert a.next_sample == b.next_sample
    assert a.telemetry_state == b.telemetry_state
    assert a.coverage_state.keys() == b.coverage_state.keys()
    for key in a.coverage_state:
        va, vb = a.coverage_state[key], b.coverage_state[key]
        if key == "touched":
            assert len(va) == len(vb)
            for ta, tb in zip(va, vb):
                assert np.array_equal(ta, tb)
        elif isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), key
        else:
            assert va == vb, key


def _run_pair(fuzzer, benchmark, **overrides):
    built = get_benchmark(benchmark).build(scale=0.2, seed_scale=1.0)
    serial = Campaign(_config(fuzzer, benchmark, batch=False,
                              **overrides), built=built)
    batched = Campaign(_config(fuzzer, benchmark, batch=True,
                               **overrides), built=built)
    rs = serial.run()
    rb = batched.run()
    return serial, batched, rs, rb


@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
@pytest.mark.parametrize("bench", ["zlib", "libpng"])
class TestBatchSerialEquivalence:
    def test_results_bit_identical(self, fuzzer, bench):
        serial, batched, rs, rb = _run_pair(fuzzer, bench)
        assert rs.execs == rb.execs
        assert rs.virtual_seconds == rb.virtual_seconds
        assert rs.corpus == rb.corpus
        assert rs.coverage_curve == rb.coverage_curve
        assert rs.crash_curve == rb.crash_curve
        assert rs.op_cycles == rb.op_cycles
        assert rs.discovered_locations == rb.discovered_locations
        assert rs.used_key == rb.used_key
        assert rs.unique_crashes == rb.unique_crashes
        assert rs.afl_unique_crashes == rb.afl_unique_crashes
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.interesting_execs == rb.interesting_execs
        assert rs.stopped_by == rb.stopped_by
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())

    def test_work_was_actually_found(self, fuzzer, bench):
        """Guard against vacuous equivalence: the workload must admit
        seeds (and exercise crash handling on libpng)."""
        _, _, rs, _ = _run_pair(fuzzer, bench)
        assert len(rs.corpus) > len(
            get_benchmark(bench).build(scale=0.2,
                                       seed_scale=1.0).seeds)


class TestBatchCoversDispatchPaths:
    def test_crash_dispatch_reached_and_identical(self):
        """The pair run must exercise crash triage — otherwise the
        equivalence above never tested the replay dispatch."""
        serial, batched, rs, rb = _run_pair(
            "bigmap", "zlib", rng_seed=1, virtual_seconds=1.0,
            max_real_execs=4_000)
        assert rs.unique_crashes > 0
        assert rs.unique_crashes == rb.unique_crashes
        assert rs.crash_curve == rb.crash_curve
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_hang_dispatch_reached_and_identical(self, fuzzer):
        """A tight hang budget forces the timeout path: the batched
        engine must predict hangs from the cheap-path cycle totals and
        replay them, matching the serial engine's verdicts exactly."""
        serial, batched, rs, rb = _run_pair(
            fuzzer, "zlib", rng_seed=2, hang_factor=1.5)
        assert rs.hangs > 0
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.corpus == rb.corpus
        assert rs.op_cycles == rb.op_cycles
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())


class TestBatchedTelemetryIdentity:
    def test_span_profile_and_events_match_serial(self):
        """Telemetry is part of the equivalence contract: the batched
        engine deposits the same per-exec span calls (execute,
        classify_compare, cost_eval) and emits the same event stream
        the scalar pipeline records."""
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        profiles, events, results, registries = [], [], [], []
        for batch in (False, True):
            recorder = TelemetryRecorder(instance=0)
            result = Campaign(_config("bigmap", "zlib", batch=batch),
                              built=built, telemetry=recorder).run()
            profiles.append(recorder.tracer.profile())
            events.append(recorder.events)
            results.append(result)
            registries.append(recorder.registry.snapshot())
        assert results[0] == results[1]
        assert profiles[0] == profiles[1]
        assert events[0] == events[1]
        assert registries[0] == registries[1]
        # The memsim.share histograms saw one observation per exec.
        for level in ("core", "l1d", "l2", "llc", "dram", "tlb"):
            assert registries[1]["memsim.share." + level]["total"] == \
                results[1].execs, level
        execs = results[0].execs
        for name in ("execute", "classify_compare", "cost_eval"):
            assert profiles[1][name]["calls"] == execs, name


def _draw_sweep_combos(n, seed=0xB16):
    """Seeded random draws over (fuzzer, benchmark, map_size,
    rng_seed) — a different slice of the config space than the fixed
    cases above, but reproducible run to run."""
    rng = np.random.Generator(np.random.PCG64(seed))
    fuzzers = ("afl", "bigmap")
    benchmarks = ("zlib", "libpng")
    map_sizes = (1 << 14, 1 << 16, 1 << 18)
    combos, seen = [], set()
    while len(combos) < n:
        combo = (fuzzers[rng.integers(len(fuzzers))],
                 benchmarks[rng.integers(len(benchmarks))],
                 map_sizes[rng.integers(len(map_sizes))],
                 int(rng.integers(0, 1000)))
        if combo not in seen:
            seen.add(combo)
            combos.append(combo)
    return combos


SWEEP_COMBOS = _draw_sweep_combos(6)


@pytest.mark.parametrize(
    "fuzzer,bench,map_size,rng_seed", SWEEP_COMBOS,
    ids=[f"{f}-{b}-{m >> 10}k-s{s}" for f, b, m, s in SWEEP_COMBOS])
class TestRandomizedCrossConfigSweep:
    """The equivalence contract over randomly-drawn configurations:
    the fixed cases above pin known-tricky spots, this sweep guards
    the rest of the (fuzzer, benchmark, map_size, rng_seed) space.
    Draws are seeded, so a failing combo reproduces by name."""

    def test_results_checkpoints_and_telemetry_identical(
            self, fuzzer, bench, map_size, rng_seed):
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark(bench).build(scale=0.2, seed_scale=1.0)
        campaigns, results, events, profiles, registries = \
            [], [], [], [], []
        for batch in (False, True):
            recorder = TelemetryRecorder(instance=0)
            campaign = Campaign(
                _config(fuzzer, bench, batch=batch,
                        map_size=map_size, rng_seed=rng_seed),
                built=built, telemetry=recorder)
            results.append(campaign.run())
            campaigns.append(campaign)
            events.append(recorder.events)
            profiles.append(recorder.tracer.profile())
            registries.append(recorder.registry.snapshot())
        rs, rb = results
        assert rs == rb
        assert events[0] == events[1]
        assert profiles[0] == profiles[1]
        assert registries[0] == registries[1]
        assert_checkpoints_equal(campaigns[0].snapshot(),
                                 campaigns[1].snapshot())


class _WindowRecordingCampaign(Campaign):
    """Records how many seeds each collected window actually held."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window_sizes = []

    def _collect_window(self):
        window = super()._collect_window()
        if window is not None:
            self.window_sizes.append(len(window[1]))
        return window


@pytest.mark.parametrize("window", [2, 5, 8])
@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
class TestCrossSeedWindowEquivalence:
    """``batch_window`` is a semantic scheduling knob shared by both
    engines: for any window width the serial and batched engines must
    stay bit-identical (the cross-seed generalization of the
    equivalence contract)."""

    def test_results_and_checkpoints_identical(self, fuzzer, window):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        serial = _WindowRecordingCampaign(
            _config(fuzzer, "zlib", batch=False, batch_window=window),
            built=built)
        batched = _WindowRecordingCampaign(
            _config(fuzzer, "zlib", batch=True, batch_window=window),
            built=built)
        rs, rb = serial.run(), batched.run()
        # Guard against vacuous equivalence: the campaign must really
        # have scheduled multi-seed windows, on both engines.
        assert max(serial.window_sizes) > 1
        assert serial.window_sizes == batched.window_sizes
        assert rs == rb
        assert_checkpoints_equal(serial.snapshot(), batched.snapshot())


class TestCrossSeedHangAttribution:
    """Regression: hang prediction in a cross-seed mega-batch is
    per-trace and charged to the owning seed's portion. A tight hang
    budget plus multi-seed windows exercises predicted hangs landing in
    interior portions of the batch; every hang verdict, cycle charge
    and admitted seed's parentage must match the serial engine."""

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_hangs_attributed_identically_across_windows(self, fuzzer):
        serial, batched, rs, rb = _run_pair(
            fuzzer, "zlib", rng_seed=2, hang_factor=1.5,
            batch_window=5)
        assert rs.hangs > 0
        assert rs.hangs == rb.hangs
        assert rs.unique_hangs == rb.unique_hangs
        assert rs.op_cycles == rb.op_cycles
        sa, sb = serial.snapshot(), batched.snapshot()
        # The attribution fields specifically: every admitted seed's
        # cycle charge, parent and depth (checked field-by-field inside
        # the full checkpoint comparison).
        _assert_seeds_equal(sa.seeds, sb.seeds)
        assert_checkpoints_equal(sa, sb)


class TestMPBackendEquivalence:
    """The shared-memory process-pool backend is a pure execution
    strategy: results, checkpoints and telemetry must be bit-identical
    to the in-process batched engine for any worker count."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_checkpoints_telemetry_identical(self, workers):
        from repro.fuzzer.mp import MPCampaign
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("bigmap", "zlib", batch=True, batch_window=8)

        ref_recorder = TelemetryRecorder(instance=0)
        reference = Campaign(config, built=built,
                             telemetry=ref_recorder)
        ref_result = reference.run()

        mp_recorder = TelemetryRecorder(instance=0)
        with MPCampaign(config, built=built, telemetry=mp_recorder,
                        workers=workers) as campaign:
            mp_result = campaign.run()
            mp_snapshot = campaign.snapshot()

        assert ref_result == mp_result
        assert ref_recorder.events == mp_recorder.events
        assert ref_recorder.tracer.profile() == \
            mp_recorder.tracer.profile()
        assert ref_recorder.registry.snapshot() == \
            mp_recorder.registry.snapshot()
        assert_checkpoints_equal(reference.snapshot(), mp_snapshot)

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_matches_the_serial_engine_too(self, fuzzer):
        """Transitivity spot-check straight against serial — the
        contract chains serial ≡ batched ≡ mp."""
        from repro.fuzzer.mp import MPCampaign
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        serial = Campaign(_config(fuzzer, "zlib", batch=False,
                                  batch_window=4), built=built)
        rs = serial.run()
        with MPCampaign(_config(fuzzer, "zlib", batch=True,
                                batch_window=4), built=built,
                        workers=2) as campaign:
            rmp = campaign.run()
            mp_snapshot = campaign.snapshot()
        assert rs == rmp
        assert_checkpoints_equal(serial.snapshot(), mp_snapshot)

    def test_rejects_serial_config(self):
        from repro.core.errors import CampaignConfigError
        from repro.fuzzer.mp import MPCampaign
        with pytest.raises(CampaignConfigError, match="batch_execution"):
            MPCampaign(_config("bigmap", "zlib", batch=False))
        with pytest.raises(CampaignConfigError, match="workers"):
            MPCampaign(_config("bigmap", "zlib", batch=True), workers=0)


class TestMPWorkerLoss:
    """SIGKILL of a worker costs one shard, not the campaign: the
    parent recomputes the lost shard from the draws it holds, reports
    the loss, and finishes in-process on the same results."""

    @staticmethod
    def _killing_campaign(config, built, recorder, kill_at, victim):
        import os
        import signal
        from repro.fuzzer.mp import MPCampaign

        class Killing(MPCampaign):
            windows = 0

            def _batch_front(self, window):
                if self.windows == kill_at:
                    if not self._procs:
                        self._start_workers()
                    proc = self._procs[victim]
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=10)
                    assert not proc.is_alive()
                self.windows += 1
                return super()._batch_front(window)

        return Killing(config, built=built, telemetry=recorder, workers=2)

    @pytest.mark.parametrize("kill_at,victim",
                             [(0, 0), (1, 1), (4, 0), (9, 1)])
    def test_results_match_in_process_campaign(self, kill_at, victim):
        from repro.telemetry.events import validate_stream
        from repro.telemetry.recorder import TelemetryRecorder
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("bigmap", "zlib", batch=True, batch_window=2)
        ref_recorder = TelemetryRecorder(instance=0)
        reference = Campaign(config, built=built, telemetry=ref_recorder)
        expected = reference.run()

        recorder = TelemetryRecorder(instance=0)
        with self._killing_campaign(config, built, recorder, kill_at,
                                    victim) as campaign:
            result = campaign.run()
            assert campaign.windows > kill_at, "kill never happened"
            assert campaign._in_process and not campaign._procs
            snapshot = campaign.snapshot()

        assert result == expected
        events = validate_stream(recorder.events)
        lost = [e for e in events if e["kind"] == "worker_lost"]
        assert len(lost) == 1
        assert lost[0]["worker"] == victim and lost[0]["rows"] > 0
        assert [e for e in events if e["kind"] != "worker_lost"] == \
            ref_recorder.events
        mine, theirs = reference.snapshot(), snapshot
        mine.telemetry_state = theirs.telemetry_state = None
        assert_checkpoints_equal(mine, theirs)

    def test_workers_dying_mid_window(self):
        """Every worker exits while computing the third window's front:
        the parent reads EOF on each pipe and computes both shards."""
        import os
        from repro.fuzzer.mp import MPCampaign
        from repro.telemetry.recorder import TelemetryRecorder
        parent = os.getpid()

        class Crashing(MPCampaign):
            fronts = 0

            def _front_of(self, batch):
                if os.getpid() != parent:
                    self.fronts += 1
                    if self.fronts == 3:
                        os._exit(3)
                return super()._front_of(batch)

        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("bigmap", "zlib", batch=True, batch_window=2)
        expected = Campaign(config, built=built).run()
        recorder = TelemetryRecorder(instance=0)
        with Crashing(config, built=built, telemetry=recorder,
                      workers=2) as campaign:
            result = campaign.run()
            assert campaign._in_process
        assert result == expected
        lost = [e for e in recorder.events if e["kind"] == "worker_lost"]
        assert [e["worker"] for e in lost] == [0, 1]
        assert all("EOFError" in e["reason"] for e in lost)


class TestCheckpointResumeSweep:
    """Kill-at-every-tick: snapshot a straight-through campaign at
    several mid-campaign virtual times and resume each checkpoint —
    under the same backend and across backends — to the end. Every
    resumed final must be bit-identical to the straight run. Windows
    never outlive a ``step_until`` call, so a checkpoint taken between
    ticks only ever sees fully drained windows; this sweep is the
    regression net for resume inside a cross-seed scheduling regime."""

    TICKS = (0.1, 0.2, 0.3, 0.4)

    def _straight_run(self, campaign_factory, config):
        straight = campaign_factory(config)
        straight.start()
        checkpoints = []
        for tick in self.TICKS:
            straight.step_until(tick)
            checkpoints.append(straight.snapshot())
        straight.step_until(config.virtual_seconds)
        final = straight.finish()
        final_snapshot = straight.snapshot()
        self._close(straight)
        return checkpoints, final, final_snapshot

    @staticmethod
    def _close(campaign):
        if hasattr(campaign, "close"):
            campaign.close()

    def _resume_and_check(self, campaign_factory, config, tick_index,
                          checkpoint, final, final_snapshot):
        # A deadline stop is semantic (it discards the rest of a drawn
        # window), so the resumed campaign replays the driver's
        # remaining tick schedule, exactly as a restarted driver would.
        resumed = campaign_factory(config)
        resumed.start()
        resumed.restore(checkpoint)
        for tick in self.TICKS[tick_index + 1:]:
            resumed.step_until(tick)
        resumed.step_until(config.virtual_seconds)
        replay = resumed.finish()
        snapshot = resumed.snapshot()
        self._close(resumed)
        assert final == replay
        assert_checkpoints_equal(final_snapshot, snapshot)

    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_every_tick_resumes_identically_in_process(self, fuzzer):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib", batch=True, batch_window=5)
        factory = lambda cfg: Campaign(cfg, built=built)
        checkpoints, final, final_snapshot = self._straight_run(
            factory, config)
        for k, checkpoint in enumerate(checkpoints):
            self._resume_and_check(factory, config, k, checkpoint,
                                   final, final_snapshot)

    def test_every_tick_resumes_identically_across_backends(self):
        """A checkpoint is backend-agnostic: snapshots from the
        in-process engine resume under the mp backend and vice versa,
        landing on the same finals."""
        from repro.fuzzer.mp import MPCampaign
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config("bigmap", "zlib", batch=True, batch_window=5)
        inproc = lambda cfg: Campaign(cfg, built=built)
        mp = lambda cfg: MPCampaign(cfg, built=built, workers=2)

        checkpoints, final, final_snapshot = self._straight_run(
            inproc, config)
        for k, checkpoint in enumerate(checkpoints):
            self._resume_and_check(mp, config, k, checkpoint,
                                   final, final_snapshot)

        mp_checkpoints, mp_final, mp_final_snapshot = \
            self._straight_run(mp, config)
        assert final == mp_final
        for k, checkpoint in enumerate(mp_checkpoints):
            self._resume_and_check(inproc, config, k, checkpoint,
                                   mp_final, mp_final_snapshot)


class TestBatchedCheckpointResume:
    @pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
    def test_resume_replays_identically(self, fuzzer):
        built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
        config = _config(fuzzer, "zlib", batch=True)
        straight = Campaign(config, built=built)
        straight.start()
        straight.step_until(0.25)
        mid = straight.snapshot()
        straight.step_until(config.virtual_seconds)
        final = straight.finish()

        resumed = Campaign(config, built=built)
        resumed.start()
        resumed.restore(mid)
        resumed.step_until(config.virtual_seconds)
        replay = resumed.finish()

        assert final.execs == replay.execs
        assert final.corpus == replay.corpus
        assert final.coverage_curve == replay.coverage_curve
        assert final.op_cycles == replay.op_cycles
        assert_checkpoints_equal(straight.snapshot(), resumed.snapshot())


class _SweepRecordingCampaign(Campaign):
    """Records every cheap-run sweep as ``(traces charged, curve
    samples recorded inside it, exhausted)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sweeps = []

    def _charge_cheap_run(self, *args):
        samples = len(self.coverage_curve)
        done, exhausted = super()._charge_cheap_run(*args)
        self.sweeps.append(
            (done, len(self.coverage_curve) - samples, exhausted))
        return done, exhausted


def _telemetry_campaign(fuzzer, *, batch, **overrides):
    from repro.telemetry.recorder import TelemetryRecorder
    built = get_benchmark("zlib").build(scale=0.2, seed_scale=1.0)
    return _SweepRecordingCampaign(
        _config(fuzzer, "zlib", batch=batch, **overrides), built=built,
        telemetry=TelemetryRecorder(instance=0))


def _drive(campaign, ticks):
    campaign.start()
    for tick in ticks:
        campaign.step_until(tick)
    return campaign.finish()


def _assert_telemetry_identical(serial, batched):
    ts, tb = serial.telemetry, batched.telemetry
    assert ts.events == tb.events
    assert ts.tracer.profile() == tb.tracer.profile()
    assert ts.registry.snapshot() == tb.registry.snapshot()
    assert_checkpoints_equal(serial.snapshot(), batched.snapshot())


@pytest.mark.parametrize("fuzzer", ["afl", "bigmap"])
class TestTelemetrySweepBoundaries:
    """Where a telemetry-on cheap-run sweep stops early: at curve
    samples (it splits there), at the virtual deadline and at the exec
    cap. Each must leave the events, span profile, registry and
    checkpoint of the serial per-trace engine; a checkpoint resume must
    flush the same artifact bytes as an uninterrupted run."""

    def test_run_crossing_several_curve_samples(self, fuzzer):
        """A dense curve grid puts several samples inside one cheap
        run; each snapshot event must carry the ``execs`` reached at
        the trace that crossed its sample, as the per-trace loop
        records them."""
        serial = _telemetry_campaign(fuzzer, batch=False,
                                     curve_points=1000)
        batched = _telemetry_campaign(fuzzer, batch=True,
                                      curve_points=1000)
        rs, rb = serial.run(), batched.run()
        assert max(samples for _, samples, _ in batched.sweeps) >= 2
        assert rs == rb
        _assert_telemetry_identical(serial, batched)

    def test_run_cut_by_virtual_deadline(self, fuzzer):
        ticks = (0.13, 0.29, 0.5)
        serial = _telemetry_campaign(fuzzer, batch=False,
                                     max_real_execs=100_000)
        batched = _telemetry_campaign(fuzzer, batch=True,
                                      max_real_execs=100_000)
        rs, rb = _drive(serial, ticks), _drive(batched, ticks)
        assert rb.stopped_by == "budget"
        cut = [done for done, _, exhausted in batched.sweeps if exhausted]
        assert len(cut) >= 2 and any(cut), batched.sweeps
        assert rs == rb
        _assert_telemetry_identical(serial, batched)

    def test_run_cut_by_exec_cap(self, fuzzer):
        serial = _telemetry_campaign(fuzzer, batch=False,
                                     max_real_execs=1_237)
        batched = _telemetry_campaign(fuzzer, batch=True,
                                      max_real_execs=1_237)
        rs, rb = serial.run(), batched.run()
        assert rb.stopped_by == "execs" and rb.execs == 1_237
        done, _, exhausted = batched.sweeps[-1]
        assert exhausted and done > 0
        assert rs == rb
        _assert_telemetry_identical(serial, batched)

    def test_resume_flushes_byte_identical_artifacts(self, fuzzer,
                                                     tmp_path):
        cut, end = 0.2, 0.5
        straight = _telemetry_campaign(fuzzer, batch=True)
        _drive(straight, (cut, end))
        straight.telemetry.flush(str(tmp_path / "straight"))

        first = _telemetry_campaign(fuzzer, batch=True)
        first.start()
        first.step_until(cut)
        checkpoint = first.snapshot()
        resumed = _telemetry_campaign(fuzzer, batch=True)
        resumed.start()
        resumed.restore(checkpoint)
        resumed.step_until(end)
        resumed.finish()
        resumed.telemetry.flush(str(tmp_path / "resumed"))

        names = sorted(p.name for p in (tmp_path / "straight").iterdir())
        assert {"metrics.json", "events.jsonl", "plot_data"} <= set(names)
        assert names == sorted(
            p.name for p in (tmp_path / "resumed").iterdir())
        for name in names:
            assert (tmp_path / "straight" / name).read_bytes() == \
                (tmp_path / "resumed" / name).read_bytes(), name
        assert_checkpoints_equal(straight.snapshot(), resumed.snapshot())
