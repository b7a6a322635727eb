//! Observability correctness (ISSUE 7): the `uflip_obs` layer must be
//! *accurate* — histogram quantiles within one log-bucket of the exact
//! `RunStats` percentiles, counters reconciling exactly with the
//! NAND/FTL ground-truth statistics — and *invisible* — attaching a
//! recording sink must not change a single simulated nanosecond.

use proptest::prelude::*;
use std::time::Duration;
use uflip::core::executor::execute_parallel;
use uflip::core::methodology::plan::BenchmarkPlan;
use uflip::core::micro::MicroConfig;
use uflip::core::replay::{replay_trace, replay_trace_observed, ReplayMode};
use uflip::core::{
    execute_plan, execute_plan_observed, full_suite, run_full_suite, IoPolicy, RunStats,
    SuiteOptions, Workload,
};
use uflip::device::profiles::catalog;
use uflip::device::BlockDevice;
use uflip::ftl::SECTOR_BYTES;
use uflip::obs::{bucket_width_at, CounterId, LatencyHistogram, Metrics, SinkHandle};
use uflip::patterns::{LbaFn, Mode, ParallelSpec, PatternSpec};
use uflip::trace::{Trace, TraceRecord};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// The exact type-7 bracketing order statistics for quantile `q` of
/// `sorted`: the percentile interpolates between these two samples.
fn bracket(sorted: &[u64], q: f64) -> (u64, u64) {
    let rank = (sorted.len() - 1) as f64 * q;
    (sorted[rank.floor() as usize], sorted[rank.ceil() as usize])
}

proptest! {
    /// Across arbitrary latency distributions — mantissas spread over
    /// seven orders of magnitude, so samples land in tiny and huge
    /// log buckets alike — the histogram quantile stays within one
    /// bucket width of the order statistic at its rank, and within
    /// one bucket width *plus the interpolation gap* of the exact
    /// linear-interpolated `RunStats` percentile. When the bracketing
    /// samples share a bucket the gap is below one width, so the
    /// bound degenerates to the headline "within one bucket" claim.
    #[test]
    fn histogram_quantiles_track_exact_percentiles(
        raw in prop::collection::vec(0u64..8000, 2..400),
    ) {
        // Decode each draw into mantissa × 10^exponent so the samples
        // span seven orders of magnitude in one distribution.
        let ns: Vec<u64> = raw
            .iter()
            .map(|&v| (v % 999 + 1) * 10u64.pow((v / 1000) as u32))
            .collect();
        let rts: Vec<Duration> = ns.iter().map(|&v| Duration::from_nanos(v)).collect();
        let exact = RunStats::from_rts(&rts).expect("non-empty");
        let hist = LatencyHistogram::new();
        for &v in &ns {
            hist.record(v);
        }
        let mut sorted = ns.clone();
        sorted.sort_unstable();
        for (q, truth) in [
            (0.5, exact.median),
            (0.95, exact.p95),
            (0.99, exact.p99),
        ] {
            let approx = hist.quantile(q);
            let (lo, hi) = bracket(&sorted, q);
            let width = bucket_width_at(lo).max(1);
            prop_assert!(
                approx.abs_diff(lo) <= width,
                "q{q}: {approx} vs order statistic {lo} (bucket width {width})"
            );
            let truth = truth.as_nanos() as u64;
            prop_assert!(
                approx.abs_diff(truth) <= width + (hi - lo),
                "q{q}: {approx} vs exact {truth} (width {width}, gap {})",
                hi - lo
            );
        }
        prop_assert_eq!(hist.count(), ns.len() as u64);
        prop_assert_eq!(hist.min(), sorted[0]);
        prop_assert_eq!(hist.max(), *sorted.last().expect("non-empty"));
    }
}

/// After a full nine-benchmark suite, every counter the sink
/// accumulated matches the device's own ground truth: NAND operation
/// counts, FTL host statistics, and the per-run latency populations.
///
/// State enforcement is disabled: obs counters are monotonic while
/// snapshot-served resets rewind the device's statistics, so only a
/// reset-free plan keeps the two views comparable end-to-end.
#[test]
fn suite_counters_reconcile_with_device_ground_truth() {
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 8;
    cfg.io_count_rw = 8;
    cfg.target_size = 2 * MB;
    let opts = SuiteOptions {
        enforce_state: false,
        ..SuiteOptions::default()
    };
    let mut dev = catalog::mtron().build_sim(0xF11B);
    let (metrics, sink) = Metrics::shared();
    let (_plan, result) = run_full_suite(dev.as_mut(), &cfg, &opts, &sink).expect("suite");

    let nand = dev.ftl().nand_stats();
    assert_eq!(metrics.counter(CounterId::PageReads), nand.page_reads);
    assert_eq!(metrics.counter(CounterId::PagePrograms), nand.page_programs);
    assert_eq!(metrics.counter(CounterId::BlockErases), nand.block_erases);
    assert_eq!(metrics.counter(CounterId::CopyBacks), nand.copy_backs);
    assert_eq!(
        metrics.counter(CounterId::DualPlanePrograms),
        nand.dual_plane_programs
    );
    assert_eq!(
        metrics.counter(CounterId::DualPlaneErases),
        nand.dual_plane_erases
    );

    let ftl = dev.ftl().stats();
    assert_eq!(metrics.counter(CounterId::HostReads), ftl.host_reads);
    assert_eq!(metrics.counter(CounterId::HostWrites), ftl.host_writes);
    assert_eq!(
        metrics.counter(CounterId::LogicalBytesWritten),
        ftl.sectors_written * SECTOR_BYTES
    );
    assert_eq!(
        metrics.counter(CounterId::LogicalBytesRead),
        ftl.sectors_read * SECTOR_BYTES
    );

    // Latency histograms hold exactly the measured (post-IOIgnore)
    // population every run's RunStats summarized.
    let measured: u64 = result
        .points
        .iter()
        .filter_map(|p| p.stats)
        .map(|s| s.count)
        .sum();
    let recorded: u64 = [
        uflip::obs::LatencyClass::Read,
        uflip::obs::LatencyClass::Write,
        uflip::obs::LatencyClass::Mixed,
    ]
    .iter()
    .map(|&c| metrics.latency(c).count())
    .sum();
    assert_eq!(recorded, measured);
    assert!(measured > 0, "suite measured nothing");
}

/// Attaching a *recording* sink must not shift a single simulated
/// nanosecond: same run result, same device afterwards, as the
/// default null-sink path.
#[test]
fn recording_sink_leaves_runs_fingerprint_identical() {
    let base = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 64);
    let spec = ParallelSpec::new(base, 4).with_queue_depth(4);

    let mut plain_dev = catalog::memoright().build_sim(7);
    let plain = execute_parallel(plain_dev.as_mut(), &spec).expect("plain run");

    let mut observed_dev = catalog::memoright().build_sim(7);
    let (metrics, sink) = Metrics::shared();
    let observed = Workload::Parallel(spec)
        .run(observed_dev.as_mut(), &IoPolicy::none(), &sink)
        .expect("observed run");

    assert_eq!(plain.rts, observed.rts);
    assert_eq!(plain.elapsed, observed.elapsed);
    assert_eq!(plain.io_ignore, observed.io_ignore);
    assert_eq!(
        plain_dev.ftl().nand_stats(),
        observed_dev.ftl().nand_stats()
    );
    // And the sink really recorded that identical run.
    let recorded = metrics.latency(uflip::obs::LatencyClass::Write).count();
    assert_eq!(
        recorded,
        (plain.rts.len() - plain.io_ignore as usize) as u64
    );
    assert!(metrics.counter(CounterId::HostWrites) > 0);

    // The null sink reports disabled, so instrumented layers skip
    // emission entirely — the documented zero-overhead default.
    assert!(!uflip::obs::ObsSink::is_enabled(&*SinkHandle::null()));
}

/// Every counter's current total, in `CounterId::ALL` order.
fn counters(metrics: &Metrics) -> Vec<u64> {
    CounterId::ALL
        .iter()
        .map(|&id| metrics.counter(id))
        .collect()
}

/// A 32-write trace for the sink-lifetime checks.
fn write_trace() -> Trace {
    let mut trace = Trace::new("sim", "RW");
    for i in 0..32u64 {
        trace.push(TraceRecord {
            op: Mode::Write,
            lba: i * 64,
            sectors: 32,
            submit_ns: i * 100_000,
            complete_ns: i * 100_000,
            queue_depth: 1,
        });
    }
    trace
}

/// Run `observed` with a fresh sink on a fresh device (it returns
/// whether it met its expected outcome), then `plain` on the same
/// device: the plain call must move none of the sink's counters.
fn assert_sink_detached(
    what: &str,
    observed: impl FnOnce(&mut dyn BlockDevice, &SinkHandle) -> bool,
    plain: impl FnOnce(&mut dyn BlockDevice),
) {
    let mut dev = catalog::mtron().build_sim(7);
    let (metrics, sink) = Metrics::shared();
    assert!(
        observed(dev.as_mut(), &sink),
        "{what}: observed call outcome"
    );
    let after = counters(&metrics);
    assert!(
        after.iter().any(|&c| c > 0),
        "{what}: the observed call recorded"
    );
    plain(dev.as_mut());
    assert_eq!(counters(&metrics), after, "{what}: plain call was observed");
}

/// A sink handed to an entry point lives only as long as the call: an
/// observed workload, replay or plan — or a replay that fails midway —
/// re-attaches the null sink before returning, so a plain run
/// afterwards moves none of the sink's counters.
#[test]
fn observed_entry_points_detach_their_sink_on_return() {
    let base = PatternSpec::baseline(LbaFn::Random, Mode::Write, 16 * KB, 8 * MB, 32);
    let par = ParallelSpec::new(base, 4).with_queue_depth(4);
    let trace = write_trace();
    let mode = ReplayMode::OpenLoop { queue_depth: 4 };
    assert_sink_detached(
        "workload",
        |d, sink| {
            Workload::Parallel(par)
                .run(d, &IoPolicy::none(), sink)
                .is_ok()
        },
        |d| {
            execute_parallel(d, &par).expect("plain run");
        },
    );
    assert_sink_detached(
        "replay",
        |d, sink| replay_trace_observed(d, &trace, mode, sink).is_ok(),
        |d| {
            replay_trace(d, &trace, mode).expect("plain replay");
        },
    );
    assert_sink_detached(
        "failed replay",
        |d, sink| {
            let mut past_end = write_trace();
            past_end.records[5].lba = d.capacity_bytes() / 512;
            replay_trace_observed(d, &past_end, mode, sink).is_err()
        },
        |d| {
            replay_trace(d, &trace, mode).expect("plain replay");
        },
    );
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 8;
    cfg.io_count_rw = 8;
    cfg.target_size = 2 * MB;
    let opts = SuiteOptions {
        enforce_state: false,
        ..SuiteOptions::default()
    };
    assert_sink_detached(
        "plan",
        |d, sink| {
            let plan = BenchmarkPlan::build(full_suite(&cfg), d.capacity_bytes());
            execute_plan_observed(d, &plan, &opts, sink).is_ok()
        },
        |d| {
            let plan = BenchmarkPlan::build(full_suite(&cfg), d.capacity_bytes());
            execute_plan(d, &plan, &opts).expect("plain plan");
        },
    );
}

/// An entry point without a sink never touches the device's: after
/// `set_sink`, a plain `execute_plan` — serial, or sharded across
/// forks of the device — still feeds the caller's sink, and both
/// feed it the same counts.
#[test]
fn plain_plan_keeps_the_callers_sink() {
    let profile = catalog::transcend_module();
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 8;
    cfg.io_count_rw = 8;
    // Windows past half the device force state resets, so the plan
    // has segments to shard.
    cfg.target_size = profile.sim_capacity_bytes() / 2 + MB;
    let plan = BenchmarkPlan::build(full_suite(&cfg), profile.sim_capacity_bytes());
    let recorded = |threads: usize| {
        let mut dev = profile.build_sim(11);
        let (metrics, sink) = Metrics::shared();
        dev.set_sink(sink);
        let opts = SuiteOptions {
            state_coverage: 0.5,
            threads,
            ..SuiteOptions::default()
        };
        let result = execute_plan(dev.as_mut(), &plan, &opts).expect("plan");
        assert!(result.resets >= 1, "plan must have segments to shard");
        let before = counters(&metrics);
        assert!(metrics.counter(CounterId::HostWrites) > 0);
        // The device's sink survives the plan for later plain runs too.
        replay_trace(dev.as_mut(), &write_trace(), ReplayMode::TimingFaithful).expect("replay");
        assert_ne!(counters(&metrics), before, "sink detached by the plan");
        before
    };
    assert_eq!(
        recorded(1),
        recorded(2),
        "forks report to the caller's sink"
    );
}
