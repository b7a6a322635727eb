//! Shared plumbing for the observed entry points
//! ([`crate::Workload::run`], [`crate::replay::replay_trace_with_policy`]
//! and [`crate::suite::execute_plan_observed`]).
//!
//! Each takes a [`uflip_obs::SinkHandle`]: it attaches the sink to the
//! device for the duration of the call (so NAND, FTL, queue and
//! host-IO counters flow from the layers below), re-attaches the null
//! sink before returning, and, after each run, records the run's
//! response times into the sink's latency histograms and emits a
//! per-workload counter delta ([`uflip_obs::WorkloadMetrics`] — host
//! IO, bytes programmed/erased, write amplification).
//!
//! The plain entry points pass [`SinkHandle::null`] and never touch the
//! device's sink, so the unobserved path stays the default and pays
//! nothing: one `is_enabled()` test per run, zero per IO (the per-IO
//! guards live in the instrumented layers and are cached `bool`s).
//! Response times recorded here are exactly the ones the run's
//! [`crate::RunStats`] summarizes — the running phase, after the
//! `io_ignore` warm-up prefix — so histogram quantiles and exact
//! percentiles describe the same population.

use crate::run::RunResult;
use uflip_obs::{CounterSnapshot, LatencyClass, SinkHandle, WorkloadMetrics};

/// Read the sink's current counter totals.
pub(crate) fn counters_now(sink: &SinkHandle) -> CounterSnapshot {
    let mut snap = CounterSnapshot::new();
    sink.counters(&mut snap);
    snap
}

/// Emit a per-workload metrics record from the counter movement since
/// `before` (captured with [`counters_now`] just before the run).
pub(crate) fn emit_workload_delta(sink: &SinkHandle, label: &str, before: &CounterSnapshot) {
    let after = counters_now(sink);
    sink.workload(label, WorkloadMetrics::from_delta(&after.since(before)));
}

/// Record a run's running-phase response times (the same slice
/// [`RunResult::summary`] summarizes) under one latency class.
pub(crate) fn record_run_latencies(sink: &SinkHandle, class: LatencyClass, run: &RunResult) {
    let start = (run.io_ignore as usize).min(run.rts.len());
    for rt in &run.rts[start..] {
        sink.latency(class, rt.as_nanos() as u64);
    }
}
