//! # uflip-obs — zero-overhead observability for the IO stack
//!
//! The paper explains device behaviour from *externally observed*
//! response times; Flashmon-style flash monitoring (PAPERS.md) shows
//! how much more you learn by watching the internals. This crate is
//! the substrate for that: every layer of the stack — NAND array, FTL,
//! device, executor — emits events into an [`ObsSink`], and a
//! recording sink turns them into counters, latency histograms and
//! per-channel utilization timelines.
//!
//! ## Zero overhead when disabled
//!
//! The default sink is [`NullSink`]: every [`ObsSink`] method is an
//! empty default, and instrumented components cache
//! `sink.is_enabled()` in a plain `bool` at attach time, so the
//! disabled hot path is a single predictable branch — no virtual call,
//! no atomic, no allocation. Crucially the sink **never touches
//! simulated time**: attaching or detaching a sink cannot change any
//! measured result, only observe it (`BENCH_sim.json` fingerprints are
//! identical with or without one — see `tests/observability.rs`).
//!
//! ## Pieces
//!
//! * [`CounterId`] / [`ShardedCounters`] — monotonic event counters
//!   (erases, programs, merge kinds, queue events, host IOs, bytes),
//!   sharded across cache-line-padded atomic slots so concurrent
//!   emitters (the sharded suite executor, the threaded IO queue) do
//!   not contend.
//! * [`LatencyHistogram`] — HDR-style log-bucketed histogram: fixed
//!   atomic arrays, no allocation on the record path, quantiles
//!   accurate to one bucket width (≤ 1/16 relative error).
//! * [`ChannelUtilization`] — fixed-bin busy-time timeline per
//!   channel; the bin width doubles when a run outgrows the window.
//! * [`ObsSink`] / [`SinkHandle`] — the trait every layer emits into,
//!   and the cloneable attach handle threaded from bench bins down to
//!   the NAND array.
//! * [`Metrics`] / [`MetricsSnapshot`] — the recording sink and its
//!   versioned JSON snapshot (written by every bench bin's
//!   `--metrics PATH` flag, rendered by `uflip_report::obs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod counter;
pub mod histogram;
pub mod metrics;
pub mod sink;

pub use channel::{ChannelTimeline, ChannelUtilization, UtilizationSnapshot, UTIL_BINS};
pub use counter::{CounterId, CounterSnapshot, ShardedCounters};
pub use histogram::{bucket_width_at, HistogramBucket, HistogramSnapshot, LatencyHistogram};
pub use metrics::{CounterEntry, LatencySnapshot, Metrics, MetricsSnapshot, WorkloadSnapshot};
pub use sink::{LatencyClass, NullSink, ObsSink, SinkHandle, WorkloadMetrics};

/// Schema version stamped into every [`MetricsSnapshot`].
pub const SNAPSHOT_VERSION: u32 = 1;
