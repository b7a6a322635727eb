//! The benchmark's three workloads: how each device and input is
//! prepared, what one timed pass runs, and the fingerprint that proves
//! two passes simulated the same thing.

use std::sync::{Arc, Mutex};
use std::time::Duration;
use uflip_core::methodology::plan::{BenchmarkPlan, PlanStep};
use uflip_core::methodology::state::enforce_random_state;
use uflip_core::micro::MicroConfig;
use uflip_core::replay::{replay_trace_observed, ReplayMode};
use uflip_core::suite::{execute_plan_observed, full_suite, SuiteOptions, SuiteResult};
use uflip_core::{RunResult, Workload as PlanWorkload};
use uflip_device::profiles::catalog;
use uflip_device::{BlockDevice, DeviceProfile, SimDevice, SimSnapshot};
use uflip_obs::{LatencyClass, ObsSink, SinkHandle};
use uflip_trace::{BtreeMixConfig, PageLoggingConfig, Trace};

/// Seed used when `--seed` is not given; the committed fingerprints are
/// for this seed.
pub const DEFAULT_SEED: u64 = 42;

const MB: u64 = 1024 * 1024;

/// §4.1 state enforcement, shared by every workload: random writes of
/// 0.5–128 KB covering twice the capacity, then 5 s of idle.
pub const ENFORCE_MAX_IO: u64 = 128 * 1024;
pub const ENFORCE_COVERAGE: f64 = 2.0;
pub const ENFORCE_SEED: u64 = 0xF11B;
pub const SETTLE: Duration = Duration::from_secs(5);

/// Jitter seed of the replay devices (the suite uses
/// `SuiteOptions::default().seed`).
const REPLAY_DEVICE_SEED: u64 = 7;

/// Tree or log operations per replay trace.
const REPLAY_OPS: u64 = 200_000;

const REPLAY_MODE: ReplayMode = ReplayMode::OpenLoop { queue_depth: 16 };

/// Fingerprints of the default seed, committed beside the benchmark.
const COMMITTED: &str = include_str!("../fingerprints.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OltpReplay,
    PagelogReplay,
    UflipSuite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OltpReplay,
        Workload::PagelogReplay,
        Workload::UflipSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OltpReplay => "oltp_replay",
            Workload::PagelogReplay => "pagelog_replay",
            Workload::UflipSuite => "uflip_suite",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn profile(self) -> DeviceProfile {
        match self {
            Workload::OltpReplay => catalog::memoright(),
            Workload::PagelogReplay => catalog::samsung(),
            Workload::UflipSuite => catalog::kingston_dti(),
        }
    }

    /// Seed of the simulated device's service-time jitter.
    pub fn device_seed(self) -> u64 {
        match self {
            Workload::UflipSuite => SuiteOptions::default().seed,
            _ => REPLAY_DEVICE_SEED,
        }
    }

    pub fn is_replay(self) -> bool {
        self != Workload::UflipSuite
    }

    /// The committed fingerprint for [`DEFAULT_SEED`], if any.
    pub fn committed_fingerprint(self) -> Option<u64> {
        COMMITTED
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .find(|(name, _)| *name == self.name())
            .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
    }
}

/// A replay workload's trace generator.
#[derive(Debug, Clone, Copy)]
pub enum TraceGen {
    Btree(BtreeMixConfig),
    PageLog(PageLoggingConfig),
}

impl TraceGen {
    pub fn for_workload(w: Workload, seed: u64) -> Option<TraceGen> {
        match w {
            Workload::OltpReplay => Some(TraceGen::Btree(BtreeMixConfig::oltp(
                0,
                256 * MB,
                REPLAY_OPS,
                seed,
            ))),
            Workload::PagelogReplay => Some(TraceGen::PageLog(PageLoggingConfig::checkpointing(
                0,
                32 * MB,
                32 * MB,
                128 * MB,
                REPLAY_OPS,
                seed,
            ))),
            Workload::UflipSuite => None,
        }
    }

    pub fn generate(&self) -> Trace {
        match self {
            TraceGen::Btree(c) => c.generate(),
            TraceGen::PageLog(c) => c.generate(),
        }
    }
}

/// The paper's nine micro-benchmarks at low-end settings, planned for a
/// device of `capacity` bytes.
pub fn suite_plan(seed: u64, capacity: u64) -> BenchmarkPlan {
    let mut cfg = MicroConfig::paper_low_end();
    cfg.seed = seed;
    BenchmarkPlan::build(full_suite(&cfg), capacity)
}

/// Every run step of `plan` with its workload moved to the planned
/// offset, in execution order.
pub fn plan_workloads(plan: &BenchmarkPlan) -> impl Iterator<Item = PlanWorkload> + '_ {
    plan.steps.iter().filter_map(|s| match s {
        PlanStep::Run {
            experiment,
            point,
            offset,
        } => Some(
            plan.experiments[*experiment].points[*point]
                .workload
                .relocated(*offset),
        ),
        _ => None,
    })
}

/// Drain one workload's IO generator without a device; returns the IO
/// count.
pub fn drain(w: &PlanWorkload) -> u64 {
    let ios = match w {
        PlanWorkload::Basic(s) => s.iter().map(std::hint::black_box).count(),
        PlanWorkload::Mixed(m) => m.iter().map(std::hint::black_box).count(),
        PlanWorkload::Parallel(p) => p.iter().map(std::hint::black_box).count(),
    };
    ios as u64
}

/// Bring a device to the §4.1 random state and let it settle.
pub fn enforce_state(dev: &mut dyn BlockDevice) -> Result<(), String> {
    enforce_random_state(dev, ENFORCE_MAX_IO, ENFORCE_COVERAGE, ENFORCE_SEED)
        .map_err(|e| format!("state enforcement: {e}"))?;
    dev.idle(SETTLE);
    Ok(())
}

pub enum Input {
    Trace(Trace),
    Plan(BenchmarkPlan),
}

/// A prepared workload: the device, the snapshot every pass starts
/// from, and the input.
pub struct Prepared {
    pub dev: Box<SimDevice>,
    pub snapshot: SimSnapshot,
    pub input: Input,
}

/// Prepare `w`. Replays: build the device, enforce and settle the §4.1
/// state, generate the trace and round-trip it through the binary
/// format, snapshot. Suite: build the device and the plan, snapshot
/// (`execute_plan` enforces the state itself).
pub fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
    let profile = w.profile();
    match TraceGen::for_workload(w, seed) {
        Some(gen) => {
            let mut dev = profile.build_sim(w.device_seed());
            enforce_state(dev.as_mut())?;
            let trace = gen.generate();
            let decoded = Trace::from_binary(&trace.to_binary())
                .map_err(|e| format!("binary trace round trip: {e}"))?;
            if decoded != trace {
                return Err("binary trace round trip changed the trace".into());
            }
            let snapshot = dev.snapshot();
            Ok(Prepared {
                dev,
                snapshot,
                input: Input::Trace(decoded),
            })
        }
        None => {
            let dev = profile.build_sim(w.device_seed());
            let plan = suite_plan(seed, profile.sim_capacity_bytes());
            let snapshot = dev.snapshot();
            Ok(Prepared {
                dev,
                snapshot,
                input: Input::Plan(plan),
            })
        }
    }
}

/// What one pass simulated.
pub struct PassOutcome {
    /// Measured IOs (trace records, or plan IOs).
    pub ios: u64,
    pub fingerprint: u64,
    /// Simulated device time of the pass.
    pub sim_elapsed: Duration,
    /// Per-IO response times of a replay (empty for the suite).
    pub rts: Vec<Duration>,
}

impl Prepared {
    /// IOs one pass issues (excluding the suite's state enforcement).
    pub fn planned_ios(&self) -> u64 {
        match &self.input {
            Input::Trace(t) => t.len() as u64,
            Input::Plan(p) => plan_workloads(p).map(|w| drain(&w)).sum(),
        }
    }

    /// Rewind the device to the prepared state, with no sink attached
    /// (a restore keeps the device's sink, and an enabled one slows
    /// every later pass).
    pub fn reset(&mut self) {
        self.dev.restore(&self.snapshot);
        self.dev.set_sink(SinkHandle::null());
    }

    /// One pass from the current device state, observed by `sink`.
    pub fn run(&mut self, sink: &SinkHandle) -> Result<PassOutcome, String> {
        match &self.input {
            Input::Trace(trace) => {
                let run = replay_trace_observed(self.dev.as_mut(), trace, REPLAY_MODE, sink)
                    .map_err(|e| format!("replay: {e}"))?;
                Ok(PassOutcome {
                    ios: run.len() as u64,
                    fingerprint: fingerprint_run(&run, &self.dev),
                    sim_elapsed: run.elapsed,
                    rts: run.rts,
                })
            }
            Input::Plan(plan) => {
                let result =
                    execute_plan_observed(self.dev.as_mut(), plan, &SuiteOptions::default(), sink)
                        .map_err(|e| format!("plan: {e}"))?;
                Ok(PassOutcome {
                    ios: result
                        .points
                        .iter()
                        .filter_map(|p| p.stats)
                        .map(|s| s.count)
                        .sum(),
                    fingerprint: fingerprint_plan(&result),
                    sim_elapsed: result.device_time,
                    rts: Vec::new(),
                })
            }
        }
    }
}

/// A sink that keeps every recorded response time (nanoseconds), for
/// exact simulated percentiles.
#[derive(Default)]
pub struct RtCollector(Mutex<Vec<u64>>);

impl RtCollector {
    pub fn handle() -> (Arc<RtCollector>, SinkHandle) {
        let c = Arc::new(RtCollector::default());
        let h = SinkHandle::new(c.clone());
        (c, h)
    }

    /// The recorded response times, ascending.
    pub fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.lock().expect("rt collector poisoned").clone();
        v.sort_unstable();
        v
    }
}

impl ObsSink for RtCollector {
    fn is_enabled(&self) -> bool {
        true
    }

    fn latency(&self, _class: LatencyClass, ns: u64) {
        self.0.lock().expect("rt collector poisoned").push(ns);
    }
}

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, s: &[u8]) {
        for &b in s {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Fingerprint a replay the way `sim_throughput` does: every response
/// time, the elapsed span and the per-channel busy totals.
fn fingerprint_run(run: &RunResult, dev: &SimDevice) -> u64 {
    let mut h = Fnv::new();
    h.u64(run.rts.len() as u64);
    for rt in &run.rts {
        h.u64(rt.as_nanos() as u64);
    }
    h.u64(run.elapsed.as_nanos() as u64);
    let mut busy = Vec::new();
    dev.ftl().channel_busy_ns(&mut busy);
    h.u64(busy.len() as u64);
    for b in busy {
        h.u64(b);
    }
    h.0
}

/// Fingerprint a plan execution: resets, device time and every point's
/// identity and statistics.
fn fingerprint_plan(result: &SuiteResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(result.resets as u64);
    h.u64(result.device_time.as_nanos() as u64);
    h.u64(result.points.len() as u64);
    for p in &result.points {
        h.str(&p.experiment);
        h.str(p.varying);
        h.u64(p.param.to_bits());
        h.str(&p.param_label);
        h.str(&p.workload);
        match &p.stats {
            None => h.u64(0),
            Some(s) => {
                h.u64(1);
                h.u64(s.count);
                for d in [
                    s.min, s.max, s.mean, s.stddev, s.median, s.p95, s.p99, s.total,
                ] {
                    h.u64(d.as_nanos() as u64);
                }
            }
        }
    }
    h.0
}
