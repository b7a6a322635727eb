//! The traced run: per-layer host time and counts, measured from
//! outside the program by calling each layer's public functions on the
//! same IO stream from the same device state, and differencing down the
//! stack:
//!
//! * replays: the profile's FTL on its own (`Ftl::read`/`write`), the
//!   `SimDevice` driven synchronously (`BlockDevice::read`/`write`), and
//!   the full queued `replay_trace`;
//! * suite: pattern generation alone, the plan walked with
//!   `Workload::execute`, `RunStats::from_rts`, and the full
//!   `execute_plan`.
//!
//! Every heavy pass starts right after a fresh copy of its state is
//! made, and the passes' order rotates from round to round: on a host
//! with a large shared last-level cache the first pass after a copy is
//! otherwise measurably faster. Each layer is the median over rounds of
//! the per-round difference.
//!
//! A difference is reported only when both passes did the same NAND
//! work (page programs and block erases) and it is not negative;
//! otherwise the layer is unresolved: reported as 0 and named on
//! standard output.

use crate::host::{count_allocs, median, Clock};
use crate::report::{Checker, Report};
use crate::workloads::{
    drain, enforce_state, plan_workloads, prepare, Input, Prepared, TraceGen, Workload,
    ENFORCE_COVERAGE, ENFORCE_MAX_IO, ENFORCE_SEED, SETTLE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};
use uflip_core::methodology::plan::{BenchmarkPlan, PlanStep};
use uflip_core::{RunResult, RunStats, SuiteOptions, Workload as PlanWorkload};
use uflip_device::{BlockDevice, FtlSpec, SimDevice, SimSnapshot};
use uflip_ftl::{BlockMapFtl, FittedFtl, Ftl, HybridLogFtl, PageMapFtl};
use uflip_nand::NandStats;
use uflip_obs::{CounterId, Metrics, SinkHandle};
use uflip_patterns::Mode;
use uflip_trace::Trace;

/// Measurement rounds a traced run makes at least.
const MIN_ROUNDS: usize = 3;

/// The per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("trace.generate_ns_per_rec", "ns"),
    ("trace.decode_ns_per_rec", "ns"),
    ("ftl.ns_per_io", "ns"),
    ("device.ns_per_io", "ns"),
    ("core.replay_ns_per_io", "ns"),
    ("core.enforce_s", "s"),
    ("device.restore_ms", "ms"),
    ("patterns.gen_ns_per_io", "ns"),
    ("core.run_ns_per_io", "ns"),
    ("core.stats_ns_per_io", "ns"),
    ("alloc.per_io", "count"),
    ("alloc.bytes_per_io", "B"),
    ("nand.programs_per_io", "ratio"),
    ("nand.erases_per_io", "ratio"),
    ("ftl.merges_per_write", "ratio"),
    ("ftl.cache_hit_ratio", "ratio"),
    ("device.queue_full_per_io", "ratio"),
    ("obs.overhead_pct", "%"),
];

/// The heavy passes of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Pass {
    /// The full stack, untraced (`replay_trace` / `execute_plan`).
    Full,
    /// The full stack with a `uflip_obs::Metrics` sink attached.
    Traced,
    /// Replays: the FTL alone.
    FtlOnly,
    /// Replays: `SimDevice` through synchronous `read`/`write`.
    DeviceSync,
    /// Suite: the plan walked with `Workload::execute`.
    Walk,
}

/// NAND work a pass did: page programs and block erases.
type Work = (u64, u64);

fn work(before: NandStats, after: NandStats) -> Work {
    (
        after.page_programs - before.page_programs,
        after.block_erases - before.block_erases,
    )
}

/// What the layer passes need beyond the prepared workload.
enum Stack {
    Replay {
        gen: TraceGen,
        /// The profile's FTL in the §4.1 state, built on its own.
        ftl: Box<dyn Ftl + Send>,
    },
    Suite {
        /// The device after the plan's initial enforcement.
        enforced: SimSnapshot,
        /// The plan's workloads in execution order.
        workloads: Vec<PlanWorkload>,
    },
}

/// One round's samples, by name: normalised host time per IO (or per
/// record) of each pass, and the light measurements.
type Round = Vec<(&'static str, f64)>;

fn get(round: &Round, name: &str) -> Option<f64> {
    round.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

pub fn traced_run(w: Workload, seed: u64, budget: Duration) -> Result<Report, String> {
    let mut clock = Clock::new();
    let mut p = prepare(w, seed)?;
    let planned = p.planned_ios();
    let n = planned as f64;
    let mut checker = Checker::new(w, seed);
    let null = SinkHandle::null();

    let stack = match &p.input {
        Input::Trace(_) => Stack::Replay {
            gen: TraceGen::for_workload(w, seed).ok_or("no trace generator")?,
            ftl: enforced_ftl(&w.profile().ftl)?,
        },
        Input::Plan(plan) => {
            let workloads = plan_workloads(plan).collect();
            p.reset();
            enforce_state(p.dev.as_mut())?;
            Stack::Suite {
                enforced: p.dev.snapshot(),
                workloads,
            }
        }
    };
    let passes: &[Pass] = match stack {
        Stack::Replay { .. } => &[Pass::Full, Pass::Traced, Pass::FtlOnly, Pass::DeviceSync],
        Stack::Suite { .. } => &[Pass::Full, Pass::Traced, Pass::Walk],
    };

    // Exact counts, from untimed passes: allocations through the
    // counting allocator, NAND/FTL/queue events through a metrics sink.
    let mut exact = Vec::new();
    p.reset();
    let (out, allocs, bytes) = count_allocs(|| p.run(&null));
    checker.check(planned, &out);
    out?;
    exact.push(("alloc.per_io", allocs as f64 / n));
    exact.push(("alloc.bytes_per_io", bytes as f64 / n));
    p.reset();
    let before = p.dev.ftl().stats().logical_pages_written;
    let (metrics, sink) = Metrics::shared();
    let out = p.run(&sink);
    checker.check(planned, &out);
    out?;
    let pages_written = p.dev.ftl().stats().logical_pages_written - before;
    exact.extend(counter_ratios(&metrics, pages_written));

    let mut rounds: Vec<Round> = Vec::new();
    let mut works: Vec<(Pass, Work)> = Vec::new();
    let start = Instant::now();
    while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
        let mut round = Round::new();
        for i in 0..passes.len() {
            let pass = passes[(i + rounds.len()) % passes.len()];
            let did = heavy_pass(
                pass,
                &mut clock,
                &mut p,
                &stack,
                &mut checker,
                planned,
                &mut round,
            )?;
            if !works.iter().any(|(q, _)| *q == pass) {
                works.push((pass, did));
            }
        }
        light_passes(&mut clock, &mut p, w, &stack, &mut round)?;
        rounds.push(round);
    }

    let work_of = |pass| works.iter().find(|(q, _)| *q == pass).map(|(_, w)| *w);
    let full_work = work_of(Pass::Full);
    let mut unresolved = Vec::new();
    // A layer as the median per-round difference `upper - lower`, if the
    // `same` passes did the same NAND work as the full stack.
    let mut layer = |name: &'static str, upper: &str, lower: Option<&str>, same: &[Pass]| {
        if let Some(p) = same.iter().find(|p| work_of(**p) != full_work) {
            unresolved.push(format!(
                "{name}: {p:?} pass NAND work {:?} != full stack {full_work:?}",
                work_of(*p)
            ));
            return (name, None);
        }
        let diffs: Vec<f64> = rounds
            .iter()
            .filter_map(|r| Some(get(r, upper)? - lower.map_or(Some(0.0), |l| get(r, l))?))
            .collect();
        let v = median(&diffs);
        if v < 0.0 {
            unresolved.push(format!(
                "{name}: negative difference {v:.1} (within host noise)"
            ));
            return (name, None);
        }
        (name, Some(v))
    };
    let mut values: Vec<(&'static str, Option<f64>)> = match stack {
        Stack::Replay { .. } => vec![
            layer("ftl.ns_per_io", "ftl", None, &[Pass::FtlOnly]),
            layer(
                "device.ns_per_io",
                "sync",
                Some("ftl"),
                &[Pass::FtlOnly, Pass::DeviceSync],
            ),
            layer(
                "core.replay_ns_per_io",
                "full",
                Some("sync"),
                &[Pass::DeviceSync],
            ),
        ],
        Stack::Suite { .. } => vec![layer(
            "core.run_ns_per_io",
            "exec",
            Some("patterns.gen_ns_per_io"),
            &[Pass::Walk],
        )],
    };
    let overhead: Vec<f64> = rounds
        .iter()
        .filter_map(|r| Some((get(r, "traced")? / get(r, "full")? - 1.0) * 100.0))
        .collect();
    values.push(("obs.overhead_pct", Some(median(&overhead))));
    for name in [
        "trace.generate_ns_per_rec",
        "trace.decode_ns_per_rec",
        "core.enforce_s",
        "device.restore_ms",
        "patterns.gen_ns_per_io",
        "core.stats_ns_per_io",
    ] {
        let v: Vec<f64> = rounds.iter().filter_map(|r| get(r, name)).collect();
        values.push((name, (!v.is_empty()).then(|| median(&v))));
    }
    values.extend(exact.into_iter().map(|(k, v)| (k, Some(v))));

    let full: Vec<f64> = rounds.iter().filter_map(|r| get(r, "full")).collect();
    println!(
        "{}: {} rounds; full stack {:.1} ns/IO, obs overhead {:.1} % (normalised medians)",
        w.name(),
        rounds.len(),
        median(&full),
        median(&overhead)
    );
    let mut report = checker.into_report();
    let mut inapplicable = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = values
            .iter()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| *v);
        if value.is_none() && !unresolved.iter().any(|u| u.starts_with(name)) {
            inapplicable.push(name);
        }
        report.metric(name, value.unwrap_or(0.0), unit);
    }
    if !inapplicable.is_empty() {
        println!(
            "not applicable to {} (reported as 0): {}",
            w.name(),
            inapplicable.join(", ")
        );
    }
    for u in &unresolved {
        println!("unresolved (reported as 0): {u}");
    }
    Ok(report)
}

/// Run one heavy pass from a fresh copy of its starting state and push
/// its normalised host ns per IO into `round` (plus, for the untraced
/// replay and the walk, the statistics layer over its response times).
/// Returns the pass's NAND work.
fn heavy_pass(
    pass: Pass,
    clock: &mut Clock,
    p: &mut Prepared,
    stack: &Stack,
    checker: &mut Checker,
    planned: u64,
    round: &mut Round,
) -> Result<Work, String> {
    let per_io = |secs: f64| secs * 1e9 / planned as f64;
    let (name, t, did) = match (pass, stack) {
        (Pass::Full | Pass::Traced, _) => {
            p.reset();
            let before = p.dev.ftl().nand_stats();
            let (name, sink) = match pass {
                Pass::Traced => ("traced", Metrics::shared().1),
                _ => ("full", SinkHandle::null()),
            };
            let (out, t) = clock.time(|| p.run(&sink));
            let did = work(before, p.dev.ftl().nand_stats());
            checker.check(planned, &out);
            let out = out?;
            if pass == Pass::Full && !out.rts.is_empty() {
                let (_, st) = clock.time(|| black_box(RunStats::from_rts(&out.rts)));
                round.push(("core.stats_ns_per_io", per_io(st.norm_s())));
            }
            (name, t, did)
        }
        (Pass::FtlOnly, Stack::Replay { ftl, .. }) => {
            let Input::Trace(trace) = &p.input else {
                return Err("replay stack without a trace".into());
            };
            let mut ftl = ftl.clone_box();
            let before = ftl.nand_stats();
            let (r, t) = clock.time(|| drive_ftl(ftl.as_mut(), trace));
            r?;
            ("ftl", t, work(before, ftl.nand_stats()))
        }
        (Pass::DeviceSync, Stack::Replay { .. }) => {
            p.reset();
            let before = p.dev.ftl().nand_stats();
            let Input::Trace(trace) = &p.input else {
                return Err("replay stack without a trace".into());
            };
            let (r, t) = clock.time(|| drive_device(p.dev.as_mut(), trace));
            r?;
            ("sync", t, work(before, p.dev.ftl().nand_stats()))
        }
        (
            Pass::Walk,
            Stack::Suite {
                enforced,
                workloads,
            },
        ) => {
            // Enforce in place from the fresh device, as `execute_plan`
            // does, so the walk starts from the same state and its NAND
            // work compares with the full pass's.
            p.reset();
            let before = p.dev.ftl().nand_stats();
            enforce_state(p.dev.as_mut())?;
            let Input::Plan(plan) = &p.input else {
                return Err("suite stack without a plan".into());
            };
            let ((runs, exec_s), t) =
                clock.time(|| walk_plan(p.dev.as_mut(), plan, workloads, enforced));
            let runs = runs?;
            round.push(("exec", per_io(t.norm(exec_s))));
            let (_, st) = clock.time(|| {
                for r in &runs {
                    black_box(r.summary());
                }
            });
            round.push(("core.stats_ns_per_io", per_io(st.norm_s())));
            ("walk", t, work(before, p.dev.ftl().nand_stats()))
        }
        _ => return Err(format!("{pass:?} pass does not apply to this workload")),
    };
    round.push((name, per_io(t.norm_s())));
    Ok(did)
}

/// The light measurements of a round: trace generation and decoding or
/// pattern generation, snapshot restore, and state enforcement on a
/// freshly built device.
fn light_passes(
    clock: &mut Clock,
    p: &mut Prepared,
    w: Workload,
    stack: &Stack,
    round: &mut Round,
) -> Result<(), String> {
    match (stack, &p.input) {
        (Stack::Replay { gen, .. }, Input::Trace(trace)) => {
            let n = trace.len() as f64;
            let (generated, t) = clock.time(|| gen.generate());
            if generated != *trace {
                return Err("trace generation is not deterministic".into());
            }
            round.push(("trace.generate_ns_per_rec", t.norm_s() * 1e9 / n));
            let bytes = trace.to_binary();
            let (decoded, t) = clock.time(|| Trace::from_binary(&bytes));
            if decoded.map_err(|e| e.to_string())? != *trace {
                return Err("binary trace round trip changed the trace".into());
            }
            round.push(("trace.decode_ns_per_rec", t.norm_s() * 1e9 / n));
        }
        (Stack::Suite { workloads, .. }, Input::Plan(_)) => {
            let (ios, t) = clock.time(|| workloads.iter().map(drain).sum::<u64>());
            round.push(("patterns.gen_ns_per_io", t.norm_s() * 1e9 / ios as f64));
        }
        _ => return Err("workload input does not match its stack".into()),
    }
    let (_, t) = clock.time(|| p.reset());
    round.push(("device.restore_ms", t.norm_s() * 1e3));
    let mut fresh = w.profile().build_sim(w.device_seed());
    let (r, t) = clock.time(|| enforce_state(fresh.as_mut()));
    r?;
    round.push(("core.enforce_s", t.norm_s()));
    Ok(())
}

/// Counter ratios from one traced pass. Per-IO ratios are per host IO
/// entering the FTL, which for the suite includes its state enforcement.
/// The cache counts absorbed logical pages, so its hit ratio is over the
/// logical pages the pass wrote (from the FTL's own statistics).
fn counter_ratios(m: &Metrics, pages_written: u64) -> Vec<(&'static str, f64)> {
    let c = |id| m.counter(id) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let host_ios = c(CounterId::HostReads) + c(CounterId::HostWrites);
    let writes = c(CounterId::HostWrites);
    vec![
        (
            "nand.programs_per_io",
            ratio(c(CounterId::PagePrograms), host_ios),
        ),
        (
            "nand.erases_per_io",
            ratio(c(CounterId::BlockErases), host_ios),
        ),
        (
            "ftl.merges_per_write",
            ratio(c(CounterId::SyncMerges) + c(CounterId::AsyncMerges), writes),
        ),
        (
            "ftl.cache_hit_ratio",
            ratio(c(CounterId::WriteCacheHits), pages_written as f64),
        ),
        (
            "device.queue_full_per_io",
            ratio(c(CounterId::QueueFullRejections), host_ios),
        ),
    ]
}

/// Walk the plan's steps the way `execute_plan` does after its initial
/// enforcement, timing only the `Workload::execute` calls. Returns the
/// runs and the host seconds spent executing.
fn walk_plan(
    dev: &mut SimDevice,
    plan: &BenchmarkPlan,
    workloads: &[PlanWorkload],
    enforced: &SimSnapshot,
) -> (Result<Vec<RunResult>, String>, f64) {
    let pause = SuiteOptions::default().inter_run_pause;
    let mut runs = Vec::with_capacity(workloads.len());
    let mut exec_s = 0.0;
    let mut next = workloads.iter();
    for step in &plan.steps {
        match step {
            PlanStep::Pause => dev.idle(pause),
            PlanStep::ResetState => dev.restore(enforced),
            PlanStep::Run { .. } => {
                let Some(w) = next.next() else {
                    return (Err("plan has more runs than workloads".into()), exec_s);
                };
                let t = Instant::now();
                let r = w.execute(dev);
                exec_s += t.elapsed().as_secs_f64();
                match r {
                    Ok(run) => runs.push(run),
                    Err(e) => return (Err(format!("workload {}: {e}", w.label())), exec_s),
                }
            }
        }
    }
    (Ok(runs), exec_s)
}

/// The profile's FTL built on its own and brought to the §4.1 state by
/// the same random write stream `enforce_random_state` issues through a
/// device, then the same settle idle.
fn enforced_ftl(spec: &FtlSpec) -> Result<Box<dyn Ftl + Send>, String> {
    let mut ftl: Box<dyn Ftl + Send> = match spec {
        FtlSpec::PageMap(c) => Box::new(PageMapFtl::new(*c).map_err(|e| e.to_string())?),
        FtlSpec::HybridLog(c) => Box::new(HybridLogFtl::new(*c).map_err(|e| e.to_string())?),
        FtlSpec::BlockMap(c) => Box::new(BlockMapFtl::new(*c).map_err(|e| e.to_string())?),
        FtlSpec::Fitted(c) => Box::new(FittedFtl::new(c.clone()).map_err(|e| e.to_string())?),
    };
    let capacity = ftl.capacity_bytes();
    let goal = (capacity as f64 * ENFORCE_COVERAGE) as u64;
    let mut rng = StdRng::seed_from_u64(ENFORCE_SEED);
    let max_sectors = ENFORCE_MAX_IO / 512;
    let mut written = 0u64;
    while written < goal {
        let sectors = rng.gen_range(1..=max_sectors);
        let len = sectors * 512;
        let lba = rng.gen_range(0..=(capacity - len) / 512);
        ftl.write(lba, sectors as u32).map_err(|e| e.to_string())?;
        written += len;
    }
    ftl.on_idle(SETTLE.as_nanos() as u64);
    Ok(ftl)
}

fn drive_ftl(ftl: &mut dyn Ftl, trace: &Trace) -> Result<(), String> {
    for r in &trace.records {
        let ns = match r.op {
            Mode::Read => ftl.read(r.lba, r.sectors),
            Mode::Write => ftl.write(r.lba, r.sectors),
        };
        black_box(ns.map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn drive_device(dev: &mut dyn BlockDevice, trace: &Trace) -> Result<(), String> {
    for r in &trace.records {
        let (offset, len) = (r.offset_bytes(), u64::from(r.sectors) * 512);
        let rt = match r.op {
            Mode::Read => dev.read(offset, len),
            Mode::Write => dev.write(offset, len),
        };
        black_box(rt.map_err(|e| e.to_string())?);
    }
    Ok(())
}
