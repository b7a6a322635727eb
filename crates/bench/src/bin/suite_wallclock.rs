//! `suite_wallclock` — host wall-clock benchmark of full-suite plan
//! execution: the legacy serial path (re-enforcing the §4.1 random
//! state at every plan reset) against the snapshot path (memoized
//! enforced state, restored in O(memcpy)) and the sharded path
//! (reset-delimited segments on parallel device clones).
//!
//! This is the harness's own perf trajectory, not a paper figure: the
//! numbers measure the *simulator*, and `BENCH_harness.json` archives
//! them so regressions in the hot path show up as data.
//!
//! ```text
//! cargo run --release -p uflip-bench --bin suite_wallclock [--quick]
//!     [--device ID] [--threads N] [--out PATH]
//! ```
//!
//! The sharded result is asserted bit-identical to the serial snapshot
//! result on every run — the benchmark doubles as an integration check.

use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;
use uflip_core::methodology::plan::BenchmarkPlan;
use uflip_core::micro::MicroConfig;
use uflip_core::suite::{execute_plan, full_suite, SuiteOptions};
use uflip_device::profiles::catalog;
use uflip_report::json::write_json;

struct Cli {
    quick: bool,
    device: Option<String>,
    threads: usize,
    out: PathBuf,
}

fn parse() -> Cli {
    let mut cli = Cli {
        quick: false,
        device: None,
        threads: 0,
        out: PathBuf::from("BENCH_harness.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => cli.quick = true,
            "--device" => cli.device = args.next(),
            "--threads" => {
                cli.threads = args.next().and_then(|s| s.parse().ok()).unwrap_or(0);
            }
            "--out" => {
                if let Some(p) = args.next() {
                    cli.out = PathBuf::from(p);
                }
            }
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    cli
}

/// One profile's timings, in seconds of host wall-clock.
#[derive(Debug, Serialize)]
struct ProfileTiming {
    id: String,
    /// Run steps in the plan.
    runs: usize,
    /// State resets in the plan (snapshot restores / re-enforcements).
    resets: usize,
    /// Legacy serial path: re-enforce the random state at every reset.
    serial_reenforce_s: f64,
    /// Serial with the enforced state memoized and restored at resets.
    serial_snapshot_s: f64,
    /// Snapshot resets + reset-delimited segments on worker threads.
    sharded_s: f64,
    /// serial_reenforce / serial_snapshot — the win from memoizing
    /// state enforcement alone.
    speedup_snapshot: f64,
    /// serial_reenforce / sharded — the end-to-end win.
    speedup_total: f64,
}

/// The archived benchmark record (`BENCH_harness.json`).
#[derive(Debug, Serialize)]
struct HarnessBench {
    bench: &'static str,
    quick: bool,
    host_threads: usize,
    profiles: Vec<ProfileTiming>,
    /// Geometric mean of the per-profile end-to-end speedups.
    geomean_speedup_total: f64,
}

fn main() {
    let cli = parse();
    // Full-suite structure (all nine micro-benchmarks) with a target
    // size that forces frequent state resets — every third
    // sequential-write point exhausts the device — so the benchmark
    // exercises exactly the path the snapshot work optimizes. Quick
    // mode shrinks per-point IO counts for CI smoke runs.
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut profiles = Vec::new();
    let devices = match cli.device.as_deref() {
        None => catalog::representative(),
        Some(arg) => vec![uflip_bench::sim_profile_or_exit(arg)],
    };
    for profile in devices {
        const MB: u64 = 1024 * 1024;
        let mut cfg = MicroConfig::quick();
        cfg.target_size = (profile.sim_capacity_bytes() / 3).max(MB) / MB * MB;
        if cli.quick {
            cfg.io_count = 16;
            cfg.io_count_rw = 24;
        }
        let opts = SuiteOptions {
            state_coverage: if cli.quick { 1.0 } else { 2.0 },
            ..SuiteOptions::default()
        };
        let plan = BenchmarkPlan::build(full_suite(&cfg), profile.sim_capacity_bytes());

        let legacy_opts = SuiteOptions {
            snapshot_resets: false,
            ..opts
        };
        let mut dev = profile.build_sim(opts.seed);
        let t = Instant::now();
        let legacy = execute_plan(dev.as_mut(), &plan, &legacy_opts).expect("legacy serial");
        let serial_reenforce_s = t.elapsed().as_secs_f64();

        let mut dev = profile.build_sim(opts.seed);
        let t = Instant::now();
        let snap = execute_plan(dev.as_mut(), &plan, &opts).expect("serial snapshot");
        let serial_snapshot_s = t.elapsed().as_secs_f64();

        let mut dev = profile.build_sim(opts.seed);
        let t = Instant::now();
        let sharded_opts = SuiteOptions {
            threads: cli.threads,
            ..opts
        };
        let sharded = execute_plan(dev.as_mut(), &plan, &sharded_opts).expect("sharded");
        let sharded_s = t.elapsed().as_secs_f64();

        assert_eq!(
            snap, sharded,
            "sharded execution must be bit-identical to the serial snapshot path"
        );
        assert_eq!(legacy.points.len(), snap.points.len());

        let row = ProfileTiming {
            id: profile.id.clone(),
            runs: plan.run_count(),
            resets: legacy.resets,
            serial_reenforce_s,
            serial_snapshot_s,
            sharded_s,
            speedup_snapshot: serial_reenforce_s / serial_snapshot_s.max(1e-9),
            speedup_total: serial_reenforce_s / sharded_s.max(1e-9),
        };
        println!(
            "{:<18} {:>4} runs {:>3} resets  reenforce {:>7.2}s  snapshot {:>7.2}s  \
             sharded {:>7.2}s  speedup ×{:.1}",
            row.id,
            row.runs,
            row.resets,
            row.serial_reenforce_s,
            row.serial_snapshot_s,
            row.sharded_s,
            row.speedup_total
        );
        profiles.push(row);
    }
    assert!(!profiles.is_empty(), "no profile matched --device");
    let geomean_speedup_total =
        (profiles.iter().map(|p| p.speedup_total.ln()).sum::<f64>() / profiles.len() as f64).exp();
    let record = HarnessBench {
        bench: "suite_wallclock",
        quick: cli.quick,
        host_threads,
        profiles,
        geomean_speedup_total,
    };
    println!("geomean end-to-end speedup: ×{geomean_speedup_total:.2}");
    write_json(&record, &cli.out).expect("write BENCH_harness.json");
    eprintln!("wrote {}", cli.out.display());
}
