//! Device characterization: the protocol behind Table 3.
//!
//! For one device, runs (in methodology order):
//!
//! 1. random-state enforcement (§4.1) and a long idle;
//! 2. the four 32 KB baselines; the RW trace is phase-analyzed (§4.2)
//!    and summarized over its running phase only;
//! 3. a Pause sweep over random writes (Table 3 column 5);
//! 4. a Locality sweep (Figure 8 / column 6);
//! 5. a Partitioning sweep (column 7);
//! 6. the Order patterns: reverse, in-place, and large increments
//!    (columns 8–10).
//!
//! Every derived number states *how* it was derived so EXPERIMENTS.md
//! can compare against the paper cell by cell.

use crate::locality::{locality_knee, LocalityKnee};
use crate::partition::{partition_limit, PartitionLimit};
use serde::Serialize;
use std::time::Duration;
use uflip_core::executor::execute_run;
use uflip_core::methodology::phases::{detect_phases, Phases};
use uflip_core::methodology::state::enforce_random_state;
use uflip_core::Result;
use uflip_device::BlockDevice;
use uflip_patterns::{LbaFn, Mode, PatternSpec, TimingFn};

/// Configuration of the characterization protocol.
#[derive(Debug, Clone, Copy)]
pub struct CharacterizeConfig {
    /// IO size (32 KB in the paper).
    pub io_size: u64,
    /// IOCount for reads and sequential writes.
    pub io_count: u64,
    /// IOCount for random writes (larger: bigger oscillations).
    pub io_count_rw: u64,
    /// Per-sweep-point IOCount for random writes (sweeps have many
    /// points; shorter runs keep the total budget sane).
    pub sweep_count_rw: u64,
    /// Target window budget per region (capped by capacity / 4).
    pub target_size: u64,
    /// Enforce the random state first (skip only when the caller has
    /// already prepared the device).
    pub enforce_state: bool,
    /// Fraction of the capacity the state enforcement writes.
    pub state_coverage: f64,
    /// Idle time between runs (the calibrated §4.3 pause).
    pub inter_run_pause: Duration,
    /// Random seed.
    pub seed: u64,
}

impl CharacterizeConfig {
    /// Paper-faithful settings (SSD-class counts).
    pub fn paper() -> Self {
        CharacterizeConfig {
            io_size: 32 * 1024,
            io_count: 1024,
            io_count_rw: 5120,
            sweep_count_rw: 1536,
            target_size: 128 * 1024 * 1024,
            enforce_state: true,
            // >1x: the pool of spare blocks only reaches its steady
            // state (the GC watermark) once the fill exceeds capacity
            // plus over-provisioning; 2x guarantees it for every
            // profile. The paper's single-capacity fill sufficed on
            // real devices whose OP was ~7 %.
            state_coverage: 2.0,
            inter_run_pause: Duration::from_secs(5),
            seed: 0xF11B,
        }
    }

    /// Reduced settings for tests and smoke runs.
    pub fn quick() -> Self {
        CharacterizeConfig {
            io_count: 192,
            // Sweep points must outlast a full log-pool turnover (the
            // largest pool is 16 MB = 512 IOs of 32 KB) so the steady
            // state dominates the mean.
            io_count_rw: 1024,
            sweep_count_rw: 768,
            ..Self::paper()
        }
    }
}

/// One device's Table 3 row (plus phase details).
#[derive(Debug, Clone, Serialize)]
pub struct DeviceSummary {
    /// Device name.
    pub device: String,
    /// Mean 32 KB sequential-read response time, ms.
    pub sr_ms: f64,
    /// Mean 32 KB random-read response time, ms.
    pub rr_ms: f64,
    /// Mean 32 KB sequential-write response time, ms.
    pub sw_ms: f64,
    /// Mean 32 KB random-write response time (running phase), ms.
    pub rw_ms: f64,
    /// Start-up phase length of the RW baseline (IOs).
    pub rw_startup: usize,
    /// Oscillation period of the RW running phase (IOs).
    pub rw_period: usize,
    /// Smallest pause (ms) at which paced random writes cost like
    /// sequential writes; `None` if pausing never helps (no
    /// asynchronous reclamation).
    pub pause_effect_ms: Option<f64>,
    /// Locality area and its max cost ratio vs SW (None = no benefit).
    #[serde(skip)]
    pub locality: Option<LocalityKnee>,
    /// Partitioning limit and its cost ratio vs a single partition.
    #[serde(skip)]
    pub partitions: Option<PartitionLimit>,
    /// Reverse pattern (Incr = −1) cost relative to SW.
    pub reverse_vs_sw: f64,
    /// In-place pattern (Incr = 0) cost relative to SW.
    pub inplace_vs_sw: f64,
    /// Large-increment patterns (1–8 MB gaps) cost relative to RW.
    pub large_incr_vs_rw: f64,
}

fn mean_ms(rts: &[Duration], skip: usize) -> f64 {
    let slice = &rts[skip.min(rts.len())..];
    if slice.is_empty() {
        return 0.0;
    }
    let total: f64 = slice.iter().map(|d| d.as_secs_f64()).sum();
    total / slice.len() as f64 * 1e3
}

/// Print one `UFLIP_DEBUG`-gated diagnostic trace line to stderr.
#[expect(
    clippy::print_stderr,
    reason = "UFLIP_DEBUG-gated diagnostic trace; stderr is the debug channel"
)]
fn debug_trace(line: std::fmt::Arguments<'_>) {
    if std::env::var_os("UFLIP_DEBUG").is_some() {
        eprintln!("{line}");
    }
}

/// Run the full protocol against `dev`.
pub fn characterize(dev: &mut dyn BlockDevice, cfg: &CharacterizeConfig) -> Result<DeviceSummary> {
    let capacity = dev.capacity_bytes();
    let window = cfg.target_size.min(capacity / 4);
    let (r_reads, r_seq, r_rand, r_sweep) = (0, window, 2 * window, 3 * window);
    let pause = cfg.inter_run_pause;

    // 1. State enforcement (§4.1) and settle.
    if cfg.enforce_state {
        enforce_random_state(dev, 128 * 1024, cfg.state_coverage, cfg.seed)?;
    }
    dev.idle(pause);

    let spec = |lba: LbaFn, mode: Mode, offset: u64, count: u64| {
        PatternSpec::baseline(lba, mode, cfg.io_size, window, count)
            .with_target(offset, window)
            .with_seed(cfg.seed)
    };

    // 2. Baselines. RW first-run trace is phase-analyzed.
    let sr = execute_run(
        dev,
        &spec(LbaFn::Sequential, Mode::Read, r_reads, cfg.io_count),
    )?;
    dev.idle(pause);
    let rr = execute_run(dev, &spec(LbaFn::Random, Mode::Read, r_reads, cfg.io_count))?;
    dev.idle(pause);
    let rw = execute_run(
        dev,
        &spec(LbaFn::Random, Mode::Write, r_rand, cfg.io_count_rw),
    )?;
    dev.idle(pause);
    let sw = execute_run(
        dev,
        &spec(LbaFn::Sequential, Mode::Write, r_seq, cfg.io_count),
    )?;
    dev.idle(pause);

    let phases: Phases = detect_phases(&rw.rts);
    let sr_ms = mean_ms(&sr.rts, 0);
    let rr_ms = mean_ms(&rr.rts, 0);
    let sw_ms = mean_ms(&sw.rts, 0);
    let rw_ms = mean_ms(&rw.rts, phases.start_up);

    // 3. Pause sweep on RW: does pacing make RW behave like SW?
    let mut pause_effect_ms = None;
    if rw_ms > 2.5 * sw_ms {
        for factor in [0.5f64, 1.0, 2.0, 4.0] {
            let p = Duration::from_secs_f64(rw_ms * factor / 1e3);
            let spec_p = spec(LbaFn::Random, Mode::Write, r_rand, cfg.sweep_count_rw)
                .with_timing(TimingFn::Pause(p));
            let run = execute_run(dev, &spec_p)?;
            dev.idle(pause);
            let m = mean_ms(&run.rts, phases.start_up.min(run.rts.len() / 4));
            debug_trace(format_args!(
                "  [pause sweep] pause={:.2}ms mean={m:.2}ms sw={sw_ms:.2}",
                p.as_secs_f64() * 1e3
            ));
            // "behave like sequential writes" (§5.2): the paced cost
            // must collapse toward the SW mean. We require at least a
            // halving of the random-write cost *and* landing within a
            // small factor of SW — devices without asynchronous
            // reclamation show zero improvement and never qualify.
            if m <= 0.5 * rw_ms && m <= 4.0 * sw_ms {
                pause_effect_ms = Some(p.as_secs_f64() * 1e3);
                break;
            }
        }
    }

    // 4. Locality sweep (1 MB … window, powers of two).
    let mut series = Vec::new();
    let mut t = (1024 * 1024u64).max(cfg.io_size);
    while t <= window {
        let spec_l =
            spec(LbaFn::Random, Mode::Write, r_sweep, cfg.sweep_count_rw).with_target(r_sweep, t);
        let run = execute_run(dev, &spec_l)?;
        dev.idle(pause);
        series.push((t, mean_ms(&run.rts, phases.start_up.min(run.rts.len() / 4))));
        if let Some((tt, m)) = series.last() {
            debug_trace(format_args!(
                "  [locality] {} MB -> {m:.2} ms",
                tt / (1024 * 1024)
            ));
        }
        t *= 2;
    }
    let locality = locality_knee(&series, sw_ms, rw_ms, 2.0, 3.0);

    // 5. Partitioning sweep on sequential writes. Points must outlast
    // a full log-pool turnover so stream thrash (not the clean-pool
    // honeymoon) dominates the mean.
    let mut pseries = Vec::new();
    let mut p = 1u32;
    let pcount = cfg.io_count.max(cfg.sweep_count_rw);
    while u64::from(p) * cfg.io_size <= window && p <= 256 {
        let spec_p = spec(LbaFn::Sequential, Mode::Write, r_seq, pcount)
            .with_lba(LbaFn::Partitioned { partitions: p });
        let run = execute_run(dev, &spec_p)?;
        dev.idle(pause);
        pseries.push((p, mean_ms(&run.rts, (pcount / 4) as usize)));
        p *= 2;
    }
    // cap 30: the paper's Partitioning column reports ratios up to ×20
    // (Kingston DTHX) inside the limit; only a *step* marks the cliff.
    let partitions = partition_limit(&pseries, 3.0, 30.0);

    // 6. Order patterns.
    let order_mean = |dev: &mut dyn BlockDevice, incr: i64, count: u64| -> Result<f64> {
        let spec_o =
            spec(LbaFn::Sequential, Mode::Write, r_seq, count).with_lba(LbaFn::Ordered { incr });
        let run = execute_run(dev, &spec_o)?;
        dev.idle(pause);
        Ok(mean_ms(&run.rts, 0))
    };
    let reverse = order_mean(dev, -1, cfg.io_count)?;
    let inplace = order_mean(dev, 0, cfg.io_count)?;
    // Large increments: gaps of 1–8 MB (Incr × IOSize).
    let mut large = Vec::new();
    for incr in [32i64, 64, 128, 256] {
        if incr as u64 * cfg.io_size <= window {
            large.push(order_mean(dev, incr, cfg.sweep_count_rw)?);
        }
    }
    let large_mean = if large.is_empty() {
        rw_ms
    } else {
        large.iter().sum::<f64>() / large.len() as f64
    };

    Ok(DeviceSummary {
        device: dev.name().to_string(),
        sr_ms,
        rr_ms,
        sw_ms,
        rw_ms,
        rw_startup: phases.start_up,
        rw_period: phases.period,
        pause_effect_ms,
        locality,
        partitions,
        reverse_vs_sw: if sw_ms > 0.0 { reverse / sw_ms } else { 0.0 },
        inplace_vs_sw: if sw_ms > 0.0 { inplace / sw_ms } else { 0.0 },
        large_incr_vs_rw: if rw_ms > 0.0 { large_mean / rw_ms } else { 0.0 },
    })
}

impl DeviceSummary {
    /// Render the summary as a Table 3-style row.
    pub fn table3_row(&self) -> String {
        let pause = self
            .pause_effect_ms
            .map(|p| format!("{p:.0}"))
            .unwrap_or_else(|| "-".to_string());
        let locality = self
            .locality
            .map(|l| {
                format!(
                    "{} ({})",
                    l.area_bytes / (1024 * 1024),
                    ratio_label(l.max_ratio_vs_sw)
                )
            })
            .unwrap_or_else(|| "No".to_string());
        let partitions = self
            .partitions
            .map(|p| format!("{} ({})", p.partitions, ratio_label(p.ratio_vs_single)))
            .unwrap_or_else(|| "-".to_string());
        format!(
            "{:<18} {:>6.1} {:>6.1} {:>6.1} {:>7.1} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}",
            self.device,
            self.sr_ms,
            self.rr_ms,
            self.sw_ms,
            self.rw_ms,
            pause,
            locality,
            partitions,
            ratio_label(self.reverse_vs_sw),
            ratio_label(self.inplace_vs_sw),
            ratio_label(self.large_incr_vs_rw),
        )
    }

    /// Header matching [`DeviceSummary::table3_row`].
    pub fn table3_header() -> String {
        format!(
            "{:<18} {:>6} {:>6} {:>6} {:>7} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}",
            "Device",
            "SR",
            "RR",
            "SW",
            "RW",
            "Pause",
            "Locality",
            "Partition",
            "Rev",
            "InPlace",
            "LgIncr"
        )
    }
}

/// The paper's compact ratio notation: `=` within ±30 %, `x0.6`, `x4` …
pub fn ratio_label(r: f64) -> String {
    if (0.7..=1.3).contains(&r) {
        "=".to_string()
    } else if r < 10.0 {
        format!("x{r:.1}")
    } else {
        format!("x{r:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uflip_device::MemDevice;

    const MB: u64 = 1024 * 1024;

    #[test]
    fn characterize_runs_on_a_uniform_device() {
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(200), 0);
        let mut cfg = CharacterizeConfig::quick();
        cfg.io_count = 32;
        cfg.io_count_rw = 64;
        cfg.sweep_count_rw = 32;
        cfg.inter_run_pause = Duration::from_millis(10);
        let s = characterize(&mut dev, &cfg).unwrap();
        // A uniform device: all four baselines equal, no pause effect,
        // every ratio ≈ 1.
        assert!((s.sr_ms - 0.2).abs() < 0.01);
        assert!((s.rw_ms - 0.2).abs() < 0.01);
        assert!(s.pause_effect_ms.is_none());
        assert_eq!(s.rw_startup, 0);
        assert!((s.reverse_vs_sw - 1.0).abs() < 0.05);
        assert!((s.inplace_vs_sw - 1.0).abs() < 0.05);
        assert!((s.large_incr_vs_rw - 1.0).abs() < 0.05);
        let l = s.locality.expect("uniform device is 'local' everywhere");
        assert!(l.max_ratio_vs_sw < 1.2);
        let p = s.partitions.expect("uniform device partitions freely");
        assert!(p.partitions >= 64);
    }

    #[test]
    fn ratio_labels_match_paper_style() {
        assert_eq!(ratio_label(1.0), "=");
        assert_eq!(ratio_label(1.25), "=");
        assert_eq!(ratio_label(0.6), "x0.6");
        assert_eq!(ratio_label(4.2), "x4.2");
        assert_eq!(ratio_label(40.0), "x40");
    }

    #[test]
    fn table3_row_renders_all_columns() {
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(100), 0);
        let mut cfg = CharacterizeConfig::quick();
        cfg.io_count = 16;
        cfg.io_count_rw = 32;
        cfg.sweep_count_rw = 16;
        cfg.inter_run_pause = Duration::from_millis(1);
        let s = characterize(&mut dev, &cfg).unwrap();
        let row = s.table3_row();
        assert!(row.contains("mem"));
        let header = DeviceSummary::table3_header();
        assert!(header.contains("Locality"));
    }
}
