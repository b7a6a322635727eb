//! Experiments: collections of runs with a single varying parameter.
//!
//! §3.2, design principle 1: "A collection of runs of the same reference
//! pattern is called an experiment. To enable sound analysis … we design
//! each experiment around a single varying parameter."

use crate::executor::{run_basic, run_mixed, run_parallel};
use crate::observe;
use crate::policy::IoPolicy;
use crate::run::RunResult;
use crate::stats::RunStats;
use crate::Result;
use uflip_device::BlockDevice;
use uflip_obs::SinkHandle;
use uflip_patterns::{MixSpec, ParallelSpec, PatternSpec};

/// A workload point: one of the paper's three pattern classes.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A basic pattern.
    Basic(PatternSpec),
    /// A mixed pattern (micro-benchmark 7).
    Mixed(MixSpec),
    /// A parallel pattern (micro-benchmark 6).
    Parallel(ParallelSpec),
}

impl Workload {
    /// Execute the workload against a device: the noop policy, no
    /// sink. Whatever sink the device already carries stays attached
    /// and keeps receiving the layers' counters.
    pub fn execute(&self, dev: &mut dyn BlockDevice) -> Result<RunResult> {
        self.measure(dev, &IoPolicy::none(), &SinkHandle::null(), false)
    }

    /// Execute the workload under an [`IoPolicy`], observed by `sink`.
    ///
    /// The sink is attached to the device for the duration of the call
    /// (so NAND, FTL, queue and host-IO counters flow from the layers
    /// below) and the null sink is re-attached before returning, on
    /// success and on error. Transient device faults are retried with
    /// backoff and accounted to the sink. After the run, its
    /// running-phase response times are recorded under
    /// [`Workload::latency_class`] and its counter delta is emitted as
    /// a [`uflip_obs::WorkloadMetrics`] record. With the noop policy and
    /// the null sink the result is exactly [`Workload::execute`]'s.
    pub fn run(
        &self,
        dev: &mut dyn BlockDevice,
        policy: &IoPolicy,
        sink: &SinkHandle,
    ) -> Result<RunResult> {
        dev.set_sink(sink.clone());
        let run = self.measure(dev, policy, sink, true);
        dev.set_sink(SinkHandle::null());
        run
    }

    /// The one loop behind [`Workload::execute`], [`Workload::run`] and
    /// the plan executor: run the workload's executor under `policy`,
    /// then, with an enabled sink, record the running-phase response
    /// times and — if `emit_delta` — the run's counter delta. Leaves
    /// the device's sink alone.
    pub(crate) fn measure(
        &self,
        dev: &mut dyn BlockDevice,
        policy: &IoPolicy,
        sink: &SinkHandle,
        emit_delta: bool,
    ) -> Result<RunResult> {
        let observed = sink.is_enabled();
        let before = (observed && emit_delta).then(|| observe::counters_now(sink));
        let run = match self {
            Workload::Basic(spec) => run_basic(dev, spec, policy, sink)?,
            Workload::Mixed(mix) => run_mixed(dev, mix, policy, sink)?.0,
            Workload::Parallel(par) => run_parallel(dev, par, policy, sink)?,
        };
        if observed {
            observe::record_run_latencies(sink, self.latency_class(), &run);
            if let Some(before) = &before {
                observe::emit_workload_delta(sink, &run.label, before);
            }
        }
        Ok(run)
    }

    /// The latency population this workload's response times belong
    /// to: read or write for single-mode patterns (parallel runs take
    /// their base pattern's mode), mixed for read/write mixes.
    pub fn latency_class(&self) -> uflip_obs::LatencyClass {
        use uflip_obs::LatencyClass;
        use uflip_patterns::Mode;
        let by_mode = |mode: Mode| match mode {
            Mode::Read => LatencyClass::Read,
            Mode::Write => LatencyClass::Write,
        };
        match self {
            Workload::Basic(spec) => by_mode(spec.mode),
            Workload::Mixed(_) => LatencyClass::Mixed,
            Workload::Parallel(par) => by_mode(par.base.mode),
        }
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            Workload::Basic(spec) => spec.code(),
            Workload::Mixed(mix) => mix.name(),
            Workload::Parallel(par) => par.name(),
        }
    }

    /// Bytes of device space the workload's target window spans
    /// (used by the benchmark-plan allocator).
    pub fn target_span(&self) -> u64 {
        match self {
            Workload::Basic(spec) => spec.target_size,
            Workload::Mixed(mix) => mix.a.target_size + mix.b.target_size,
            Workload::Parallel(par) => par.base.target_size,
        }
    }

    /// Whether the workload issues sequential writes (those experiments
    /// are delayed and grouped by the plan, §4.2).
    pub fn uses_sequential_writes(&self) -> bool {
        fn basic(s: &PatternSpec) -> bool {
            use uflip_patterns::{LbaFn, Mode};
            s.mode == Mode::Write
                && matches!(
                    s.lba,
                    LbaFn::Sequential | LbaFn::Partitioned { .. } | LbaFn::Ordered { .. }
                )
        }
        match self {
            Workload::Basic(s) => basic(s),
            Workload::Mixed(m) => basic(&m.a) || basic(&m.b),
            Workload::Parallel(p) => basic(&p.base),
        }
    }

    /// Shift the workload's target window(s) to a new base offset.
    pub fn relocated(&self, new_offset: u64) -> Workload {
        match self {
            Workload::Basic(s) => Workload::Basic(s.with_target(new_offset, s.target_size)),
            Workload::Mixed(m) => {
                let mut m2 = *m;
                m2.a = m.a.with_target(new_offset, m.a.target_size);
                m2.b =
                    m.b.with_target(new_offset + m.a.target_size, m.b.target_size);
                Workload::Mixed(m2)
            }
            Workload::Parallel(p) => {
                let mut p2 = *p;
                p2.base = p.base.with_target(new_offset, p.base.target_size);
                Workload::Parallel(p2)
            }
        }
    }
}

/// One experiment point: a parameter value and its workload.
#[derive(Debug, Clone)]
pub struct ExperimentPoint {
    /// The varying parameter's value at this point.
    pub param: f64,
    /// Human-readable parameter rendering (e.g. `32 KB`).
    pub param_label: String,
    /// The workload to run.
    pub workload: Workload,
}

/// An experiment: runs of the same reference pattern with one varying
/// parameter.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment name (e.g. `granularity/SW`).
    pub name: String,
    /// Name of the varying parameter (e.g. `IOSize`).
    pub varying: &'static str,
    /// The points to measure, in sweep order.
    pub points: Vec<ExperimentPoint>,
}

/// The measured outcome of one experiment point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Parameter value.
    pub param: f64,
    /// Parameter label.
    pub param_label: String,
    /// Workload label.
    pub workload_label: String,
    /// Run trace.
    pub run: RunResult,
    /// Summary statistics (running phase only).
    pub stats: Option<RunStats>,
}

/// The measured outcome of a whole experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment name.
    pub name: String,
    /// Varying parameter name.
    pub varying: &'static str,
    /// Per-point results in sweep order.
    pub points: Vec<PointResult>,
}

impl Experiment {
    /// Run every point against `dev`, inserting `inter_run_pause`
    /// between runs so they do not interfere (§4.3).
    pub fn run(
        &self,
        dev: &mut dyn BlockDevice,
        inter_run_pause: std::time::Duration,
    ) -> Result<ExperimentResult> {
        let mut points = Vec::with_capacity(self.points.len());
        for p in &self.points {
            let run = p.workload.execute(dev)?;
            dev.idle(inter_run_pause);
            let stats = run.summary();
            points.push(PointResult {
                param: p.param,
                param_label: p.param_label.clone(),
                workload_label: p.workload.label(),
                run,
                stats,
            });
        }
        Ok(ExperimentResult {
            name: self.name.clone(),
            varying: self.varying,
            points,
        })
    }
}

impl ExperimentResult {
    /// (param, mean ms) series — the paper's typical plot.
    pub fn mean_series(&self) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.stats.map(|s| (p.param, s.mean_ms())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use uflip_device::MemDevice;
    use uflip_patterns::{LbaFn, Mode};

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn exp() -> Experiment {
        let points = [8u64, 16, 32]
            .iter()
            .map(|&kb| ExperimentPoint {
                param: kb as f64,
                param_label: format!("{kb} KB"),
                workload: Workload::Basic(PatternSpec::baseline_sw(kb * KB, 4 * MB, 10)),
            })
            .collect();
        Experiment {
            name: "granularity/SW".into(),
            varying: "IOSize",
            points,
        }
    }

    #[test]
    fn experiment_runs_all_points() {
        let mut dev = MemDevice::new(64 * MB, Duration::from_micros(10), 1);
        let res = exp().run(&mut dev, Duration::from_millis(1)).unwrap();
        assert_eq!(res.points.len(), 3);
        let series = res.mean_series();
        assert_eq!(series.len(), 3);
        // Larger IOs cost more on the linear-cost MemDevice.
        assert!(series[0].1 < series[2].1);
    }

    #[test]
    fn sequential_write_detection() {
        let sw = Workload::Basic(PatternSpec::baseline_sw(32 * KB, MB, 4));
        let rw = Workload::Basic(PatternSpec::baseline_rw(32 * KB, MB, 4));
        let sr = Workload::Basic(PatternSpec::baseline_sr(32 * KB, MB, 4));
        let ordered = Workload::Basic(PatternSpec::baseline(
            LbaFn::Ordered { incr: -1 },
            Mode::Write,
            32 * KB,
            MB,
            4,
        ));
        assert!(sw.uses_sequential_writes());
        assert!(!rw.uses_sequential_writes());
        assert!(!sr.uses_sequential_writes());
        assert!(ordered.uses_sequential_writes());
    }

    #[test]
    fn relocation_moves_windows() {
        let sw = Workload::Basic(PatternSpec::baseline_sw(32 * KB, MB, 4));
        let moved = sw.relocated(16 * MB);
        match moved {
            Workload::Basic(s) => assert_eq!(s.target_offset, 16 * MB),
            _ => unreachable!(),
        }
        let mix = Workload::Mixed(MixSpec::new(
            PatternSpec::baseline_sr(32 * KB, MB, 1),
            PatternSpec::baseline_rw(32 * KB, MB, 1),
            2,
            6,
        ));
        match mix.relocated(8 * MB) {
            Workload::Mixed(m) => {
                assert_eq!(m.a.target_offset, 8 * MB);
                assert_eq!(m.b.target_offset, 9 * MB, "windows stay disjoint");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn target_span_accounts_for_mixes() {
        let mix = Workload::Mixed(MixSpec::new(
            PatternSpec::baseline_sr(32 * KB, MB, 1),
            PatternSpec::baseline_rw(32 * KB, 2 * MB, 1),
            2,
            6,
        ));
        assert_eq!(mix.target_span(), 3 * MB);
    }
}
