//! Integration test: the full nine-micro-benchmark suite executes end
//! to end on a simulated device through the §4.2 benchmark plan
//! (state-neutral experiments first, sequential-write experiments
//! packed onto disjoint windows, resets when space runs out).

use std::time::Duration;
use uflip::core::methodology::plan::BenchmarkPlan;
use uflip::core::micro::MicroConfig;
use uflip::core::suite::{full_suite, run_full_suite, SuiteOptions};
use uflip::device::profiles::catalog;
use uflip::obs::SinkHandle;

fn tiny_cfg() -> MicroConfig {
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 24;
    cfg.io_count_rw = 24;
    cfg.target_size = 4 * 1024 * 1024;
    cfg
}

#[test]
fn full_suite_runs_on_a_simulated_device() {
    let mut dev = catalog::transcend_module().build_sim(3);
    let opts = SuiteOptions {
        inter_run_pause: Duration::from_millis(100),
        enforce_state: true,
        state_coverage: 1.0,
        seed: 3,
        ..Default::default()
    };
    let (plan, result) =
        run_full_suite(dev.as_mut(), &tiny_cfg(), &opts, &SinkHandle::null()).expect("suite");
    assert_eq!(result.points.len(), plan.run_count());
    // Every one of the nine micro-benchmark families produced results.
    let families: std::collections::BTreeSet<&str> = result
        .points
        .iter()
        .map(|p| p.experiment.split('/').next().expect("has /"))
        .collect();
    assert_eq!(families.len(), 9, "families measured: {families:?}");
    // Sanity: granularity means grow with IO size for sequential reads.
    let series = result.mean_series("granularity/SR");
    assert!(series.len() >= 10);
    assert!(
        series.last().expect("non-empty").1 > series.first().expect("non-empty").1,
        "512 KB reads must cost more than 0.5 KB reads"
    );
}

#[test]
fn plan_packs_sequential_writes_disjointly() {
    let cfg = tiny_cfg();
    let capacity = catalog::transcend_module().sim_capacity_bytes();
    let plan = BenchmarkPlan::build(full_suite(&cfg), capacity);
    // Collect the windows assigned to sequential-write runs and verify
    // no two overlap between consecutive resets.
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for step in &plan.steps {
        match step {
            uflip::core::methodology::plan::PlanStep::ResetState => windows.clear(),
            uflip::core::methodology::plan::PlanStep::Run {
                experiment,
                point,
                offset,
            } => {
                let p = &plan.experiments[*experiment].points[*point];
                if p.workload.uses_sequential_writes() {
                    let span = p.workload.target_span();
                    for &(o, s) in &windows {
                        assert!(
                            *offset >= o + s || *offset + span <= o,
                            "sequential-write windows overlap: ({offset}, {span}) vs ({o}, {s})"
                        );
                    }
                    windows.push((*offset, span));
                }
            }
            _ => {}
        }
    }
}
