//! Self-tests of the benchmark. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::layers::PER_LAYER;
use crate::report::Checker;
use crate::workloads::{
    plan_workloads, prepare, suite_plan, PassOutcome, TraceGen, Workload, DEFAULT_SEED,
};
use crate::END_TO_END;
use std::time::Duration;
use uflip_core::Workload as PlanWorkload;
use uflip_obs::SinkHandle;
use uflip_patterns::IoRequest;
use uflip_trace::Trace;

const REPLAYS: [Workload; 2] = [Workload::OltpReplay, Workload::PagelogReplay];

fn trace(w: Workload, seed: u64) -> Trace {
    TraceGen::for_workload(w, seed)
        .expect("replay workload")
        .generate()
}

/// The suite's whole IO stream for `seed`, as (offset, size) pairs.
fn suite_ios(seed: u64) -> Vec<(u64, u64)> {
    let cap = Workload::UflipSuite.profile().sim_capacity_bytes();
    let plan = suite_plan(seed, cap);
    let pair = |io: IoRequest| (io.offset, io.size);
    plan_workloads(&plan)
        .flat_map(|w| -> Vec<(u64, u64)> {
            match w {
                PlanWorkload::Basic(s) => s.iter().map(pair).collect(),
                PlanWorkload::Mixed(m) => m.iter().map(pair).collect(),
                PlanWorkload::Parallel(p) => p.iter().map(pair).collect(),
            }
        })
        .collect()
}

fn one_pass(w: Workload, seed: u64) -> (PassOutcome, u64) {
    let mut p = prepare(w, seed).expect("prepare");
    p.reset();
    let out = p.run(&SinkHandle::null()).expect("pass");
    (out, p.planned_ios())
}

#[test]
fn generators_are_deterministic_per_seed() {
    for w in REPLAYS {
        let a = trace(w, DEFAULT_SEED);
        assert_eq!(a, trace(w, DEFAULT_SEED), "{}", w.name());
        assert_ne!(a, trace(w, DEFAULT_SEED + 1), "{}", w.name());
    }
    let a = suite_ios(DEFAULT_SEED);
    assert_eq!(a, suite_ios(DEFAULT_SEED));
    assert_ne!(a, suite_ios(DEFAULT_SEED + 1));
}

#[test]
fn binary_round_trip_returns_the_same_trace() {
    for w in REPLAYS {
        let t = trace(w, DEFAULT_SEED);
        let back = Trace::from_binary(&t.to_binary()).expect("decode");
        assert_eq!(back, t, "{}", w.name());
    }
}

#[test]
fn names_and_units_are_well_formed_and_declared() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let workloads = Workload::ALL.map(|w| w.name());
    for name in workloads {
        assert!(name_ok(name), "{name}");
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} undeclared"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(name_ok(name), "{name}");
        assert!(unit_ok(unit), "{name}: unit {unit}");
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(declared.contains(&entry), "{entry} undeclared");
    }
    assert_eq!(
        declared.matches("\"name\":").count(),
        workloads.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares names the benchmark does not report"
    );
}

#[test]
fn a_smoke_pass_of_each_workload_matches_its_committed_fingerprint() {
    for w in Workload::ALL {
        let (out, planned) = one_pass(w, DEFAULT_SEED);
        assert_eq!(out.ios, planned, "{}", w.name());
        assert_eq!(
            Some(out.fingerprint),
            w.committed_fingerprint(),
            "{}: fingerprint {:016x}",
            w.name(),
            out.fingerprint
        );
    }
}

#[test]
fn a_different_seed_changes_the_fingerprint() {
    for w in Workload::ALL {
        let (out, _) = one_pass(w, DEFAULT_SEED + 1);
        assert_ne!(
            Some(out.fingerprint),
            w.committed_fingerprint(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn checker_fails_a_pass_that_differs() {
    let w = Workload::OltpReplay;
    let committed = w.committed_fingerprint().expect("committed fingerprint");
    let pass = |fingerprint| {
        Ok(PassOutcome {
            ios: 10,
            fingerprint,
            sim_elapsed: Duration::ZERO,
            rts: Vec::new(),
        })
    };
    let mut c = Checker::new(w, DEFAULT_SEED);
    assert!(c.check(10, &pass(committed)));
    assert!(!c.check(10, &pass(committed ^ 1)));
    assert!(!c.check(10, &Err("device error".into())));
    let json = c.into_report().to_json();
    assert!(
        json.starts_with("{\"correct\": false, \"attempted\": 30, \"failed\": 20,"),
        "{json}"
    );

    // Another seed has no committed value: only pass-to-pass agreement.
    let mut c = Checker::new(w, DEFAULT_SEED + 1);
    assert!(c.check(10, &pass(7)));
    assert!(!c.check(10, &pass(8)));
}

#[test]
fn quantile_is_nearest_rank_in_any_order() {
    let v = [5.0, 1.0, 4.0, 2.0, 3.0];
    assert_eq!(crate::host::quantile(&v, 0.5), 3.0);
    assert_eq!(crate::host::quantile(&v, 0.9), 5.0);
    assert_eq!(crate::host::quantile(&v, 0.0), 1.0);
    assert!(crate::host::quantile(&[], 0.9).is_nan());
}
