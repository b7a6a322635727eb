//! The correctness check every pass goes through, and the JSON result
//! line.

use crate::workloads::{PassOutcome, Workload, DEFAULT_SEED};
use std::fmt::Write;

/// Checks each pass's fingerprint against the run's first pass and, at
/// the default seed, against the committed value. A pass that fails,
/// errors or issues a different number of IOs counts all its planned
/// IOs as failed.
pub struct Checker {
    workload: Workload,
    committed: Option<Option<u64>>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            committed: (seed == DEFAULT_SEED).then(|| workload.committed_fingerprint()),
            first: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// Check one pass of `planned` IOs; returns whether it is correct.
    pub fn check(&mut self, planned: u64, out: &Result<PassOutcome, String>) -> bool {
        self.attempted += planned;
        let problem = match out {
            Err(e) => Some(e.clone()),
            Ok(o) => {
                let first = *self.first.get_or_insert(o.fingerprint);
                if o.ios != planned {
                    Some(format!("{} IOs measured, {planned} planned", o.ios))
                } else if o.fingerprint != first {
                    Some(format!(
                        "fingerprint {:016x} differs from the first pass's {first:016x}",
                        o.fingerprint
                    ))
                } else {
                    match self.committed {
                        Some(None) => Some(format!(
                            "no committed fingerprint (this pass: {:016x})",
                            o.fingerprint
                        )),
                        Some(Some(c)) if c != o.fingerprint => Some(format!(
                            "fingerprint {:016x} differs from the committed {c:016x}",
                            o.fingerprint
                        )),
                        _ => None,
                    }
                }
            }
        };
        if let Some(p) = &problem {
            self.failed += planned;
            println!(
                "{}: pass failed the correctness check: {p}",
                self.workload.name()
            );
        }
        problem.is_none()
    }

    pub fn into_report(self) -> Report {
        if let Some(fp) = self.first {
            println!("{}: fingerprint {fp:016x}", self.workload.name());
        }
        Report {
            correct: self.failed == 0 && self.attempted > 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: Vec::new(),
        }
    }
}

/// The result line: correctness counts plus named metrics with units.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            println!("metric {name} is not a number; the run is marked incorrect");
            self.correct = false;
        }
        self.metrics.push((name, value, unit));
    }

    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
