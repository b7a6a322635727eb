//! JSON serialization of runs and summaries.

use serde::Serialize;
use std::path::Path;
use uflip_core::RunResult;

/// Serialize any result to pretty JSON.
#[expect(
    clippy::expect_used,
    reason = "serialization of plain result structs with string keys cannot fail"
)]
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("benchmark results are always serializable")
}

/// Write a result to a JSON file, creating parent directories.
pub fn write_json<T: Serialize>(value: &T, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, to_json(value))
}

/// Compact per-run record for archival (label, count, mean/max in ms) —
/// the shape uflip.org's result tables used.
#[derive(Debug, Serialize)]
pub struct RunRecord {
    /// Pattern label.
    pub label: String,
    /// IO count.
    pub count: usize,
    /// Mean ms over the running phase.
    pub mean_ms: f64,
    /// Min ms.
    pub min_ms: f64,
    /// Max ms.
    pub max_ms: f64,
    /// Standard deviation ms.
    pub stddev_ms: f64,
}

impl RunRecord {
    /// Summarize a run (running phase only).
    pub fn from_run(run: &RunResult) -> Option<RunRecord> {
        let s = run.summary()?;
        Some(RunRecord {
            label: run.label.clone(),
            count: s.count as usize,
            mean_ms: s.mean.as_secs_f64() * 1e3,
            min_ms: s.min.as_secs_f64() * 1e3,
            max_ms: s.max.as_secs_f64() * 1e3,
            stddev_ms: s.stddev.as_secs_f64() * 1e3,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn run_record_round_trips_through_json() {
        let run = RunResult::new(
            "RW",
            vec![Duration::from_millis(2), Duration::from_millis(4)],
            0,
            Duration::from_millis(6),
        );
        let rec = RunRecord::from_run(&run).unwrap();
        assert_eq!(rec.count, 2);
        assert!((rec.mean_ms - 3.0).abs() < 1e-9);
        let json = to_json(&rec);
        assert!(json.contains("\"label\": \"RW\""));
    }

    #[test]
    fn write_json_creates_directories() {
        let dir = std::env::temp_dir().join(format!("uflip-json-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_json(&vec![1, 2, 3], &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains('1'));
        let _ = std::fs::remove_dir_all(dir);
    }
}
