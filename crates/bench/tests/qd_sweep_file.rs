//! End-to-end smoke of the real-device harness path: the `qd_sweep`
//! binary against a buffered temp file must complete, emit valid JSON,
//! and report for every point how many IOs the worker pool held in
//! service at once — exactly one at depth 1, never more than the
//! depth. Whether deeper queues overlap IOs depends on the host's
//! scheduling for the sweep's back-to-back page-cache reads, so that
//! is asserted in `tests/direct_io_queue.rs` on a workload built to
//! show it; here the wall-clock elapsed ratio is printed, not asserted.

#![cfg(unix)]

use serde_json::Value;
use std::process::Command;

/// Field lookup in the vendored JSON shim's object representation.
fn field<'a>(point: &'a Value, key: &str) -> &'a Value {
    point
        .as_map()
        .expect("sweep point is an object")
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing field {key}"))
}

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn qd_sweep_runs_against_a_buffered_file() {
    let dir = std::env::temp_dir().join(format!("uflip-qds-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let target = dir.join("scratch.bin");
    let out = Command::new(env!("CARGO_BIN_EXE_qd_sweep"))
        .arg("--device")
        .arg(format!("buffered:{}:32M", target.display()))
        .arg("--quick")
        .arg("--json")
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("spawn qd_sweep");
    assert!(
        out.status.success(),
        "qd_sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc =
        serde_json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON points on stdout");
    let points = doc.as_seq().expect("a JSON array of sweep points");
    assert!(!points.is_empty());
    // Every emitted point targets the buffered file, never a profile.
    for p in points {
        match field(p, "device") {
            Value::Str(device) => assert!(
                device.starts_with("buffered:"),
                "unexpected device in sweep output: {device}"
            ),
            other => panic!("device is not a string: {other:?}"),
        }
    }
    // The worker pool's concurrency stays within what admission allows.
    for p in points {
        let qd = as_f64(field(p, "queue_depth")) as u64;
        let peak = as_f64(field(p, "peak_in_service")) as u64;
        assert!(
            (1..=qd).contains(&peak),
            "peak in service {peak} outside 1..={qd}"
        );
        if qd == 1 {
            assert_eq!(peak, 1, "depth 1 holds one IO in service at a time");
        }
    }
    let point = |qd: u64| -> &Value {
        points
            .iter()
            .find(|p| {
                matches!(field(p, "pattern"), Value::Str(s) if s == "RR")
                    && matches!(field(p, "queue_depth"), Value::U64(n) if *n == qd)
            })
            .expect("sweep point present")
    };
    let (qd1, qd16) = (
        as_f64(field(point(1), "elapsed_ms")),
        as_f64(field(point(16), "elapsed_ms")),
    );
    println!(
        "RR elapsed: qd1 {qd1:.3} ms, qd16 {qd16:.3} ms (ratio {:.2})",
        qd16 / qd1
    );
    // Artifacts land next to the scratch file.
    assert!(dir.join("qd_sweep.csv").exists());
    assert!(dir.join("qd_sweep.json").exists());
    let _ = std::fs::remove_dir_all(dir);
}
