//! The real-device queue path: `DirectIoFile`'s threaded wall-clock
//! `IoQueue` must honor the same contract the simulated engine does —
//! every token completes exactly once, admission respects the depth,
//! payload-sized IOs round-trip — and at depth 1 it must issue the
//! exact IO sequence of the synchronous path, while deeper queues
//! genuinely overlap IOs (several in service at once).

#![cfg(unix)]

use std::collections::HashSet;
use std::time::Duration;
use uflip::core::executor::{execute_parallel, execute_parallel_serial};
use uflip::device::{BlockDevice, DirectIoFile, TracingDevice};
use uflip::patterns::{IoRequest, LbaFn, Mode, ParallelSpec, PatternSpec, TimingFn};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("uflip-dioq-{name}-{}", std::process::id()))
}

fn io(mode: Mode, offset: u64, size: u64) -> IoRequest {
    IoRequest {
        index: 0,
        offset,
        size,
        mode,
        submit_delay: Duration::ZERO,
        process: 0,
    }
}

#[test]
fn every_token_returned_exactly_once_and_depth_respected() {
    let path = scratch("tokens");
    let mut dev = DirectIoFile::open_buffered(&path, 4 * MB).expect("open");
    let q = dev.io_queue().expect("real devices now expose a queue");
    q.set_queue_depth(4).unwrap();
    let mut submitted = HashSet::new();
    let mut completed = HashSet::new();
    for round in 0..8u64 {
        for i in 0..4u64 {
            let t = q
                .submit(
                    &io(Mode::Write, (round * 4 + i) * 4096, 4096),
                    Duration::ZERO,
                )
                .expect("queue has free slots");
            assert!(submitted.insert(t), "token reissued while outstanding");
        }
        // Admission: the fifth in-flight submission must bounce.
        assert!(
            matches!(
                q.submit(&io(Mode::Write, 0, 4096), Duration::ZERO),
                Err(uflip::device::DeviceError::QueueFull { depth: 4 })
            ),
            "queue accepted more than its depth"
        );
        while let Some((t, _)) = q.poll() {
            assert!(completed.insert(t), "token completed twice");
        }
    }
    assert_eq!(submitted, completed, "every submitted token completed");
    assert_eq!(submitted.len(), 32);
    let _ = std::fs::remove_file(path);
}

#[test]
fn payload_sized_ios_round_trip() {
    let path = scratch("payload");
    let mut dev = DirectIoFile::open_buffered(&path, 16 * MB).expect("open");
    let q = dev.io_queue().expect("queue");
    q.set_queue_depth(8).unwrap();
    // Writes from 512 B to 1 MB, then read every location back through
    // the queue; any short read/write would surface as an IO error on
    // a later submit (the queue parks async errors there).
    let sizes = [512u64, 4 * KB, 64 * KB, 256 * KB, MB];
    let mut off = 0;
    for &sz in &sizes {
        q.submit(&io(Mode::Write, off, sz), Duration::ZERO)
            .expect("write submit");
        off += sz;
    }
    while q.poll().is_some() {}
    let mut off = 0;
    for &sz in &sizes {
        q.submit(&io(Mode::Read, off, sz), Duration::ZERO)
            .expect("read submit");
        off += sz;
    }
    let mut polled = 0;
    while q.poll().is_some() {
        polled += 1;
    }
    assert_eq!(polled, sizes.len());
    // A clean pass leaves no parked error behind.
    assert!(dev.threaded_queue_mut().take_error().is_none());
    let _ = std::fs::remove_file(path);
}

/// Depth 1 must degenerate to the synchronous path: same IOs, same
/// order. Captured through `TracingDevice` on both paths and compared
/// LBA-by-LBA.
#[test]
fn depth_one_matches_synchronous_io_sequence() {
    let path_q = scratch("seq-queued");
    let path_s = scratch("seq-serial");
    let capacity = 16 * MB;
    let base = PatternSpec::baseline(LbaFn::Sequential, Mode::Write, 4 * KB, 8 * MB, 32);
    let par = ParallelSpec::new(base, 4);

    let dev = DirectIoFile::open_buffered(&path_q, capacity).expect("open");
    let mut traced = TracingDevice::new(dev);
    // Device depth defaults to 1; execute_parallel takes the queued
    // path because the queue exists.
    let run_q = execute_parallel(&mut traced, &par).expect("queued run");
    let (_, trace_q) = traced.into_parts();

    let dev = DirectIoFile::open_buffered(&path_s, capacity).expect("open");
    let mut traced = TracingDevice::new(dev);
    let run_s = execute_parallel_serial(&mut traced, &par).expect("serial run");
    let (_, trace_s) = traced.into_parts();

    assert_eq!(run_q.len(), run_s.len());
    let seq = |t: &uflip::trace::Trace| -> Vec<(Mode, u64, u32)> {
        t.records.iter().map(|r| (r.op, r.lba, r.sectors)).collect()
    };
    assert_eq!(
        seq(&trace_q),
        seq(&trace_s),
        "queue depth 1 must issue the synchronous path's IO sequence"
    );
    for p in [path_q, path_s] {
        let _ = std::fs::remove_file(p);
    }
}

/// Deeper queues must actually overlap IOs on a buffered file. The
/// check is structural, not a wall-clock ratio (which a loaded host
/// can invert): at depth 1 the workers never hold more than one IO in
/// service, at depth 16 they hold at least two at some point. Workers
/// serialised behind one another fail it. Each process pauses 1 ms
/// between its IOs, so a worker holds its next IO until the pause
/// ends; a page-cache read alone finishes within one scheduling slice
/// of a saturated host, before a second worker is scheduled. The
/// elapsed ratio is printed as a measurement only.
#[test]
fn depth_sixteen_overlaps_ios_on_a_buffered_file() {
    let path = scratch("overlap");
    let mut dev = DirectIoFile::open_buffered(&path, 64 * MB).expect("open");
    // Pre-write the window so reads do not hit sparse holes.
    let window = 16 * MB;
    let mut off = 0;
    while off < window {
        dev.write(off, 256 * KB).expect("prefill");
        off += 256 * KB;
    }
    let base = PatternSpec::baseline(LbaFn::Random, Mode::Read, 16 * KB, window, 256)
        .with_timing(TimingFn::Pause(Duration::from_millis(1)));
    let elapsed = |dev: &mut DirectIoFile, depth: u32| -> Duration {
        let par = ParallelSpec::new(base, 16).with_queue_depth(depth);
        let run = execute_parallel(dev, &par).expect("parallel run");
        assert_eq!(run.len(), 256);
        run.elapsed
    };
    let qd1 = elapsed(&mut dev, 1);
    assert_eq!(
        dev.threaded_queue_mut().take_peak_concurrency(),
        1,
        "depth 1 holds exactly one IO in service at a time"
    );
    let qd16 = elapsed(&mut dev, 16);
    let peak = dev.threaded_queue_mut().take_peak_concurrency();
    assert!(
        peak >= 2,
        "depth 16 must overlap IOs: peak in service {peak}"
    );
    println!(
        "qd1 {qd1:?}, qd16 {qd16:?} (qd16/qd1 = {:.2}), peak in service {peak}",
        qd16.as_secs_f64() / qd1.as_secs_f64().max(1e-9)
    );
    assert!(dev.take_async_error().is_none());
    let _ = std::fs::remove_file(path);
}

/// Malformed submissions (out of range, unaligned, empty) are rejected
/// synchronously with the same errors the synchronous path raises —
/// they never reach a worker and never occupy a queue slot.
#[test]
fn bad_submissions_are_rejected_synchronously() {
    let path = scratch("reject");
    let mut dev = DirectIoFile::open_buffered(&path, MB).expect("open");
    let q = dev.io_queue().expect("queue");
    assert!(q.submit(&io(Mode::Read, MB, 512), Duration::ZERO).is_err());
    assert!(q.submit(&io(Mode::Read, 100, 512), Duration::ZERO).is_err());
    assert!(q.submit(&io(Mode::Read, 0, 0), Duration::ZERO).is_err());
    assert_eq!(q.in_flight(), 0, "rejected IOs are not in flight");
    let _ = std::fs::remove_file(path);
}
