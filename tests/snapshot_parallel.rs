//! Integration and property tests for device-state snapshots and
//! sharded parallel plan execution (ISSUE 3).
//!
//! Two contracts are asserted here, both made exact by virtual time:
//!
//! * **snapshot → mutate → restore is bit-identical**: a restored
//!   device is indistinguishable — clock, FTL statistics, NAND wear
//!   and counters, and the response time of every future IO — from a
//!   fork taken at the snapshot instant;
//! * **sharded parallel `execute_plan` ≡ serial `execute_plan`**: the
//!   merged points, reset count and summed device time of the
//!   reset-delimited-segment execution (`SuiteOptions::threads` ≠ 1)
//!   equal the serial path's, on both `MemDevice` and `SimDevice`.

use proptest::prelude::*;
use std::time::Duration;
use uflip::core::micro::MicroConfig;
use uflip::core::suite::{run_full_suite, SuiteOptions};
use uflip::device::profiles::catalog;
use uflip::device::{BlockDevice, ControllerConfig, MemDevice, SimDevice};
use uflip::ftl::{PageMapConfig, PageMapFtl};
use uflip::obs::SinkHandle;
use uflip::patterns::{IoRequest, Mode};

const MB: u64 = 1024 * 1024;

/// A small page-mapped SSD with GC pressure and background
/// reclamation — enough machinery that a shallow copy would get every
/// one of these tests wrong.
fn small_ssd() -> SimDevice {
    let mut cfg = PageMapConfig::tiny();
    cfg.array.chip.geometry.blocks_per_plane = 64;
    cfg.capacity_bytes = cfg.array.capacity_bytes() * 3 / 4;
    cfg.async_reclaim = true;
    cfg.low_watermark = 2;
    cfg.high_watermark = 6;
    cfg.read_contention_factor = 2.0;
    cfg.bg_rate_during_reads = 0.5;
    let ftl = PageMapFtl::new(cfg).expect("valid config");
    SimDevice::new(
        "small-ssd",
        Box::new(ftl),
        ControllerConfig::sata_ssd(),
        None,
    )
}

/// Deterministic pseudo-random IO stream (SplitMix64).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drive `n` mixed random IOs (reads, writes, occasional idles).
fn churn(dev: &mut SimDevice, seed: u64, n: usize) {
    let cap = dev.capacity_bytes();
    let mut s = seed;
    for _ in 0..n {
        let sectors = 1 + mix(&mut s) % 16;
        let len = sectors * 512;
        let offset = (mix(&mut s) % ((cap - len) / 512)) * 512;
        match mix(&mut s) % 4 {
            0 => {
                dev.read(offset, len).expect("read");
            }
            3 => dev.idle(Duration::from_micros(mix(&mut s) % 500)),
            _ => {
                dev.write(offset, len).expect("write");
            }
        }
    }
}

/// Every observable the snapshot must cover, collected for equality
/// checks: clock, FTL host stats, aggregated NAND stats (programs,
/// erases, copy-backs, busy time — wear is part of erase counts).
fn observables(dev: &SimDevice) -> (Duration, uflip::ftl::FtlStats, uflip::nand::NandStats) {
    (dev.now(), dev.ftl().stats(), dev.ftl().nand_stats())
}

#[test]
fn snapshot_then_mutate_then_restore_is_bit_identical() {
    let mut dev = small_ssd();
    churn(&mut dev, 0xA5, 400);
    let snap = dev.snapshot();
    let reference = dev.clone(); // fork at the snapshot instant
    let at_snapshot = observables(&dev);

    // Mutate heavily: more churn, idle-time background reclamation.
    churn(&mut dev, 0x5A, 800);
    dev.idle(Duration::from_secs(2));
    assert_ne!(
        observables(&dev).0,
        at_snapshot.0,
        "mutation must move the clock"
    );

    dev.restore(&snap);
    assert_eq!(observables(&dev), at_snapshot, "state rewinds exactly");

    // The future must be identical too: same probe workload, same
    // response time for every IO on the restored device and the fork.
    let mut restored = dev;
    let mut forked = reference;
    let mut s = 0xDEAD;
    for _ in 0..300 {
        let sectors = 1 + mix(&mut s) % 8;
        let len = sectors * 512;
        let offset = (mix(&mut s) % ((restored.capacity_bytes() - len) / 512)) * 512;
        let (a, b) = if mix(&mut s).is_multiple_of(3) {
            (
                restored.read(offset, len).expect("read"),
                forked.read(offset, len).expect("read"),
            )
        } else {
            (
                restored.write(offset, len).expect("write"),
                forked.write(offset, len).expect("write"),
            )
        };
        assert_eq!(a, b, "restored and forked devices must agree on every IO");
    }
    assert_eq!(observables(&restored), observables(&forked));
}

#[test]
fn restore_is_repeatable() {
    let mut dev = small_ssd();
    churn(&mut dev, 7, 300);
    let snap = dev.snapshot();
    let run = |dev: &mut SimDevice| {
        let mut rts = Vec::new();
        let mut s = 42u64;
        for _ in 0..100 {
            let offset = (mix(&mut s) % (dev.capacity_bytes() / 512 - 8)) * 512;
            rts.push(dev.write(offset, 4096).expect("write"));
        }
        rts
    };
    dev.restore(&snap);
    let first = run(&mut dev);
    dev.restore(&snap);
    let second = run(&mut dev);
    assert_eq!(first, second, "a snapshot can be restored many times");
}

proptest! {
    /// Whatever mutation happens between snapshot and restore, the
    /// restored device times a probe workload exactly like a fork
    /// taken at the snapshot instant.
    #[test]
    fn restore_erases_any_mutation(seed in any::<u64>(), mutation_len in 0usize..200) {
        let mut dev = small_ssd();
        churn(&mut dev, seed, 150);
        let snap = dev.snapshot();
        let mut reference = dev.clone();
        churn(&mut dev, seed ^ 0xFFFF, mutation_len);
        dev.restore(&snap);
        let mut s = seed.wrapping_mul(3);
        for _ in 0..60 {
            let offset = (mix(&mut s) % (dev.capacity_bytes() / 512 - 8)) * 512;
            let a = dev.write(offset, 4096).expect("write");
            let b = reference.write(offset, 4096).expect("write");
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(observables(&dev), observables(&reference));
    }
}

#[test]
fn snapshot_covers_in_flight_queue_state() {
    // A snapshot must capture the queue calendar — the in-flight
    // completion heap, service slots, token counter and busy horizon —
    // not just FTL and clock state. Take one while the queue is half
    // full and verify the restored device drains and continues exactly
    // like a fork taken at the same instant.
    let mut dev = small_ssd();
    churn(&mut dev, 0x11, 200);
    let cap = dev.capacity_bytes();
    let now = dev.now();
    let submit = |d: &mut SimDevice, at: Duration, base: u64, n: u64| {
        let q = d.io_queue().expect("sim devices are queue-capable");
        q.set_queue_depth(8).expect("no IOs in flight");
        for i in 0..n {
            let io = IoRequest {
                index: i,
                offset: (base + i * 37) * 4096 % (cap - 4096),
                size: 4096,
                mode: if i % 3 == 0 { Mode::Read } else { Mode::Write },
                submit_delay: Duration::ZERO,
                process: 0,
            };
            q.submit(&io, at).expect("queue has room");
        }
    };
    submit(&mut dev, now, 5, 6);
    assert_eq!(dev.io_queue().expect("queue").in_flight(), 6);

    let snap = dev.snapshot();
    let fork = dev.clone();

    // Mutate: drain every completion, then run more queued and
    // synchronous work so tokens, slots and the busy horizon all move.
    let drain = |d: &mut SimDevice| {
        let mut done = Vec::new();
        let q = d.io_queue().expect("queue");
        while let Some(x) = q.poll() {
            done.push(x);
        }
        done
    };
    let drained = drain(&mut dev);
    assert_eq!(drained.len(), 6);
    let t = dev.now() + Duration::from_millis(1);
    submit(&mut dev, t, 900, 4);
    drain(&mut dev);
    churn(&mut dev, 0x22, 200);

    dev.restore(&snap);
    let mut restored = dev;
    let mut forked = fork;

    // The restored queue still holds the six in-flight IOs and drains
    // to the same (token, completion) pairs as the fork.
    assert_eq!(restored.io_queue().expect("queue").in_flight(), 6);
    assert_eq!(drain(&mut restored), drain(&mut forked));

    // Continuation is identical too: the token sequence resumes from
    // the same counter and fresh IOs complete at the same instants.
    let t = restored.now() + Duration::from_millis(2);
    submit(&mut restored, t, 333, 5);
    submit(&mut forked, t, 333, 5);
    assert_eq!(drain(&mut restored), drain(&mut forked));
    assert_eq!(observables(&restored), observables(&forked));
}

fn quick_cfg(target_size: u64) -> MicroConfig {
    let mut cfg = MicroConfig::quick();
    cfg.io_count = 12;
    cfg.io_count_rw = 12;
    cfg.target_size = target_size;
    cfg
}

fn null() -> SinkHandle {
    SinkHandle::null()
}

/// [`suite_opts`] with the plan's segments sharded across `threads`
/// workers (0 = one per CPU).
fn sharded_opts(threads: usize) -> SuiteOptions {
    SuiteOptions {
        threads,
        ..suite_opts()
    }
}

fn suite_opts() -> SuiteOptions {
    SuiteOptions {
        inter_run_pause: Duration::from_millis(50),
        enforce_state: true,
        state_coverage: 0.5,
        seed: 11,
        snapshot_resets: true,
        ..SuiteOptions::default()
    }
}

#[test]
fn sharded_plan_is_bit_identical_to_serial_on_mem_device() {
    // target_size > capacity/2: every second sequential-write point
    // exhausts the device and forces a reset — many segments.
    let cfg = quick_cfg(5 * MB);
    let mk = || MemDevice::new(8 * MB, Duration::from_micros(40), 1);
    let mut serial_dev = mk();
    let (plan, serial) =
        run_full_suite(&mut serial_dev, &cfg, &suite_opts(), &null()).expect("serial");
    assert!(serial.resets >= 2, "plan must exercise resets: {plan:?}");
    for threads in [2, 3, 0] {
        let mut dev = mk();
        let (_, sharded) =
            run_full_suite(&mut dev, &cfg, &sharded_opts(threads), &null()).expect("sharded");
        assert_eq!(serial, sharded, "threads={threads}");
    }
}

#[test]
fn sharded_plan_is_bit_identical_to_serial_on_sim_device() {
    let profile = catalog::transcend_module();
    let cfg = quick_cfg(profile.sim_capacity_bytes() / 2 + MB);
    let mut serial_dev = profile.build_sim(11);
    let (_, serial) =
        run_full_suite(serial_dev.as_mut(), &cfg, &suite_opts(), &null()).expect("serial");
    assert!(serial.resets >= 2, "plan must exercise resets");
    let mut dev = profile.build_sim(11);
    let (_, sharded) =
        run_full_suite(dev.as_mut(), &cfg, &sharded_opts(4), &null()).expect("sharded");
    assert_eq!(serial.resets, sharded.resets);
    assert_eq!(serial.device_time, sharded.device_time);
    assert_eq!(serial.points.len(), sharded.points.len());
    for (a, b) in serial.points.iter().zip(&sharded.points) {
        assert_eq!(a, b);
    }
}

#[test]
fn sharded_plan_falls_back_when_snapshots_are_off() {
    let cfg = quick_cfg(5 * MB);
    let opts = SuiteOptions {
        snapshot_resets: false,
        ..suite_opts()
    };
    let mk = || MemDevice::new(8 * MB, Duration::from_micros(40), 1);
    let mut a = mk();
    let mut b = mk();
    let (_, serial) = run_full_suite(&mut a, &cfg, &opts, &null()).expect("serial");
    let sharded_opts = SuiteOptions { threads: 4, ..opts };
    let (_, sharded) = run_full_suite(&mut b, &cfg, &sharded_opts, &null()).expect("fallback");
    // Both re-enforce at every reset (the paper-literal path).
    assert_eq!(serial, sharded);
}

#[test]
fn snapshot_resets_skip_reenforcement_device_work() {
    // With snapshot resets, the device performs the enforcement IOs
    // once; with re-enforcement it performs them at every reset. The
    // MemDevice write counter exposes the difference directly.
    let cfg = quick_cfg(5 * MB);
    let mk = || MemDevice::new(8 * MB, Duration::from_micros(40), 1);
    let mut snap_dev = mk();
    let (_, with_snap) = run_full_suite(&mut snap_dev, &cfg, &suite_opts(), &null()).expect("snap");
    let mut legacy_dev = mk();
    let legacy_opts = SuiteOptions {
        snapshot_resets: false,
        ..suite_opts()
    };
    let (_, legacy) = run_full_suite(&mut legacy_dev, &cfg, &legacy_opts, &null()).expect("legacy");
    assert!(with_snap.resets >= 2);
    assert_eq!(with_snap.resets, legacy.resets);
    assert!(
        legacy_dev.writes() > snap_dev.writes(),
        "re-enforcement must cost extra device writes ({} vs {})",
        legacy_dev.writes(),
        snap_dev.writes()
    );
}
