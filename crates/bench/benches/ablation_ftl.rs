//! Ablation bench: the three FTL families on *identical* workloads —
//! the design choice behind each profile's `ftl_family()`. Also
//! prints the virtual-time outcome once per run (who wins on random
//! writes, by how much) so `cargo bench` output documents the
//! mechanism, not just host-side speed.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::sync::Once;
use uflip_core::executor::execute_run;
use uflip_device::sim_device::{ControllerConfig, SimDevice};
use uflip_ftl::{
    BlockMapConfig, BlockMapFtl, Ftl, HybridLogConfig, HybridLogFtl, PageMapConfig, PageMapFtl,
    ReplacementPolicy,
};
use uflip_nand::{ChipConfig, NandArrayConfig, ProgramOrder};
use uflip_patterns::PatternSpec;

const MB: u64 = 1024 * 1024;

fn array() -> NandArrayConfig {
    let mut chip = ChipConfig::slc();
    chip.geometry.blocks_per_plane = 128; // 32 MB per chip
    chip.program_order = ProgramOrder::Ascending;
    NandArrayConfig {
        chip,
        chips: 4,
        channels: 4,
    }
}

fn page_map() -> Box<dyn Ftl + Send> {
    Box::new(
        PageMapFtl::new(PageMapConfig {
            array: array(),
            capacity_bytes: 96 * MB,
            low_watermark: 4,
            high_watermark: 8,
            async_reclaim: false,
            read_contention_factor: 1.0,
            bg_rate_during_reads: 0.0,
        })
        .expect("page map config"),
    )
}

fn hybrid() -> Box<dyn Ftl + Send> {
    Box::new(
        HybridLogFtl::new(HybridLogConfig {
            array: array(),
            capacity_bytes: 96 * MB,
            seq_slots: 4,
            rand_log_groups: 8,
            write_cache: uflip_ftl::WriteCacheConfig::disabled(),
            descending_streams: false,
            async_reclaim: false,
            bg_reserve_groups: 0,
            read_contention_factor: 1.0,
            bg_rate_during_reads: 0.0,
            incremental_gc: true,
            associative: true,
            rmw_granularity_bytes: 0,
        })
        .expect("hybrid config"),
    )
}

fn block_map() -> Box<dyn Ftl + Send> {
    Box::new(
        BlockMapFtl::new(BlockMapConfig {
            array: array(),
            capacity_bytes: 96 * MB,
            au_blocks_per_chip: 2,
            chunk_bytes: 32 * 1024,
            open_aus: 4,
            policy: ReplacementPolicy::Ordered {
                ooo_random_chunks: 8,
                ooo_inplace_chunks: 8,
                ooo_reverse_chunks: 8,
            },
        })
        .expect("block map config"),
    )
}

fn dev(ftl: Box<dyn Ftl + Send>) -> SimDevice {
    SimDevice::new("ablation", ftl, ControllerConfig::sata_ssd(), None)
}

static PRINT_ONCE: Once = Once::new();

fn benches(c: &mut Criterion) {
    // One-off virtual-time comparison (the mechanism, not host speed).
    PRINT_ONCE.call_once(|| {
        for (name, mk) in [
            ("page-map", page_map as fn() -> Box<dyn Ftl + Send>),
            ("hybrid-log", hybrid),
            ("block-map", block_map),
        ] {
            let mut d = dev(mk());
            let sw = execute_run(&mut d, &PatternSpec::baseline_sw(32 * 1024, 16 * MB, 256))
                .expect("SW");
            let rw = execute_run(
                &mut d,
                &PatternSpec::baseline_rw(32 * 1024, 64 * MB, 256).with_target(16 * MB, 64 * MB),
            )
            .expect("RW");
            let ms = |r: &uflip_core::RunResult| {
                r.rts.iter().map(|d| d.as_secs_f64()).sum::<f64>() / r.rts.len() as f64 * 1e3
            };
            eprintln!(
                "[ablation virtual time] {name:<10} SW {:.2} ms  RW {:.2} ms  (RW/SW x{:.1})",
                ms(&sw),
                ms(&rw),
                ms(&rw) / ms(&sw)
            );
        }
    });
    let mut group = c.benchmark_group("ablation_ftl/random_writes");
    group.sample_size(10);
    for (name, mk) in [
        ("page-map", page_map as fn() -> Box<dyn Ftl + Send>),
        ("hybrid-log", hybrid),
        ("block-map", block_map),
    ] {
        group.bench_function(name, |b| {
            let spec =
                PatternSpec::baseline_rw(32 * 1024, 64 * MB, 128).with_target(16 * MB, 64 * MB);
            b.iter_batched(
                || dev(mk()),
                |mut d| execute_run(&mut d, &spec).expect("run"),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(ablation, benches);
criterion_main!(ablation);
