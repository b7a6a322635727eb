//! Host-side measurement: the frozen reference loop that rescales host
//! time to a nominal machine speed, the counting allocator behind the
//! `alloc.*` metrics, peak resident memory (and the allocator setting
//! that keeps it steady) and order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Words in the reference buffer: 32 MiB of `u64`, comparable to the
/// simulator's resident state (NAND page tables and FTL maps of one
/// device).
const REF_WORDS: usize = 1 << 22;

/// Read-modify-write steps per reference measurement.
const REF_STEPS: u64 = 1 << 20;

/// Seconds one reference measurement takes on the machine the
/// benchmark's nominal speed is defined by (a 2-vCPU x86-64 Linux VM).
/// Host times are rescaled by `REF_NOMINAL_S / measured`, so a host that
/// slows the loop and the simulator alike reports the same normalised
/// figures. Frozen: changing it, `REF_WORDS`, `REF_STEPS` or the loop
/// body changes every normalised metric.
pub const REF_NOMINAL_S: f64 = 0.033;

/// The host-speed reference: integer hashing plus random
/// read-modify-write over a buffer that does not fit in the per-core
/// caches. It calls no workspace crate, so no change to the simulator
/// can move it.
///
/// A `Clock` times regions of work with a reference measurement
/// between consecutive regions, so every region has one right before
/// and one right after it.
pub struct Clock {
    buf: Vec<u64>,
    salt: u64,
    last_ref_s: f64,
}

impl Clock {
    /// Allocate and touch the buffer, then take the first reference
    /// measurement.
    pub fn new() -> Self {
        let mut c = Clock {
            buf: (0..REF_WORDS as u64).collect(),
            salt: 0x5EED,
            last_ref_s: 0.0,
        };
        c.reference();
        c.last_ref_s = c.reference();
        c
    }

    fn reference(&mut self) -> f64 {
        self.salt = self.salt.wrapping_add(1);
        let t = Instant::now();
        black_box(ref_kernel(black_box(&mut self.buf), self.salt));
        t.elapsed().as_secs_f64()
    }

    /// Run and time `f`, then measure the reference again.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let t = Instant::now();
        let out = f();
        let raw_s = t.elapsed().as_secs_f64();
        let before = self.last_ref_s;
        self.last_ref_s = self.reference();
        (out, Timed::new(raw_s, before, self.last_ref_s))
    }
}

fn ref_kernel(buf: &mut [u64], salt: u64) -> u64 {
    let mask = buf.len() - 1;
    let mut x = salt;
    let mut acc = 0u64;
    for _ in 0..REF_STEPS {
        x = splitmix64(x);
        let i = (x as usize) & mask;
        let v = splitmix64(buf[i] ^ x);
        buf[i] = v;
        acc = acc.wrapping_add(v);
    }
    acc
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One host-timed region with the reference measurements around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Host seconds of the region.
    pub raw_s: f64,
    /// Reference seconds: geometric mean of the runs before and after.
    pub ref_s: f64,
}

impl Timed {
    fn new(raw_s: f64, ref_before: f64, ref_after: f64) -> Self {
        Timed {
            raw_s,
            ref_s: (ref_before * ref_after).sqrt(),
        }
    }

    /// Host seconds rescaled to the reference loop's nominal speed.
    pub fn norm_s(&self) -> f64 {
        self.norm(self.raw_s)
    }

    /// `raw_s` seconds, measured inside this region, rescaled.
    pub fn norm(&self, raw_s: f64) -> f64 {
        raw_s * REF_NOMINAL_S / self.ref_s
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of `v`, in any order; `NaN` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s.get(rank.clamp(1, s.len().max(1)) - 1)
        .copied()
        .unwrap_or(f64::NAN)
}

/// Nearest-rank quantile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Pin glibc malloc's mmap threshold at its default of 128 KiB; returns
/// false if the C library refused. Left dynamic, glibc raises the
/// threshold to the size of each large block freed, after which such
/// blocks come from the heap, and whether a pass's 4 MiB response-time
/// vector reuses a hole there or grows the heap depends on the layout:
/// `VmHWM` then differed by 4 MiB between runs of the same code. Pinned,
/// large blocks are always mapped and unmapped, so the peak follows the
/// memory the program holds. Other C libraries are left as they are.
pub fn pin_malloc_policy() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` takes two integers and only changes the
        // allocator's tuning, which glibc allows at any time; it is
        // called before the benchmark starts its work.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        true
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations, which
/// may move) while [`count_allocs`] runs. Outside it the cost is one
/// relaxed load per allocation.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator and
        // the caller's guarantees for `layout`/`new_size` carry over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return its result with the allocations and allocated
/// bytes it made. The benchmark is single-threaded, so nothing else
/// allocates meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    );
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        ALLOCS.load(Ordering::Relaxed) - a0,
        ALLOC_BYTES.load(Ordering::Relaxed) - b0,
    )
}
