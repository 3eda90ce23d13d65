//! Host plumbing: the counting allocator, the flush model, pinning, clocks
//! and `/proc` readers. Linux-only by construction (the ledger gates on a
//! Linux microVM); every call that can be refused falls back silently and
//! the fallback is visible in the provenance line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------- allocator

/// `System`, counting every allocation request. Relaxed atomics: the counts
/// publish no other data.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation requests (alloc + alloc_zeroed + realloc) and the bytes they
/// asked for, process-wide since start.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

pub fn alloc_count() -> AllocCount {
    AllocCount {
        calls: ALLOC_CALLS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
    }
}

// -------------------------------------------------------------- flush model

/// What one modelled flush costs, in microseconds.
pub const FLUSH_MODEL_US: u64 = 100;

static FLUSH_CALLS: AtomicU64 = AtomicU64::new(0);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn nanosleep(req: *const Timespec, rem: *mut Timespec) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn prctl(option: i32, a2: u64, a3: u64, a4: u64, a5: u64) -> i32;
}

fn modelled_flush() -> i32 {
    FLUSH_CALLS.fetch_add(1, Ordering::Relaxed);
    let req = Timespec { tv_sec: 0, tv_nsec: (FLUSH_MODEL_US * 1_000) as i64 };
    // SAFETY: `req` is a valid timespec for the duration of the call and a
    // null `rem` is allowed. An early return on a signal only shortens one
    // modelled flush.
    unsafe { nanosleep(&req, std::ptr::null_mut()) };
    0
}

/// The flush model. A definition in the executable takes precedence over
/// libc's at link time, so every `File::sync_all` / `sync_data` in the
/// program (std calls `fsync` / `fdatasync`) lands here: it is counted and
/// costs a fixed [`FLUSH_MODEL_US`] sleep instead of whatever the host's
/// page cache and disk happen to charge this hour. No run crashes, so
/// nothing a real flush would have protected is lost.
#[no_mangle]
pub extern "C" fn fsync(_fd: i32) -> i32 {
    modelled_flush()
}

/// See [`fsync`].
#[no_mangle]
pub extern "C" fn fdatasync(_fd: i32) -> i32 {
    modelled_flush()
}

/// Modelled flushes since process start.
pub fn flush_count() -> u64 {
    FLUSH_CALLS.load(Ordering::Relaxed)
}

// ------------------------------------------------------ process-wide set-up

/// What [`init_process`] managed to apply; printed in the provenance.
#[derive(Debug, Clone, Copy)]
pub struct HostSetup {
    /// Cores the process was allowed on before pinning.
    pub cores: usize,
    /// The core every thread now runs on; `None` when pinning was refused.
    pub pinned_core: Option<usize>,
    /// `mallopt(M_ARENA_MAX, 1)` accepted.
    pub single_arena: bool,
    /// Timer slack lowered to the minimum (1 ns).
    pub min_timer_slack: bool,
}

/// Call first thing in `main`, before any thread exists: affinity and timer
/// slack are inherited by threads spawned afterwards.
pub fn init_process() -> HostSetup {
    const M_ARENA_MAX: i32 = -8;
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: plain libc calls with scalar arguments.
    let single_arena = unsafe { mallopt(M_ARENA_MAX, 1) } == 1;
    // SAFETY: as above.
    let min_timer_slack = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) } == 0;

    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and writable.
    let got = unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } == 0;
    let allowed: Vec<usize> =
        (0..mask.len() * 64).filter(|&cpu| got && mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
    let cores = allowed.len().max(1);
    let pinned_core = allowed.last().copied().filter(|&cpu| {
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is `bytes` long and readable.
        unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
    });
    HostSetup { cores, pinned_core, single_arena, min_timer_slack }
}

// -------------------------------------------------------------------- clocks

/// Nanoseconds since the first call, on the monotonic clock every span and
/// latency in the ledger is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// CPU time consumed by every thread of the process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec.
    unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

// --------------------------------------------------------------------- /proc

/// Peak resident set (`VmHWM`) in MiB; 0.0 when `/proc` is unreadable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host disturbance counters from the first line of `/proc/stat`, in clock
/// ticks summed over all cores.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    pub steal: u64,
    pub iowait: u64,
}

pub fn host_ticks() -> HostTicks {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    HostTicks {
        iowait: fields.get(4).copied().unwrap_or(0),
        steal: fields.get(7).copied().unwrap_or(0),
    }
}

/// One reading of every per-window resource counter.
#[derive(Debug, Clone, Copy)]
pub struct Meter {
    pub cpu_ns: u64,
    pub alloc: AllocCount,
    pub flushes: u64,
}

impl Meter {
    pub fn read() -> Self {
        Meter { cpu_ns: process_cpu_ns(), alloc: alloc_count(), flushes: flush_count() }
    }

    /// Counters consumed since `earlier`.
    pub fn since(&self, earlier: &Meter) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            alloc_calls: self.alloc.calls - earlier.alloc.calls,
            alloc_bytes: self.alloc.bytes - earlier.alloc.bytes,
            flushes: self.flushes - earlier.flushes,
        }
    }
}

/// Resource use over an interval; additive.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ns: u64,
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    pub flushes: u64,
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, o: Usage) {
        self.cpu_ns += o.cpu_ns;
        self.alloc_calls += o.alloc_calls;
        self.alloc_bytes += o.alloc_bytes;
        self.flushes += o.flushes;
    }
}
