//! What the operating system knows about this process: CPU time, peak
//! resident memory, and (through a counting allocator) heap allocations
//! made by the current thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// used 100 on every architecture this benchmark runs on; `run.sh` checks
/// `getconf CLK_TCK` and refuses to run when it differs.
pub const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / CLK_TCK
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kib / 1024.0
}

thread_local! {
    // const-initialised and without a destructor, so touching it from
    // inside the allocator can itself never allocate.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of allocation calls.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) made so far by the
/// calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}
