//! Peak live heap of each application's input generation and kernel.
//!
//! No generator holds an n × n input. Every input is used where it is
//! drawn (PCA's rows among them), or re-drawn from a clone of the generator
//! where the kernel reads it (KMEANS's points, MM's A and B). What a kernel
//! does hold is scratch: one block of MM's rows of A and C plus the rows of
//! B one step adds in, and PCA's column weights and current row. A counting
//! global allocator makes that a checked bound: the peak live heap during
//! `App::workload` may exceed that scratch by at most 1 MiB.
//!
//! The file holds one test, so nothing else in this process allocates while
//! a workload is measured.

use mapwave_phoenix::apps::{matrix_mult, pca, App};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes, and the most seen since [`workload_peak`] last reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting live bytes and their peak.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SEED: u64 = 42;
const CORES: usize = 64;
const MIB: usize = 1 << 20;

/// Bytes of input the kernel may hold: one block's scratch, no n × n term.
fn held_inputs(app: App, scale: f64) -> usize {
    let f64s = match app {
        App::MatrixMult => {
            let dim = matrix_mult::scaled_dim(scale);
            (2 * matrix_mult::ROW_BLOCK.min(dim) + matrix_mult::K_UNROLL) * dim
        }
        App::Pca => 2 * pca::scaled_dim(scale),
        _ => 0,
    };
    f64s * size_of::<f64>()
}

/// Peak live heap above the starting level while `app` builds its workload.
fn workload_peak(app: App, scale: f64) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let workload = app.workload(scale, SEED, CORES);
    let peak = PEAK.load(Ordering::Relaxed);
    drop(workload);
    peak - base
}

#[test]
fn generators_hold_only_inputs_read_out_of_draw_order() {
    let cases = App::EXTENDED.iter().map(|&app| (app, 0.1)).chain([
        (App::Kmeans, 1.0),
        (App::MatrixMult, 1.0),
        (App::Pca, 1.0),
    ]);
    let mut over = Vec::new();
    for (app, scale) in cases {
        let peak = workload_peak(app, scale);
        let cap = held_inputs(app, scale) + MIB;
        let line = format!(
            "{app} at scale {scale}: peak {:.2} MiB, cap {:.2} MiB",
            peak as f64 / MIB as f64,
            cap as f64 / MIB as f64
        );
        println!("{line}");
        if peak > cap {
            over.push(line);
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}
