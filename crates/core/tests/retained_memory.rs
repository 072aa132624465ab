//! Retained heap of the design flow's finished products.
//!
//! A finished [`RunReport`](mapwave::system::RunReport) or [`Design`] keeps
//! one dense `n × n` matrix, its whole-run traffic: the per-stage matrices
//! stay inside `run_system`. Every mesh spec of a [`DesignFlow`] shares
//! the die's one XY routing table. A counting global allocator makes both
//! checked bounds.
//!
//! The tests take [`SERIAL`], so nothing else in this process allocates
//! while one of them measures.

use mapwave::config::PlatformConfig;
use mapwave::design_flow::{Design, DesignFlow};
use mapwave::experiments::ExperimentContext;
use mapwave::orchestrator::RunVariant;
use mapwave_noc::routing::RoutingTable;
use mapwave_phoenix::apps::App;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocations of exactly [`WATCH_SIZE`] bytes (0 watches nothing).
static WATCH_SIZE: AtomicUsize = AtomicUsize::new(0);
static WATCHED: AtomicUsize = AtomicUsize::new(0);
/// The largest allocation since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

static SERIAL: Mutex<()> = Mutex::new(());

/// [`System`], counting live bytes and watched allocation sizes.
struct Counting;

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
}

fn allocated(size: usize) {
    grow(size);
    LARGEST.fetch_max(size, Ordering::Relaxed);
    if size == WATCH_SIZE.load(Ordering::Relaxed) {
        WATCHED.fetch_add(1, Ordering::Relaxed);
    }
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
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
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

fn cfg() -> PlatformConfig {
    PlatformConfig::small().with_scale(0.002)
}

/// What an [`ExperimentContext`] may retain beyond its reports' and
/// designs' whole-run matrices: the workloads, the network statistics, the
/// small per-core vectors. It measured 236 KiB when this test was written;
/// three per-stage matrices kept in each of the 36 products would add
/// 216 KiB more.
const SLACK: usize = 288 << 10;

#[test]
fn context_retains_one_matrix_per_report_and_design() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cfg = cfg();
    let n = cfg.cores();
    let base = LIVE.load(Ordering::Relaxed);
    let ctx = ExperimentContext::new(cfg).expect("valid config");
    let retained = LIVE.load(Ordering::Relaxed) - base;

    let designs = App::ALL.len();
    let reports = designs * RunVariant::ALL.len();
    let matrices = (designs + reports) * n * n * size_of::<f64>();
    println!(
        "retained {retained} B: {matrices} B of whole-run matrices, {} B else",
        retained.saturating_sub(matrices)
    );
    assert!(
        retained <= matrices + SLACK,
        "an ExperimentContext retains {retained} B, over {matrices} B of whole-run \
         matrices ({designs} designs, {reports} reports) plus {SLACK} B"
    );
    drop(ctx);
}

/// Allocations of `size` bytes while `f` runs.
fn count_allocations_of(size: usize, f: impl FnOnce()) -> usize {
    WATCH_SIZE.store(size, Ordering::Relaxed);
    WATCHED.store(0, Ordering::Relaxed);
    f();
    WATCH_SIZE.store(0, Ordering::Relaxed);
    WATCHED.load(Ordering::Relaxed)
}

#[test]
fn mesh_specs_share_one_xy_table() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let cfg = cfg();
    let setup = DesignFlow::new(cfg.clone()).expect("valid config");
    let designs: Vec<Design> = [App::WordCount, App::Histogram]
        .into_iter()
        .map(|app| setup.design(app))
        .collect();

    // An XY table's signature: the largest block its construction holds.
    LARGEST.store(0, Ordering::Relaxed);
    let table = RoutingTable::xy(cfg.cols, cfg.rows);
    let table_block = LARGEST.load(Ordering::Relaxed);
    drop(table);

    // A fresh flow, so its table is not built yet. Only the mesh specs
    // count: a WiNoC spec builds an up*/down* table of the same shape.
    let flow = DesignFlow::new(cfg).expect("valid config");
    let mut specs = Vec::with_capacity(designs.len() * RunVariant::ALL.len());
    let mut tables = 0;
    for design in &designs {
        for variant in RunVariant::ALL {
            let is_mesh = matches!(
                variant,
                RunVariant::Nvfi | RunVariant::Vfi1Mesh | RunVariant::VfiMesh
            );
            let built = count_allocations_of(table_block, || {
                specs.push(variant.spec(&flow, design));
            });
            if is_mesh {
                tables += built;
            }
        }
    }
    assert_eq!(
        tables, 1,
        "two designs' six mesh specs allocated {tables} XY tables"
    );
}
