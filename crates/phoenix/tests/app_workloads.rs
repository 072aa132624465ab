//! Golden digests of the six applications' recorded workloads.
//!
//! Each row pins one 128-bit digest per (application, scale) pair, on the
//! `to_bits()` of every `f64`:
//!
//! * the workload's output digest, name and library-initialisation cost;
//! * every `TaskWork` (cycles, instructions, keys emitted) of every Map
//!   and Reduce task of every iteration;
//! * every iteration's `MergeSpec`, both `MemoryProfile`s, the shuffle
//!   flits per key and the neighbour bias;
//! * for MM its `frobenius`, for PCA its `means` and `covariance_trace`.
//!
//! The kernels that generate these workloads (MM's multiply, PCA's row
//! means and variances, HIST's and WC's counting, KMEANS's distances) may
//! be reordered for speed only if every one of these bits stays put.
//! Likewise, a generator may re-draw an input from a cloned generator where
//! its kernel reads it, instead of storing it, only if every one of these
//! bits stays put. MM's rows cover both of its blocking remainders: its
//! dimensions 126, 271, 464 and 999 leave a partial last block of 32 rows
//! in each, and 126, 271 and 999 a partial last step of its 4-deep
//! unroll. Run with `MAPWAVE_GOLDEN_PRINT=1` to print the current
//! digests (used once to capture the table below; afterwards the table is
//! frozen).

use mapwave_harness::hash::StableHasher;
use mapwave_manycore::cache::MemoryProfile;
use mapwave_phoenix::apps::{matrix_mult, pca, App};
use mapwave_phoenix::task::TaskWork;
use mapwave_phoenix::workload::AppWorkload;

const SEED: u64 = 42;
const CORES: usize = 64;

/// (app, scale, digest) captured before MM and PCA switched to row-streaming
/// loop order; the HIST, WC and KMEANS rows at scale 1.0 were captured before
/// HIST and WC counted into plain arrays and KMEANS interleaved its distances.
/// Every other row predates KMEANS and MM re-drawing their inputs; LR's row at
/// scale 1.0 was added later, with LR's generator unchanged.
const GOLDEN: &[(&str, f64, &str)] = &[
    ("MM", 0.002, "d700d23612eafb16d9b67ef04faa89a7"),
    ("KMEANS", 0.002, "268125c2d70da0940f941ef837e6a59b"),
    ("PCA", 0.002, "5a7e96052ab34b33b3c67a4b9451336e"),
    ("HIST", 0.002, "80eb19d86b2bc2d52579a6c81825a9e4"),
    ("WC", 0.002, "7fc64fff35df3190bc3b89e90e368a61"),
    ("LR", 0.002, "fbf9731c6b4aa2ef8d2a1a3019867bb2"),
    ("MM", 0.02, "1cf782f54dfe6c1081e147c5bd16416d"),
    ("KMEANS", 0.02, "268125c2d70da0940f941ef837e6a59b"),
    ("PCA", 0.02, "b3fff55f0ff5f1b3a60d4b9d1eff1dce"),
    ("HIST", 0.02, "e5b62b61a1e01728ffbb09e18e8c01f1"),
    ("WC", 0.02, "d02422be548bf479c8abd16492dc0ce4"),
    ("LR", 0.02, "758af02e45c61d4a548d506fcefae313"),
    ("MM", 0.1, "d1474aca68269705202fe47ce1849bf0"),
    ("KMEANS", 0.1, "967e0eb0297e13b5d2dcaaec81cf17c6"),
    ("PCA", 0.1, "13f09a60f0dc71435c28d1397cf94e62"),
    ("HIST", 0.1, "156bc0b9c4a3fcc07fd0db5f53e2e915"),
    ("WC", 0.1, "359606ac15d9b3e3f35c33ce8fa14de2"),
    ("LR", 0.1, "f7b7467b70660c08fdc93357b8e457d5"),
    ("MM", 1.0, "5c1bf7b951831c2cda4a91e6bfaf1ce9"),
    ("PCA", 1.0, "f864f9416bf19d906f0e67bd9dd7df45"),
    ("HIST", 1.0, "9fe317a5e415e960211c44a7b5e9daa1"),
    ("WC", 1.0, "2ef744eec107f55ecde5f25ec5779f07"),
    ("KMEANS", 1.0, "0aa267786207b55e8beb74a9d962f0e5"),
    ("LR", 1.0, "6d31474227f4e90b21cd672d77fe0e2e"),
];

fn hash_f64(h: &mut StableHasher, x: f64) {
    h.write_u64(x.to_bits());
}

fn hash_task(h: &mut StableHasher, t: &TaskWork) {
    hash_f64(h, t.cycles);
    hash_f64(h, t.instructions);
    h.write_len(t.keys_emitted);
}

fn hash_memory(h: &mut StableHasher, m: &MemoryProfile) {
    hash_f64(h, m.l1_mpki);
    hash_f64(h, m.l2_miss_rate);
    hash_f64(h, m.remote_fraction);
}

fn hash_workload(h: &mut StableHasher, w: &AppWorkload) {
    h.write(w.name.as_bytes());
    h.write_u64(w.digest);
    hash_f64(h, w.lib_init_cycles);
    hash_f64(h, w.lib_init_instructions);
    h.write_len(w.iterations.len());
    for it in &w.iterations {
        h.write_len(it.map_tasks.len());
        it.map_tasks.iter().for_each(|t| hash_task(h, t));
        h.write_len(it.reduce_tasks.len());
        it.reduce_tasks.iter().for_each(|t| hash_task(h, t));
        match it.merge {
            Some(m) => {
                h.write(&[1]);
                for x in [
                    m.total_items,
                    m.cycles_per_item,
                    m.instructions_per_item,
                    m.flits_per_item,
                ] {
                    hash_f64(h, x);
                }
            }
            None => h.write(&[0]),
        }
        hash_memory(h, &it.map_memory);
        hash_memory(h, &it.reduce_memory);
        hash_f64(h, it.kv_flits_per_key);
        hash_f64(h, it.neighbor_bias);
    }
}

/// The digest of one application's workload (and kernel witnesses).
fn digest(app: App, scale: f64) -> String {
    let mut h = StableHasher::new();
    match app {
        App::MatrixMult => {
            let r = matrix_mult::run(scale, SEED, CORES);
            hash_workload(&mut h, &r.workload);
            h.write_len(r.dim);
            hash_f64(&mut h, r.frobenius);
        }
        App::Pca => {
            let r = pca::run(scale, SEED, CORES);
            hash_workload(&mut h, &r.workload);
            h.write_len(r.dim);
            h.write_len(r.means.len());
            r.means.iter().for_each(|&m| hash_f64(&mut h, m));
            hash_f64(&mut h, r.covariance_trace);
        }
        _ => hash_workload(&mut h, &app.workload(scale, SEED, CORES)),
    }
    h.finish().to_hex()
}

/// Every (app, scale) pair the table pins.
fn cases() -> Vec<(App, f64)> {
    let mut cases = Vec::new();
    for scale in [0.002, 0.02, 0.1] {
        cases.extend(App::ALL.iter().map(|&app| (app, scale)));
    }
    for app in [
        App::MatrixMult,
        App::Pca,
        App::Histogram,
        App::WordCount,
        App::Kmeans,
        App::LinearRegression,
    ] {
        cases.push((app, 1.0));
    }
    cases
}

#[test]
fn app_workloads_match_pinned_goldens() {
    let print = std::env::var_os("MAPWAVE_GOLDEN_PRINT").is_some();
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for (app, scale) in cases() {
        let got = digest(app, scale);
        if print {
            println!("    (\"{}\", {scale:?}, \"{got}\"),", app.name());
            continue;
        }
        let expected = GOLDEN
            .iter()
            .find(|&&(a, s, _)| a == app.name() && s.to_bits() == scale.to_bits())
            .unwrap_or_else(|| panic!("no golden for {} at scale {scale}", app.name()))
            .2;
        if got != expected {
            mismatches.push(format!(
                "{} at scale {scale}: got {got}, expected {expected}",
                app.name()
            ));
        }
        checked += 1;
    }
    if !print {
        assert_eq!(checked, GOLDEN.len(), "every golden row must be checked");
        assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    }
}

#[test]
fn kernel_witnesses_are_real_outputs() {
    // The witnesses are not just hashed: MM's Frobenius norm and PCA's
    // trace are positive, and PCA's means are row means of values in
    // [0, 1.7), so the golden rows pin computed results.
    let mm = matrix_mult::run(0.002, SEED, CORES);
    assert!(mm.frobenius > 0.0);
    let p = pca::run(0.002, SEED, CORES);
    assert!(p.covariance_trace > 0.0);
    assert!(p.means.iter().all(|&m| (0.0..1.7).contains(&m)));
}
