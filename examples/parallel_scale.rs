//! Parallel APair on synthetic data: the paper's scalability story (§VI-B,
//! Fig. 6(d)–(g)) on one machine, with the BSP engine's superstep and
//! message counters exposed.
//!
//! ```text
//! cargo run --release --example parallel_scale [n_parts]
//! ```

use her::core::params::Thresholds;
use her::datagen::tpch_like::{generate, ScaleConfig};
use her::parallel::{pallmatch, ParallelConfig};
use her::prelude::*;
use std::time::Instant;

fn main() {
    let n_parts: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let dataset = generate(&ScaleConfig {
        n_parts,
        ..Default::default()
    });
    println!("{}", dataset.summary());

    // Synthetic vocabulary is exact-match; fixed thresholds suffice.
    let cfg = HerConfig {
        thresholds: Thresholds::new(0.9, 0.05, 8),
        ..Default::default()
    };
    let interner = dataset.interner.clone();
    let system = Her::build(&dataset.db, dataset.g.clone(), interner, &cfg);

    let tuple_vertices: Vec<_> = dataset
        .ground_truth
        .iter()
        .map(|&(t, _)| system.cg.vertex_of(t))
        .collect();

    let mut base = None;
    for workers in [1usize, 2, 4, 8, 16] {
        let start = Instant::now();
        let (matches, stats) = pallmatch(
            &system.cg.graph,
            &system.g,
            &system.cg.interner,
            &system.params,
            &tuple_vertices,
            &ParallelConfig {
                workers,
                use_blocking: true,
                ..Default::default()
            },
        );
        let host_secs = start.elapsed().as_secs_f64();
        let secs = stats.simulated_secs; // BSP critical path (cluster estimate)
        let speedup = base.get_or_insert(secs).max(1e-9) / secs;
        let _ = host_secs;
        println!(
            "n={workers:2}  {:>8.3}s  speedup {speedup:4.2}x  {} matches  {} supersteps  {} req  {} inval  (sel {:.2}s cand {:.2}s bsp {:.2}s)",
            secs,
            matches.len(),
            stats.supersteps,
            stats.requests,
            stats.invalidations,
            stats.selection_secs,
            stats.candidates_secs,
            stats.bsp_secs
        );
    }
}
