//! Cross-crate integration: the parallel engine must agree with the
//! sequential algorithms on full datasets (Theorem 3).

use her::core::apair::apair;
use her::parallel::{pallmatch, pvpair, ParallelConfig};
use her::prelude::*;

fn system_on(dataset: &her::datagen::LinkedDataset) -> Her {
    her::train_on(dataset, HerConfig::default())
}

fn tuple_vertices(system: &Her, dataset: &her::datagen::LinkedDataset) -> Vec<VertexId> {
    dataset
        .ground_truth
        .iter()
        .map(|&(t, _)| system.cg.vertex_of(t))
        .collect()
}

#[test]
fn pallmatch_equals_sequential_apair_on_ukgov() {
    let dataset = her::datagen::ukgov::generate_sized(60, 21);
    let system = system_on(&dataset);
    let us = tuple_vertices(&system, &dataset);
    let mut m = system.matcher();
    let sequential = apair(&mut m, &us, None);
    for workers in [1usize, 3, 5] {
        let (parallel, stats) = pallmatch(
            &system.cg.graph,
            &system.g,
            &system.cg.interner,
            &system.params,
            &us,
            &ParallelConfig {
                workers,
                use_blocking: false,
                ..Default::default()
            },
        );
        assert_eq!(parallel, sequential, "workers={workers}");
        assert!(stats.supersteps >= 1);
    }
}

#[test]
fn pallmatch_equals_sequential_on_dataset_with_subentities() {
    // Sub-entities force cross-fragment recursion (border assumptions).
    let dataset = her::datagen::imdb::generate_sized(50, 23);
    let system = system_on(&dataset);
    let us = tuple_vertices(&system, &dataset);
    let mut m = system.matcher();
    let sequential = apair(&mut m, &us, None);
    let (parallel, _) = pallmatch(
        &system.cg.graph,
        &system.g,
        &system.cg.interner,
        &system.params,
        &us,
        &ParallelConfig {
            workers: 4,
            use_blocking: false,
            ..Default::default()
        },
    );
    assert_eq!(parallel, sequential);
}

#[test]
fn pvpair_equals_sequential_vpair() {
    let dataset = her::datagen::dblp::generate_sized(40, 25);
    let system = system_on(&dataset);
    let (t, _) = dataset.ground_truth[7];
    let u = system.cg.vertex_of(t);
    let mut m = system.matcher();
    let sequential = her::core::vpair::vpair(&mut m, u, None);
    let (parallel, _) = pvpair(
        &system.cg.graph,
        &system.g,
        &system.cg.interner,
        &system.params,
        u,
        &ParallelConfig {
            workers: 3,
            use_blocking: false,
            ..Default::default()
        },
    );
    assert_eq!(parallel, sequential);
}

#[test]
fn worker_count_does_not_change_results() {
    let dataset = her::datagen::fbwiki::generate_sized(40, 27);
    let system = system_on(&dataset);
    let us = tuple_vertices(&system, &dataset);
    let mut results = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let (r, _) = pallmatch(
            &system.cg.graph,
            &system.g,
            &system.cg.interner,
            &system.params,
            &us,
            &ParallelConfig {
                workers,
                use_blocking: true,
                ..Default::default()
            },
        );
        results.push(r);
    }
    for w in results.windows(2) {
        assert_eq!(w[0], w[1]);
    }
}

#[test]
fn threaded_and_simulated_agree() {
    let dataset = her::datagen::ukgov::generate_sized(30, 29);
    let system = system_on(&dataset);
    let us = tuple_vertices(&system, &dataset);
    let run = |simulate| {
        pallmatch(
            &system.cg.graph,
            &system.g,
            &system.cg.interner,
            &system.params,
            &us,
            &ParallelConfig {
                workers: 4,
                use_blocking: false,
                simulate_cluster: simulate,
                ..Default::default()
            },
        )
        .0
    };
    assert_eq!(run(true), run(false));
}

/// `pallmatch` accepts the facade's prewarmed `SharedScores` handle.
/// Two runs on the same `Her` instance with its handle — 4 simulated
/// workers, then 2 on real threads — embed each distinct label exactly
/// once across BOTH: the second run's prewarm reads through the memo the
/// first filled and performs zero re-embeds, without changing a single
/// match.
#[test]
fn facade_handle_is_reused_across_bsp_runs() {
    let dataset = her::datagen::ukgov::generate_sized(40, 31);
    let system = system_on(&dataset);
    let us = tuple_vertices(&system, &dataset);
    let shared = system
        .shared_scores
        .clone()
        .expect("facade handle on by default");
    let run = |workers, simulate_cluster| {
        pallmatch(
            &system.cg.graph,
            &system.g,
            &system.cg.interner,
            &system.params,
            &us,
            &ParallelConfig {
                workers,
                use_blocking: false,
                simulate_cluster,
                shared_handle: Some(shared.clone()),
                ..Default::default()
            },
        )
        .0
    };
    let first = run(4, true);
    let embeds_after_first = shared.embed_calls();
    assert!(embeds_after_first > 0, "first prewarm must have embedded");
    let second = run(2, false);
    assert_eq!(
        shared.embed_calls(),
        embeds_after_first,
        "second run re-embedded labels the shared handle already holds"
    );
    assert_eq!(second, first);
}
