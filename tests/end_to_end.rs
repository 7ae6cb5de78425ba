//! End-to-end integration tests: the full HER pipeline on the paper's
//! running example and on the dataset emulators.

use her::core::learn::SearchSpace;
use her::core::refine::RefineConfig;
use her::prelude::*;

fn procurement_system() -> (her::datagen::LinkedDataset, Her) {
    let dataset = her::datagen::procurement::generate();
    let system = her::train_on(&dataset, HerConfig::default());
    (dataset, system)
}

#[test]
fn running_example_spair_matches_paper_scenario_one() {
    let (dataset, system) = procurement_system();
    // t1 ("Dame Basketball Shoes D7") denotes v1 — Example 1, case (1).
    let (t1, v1) = dataset.ground_truth[0];
    assert!(system.spair(t1, v1));
    // …and not the red Mid-cut decoy.
    let (_, v3) = dataset.ground_truth[2];
    assert!(!system.spair(t1, v3));
}

#[test]
fn running_example_vpair_finds_exactly_the_catalogue_item() {
    let (dataset, system) = procurement_system();
    let (t1, v1) = dataset.ground_truth[0];
    assert_eq!(system.vpair(t1), vec![v1]);
}

#[test]
fn running_example_apair_covers_ground_truth() {
    let (dataset, system) = procurement_system();
    let all = system.apair();
    for &(t, v) in &dataset.ground_truth {
        assert!(all.contains(&(t, v)), "missing true match {t:?} ↔ {v:?}");
    }
    for &(t, v) in &dataset.negatives {
        assert!(!all.contains(&(t, v)), "false match {t:?} ↔ {v:?}");
    }
}

#[test]
fn running_example_schema_match_maps_made_in_to_path() {
    let (dataset, system) = procurement_system();
    // b1 (the brand tuple) matches v10; its made_in attribute must map to
    // a path starting with factorySite — the paper's flagship example.
    let (b1, v10) = dataset.ground_truth[3];
    let gamma = system
        .schema_match(b1, v10)
        .expect("brand pair must match");
    let made_in = gamma
        .iter()
        .find(|sm| system.cg.interner.resolve(sm.attr) == "made_in")
        .expect("made_in must have a schema match");
    assert_eq!(
        system.cg.interner.resolve(made_in.path.edge_labels()[0]),
        "factorySite"
    );
}

#[test]
fn witness_is_explainable_and_consistent() {
    let (dataset, system) = procurement_system();
    let (t1, v1) = dataset.ground_truth[0];
    let mut m = system.matcher();
    let u1 = system.cg.vertex_of(t1);
    assert!(m.is_match(u1, v1));
    let w = m.witness(u1, v1).expect("match must have a witness");
    assert!(w.contains(&(u1, v1)));
    // Every witnessed pair satisfies the σ condition on labels.
    for &(a, b) in &w {
        let la = system.cg.interner.resolve(system.cg.graph.label(a));
        let lb = system.cg.interner.resolve(system.g.label(b));
        assert!(
            system.params.mv.similarity(la, lb) >= system.params.thresholds.sigma,
            "witness pair ({la}, {lb}) violates σ"
        );
    }
}

#[test]
fn ukgov_end_to_end_accuracy_is_high() {
    let dataset = her::datagen::ukgov::generate_sized(120, 3);
    let cfg = HerConfig::default();
    let system = her::train_on(&dataset, cfg.clone());
    let (_, _, test) = dataset.split(cfg.seed);
    let f = system.evaluate(&test).f_measure();
    assert!(f > 0.85, "UKGOV end-to-end F was {f}");
}

#[test]
fn refinement_does_not_destroy_accuracy() {
    let dataset = her::datagen::ukgov::generate_sized(80, 9);
    let cfg = HerConfig::default();
    let mut system = her::train_on(&dataset, cfg.clone());
    let (_, _, test) = dataset.split(cfg.seed);
    let before = system.evaluate(&test).f_measure();
    let shown: Vec<_> = test.iter().take(50).copied().collect();
    system.refine(&shown, &RefineConfig::default());
    let after = system.evaluate(&test).f_measure();
    assert!(
        after >= before - 0.05,
        "refinement regressed accuracy: {before} -> {after}"
    );
}

#[test]
fn learned_thresholds_beat_degenerate_ones() {
    let dataset = her::datagen::dbpedia::generate_sized(100, 5);
    let cfg = HerConfig::default();
    let (train, val, test) = dataset.split(cfg.seed);
    let interner = dataset.interner.clone();
    let mut system = Her::build(&dataset.db, dataset.g.clone(), interner, &cfg);
    system.learn(&train, &val, &cfg, &SearchSpace::default());
    let learned = system.evaluate(&test).f_measure();
    // Degenerate δ=100 rejects everything.
    let bad = system
        .params
        .with_thresholds(her::core::params::Thresholds::new(0.9, 100.0, 5));
    let old = std::mem::replace(&mut system.params, bad);
    let degenerate = system.evaluate(&test).f_measure();
    system.params = old;
    assert!(learned > degenerate);
    assert!(learned > 0.8, "learned F was {learned}");
}

#[test]
fn canonical_graph_round_trips_tuples() {
    let dataset = her::datagen::imdb::generate_sized(40, 11);
    let system = her::train_on(&dataset, HerConfig::default());
    for (t, _) in dataset.db.tuples() {
        let u = system.cg.vertex_of(t);
        assert_eq!(system.cg.tuple_of(u), Some(t));
    }
}
