//! Cross-mode consistency: SPair, VPair and APair must agree with each
//! other on every dataset emulator (they share one definition, §III).

use her::prelude::*;

fn check_mode_consistency(dataset: her::datagen::LinkedDataset) -> Her {
    let name = dataset.name.clone();
    let system = her::train_on(&dataset, HerConfig::default());
    let all = system.apair();

    // APair restricted to a tuple equals that tuple's VPair.
    for &(t, _) in dataset.ground_truth.iter().take(8) {
        let vp = system.vpair(t);
        let from_apair: Vec<VertexId> = all
            .iter()
            .filter(|&&(at, _)| at == t)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(vp, from_apair, "{name}: VPair != APair slice for {t:?}");

        // SPair agrees with VPair membership over a sample of vertices.
        for v in system.g.vertices().take(40) {
            let s = system.spair(t, v);
            assert_eq!(
                s,
                vp.contains(&v),
                "{name}: SPair({t:?}, {v:?}) disagrees with VPair"
            );
        }
    }
    system
}

/// Count guard (exact, so it repeats): an all-pairs run must not call
/// `ParaMatch` on the pairs its first bound dooms. `C(u)` is recomputed
/// here from the index's pool and `hv_pair`.
fn assert_doomed_pairs_cost_no_call(system: &Her) {
    use her::core::index::blocking_query;
    let (gd, interner) = (&system.cg.graph, &system.cg.interner);
    let sigma = system.params.thresholds.sigma;
    let index = system.index.as_ref().expect("blocking is on by default");
    let mut probe = system.matcher();
    let mut candidates = 0u64;
    for (_, u) in system.cg.tuple_vertices() {
        let pool = index.candidates(&blocking_query(gd, interner, u));
        candidates += pool.iter().filter(|&&v| probe.hv_pair(u, v) >= sigma).count() as u64;
    }
    let (_, exhausted, stats) = system.try_apair_stats(her::core::MatcherOptions::default());
    assert_eq!(exhausted, None);
    assert!(
        2 * stats.calls < candidates,
        "{} ParaMatch calls for Σ|C(u)| = {candidates} candidate pairs: doomed pairs are being \
         enumerated again (before the bound moved into candidate generation, at a1f486a, this \
         dataset took 6 270 calls for 6 000 pairs, 99.25 % of them doomed; after, 315)",
        stats.calls
    );
}

#[test]
fn modes_agree_on_ukgov() {
    // Of the three emulators, the one with the highest doomed share.
    let system = check_mode_consistency(her::datagen::ukgov::generate_sized(60, 33));
    assert_doomed_pairs_cost_no_call(&system);
}

#[test]
fn modes_agree_on_dblp() {
    check_mode_consistency(her::datagen::dblp::generate_sized(60, 35));
}

#[test]
fn modes_agree_on_fbwiki() {
    check_mode_consistency(her::datagen::fbwiki::generate_sized(50, 37));
}

#[test]
fn apair_is_deterministic() {
    let dataset = her::datagen::imdb::generate_sized(50, 39);
    let system = her::train_on(&dataset, HerConfig::default());
    assert_eq!(system.apair(), system.apair());
}

#[test]
fn accuracy_holds_across_all_emulators() {
    // A smaller version of Table V's sanity: each dataset trains to a
    // reasonable F on its held-out pairs.
    for gen in [
        her::datagen::ukgov::generate_sized as fn(usize, u64) -> _,
        her::datagen::dbpedia::generate_sized,
        her::datagen::dblp::generate_sized,
        her::datagen::imdb::generate_sized,
        her::datagen::fbwiki::generate_sized,
    ] {
        let dataset = gen(100, 41);
        let name = dataset.name.clone();
        let cfg = HerConfig::default();
        let system = her::train_on(&dataset, cfg.clone());
        let (_, _, test) = dataset.split(cfg.seed);
        let f = system.evaluate(&test).f_measure();
        assert!(f > 0.8, "{name}: end-to-end F was {f}");
    }
}

#[test]
fn ntriples_roundtrip_preserves_matching() {
    // Export the graph side to N-Triples, re-import, rebuild the system:
    // the match set must be identical (format-independence).
    let dataset = her::datagen::ukgov::generate_sized(40, 43);
    let cfg = HerConfig::default();

    let nt = her::graph::ntriples::export(&dataset.g, &dataset.interner);
    let (g2, i2) = her::graph::ntriples::import(&nt).expect("roundtrip");

    let sys1 = her::train_on(&dataset, cfg.clone());
    let mut cfg2 = cfg.clone();
    for (a, b) in &dataset.synonyms {
        cfg2.synonyms.push((a.clone(), b.clone()));
    }
    let mut sys2 = Her::build(&dataset.db, g2, i2, &cfg2);
    let (train, val, _) = dataset.split(cfg.seed);
    sys2.learn(&train, &val, &cfg2, &her::core::learn::SearchSpace::default());

    assert_eq!(sys1.apair(), sys2.apair());
}
