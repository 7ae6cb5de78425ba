//! Module Learn: thresholds by random search, and training-pair derivation.
//!
//! §IV chooses `(σ, δ, k)` by random search \[19\] over a validation set of
//! annotated pairs, maximising F-measure — grid search being too expensive.
//! This module also derives the annotated *path pairs* that train `M_ρ`
//! from tuple-level match annotations: for a confirmed tuple↔vertex match,
//! witness paths leading to (near-)identical values are matching path
//! pairs; paths leading to clearly different values are non-matching.

use crate::metrics::{confusion, Accuracy};
use crate::paramatch::{Matcher, MatcherOptions};
use crate::params::{Params, Thresholds};
use crate::shared_scores::SharedScores;
use her_embed::metric::LabeledPair;
use her_graph::{Graph, Interner, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-search space over `(σ, δ, k)`.
#[derive(Clone, Debug)]
pub struct SearchSpace {
    /// Range of σ.
    pub sigma: (f32, f32),
    /// Range of δ.
    pub delta: (f32, f32),
    /// Range of k (inclusive).
    pub k: (usize, usize),
    /// Number of random trials.
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            sigma: (0.6, 0.95),
            delta: (0.1, 3.0),
            k: (4, 24),
            trials: 48,
            seed: 0xbeef,
        }
    }
}

/// An annotated vertex pair: `(u ∈ G_D, v ∈ G, is_match)`.
pub type Annotation = (VertexId, VertexId, bool);

/// Evaluates `params` on annotated pairs, returning the confusion summary.
pub fn evaluate(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    pairs: &[Annotation],
) -> Accuracy {
    tally(Matcher::new(gd, g, interner, params), pairs)
}

/// [`evaluate`] through `shared`: the same confusion, bit for bit, with
/// every score a previous evaluation on `shared` computed read back.
fn evaluate_on(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    pairs: &[Annotation],
    shared: &SharedScores,
) -> Accuracy {
    let options = MatcherOptions {
        shared_scores: Some(shared.clone()),
        ..MatcherOptions::default()
    };
    tally(
        Matcher::with_options(gd, g, interner, params, options),
        pairs,
    )
}

fn tally(mut m: Matcher<'_>, pairs: &[Annotation]) -> Accuracy {
    confusion(pairs.iter().map(|&(u, v, truth)| (m.is_match(u, v), truth)))
}

/// Random search for thresholds maximising F-measure on `validation`.
/// Returns the best thresholds and their F-measure. The incumbent
/// `params.thresholds` participates as trial zero, so the result never
/// regresses below the starting point.
///
/// `h_v` and `h_ρ` do not depend on the thresholds searched, nor an
/// `h_r` selection on anything but `k`, so every trial reads them
/// through one score layer and one copy of the models, both the
/// search's own and dropped when it returns.
pub fn random_search(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    validation: &[Annotation],
    space: &SearchSpace,
) -> (Thresholds, f64) {
    let shared = SharedScores::new();
    let mut trial = params.with_thresholds(params.thresholds);
    let mut f_of = |t: Thresholds| {
        trial.thresholds = t;
        evaluate_on(gd, g, interner, &trial, validation, &shared).f_measure()
    };
    let mut rng = StdRng::seed_from_u64(space.seed);
    let mut best = params.thresholds;
    let mut best_f = f_of(best);
    for _ in 0..space.trials {
        let t = Thresholds {
            sigma: rng.gen_range(space.sigma.0..=space.sigma.1),
            delta: rng.gen_range(space.delta.0..=space.delta.1),
            k: rng.gen_range(space.k.0..=space.k.1),
        };
        let f = f_of(t);
        if f > best_f {
            best_f = f;
            best = t;
        }
    }
    // Local refinement around the random-search winner (still a "limited
    // number of trials", §IV): nudge each threshold independently.
    let mut improved = true;
    let mut rounds = 0;
    while improved && rounds < 3 {
        improved = false;
        rounds += 1;
        let mut candidates = Vec::new();
        for ds in [-0.05f32, 0.05] {
            candidates.push(Thresholds {
                sigma: (best.sigma + ds).clamp(space.sigma.0, space.sigma.1),
                ..best
            });
        }
        for dd in [-0.3f32, -0.15, 0.15, 0.3] {
            candidates.push(Thresholds {
                delta: (best.delta + dd).max(space.delta.0),
                ..best
            });
        }
        for dk in [-4i64, 4] {
            let k = (best.k as i64 + dk).clamp(space.k.0 as i64, space.k.1 as i64) as usize;
            candidates.push(Thresholds { k, ..best });
        }
        for t in candidates {
            let f = f_of(t);
            if f > best_f {
                best_f = f;
                best = t;
                improved = true;
            }
        }
    }
    (best, best_f)
}

/// Derives annotated path pairs for `M_ρ` training from *positive* tuple
/// annotations: descendants of `u` and `v` whose labels agree strongly
/// (`h_v ≥ pos_cut`) yield matching path pairs; those that clearly disagree
/// (`h_v ≤ neg_cut`) yield non-matching ones.
pub fn derive_path_pairs(
    gd: &Graph,
    g: &Graph,
    interner: &Interner,
    params: &Params,
    positives: &[(VertexId, VertexId)],
    pos_cut: f32,
    neg_cut: f32,
) -> Vec<LabeledPair> {
    let mut m = Matcher::new(gd, g, interner, params);
    let mut out: Vec<LabeledPair> = Vec::new();
    let mut seen: her_graph::hash::FxHashSet<(Vec<her_graph::LabelId>, Vec<her_graph::LabelId>, bool)> =
        her_graph::hash::FxHashSet::default();
    for &(u, v) in positives {
        let su = m.select_d(u);
        let sv = m.select_g(v);
        for (ud, pu) in su.iter() {
            for (vd, pv) in sv.iter() {
                if pu.is_empty() || pv.is_empty() {
                    continue;
                }
                let sim = {
                    let (l1, l2) = (gd.label(*ud), g.label(*vd));
                    let i1 = interner.resolve(l1);
                    let i2 = interner.resolve(l2);
                    params.mv.similarity(i1, i2)
                };
                let label = if sim >= pos_cut {
                    true
                } else if sim <= neg_cut {
                    false
                } else {
                    continue; // ambiguous: skip
                };
                let key = (pu.edge_labels().to_vec(), pv.edge_labels().to_vec(), label);
                if !seen.insert(key) {
                    continue;
                }
                let s1: Vec<String> = pu
                    .edge_labels()
                    .iter()
                    .map(|&l| interner.resolve(l).to_owned())
                    .collect();
                let s2: Vec<String> = pv
                    .edge_labels()
                    .iter()
                    .map(|&l| interner.resolve(l).to_owned())
                    .collect();
                out.push((s1, s2, label));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::her::{Her, HerConfig};
    use her_graph::GraphBuilder;

    /// Twin item entities with one synonymous predicate.
    fn fixture() -> (Graph, Graph, Interner, Vec<Annotation>, Vec<(VertexId, VertexId)>) {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex("item");
        let uc = b.add_vertex("white");
        let um = b.add_vertex("phylon foam");
        b.add_edge(u, uc, "color");
        b.add_edge(u, um, "material");
        let (gd, i) = b.build();
        let mut b2 = GraphBuilder::with_interner(i);
        let v = b2.add_vertex("item");
        let vc = b2.add_vertex("white");
        let vm = b2.add_vertex("phylon foam");
        b2.add_edge(v, vc, "hasColor");
        b2.add_edge(v, vm, "soleMadeBy");
        let decoy = b2.add_vertex("item");
        let dc = b2.add_vertex("red");
        let dm = b2.add_vertex("leather");
        b2.add_edge(decoy, dc, "hasColor");
        b2.add_edge(decoy, dm, "soleMadeBy");
        let (g, interner) = b2.build();
        let annotations = vec![(u, v, true), (u, decoy, false)];
        (gd, g, interner, annotations, vec![(u, v)])
    }

    #[test]
    fn evaluate_counts_correctly() {
        let (gd, g, i, ann, _) = fixture();
        let p = Params::untrained(64, 31).with_thresholds(Thresholds::new(0.9, 0.01, 5));
        let acc = evaluate(&gd, &g, &i, &p, &ann);
        assert_eq!(acc.total(), 2);
        assert_eq!(acc.tp, 1);
        assert_eq!(acc.tn, 1);
        assert_eq!(acc.f_measure(), 1.0);
    }

    #[test]
    fn random_search_never_regresses() {
        let (gd, g, i, ann, _) = fixture();
        let p = Params::untrained(64, 31).with_thresholds(Thresholds::new(0.9, 0.01, 5));
        let base = evaluate(&gd, &g, &i, &p, &ann).f_measure();
        let (best, best_f) = random_search(
            &gd,
            &g,
            &i,
            &p,
            &ann,
            &SearchSpace {
                trials: 8,
                ..Default::default()
            },
        );
        assert!(best_f >= base);
        assert!(best.k >= 1);
    }

    #[test]
    fn random_search_improves_bad_start() {
        let (gd, g, i, ann, _) = fixture();
        // δ=100 makes everything a non-match → F = 0.
        let p = Params::untrained(64, 31).with_thresholds(Thresholds::new(0.9, 100.0, 5));
        assert_eq!(evaluate(&gd, &g, &i, &p, &ann).f_measure(), 0.0);
        let (_, best_f) = random_search(&gd, &g, &i, &p, &ann, &SearchSpace::default());
        assert!(best_f > 0.9, "search should find working thresholds, got {best_f}");
    }

    #[test]
    fn derived_pairs_label_by_value_similarity() {
        let (gd, g, i, _, pos) = fixture();
        let p = Params::untrained(64, 31).with_thresholds(Thresholds::new(0.9, 0.01, 5));
        let pairs = derive_path_pairs(&gd, &g, &i, &p, &pos, 0.85, 0.3);
        assert!(!pairs.is_empty());
        // (color, hasColor) should be a positive pair (white == white).
        assert!(pairs
            .iter()
            .any(|(a, b, m)| *m && a == &vec!["color".to_owned()] && b == &vec!["hasColor".to_owned()]));
        // (color, soleMadeBy) should be negative (white vs phylon foam).
        assert!(pairs
            .iter()
            .any(|(a, b, m)| !*m && a == &vec!["color".to_owned()] && b == &vec!["soleMadeBy".to_owned()]));
        // No duplicates.
        let mut dedup = pairs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), pairs.len());
    }

    /// The search as it stood before trials shared a score layer: a
    /// fresh matcher, with its own scores and its own copy of the
    /// models, per trial. Kept as the reference `random_search` must
    /// reproduce.
    fn random_search_reference(
        gd: &Graph,
        g: &Graph,
        interner: &Interner,
        params: &Params,
        validation: &[Annotation],
        space: &SearchSpace,
    ) -> (Thresholds, f64) {
        let mut rng = StdRng::seed_from_u64(space.seed);
        let mut best = params.thresholds;
        let mut best_f = evaluate(gd, g, interner, params, validation).f_measure();
        for _ in 0..space.trials {
            let t = Thresholds {
                sigma: rng.gen_range(space.sigma.0..=space.sigma.1),
                delta: rng.gen_range(space.delta.0..=space.delta.1),
                k: rng.gen_range(space.k.0..=space.k.1),
            };
            let trial = params.with_thresholds(t);
            let f = evaluate(gd, g, interner, &trial, validation).f_measure();
            if f > best_f {
                best_f = f;
                best = t;
            }
        }
        let mut improved = true;
        let mut rounds = 0;
        while improved && rounds < 3 {
            improved = false;
            rounds += 1;
            let mut candidates = Vec::new();
            for ds in [-0.05f32, 0.05] {
                candidates.push(Thresholds {
                    sigma: (best.sigma + ds).clamp(space.sigma.0, space.sigma.1),
                    ..best
                });
            }
            for dd in [-0.3f32, -0.15, 0.15, 0.3] {
                candidates.push(Thresholds {
                    delta: (best.delta + dd).max(space.delta.0),
                    ..best
                });
            }
            for dk in [-4i64, 4] {
                let k = (best.k as i64 + dk).clamp(space.k.0 as i64, space.k.1 as i64) as usize;
                candidates.push(Thresholds { k, ..best });
            }
            for t in candidates {
                let trial = params.with_thresholds(t);
                let f = evaluate(gd, g, interner, &trial, validation).f_measure();
                if f > best_f {
                    best_f = f;
                    best = t;
                    improved = true;
                }
            }
        }
        (best, best_f)
    }

    /// Every trial scored through one shared layer gets exactly the
    /// confusion a fresh matcher gets, and the search as a whole returns
    /// what the per-trial-matcher reference returns.
    fn assert_shared_search_transparent(
        gd: &Graph,
        g: &Graph,
        i: &Interner,
        p: &Params,
        ann: &[Annotation],
    ) {
        let space = SearchSpace::default();
        let shared = SharedScores::new();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let t = Thresholds {
                sigma: rng.gen_range(space.sigma.0..=space.sigma.1),
                delta: rng.gen_range(space.delta.0..=space.delta.1),
                k: rng.gen_range(space.k.0..=space.k.1),
            };
            let trial = p.with_thresholds(t);
            let through_shared = evaluate_on(gd, g, i, &trial, ann, &shared);
            let fresh = evaluate(gd, g, i, &trial, ann);
            assert_eq!(through_shared, fresh, "{t:?}");
            assert_eq!(
                through_shared.f_measure().to_bits(),
                fresh.f_measure().to_bits()
            );
        }
        let (best, f) = random_search(gd, g, i, p, ann, &space);
        let (want, want_f) = random_search_reference(gd, g, i, p, ann, &space);
        let bits = |t: Thresholds, f: f64| (t.sigma.to_bits(), t.delta.to_bits(), t.k, f.to_bits());
        assert_eq!(bits(best, f), bits(want, want_f));
    }

    #[test]
    fn shared_search_layer_is_transparent_on_fixture() {
        let (gd, g, i, ann, _) = fixture();
        let p = Params::untrained(64, 31).with_thresholds(Thresholds::new(0.9, 0.01, 5));
        assert_shared_search_transparent(&gd, &g, &i, &p, &ann);
    }

    #[test]
    fn shared_search_layer_is_transparent_on_trained_dbpedia() {
        let data = her_datagen::dbpedia::generate_sized(60, 29);
        let (train, val, _) = data.split(29);
        let cfg = HerConfig {
            synonyms: data.synonyms.clone(),
            ..HerConfig::default()
        };
        let mut her = Her::build(&data.db, data.g, data.interner, &cfg);
        her.learn(&train, &val, &cfg, &SearchSpace::default());
        let val: Vec<Annotation> = val
            .iter()
            .map(|&(t, v, m)| (her.cg.vertex_of(t), v, m))
            .collect();
        let (gd, i) = (&her.cg.graph, &her.cg.interner);
        assert_shared_search_transparent(gd, &her.g, i, &her.params, &val);
    }
}
