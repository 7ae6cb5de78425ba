//! Property-based tests over the core invariants (proptest).

use her::core::maximal::MaximalMatch;
use her::core::paramatch::Matcher;
use her::core::params::{Params, Thresholds};
use her::graph::{Graph, GraphBuilder, Interner, VertexId};
use her::parallel::{partition_round_robin, pallmatch, ParallelConfig};
use her::rdb::rdb2rdf::canonicalize;
use her::rdb::schema::{RelationSchema, Schema};
use her::rdb::{Database, Tuple, Value};
use proptest::prelude::*;

/// A small random labeled graph: `n` vertices with labels from a tiny
/// alphabet, plus arbitrary edges.
fn arb_graph(max_v: usize, max_e: usize) -> impl Strategy<Value = (Graph, Interner)> {
    let labels = prop::sample::select(vec!["a", "b", "c", "item", "red", "blue"]);
    let edge_labels = prop::sample::select(vec!["e", "f", "knows", "has"]);
    (2usize..=max_v).prop_flat_map(move |n| {
        (
            prop::collection::vec(labels.clone(), n),
            prop::collection::vec(
                ((0..n), (0..n), edge_labels.clone()),
                0..=max_e,
            ),
        )
            .prop_map(move |(vlabels, edges)| {
                let mut b = GraphBuilder::new();
                let vs: Vec<VertexId> = vlabels.iter().map(|l| b.add_vertex(l)).collect();
                for (s, t, l) in edges {
                    if s != t {
                        b.add_edge(vs[s], vs[t], l);
                    }
                }
                b.build()
            })
    })
}

/// `G_D` and `G` over one interner, from a slightly richer alphabet
/// than [`arb_graph`]'s (multi-token labels, so the blocking index has
/// tokens to share), plus a third graph that interns one more label —
/// after the other two, hence after an index over `G` is built.
fn arb_graph_pair(
    max_v: usize,
    max_e: usize,
) -> impl Strategy<Value = ((Graph, Graph, Interner), (Graph, Interner))> {
    type Spec = (Vec<&'static str>, Vec<(usize, usize, &'static str)>);
    fn spec(max_v: usize, max_e: usize) -> impl Strategy<Value = Spec> {
        let labels = prop::sample::select(vec![
            "a", "b", "c", "item", "red", "blue", "red item", "blue b c",
        ]);
        let edge_labels = prop::sample::select(vec!["e", "f", "knows", "has"]);
        (2usize..=max_v).prop_flat_map(move |n| {
            (
                prop::collection::vec(labels.clone(), n),
                prop::collection::vec(((0..n), (0..n), edge_labels.clone()), 0..=max_e),
            )
        })
    }
    fn build(mut b: GraphBuilder, (vlabels, edges): &Spec) -> (Graph, Interner) {
        let vs: Vec<VertexId> = vlabels.iter().map(|l| b.add_vertex(l)).collect();
        for &(s, t, l) in edges {
            if s != t {
                b.add_edge(vs[s], vs[t], l);
            }
        }
        b.build()
    }
    (spec(max_v, max_e), spec(max_v, max_e)).prop_map(|(d, g)| {
        let (gd, i) = build(GraphBuilder::new(), &d);
        let (g, interner) = build(GraphBuilder::with_interner(i), &g);
        let mut late = GraphBuilder::with_interner(interner.clone());
        let root = late.add_vertex("late red thing");
        let child = late.add_vertex(d.0[0]);
        late.add_edge(root, child, "has");
        ((gd, g, interner), late.build())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scores stay in range on arbitrary label pairs.
    #[test]
    fn hv_in_unit_interval(a in "[a-zA-Z0-9 _]{0,20}", b in "[a-zA-Z0-9 _]{0,20}") {
        let params = Params::untrained(32, 1);
        let s = params.mv.similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s), "{a:?} vs {b:?} -> {s}");
    }

    /// M_ρ stays in range on arbitrary label sequences.
    #[test]
    fn mrho_in_unit_interval(
        s1 in prop::collection::vec("[a-z]{1,8}", 0..4),
        s2 in prop::collection::vec("[a-z]{1,8}", 0..4),
    ) {
        let params = Params::untrained(16, 2);
        let v = params.mrho.score(&s1, &s2);
        prop_assert!((0.0..=1.0).contains(&v));
    }

    /// ParaMatch terminates on arbitrary graphs and its positive verdicts
    /// carry sound witnesses: every witnessed pair passes σ, and the
    /// recorded lineage sets are injective.
    #[test]
    fn paramatch_sound_on_random_graphs(
        (gd, gd_int) in arb_graph(7, 12),
        sigma in 0.5f32..1.0,
        delta in 0.0f32..1.5,
    ) {
        // Use the same graph on both sides (shared interner by construction).
        let g = gd.clone();
        let params = Params::untrained(16, 3)
            .with_thresholds(Thresholds::new(sigma, delta, 4));
        let mut m = Matcher::new(&gd, &g, &gd_int, &params);
        for u in gd.vertices().take(4) {
            for v in g.vertices().take(4) {
                let verdict = m.is_match(u, v);
                if verdict {
                    let w = m.witness(u, v).expect("match must have witness");
                    prop_assert!(w.contains(&(u, v)));
                    for &(a, b) in &w {
                        let la = gd_int.resolve(gd.label(a));
                        let lb = gd_int.resolve(g.label(b));
                        let s = params.mv.similarity(la, lb);
                        prop_assert!(s >= sigma - 1e-5, "witness pair below sigma");
                        // Lineage sets are partial injective mappings.
                        if let Some(deps) = m.lineage(a, b) {
                            let mut seen = std::collections::BTreeSet::new();
                            for &(_, vb) in deps {
                                prop_assert!(seen.insert(vb), "lineage reuses a vertex");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Matching a graph against itself with permissive thresholds always
    /// accepts the identity pairs (reflexivity under exact labels).
    #[test]
    fn identity_pairs_match_with_zero_delta((g, interner) in arb_graph(8, 12)) {
        let params = Params::untrained(16, 4).with_thresholds(Thresholds::new(0.99, 0.0, 4));
        let gd = g.clone();
        let mut m = Matcher::new(&gd, &g, &interner, &params);
        for v in g.vertices() {
            prop_assert!(m.is_match(v, v), "identity pair {v:?} rejected");
        }
    }

    /// The round-robin partitioner assigns every vertex exactly once and
    /// border sets contain exactly the non-owned targets of owned edges.
    #[test]
    fn partition_invariants((g, _) in arb_graph(10, 20), n in 1usize..5) {
        let part = partition_round_robin(&g, n);
        let mut owned_total = 0;
        for i in 0..n {
            owned_total += part.owned(i).len();
            let border = part.border(&g, i);
            for &v in &border {
                prop_assert_ne!(part.owner(v), i, "border vertex owned locally");
            }
            // Every cross edge's target is in the border set.
            for u in g.vertices() {
                if part.owner(u) == i {
                    for &c in g.children(u) {
                        if part.owner(c) != i {
                            prop_assert!(border.contains(&c));
                        }
                    }
                }
            }
        }
        prop_assert_eq!(owned_total, g.vertex_count());
    }

    /// Parallel APair agrees with itself across worker counts on random
    /// graphs (determinism + fragment independence).
    #[test]
    fn pallmatch_worker_invariance((g, interner) in arb_graph(8, 12)) {
        let gd = g.clone();
        let params = Params::untrained(16, 5).with_thresholds(Thresholds::new(0.9, 0.05, 3));
        let roots: Vec<VertexId> = g.vertices().take(4).collect();
        let run = |workers| {
            pallmatch(&gd, &g, &interner, &params, &roots, &ParallelConfig {
                workers,
                use_blocking: false,
                ..Default::default()
            }).0
        };
        let r1 = run(1);
        prop_assert_eq!(run(2), r1.clone());
        prop_assert_eq!(run(3), r1);
    }

    /// The score tiers are invisible: on random small graphs a matcher on
    /// its own score handle, matchers on a cold and on a warm shared
    /// handle, and a warm re-armed (pooled) matcher agree on the match
    /// set, every lineage set and — warm re-run aside — `MatchStats`,
    /// with `early_termination` on and off; 2- and 4-worker `pallmatch`, on
    /// a fresh handle and on the sequential run's warm one, find the
    /// sequential match set.
    #[test]
    fn score_tiers_and_engines_agree(
        (g, interner) in arb_graph(8, 12),
        delta in 0.0f32..0.8,
    ) {
        use her::core::apair::apair;
        use her::core::paramatch::{Budget, CancelToken, MatcherOptions};
        use her::core::SharedScores;
        let gd = g.clone();
        let params = Params::untrained(16, 7).with_thresholds(Thresholds::new(0.9, delta, 3));
        let roots: Vec<VertexId> = gd.vertices().take(5).collect();
        let lineages = |m: &Matcher<'_>| -> Vec<Option<Vec<(VertexId, VertexId)>>> {
            roots
                .iter()
                .flat_map(|&u| g.vertices().map(move |v| (u, v)))
                .map(|(u, v)| m.lineage(u, v).map(<[_]>::to_vec))
                .collect()
        };
        let toggles = [
            MatcherOptions::default(),
            MatcherOptions { early_termination: false, ..Default::default() },
        ];
        for opts in toggles {
            let mut own = Matcher::with_options(&gd, &g, &interner, &params, opts.clone());
            let matches = apair(&mut own, &roots, None);
            let shared = SharedScores::new();
            for _ in 0..2 {
                let mut m = Matcher::with_options(&gd, &g, &interner, &params, MatcherOptions {
                    shared_scores: Some(shared.clone()),
                    ..opts.clone()
                });
                prop_assert_eq!(&apair(&mut m, &roots, None), &matches);
                prop_assert_eq!(lineages(&m), lineages(&own));
                prop_assert_eq!(m.stats(), own.stats());
                // Checked back in and out of a pool: re-armed, still warm.
                let before = m.stats();
                m.rearm(Budget::unlimited(), CancelToken::new(), her::obs::ReqCtx::NONE);
                prop_assert_eq!(&apair(&mut m, &roots, None), &matches);
                prop_assert_eq!(lineages(&m), lineages(&own));
                prop_assert_eq!(m.stats().delta_since(&before).calls, 0);
            }
            if opts.early_termination {
                for workers in [2, 4] {
                    for shared_handle in [None, Some(shared.clone())] {
                        let warm = shared_handle.is_some();
                        let (parallel, _) = pallmatch(&gd, &g, &interner, &params, &roots, &ParallelConfig {
                            workers,
                            use_blocking: false,
                            shared_handle,
                            ..Default::default()
                        });
                        prop_assert_eq!(&parallel, &matches, "{} workers, warm handle {}", workers, warm);
                    }
                }
            }
        }
    }

    /// Candidate generation decides the first `MaxSco` bound, and nothing
    /// else: on random `(G_D, G)` with random σ, δ and `k`, with
    /// `early_termination` on and off, scanning and blocked. The reference is
    /// written here from public pieces — pool, then `hv_pair ≥ σ`, then
    /// the bound from raw selections, paths and a handle of its own (no
    /// plan, σ row or cover), then a fresh matcher's `is_match` per pair
    /// — and (i) `candidates(u)` is exactly the members of `C(u)` whose
    /// reference bound reaches δ, so it holds every reference match of
    /// `u`; (ii) every pair it drops is a non-match; (iii) `apair`, `vpair`, `try_vpair` and
    /// 2-worker `pallmatch`, threaded and simulated, return exactly the
    /// reference match set; (iv) the index's query by vertex is its query
    /// by string, element for element.
    #[test]
    fn candidate_generation_is_exact(
        ((gd, g, interner), (late, late_interner)) in arb_graph_pair(7, 12),
        sigma in 0.5f32..1.0,
        delta in 0.0f32..1.5,
        k in prop::sample::select(vec![1usize, 3, 70]),
    ) {
        use her::core::apair::apair;
        use her::core::index::{blocking_query, InvertedIndex};
        use her::core::paramatch::MatcherOptions;
        use her::core::vpair::{candidates, try_vpair, vpair};
        let params = Params::untrained(16, 8).with_thresholds(Thresholds::new(sigma, delta, k));
        let idx = InvertedIndex::build(&g, &interner);
        let roots: Vec<VertexId> = gd.vertices().collect();

        // (iv), including the all-stop-token fallback (this alphabet puts
        // most tokens on most vertices) and a label interned after `build`.
        for &u in &roots {
            prop_assert_eq!(
                idx.pool(&gd, &interner, u),
                idx.candidates(&blocking_query(&gd, &interner, u))
            );
        }
        for u in late.vertices() {
            prop_assert_eq!(
                idx.pool(&late, &late_interner, u),
                idx.candidates(&blocking_query(&late, &late_interner, u))
            );
        }

        for early_termination in [true, false] {
            let opts = MatcherOptions { early_termination, ..Default::default() };
            let matcher = || Matcher::with_options(&gd, &g, &interner, &params, opts.clone());
            // Fig. 4 line 12 from the definition: Σ over the selected u′ of
            // the best σ-compatible h_ρ.
            let reference_bound = |u: VertexId, v: VertexId| -> f32 {
                let scores = her::core::SharedScores::new();
                let (su, sv) = (params.ranker.select(&gd, u, k), params.ranker.select(&g, v, k));
                let mut bound = 0.0f32;
                for (up, pu) in &su {
                    let mut head: Option<f32> = None;
                    for (vp, pv) in &sv {
                        if scores.hv(&params, &interner, gd.label(*up), g.label(*vp)) >= sigma {
                            let hrho = scores.hrho(&params, &interner, pu, pv);
                            if head.is_none_or(|best| hrho.total_cmp(&best).is_gt()) {
                                head = Some(hrho);
                            }
                        }
                    }
                    bound += head.unwrap_or(0.0);
                }
                bound
            };
            for index in [None, Some(&idx)] {
                let mut reference: Vec<(VertexId, VertexId)> = Vec::new();
                for &u in &roots {
                    let pool: Vec<VertexId> = match index {
                        Some(idx) => idx.candidates(&blocking_query(&gd, &interner, u)),
                        None => g.vertices().collect(),
                    };
                    let mut probe = matcher();
                    let c: Vec<VertexId> =
                        pool.into_iter().filter(|&v| probe.hv_pair(u, v) >= sigma).collect();
                    let matches: Vec<VertexId> =
                        c.iter().copied().filter(|&v| matcher().is_match(u, v)).collect();
                    let mut m = matcher();
                    let generated = candidates(&mut m, u, index);
                    // (i) and (ii)
                    let bounded = opts.early_termination && !gd.is_leaf(u);
                    let reaching: Vec<VertexId> =
                        c.iter().copied().filter(|&v| !bounded || reference_bound(u, v) >= delta).collect();
                    prop_assert_eq!(&generated, &reaching, "{:?}: not the bound's cut of C({:?})", opts, u);
                    prop_assert!(matches.iter().all(|v| generated.contains(v)), "{:?}: lost a match of {:?}", opts, u);
                    for v in c.iter().filter(|v| !generated.contains(v)) {
                        prop_assert!(!matcher().is_match(u, *v), "{:?}: dropped the match ({:?}, {:?})", opts, u, v);
                    }
                    prop_assert_eq!(m.stats().calls, 0);
                    prop_assert_eq!(m.stats().early_terminations as usize, c.len() - generated.len());
                    // (iii), one tuple at a time
                    prop_assert_eq!(&vpair(&mut matcher(), u, index), &matches, "vpair, {:?}", opts);
                    let run = try_vpair(&mut matcher(), u, index);
                    prop_assert!(run.is_complete());
                    prop_assert_eq!(&run.matches, &matches, "try_vpair, {:?}", opts);
                    reference.extend(matches.into_iter().map(|v| (u, v)));
                }
                // (iii), all pairs
                prop_assert_eq!(&apair(&mut matcher(), &roots, index), &reference, "apair, {:?}", opts);
                if early_termination {
                    for simulate_cluster in [true, false] {
                        let (parallel, _) = pallmatch(&gd, &g, &interner, &params, &roots, &ParallelConfig {
                            workers: 2,
                            use_blocking: index.is_some(),
                            simulate_cluster,
                            ..Default::default()
                        });
                        prop_assert_eq!(&parallel, &reference, "pallmatch, simulated {}", simulate_cluster);
                    }
                }
            }
        }
    }

    /// ParaMatch's witnesses are contained in the unique maximal match
    /// (Proposition 4's oracle computed by exact fixpoint refinement).
    #[test]
    fn paramatch_witnesses_within_maximal_match(
        (g, interner) in arb_graph(6, 10),
        delta in 0.0f32..0.8,
    ) {
        let gd = g.clone();
        let params = Params::untrained(16, 6)
            .with_thresholds(Thresholds::new(0.9, delta, 3));
        let oracle = MaximalMatch::new(&gd, &g, &interner, &params).compute();
        let mut m = Matcher::new(&gd, &g, &interner, &params);
        for u in gd.vertices().take(3) {
            for v in g.vertices().take(3) {
                if m.is_match(u, v) {
                    for pair in m.witness(u, v).unwrap() {
                        prop_assert!(
                            oracle.contains(&pair),
                            "witness pair {pair:?} outside maximal match"
                        );
                    }
                }
            }
        }
    }

    /// RDB2RDF: canonical-graph size follows the mapping rules exactly.
    #[test]
    fn rdb2rdf_size_formula(
        rows in prop::collection::vec(
            (prop::option::of("[a-z]{1,6}"), prop::option::of("[a-z]{1,6}")),
            1..10,
        )
    ) {
        let mut schema = Schema::new();
        let r = schema.add_relation(RelationSchema::new("r", &["a", "b"]));
        let mut db = Database::new(schema);
        let mut non_null = 0usize;
        for (a, b) in &rows {
            non_null += usize::from(a.is_some()) + usize::from(b.is_some());
            db.insert(r, Tuple::new(vec![
                a.clone().map(Value::Str).unwrap_or(Value::Null),
                b.clone().map(Value::Str).unwrap_or(Value::Null),
            ]));
        }
        let cg = canonicalize(&db);
        // One vertex per tuple + one per non-null attribute.
        prop_assert_eq!(cg.graph.vertex_count(), rows.len() + non_null);
        prop_assert_eq!(cg.graph.edge_count(), non_null);
        // Bijectivity on tuples.
        for (t, _) in db.tuples() {
            prop_assert_eq!(cg.tuple_of(cg.vertex_of(t)), Some(t));
        }
    }

    /// CSV round-trips arbitrary field content.
    #[test]
    fn csv_roundtrip(records in prop::collection::vec(
        prop::collection::vec("[ -~]{0,12}", 1..5), 1..6)
    ) {
        // Normalise widths (parser requires rectangular data only for
        // parse_relation; raw parse allows ragged, so test raw).
        let text = her::rdb::csv::write(&records);
        let parsed = her::rdb::csv::parse(&text).unwrap();
        prop_assert_eq!(parsed, records);
    }
}
