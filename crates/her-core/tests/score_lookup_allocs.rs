//! Regression: `M_ρ` lookups used to build an owned
//! `(seq1.to_vec(), seq2.to_vec())` key before probing the memo, hit or
//! miss — two heap allocations per `h_ρ` read on the hottest path of
//! `ParaMatch`. The private tier is now a dense table over the selection
//! table's sequence ids and the shared tables are probed with borrowed
//! slices, so a warm lookup allocates nothing on either tier — and a
//! warm candidate cut allocates nothing per pool member.
//!
//! Own test binary: the counting allocator below is process-global.

use her_core::scores::ScoreCache;
use her_core::shared_scores::PlanEntry;
use her_core::{Matcher, Params, SharedScores, Thresholds};
use her_graph::{Graph, GraphBuilder, Interner, VertexId};
use std::sync::Arc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on their own threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is bumping a const-initialised, destructor-free thread-local counter,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// `G_D`: one item with three attribute edges; `G`: `items` of them
/// under other edge names, attribute values cycling.
fn graphs(items: usize) -> (Graph, Graph, Interner, VertexId, Vec<VertexId>) {
    let mut b = GraphBuilder::new();
    let u = b.add_vertex("item");
    for (value, edge) in [("white", "color"), ("phylon foam", "material"), ("Germany", "made_in")] {
        let leaf = b.add_vertex(value);
        b.add_edge(u, leaf, edge);
    }
    let (gd, interner) = b.build();
    let mut b = GraphBuilder::with_interner(interner);
    let colors = ["white", "red", "black"];
    let sites = ["Germany", "Vietnam", "Japan", "Italy"];
    let roots = (0..items)
        .map(|i| {
            let v = b.add_vertex("item");
            for (value, edge) in [(colors[i % 3], "hasColor"), (sites[i % 4], "factorySite")] {
                let leaf = b.add_vertex(value);
                b.add_edge(v, leaf, edge);
            }
            v
        })
        .collect();
    let (g, interner) = b.build();
    (gd, g, interner, u, roots)
}

#[test]
fn warm_hrho_and_hv_lookups_do_not_allocate() {
    let (gd, g, i, u, roots) = graphs(2);
    let p = Params::untrained(32, 5).with_thresholds(Thresholds::new(0.9, 0.1, 4));
    let shared = SharedScores::new();
    let mut private = ScoreCache::over(shared.clone());
    let table = Arc::clone(private.table(&gd, &g, 4));
    let of = |e: &PlanEntry| (e.seq, e.len);
    let (pu, pv) = (table.plan(false, &gd, &p.ranker, u)[0], table.plan(true, &g, &p.ranker, roots[0])[0]);
    let (rho1, rho2) = (
        &table.select(false, &gd, &p.ranker, u)[0].1,
        &table.select(true, &g, &p.ranker, roots[0])[0].1,
    );
    let end = (pu.label, private.sigma_row(&p, &i, pu.label));
    // Cold: scores the two sequences, fills both tiers.
    let cold = private.hrho_ids(&p, &i, of(&pu), of(&pv));
    let cold_hv = private.hv(&p, &i, pu.label, pv.label);
    let cold_bit = private.reaches_sigma(&p, &i, end, pv.label);
    assert_eq!(cold.to_bits(), private.hrho(&p, &i, rho1, rho2).to_bits(), "one float by id and by path");
    assert_eq!(cold_bit, cold_hv >= p.thresholds.sigma);

    // Warm private tier: the ParaMatch hot path.
    let mut warm = (0.0, 0.0, false);
    let n = allocations(|| {
        warm = (
            private.hrho_ids(&p, &i, of(&pu), of(&pv)),
            private.hv(&p, &i, pu.label, pv.label),
            private.reaches_sigma(&p, &i, end, pv.label),
        );
    });
    assert_eq!(n, 0, "warm private lookups allocated");
    assert_eq!((warm.0.to_bits(), warm.1.to_bits(), warm.2), (cold.to_bits(), cold_hv.to_bits(), cold_bit));

    // Warm shared tier, as a fresh matcher's first read sees it. (The
    // lock-order tracker of debug builds allocates per acquisition, so
    // the count only means something with tracking compiled out.)
    let denom = (rho1.len() + rho2.len()) as f32;
    let n = allocations(|| {
        let undivided = shared.mrho(&p, &i, rho1.edge_labels(), rho2.edge_labels());
        warm = (undivided / denom, shared.hv(&p, &i, pu.label, pv.label), cold_bit);
    });
    if !her_sync::TRACKING {
        assert_eq!(n, 0, "warm shared lookups allocated");
    }
    assert_eq!((warm.0.to_bits(), warm.1.to_bits()), (cold.to_bits(), cold_hv.to_bits()));
}

/// Sequence ids are the selection table's: one space for every memo on
/// the handle, gone with the generation.
#[test]
fn sequence_ids_are_the_tables_and_start_over_with_the_generation() {
    let (gd, g, i, u, roots) = graphs(2);
    let p = Params::untrained(32, 5).with_thresholds(Thresholds::new(0.9, 0.1, 4));
    let shared = SharedScores::new();
    let (mut one, mut other) = (ScoreCache::over(shared.clone()), ScoreCache::over(shared.clone()));
    let table = Arc::clone(one.table(&gd, &g, 4));
    assert!(Arc::ptr_eq(&table, other.table(&gd, &g, 4)), "one table, so one id space, per handle");
    let su: Vec<PlanEntry> = table.plan(false, &gd, &p.ranker, u).to_vec();
    let sv: Vec<PlanEntry> = table.plan(true, &g, &p.ranker, roots[1]).to_vec();
    let mut ids: Vec<_> = su.iter().chain(&sv).map(|e| e.seq).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids, (0..5).collect::<Vec<_>>(), "five distinct sequences, dense ids");
    assert_eq!(table.seq_count(), 5);
    let of = |e: &PlanEntry| (e.seq, e.len);
    let before = one.hrho_ids(&p, &i, of(&su[0]), of(&sv[0]));
    assert_eq!(other.hrho_ids(&p, &i, of(&su[0]), of(&sv[0])).to_bits(), before.to_bits());

    one.invalidate();
    let fresh = Arc::clone(one.table(&gd, &g, 4));
    assert!(!Arc::ptr_eq(&table, &fresh), "invalidate() drops the table with its ids");
    assert_eq!(fresh.seq_count(), 0);
    // Filled in another order, the same sequences get other ids — and
    // the same (unchanged-model) score.
    let sv2 = fresh.plan(true, &g, &p.ranker, roots[1])[0];
    let su2 = fresh.plan(false, &gd, &p.ranker, u)[0];
    assert_ne!(su2.seq, su[0].seq);
    assert_eq!(one.hrho_ids(&p, &i, of(&su2), of(&sv2)).to_bits(), before.to_bits());
}

/// A warm candidate cut walks plans, σ rows and masks: nothing is
/// allocated per pool member — the pool itself comes back, filtered in
/// place.
#[test]
fn warm_viable_allocates_nothing_per_pool_member() {
    let (gd, g, i, u, roots) = graphs(1200);
    let probe = Params::untrained(32, 5).with_thresholds(Thresholds::new(0.9, 0.0, 4));
    // δ between one and two matching attributes' worth of `h_ρ`.
    let s = {
        let mut m = Matcher::new(&gd, &g, &i, &probe);
        let (su, sv) = (m.select_d(u), m.select_g(roots[0]));
        ScoreCache::new().hrho(&probe, &i, &su[0].1, &sv[0].1)
    };
    assert!(s > 0.0);
    let p = probe.with_thresholds(Thresholds::new(0.9, s * 1.5, 4));
    let mut m = Matcher::new(&gd, &g, &i, &p);
    let cold = m.viable(u, roots.clone());
    assert!(!cold.is_empty() && cold.len() < roots.len(), "the cut must cut and keep: {}", cold.len());
    assert_eq!(m.stats().early_terminations as usize, roots.len() - cold.len());

    let pool = roots.clone();
    let mut warm = Vec::new();
    let n = allocations(|| warm = m.viable(u, pool));
    assert_eq!(n, 0, "a warm cut over {} members allocated", roots.len());
    assert_eq!(warm, cold);
}
