//! Regression: `M_ρ` lookups used to build an owned
//! `(seq1.to_vec(), seq2.to_vec())` key before probing the memo, hit or
//! miss — two heap allocations per `h_ρ` read on the hottest path of
//! `ParaMatch`. The private memo is now keyed by interned sequence ids
//! and the shared tables are probed with borrowed slices, so a warm
//! lookup allocates nothing on either tier.
//!
//! Own test binary: the counting allocator below is process-global.

use her_core::scores::ScoreCache;
use her_core::{Params, SharedScores};
use her_graph::{GraphBuilder, Interner, LabelId, Path, VertexId};
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

fn setup() -> (Params, Interner, Vec<LabelId>) {
    let mut b = GraphBuilder::new();
    let ids = ["made_in", "factorySite", "isIn", "country", "name"]
        .iter()
        .map(|w| b.intern(w))
        .collect();
    let (_, interner) = b.build();
    (Params::untrained(32, 5), interner, ids)
}

fn path(labels: &[LabelId]) -> Path {
    let vertices = (0..=labels.len() as u32).map(VertexId).collect();
    Path::new(vertices, labels.to_vec())
}

#[test]
fn warm_hrho_and_hv_lookups_do_not_allocate() {
    let (p, i, l) = setup();
    let (rho1, rho2) = (path(&l[0..2]), path(&l[2..4]));
    let shared = SharedScores::new();
    let mut private = ScoreCache::over(shared.clone());
    // Cold: interns both sequences, encodes them, fills both tiers.
    let cold = private.hrho(&p, &i, &rho1, &rho2);
    let cold_hv = private.hv(&p, &i, l[0], l[1]);

    // Warm private memo: the ParaMatch hot path.
    let mut warm = (0.0, 0.0);
    let n = allocations(|| {
        warm = (
            private.hrho(&p, &i, &rho1, &rho2),
            private.hv(&p, &i, l[0], l[1]),
        );
    });
    assert_eq!(n, 0, "warm private lookups allocated");
    assert_eq!((warm.0.to_bits(), warm.1.to_bits()), (cold.to_bits(), cold_hv.to_bits()));

    // Warm shared tier, as a fresh matcher's first read sees it. (The
    // lock-order tracker of debug builds allocates per acquisition, so
    // the count only means something with tracking compiled out.)
    let n = allocations(|| {
        let undivided = shared.mrho(&p, &i, rho1.edge_labels(), rho2.edge_labels());
        warm = (undivided / 4.0, shared.hv(&p, &i, l[0], l[1]));
    });
    if !her_sync::TRACKING {
        assert_eq!(n, 0, "warm shared lookups allocated");
    }
    assert_eq!((warm.0.to_bits(), warm.1.to_bits()), (cold.to_bits(), cold_hv.to_bits()));
}

#[test]
fn sequence_ids_are_stable_across_invalidate() {
    let (p, i, l) = setup();
    let mut private = ScoreCache::new();
    let ids: Vec<_> = l.windows(2).map(|seq| private.seq_id(seq)).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "distinct sequences, distinct ids");
    let before = private.mrho(&p, &i, &l[0..2], &l[2..4]);

    private.invalidate();
    let after: Vec<_> = l.windows(2).map(|seq| private.seq_id(seq)).collect();
    assert_eq!(after, ids, "invalidate() must not renumber sequences");
    // Same ids, recomputed (unchanged-model) score.
    assert_eq!(
        private.mrho(&p, &i, &l[0..2], &l[2..4]).to_bits(),
        before.to_bits()
    );
}
