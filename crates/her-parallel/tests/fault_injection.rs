//! Fault-injection integration tests (§VI-B worker recovery).
//!
//! Each test runs the BSP engine under a seeded, deterministic
//! [`FaultPlan`] — scripted worker panics, poisoned pairs, and seeded
//! message drop/duplicate/delay streams — in both execution modes
//! (simulated cluster and real worker threads) and asserts the match set
//! still equals the failure-free sequential `AllParaMatch` result. The safety
//! argument is monotone invalidation (see the her-parallel crate docs);
//! these tests are the executable version of it.

use her_core::apair::apair;
use her_core::paramatch::{Matcher, PairKey};
use her_core::params::{Params, Thresholds};
use her_graph::{Graph, GraphBuilder, Interner, VertexId};
use her_parallel::fault::FaultPlan;
use her_parallel::{pallmatch, ParallelConfig};
use std::time::Duration;

/// Entities with a non-leaf brand sub-entity (brand → country) so the
/// recursion crosses fragment boundaries under round-robin partitions —
/// the same fixture the engine unit tests use.
fn dataset(m: usize) -> (Graph, Graph, Interner, Vec<VertexId>, Vec<VertexId>) {
    let colors = ["white", "red", "blue", "green"];
    let brands = ["Acme", "Globex", "Initech"];
    let countries = ["Germany", "Vietnam", "Japan"];
    let build = |shared: Option<Interner>| {
        let mut b = match shared {
            Some(i) => GraphBuilder::with_interner(i),
            None => GraphBuilder::new(),
        };
        let mut roots = Vec::new();
        for i in 0..m {
            let root = b.add_vertex("item");
            let c = b.add_vertex(colors[i % colors.len()]);
            let name = b.add_vertex(&format!("entity {i}"));
            let brand = b.add_vertex(brands[i % brands.len()]);
            let country = b.add_vertex(countries[i % countries.len()]);
            b.add_edge(root, c, "color");
            b.add_edge(root, name, "name");
            b.add_edge(root, brand, "brand");
            b.add_edge(brand, country, "country");
            roots.push(root);
        }
        let (g, i) = b.build();
        (g, i, roots)
    };
    let (gd, i1, us) = build(None);
    let (g, interner, vs) = build(Some(i1));
    (gd, g, interner, us, vs)
}

fn params() -> Params {
    Params::untrained(64, 77).with_thresholds(Thresholds::new(0.9, 0.05, 5))
}

fn sequential(gd: &Graph, g: &Graph, interner: &Interner, p: &Params, us: &[VertexId]) -> Vec<PairKey> {
    let mut m = Matcher::new(gd, g, interner, p);
    apair(&mut m, us, None)
}

/// `simulate_cluster` picks the execution mode: one worker at a time, or
/// real threads. A plan's one-shot faults fire once across clones, so each
/// run needs a freshly built plan.
fn faulty_cfg(workers: usize, fault: FaultPlan, simulate_cluster: bool) -> ParallelConfig {
    ParallelConfig {
        workers,
        use_blocking: false,
        simulate_cluster,
        fault,
        ..Default::default()
    }
}

#[test]
fn bsp_killed_worker_recovers_to_sequential_result() {
    let (gd, g, interner, us, _) = dataset(12);
    let p = params();
    let expected = sequential(&gd, &g, &interner, &p, &us);
    for simulate in [true, false] {
        // Worker 1 dies before evaluating anything: its fragment and all its
        // candidate roots must be adopted and verified by the survivors.
        let plan = FaultPlan::seeded(11).kill_worker(1, 1);
        let cfg = faulty_cfg(4, plan, simulate);
        let (result, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
        assert_eq!(stats.deaths, 1, "simulate_cluster={simulate}");
        assert_eq!(result, expected, "simulate_cluster={simulate}");
    }
}

#[test]
fn bsp_mid_run_kill_with_drop_duplicate_delay() {
    let (gd, g, interner, us, _) = dataset(12);
    let p = params();
    let expected = sequential(&gd, &g, &interner, &p, &us);
    for simulate in [true, false] {
        // Kill after the first exchange, on top of a lossy, duplicating,
        // reordering transport.
        let plan = FaultPlan::seeded(42)
            .kill_worker(2, 2)
            .drop_messages(0.2)
            .duplicate_messages(0.2)
            .delay_messages(0.2);
        let cfg = faulty_cfg(4, plan, simulate);
        let (result, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
        assert!(stats.deaths >= 1, "the scripted kill must have fired");
        assert_eq!(result, expected, "simulate_cluster={simulate}");
    }
}

#[test]
fn bsp_double_death_recovers() {
    let (gd, g, interner, us, _) = dataset(12);
    let p = params();
    let expected = sequential(&gd, &g, &interner, &p, &us);
    for simulate in [true, false] {
        let plan = FaultPlan::seeded(3).kill_worker(0, 1).kill_worker(3, 2);
        let cfg = faulty_cfg(4, plan, simulate);
        let (result, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
        assert!(stats.deaths >= 1);
        assert_eq!(result, expected, "simulate_cluster={simulate}");
    }
}

#[test]
fn bsp_poisoned_pair_is_transient_and_recovered() {
    let (gd, g, interner, us, vs) = dataset(8);
    let p = params();
    let expected = sequential(&gd, &g, &interner, &p, &us);
    for simulate in [true, false] {
        // The first evaluation of a true match panics its worker; the adopter
        // re-evaluates it (the poison has fired) and must still report it.
        let plan = FaultPlan::seeded(5).poison_pair((us[0], vs[0]));
        let cfg = faulty_cfg(3, plan, simulate);
        let (result, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
        assert_eq!(stats.deaths, 1, "simulate_cluster={simulate}");
        assert_eq!(result, expected, "simulate_cluster={simulate}");
        assert!(result.contains(&(us[0], vs[0])));
    }
}

#[test]
fn bsp_seeded_runs_are_reproducible() {
    let (gd, g, interner, us, _) = dataset(10);
    let p = params();
    let run = |simulate| {
        let plan = FaultPlan::seeded(9)
            .kill_worker(1, 2)
            .drop_messages(0.3)
            .duplicate_messages(0.1);
        pallmatch(&gd, &g, &interner, &p, &us, &faulty_cfg(4, plan, simulate))
    };
    // Per-worker fate streams and barrier routing do not depend on thread
    // scheduling: a simulated rerun, a threaded run and a threaded rerun all
    // reproduce the first run.
    let (r1, s1) = run(true);
    for simulate in [true, false, false] {
        let (r2, s2) = run(simulate);
        assert_eq!(r1, r2, "simulate_cluster={simulate}");
        assert_eq!(s1.deaths, s2.deaths, "simulate_cluster={simulate}");
    }
}

/// The Budget half of the acceptance criteria, exercised end-to-end: a
/// budget-starved `try_vpair` terminates inside its deadline, reports
/// `Exhausted`, and surfaces sound partial results.
#[test]
fn budget_exhausted_vpair_terminates_with_partial_results() {
    use her_core::paramatch::{Budget, MatcherOptions, Outcome};
    use her_core::vpair::try_vpair;
    let (gd, g, interner, us, _) = dataset(16);
    let p = params();
    let deadline = Duration::from_secs(20);
    let opts = MatcherOptions {
        budget: Budget::unlimited()
            .with_max_calls(3)
            .with_deadline_in(deadline),
        ..Default::default()
    };
    let mut m = Matcher::with_options(&gd, &g, &interner, &p, opts);
    let start = std::time::Instant::now();
    let run = try_vpair(&mut m, us[0], None);
    assert!(start.elapsed() < deadline, "must terminate within the deadline");
    assert!(run.exhausted.is_some(), "tight budget must trip: {run:?}");
    assert!(!run.unresolved.is_empty());
    // Partial results are sound, and cached verdicts still serve.
    let mut oracle = Matcher::new(&gd, &g, &interner, &p);
    for &v in &run.matches {
        assert!(oracle.is_match(us[0], v), "unsound partial match {v:?}");
    }
    for &v in &run.matches {
        assert_eq!(m.try_match(us[0], v), Outcome::Matched);
    }
}
/// With 3 workers the mod-3 partition co-owns every entity star (root and
/// brand vertex ids differ by 3), so the run exchanges zero messages and
/// reaches the fixpoint in one superstep. A death in such a run schedules
/// message-free recovery work — the supervised runner must grant it an
/// extra superstep rather than declare the fixpoint at the death barrier
/// (regression: adopted roots silently dropped).
#[test]
fn zero_traffic_partition_still_correct() {
    let (gd, g, interner, us, _) = dataset(8);
    let p = params();
    let expected = sequential(&gd, &g, &interner, &p, &us);
    let cfg = faulty_cfg(3, FaultPlan::default(), true);
    let (result, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg);
    assert_eq!(stats.requests, 0, "fixture must exercise the zero-traffic path");
    assert_eq!(result, expected);
}
