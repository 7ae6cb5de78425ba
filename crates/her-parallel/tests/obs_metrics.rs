//! Observability integration tests: a fault-injected parallel run must
//! leave a complete audit trail in the shared [`her_obs::Registry`] —
//! worker deaths, recoveries, per-superstep timings — without changing
//! the match set a clean run produces.

use her_core::params::{Params, Thresholds};
use her_graph::{Graph, GraphBuilder, Interner, VertexId};
use her_obs::{EventKind, Obs};
use her_parallel::fault::FaultPlan;
use her_parallel::{pallmatch, ParallelConfig};

/// Entities with a non-leaf brand sub-entity (brand → country) so the
/// recursion crosses fragment boundaries — the fault-injection fixture.
fn dataset(m: usize) -> (Graph, Graph, Interner, Vec<VertexId>) {
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
    let (g, interner, _) = build(Some(i1));
    (gd, g, interner, us)
}

fn params() -> Params {
    Params::untrained(64, 77).with_thresholds(Thresholds::new(0.9, 0.05, 5))
}

fn cfg(fault: FaultPlan, obs: &Obs) -> ParallelConfig {
    ParallelConfig {
        workers: 4,
        use_blocking: false,
        fault,
        obs: Some(obs.clone()),
        ..Default::default()
    }
}

#[test]
fn fault_injected_bsp_run_records_death_and_recovery() {
    let (gd, g, interner, us) = dataset(12);
    let p = params();

    let clean_obs = Obs::new();
    let (clean, _) = pallmatch(
        &gd,
        &g,
        &interner,
        &p,
        &us,
        &cfg(FaultPlan::default(), &clean_obs),
    );

    let obs = Obs::new();
    let plan = FaultPlan::seeded(11).kill_worker(1, 1);
    let (faulty, stats) = pallmatch(&gd, &g, &interner, &p, &us, &cfg(plan, &obs));

    // Telemetry never changes semantics: faulty and clean runs agree.
    assert_eq!(faulty, clean);
    assert_eq!(stats.deaths, 1);

    let snap = obs.registry.snapshot();
    if her_obs::ENABLED {
        assert!(
            snap.counter("bsp.worker_deaths") >= 1,
            "death not recorded: {snap:?}"
        );
        assert!(
            snap.counter("bsp.recoveries") >= 1,
            "recovery not recorded: {snap:?}"
        );
        // The run's superstep structure is in the histograms...
        let busy = snap
            .histogram("bsp.superstep.busy_us")
            .expect("per-superstep timings registered");
        assert_eq!(busy.count as usize, stats.supersteps);
        // ...and the worker matchers aggregated into the same registry.
        assert!(snap.counter("paramatch.calls") > 0);

        // The trace log carries the death and recovery as point events.
        let kinds = |name: &str| {
            obs.tracer
                .events()
                .iter()
                .filter(|e| e.name == name && e.kind == EventKind::Point)
                .count()
        };
        assert_eq!(kinds("bsp.worker_death"), 1);
        assert_eq!(kinds("bsp.recovery"), 1);
    } else {
        assert_eq!(snap.counter("bsp.worker_deaths"), 0);
    }

    // The clean run shares the namespace but records no deaths.
    let clean_snap = clean_obs.registry.snapshot();
    assert_eq!(clean_snap.counter("bsp.worker_deaths"), 0);
    assert_eq!(clean_snap.counter("bsp.recoveries"), 0);
}

#[test]
fn message_faults_are_counted() {
    let (gd, g, interner, us) = dataset(12);
    let p = params();
    let obs = Obs::new();
    // Heavy duplication forces the fault path on nearly every send; the
    // fixpoint still converges because invalidation is idempotent.
    let plan = FaultPlan::seeded(5).duplicate_messages(0.5);
    let (result, _) = pallmatch(&gd, &g, &interner, &p, &us, &cfg(plan, &obs));
    assert!(!result.is_empty());
    if her_obs::ENABLED {
        let snap = obs.registry.snapshot();
        assert!(
            snap.counter("fault.duplicated") > 0,
            "duplicated sends not counted: {snap:?}"
        );
    }
}
