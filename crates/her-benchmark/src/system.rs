//! Run plan and set-up: generated inputs → a trained [`Her`].

use crate::span::SpanLog;
use her_core::learn::SearchSpace;
use her_core::{Her, HerConfig};
use her_datagen::LinkedDataset;
use her_graph::VertexId;
use her_rdb::TupleRef;
use std::path::PathBuf;

/// Fixed load: closed-loop clients of the serve workloads.
pub const CLIENTS: usize = 2;
/// Fixed load: BSP worker threads of `batch-bsp`.
pub const WORKERS: usize = 2;

/// Sizes of one run. [`Plan::full`] is what `BENCHMARK.json` measures;
/// [`Plan::check`] is the same code at smoke size for `--check`.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Scored repetitions run until this many seconds have passed.
    pub seconds: f64,
    pub traced: bool,
    /// People generated for `batch-*` and `serve-read`.
    pub people: usize,
    /// People generated for `serve-ingest`.
    pub ingest_people: usize,
    /// Times the untraced run sets up; `setup_s` is their median.
    pub setups: usize,
    /// In-process VPairs per `batch-seq` repetition.
    pub vpair_reads: usize,
    /// Requests per client per `serve-read` repetition.
    pub script_len: usize,
    /// Tuples 80 % of the scripted VPairs ask for.
    pub hot_set: usize,
    /// Fresh stream sessions per `serve-ingest` repetition.
    pub sessions: u64,
    /// Restarts over the last repetition's journals.
    pub restarts: usize,
    /// Layer probes run `1 / probe_divisor` of their full iteration count.
    pub probe_divisor: usize,
    /// Scratch directory inside the checkout (journals, snapshots, trace).
    pub work_dir: PathBuf,
}

impl Plan {
    pub fn full(seed: u64, seconds: f64, traced: bool, work_dir: PathBuf) -> Self {
        Plan {
            seed,
            seconds,
            traced,
            people: 1000,
            ingest_people: 200,
            setups: if traced { 1 } else { 3 },
            vpair_reads: 200,
            script_len: 750,
            hot_set: 50,
            sessions: 2,
            restarts: 3,
            probe_divisor: 1,
            work_dir,
        }
    }

    pub fn check(seed: u64, traced: bool, work_dir: PathBuf) -> Self {
        Plan {
            people: 60,
            ingest_people: 60,
            setups: 1,
            vpair_reads: 20,
            script_len: 80,
            hot_set: 10,
            sessions: 2,
            restarts: 1,
            probe_divisor: 100,
            ..Plan::full(seed, 0.0, traced, work_dir)
        }
    }
}

pub type Annotations = Vec<(TupleRef, VertexId, bool)>;

/// How long each set-up step took, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub build_s: f64,
    pub learn_s: f64,
}

/// A generated dataset with its trained system.
pub struct System {
    pub ds: LinkedDataset,
    pub her: Her,
    /// The 35 % held-out annotations `f_measure` is evaluated on.
    pub test: Annotations,
    /// The person tuples (the main relation), in generation order.
    pub persons: Vec<TupleRef>,
    /// Every tuple vertex of `G_D`, sorted by tuple: the all-pairs input.
    pub tuple_vertices: Vec<VertexId>,
    pub times: SetupTimes,
}

/// Generates `people` DBpediaP entities from `seed`, builds and trains.
pub fn set_up(people: usize, seed: u64, spans: &mut SpanLog, parent: u64) -> System {
    let (ds, generate_s) = spans.time("datagen.generate", parent, 0, || {
        her_datagen::dbpedia::generate_sized(people, seed)
    });
    let cfg = HerConfig {
        synonyms: ds.synonyms.clone(),
        ..Default::default()
    };
    let (train, validation, test) = ds.split(seed);
    let (mut her, build_s) = spans.time("core.build", parent, 0, || {
        Her::build(&ds.db, ds.g.clone(), ds.interner.clone(), &cfg)
    });
    let (_, learn_s) = spans.time("core.learn", parent, 0, || {
        her.learn(&train, &validation, &cfg, &SearchSpace::default())
    });
    let persons = ds.ground_truth.iter().map(|&(t, _)| t).collect();
    let mut tv: Vec<(TupleRef, VertexId)> = her.cg.tuple_vertices().collect();
    tv.sort();
    System {
        persons,
        tuple_vertices: tv.into_iter().map(|(_, u)| u).collect(),
        test,
        her,
        ds,
        times: SetupTimes {
            generate_s,
            build_s,
            learn_s,
        },
    }
}

impl System {
    /// `Her::evaluate` on the held-out split.
    pub fn f_measure(&self) -> f64 {
        self.her.evaluate(&self.test).f_measure()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
