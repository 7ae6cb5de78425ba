//! The two in-process workloads: `batch-seq` (sequential all-pairs plus
//! single-tuple reads on one thread) and `batch-bsp` (the same all-pairs
//! work through the BSP engine on two real threads).

use crate::layers;
use crate::run::{put_latencies, put_throughput, repetitions, Run};
use crate::stats::{mean, Latencies};
use crate::system::{System, WORKERS};
use her_core::paramatch::MatchStats;
use her_core::MatcherOptions;
use her_graph::VertexId;
use her_obs::Obs;
use her_parallel::{pallmatch, partition_round_robin, ParallelConfig, ParallelStats};
use her_rdb::TupleRef;

type Matches = Vec<(TupleRef, VertexId)>;

struct SeqRep {
    matches: Matches,
    stats: MatchStats,
    apair_s: f64,
    /// `Her::vpair` answers in script order, and how long each took.
    reads: Vec<Vec<VertexId>>,
    reads_ns: Vec<u64>,
    /// `SharedScores` embed calls / memo hits spent by the all-pairs run.
    scores_embeds: u64,
    scores_hits: u64,
}

/// One `batch-seq` repetition: all-pairs with a fresh matcher, then the
/// scripted single-tuple reads. Untraced it takes exactly the calls
/// `Her::apair()` and `Her::vpair()` make; traced (`obs` set) it attaches
/// `obs` to the matchers and wraps each call in a span.
fn seq_rep(
    sys: &System,
    reads: &[TupleRef],
    rep: u64,
    obs: Option<&Obs>,
    run: &mut Run<'_>,
) -> SeqRep {
    let her = &sys.her;
    let traced = obs.is_some();
    let options = || MatcherOptions {
        obs: obs.cloned(),
        ..Default::default()
    };
    let scores = || {
        her.shared_scores
            .as_ref()
            .map_or((0, 0), |s| (s.embed_calls(), s.shared_hits()))
    };
    let before = scores();
    let root = if traced {
        run.spans.enter("repetition", 0, rep)
    } else {
        0
    };
    let ((matches, _, stats), apair_s) = run.timed(traced, "core.apair", root, rep, || {
        her.try_apair_stats(options())
    });
    let after = scores();
    let mut out = SeqRep {
        matches,
        stats,
        apair_s,
        reads: Vec::with_capacity(reads.len()),
        reads_ns: Vec::with_capacity(reads.len()),
        scores_embeds: after.0 - before.0,
        scores_hits: after.1 - before.1,
    };
    for &t in reads {
        let (found, secs) = run.timed(traced, "core.vpair", root, rep, || match obs {
            Some(_) => her.try_vpair(t, options()).matches,
            None => her.vpair(t),
        });
        out.reads_ns.push((secs * 1e9) as u64);
        out.reads.push(found);
    }
    if traced {
        run.spans.exit(root);
    }
    out
}

pub fn batch_seq(sys: &System, run: &mut Run<'_>) {
    let plan = run.plan;
    let reads = crate::script::sample(&sys.persons, plan.vpair_reads, plan.seed);
    let tuples = sys.tuple_vertices.len() as u64;
    let obs = Obs::new();
    let reps = repetitions(plan, |i, traced| {
        seq_rep(sys, &reads, i as u64, traced.then_some(&obs), run)
    });

    // Output checks: the answers of every scored repetition are those of
    // the first, call for call.
    let reference = &reps.warm_up;
    for rep in reps.untraced.iter().chain(&reps.traced) {
        run.attempted += tuples + reads.len() as u64;
        let wrong_pairs = u64::from(rep.matches != reference.matches) * tuples;
        run.fail(wrong_pairs, || {
            format!(
                "batch-seq: all-pairs match set changed between repetitions ({} vs {} pairs)",
                rep.matches.len(),
                reference.matches.len()
            )
        });
        let wrong_reads = rep
            .reads
            .iter()
            .zip(&reference.reads)
            .filter(|(a, b)| a != b)
            .count();
        run.fail(wrong_reads as u64, || {
            format!("batch-seq: {wrong_reads} Her::vpair answers changed between repetitions")
        });
        run.check(rep.stats == reference.stats, || {
            format!(
                "batch-seq: MatchStats changed between repetitions: {:?} vs {:?}",
                rep.stats, reference.stats
            )
        });
    }

    let f_measure = sys.f_measure();
    run.check(f_measure >= 0.90 || plan.people < 1000, || {
        format!("batch-seq: f_measure {f_measure} is below 0.90")
    });

    let rate = |r: &SeqRep| tuples as f64 / r.apair_s;
    put_throughput(
        run,
        &reps.untraced.iter().map(rate).collect::<Vec<_>>(),
        &reps.traced.iter().map(rate).collect::<Vec<_>>(),
    );
    let mut latencies = Latencies::default();
    for rep in &reps.untraced {
        latencies.extend(&rep.reads_ns);
    }
    put_latencies(run, &latencies, &Latencies::default());
    if let Some(last) = reps.traced.last() {
        let m = &mut run.metrics;
        m.put(
            "core.apair_s",
            mean(&reps.untraced.iter().map(|r| r.apair_s).collect::<Vec<_>>()),
        );
        m.put("core.vpair_us", latencies.mean_us());
        m.put("core.paramatch_calls", last.stats.calls as f64);
        m.put("core.cache_hits", last.stats.cache_hits as f64);
        m.put("core.ecache_hits", last.stats.ecache_hits as f64);
        m.put(
            "core.early_terminations",
            last.stats.early_terminations as f64,
        );
        m.put("core.cleanups", last.stats.cleanups as f64);
        m.put("core.cache_hit_ratio", last.stats.cache_hit_rate());
        m.put("core.scores_embed_calls", last.scores_embeds as f64);
        m.put("core.scores_shared_hits", last.scores_hits as f64);
        layers::embed_probes(run, sys);
        layers::core_probes(run, sys);
        layers::prewarm_probe(run, sys);
    }
}

struct BspRep {
    matches: Vec<(VertexId, VertexId)>,
    stats: ParallelStats,
    wall_s: f64,
}

/// The attributed terms of the BSP ladder and what is left of the wall
/// clock (prewarm, thread spawn, merge). All in seconds, means over the
/// traced repetitions, so they add up to `wall_s` exactly.
#[derive(Debug, PartialEq)]
pub struct BspLadder {
    pub selection_s: f64,
    pub candidates_s: f64,
    pub bsp_s: f64,
    pub residual_s: f64,
    pub wall_s: f64,
}

impl BspLadder {
    pub fn from_means(selection_s: f64, candidates_s: f64, bsp_s: f64, wall_s: f64) -> Self {
        BspLadder {
            selection_s,
            candidates_s,
            bsp_s,
            residual_s: wall_s - (selection_s + candidates_s + bsp_s),
            wall_s,
        }
    }
}

pub fn batch_bsp(sys: &System, run: &mut Run<'_>) {
    let plan = run.plan;
    let her = &sys.her;
    let tuples = sys.tuple_vertices.len() as u64;
    let obs = Obs::new();
    let reps = repetitions(plan, |i, traced| {
        let cfg = ParallelConfig {
            workers: WORKERS,
            simulate_cluster: false,
            obs: traced.then(|| obs.clone()),
            ..Default::default()
        };
        let ((matches, stats), wall_s) =
            run.timed(traced, "parallel.pallmatch", 0, i as u64, || {
                pallmatch(
                    &her.cg.graph,
                    &her.g,
                    &her.cg.interner,
                    &her.params,
                    &sys.tuple_vertices,
                    &cfg,
                )
            });
        BspRep {
            matches,
            stats,
            wall_s,
        }
    });

    // Output check (Theorem 3): the parallel match set equals the
    // sequential one — equality, not containment.
    let (sequential, apair_s) = run.timed(true, "check", 0, 0, || her.apair());
    for rep in reps.untraced.iter().chain(&reps.traced) {
        run.attempted += tuples;
        let mut parallel: Matches = rep
            .matches
            .iter()
            .filter_map(|&(u, v)| her.cg.tuple_of(u).map(|t| (t, v)))
            .collect();
        parallel.sort();
        run.fail(u64::from(parallel != sequential) * tuples, || {
            format!(
                "batch-bsp: pallmatch found {} pairs, Her::apair {}",
                parallel.len(),
                sequential.len()
            )
        });
    }

    let rate = |r: &BspRep| tuples as f64 / r.wall_s;
    let untraced_rates: Vec<f64> = reps.untraced.iter().map(rate).collect();
    put_throughput(
        run,
        &untraced_rates,
        &reps.traced.iter().map(rate).collect::<Vec<_>>(),
    );
    if let Some(last) = reps.traced.last() {
        let over = |f: fn(&BspRep) -> f64| mean(&reps.traced.iter().map(f).collect::<Vec<_>>());
        let ladder = BspLadder::from_means(
            over(|r| r.stats.selection_secs),
            over(|r| r.stats.candidates_secs),
            over(|r| r.stats.bsp_secs),
            over(|r| r.wall_s),
        );
        let (_, partition_s) = run.timed(true, "probe", 0, 0, || {
            std::hint::black_box(partition_round_robin(&her.g, WORKERS))
        });
        let snap = obs.snapshot();
        let traced_runs = reps.traced.len() as f64;
        let m = &mut run.metrics;
        m.put("core.apair_s", apair_s);
        m.put("parallel.partition_s", partition_s);
        m.put("parallel.selection_s", ladder.selection_s);
        m.put("parallel.candidates_s", ladder.candidates_s);
        m.put("parallel.bsp_s", ladder.bsp_s);
        m.put("parallel.residual_s", ladder.residual_s);
        m.put("parallel.wall_s", ladder.wall_s);
        // An estimate of the slowest worker's path, not a wall clock:
        // wall far above it means contention, not imbalance.
        m.put("parallel.critical_path_s", over(|r| r.stats.simulated_secs));
        m.put("parallel.supersteps", last.stats.supersteps as f64);
        m.put("parallel.requests", last.stats.requests as f64);
        m.put("parallel.invalidations", last.stats.invalidations as f64);
        // Base: the sequential all-pairs run of this process on this data.
        m.put(
            "parallel.speedup",
            apair_s * crate::stats::upper_rate(&untraced_rates) / tuples as f64,
        );
        m.put(
            "core.scores_embed_calls",
            snap.counter("scores.embed_calls") as f64 / traced_runs,
        );
        m.put(
            "core.scores_shared_hits",
            snap.counter("scores.shared_hits") as f64 / traced_runs,
        );
        layers::embed_probes(run, sys);
        layers::prewarm_probe(run, sys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsp_ladder_sums_to_the_wall_clock() {
        let l = BspLadder::from_means(0.006, 0.31, 3.9, 4.4);
        let sum = l.selection_s + l.candidates_s + l.bsp_s + l.residual_s;
        assert!((sum - l.wall_s).abs() <= 0.01 * l.wall_s);
        assert!(l.residual_s > 0.0);
    }
}
