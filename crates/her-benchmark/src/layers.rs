//! Layer probes of the traced run: each times calls into one crate's
//! public functions on this run's own data, outside the scored
//! repetitions, and files the result under that crate's name. A probe
//! is one span named `probe`; what it measures is in the metric name.

use crate::run::Run;
use crate::script::{sample, Rng};
use crate::serve::IngestOracle;
use crate::system::{System, WORKERS};
use her_core::index::{blocking_query, InvertedIndex};
use her_core::{Budget, CancelToken, DurableStreamLinker, MatcherPool, SharedScores};
use her_embed::vec_ops::cosine;
use her_graph::{Graph, LabelId, VertexId};
use her_obs::ReqCtx;
use her_rdb::rdb2rdf::canonicalize_with_interner;
use her_serve::{Admission, Admit, Reply, Request};
use her_store::wal::{self, WalWriter};
use her_store::SnapshotStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Seconds `f` takes, inside a `probe` span.
fn timed<R>(run: &mut Run<'_>, f: impl FnOnce() -> R) -> (R, f64) {
    run.timed(true, "probe", 0, 0, f)
}

/// Mean seconds per call of `f` over `iters` calls (at least one).
fn per_call_s(run: &mut Run<'_>, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let iters = iters.max(1);
    let ((), secs) = timed(run, || (0..iters).for_each(&mut f));
    secs / iters as f64
}

/// What every traced run reports about its set-up and inputs.
pub fn input_probes(run: &mut Run<'_>, sys: &System) {
    let (_, canonicalize_s) = timed(run, || {
        black_box(canonicalize_with_interner(
            &sys.ds.db,
            sys.ds.interner.clone(),
        ))
    });
    let m = &mut run.metrics;
    m.put("datagen.generate_s", sys.times.generate_s);
    m.put("core.build_s", sys.times.build_s);
    m.put("core.learn_s", sys.times.learn_s);
    m.put("rdb.canonicalize_s", canonicalize_s);
    m.put("graph.g_vertices", sys.her.g.vertex_count() as f64);
    m.put("graph.gd_vertices", sys.her.cg.graph.vertex_count() as f64);
}

/// Entity roots of `G` (one per generated person) and of `G_D`.
fn roots(sys: &System) -> (Vec<VertexId>, Vec<VertexId>) {
    let g_roots = sys.ds.ground_truth.iter().map(|&(_, v)| v).collect();
    let gd_roots = sys
        .persons
        .iter()
        .map(|&t| sys.her.cg.vertex_of(t))
        .collect();
    (g_roots, gd_roots)
}

/// Edge-label sequences of the top-k paths below `roots`.
fn selected_sequences(sys: &System, g: &Graph, roots: &[VertexId]) -> Vec<Vec<LabelId>> {
    let k = sys.her.params.thresholds.k;
    roots
        .iter()
        .flat_map(|&v| sys.her.params.ranker.select(g, v, k))
        .map(|(_, path)| path.edge_labels().to_vec())
        .collect()
}

/// `her-embed`: the score kernel, label embedding, path scoring, top-k.
pub fn embed_probes(run: &mut Run<'_>, sys: &System) {
    let her = &sys.her;
    let div = run.plan.probe_divisor;
    let labels: Vec<&str> = her.cg.interner.iter().map(|(_, s)| s).collect();
    let mut vectors = Vec::new();
    let embed_s = per_call_s(run, labels.len(), |i| {
        vectors.push(her.params.mv.embed(labels[i]))
    });
    run.metrics.put("embed.sentence_embed_us", embed_s * 1e6);

    let mut rng = Rng::new(run.plan.seed ^ 0x0063_6f73);
    let pairs: Vec<(usize, usize)> = (0..1_000_000 / div)
        .map(|_| (rng.below(vectors.len()), rng.below(vectors.len())))
        .collect();
    let mut acc = 0f32;
    let cosine_s = per_call_s(run, pairs.len(), |i| {
        acc += cosine(
            black_box(&vectors[pairs[i].0]),
            black_box(&vectors[pairs[i].1]),
        );
    });
    black_box(acc);
    run.metrics.put("embed.cosine_ns", cosine_s * 1e9);

    let (g_roots, gd_roots) = roots(sys);
    let k = her.params.thresholds.k;
    let g_sample = sample(&g_roots, 2000 / div, run.plan.seed);
    let select_s = per_call_s(run, g_sample.len(), |i| {
        black_box(her.params.ranker.select(&her.g, g_sample[i], k));
    });
    run.metrics.put("embed.topk_select_us", select_s * 1e6);

    let render = |seqs: Vec<Vec<LabelId>>| -> Vec<Vec<String>> {
        seqs.iter()
            .map(|s| {
                s.iter()
                    .map(|&l| her.cg.interner.resolve(l).to_owned())
                    .collect()
            })
            .collect()
    };
    let g_seqs = render(selected_sequences(
        sys,
        &her.g,
        &g_sample[..g_sample.len().min(64)],
    ));
    let gd_sample = sample(&gd_roots, 64, run.plan.seed);
    let gd_seqs = render(selected_sequences(sys, &her.cg.graph, &gd_sample));
    if !g_seqs.is_empty() && !gd_seqs.is_empty() {
        let score_s = per_call_s(run, 20_000 / div, |_| {
            let (a, b) = (
                &gd_seqs[rng.below(gd_seqs.len())],
                &g_seqs[rng.below(g_seqs.len())],
            );
            black_box(her.params.mrho.score(a, b));
        });
        run.metrics.put("embed.path_score_us", score_s * 1e6);
    }
}

/// `her-core` below the facade: blocking index, single-pair matching,
/// and the serial score prewarm the BSP engine does before superstep 1.
pub fn core_probes(run: &mut Run<'_>, sys: &System) {
    let her = &sys.her;
    let div = run.plan.probe_divisor;
    let (index, build_s) = timed(run, || InvertedIndex::build(&her.g, &her.cg.interner));
    run.metrics.put("core.index_build_s", build_s);

    let (_, gd_roots) = roots(sys);
    let mut candidates = 0usize;
    let candidates_s = per_call_s(run, gd_roots.len(), |i| {
        let query = blocking_query(&her.cg.graph, &her.cg.interner, gd_roots[i]);
        candidates += black_box(index.candidates(&query)).len();
    });
    run.metrics
        .put("core.index_candidates_us", candidates_s * 1e6);
    run.metrics.put(
        "core.candidates_per_tuple",
        candidates as f64 / gd_roots.len().max(1) as f64,
    );

    let pairs = sample(&sys.test, 300 / div.min(10), run.plan.seed);
    let cold_s = per_call_s(run, pairs.len(), |i| {
        black_box(her.spair(pairs[i].0, pairs[i].1));
    });
    run.metrics.put("core.spair_cold_us", cold_s * 1e6);
    let mut matcher = her.matcher();
    for &(t, v, _) in &pairs {
        her.spair_with(&mut matcher, t, v);
    }
    let passes = 200 / div.min(10);
    let warm_s = per_call_s(run, pairs.len() * passes, |i| {
        let (t, v, _) = pairs[i % pairs.len()];
        black_box(her.spair_with(&mut matcher, t, v));
    });
    run.metrics.put("core.spair_warm_ns", warm_s * 1e9);
}

/// `SharedScores::prewarm_labels` + `prewarm_paths` on a fresh handle.
pub fn prewarm_probe(run: &mut Run<'_>, sys: &System) {
    let her = &sys.her;
    let (g_roots, gd_roots) = roots(sys);
    let mut labels: Vec<LabelId> = her.g.vertices().map(|v| her.g.label(v)).collect();
    labels.extend(her.cg.graph.vertices().map(|v| her.cg.graph.label(v)));
    let mut seqs = selected_sequences(sys, &her.g, &g_roots);
    seqs.extend(selected_sequences(sys, &her.cg.graph, &gd_roots));
    let (_, prewarm_s) = timed(run, || {
        let fresh = SharedScores::for_workers(WORKERS);
        fresh.prewarm_labels(&her.params, &her.cg.interner, &labels, WORKERS);
        fresh.prewarm_paths(&her.params, &her.cg.interner, &seqs, WORKERS);
        black_box(fresh.label_entries())
    });
    run.metrics.put("core.scores_prewarm_s", prewarm_s);
}

/// In-process cost of what a served VPair does under the permit, and
/// of the gate and pool it passes on the way.
pub fn request_path_probes(run: &mut Run<'_>, sys: &System) {
    let her = &sys.her;
    let div = run.plan.probe_divisor;
    let reads = sample(&sys.persons, 200 / div.min(10), run.plan.seed);
    let vpair_s = per_call_s(run, reads.len(), |i| {
        black_box(her.vpair(reads[i]));
    });
    run.metrics.put("core.vpair_us", vpair_s * 1e6);

    let pool = MatcherPool::new(her, 4);
    let checkout_s = per_call_s(run, 200_000 / div, |_| {
        let (m, _) = pool.checkout(Budget::default(), CancelToken::new(), ReqCtx::NONE);
        pool.checkin(black_box(m));
    });
    run.metrics.put("core.pool_checkout_ns", checkout_s * 1e9);
    admission_probe(run);
}

/// `Admission::acquire` + permit drop with nobody else at the gate.
pub fn admission_probe(run: &mut Run<'_>) {
    let gate = Admission::new(crate::system::CLIENTS, 64, None);
    let mut shed = 0u64;
    let acquire_s = per_call_s(run, 500_000 / run.plan.probe_divisor, |_| {
        match gate.acquire(None) {
            Admit::Permit(p) => drop(black_box(p)),
            Admit::Busy { .. } => shed += 1,
        }
    });
    run.check(shed == 0, || {
        format!("an uncontended gate shed {shed} acquisitions")
    });
    run.metrics.put("serve.admission_ns", acquire_s * 1e9);
}

/// Encode and decode cost of the workload's own requests and replies.
pub fn codec_probes(run: &mut Run<'_>, messages: &[(Request, Reply)]) {
    if messages.is_empty() {
        return;
    }
    let rounds = (200_000 / run.plan.probe_divisor / messages.len()).max(1);
    let n = messages.len();
    let req_bytes: Vec<Vec<u8>> = messages.iter().map(|(q, _)| q.encode()).collect();
    let rep_bytes: Vec<Vec<u8>> = messages.iter().map(|(_, r)| r.encode()).collect();
    let mut bad = 0u64;
    let enc_q = per_call_s(run, n * rounds, |i| {
        black_box(messages[i % n].0.encode());
    });
    let dec_q = per_call_s(run, n * rounds, |i| {
        bad += u64::from(Request::decode(black_box(&req_bytes[i % n])).is_err());
    });
    let enc_r = per_call_s(run, n * rounds, |i| {
        black_box(messages[i % n].1.encode());
    });
    let dec_r = per_call_s(run, n * rounds, |i| {
        bad += u64::from(Reply::decode(black_box(&rep_bytes[i % n])).is_err());
    });
    run.check(bad == 0, || {
        format!("{bad} of the workload's own messages failed to decode")
    });
    let m = &mut run.metrics;
    m.put("serve.req_encode_ns", enc_q * 1e9);
    m.put("serve.req_decode_ns", dec_q * 1e9);
    m.put("serve.reply_encode_ns", enc_r * 1e9);
    m.put("serve.reply_decode_ns", dec_r * 1e9);
}

/// `her-store` under the ingest workload: checksum, journal append and
/// sync (this sandbox's filesystem, not a device's), snapshot write,
/// journal replay; and the durable stream linker on top of them. A
/// storage error fails one output check.
pub fn store_probes(run: &mut Run<'_>, sys: &System, oracle: &IngestOracle, session_wal: &Path) {
    let dir = run.plan.work_dir.join("store-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("create {}: {e}", dir.display()))
        .and_then(|()| store_probes_in(run, sys, oracle, session_wal, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    run.check(outcome.is_ok(), || {
        format!("store probe: {}", outcome.err().unwrap_or_default())
    });
}

fn store_probes_in(
    run: &mut Run<'_>,
    sys: &System,
    oracle: &IngestOracle,
    session_wal: &Path,
    dir: &Path,
) -> Result<(), String> {
    let div = run.plan.probe_divisor;
    let block = vec![0xa5u8; 1 << 20];
    let crc_s = per_call_s(run, 64 / div.min(16), |_| {
        black_box(her_store::crc32::crc32(black_box(&block)));
    });
    run.metrics.put("store.crc32_mb_s", 1.0 / crc_s);

    // one op-sized payload per append, synced after each, as the
    // durable stream linker journals
    let payload = her_core::StreamOp::Process(oracle.order[0]).encode();
    let (mut wal, _) = WalWriter::open(dir.join("probe.wal"), None, |_| Ok(()))
        .map_err(|e| format!("open journal: {e}"))?;
    let (mut append_s, mut sync_s) = (0.0, 0.0);
    let ops = (400 / div.min(10)).max(1);
    let (journaled, _) = timed(run, || {
        for _ in 0..ops {
            let t0 = Instant::now();
            wal.append(&payload)?;
            let t1 = Instant::now();
            wal.sync()?;
            append_s += (t1 - t0).as_secs_f64();
            sync_s += t1.elapsed().as_secs_f64();
        }
        Ok::<(), her_store::StoreError>(())
    });
    journaled.map_err(|e| format!("journal: {e}"))?;
    run.metrics
        .put("store.wal_append_us", append_s * 1e6 / ops as f64);
    run.metrics
        .put("store.wal_sync_us", sync_s * 1e6 / ops as f64);

    // the journal one served session left behind
    let mut records = 0u64;
    let (replayed, replay_s) = timed(run, || {
        wal::replay(session_wal, |_| {
            records += 1;
            Ok(())
        })
    });
    replayed.map_err(|e| format!("replay session journal: {e}"))?;
    let bytes = std::fs::metadata(session_wal)
        .map_err(|e| format!("stat session journal: {e}"))?
        .len();
    run.metrics.put("store.wal_replay_ms", replay_s * 1e3);
    run.metrics.put(
        "store.wal_bytes_per_op",
        bytes as f64 / records.max(1) as f64,
    );

    // the in-memory linker's journaled twin over the same tuples, whose
    // final state is also the checkpoint a session snapshot holds
    let (mut linker, _) = DurableStreamLinker::open(&sys.her, dir.join("linker.wal"), None)
        .map_err(|e| format!("open durable linker: {e}"))?;
    let mut errors = 0u64;
    let durable_s = per_call_s(run, oracle.order.len(), |i| {
        errors += u64::from(linker.process(oracle.order[i]).is_err());
    });
    run.metrics.put("core.stream_durable_us", durable_s * 1e6);
    let section = linker.checkpoint().encode();
    let store = SnapshotStore::open(dir.join("snapshots"))
        .map_err(|e| format!("open snapshot store: {e}"))?;
    let write_s = per_call_s(run, 20 / div.min(10), |_| {
        errors += u64::from(store.write(&[("stream", &section)]).is_err());
    });
    run.metrics.put("store.snapshot_write_ms", write_s * 1e3);
    run.metrics
        .put("store.snapshot_bytes", section.len() as f64);
    if errors > 0 {
        return Err(format!("{errors} durable stream or snapshot writes failed"));
    }
    Ok(())
}
