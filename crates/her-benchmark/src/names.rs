//! The benchmark's fixed vocabulary: workload names, metric names with
//! unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root is [`manifest_json`] verbatim (a unit test holds them equal), so
//! the names the binary prints and the names the driver expects cannot
//! drift apart.

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u32 = 33;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric of either list. `bound` is set for end-to-end metrics only.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

pub const BATCH_SEQ: &str = "batch-seq";
pub const BATCH_BSP: &str = "batch-bsp";
pub const SERVE_READ: &str = "serve-read";
pub const SERVE_INGEST: &str = "serve-ingest";

/// The workloads `BENCHMARK.json` lists, which the driver runs and holds
/// to the bounds: name and the one-line reason it exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        BATCH_SEQ,
        "her-core + her-embed do all the work in one thread: no socket, disk or BSP, so a kernel, candidate-list or h_r gain must show here",
    ),
    (
        BATCH_BSP,
        "the same all-pairs matching through her-parallel with 2 real worker threads: a BSP gain moves only this one, a her-core gain moves both batch workloads",
    ),
    (
        SERVE_READ,
        "adds her-serve (codec, admission, matcher pool) over her-core: hot keys hit warm pooled caches, cold keys pay full exec; no writes, her-store idle",
    ),
];

/// Workloads the binary runs (by hand and in `--check`) but
/// `BENCHMARK.json` does not list. `serve-ingest` waits on the sandbox's
/// disk and on a processor that is woken for every request, and on a
/// shared host its throughput spread 15 to 50 % between runs of the same
/// code, past any bound the driver allows; see README.md, *Spread*.
pub const UNLISTED: [(&str, &str); 1] = [(
    SERVE_INGEST,
    "durable stream writes beside concurrent reads on a graph small enough that the WAL fsync and snapshots of her-store are the larger part of a write",
)];

/// Metrics of the untraced run; every workload reports every one.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("f_measure", "ratio", Better::Higher, 0.10),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
];

/// Metrics of the traced run. A workload that does not exercise a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: [MetricDef; 60] = [
    // User-visible metrics that cannot carry a bound on every workload
    // live here under their end-to-end names: only some workloads have
    // reads, and the peak resident set of the threaded workloads does
    // not repeat within any allowed bound.
    lo("peak_rss_mb", "MB"),
    lo("read_p50_us", "us"),
    lo("read_p99_us", "us"),
    lo("datagen.generate_s", "s"),
    lo("rdb.canonicalize_s", "s"),
    lo("graph.g_vertices", "count"),
    lo("graph.gd_vertices", "count"),
    lo("embed.cosine_ns", "ns"),
    lo("embed.sentence_embed_us", "us"),
    lo("embed.path_score_us", "us"),
    lo("embed.topk_select_us", "us"),
    lo("core.build_s", "s"),
    lo("core.learn_s", "s"),
    lo("core.index_build_s", "s"),
    lo("core.index_candidates_us", "us"),
    lo("core.candidates_per_tuple", "count"),
    lo("core.spair_warm_ns", "ns"),
    lo("core.spair_cold_us", "us"),
    lo("core.vpair_us", "us"),
    lo("core.apair_s", "s"),
    lo("core.paramatch_calls", "count"),
    hi("core.cache_hits", "count"),
    hi("core.ecache_hits", "count"),
    hi("core.early_terminations", "count"),
    lo("core.cleanups", "count"),
    hi("core.cache_hit_ratio", "ratio"),
    lo("core.scores_embed_calls", "count"),
    hi("core.scores_shared_hits", "count"),
    lo("core.scores_prewarm_s", "s"),
    lo("core.pool_checkout_ns", "ns"),
    hi("core.pool_hit_ratio", "ratio"),
    lo("parallel.partition_s", "s"),
    lo("parallel.selection_s", "s"),
    lo("parallel.candidates_s", "s"),
    lo("parallel.bsp_s", "s"),
    lo("parallel.residual_s", "s"),
    lo("parallel.wall_s", "s"),
    lo("parallel.critical_path_s", "s"),
    lo("parallel.supersteps", "count"),
    lo("parallel.requests", "count"),
    lo("parallel.invalidations", "count"),
    hi("parallel.speedup", "ratio"),
    lo("serve.req_encode_ns", "ns"),
    lo("serve.req_decode_ns", "ns"),
    lo("serve.reply_encode_ns", "ns"),
    lo("serve.reply_decode_ns", "ns"),
    lo("serve.admission_ns", "ns"),
    lo("serve.ping_rtt_us", "us"),
    lo("serve.client_mean_us", "us"),
    lo("serve.queue_wait_mean_us", "us"),
    lo("serve.pool_wait_mean_us", "us"),
    lo("serve.exec_mean_us", "us"),
    lo("serve.residual_mean_us", "us"),
    lo("serve.flight_records", "count"),
    lo("serve.shed", "count"),
    hi("obs.untraced_ops_per_s", "1/s"),
    hi("obs.traced_ops_per_s", "1/s"),
    lo("obs.tracing_overhead_frac", "ratio"),
    lo("obs.spans_recorded", "count"),
    hi("obs.repetitions", "count"),
];

/// Metrics only `serve-ingest` measures (writes, restarts, `her-store`).
/// Its traced run prints them after [`PER_LAYER`]; they are absent from
/// `BENCHMARK.json` with the workload, where they would read 0 on every
/// run the driver makes.
pub const INGEST_LAYER: [MetricDef; 13] = [
    lo("write_p50_us", "us"),
    lo("write_p99_us", "us"),
    lo("restart_s", "s"),
    lo("core.stream_process_us", "us"),
    lo("core.stream_durable_us", "us"),
    hi("store.crc32_mb_s", "MB/s"),
    lo("store.wal_append_us", "us"),
    lo("store.wal_sync_us", "us"),
    lo("store.wal_bytes_per_op", "bytes"),
    lo("store.snapshot_write_ms", "ms"),
    lo("store.snapshot_bytes", "bytes"),
    lo("store.wal_replay_ms", "ms"),
    lo("serve.restart_replay_ms", "ms"),
];

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"-p\", \"her-benchmark\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/her-benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better_str(m.better),
            m.bound.unwrap_or(0.0)
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            better_str(m.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_names_table() {
        // `assert!`, not `assert_eq!`: a mismatch should not print both files.
        assert!(
            include_str!("../../../BENCHMARK.json") == manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `cargo run -p her-benchmark -- --manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let ok_name = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for &(name, why) in WORKLOADS.iter().chain(&UNLISTED) {
            assert!(ok_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER).chain(&INGEST_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{}: unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128 && manifest_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
