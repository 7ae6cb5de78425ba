//! Central metric preregistration list.
//!
//! Every counter, gauge and histogram name the workspace uses must
//! appear here, and everything here must be used — both directions are
//! checked by the root test `tests/source_rules.rs`. Dashboards and
//! `her-cli obs` can therefore enumerate the full telemetry surface
//! without running every engine.
//!
//! Names are `family.metric` (dots, snake_case). Dynamic families —
//! names built with `format!` at runtime — are NOT listed (that test's
//! exception table names the family instead), except where a family has
//! a small closed set of members (e.g. `fault.*`), whose literals reach
//! the registry through a forwarding helper.

/// Every preregistered metric name, sorted.
pub const ALL: &[&str] = &[
    // apair: batch AllParaMatch entry point
    "apair.candidates",
    "apair.runs",
    // bsp: superstep engine
    "bsp.recoveries",
    "bsp.superstep.busy_us",
    "bsp.superstep.messages",
    "bsp.superstep.skew_us",
    "bsp.supersteps",
    "bsp.worker_deaths",
    // fault: injected-fault accounting, forwarded through fault_count()
    "fault.delayed",
    "fault.dropped",
    "fault.duplicated",
    // flight: the per-request flight recorder
    "flight.anomalies",
    "flight.dump_failures",
    "flight.dumps",
    "flight.records",
    // parallel: run-level accounting of a pallmatch run
    "parallel.invalidations",
    "parallel.requests",
    "parallel.runs",
    "parallel.simulated_secs",
    "parallel.workers",
    // paramatch: the sequential matcher hot loop
    "paramatch.cache_entries",
    "paramatch.cache_hit_rate",
    "paramatch.cache_hits",
    "paramatch.calls",
    "paramatch.candidate_list_len",
    "paramatch.cleanups",
    "paramatch.early_terminations",
    "paramatch.ecache_hits",
    "paramatch.exhausted",
    "paramatch.lineage_size",
    // scores: the shared embedding/score memo
    "scores.embed_calls",
    // scores.pool: the warm-matcher checkout pool
    "scores.pool.hits",
    "scores.pool.misses",
    "scores.pool.rebuilds",
    "scores.shared_hits",
    // serve: the always-on linking service
    "serve.connections",
    "serve.deadline_misses",
    "serve.faults_injected",
    // serve.health: the storage-driven health state machine
    "serve.health.degraded",
    "serve.health.heal_ms",
    "serve.health.heals",
    "serve.health.probe_failures",
    "serve.health.probes",
    "serve.health.reaped",
    "serve.health.rejected",
    "serve.health.state",
    "serve.health.transitions",
    "serve.inflight",
    "serve.queue_depth",
    "serve.req.exec_us",
    "serve.req.minted",
    "serve.req.queue_wait_us",
    "serve.req.sampled",
    "serve.request_us",
    "serve.requests",
    "serve.restart_replay_us",
    // serve.session: the multi-session stream registry
    "serve.session.active",
    "serve.session.opened",
    "serve.shed",
    "serve.stream_ops",
    // store: snapshots, WAL, checkpoints
    "store.checkpoint_failures",
    "store.corrupt_snapshots_skipped",
    // store.iofault: injected-fault accounting from FaultVfs + the
    // serve-side WAL retry counter
    "store.iofault.delays",
    "store.iofault.fsync_failures",
    "store.iofault.read_failures",
    "store.iofault.retries",
    "store.iofault.write_failures",
    "store.snapshot.bytes",
    "store.snapshot.write_us",
    "store.snapshots_loaded",
    "store.snapshots_written",
    "store.wal_bytes",
    "store.wal_records_appended",
    "store.wal_records_replayed",
    "store.wal_torn_tails_truncated",
    // stream: incremental linking sessions
    "stream.retractions",
    "stream.tuples",
    // vpair: single-tuple linking entry point
    "vpair.candidates",
    "vpair.runs",
];

/// True when `name` is preregistered.
pub fn is_registered(name: &str) -> bool {
    ALL.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_distinct() {
        assert!(ALL.windows(2).all(|w| w[0] < w[1]), "ALL must be sorted, no dups");
    }

    #[test]
    fn lookup_agrees_with_list() {
        assert!(is_registered("scores.shared_hits"));
        assert!(is_registered("fault.dropped"));
        assert!(!is_registered("scores.typo_metric"));
    }
}
