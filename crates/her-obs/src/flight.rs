//! The flight recorder: a lock-free ring of per-request records.
//!
//! Every request the serving path answers (or sheds) deposits one
//! [`FlightRecord`] — op, queue wait, execution time, budget spend,
//! cache/shared-score hits, exhaust reason, fault injections observed —
//! into a fixed ring of [`FLIGHT_CAPACITY`] slots. Writers claim a slot
//! with one `fetch_add` and publish through a per-slot seqlock (odd
//! sequence = write in progress), so recording never blocks and readers
//! never observe a torn record: a reader that catches a slot mid-write
//! simply skips it.
//!
//! Each record is also classified against the [`anomaly`] triggers —
//! shed, deadline exhaustion, decode error, or execution latency above
//! a rolling p99 threshold derived from a per-op histogram. Anomalous
//! records are the serving layer's cue to dump the record (plus its
//! trace events) to durable storage; see `her-serve`'s flight-dump
//! module.

use crate::ctx::ReqCtx;
use crate::metrics::Histogram;
use crate::ENABLED;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ring capacity; the oldest records are overwritten beyond it.
pub const FLIGHT_CAPACITY: usize = 512;

/// Minimum per-op sample count before the rolling latency threshold
/// starts flagging slow requests (avoids flagging the warmup tail).
pub const SLOW_WARMUP: u64 = 64;

/// Request op classes recorded in [`FlightRecord::op`].
pub mod op {
    pub const OTHER: u8 = 0;
    pub const VPAIR: u8 = 1;
    pub const APAIR: u8 = 2;
    pub const STREAM: u8 = 3;
    /// Number of op classes (array sizing).
    pub const COUNT: usize = 4;

    pub fn name(tag: u8) -> &'static str {
        match tag {
            VPAIR => "vpair",
            APAIR => "apair",
            STREAM => "stream",
            _ => "other",
        }
    }
}

/// Anomaly trigger bits recorded in [`FlightRecord::anomaly`].
pub mod anomaly {
    /// Admission gate shed the request.
    pub const SHED: u8 = 1;
    /// The request's budget exhausted on its deadline.
    pub const DEADLINE: u8 = 1 << 1;
    /// The request payload failed to decode.
    pub const DECODE: u8 = 1 << 2;
    /// Execution latency above the rolling p99 threshold for its op.
    pub const SLOW: u8 = 1 << 3;
    /// The request hit a server in (or entering) degraded mode: a
    /// mutation rejected read-only, or the storage failure that caused
    /// the degradation.
    pub const DEGRADED: u8 = 1 << 4;

    /// Human-readable `|`-joined trigger list, `-` when none.
    pub fn describe(bits: u8) -> String {
        let mut parts = Vec::new();
        if bits & SHED != 0 {
            parts.push("shed");
        }
        if bits & DEADLINE != 0 {
            parts.push("deadline");
        }
        if bits & DECODE != 0 {
            parts.push("decode");
        }
        if bits & SLOW != 0 {
            parts.push("slow");
        }
        if bits & DEGRADED != 0 {
            parts.push("degraded");
        }
        if parts.is_empty() {
            "-".to_owned()
        } else {
            parts.join("|")
        }
    }
}

/// One per-request record. Plain-old-data: everything the post-mortem
/// needs to explain where a request's time and budget went.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightRecord {
    /// Request id (matches the trace ring's `trace_id`).
    pub trace_id: u64,
    /// Microseconds since the recorder's epoch.
    pub at_us: u64,
    /// Op class; see [`op`].
    pub op: u8,
    /// Time spent parked in the admission queue.
    pub queue_wait_us: u64,
    /// Time spent checking a warm matcher out of the pool (0 for ops
    /// that never touch the pool — stream mutations, sheds).
    pub pool_wait_us: u64,
    /// Time spent executing under the permit (0 for shed requests).
    pub exec_us: u64,
    /// ParaMatch calls spent (budget spend).
    pub calls: u64,
    /// Matcher cache hits (result + early-termination caches).
    pub cache_hits: u64,
    /// Shared-score memo hits attributed to this request.
    pub shared_hits: u64,
    /// Encoded `ExhaustReason` (+1; 0 = ran to completion).
    pub exhaust: u8,
    /// Connection fault injections observed while answering.
    pub faults_seen: u32,
    /// Anomaly trigger bits; see [`anomaly`].
    pub anomaly: u8,
}

// Slot word layout: packed = op | exhaust<<8 | anomaly<<16 | faults<<32.
const W_TRACE: usize = 0;
const W_AT: usize = 1;
const W_PACKED: usize = 2;
const W_QUEUE: usize = 3;
const W_EXEC: usize = 4;
const W_CALLS: usize = 5;
const W_CACHE: usize = 6;
const W_SHARED: usize = 7;
const W_POOL: usize = 8;
const WORDS: usize = 9;

fn pack(r: &FlightRecord) -> u64 {
    (r.op as u64) | ((r.exhaust as u64) << 8) | ((r.anomaly as u64) << 16) | ((r.faults_seen as u64) << 32)
}

fn unpack(words: &[u64; WORDS]) -> FlightRecord {
    let p = words[W_PACKED];
    FlightRecord {
        trace_id: words[W_TRACE],
        at_us: words[W_AT],
        op: (p & 0xff) as u8,
        exhaust: ((p >> 8) & 0xff) as u8,
        anomaly: ((p >> 16) & 0xff) as u8,
        faults_seen: (p >> 32) as u32,
        queue_wait_us: words[W_QUEUE],
        pool_wait_us: words[W_POOL],
        exec_us: words[W_EXEC],
        calls: words[W_CALLS],
        cache_hits: words[W_CACHE],
        shared_hits: words[W_SHARED],
    }
}

/// One seqlock-protected slot. `seq` is even when stable, odd while a
/// writer owns it; a successful publish bumps it by 2.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Lock-free ring of per-request [`FlightRecord`]s with rolling per-op
/// latency thresholds. Share it behind an `Arc`.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    epoch: Instant,
    /// Per-op exec-latency histograms backing the rolling p99.
    exec_hist: [Histogram; op::COUNT],
    records_total: AtomicU64,
    anomalies_total: AtomicU64,
    /// Writes abandoned because a lapping writer held the slot.
    contended: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("records_total", &self.records_total())
            .field("anomalies_total", &self.anomalies_total())
            .finish()
    }
}

impl FlightRecorder {
    pub fn new() -> Self {
        FlightRecorder {
            slots: (0..FLIGHT_CAPACITY).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
            exec_hist: std::array::from_fn(|_| Histogram::default()),
            records_total: AtomicU64::new(0),
            anomalies_total: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Microseconds since the recorder was created (for stamping
    /// `at_us` consistently with the records).
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Classifies `exec_us` for `op_tag` against the rolling p99
    /// threshold and feeds the rolling histogram. Returns true when the
    /// observation is anomalously slow (only after [`SLOW_WARMUP`]
    /// samples for that op).
    pub fn note_exec(&self, op_tag: u8, exec_us: u64) -> bool {
        if !ENABLED {
            return false;
        }
        let h = &self.exec_hist[(op_tag as usize).min(op::COUNT - 1)];
        let slow = h.count() >= SLOW_WARMUP && exec_us > h.quantile_bound(0.99);
        h.observe(exec_us);
        slow
    }

    /// Deposits `rec` (stamping `at_us` if zero). Never blocks: if a
    /// lapping writer still owns the claimed slot the record is dropped
    /// and counted in [`FlightRecorder::contended`].
    pub fn record(&self, mut rec: FlightRecord) {
        if !ENABLED {
            return;
        }
        if rec.at_us == 0 {
            rec.at_us = self.now_us();
        }
        self.records_total.fetch_add(1, Ordering::Relaxed);
        if rec.anomaly != 0 {
            self.anomalies_total.fetch_add(1, Ordering::Relaxed);
        }
        let idx = (self.head.fetch_add(1, Ordering::Relaxed) as usize) % FLIGHT_CAPACITY;
        let slot = &self.slots[idx];
        // Claim: even -> odd. A failed claim means another writer
        // lapped the whole ring while we held the index; dropping the
        // record is preferable to blocking the serving path.
        let mut seq = slot.seq.load(Ordering::Relaxed);
        loop {
            if seq & 1 == 1 {
                self.contended.fetch_add(1, Ordering::Relaxed);
                return;
            }
            match slot
                .seq
                .compare_exchange_weak(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => seq = cur,
            }
        }
        let words = [
            rec.trace_id,
            rec.at_us,
            pack(&rec),
            rec.queue_wait_us,
            rec.exec_us,
            rec.calls,
            rec.cache_hits,
            rec.shared_hits,
            rec.pool_wait_us,
        ];
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Snapshots the ring's stable records, oldest first. Slots caught
    /// mid-write are skipped rather than waited on.
    pub fn records(&self) -> Vec<FlightRecord> {
        let mut out = Vec::with_capacity(FLIGHT_CAPACITY);
        for slot in self.slots.iter() {
            for _ in 0..4 {
                let before = slot.seq.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    break; // never written, or write in progress
                }
                let mut words = [0u64; WORDS];
                for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                    *dst = src.load(Ordering::Relaxed);
                }
                if slot.seq.load(Ordering::Acquire) == before {
                    out.push(unpack(&words));
                    break;
                }
            }
        }
        out.sort_by_key(|r| (r.at_us, r.trace_id));
        out
    }

    /// The record for `trace_id`, if still in the ring.
    pub fn record_for(&self, trace_id: u64) -> Option<FlightRecord> {
        self.records().into_iter().find(|r| r.trace_id == trace_id)
    }

    pub fn records_total(&self) -> u64 {
        self.records_total.load(Ordering::Relaxed)
    }

    pub fn anomalies_total(&self) -> u64 {
        self.anomalies_total.load(Ordering::Relaxed)
    }

    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }
}

/// Convenience: a record skeleton for a request minted as `ctx`.
impl FlightRecord {
    pub fn for_ctx(ctx: ReqCtx, op_tag: u8) -> FlightRecord {
        FlightRecord {
            trace_id: ctx.trace_id,
            op: op_tag,
            ..FlightRecord::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, tag: u64) -> FlightRecord {
        FlightRecord {
            trace_id: id,
            at_us: 0,
            op: op::VPAIR,
            queue_wait_us: tag,
            pool_wait_us: tag,
            exec_us: tag,
            calls: tag,
            cache_hits: tag,
            shared_hits: tag,
            exhaust: 0,
            faults_seen: tag as u32,
            anomaly: 0,
        }
    }

    #[test]
    fn roundtrip_and_ordering() {
        let fr = FlightRecorder::new();
        for i in 1..=10u64 {
            fr.record(rec(i, i * 100));
        }
        if !ENABLED {
            assert!(fr.records().is_empty());
            return;
        }
        let records = fr.records();
        assert_eq!(records.len(), 10);
        assert!(records.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        let r5 = fr.record_for(5).expect("record 5 present");
        assert_eq!(r5.calls, 500);
        assert_eq!(r5.faults_seen, 500);
        assert_eq!(r5.op, op::VPAIR);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let fr = FlightRecorder::new();
        let total = FLIGHT_CAPACITY as u64 + 32;
        for i in 1..=total {
            fr.record(rec(i, i));
        }
        if !ENABLED {
            return;
        }
        let records = fr.records();
        assert_eq!(records.len(), FLIGHT_CAPACITY);
        let ids: Vec<u64> = records.iter().map(|r| r.trace_id).collect();
        assert!(ids.iter().all(|&id| id > 32), "oldest 32 overwritten: {ids:?}");
        assert_eq!(fr.records_total(), total);
    }

    /// Concurrent writers never produce a torn record: every field of a
    /// writer's records carries the same tag, so any mixed-tag record
    /// proves a seqlock failure. Included in the tsan CI job.
    #[test]
    fn concurrent_writers_never_tear() {
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 2000;
        let fr = std::sync::Arc::new(FlightRecorder::new());
        let mut threads: Vec<_> = (0..WRITERS)
            .map(|w| {
                let fr = std::sync::Arc::clone(&fr);
                std::thread::spawn(move || {
                    let tag = (w + 1) * 1000;
                    for i in 0..PER_WRITER {
                        fr.record(rec(w * PER_WRITER + i + 1, tag));
                    }
                })
            })
            .collect();
        // A concurrent reader hammers snapshots while writers run.
        {
            let fr = std::sync::Arc::clone(&fr);
            threads.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    for r in fr.records() {
                        assert!(
                            r.queue_wait_us == r.exec_us
                                && r.exec_us == r.calls
                                && r.calls == r.cache_hits
                                && r.cache_hits == r.shared_hits
                                && r.shared_hits == r.pool_wait_us
                                && r.pool_wait_us == r.faults_seen as u64,
                            "torn record: {r:?}"
                        );
                    }
                }
            }));
        }
        for th in threads {
            th.join().expect("thread panicked");
        }
        if ENABLED {
            assert_eq!(
                fr.records_total(),
                WRITERS * PER_WRITER,
                "every deposit counted"
            );
            // Abandoned (contended) writes leave the slot's previous
            // stable record intact, so the ring stays full.
            assert_eq!(fr.records().len(), FLIGHT_CAPACITY);
        }
    }

    #[test]
    fn rolling_threshold_flags_slow_outliers() {
        let fr = FlightRecorder::new();
        if !ENABLED {
            assert!(!fr.note_exec(op::VPAIR, 1_000_000));
            return;
        }
        for _ in 0..(SLOW_WARMUP * 2) {
            assert!(
                !fr.note_exec(op::VPAIR, 100),
                "uniform latency never anomalous"
            );
        }
        assert!(fr.note_exec(op::VPAIR, 1_000_000), "40x outlier flagged");
        // A different op has its own rolling state: no warmup yet.
        assert!(!fr.note_exec(op::APAIR, 1_000_000));
    }

    #[test]
    fn anomaly_bits_counted_and_described() {
        let fr = FlightRecorder::new();
        let mut r = rec(1, 1);
        r.anomaly = anomaly::SHED | anomaly::SLOW;
        fr.record(r);
        if ENABLED {
            assert_eq!(fr.anomalies_total(), 1);
            let got = fr.record_for(1).expect("present");
            assert_eq!(got.anomaly, anomaly::SHED | anomaly::SLOW);
        }
        assert_eq!(anomaly::describe(anomaly::SHED | anomaly::SLOW), "shed|slow");
        assert_eq!(anomaly::describe(0), "-");
        assert_eq!(
            anomaly::describe(anomaly::DEADLINE | anomaly::DECODE),
            "deadline|decode"
        );
    }
}
