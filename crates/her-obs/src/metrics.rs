//! Lock-free typed metrics: counters, gauges, fixed-bucket histograms,
//! and the [`Registry`] that names and snapshots them.
//!
//! The hot path (a `Counter::inc` inside ParaMatch's recursion, a
//! `Histogram::observe` per BSP superstep) is a single relaxed atomic
//! RMW — no locks, no allocation. The registry's mutex (a ranked
//! [`her_sync::Mutex`], like every lock in the workspace) is touched
//! only at handle-resolution time (once per matcher/worker
//! construction) and at snapshot time.
//!
//! With the `enabled` feature off every mutation compiles to a no-op
//! (the branch on [`crate::ENABLED`] is const-folded away), so an
//! uninstrumented build pays nothing beyond the unused fields.

use crate::ENABLED;
use her_sync::{rank, Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Recovers from a poisoned mutex: metrics must never propagate a
/// panic from an unrelated thread into the instrumented code path.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        if ENABLED {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        if ENABLED {
            self.0.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Buckets are cumulative-free (each counts its own range); bounds are
/// upper-inclusive: observation `v` lands in the first bucket with
/// `v <= bound`, or the overflow bucket past the last bound. The
/// default bounds are powers of two from 1 to ~1M — good enough for
/// call counts, list lengths, and microsecond timings alike.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// `1, 2, 4, …, 2^20` — 21 exponential bounds plus an overflow bucket.
fn default_bounds() -> Vec<u64> {
    (0..21).map(|i| 1u64 << i).collect()
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::with_bounds(default_bounds())
    }
}

impl Histogram {
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    pub fn observe(&self, v: u64) {
        if !ENABLED {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound of the smallest bucket whose cumulative count
    /// reaches quantile `q` (0.0–1.0) — a bucketed approximation of
    /// the q-th percentile, 0 when empty. Observations past the last
    /// bound report the recorded max.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return match self.bounds.get(i) {
                    Some(&bound) => bound,
                    None => self.max(), // overflow bucket
                };
            }
        }
        self.max()
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucketed q-th percentile bound; see [`Histogram::quantile_bound`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return match self.bounds.get(i) {
                    Some(&bound) => bound,
                    None => self.max,
                };
            }
        }
        self.max
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Names and owns all instruments. Cloning the `Arc<Registry>` held in
/// [`crate::Obs`] shares the underlying atomics, so parallel workers
/// built from the same `Obs` aggregate into one set of counters.
pub struct Registry {
    instruments: Mutex<Instruments>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            instruments: Mutex::new(rank::OBS_REGISTRY, Instruments::default()),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let i = lock(&self.instruments);
        f.debug_struct("Registry")
            .field("counters", &i.counters.len())
            .field("gauges", &i.gauges.len())
            .field("histograms", &i.histograms.len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut i = lock(&self.instruments);
        if let Some(c) = i.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        i.counters.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut i = lock(&self.instruments);
        if let Some(g) = i.gauges.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        i.gauges.insert(name.to_owned(), Arc::clone(&g));
        g
    }

    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut i = lock(&self.instruments);
        if let Some(h) = i.histograms.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        i.histograms.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Like [`Registry::histogram`] but with explicit bucket bounds;
    /// bounds are fixed by whichever call registers the name first.
    pub fn histogram_with(&self, name: &str, bounds: Vec<u64>) -> Arc<Histogram> {
        let mut i = lock(&self.instruments);
        if let Some(h) = i.histograms.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::with_bounds(bounds));
        i.histograms.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Consistent point-in-time copy of every registered instrument.
    ///
    /// "Consistent" here means each individual value is an atomic read;
    /// concurrent writers may land between reads of different
    /// instruments, but every counter is monotone so a snapshot is
    /// always a valid lower bound of the state at return time.
    pub fn snapshot(&self) -> Snapshot {
        let i = lock(&self.instruments);
        Snapshot {
            counters: i.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: i.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: i
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Detached point-in-time copy of a [`Registry`]'s instruments.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms.get(name)
    }

    /// Serializes the snapshot as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,mean,bounds,buckets}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut root = crate::json::Obj::begin(&mut out);

        let mut counters = String::new();
        {
            let mut o = crate::json::Obj::begin(&mut counters);
            for (k, v) in &self.counters {
                o.field_u64(k, *v);
            }
            o.end();
        }
        root.field_raw("counters", &counters);

        let mut gauges = String::new();
        {
            let mut o = crate::json::Obj::begin(&mut gauges);
            for (k, v) in &self.gauges {
                o.field_f64(k, *v);
            }
            o.end();
        }
        root.field_raw("gauges", &gauges);

        let mut hists = String::new();
        {
            let mut o = crate::json::Obj::begin(&mut hists);
            for (k, h) in &self.histograms {
                let mut one = String::new();
                {
                    let mut ho = crate::json::Obj::begin(&mut one);
                    ho.field_u64("count", h.count)
                        .field_u64("sum", h.sum)
                        .field_u64("max", h.max)
                        .field_f64("mean", h.mean());
                    let mut bounds = String::new();
                    {
                        let mut a = crate::json::Arr::begin(&mut bounds);
                        for b in &h.bounds {
                            a.push_u64(*b);
                        }
                        a.end();
                    }
                    ho.field_raw("bounds", &bounds);
                    let mut buckets = String::new();
                    {
                        let mut a = crate::json::Arr::begin(&mut buckets);
                        for b in &h.buckets {
                            a.push_u64(*b);
                        }
                        a.end();
                    }
                    ho.field_raw("buckets", &buckets);
                    ho.end();
                }
                o.field_raw(k, &one);
            }
            o.end();
        }
        root.field_raw("histograms", &hists);
        root.end();
        out
    }

    /// Version tag emitted as the exposition format's first line.
    pub const EXPO_VERSION: &'static str = "# her-expo/v1";

    /// Renders the stable text exposition format:
    ///
    /// ```text
    /// # her-expo/v1
    /// counter <name> <u64>
    /// gauge <name> <f64>
    /// hist <name> count=<u64> sum=<u64> max=<u64> p50=<u64> p99=<u64>
    /// ```
    ///
    /// Lines are grouped counter/gauge/hist in that order and sorted by
    /// name within each group (the snapshot's `BTreeMap`s guarantee
    /// it), so two expositions of the same state are byte-identical —
    /// diffs and scrapers both get a deterministic view. The grammar is
    /// specified in DESIGN.md §4i and checked line by line by this
    /// module's `text_exposition_follows_its_grammar` test.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(Self::EXPO_VERSION);
        out.push('\n');
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge {k} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "hist {k} count={} sum={} max={} p50={} p99={}\n",
                h.count,
                h.sum,
                h.max,
                h.quantile(0.5),
                h.quantile(0.99),
            ));
        }
        out
    }

    /// Renders a plain-text summary table (non-zero instruments only),
    /// for the CLI's exit-time report.
    pub fn summary_table(&self) -> String {
        let mut rows: Vec<(String, String)> = Vec::new();
        for (k, v) in &self.counters {
            if *v != 0 {
                rows.push((k.clone(), v.to_string()));
            }
        }
        for (k, v) in &self.gauges {
            if *v != 0.0 {
                rows.push((k.clone(), format!("{v:.4}")));
            }
        }
        for (k, h) in &self.histograms {
            if h.count != 0 {
                rows.push((
                    k.clone(),
                    format!("n={} mean={:.1} max={}", h.count, h.mean(), h.max),
                ));
            }
        }
        if rows.is_empty() {
            return "  (no metrics recorded)\n".to_owned();
        }
        let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (k, v) in rows {
            out.push_str(&format!("  {k:<width$}  {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        let g = r.gauge("rate");
        g.set(0.75);
        let s = r.snapshot();
        if ENABLED {
            assert_eq!(s.counter("a.b"), 5);
            assert!((s.gauge("rate") - 0.75).abs() < 1e-12);
        } else {
            assert_eq!(s.counter("a.b"), 0);
            assert_eq!(s.gauge("rate"), 0.0);
        }
        // Same name resolves to the same instrument.
        r.counter("a.b").inc();
        assert_eq!(r.snapshot().counter("a.b"), if ENABLED { 6 } else { 0 });
    }

    #[test]
    fn histogram_buckets() {
        let h = Histogram::with_bounds(vec![1, 10, 100]);
        h.observe(0);
        h.observe(1);
        h.observe(5);
        h.observe(1000);
        if ENABLED {
            assert_eq!(h.count(), 4);
            assert_eq!(h.sum(), 1006);
            assert_eq!(h.max(), 1000);
            let s = h.snapshot();
            assert_eq!(s.buckets, vec![2, 1, 0, 1]);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Registry::new();
        r.counter("x").inc();
        r.gauge("y").set(1.5);
        r.histogram("z").observe(3);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"x\""));
    }

    #[test]
    fn quantile_bounds_from_buckets() {
        let h = Histogram::with_bounds(vec![1, 10, 100]);
        if !ENABLED {
            assert_eq!(h.quantile_bound(0.99), 0);
            return;
        }
        for _ in 0..98 {
            h.observe(5);
        }
        h.observe(50);
        h.observe(5000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_bound(0.5), 10);
        assert_eq!(h.quantile_bound(0.98), 10);
        assert_eq!(h.quantile_bound(0.99), 100);
        // Past the last bound: report the observed max.
        assert_eq!(h.quantile_bound(1.0), 5000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 10);
        assert_eq!(s.quantile(0.99), 100);
        assert_eq!(s.quantile(1.0), 5000);
        assert_eq!(HistSnapshot::default_like().quantile(0.5), 0);
    }

    impl HistSnapshot {
        fn default_like() -> HistSnapshot {
            HistSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                bounds: vec![1],
                buckets: vec![0, 0],
            }
        }
    }

    #[test]
    fn text_exposition_is_stable_and_sorted() {
        let r = Registry::new();
        r.counter("serve.requests").add(3);
        r.counter("flight.records").add(1);
        r.gauge("serve.queue_depth").set(12.5);
        let h = r.histogram("serve.req.exec_us");
        h.observe(7);
        h.observe(900);
        let text = r.snapshot().to_text();
        let again = r.snapshot().to_text();
        assert_eq!(text, again, "exposition must be deterministic");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], Snapshot::EXPO_VERSION);
        if ENABLED {
            assert_eq!(lines[1], "counter flight.records 1");
            assert_eq!(lines[2], "counter serve.requests 3");
            assert_eq!(lines[3], "gauge serve.queue_depth 12.5");
            assert!(lines[4].starts_with("hist serve.req.exec_us count=2 sum=907 max=900 p50="));
        }
    }

    /// The her-expo/v1 grammar (DESIGN.md §4i), line by line: the
    /// version header, then the counter, gauge and hist sections in that
    /// order, names sorted within each, every line of its kind's shape.
    /// Built from a hand-made snapshot so it runs with instrumentation
    /// compiled out too.
    #[test]
    fn text_exposition_follows_its_grammar() {
        let mut s = Snapshot::default();
        for (k, v) in [("serve.requests", 3), ("a.b_2", 0), ("flight.records", 1)] {
            s.counters.insert(k.to_owned(), v);
        }
        for (k, v) in [("serve.queue_depth", 12.5), ("b.neg", -0.25), ("c.whole", 4.0)] {
            s.gauges.insert(k.to_owned(), v);
        }
        for k in ["serve.req.exec_us", "a.empty"] {
            s.histograms.insert(
                k.to_owned(),
                HistSnapshot {
                    count: 2,
                    sum: 907,
                    max: 900,
                    bounds: vec![1, 10, 100],
                    buckets: vec![0, 1, 0, 1],
                },
            );
        }
        let text = s.to_text();
        assert_eq!(text, s.to_text(), "exposition must be deterministic");
        assert!(text.contains("\ncounter a.b_2 0\n"), "{text}");
        assert!(text.contains("\ncounter flight.records 1\n"), "{text}");
        assert!(text.contains("\ncounter serve.requests 3\n"), "{text}");
        assert!(text.contains("\ngauge b.neg -0.25\n"), "{text}");
        assert!(text.contains("\nhist a.empty count=2 sum=907 max=900 p50=10 p99=900\n"));

        let digits = |f: &str| !f.is_empty() && f.bytes().all(|b| b.is_ascii_digit());
        let decimal = |f: &str| {
            let f = f.strip_prefix('-').unwrap_or(f);
            match f.split_once('.') {
                Some((int, frac)) => digits(int) && digits(frac),
                None => digits(f),
            }
        };
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(Snapshot::EXPO_VERSION));
        let mut last: Option<(usize, &str)> = None;
        let mut n = 0;
        for line in lines {
            let fields: Vec<&str> = line.split(' ').collect();
            let section = ["counter", "gauge", "hist"].iter().position(|k| *k == fields[0]);
            let Some(section) = section else {
                panic!("unknown line kind: {line}");
            };
            let name = fields.get(1).copied().unwrap_or_default();
            assert!(
                name.starts_with(|c: char| c.is_ascii_lowercase())
                    && name.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.'
                    }),
                "bad metric name: {line}"
            );
            let values = &fields[2..];
            let shaped = match section {
                0 => values.len() == 1 && digits(values[0]),
                1 => values.len() == 1 && decimal(values[0]),
                _ => {
                    let keys = ["count=", "sum=", "max=", "p50=", "p99="];
                    values.len() == keys.len()
                        && values.iter().zip(keys).all(|(v, k)| {
                            v.strip_prefix(k).is_some_and(digits)
                        })
                }
            };
            assert!(shaped, "line fails its {} grammar: {line}", fields[0]);
            // Section rank first, then name: one comparison checks both
            // the section order and the sorting within a section.
            if let Some(prev) = last {
                assert!(prev < (section, name), "{line} out of order after {prev:?}");
            }
            last = Some((section, name));
            n += 1;
        }
        assert_eq!(n, 8, "one line per instrument");
    }

    #[test]
    fn shared_across_threads() {
        let r = Arc::new(Registry::new());
        let c = r.counter("t");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        assert_eq!(c.get(), if ENABLED { 4000 } else { 0 });
    }
}
