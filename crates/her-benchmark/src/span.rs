//! The benchmark's own span buffer. Every call into a layer made by a
//! traced repetition (and every set-up step and layer probe) is wrapped
//! in a span: name, start, end, parent, and one trace id per request or
//! repetition. Spans stay in memory until the run ends; self time is a
//! span's duration minus the part of it its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` 0 means a root span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A single-threaded span log. Client threads [`SpanLog::fork`] their
/// own lane (disjoint id range, same epoch) and the owner
/// [`SpanLog::absorb`]s them after the join, so no lock is needed.
pub struct SpanLog {
    epoch: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            base: 0,
            spans: Vec::new(),
        }
    }

    /// An empty log on the same clock whose ids cannot collide with any
    /// other lane's (`lane` ≥ 1, distinct per fork).
    pub fn fork(&self, lane: u64) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            base: lane << 32,
            spans: Vec::new(),
        }
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (use it as `parent` of children).
    pub fn enter(&mut self, name: &'static str, parent: u64, trace: u64) -> u64 {
        let id = self.base + self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    /// Closes a span opened on this log; returns its duration in seconds.
    pub fn exit(&mut self, id: u64) -> f64 {
        let now = self.now_ns();
        let idx = (id - self.base - 1) as usize;
        match self.spans.get_mut(idx) {
            Some(s) => {
                s.end_ns = now;
                (s.end_ns - s.start_ns) as f64 / 1e9
            }
            None => 0.0,
        }
    }

    /// Runs `f` inside a span; returns its result and the span's seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.enter(name, parent, trace);
        let out = f();
        (out, self.exit(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time in seconds summed per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e9;
        }
        out
    }

    /// The whole log as a JSON array, one object per span with its self time.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        let selfs = self_times_ns(&self.spans);
        for (i, (sp, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            s.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{comma}\n",
                sp.id, sp.parent, sp.trace, sp.name, sp.start_ns, sp.end_ns, self_ns
            ));
        }
        s.push_str("]\n");
        s
    }
}

/// Self time of each span, in input order: duration minus the union of
/// its children's intervals clipped to the span (children of concurrent
/// clients overlap, so durations cannot simply be summed).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let Some(kids) = children.get_mut(&s.id) else {
                return total;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(edge);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            total.saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 90)];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // two concurrent clients under one repetition span
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 80)];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // a child that outlives its parent is clipped to it
        let spans = [span(1, 0, 0, 100), span(2, 1, 90, 150)];
        assert_eq!(self_times_ns(&spans)[0], 90);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            span(1, 0, 0, 1000),
            span(2, 1, 100, 400),
            span(3, 2, 150, 250),
            span(4, 1, 500, 900),
        ];
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn forked_lanes_keep_ids_apart_and_share_the_clock() {
        let mut log = SpanLog::new();
        let root = log.enter("rep", 0, 7);
        let mut lane = log.fork(1);
        let child = lane.enter("req", root, 7);
        lane.exit(child);
        log.exit(root);
        log.absorb(lane);
        assert_eq!(log.len(), 2);
        assert_ne!(root, child);
        let by_name = log.self_seconds_by_name();
        assert!(by_name["rep"] >= 0.0 && by_name["req"] >= 0.0);
        assert!(log.to_json().contains("\"name\":\"req\""));
    }
}
