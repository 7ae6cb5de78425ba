//! What every workload shares: the state of one run, the warm-up plus
//! scored repetition loop, and the metrics derived from repetitions.

use crate::report::Metrics;
use crate::span::SpanLog;
use crate::stats::{median, upper_rate, Latencies};
use crate::system::Plan;
use std::time::Instant;

/// State of one run of one workload.
pub struct Run<'p> {
    pub plan: &'p Plan,
    pub spans: SpanLog,
    pub metrics: Metrics,
    /// Operations attempted in scored repetitions and output checks.
    pub attempted: u64,
    /// Operations refused, shed, errored or answered wrongly.
    pub failed: u64,
    pub complaints: Vec<String>,
}

impl<'p> Run<'p> {
    pub fn new(plan: &'p Plan) -> Self {
        Run {
            plan,
            spans: SpanLog::new(),
            metrics: Metrics::default(),
            attempted: 0,
            failed: 0,
            complaints: Vec::new(),
        }
    }

    /// Counts `n` failed operations; the first few reasons are kept.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.complaints.len() < 20 {
            self.complaints.push(why());
        }
    }

    /// Seconds `f` takes: inside a span when `traced`, by the clock alone
    /// otherwise, so an untraced repetition records nothing.
    pub fn timed<R>(
        &mut self,
        traced: bool,
        name: &'static str,
        parent: u64,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        if traced {
            return self.spans.time(name, parent, trace, f);
        }
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }

    /// One output check: counts as one attempted operation.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        self.fail(u64::from(!ok), why);
    }
}

/// Results of the repetitions of one run.
pub struct Reps<T> {
    /// The unscored first repetition (caches fill, lazy set-up finishes).
    pub warm_up: T,
    pub untraced: Vec<T>,
    /// Empty in an untraced run.
    pub traced: Vec<T>,
}

/// Runs `rep(index, traced)`: one unscored warm-up, then scored
/// repetitions for `plan.seconds` (at least one). A traced run alternates
/// untraced and traced repetitions in the same process on the same
/// inputs, so their throughput ratio is the tracing overhead and not a
/// difference between two processes.
pub fn repetitions<T>(plan: &Plan, mut rep: impl FnMut(usize, bool) -> T) -> Reps<T> {
    let warm_up = rep(0, false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut index = 1;
    loop {
        untraced.push(rep(index, false));
        index += 1;
        if plan.traced {
            traced.push(rep(index, true));
            index += 1;
        }
        // Stop once half of another round of the mean length seen so far
        // would no longer fit: the scored time is `plan.seconds` to within
        // half a repetition, however slow the host makes a repetition.
        let elapsed = started.elapsed().as_secs_f64();
        let rounds = untraced.len() as f64;
        if elapsed + 0.5 * elapsed / rounds >= plan.seconds {
            return Reps {
                warm_up,
                untraced,
                traced,
            };
        }
    }
}

/// Throughput metrics from per-repetition rates (ops per second of
/// measured region): their [`upper_rate`], and in a traced run the
/// overhead of tracing relative to the untraced repetitions.
pub fn put_throughput(run: &mut Run<'_>, untraced: &[f64], traced: &[f64]) {
    let base = upper_rate(untraced);
    println!(
        "ops/s of the untraced scored repetitions {untraced:.1?}: median {:.1}, reported {base:.1}",
        median(untraced)
    );
    if run.plan.traced {
        let with = upper_rate(traced);
        run.metrics.put("obs.untraced_ops_per_s", base);
        run.metrics.put("obs.traced_ops_per_s", with);
        run.metrics.put(
            "obs.tracing_overhead_frac",
            if base > 0.0 { 1.0 - with / base } else { 0.0 },
        );
        run.metrics
            .put("obs.repetitions", (untraced.len() + traced.len()) as f64);
    } else {
        run.metrics.put("ops_per_s", base);
    }
}

/// Client-visible latency percentiles, pooled over the untraced scored
/// repetitions. Reported by the traced run only (see `names.rs`).
pub fn put_latencies(run: &mut Run<'_>, reads: &Latencies, writes: &Latencies) {
    if !run.plan.traced {
        return;
    }
    if !reads.0.is_empty() {
        let (p50, p99) = reads.p50_p99_us();
        run.metrics.put("read_p50_us", p50);
        run.metrics.put("read_p99_us", p99);
    }
    if !writes.0.is_empty() {
        let (p50, p99) = writes.p50_p99_us();
        run.metrics.put("write_p50_us", p50);
        run.metrics.put("write_p99_us", p99);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn check_plan_runs_one_scored_repetition_or_one_pair() {
        let plan = Plan::check(1, false, PathBuf::new());
        let reps = repetitions(&plan, |i, traced| (i, traced));
        assert_eq!(reps.warm_up, (0, false));
        assert_eq!(reps.untraced, vec![(1, false)]);
        assert!(reps.traced.is_empty());
        let plan = Plan::check(1, true, PathBuf::new());
        let reps = repetitions(&plan, |i, traced| (i, traced));
        assert_eq!(reps.untraced, vec![(1, false)]);
        assert_eq!(reps.traced, vec![(2, true)]);
    }

    #[test]
    fn tracing_overhead_is_relative_to_the_untraced_rate() {
        let plan = Plan::check(1, true, PathBuf::new());
        let mut run = Run::new(&plan);
        put_throughput(&mut run, &[110.0; 3], &[99.0; 3]);
        assert_eq!(run.metrics.get("obs.untraced_ops_per_s"), Some(110.0));
        assert_eq!(run.metrics.get("obs.traced_ops_per_s"), Some(99.0));
        let frac = run.metrics.get("obs.tracing_overhead_frac").expect("set");
        assert!((frac - 0.1).abs() < 1e-12);
        assert_eq!(
            run.metrics.get("ops_per_s"),
            None,
            "end-to-end only from untraced runs"
        );
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let plan = Plan::check(1, false, PathBuf::new());
        let mut run = Run::new(&plan);
        run.check(true, || unreachable!());
        run.check(false, || "wrong answer".into());
        assert_eq!((run.attempted, run.failed), (2, 1));
        assert_eq!(run.complaints, vec!["wrong answer".to_owned()]);
    }
}
