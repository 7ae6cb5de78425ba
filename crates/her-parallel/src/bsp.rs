//! A minimal Bulk Synchronous Parallel runner (Valiant's model, §VI-B).
//!
//! Computation proceeds in *supersteps*: every worker processes its inbox
//! and produces addressed outbound messages; a barrier routes all messages;
//! the run terminates at the fixpoint where no worker emits anything.
//! Workers execute on scoped OS threads — shared-nothing in the sense that
//! they communicate only through messages, while immutable inputs (graphs,
//! models) are shared read-only, the shared-memory analogue of GRAPE's
//! setup.

/// A BSP worker: consumes an inbox, emits `(destination, message)` pairs.
pub trait Worker: Send {
    /// Message type exchanged at superstep barriers.
    type Msg: Send;

    /// Executes one superstep. The first superstep receives an empty inbox.
    fn superstep(&mut self, inbox: Vec<Self::Msg>) -> Vec<(usize, Self::Msg)>;
}

/// Timing of one superstep: how busy the workers were and how skewed
/// the barrier was (slowest minus fastest — time the fast workers spent
/// waiting), plus the message volume routed at its barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SuperstepStat {
    /// Busy time of the slowest participating worker.
    pub busy_max_secs: f64,
    /// Busy time of the fastest participating worker.
    pub busy_min_secs: f64,
    /// Summed busy time across participating workers.
    pub busy_total_secs: f64,
    /// Live workers that executed this superstep.
    pub workers: usize,
    /// Messages routed at this superstep's barrier.
    pub messages: usize,
}

impl SuperstepStat {
    /// Barrier skew: time the fastest worker waited for the slowest.
    pub fn skew_secs(&self) -> f64 {
        (self.busy_max_secs - self.busy_min_secs).max(0.0)
    }
}

/// Timing of a BSP run, used to *simulate* a multi-machine cluster on a
/// single host: under BSP, wall-clock per superstep is the slowest worker
/// (all others wait at the barrier), so the simulated parallel runtime is
/// `Σ_supersteps max_i busy(i)` — the critical path.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Supersteps executed.
    pub supersteps: usize,
    /// Simulated cluster wall-clock: per-superstep maximum worker time.
    pub critical_path_secs: f64,
    /// Total CPU time across all workers.
    pub total_busy_secs: f64,
    /// Per-superstep breakdown, in execution order (one entry per
    /// superstep).
    pub per_superstep: Vec<SuperstepStat>,
}

/// A worker loss observed at a superstep barrier.
#[derive(Debug)]
pub struct Death<M> {
    /// Which worker panicked.
    pub worker: usize,
    /// The superstep (1-based) during which it panicked.
    pub superstep: usize,
    /// The inbox it had consumed when it died — the supervisor can replay
    /// these messages to survivors.
    pub lost_inbox: Vec<M>,
}

/// Recovery hooks for [`run_supervised`]. Both run at the barrier, with no
/// worker thread live, so they may mutate any worker.
pub trait Supervisor<W: Worker> {
    /// Handles a worker death: reassign its work to `alive` workers and
    /// return messages to inject into the next superstep (each must be
    /// addressed to a live worker, possibly via [`Supervisor::reroute`]).
    fn on_death(
        &mut self,
        workers: &mut [W],
        death: Death<W::Msg>,
        alive: &[usize],
    ) -> Vec<(usize, W::Msg)>;

    /// Re-addresses a message whose destination is dead. `None` drops it.
    fn reroute(&mut self, workers: &mut [W], msg: W::Msg) -> Option<(usize, W::Msg)>;
}

/// Statistics of a supervised run.
#[derive(Clone, Debug, Default)]
pub struct SupervisedStats {
    /// The underlying BSP timing/counters.
    pub run: RunStats,
    /// Workers lost (and recovered from) during the run.
    pub deaths: usize,
    /// `true` when the run was halted by a [`BarrierControl::Stop`] from
    /// the barrier hook rather than reaching the message fixpoint.
    pub stopped_early: bool,
}

/// What the barrier hook sees at each superstep boundary: a quiescent
/// point — no worker thread is live, every message is routed, every death
/// is recovered. The durable engine checkpoints here.
pub struct BarrierInfo<'a, W: Worker> {
    /// The superstep (1-based, absolute across resumes) that just
    /// completed.
    pub superstep: usize,
    /// All workers, post-superstep and post-recovery.
    pub workers: &'a [W],
    /// The routed inboxes the *next* superstep would consume.
    pub inboxes: &'a [Vec<W::Msg>],
    /// `true` when no messages are pending and no recovery happened —
    /// the run is about to terminate at this barrier.
    pub fixpoint: bool,
}

/// The barrier hook's verdict: keep running or halt at this barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierControl {
    /// Proceed to the next superstep (or terminate if at the fixpoint).
    Continue,
    /// Halt now; [`SupervisedStats::stopped_early`] is set. Used by the
    /// durable engine's crash drill (`--stop-after-supersteps`).
    Stop,
}

/// Saved position of an interrupted run: the superstep counter and the
/// routed inboxes captured at a barrier, to be re-injected on resume.
#[derive(Clone, Debug)]
pub struct ResumeState<M> {
    /// The superstep the checkpoint was taken at; the resumed run
    /// continues with superstep `superstep + 1`.
    pub superstep: usize,
    /// One inbox per worker, exactly as routed at the checkpoint barrier.
    pub inboxes: Vec<Vec<M>>,
}

/// Runs workers to the message fixpoint (at least one superstep). Each
/// worker's superstep runs under `catch_unwind`: a panicking worker is
/// marked dead, the supervisor's [`Supervisor::on_death`] reassigns its
/// work, and messages addressed to it are re-routed. The surviving fleet
/// runs on to the fixpoint.
///
/// `sequential` selects cluster *simulation*: the logically-concurrent
/// workers execute one at a time, so each superstep's per-worker busy time
/// is measured without CPU contention and [`RunStats::critical_path_secs`]
/// is the faithful estimate of an `n`-machine cluster's wall-clock. (On an
/// oversubscribed or single-core host, thread interleaving would otherwise
/// inflate every worker's wall-clock to the whole superstep.) `false` runs
/// each superstep on scoped OS threads.
///
/// Replay safety is the paper's §VI-B Remark 1 argument: assumption
/// invalidation is monotone (`true → false`, at most once per pair at its
/// owner), so the fixpoint is unique and independent of message order and
/// of *which* worker verifies a pair. Re-verifying a dead worker's pairs on
/// an adopting survivor — even ones the dead worker had already served —
/// can only reproduce or re-derive the same verdicts, never diverge.
///
/// # Panics
/// Panics if a message is addressed out of range, or if every worker dies.
pub fn run_supervised<W, S>(
    workers: &mut [W],
    supervisor: &mut S,
    sequential: bool,
) -> SupervisedStats
where
    W: Worker,
    W::Msg: Clone,
    S: Supervisor<W>,
{
    run_supervised_resumable(workers, supervisor, sequential, None, &mut |_| {
        BarrierControl::Continue
    })
}

/// As [`run_supervised`], with two durability extensions:
///
/// - `resume` seeds the superstep counter and per-worker inboxes from a
///   checkpoint taken at a barrier, so the run re-enters BSP exactly where
///   it left off (workers must have been restored to their checkpointed
///   state by the caller);
/// - `barrier_hook` runs at every superstep barrier — a quiescent point
///   where no worker thread is live and all messages are routed — and may
///   observe the whole fleet (e.g. to write a checkpoint) or halt the run
///   with [`BarrierControl::Stop`].
///
/// The hook is also called at the fixpoint barrier (with
/// [`BarrierInfo::fixpoint`] set) before the run returns. On a resumed
/// run, [`RunStats::per_superstep`] covers only the supersteps executed
/// *after* the resume point, while [`RunStats::supersteps`] stays
/// absolute.
///
/// # Panics
/// As [`run_supervised`]; additionally if `resume` carries a wrong number
/// of inboxes.
pub fn run_supervised_resumable<W, S>(
    workers: &mut [W],
    supervisor: &mut S,
    sequential: bool,
    resume: Option<ResumeState<W::Msg>>,
    barrier_hook: &mut dyn FnMut(BarrierInfo<'_, W>) -> BarrierControl,
) -> SupervisedStats
where
    W: Worker,
    W::Msg: Clone,
    S: Supervisor<W>,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let n = workers.len();
    assert!(n > 0, "need at least one worker");
    let mut alive = vec![true; n];
    let mut inboxes: Vec<Vec<W::Msg>> = (0..n).map(|_| Vec::new()).collect();
    let mut stats = SupervisedStats::default();
    if let Some(resume) = resume {
        assert_eq!(
            resume.inboxes.len(),
            n,
            "resume state carries {} inboxes for {} workers",
            resume.inboxes.len(),
            n
        );
        stats.run.supersteps = resume.superstep;
        inboxes = resume.inboxes;
    }
    loop {
        stats.run.supersteps += 1;
        let superstep = stats.run.supersteps;
        let taken: Vec<Vec<W::Msg>> = std::mem::take(&mut inboxes);
        // Dead workers must not be addressed; their inboxes stay empty.
        debug_assert!(taken
            .iter()
            .enumerate()
            .all(|(i, inbox)| alive[i] || inbox.is_empty()));
        type Stepped<M> = Option<(std::thread::Result<Vec<(usize, M)>>, Vec<M>, f64)>;
        let step = |w: &mut W, inbox: Vec<W::Msg>| {
            let kept = inbox.clone();
            let start = std::time::Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| w.superstep(inbox)));
            (out, kept, start.elapsed().as_secs_f64())
        };
        let stepped: Vec<Stepped<W::Msg>> = if sequential {
            workers
                .iter_mut()
                .zip(taken)
                .zip(&alive)
                .map(|((w, inbox), &live)| live.then(|| step(w, inbox)))
                .collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = workers
                    .iter_mut()
                    .zip(taken)
                    .zip(&alive)
                    .map(|((w, inbox), &live)| live.then(|| s.spawn(move || step(w, inbox))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("panic escaped catch_unwind")))
                    .collect()
            })
        };
        // Collect outputs; handle deaths at the barrier before routing, so
        // re-routing observes the post-recovery assignment.
        let mut outbound: Vec<(usize, W::Msg)> = Vec::new();
        let mut step_stat = SuperstepStat {
            busy_min_secs: f64::INFINITY,
            ..Default::default()
        };
        let mut deaths: Vec<Death<W::Msg>> = Vec::new();
        for (i, slot) in stepped.into_iter().enumerate() {
            let Some((result, kept_inbox, busy)) = slot else {
                continue;
            };
            step_stat.busy_max_secs = step_stat.busy_max_secs.max(busy);
            step_stat.busy_min_secs = step_stat.busy_min_secs.min(busy);
            step_stat.busy_total_secs += busy;
            step_stat.workers += 1;
            stats.run.total_busy_secs += busy;
            match result {
                Ok(out) => outbound.extend(out),
                Err(_) => {
                    alive[i] = false;
                    deaths.push(Death {
                        worker: i,
                        superstep,
                        lost_inbox: kept_inbox,
                    });
                }
            }
        }
        if step_stat.workers == 0 {
            step_stat.busy_min_secs = 0.0;
        }
        stats.run.critical_path_secs += step_stat.busy_max_secs;
        let recovered = !deaths.is_empty();
        for death in deaths {
            stats.deaths += 1;
            let survivors: Vec<usize> =
                (0..n).filter(|&i| alive[i]).collect();
            assert!(!survivors.is_empty(), "all workers died; cannot recover");
            outbound.extend(supervisor.on_death(workers, death, &survivors));
        }
        // Route, bouncing dead destinations through the supervisor.
        inboxes = (0..n).map(|_| Vec::new()).collect();
        let mut any = false;
        'msgs: for (dest, msg) in outbound {
            assert!(dest < n, "message addressed to unknown worker {dest}");
            let (mut dest, mut msg) = (dest, msg);
            for _ in 0..n {
                if alive[dest] {
                    inboxes[dest].push(msg);
                    step_stat.messages += 1;
                    any = true;
                    continue 'msgs;
                }
                match supervisor.reroute(workers, msg) {
                    Some((d, m)) => (dest, msg) = (d, m),
                    None => continue 'msgs,
                }
            }
            panic!("message re-routing did not reach a live worker");
        }
        stats.run.per_superstep.push(step_stat);
        // A barrier that handled deaths may have scheduled message-free
        // local work on the adopters (re-verification of purged verdicts,
        // orphaned roots); the fixpoint check must not fire before that
        // work has had a superstep to run in.
        let fixpoint = !any && !recovered;
        let control = barrier_hook(BarrierInfo {
            superstep: stats.run.supersteps,
            workers,
            inboxes: &inboxes,
            fixpoint,
        });
        if fixpoint {
            return stats;
        }
        if control == BarrierControl::Stop {
            stats.stopped_early = true;
            return stats;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Token-ring: worker 0 injects a counter that hops around the ring
    /// until it reaches a limit; checks message routing and termination.
    struct Ring {
        id: usize,
        n: usize,
        limit: u32,
        seen: Vec<u32>,
        started: bool,
    }

    impl Worker for Ring {
        type Msg = u32;
        fn superstep(&mut self, inbox: Vec<u32>) -> Vec<(usize, u32)> {
            let mut out = Vec::new();
            if self.id == 0 && !self.started {
                self.started = true;
                out.push(((self.id + 1) % self.n, 0));
            }
            for token in inbox {
                self.seen.push(token);
                if token + 1 < self.limit {
                    out.push(((self.id + 1) % self.n, token + 1));
                }
            }
            out
        }
    }

    /// A 4-worker ring passing tokens 0..9.
    fn ring() -> Vec<Ring> {
        let n = 4;
        (0..n)
            .map(|id| Ring {
                id,
                n,
                limit: 9,
                seen: Vec::new(),
                started: false,
            })
            .collect()
    }

    /// Supervisor for fleets in which no worker dies.
    struct NoDeaths;
    impl<W: Worker> Supervisor<W> for NoDeaths {
        fn on_death(
            &mut self,
            _w: &mut [W],
            _d: Death<W::Msg>,
            _a: &[usize],
        ) -> Vec<(usize, W::Msg)> {
            unreachable!("no worker dies in this test")
        }
        fn reroute(&mut self, _w: &mut [W], _m: W::Msg) -> Option<(usize, W::Msg)> {
            unreachable!("no worker dies in this test")
        }
    }

    #[test]
    fn token_ring_terminates_and_routes() {
        for sequential in [true, false] {
            let mut workers = ring();
            let stats = run_supervised(&mut workers, &mut NoDeaths, sequential);
            // Token k is delivered at superstep k + 2; the last (k = 8)
            // produces no further messages, so the run ends right there.
            assert_eq!(stats.run.supersteps, 10, "sequential={sequential}");
            assert_eq!(stats.deaths, 0);
            let mut all: Vec<u32> = workers.iter().flat_map(|w| w.seen.clone()).collect();
            all.sort();
            assert_eq!(all, (0..9).collect::<Vec<_>>());
            // Round-robin delivery: worker 1 saw tokens 0, 4, 8.
            assert_eq!(workers[1].seen, vec![0, 4, 8]);
        }
    }

    #[test]
    fn per_superstep_stats_cover_the_run() {
        for sequential in [true, false] {
            let mut workers = ring();
            let stats = run_supervised(&mut workers, &mut NoDeaths, sequential).run;
            assert_eq!(stats.per_superstep.len(), stats.supersteps);
            // Each of the 9 tokens is routed exactly once.
            let routed: usize = stats.per_superstep.iter().map(|s| s.messages).sum();
            assert_eq!(routed, 9);
            for s in &stats.per_superstep {
                assert_eq!(s.workers, workers.len());
                assert!(s.busy_min_secs <= s.busy_max_secs);
                assert!(s.skew_secs() >= 0.0);
            }
            let critical: f64 = stats.per_superstep.iter().map(|s| s.busy_max_secs).sum();
            assert!((critical - stats.critical_path_secs).abs() < 1e-9);
        }
    }

    /// A silent fleet terminates after exactly one superstep.
    struct Silent;
    impl Worker for Silent {
        type Msg = ();
        fn superstep(&mut self, _inbox: Vec<()>) -> Vec<(usize, ())> {
            Vec::new()
        }
    }

    #[test]
    fn silent_workers_run_one_superstep() {
        for sequential in [true, false] {
            let mut ws = vec![Silent, Silent, Silent];
            let stats = run_supervised(&mut ws, &mut NoDeaths, sequential);
            assert_eq!(stats.run.supersteps, 1, "sequential={sequential}");
        }
    }

    #[test]
    fn single_worker_self_message() {
        struct SelfTalk {
            remaining: u32,
        }
        impl Worker for SelfTalk {
            type Msg = ();
            fn superstep(&mut self, _inbox: Vec<()>) -> Vec<(usize, ())> {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    vec![(0, ())]
                } else {
                    Vec::new()
                }
            }
        }
        for sequential in [true, false] {
            let mut ws = vec![SelfTalk { remaining: 3 }];
            let stats = run_supervised(&mut ws, &mut NoDeaths, sequential);
            assert_eq!(stats.run.supersteps, 4, "sequential={sequential}");
        }
    }

    /// Scripted-death worker for supervised-run tests: accumulates tokens,
    /// sends staged batches, dies at a chosen superstep.
    struct Accum {
        die_at: Option<usize>,
        step: usize,
        sum: u32,
        /// One batch of outbound messages per superstep.
        schedule: Vec<Vec<(usize, u32)>>,
    }

    impl Worker for Accum {
        type Msg = u32;
        fn superstep(&mut self, inbox: Vec<u32>) -> Vec<(usize, u32)> {
            self.step += 1;
            if self.die_at == Some(self.step) {
                panic!("scripted death");
            }
            for t in inbox {
                self.sum += t;
            }
            if self.step <= self.schedule.len() {
                std::mem::take(&mut self.schedule[self.step - 1])
            } else {
                Vec::new()
            }
        }
    }

    /// Replays a dead worker's lost inbox to the first survivor and
    /// reroutes messages bound for the dead to worker to that survivor too.
    struct ToFirstSurvivor {
        fallback: usize,
    }

    impl Supervisor<Accum> for ToFirstSurvivor {
        fn on_death(
            &mut self,
            _workers: &mut [Accum],
            death: Death<u32>,
            alive: &[usize],
        ) -> Vec<(usize, u32)> {
            self.fallback = alive[0];
            death
                .lost_inbox
                .into_iter()
                .map(|m| (self.fallback, m))
                .collect()
        }

        fn reroute(&mut self, _workers: &mut [Accum], msg: u32) -> Option<(usize, u32)> {
            Some((self.fallback, msg))
        }
    }

    #[test]
    fn supervised_run_replays_lost_inbox_and_reroutes() {
        for sequential in [true, false] {
            let mut workers = vec![
                Accum {
                    die_at: None,
                    step: 0,
                    sum: 0,
                    // Superstep 1: tokens for everyone; superstep 2: a late
                    // token addressed to the (by then dead) worker 1.
                    schedule: vec![vec![(1, 1), (1, 2), (2, 3)], vec![(1, 10)]],
                },
                Accum {
                    die_at: Some(2),
                    step: 0,
                    sum: 0,
                    schedule: Vec::new(),
                },
                Accum {
                    die_at: None,
                    step: 0,
                    sum: 0,
                    schedule: Vec::new(),
                },
            ];
            let mut sup = ToFirstSurvivor { fallback: 0 };
            let stats = run_supervised(&mut workers, &mut sup, sequential);
            assert_eq!(stats.deaths, 1, "sequential={sequential}");
            // Tokens 1 and 2 were in the dead worker's consumed inbox and
            // got replayed; token 10 was addressed to it post-mortem and
            // got rerouted. Nothing is lost.
            let total: u32 = workers.iter().map(|w| w.sum).collect::<Vec<_>>().iter().sum();
            assert_eq!(total, 1 + 2 + 3 + 10, "sequential={sequential}");
            assert_eq!(workers[1].sum, 0, "the dead worker processed nothing");
        }
    }

    /// Stopping at *every* barrier k and resuming from the captured
    /// inboxes reproduces the uninterrupted run exactly — the BSP-level
    /// half of the crash-recovery acceptance property.
    #[test]
    fn stop_at_any_barrier_then_resume_equals_uninterrupted() {
        let mut clean = ring();
        let clean_steps = run_supervised(&mut clean, &mut NoDeaths, true)
            .run
            .supersteps;
        let clean_seen: Vec<Vec<u32>> = clean.iter().map(|w| w.seen.clone()).collect();

        for k in 1..clean_steps {
            // Phase 1: run to barrier k, capture the routed inboxes, stop.
            let mut workers = ring();
            let mut captured: Option<ResumeState<u32>> = None;
            let stats = run_supervised_resumable(
                &mut workers,
                &mut NoDeaths,
                true,
                None,
                &mut |b: BarrierInfo<'_, Ring>| {
                    if b.superstep == k {
                        captured = Some(ResumeState {
                            superstep: b.superstep,
                            inboxes: b.inboxes.to_vec(),
                        });
                        BarrierControl::Stop
                    } else {
                        BarrierControl::Continue
                    }
                },
            );
            assert!(stats.stopped_early, "k={k}");
            assert_eq!(stats.run.supersteps, k);

            // Phase 2: resume the same (state-retaining) workers.
            let resume = captured.expect("barrier k reached");
            let stats = run_supervised_resumable(
                &mut workers,
                &mut NoDeaths,
                true,
                Some(resume),
                &mut |_| BarrierControl::Continue,
            );
            assert!(!stats.stopped_early);
            assert_eq!(stats.run.supersteps, clean_steps, "k={k}");
            for (w, expect) in workers.iter().zip(&clean_seen) {
                assert_eq!(&w.seen, expect, "k={k}: resumed run diverged");
            }
        }
    }

    /// The hook sees the fixpoint barrier, and `Stop` there does not mark
    /// the run as stopped early (termination wins).
    #[test]
    fn fixpoint_barrier_is_reported_to_the_hook() {
        let mut ws = vec![Silent, Silent];
        let mut saw_fixpoint = false;
        let stats = run_supervised_resumable(&mut ws, &mut NoDeaths, true, None, &mut |b| {
            saw_fixpoint = b.fixpoint;
            BarrierControl::Stop
        });
        assert!(saw_fixpoint);
        assert!(!stats.stopped_early, "fixpoint termination wins over Stop");
    }

    #[test]
    #[should_panic(expected = "all workers died")]
    fn supervised_run_with_total_loss_panics() {
        struct Fatal;
        impl Worker for Fatal {
            type Msg = ();
            fn superstep(&mut self, _inbox: Vec<()>) -> Vec<(usize, ())> {
                panic!("down");
            }
        }
        struct Never;
        impl Supervisor<Fatal> for Never {
            fn on_death(
                &mut self,
                _w: &mut [Fatal],
                _d: Death<()>,
                _a: &[usize],
            ) -> Vec<(usize, ())> {
                Vec::new()
            }
            fn reroute(&mut self, _w: &mut [Fatal], _m: ()) -> Option<(usize, ())> {
                None
            }
        }
        let mut ws = vec![Fatal, Fatal];
        let _ = run_supervised(&mut ws, &mut Never, true);
    }

    #[test]
    fn out_of_range_destination_panics() {
        struct Bad;
        impl Worker for Bad {
            type Msg = ();
            fn superstep(&mut self, _inbox: Vec<()>) -> Vec<(usize, ())> {
                vec![(5, ())]
            }
        }
        for sequential in [true, false] {
            let run = || run_supervised(&mut [Bad], &mut NoDeaths, sequential);
            let panic = std::panic::catch_unwind(run).expect_err("routing must reject worker 5");
            let msg = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("unknown worker"), "{msg}");
        }
    }
}
