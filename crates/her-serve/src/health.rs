//! The server health state machine, driven by storage outcomes.
//!
//! A server is `Healthy` until its journal fails it. A WAL append that
//! still fails after the bounded in-place retries degrades the server to
//! read-only (`Degraded`); the background prober then re-probes the
//! storage and, once a probe append syncs, reopens the journal and heals
//! back to `Healthy` — no restart, no replay. `Draining` marks a clean
//! shutdown in progress and `Down` the terminal state.
//!
//! Readiness vs liveness: `Ping` is liveness (an alive server always
//! answers it), the `Health` control op is readiness (writes are ready
//! iff `Healthy`; reads iff `Healthy` or `Degraded`). See DESIGN.md §4j.
//!
//! The state byte itself is a lock-free atomic so the per-request fast
//! path (`writable?`) never takes a lock; the human-facing reason and
//! the transition timestamps live behind a small mutex at rank
//! `serve.health` (taken *while the stream session lock is held* when a
//! failing append degrades the server — hence its rank sits above
//! `serve.stream` in the order table).

use her_sync::rank;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::PoisonError;
use std::time::Instant;

/// The four lifecycle states, in degradation order. Wire encoding is the
/// discriminant (`Reply::Health.state`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum State {
    /// Journal writable: full service.
    Healthy = 0,
    /// Journal failed: read-only, prober working on a heal.
    Degraded = 1,
    /// Shutdown accepted: existing connections finish, nothing new.
    Draining = 2,
    /// Terminal; the accept loop has exited.
    Down = 3,
}

impl State {
    /// Decodes a wire state byte (unknown bytes clamp to `Down`).
    pub fn from_u8(v: u8) -> State {
        match v {
            0 => State::Healthy,
            1 => State::Degraded,
            2 => State::Draining,
            _ => State::Down,
        }
    }

    /// Lower-case display name (`healthy`, `degraded`, ...).
    pub fn name(self) -> &'static str {
        match self {
            State::Healthy => "healthy",
            State::Degraded => "degraded",
            State::Draining => "draining",
            State::Down => "down",
        }
    }

    /// True when stream mutations may be accepted (journal-before-ack is
    /// only promisable with a working journal).
    pub fn writable(self) -> bool {
        matches!(self, State::Healthy)
    }

    /// True when reads still serve from the in-memory session.
    pub fn readable(self) -> bool {
        matches!(self, State::Healthy | State::Degraded)
    }
}

/// Reason + transition bookkeeping behind the mutex; the state byte is
/// outside it so readers never block.
struct Cell {
    reason: String,
    since: Instant,
    /// Set on degrade, cleared on heal: feeds the `heal_ms` gauge.
    degraded_at: Option<Instant>,
}

/// One per server: the current state plus why and since when.
pub struct Health {
    state: AtomicU8,
    cell: her_sync::Mutex<Cell>,
    obs: Option<her_obs::Obs>,
}

impl Health {
    /// A fresh `Healthy` machine.
    pub fn new(obs: Option<her_obs::Obs>) -> Self {
        let h = Health {
            state: AtomicU8::new(State::Healthy as u8),
            cell: her_sync::Mutex::new(
                rank::SERVE_HEALTH,
                Cell {
                    reason: String::new(),
                    since: Instant::now(),
                    degraded_at: None,
                },
            ),
            obs,
        };
        h.publish_state(State::Healthy);
        h
    }

    fn lock(&self) -> her_sync::MutexGuard<'_, Cell> {
        self.cell.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish_state(&self, s: State) {
        if let Some(o) = &self.obs {
            o.registry.gauge("serve.health.state").set(s as u8 as f64);
        }
    }

    fn counter(&self, name: &'static str) {
        if let Some(o) = self.obs.as_ref() {
            o.registry.counter(name).inc();
        }
    }

    /// The current state (lock-free; the per-request fast path).
    pub fn state(&self) -> State {
        State::from_u8(self.state.load(Ordering::Acquire))
    }

    /// Wire snapshot for the `Health` control op: `(state, reason,
    /// since_ms)` where `since_ms` is time spent in the current state.
    pub fn snapshot(&self) -> (u8, String, u64) {
        let cell = self.lock();
        (
            self.state.load(Ordering::Acquire),
            cell.reason.clone(),
            cell.since.elapsed().as_millis() as u64,
        )
    }

    /// The degradation reason (empty while `Healthy`).
    pub fn reason(&self) -> String {
        self.lock().reason.clone()
    }

    fn transition(&self, cell: &mut Cell, to: State, reason: String) {
        self.state.store(to as u8, Ordering::Release);
        cell.reason = reason;
        cell.since = Instant::now();
        self.publish_state(to);
        self.counter("serve.health.transitions");
    }

    /// `Healthy → Degraded`: the journal failed past its retry budget.
    /// A no-op from any other state (a draining or already-degraded
    /// server keeps its original reason). Returns true when this call
    /// performed the transition.
    pub fn degrade(&self, reason: impl Into<String>) -> bool {
        let mut cell = self.lock();
        if self.state() != State::Healthy {
            return false;
        }
        cell.degraded_at = Some(Instant::now());
        self.transition(&mut cell, State::Degraded, reason.into());
        self.counter("serve.health.degraded");
        true
    }

    /// `Degraded → Healthy`: the prober confirmed a working journal.
    /// Publishes the time-to-heal into the `serve.health.heal_ms` gauge.
    pub fn heal(&self) -> bool {
        let mut cell = self.lock();
        if self.state() != State::Degraded {
            return false;
        }
        if let (Some(t), Some(o)) = (cell.degraded_at.take(), self.obs.as_ref()) {
            o.registry
                .gauge("serve.health.heal_ms")
                .set(t.elapsed().as_millis() as f64);
        }
        self.transition(&mut cell, State::Healthy, String::new());
        self.counter("serve.health.heals");
        true
    }

    /// `* → Draining`: shutdown accepted.
    pub fn drain(&self) {
        let mut cell = self.lock();
        if matches!(self.state(), State::Draining | State::Down) {
            return;
        }
        self.transition(&mut cell, State::Draining, "shutting down".to_owned());
    }

    /// `* → Down`: terminal, the accept loop has exited.
    pub fn down(&self) {
        let mut cell = self.lock();
        if self.state() == State::Down {
            return;
        }
        self.transition(&mut cell, State::Down, "stopped".to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions_and_gates() {
        let h = Health::new(None);
        assert_eq!(h.state(), State::Healthy);
        assert!(h.state().writable() && h.state().readable());

        assert!(h.degrade("wal append failed: injected"));
        assert_eq!(h.state(), State::Degraded);
        assert!(!h.state().writable() && h.state().readable());
        assert_eq!(h.reason(), "wal append failed: injected");
        // Second degrade keeps the original reason.
        assert!(!h.degrade("other"));
        assert_eq!(h.reason(), "wal append failed: injected");

        assert!(h.heal());
        assert_eq!(h.state(), State::Healthy);
        assert!(h.reason().is_empty());
        // Heal from Healthy is a no-op.
        assert!(!h.heal());

        h.drain();
        assert_eq!(h.state(), State::Draining);
        assert!(!h.state().writable() && !h.state().readable());
        // Cannot degrade or heal out of draining.
        assert!(!h.degrade("late fault"));
        assert!(!h.heal());

        h.down();
        assert_eq!(h.state(), State::Down);
    }

    #[test]
    fn metrics_track_transitions() {
        let obs = her_obs::Obs::new();
        let h = Health::new(Some(obs.clone()));
        h.degrade("x");
        h.heal();
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("serve.health.degraded"), 1);
        assert_eq!(snap.counter("serve.health.heals"), 1);
        assert_eq!(snap.counter("serve.health.transitions"), 2);
        assert_eq!(snap.gauge("serve.health.state"), 0.0);
        assert!(snap.gauge("serve.health.heal_ms") >= 0.0);
    }

    #[test]
    fn snapshot_reports_state_reason_and_age() {
        let h = Health::new(None);
        h.degrade("disk full");
        let (state, reason, _since) = h.snapshot();
        assert_eq!(State::from_u8(state), State::Degraded);
        assert_eq!(reason, "disk full");
    }
}
