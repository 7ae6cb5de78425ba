//! # her-serve: the always-on linking service
//!
//! Turns a trained [`her_core::Her`] system into a long-lived server:
//! concurrent vpair/apair/stream requests over a length-prefixed,
//! checksummed wire protocol (the `her-store` frame codec as transport
//! framing), with
//!
//! * **admission control** — a bounded in-flight gate with a bounded
//!   FIFO queue; overload is shed with an explicit `Busy` reply, never a
//!   hang ([`admission`]);
//! * **per-request deadlines** — mapped onto [`her_core::Budget`], so a
//!   timed-out request returns *sound partial* results with the standard
//!   `ExhaustReason` taxonomy rather than failing;
//! * **checkpoint-backed warm restart** — stream mutations journal
//!   through `DurableStreamLinker` before acknowledgement, snapshots are
//!   cut on a cadence, and a restarted server resumes from its newest
//!   valid snapshot plus the WAL suffix ([`server`]);
//! * **a keep-alive client with idempotency-aware retry** — one kept
//!   connection, dropped on any transport failure, and jittered
//!   exponential backoff that retries reads and shed requests but never
//!   blindly retries a mutation whose reply was lost ([`client`]);
//! * **seeded connection faults** — a deterministic per-connection fault
//!   plan (drop/delay/truncate/garble/kill) for drills proving the
//!   service either answers correctly or fails taxonomized ([`fault`]);
//! * **request-scoped observability** — every request is minted a
//!   [`her_obs::ReqCtx`] at admission, its spans land in the trace ring
//!   under that id, a per-request [`her_obs::FlightRecord`] files into
//!   the lock-free flight recorder, and anomalous requests (shed,
//!   deadline-exhausted, decode errors, rolling-p99 outliers) are dumped
//!   durably for post-mortems ([`flight_dump`]); the `Trace`/`Flight`/
//!   `Expo` control-plane ops and `her-cli top`/`her-cli trace` read it
//!   all back live;
//! * **a storage fault domain** — every WAL/snapshot byte flows through
//!   an injectable VFS (`her_store::Vfs`), a WAL append failure degrades
//!   the server to *read-only* (mutations get a taxonomized
//!   `Unavailable` reply, reads keep serving from the in-memory
//!   session) after bounded in-place retries, a background prober
//!   re-probes the storage and self-heals back to `Healthy` with no
//!   restart and no replay ([`health`]), and a watchdog reaper
//!   force-expires requests stuck past 2× their deadline so a hung I/O
//!   cannot pin an admission slot forever ([`watchdog`]).
//!
//! `her-cli serve` / `her-cli query` wrap [`Server`] and [`Client`];
//! DESIGN.md §4h specifies the protocol and semantics, §4i the
//! observability layer.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod admission;
pub mod backoff;
pub mod client;
pub mod fault;
pub mod flight_dump;
pub mod health;
pub mod proto;
pub mod server;
pub mod watchdog;

pub use admission::{Admission, Admit, GateStats, Permit};
pub use client::{Client, ClientError, RetryPolicy};
pub use fault::{FaultPlan, ReplyFate};
pub use flight_dump::DumpRecord;
pub use health::{Health, State};
pub use proto::{Reply, Request, WireError, DEFAULT_SESSION, MIN_PROTO_VERSION, PROTO_VERSION};
pub use server::{ServeConfig, ServeError, Server};
pub use watchdog::Watchdog;
