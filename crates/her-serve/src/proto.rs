//! The wire protocol: requests and replies as framed byte records.
//!
//! Transport framing reuses `her-store`'s checksummed frame codec — every
//! message on the socket is one `[u32 len][u32 crc][payload]` frame, so
//! the service inherits the store's validation story: a connection that
//! dies mid-message leaves a *torn* frame (recoverable: the peer knows the
//! message never completed), while a flipped bit is *corruption* (the
//! message is rejected, never half-trusted). Payloads use the store's
//! explicit little-endian [`Enc`]/[`Dec`] codec; malformed bytes error,
//! never panic.
//!
//! Budget semantics ride along with every matching request: `max_calls`
//! and `deadline_ms` (0 = unlimited) map onto [`her_core::Budget`], and a
//! reply carries the run's [`ExhaustReason`] so a timed-out request
//! returns its sound partial results with the reason attached instead of
//! an opaque failure.

use her_core::ExhaustReason;
use her_graph::VertexId;
use her_obs::{Event, EventKind, FlightRecord};
use her_rdb::TupleRef;
use her_store::frame::{FrameEvent, Frames, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use her_store::{CodecError, Dec, Enc};
use std::io::{Read, Write};

/// Protocol version; bumped on any incompatible message change.
/// v2 added request trace ids to matching replies and the
/// `Trace`/`Flight`/`Expo` introspection ops; v3 added the `Health`
/// control op and the taxonomized `Health`/`Unavailable` replies for
/// the storage-driven health state machine; v4 added stream session ids
/// on the stream ops (multi-session serving) and `pool_wait_us` on
/// flight records.
pub const PROTO_VERSION: u32 = 4;

/// The stream session that is open from startup: it journals to the
/// base WAL path and snapshots to the base snapshot directory.
pub const DEFAULT_SESSION: u64 = 0;

fn check_version(version: u32, what: &str) -> Result<(), CodecError> {
    if version != PROTO_VERSION {
        return Err(CodecError {
            offset: 0,
            message: format!("{what} v{version} (this build speaks v{PROTO_VERSION})"),
        });
    }
    Ok(())
}

/// Error codes carried by [`Reply::Error`], aligned with the CLI exit-code
/// taxonomy: `1` data, `2` usage, `3` budget-exhausted, `4` unavailable.
pub mod code {
    /// Unreadable/corrupt data on the server side.
    pub const DATA: u32 = 1;
    /// The request itself was invalid.
    pub const USAGE: u32 = 2;
    /// Reserved: exhaustion is reported in-band with partial results.
    pub const EXHAUSTED: u32 = 3;
    /// The server is shutting down or cannot take the request.
    pub const UNAVAILABLE: u32 = 4;
}

/// A client request. Matching requests carry their own budget; stream
/// requests are mutations (journaled server-side before acknowledgement).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Link one tuple against the whole graph (read; idempotent).
    Vpair {
        /// The tuple to link.
        tuple: TupleRef,
        /// Recursive-call budget; 0 = unlimited.
        max_calls: u64,
        /// Per-request deadline in milliseconds; 0 = server default.
        deadline_ms: u64,
    },
    /// Link every tuple (read; idempotent).
    Apair {
        /// Recursive-call budget; 0 = unlimited.
        max_calls: u64,
        /// Per-request deadline in milliseconds; 0 = server default.
        deadline_ms: u64,
    },
    /// Journal and link one arriving tuple (mutation).
    StreamProcess {
        /// The arriving tuple.
        tuple: TupleRef,
        /// Target stream session.
        session: u64,
    },
    /// Journal a vertex retraction (mutation).
    StreamRetract {
        /// The retracted graph vertex.
        vertex: VertexId,
        /// Target stream session.
        session: u64,
    },
    /// Accumulated stream matches (read; idempotent).
    StreamMatches {
        /// Stream session to read.
        session: u64,
    },
    /// The server's metrics snapshot as JSON (read; idempotent).
    Metrics,
    /// Liveness probe (read; idempotent).
    Ping,
    /// Ask the server to finish in-flight work and exit.
    Shutdown,
    /// The span/event breakdown of one request by trace id (control
    /// plane: bypasses admission like `Ping`/`Metrics`).
    Trace {
        /// The request id to reconstruct.
        trace_id: u64,
    },
    /// The flight recorder's ring of per-request records (control
    /// plane).
    Flight,
    /// The metrics snapshot in the stable text exposition format
    /// (control plane).
    Expo,
    /// The server's health state (control plane: bypasses admission, so
    /// it answers even when the data plane is saturated or degraded).
    /// This is the *readiness* probe; `Ping` is the *liveness* probe.
    Health,
}

impl Request {
    /// True when re-sending this request cannot change server state —
    /// the client's retry policy only ever auto-retries these on
    /// transport errors. (Every request is retryable after a `Busy`
    /// reply: shedding happens before execution.)
    pub fn is_idempotent(&self) -> bool {
        !matches!(
            self,
            Request::StreamProcess { .. } | Request::StreamRetract { .. } | Request::Shutdown
        )
    }
}

const REQ_VPAIR: u8 = 1;
const REQ_APAIR: u8 = 2;
const REQ_STREAM_PROCESS: u8 = 3;
const REQ_STREAM_RETRACT: u8 = 4;
const REQ_STREAM_MATCHES: u8 = 5;
const REQ_METRICS: u8 = 6;
const REQ_PING: u8 = 7;
const REQ_SHUTDOWN: u8 = 8;
const REQ_TRACE: u8 = 9;
const REQ_FLIGHT: u8 = 10;
const REQ_EXPO: u8 = 11;
const REQ_HEALTH: u8 = 12;

fn put_tuple(e: &mut Enc, t: TupleRef) {
    e.put_u32(t.relation).put_u32(t.row);
}

fn get_tuple(d: &mut Dec<'_>) -> Result<TupleRef, CodecError> {
    Ok(TupleRef {
        relation: d.u32()?,
        row: d.u32()?,
    })
}

impl Request {
    /// Serializes this request as one frame payload at the current
    /// protocol version.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u32(PROTO_VERSION);
        match self {
            Request::Vpair {
                tuple,
                max_calls,
                deadline_ms,
            } => {
                e.put_u8(REQ_VPAIR);
                put_tuple(&mut e, *tuple);
                e.put_u64(*max_calls).put_u64(*deadline_ms);
            }
            Request::Apair {
                max_calls,
                deadline_ms,
            } => {
                e.put_u8(REQ_APAIR).put_u64(*max_calls).put_u64(*deadline_ms);
            }
            Request::StreamProcess { tuple, session } => {
                e.put_u8(REQ_STREAM_PROCESS);
                put_tuple(&mut e, *tuple);
                e.put_u64(*session);
            }
            Request::StreamRetract { vertex, session } => {
                e.put_u8(REQ_STREAM_RETRACT).put_u32(vertex.0).put_u64(*session);
            }
            Request::StreamMatches { session } => {
                e.put_u8(REQ_STREAM_MATCHES).put_u64(*session);
            }
            Request::Metrics => {
                e.put_u8(REQ_METRICS);
            }
            Request::Ping => {
                e.put_u8(REQ_PING);
            }
            Request::Shutdown => {
                e.put_u8(REQ_SHUTDOWN);
            }
            Request::Trace { trace_id } => {
                e.put_u8(REQ_TRACE).put_u64(*trace_id);
            }
            Request::Flight => {
                e.put_u8(REQ_FLIGHT);
            }
            Request::Expo => {
                e.put_u8(REQ_EXPO);
            }
            Request::Health => {
                e.put_u8(REQ_HEALTH);
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload written by [`Request::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        check_version(d.u32()?, "request")?;
        let req = match d.u8()? {
            REQ_VPAIR => Request::Vpair {
                tuple: get_tuple(&mut d)?,
                max_calls: d.u64()?,
                deadline_ms: d.u64()?,
            },
            REQ_APAIR => Request::Apair {
                max_calls: d.u64()?,
                deadline_ms: d.u64()?,
            },
            REQ_STREAM_PROCESS => Request::StreamProcess {
                tuple: get_tuple(&mut d)?,
                session: d.u64()?,
            },
            REQ_STREAM_RETRACT => Request::StreamRetract {
                vertex: VertexId(d.u32()?),
                session: d.u64()?,
            },
            REQ_STREAM_MATCHES => Request::StreamMatches {
                session: d.u64()?,
            },
            REQ_METRICS => Request::Metrics,
            REQ_PING => Request::Ping,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_TRACE => Request::Trace {
                trace_id: d.u64()?,
            },
            REQ_FLIGHT => Request::Flight,
            REQ_EXPO => Request::Expo,
            REQ_HEALTH => Request::Health,
            tag => {
                return Err(CodecError {
                    offset: 4,
                    message: format!("bad request tag {tag:#04x}"),
                })
            }
        };
        d.finish()?;
        Ok(req)
    }
}

/// A server reply. Matching replies carry sound partial results plus the
/// exhaustion reason when the request's budget tripped.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// VPair results (sound even when `exhausted` is set).
    Vpair {
        /// Confirmed matches, ascending.
        matches: Vec<VertexId>,
        /// Candidates left undecided by the budget, ascending.
        unresolved: Vec<VertexId>,
        /// Why the run stopped early, if it did.
        exhausted: Option<ExhaustReason>,
        /// Server-assigned request id: quote it to `Request::Trace`
        /// for the span breakdown.
        trace_id: u64,
    },
    /// APair results (every returned pair fully verified).
    Apair {
        /// Confirmed matches.
        matches: Vec<(TupleRef, VertexId)>,
        /// Why the run stopped early, if it did.
        exhausted: Option<ExhaustReason>,
        /// Server-assigned request id.
        trace_id: u64,
    },
    /// A stream mutation was journaled (durably) and applied.
    StreamApplied {
        /// Matches found for the processed tuple (empty for retractions).
        found: Vec<VertexId>,
        /// Journaled operations reflected in the session after this one.
        ops_applied: u64,
        /// Server-assigned request id.
        trace_id: u64,
    },
    /// Accumulated stream matches.
    StreamMatches {
        /// All accumulated `(tuple, vertex)` matches, sorted.
        matches: Vec<(TupleRef, VertexId)>,
        /// Journaled operations reflected in the session.
        ops_applied: u64,
    },
    /// Metrics snapshot as registry JSON.
    Metrics {
        /// `Registry::snapshot().to_json()` output.
        json: String,
    },
    /// Liveness answer.
    Pong,
    /// The server accepted the shutdown and will exit.
    ShuttingDown,
    /// The request was shed by admission control *before* execution — the
    /// canonical overload answer: never a hang, always retryable.
    Busy {
        /// Requests waiting in the admission queue at shed time.
        queue_depth: u32,
        /// Server-assigned request id — shed requests get one too, so
        /// a post-mortem can reconstruct *why* they were turned away.
        trace_id: u64,
    },
    /// The request failed; `code` follows the CLI exit-code taxonomy.
    Error {
        /// One of the [`code`] constants.
        code: u32,
        /// Human-readable diagnosis.
        message: String,
    },
    /// One request's buffered span/event breakdown.
    Trace {
        /// The id the events were filtered by.
        trace_id: u64,
        /// Matching trace events, oldest first (empty when the id was
        /// unsampled or has aged out of the ring).
        events: Vec<Event>,
    },
    /// The flight recorder's stable records, oldest first.
    Flight {
        /// Per-request records still in the ring.
        records: Vec<FlightRecord>,
    },
    /// Metrics snapshot in the text exposition format.
    Expo {
        /// `Snapshot::to_text()` output (`# her-expo/v1` grammar).
        text: String,
    },
    /// The server's health state (answer to [`Request::Health`]).
    Health {
        /// Health state tag: 0 Healthy, 1 Degraded, 2 Draining, 3 Down
        /// (see `her_serve::health::State`).
        state: u8,
        /// Why the server is in this state (empty when `Healthy`).
        reason: String,
        /// Milliseconds spent in the current state.
        since_ms: u64,
    },
    /// The request was rejected because the server cannot currently take
    /// it — degraded to read-only after storage failures, or draining
    /// for shutdown. Taxonomized (maps to CLI exit 4) and always issued
    /// *before* execution: nothing was journaled, nothing was applied,
    /// so the op was never acknowledged-then-lost.
    Unavailable {
        /// What is wrong (e.g. the storage failure that degraded the
        /// server).
        reason: String,
        /// Client hint: when retrying might succeed (the prober's next
        /// heal attempt). 0 = no estimate.
        retry_after_ms: u64,
        /// Server-assigned request id for post-mortems.
        trace_id: u64,
    },
}

const REP_VPAIR: u8 = 1;
const REP_APAIR: u8 = 2;
const REP_STREAM_APPLIED: u8 = 3;
const REP_STREAM_MATCHES: u8 = 4;
const REP_METRICS: u8 = 5;
const REP_PONG: u8 = 6;
const REP_SHUTTING_DOWN: u8 = 7;
const REP_BUSY: u8 = 8;
const REP_ERROR: u8 = 9;
const REP_TRACE: u8 = 10;
const REP_FLIGHT: u8 = 11;
const REP_EXPO: u8 = 12;
const REP_HEALTH: u8 = 13;
const REP_UNAVAILABLE: u8 = 14;

pub(crate) fn reason_tag(r: Option<ExhaustReason>) -> u8 {
    match r {
        None => 0,
        Some(ExhaustReason::Calls) => 1,
        Some(ExhaustReason::Deadline) => 2,
        Some(ExhaustReason::CacheCapacity) => 3,
        Some(ExhaustReason::Cancelled) => 4,
    }
}

fn tag_reason(tag: u8) -> Result<Option<ExhaustReason>, CodecError> {
    Ok(match tag {
        0 => None,
        1 => Some(ExhaustReason::Calls),
        2 => Some(ExhaustReason::Deadline),
        3 => Some(ExhaustReason::CacheCapacity),
        4 => Some(ExhaustReason::Cancelled),
        b => {
            return Err(CodecError {
                offset: 0,
                message: format!("bad ExhaustReason tag {b:#04x}"),
            })
        }
    })
}

/// Capacity for a list of `n` elements of at least `min_len` encoded
/// bytes each: the count is the peer's claim, so reserve no more than
/// the rest of the payload could actually hold.
fn capacity(d: &Dec<'_>, n: u32, min_len: usize) -> usize {
    (n as usize).min(d.remaining() / min_len)
}

fn put_vertices(e: &mut Enc, vs: &[VertexId]) {
    e.put_u32(vs.len() as u32);
    for v in vs {
        e.put_u32(v.0);
    }
}

fn get_vertices(d: &mut Dec<'_>) -> Result<Vec<VertexId>, CodecError> {
    let n = d.u32()?;
    let mut vs = Vec::with_capacity(capacity(d, n, 4));
    for _ in 0..n {
        vs.push(VertexId(d.u32()?));
    }
    Ok(vs)
}

fn put_pairs(e: &mut Enc, ps: &[(TupleRef, VertexId)]) {
    e.put_u32(ps.len() as u32);
    for (t, v) in ps {
        put_tuple(e, *t);
        e.put_u32(v.0);
    }
}

fn get_pairs(d: &mut Dec<'_>) -> Result<Vec<(TupleRef, VertexId)>, CodecError> {
    let n = d.u32()?;
    let mut ps = Vec::with_capacity(capacity(d, n, 12));
    for _ in 0..n {
        ps.push((get_tuple(d)?, VertexId(d.u32()?)));
    }
    Ok(ps)
}

fn kind_tag(k: EventKind) -> u8 {
    match k {
        EventKind::Enter => 0,
        EventKind::Exit => 1,
        EventKind::Point => 2,
    }
}

fn tag_kind(tag: u8) -> Result<EventKind, CodecError> {
    Ok(match tag {
        0 => EventKind::Enter,
        1 => EventKind::Exit,
        2 => EventKind::Point,
        b => {
            return Err(CodecError {
                offset: 0,
                message: format!("bad EventKind tag {b:#04x}"),
            })
        }
    })
}

pub(crate) fn put_events(e: &mut Enc, events: &[Event]) {
    e.put_u32(events.len() as u32);
    for ev in events {
        e.put_u64(ev.at_us)
            .put_u8(kind_tag(ev.kind))
            .put_str(&ev.name)
            .put_str(&ev.detail)
            .put_u64(ev.trace_id);
    }
}

pub(crate) fn get_events(d: &mut Dec<'_>) -> Result<Vec<Event>, CodecError> {
    let n = d.u32()?;
    // at_us, kind, two length-prefixed strings, trace_id.
    let mut events = Vec::with_capacity(capacity(d, n, 8 + 1 + 4 + 4 + 8));
    for _ in 0..n {
        events.push(Event {
            at_us: d.u64()?,
            kind: tag_kind(d.u8()?)?,
            name: d.str()?.to_owned(),
            detail: d.str()?.to_owned(),
            trace_id: d.u64()?,
        });
    }
    Ok(events)
}

pub(crate) fn put_flight_record(e: &mut Enc, r: &FlightRecord) {
    e.put_u64(r.trace_id)
        .put_u64(r.at_us)
        .put_u8(r.op)
        .put_u64(r.queue_wait_us)
        .put_u64(r.exec_us)
        .put_u64(r.calls)
        .put_u64(r.cache_hits)
        .put_u64(r.shared_hits)
        .put_u8(r.exhaust)
        .put_u32(r.faults_seen)
        .put_u8(r.anomaly)
        .put_u64(r.pool_wait_us);
}

pub(crate) fn get_flight_record(d: &mut Dec<'_>) -> Result<FlightRecord, CodecError> {
    Ok(FlightRecord {
        trace_id: d.u64()?,
        at_us: d.u64()?,
        op: d.u8()?,
        queue_wait_us: d.u64()?,
        exec_us: d.u64()?,
        calls: d.u64()?,
        cache_hits: d.u64()?,
        shared_hits: d.u64()?,
        exhaust: d.u8()?,
        faults_seen: d.u32()?,
        anomaly: d.u8()?,
        pool_wait_us: d.u64()?,
    })
}

fn put_flight_records(e: &mut Enc, records: &[FlightRecord]) {
    e.put_u32(records.len() as u32);
    for r in records {
        put_flight_record(e, r);
    }
}

fn get_flight_records(d: &mut Dec<'_>) -> Result<Vec<FlightRecord>, CodecError> {
    let n = d.u32()?;
    // Eight u64 fields, three u8s and one u32.
    let mut records = Vec::with_capacity(capacity(d, n, 8 * 8 + 3 + 4));
    for _ in 0..n {
        records.push(get_flight_record(d)?);
    }
    Ok(records)
}

impl Reply {
    /// Serializes this reply as one frame payload at the current
    /// protocol version.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u32(PROTO_VERSION);
        match self {
            Reply::Vpair {
                matches,
                unresolved,
                exhausted,
                trace_id,
            } => {
                e.put_u8(REP_VPAIR);
                put_vertices(&mut e, matches);
                put_vertices(&mut e, unresolved);
                e.put_u8(reason_tag(*exhausted)).put_u64(*trace_id);
            }
            Reply::Apair {
                matches,
                exhausted,
                trace_id,
            } => {
                e.put_u8(REP_APAIR);
                put_pairs(&mut e, matches);
                e.put_u8(reason_tag(*exhausted)).put_u64(*trace_id);
            }
            Reply::StreamApplied {
                found,
                ops_applied,
                trace_id,
            } => {
                e.put_u8(REP_STREAM_APPLIED);
                put_vertices(&mut e, found);
                e.put_u64(*ops_applied).put_u64(*trace_id);
            }
            Reply::StreamMatches {
                matches,
                ops_applied,
            } => {
                e.put_u8(REP_STREAM_MATCHES);
                put_pairs(&mut e, matches);
                e.put_u64(*ops_applied);
            }
            Reply::Metrics { json } => {
                e.put_u8(REP_METRICS).put_str(json);
            }
            Reply::Pong => {
                e.put_u8(REP_PONG);
            }
            Reply::ShuttingDown => {
                e.put_u8(REP_SHUTTING_DOWN);
            }
            Reply::Busy {
                queue_depth,
                trace_id,
            } => {
                e.put_u8(REP_BUSY).put_u32(*queue_depth).put_u64(*trace_id);
            }
            Reply::Error { code, message } => {
                e.put_u8(REP_ERROR).put_u32(*code).put_str(message);
            }
            Reply::Trace { trace_id, events } => {
                e.put_u8(REP_TRACE).put_u64(*trace_id);
                put_events(&mut e, events);
            }
            Reply::Flight { records } => {
                e.put_u8(REP_FLIGHT);
                put_flight_records(&mut e, records);
            }
            Reply::Expo { text } => {
                e.put_u8(REP_EXPO).put_str(text);
            }
            Reply::Health {
                state,
                reason,
                since_ms,
            } => {
                e.put_u8(REP_HEALTH).put_u8(*state).put_str(reason).put_u64(*since_ms);
            }
            Reply::Unavailable {
                reason,
                retry_after_ms,
                trace_id,
            } => {
                e.put_u8(REP_UNAVAILABLE)
                    .put_str(reason)
                    .put_u64(*retry_after_ms)
                    .put_u64(*trace_id);
            }
        }
        e.into_bytes()
    }

    /// Decodes a frame payload written by [`Reply::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        check_version(d.u32()?, "reply")?;
        let reply = match d.u8()? {
            REP_VPAIR => Reply::Vpair {
                matches: get_vertices(&mut d)?,
                unresolved: get_vertices(&mut d)?,
                exhausted: tag_reason(d.u8()?)?,
                trace_id: d.u64()?,
            },
            REP_APAIR => Reply::Apair {
                matches: get_pairs(&mut d)?,
                exhausted: tag_reason(d.u8()?)?,
                trace_id: d.u64()?,
            },
            REP_STREAM_APPLIED => Reply::StreamApplied {
                found: get_vertices(&mut d)?,
                ops_applied: d.u64()?,
                trace_id: d.u64()?,
            },
            REP_STREAM_MATCHES => Reply::StreamMatches {
                matches: get_pairs(&mut d)?,
                ops_applied: d.u64()?,
            },
            REP_METRICS => Reply::Metrics {
                json: d.str()?.to_owned(),
            },
            REP_PONG => Reply::Pong,
            REP_SHUTTING_DOWN => Reply::ShuttingDown,
            REP_BUSY => Reply::Busy {
                queue_depth: d.u32()?,
                trace_id: d.u64()?,
            },
            REP_ERROR => Reply::Error {
                code: d.u32()?,
                message: d.str()?.to_owned(),
            },
            REP_TRACE => Reply::Trace {
                trace_id: d.u64()?,
                events: get_events(&mut d)?,
            },
            REP_FLIGHT => Reply::Flight {
                records: get_flight_records(&mut d)?,
            },
            REP_EXPO => Reply::Expo {
                text: d.str()?.to_owned(),
            },
            REP_HEALTH => Reply::Health {
                state: d.u8()?,
                reason: d.str()?.to_owned(),
                since_ms: d.u64()?,
            },
            REP_UNAVAILABLE => Reply::Unavailable {
                reason: d.str()?.to_owned(),
                retry_after_ms: d.u64()?,
                trace_id: d.u64()?,
            },
            tag => {
                return Err(CodecError {
                    offset: 4,
                    message: format!("bad reply tag {tag:#04x}"),
                })
            }
        };
        d.finish()?;
        Ok(reply)
    }
}

// ---------------------------------------------------------------------
// Frame transport over a byte stream
// ---------------------------------------------------------------------

/// What went wrong reading one message off a connection. Mirrors the
/// store's torn-vs-corrupt distinction at the transport level.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The connection died mid-frame — the message never completed
    /// (the transport analogue of a torn WAL tail).
    Torn,
    /// A structurally complete frame failed validation — bytes arrived
    /// but cannot be trusted.
    Corrupt(String),
    /// The underlying socket read/write failed (includes timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Torn => write!(f, "connection died mid-message"),
            WireError::Corrupt(m) => write!(f, "corrupt message: {m}"),
            // A socket read timeout surfaces as `WouldBlock` on Unix and
            // `TimedOut` elsewhere; either way the reply did not come.
            WireError::Io(e)
                if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) =>
            {
                write!(f, "timed out waiting for the server")
            }
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes `payload` as one checksummed frame.
pub fn write_message(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    her_store::frame::write_frame(&mut buf, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Fills `buf` from `r`, distinguishing a clean close (`Ok(0)` before any
/// byte) from a mid-buffer close.
fn read_exact_or_close(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return if filled == 0 { Ok(false) } else { Err(WireError::Torn) },
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(true)
}

/// The most a frame buffer grows by before the bytes that fill it have
/// arrived.
const READ_CHUNK: usize = 64 * 1024;

/// Reads one framed message, validating the checksum. A close at a frame
/// boundary is [`WireError::Closed`]; mid-frame is [`WireError::Torn`]; a
/// failed checksum or impossible length is [`WireError::Corrupt`].
pub fn read_message(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_close(r, &mut header)? {
        return Err(WireError::Closed);
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Corrupt(format!("impossible frame length {len}")));
    }
    // The length is the peer's claim: grow the buffer only as the body
    // arrives, so a header promising `MAX_FRAME_LEN` and then stalling or
    // closing costs one chunk, not the claim.
    let total = FRAME_HEADER_LEN + len;
    let mut whole = Vec::with_capacity(total.min(FRAME_HEADER_LEN + READ_CHUNK));
    whole.extend_from_slice(&header);
    while whole.len() < total {
        let filled = whole.len();
        whole.resize(filled + (total - filled).min(READ_CHUNK), 0);
        if !read_exact_or_close(r, &mut whole[filled..])? {
            return Err(WireError::Torn);
        }
    }
    // Validate through the store's parser so the checksum/length story is
    // byte-for-byte the one snapshots and the WAL already test.
    let mut frames = Frames::new(&whole);
    match frames.next_frame() {
        FrameEvent::Frame(payload) => Ok(payload.to_vec()),
        FrameEvent::Corrupt { message, .. } => Err(WireError::Corrupt(message)),
        FrameEvent::Eof | FrameEvent::TornTail { .. } => Err(WireError::Torn),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_socket_timeout_reads_as_a_timeout() {
        use std::io::{Error, ErrorKind};
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            let e = WireError::Io(Error::from(kind));
            assert_eq!(e.to_string(), "timed out waiting for the server", "{kind:?}");
        }
        let refused = WireError::Io(Error::from(ErrorKind::ConnectionRefused));
        assert!(refused.to_string().starts_with("transport error: "), "{refused}");
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Vpair {
                tuple: TupleRef::new(0, 7),
                max_calls: 1000,
                deadline_ms: 250,
            },
            Request::Apair {
                max_calls: 0,
                deadline_ms: 0,
            },
            Request::StreamProcess {
                tuple: TupleRef::new(1, 2),
                session: 3,
            },
            Request::StreamRetract {
                vertex: VertexId(9),
                session: 0,
            },
            Request::StreamMatches { session: 7 },
            Request::Metrics,
            Request::Ping,
            Request::Shutdown,
            Request::Trace { trace_id: 42 },
            Request::Flight,
            Request::Expo,
            Request::Health,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        vec![
            Reply::Vpair {
                matches: vec![VertexId(1), VertexId(4)],
                unresolved: vec![VertexId(9)],
                exhausted: Some(ExhaustReason::Deadline),
                trace_id: 17,
            },
            Reply::Apair {
                matches: vec![(TupleRef::new(0, 0), VertexId(3))],
                exhausted: None,
                trace_id: 18,
            },
            Reply::StreamApplied {
                found: vec![VertexId(3)],
                ops_applied: 12,
                trace_id: 19,
            },
            Reply::StreamMatches {
                matches: vec![(TupleRef::new(0, 1), VertexId(2))],
                ops_applied: 3,
            },
            Reply::Metrics {
                json: "{\"counters\":{}}".to_owned(),
            },
            Reply::Pong,
            Reply::ShuttingDown,
            Reply::Busy {
                queue_depth: 5,
                trace_id: 20,
            },
            Reply::Error {
                code: code::UNAVAILABLE,
                message: "shutting down".to_owned(),
            },
            Reply::Trace {
                trace_id: 42,
                events: vec![
                    Event {
                        at_us: 10,
                        kind: EventKind::Enter,
                        name: "serve.req".to_owned(),
                        detail: String::new(),
                        trace_id: 42,
                    },
                    Event {
                        at_us: 95,
                        kind: EventKind::Point,
                        name: "paramatch.exhausted".to_owned(),
                        detail: "deadline".to_owned(),
                        trace_id: 42,
                    },
                    Event {
                        at_us: 120,
                        kind: EventKind::Exit,
                        name: "serve.req".to_owned(),
                        detail: "elapsed_us=110".to_owned(),
                        trace_id: 42,
                    },
                ],
            },
            Reply::Flight {
                records: vec![FlightRecord {
                    trace_id: 42,
                    at_us: 120,
                    op: her_obs::flight::op::VPAIR,
                    queue_wait_us: 15,
                    exec_us: 95,
                    calls: 800,
                    cache_hits: 31,
                    shared_hits: 7,
                    exhaust: 2,
                    faults_seen: 1,
                    anomaly: her_obs::flight::anomaly::DEADLINE,
                    pool_wait_us: 4,
                }],
            },
            Reply::Expo {
                text: "# her-expo/v1\ncounter serve.requests 3\n".to_owned(),
            },
            Reply::Health {
                state: 1,
                reason: "wal append failed: injected fsync failure".to_owned(),
                since_ms: 1200,
            },
            Reply::Unavailable {
                reason: "read-only: wal append failed".to_owned(),
                retry_after_ms: 200,
                trace_id: 21,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn replies_round_trip() {
        for rep in sample_replies() {
            assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
        }
    }

    /// FNV-1a over every sample's encoding, each prefixed by its length:
    /// the v4 bytes of every message are pinned.
    fn digest(frames: impl IntoIterator<Item = Vec<u8>>) -> u64 {
        let fnv = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        frames.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, bytes| {
            let h = (bytes.len() as u32).to_le_bytes().iter().fold(h, fnv);
            bytes.iter().fold(h, fnv)
        })
    }

    #[test]
    fn v4_bytes_are_pinned() {
        let requests = digest(sample_requests().iter().map(Request::encode));
        let replies = digest(sample_replies().iter().map(Reply::encode));
        assert_eq!((requests, replies), (0x4ec5_7537_8296_57bb, 0x0fad_2c61_3e68_931d));
    }

    /// Every sample's encoding plus one flight dump's.
    fn sample_payloads() -> Vec<Vec<u8>> {
        let replies = sample_replies();
        let dump = replies.iter().find_map(|rep| match rep {
            Reply::Flight { records } => Some(crate::flight_dump::DumpRecord {
                record: records[0],
                events: Vec::new(),
            }),
            _ => None,
        });
        let requests = sample_requests().iter().map(Request::encode).collect::<Vec<_>>();
        let replies = replies.iter().map(Reply::encode);
        requests.into_iter().chain(replies).chain(dump.map(|d| d.encode())).collect()
    }

    proptest::proptest! {
        /// Decoding is total: arbitrary bytes — led by a valid request,
        /// reply or dump version word or not — and every sample with one
        /// byte changed never panic the request, reply or dump decoder.
        #[test]
        fn decoding_never_panics(
            mut bytes in proptest::prop::collection::vec(0u8..=255, 4..96),
            version in 0u32..3,
            flip in 1u8..=255,
        ) {
            if version > 0 {
                let word = [PROTO_VERSION, crate::flight_dump::DUMP_VERSION][version as usize - 1];
                bytes[..4].copy_from_slice(&word.to_le_bytes());
            }
            let decode_all = |b: &[u8]| {
                let _ = Request::decode(b);
                let _ = Reply::decode(b);
                let _ = crate::flight_dump::DumpRecord::decode(b);
            };
            decode_all(&bytes);
            for sample in sample_payloads() {
                for i in 0..sample.len() {
                    let mut mutated = sample.clone();
                    mutated[i] ^= flip;
                    decode_all(&mutated);
                }
            }
        }
    }

    /// Truncation at every offset errors cleanly — the decode path can
    /// face arbitrary attacker-controlled bytes and must never panic.
    #[test]
    fn truncated_payloads_error_not_panic() {
        for req in sample_requests() {
            let bytes = req.encode();
            for cut in 0..bytes.len() {
                assert!(Request::decode(&bytes[..cut]).is_err(), "cut={cut}");
            }
        }
        for rep in sample_replies() {
            let bytes = rep.encode();
            for cut in 0..bytes.len() {
                assert!(Reply::decode(&bytes[..cut]).is_err(), "cut={cut}");
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = Request::Ping.encode();
        bytes[0] = 99;
        let e = Request::decode(&bytes).unwrap_err();
        assert!(e.message.contains("v99"), "{e:?}");
        // One below the floor is rejected too, not silently defaulted.
        let mut bytes = Request::Ping.encode();
        bytes[0] = (PROTO_VERSION - 1) as u8;
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn idempotency_matrix() {
        use Request::*;
        let t = TupleRef::new(0, 0);
        for (req, idem) in [
            (Vpair { tuple: t, max_calls: 0, deadline_ms: 0 }, true),
            (Apair { max_calls: 0, deadline_ms: 0 }, true),
            (StreamMatches { session: 0 }, true),
            (Metrics, true),
            (Ping, true),
            (Trace { trace_id: 1 }, true),
            (Flight, true),
            (Expo, true),
            (Health, true),
            (StreamProcess { tuple: t, session: 0 }, false),
            (StreamRetract { vertex: VertexId(0), session: 0 }, false),
            (Shutdown, false),
        ] {
            assert_eq!(req.is_idempotent(), idem, "{req:?}");
        }
    }

    /// One message through an in-memory pipe: what `write_message` sends,
    /// `read_message` returns, and close/torn/garble classify correctly.
    #[test]
    fn wire_round_trip_and_failure_classes() {
        let payload = Request::Metrics.encode();
        let mut buf = Vec::new();
        write_message(&mut buf, &payload).unwrap();

        let mut r = &buf[..];
        assert_eq!(read_message(&mut r).unwrap(), payload);
        assert!(matches!(read_message(&mut r), Err(WireError::Closed)));

        // Every proper prefix is Torn (or Closed for the empty prefix).
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_message(&mut r), Err(WireError::Torn)),
                "cut={cut}"
            );
        }

        // A payload bit flip is Corrupt, never a wrong message.
        for byte in FRAME_HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x10;
            let mut r = &bad[..];
            assert!(
                matches!(read_message(&mut r), Err(WireError::Corrupt(_))),
                "flip at {byte}"
            );
        }
    }
}
