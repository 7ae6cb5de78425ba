//! The linking service client: one kept-alive connection, with
//! idempotency-aware retry.
//!
//! Connections (DESIGN.md §4h): a request goes out on the connection the
//! previous one was answered on, as long as that reply arrived whole —
//! `Busy`, `Unavailable` and `Error` replies included, since the server
//! answered and the frame stream is in step. Any transport failure drops
//! the connection and the next attempt connects afresh, so a late or
//! garbled reply is never read as the answer to a later request. Before
//! a kept connection is reused, a non-blocking peek checks that the
//! server has not closed it; one it closed (a restart, a shutdown) is
//! replaced before the request is written.
//!
//! Retry policy (DESIGN.md §4h has the full matrix):
//!
//! * `Busy` is retryable for **every** request kind — shedding happens
//!   before execution, so a shed mutation provably did not run.
//! * `Unavailable` (the server is read-only degraded) is likewise
//!   retryable for every kind: the rejection is issued before any
//!   journaling, so nothing was applied. The server's `retry_after_ms`
//!   hint is honored as a backoff floor — the service may self-heal.
//! * Transport failures (connect refused, timeout, torn or corrupt
//!   reply) are retryable only for idempotent requests. A stream
//!   mutation whose reply was lost may or may not have been journaled;
//!   blindly retrying could apply it twice, so the error surfaces to
//!   the caller instead.
//! * Remote errors carried in a well-formed `Reply::Error` are never
//!   retried: the server answered; trying again cannot change a usage
//!   or data error.
//!
//! Backoff is exponential with deterministic seeded jitter so tests and
//! drills reproduce byte-for-byte.

use crate::proto::{self, read_message, Reply, Request, WireError};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::Duration;

/// Retry schedule for one [`Client`].
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = never retry.
    pub attempts: u32,
    /// Base backoff before the second attempt, in milliseconds.
    pub base_ms: u64,
    /// Backoff ceiling, in milliseconds.
    pub cap_ms: u64,
    /// Jitter seed; the same seed yields the same sleep sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 20,
            cap_ms: 1_000,
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// The sleep before attempt `attempt` (1-based over retries):
    /// `min(cap, base · 2^(attempt-1))`, jittered to 50–150% through
    /// the shared capped-exponential core ([`crate::backoff`]).
    fn backoff(&self, attempt: u32, jitter: &mut u64) -> Duration {
        Duration::from_millis(crate::backoff::jittered_ms(
            self.base_ms,
            attempt,
            self.cap_ms,
            jitter,
        ))
    }
}

/// Why a request ultimately failed (after retries, where permitted).
#[derive(Debug)]
pub enum ClientError {
    /// The service shed the request, went away mid-request, or never
    /// answered — retry later with backoff (the client already retried
    /// where the idempotency matrix allows).
    Unavailable(String),
    /// The reply arrived but was torn or failed its checksum, and the
    /// request must not be retried blindly (a non-idempotent mutation
    /// may have been applied).
    Data(String),
    /// The server answered with a taxonomized error.
    Remote {
        /// `proto::code` constant (1 data, 2 usage, 3 exhausted, 4 unavailable).
        code: u32,
        /// Human-readable cause from the server.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Unavailable(m) => write!(f, "service unavailable: {m}"),
            ClientError::Data(m) => write!(f, "reply unusable: {m}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A client for one server address over one kept-alive connection. The
/// connection is kept only after a whole, decodable reply; a timeout, a
/// torn or corrupt frame, an undecodable reply or a failed write drops
/// it, so a torn stream never poisons the next try. A connection the
/// server has closed since its last reply is noticed by a non-blocking
/// peek and replaced before the next request is written.
pub struct Client {
    addr: String,
    /// Connect/read/write timeout per attempt.
    pub timeout: Duration,
    /// Retry schedule.
    pub retry: RetryPolicy,
    jitter: u64,
    /// The connection the last whole reply arrived on.
    conn: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` with default timeout (5s) and retries.
    pub fn new(addr: impl Into<String>) -> Self {
        let retry = RetryPolicy::default();
        Client {
            addr: addr.into(),
            timeout: Duration::from_secs(5),
            retry,
            jitter: retry.seed | 1,
            conn: None,
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Replaces the retry policy (and reseeds the jitter stream).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self.jitter = retry.seed | 1;
        self
    }

    /// Sends `req`, retrying per the idempotency matrix, and returns the
    /// server's reply. `Reply::Error` and `Reply::Busy` never escape:
    /// they are mapped to [`ClientError`] after retries are exhausted.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let mut last: Option<ClientError> = None;
        // Floor under the policy backoff, set from the server's
        // `retry_after_ms` hint when it answers `Unavailable`.
        let mut floor = Duration::ZERO;
        for attempt in 0..self.retry.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.retry.backoff(attempt, &mut self.jitter).max(floor));
            }
            match self.attempt(req) {
                Ok(Reply::Busy { queue_depth, .. }) => {
                    // Shed before execution: retryable for every kind.
                    last = Some(ClientError::Unavailable(format!(
                        "server busy (queue depth {queue_depth})"
                    )));
                }
                Ok(Reply::Unavailable {
                    reason,
                    retry_after_ms,
                    ..
                }) => {
                    // Rejected before execution — nothing was journaled,
                    // so even a mutation is safe to retry; the server
                    // may heal within its own `retry_after_ms` hint.
                    floor = Duration::from_millis(retry_after_ms);
                    last = Some(ClientError::Unavailable(reason));
                }
                Ok(Reply::Error { code, message }) => {
                    return Err(ClientError::Remote { code, message });
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    let retryable = req.is_idempotent();
                    let err = match e {
                        WireError::Corrupt(m) if !retryable => ClientError::Data(format!(
                            "corrupt reply to a non-idempotent request: {m}"
                        )),
                        WireError::Torn if !retryable => ClientError::Data(
                            "torn reply to a non-idempotent request".to_owned(),
                        ),
                        other if !retryable => ClientError::Unavailable(format!(
                            "{other} (not retried: request is not idempotent)"
                        )),
                        other => ClientError::Unavailable(other.to_string()),
                    };
                    if !retryable {
                        return Err(err);
                    }
                    last = Some(err);
                }
            }
        }
        Err(last.unwrap_or_else(|| {
            ClientError::Unavailable("no attempts configured".to_owned())
        }))
    }

    /// One wire round trip: on the kept connection while the server has
    /// not closed it, else on a fresh one. Every error path drops the
    /// connection; only a whole, decodable reply puts it back.
    fn attempt(&mut self, req: &Request) -> Result<Reply, WireError> {
        let mut stream = match self.conn.take().filter(idle_and_open) {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(&self.addr).map_err(WireError::Io)?;
                stream.set_nodelay(true).map_err(WireError::Io)?;
                stream
            }
        };
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(WireError::Io)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(WireError::Io)?;
        proto::write_message(&mut stream, &req.encode()).map_err(WireError::Io)?;
        let payload = read_message(&mut stream)?;
        let reply = Reply::decode(&payload).map_err(|e| WireError::Corrupt(e.to_string()))?;
        self.conn = Some(stream);
        Ok(reply)
    }
}

/// True when the server has not closed `stream` since its last reply. No
/// reply is owed on a kept connection, so a non-blocking peek must find
/// nothing to read: end of stream, stray bytes or an error all mean the
/// next request needs a fresh connection.
fn idle_and_open(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let idle = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    idle && stream.set_nonblocking(false).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let policy = RetryPolicy {
            attempts: 6,
            base_ms: 20,
            cap_ms: 100,
            seed: 9,
        };
        let seq = || -> Vec<Duration> {
            let mut jitter = policy.seed | 1;
            (1..6).map(|a| policy.backoff(a, &mut jitter)).collect()
        };
        assert_eq!(seq(), seq(), "jitter not deterministic");
        for (i, d) in seq().iter().enumerate() {
            // 50–150% of min(cap, base·2^i).
            let nominal = (20u64 << i).min(100);
            assert!(d.as_millis() as u64 >= nominal / 2, "attempt {i} too short");
            assert!(d.as_millis() as u64 <= nominal * 3 / 2, "attempt {i} too long");
        }
    }

    #[test]
    fn connect_refused_is_unavailable_and_mutations_do_not_retry() {
        // Port 1 on localhost refuses immediately on any sane test host.
        let mut c = Client::new("127.0.0.1:1").with_retry(RetryPolicy {
            attempts: 3,
            base_ms: 1,
            cap_ms: 2,
            seed: 5,
        });
        let err = c.request(&Request::Ping).expect_err("no server listening");
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");
        // Non-idempotent: must fail fast on the first transport error.
        let start = std::time::Instant::now();
        let err = c
            .request(&Request::StreamRetract {
                vertex: her_graph::VertexId(0),
                session: crate::proto::DEFAULT_SESSION,
            })
            .expect_err("no server listening");
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "mutation appears to have been retried"
        );
    }

    /// A reply that arrives after the client gave up on its request is
    /// never read as the answer to the next one: the timed-out connection
    /// is dropped and the next request goes out on a fresh connection.
    #[test]
    fn a_late_reply_is_never_read_as_the_next_requests_answer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let timeout = Duration::from_millis(200);
        // The peer answers a Vpair with the tuple's row as its trace id:
        // row 1 only after the client's timeout, but before a request
        // sent at that timeout would itself time out.
        let peer = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for stream in listener.incoming().take(2) {
                    let mut stream = stream.expect("accept");
                    scope.spawn(move || {
                        while let Ok(payload) = read_message(&mut stream) {
                            let Ok(Request::Vpair { tuple, .. }) = Request::decode(&payload) else {
                                return;
                            };
                            if tuple.row == 1 {
                                std::thread::sleep(timeout * 3 / 2);
                            }
                            let reply = Reply::Vpair {
                                matches: Vec::new(),
                                unresolved: Vec::new(),
                                exhausted: None,
                                trace_id: u64::from(tuple.row),
                            };
                            if proto::write_message(&mut stream, &reply.encode()).is_err() {
                                return;
                            }
                        }
                    });
                }
            });
        });
        let mut c = Client::new(addr).with_retry(RetryPolicy {
            attempts: 1,
            ..RetryPolicy::default()
        });
        c.timeout = timeout;
        let vpair = |row| Request::Vpair {
            tuple: her_rdb::TupleRef::new(0, row),
            max_calls: 0,
            deadline_ms: 0,
        };
        let err = c
            .request(&vpair(1))
            .expect_err("request 1 outlived the timeout");
        assert!(matches!(err, ClientError::Unavailable(_)), "{err:?}");
        match c.request(&vpair(2)).expect("request 2") {
            Reply::Vpair { trace_id, .. } => {
                assert_eq!(trace_id, 2, "request 2 was answered with request 1's reply")
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        drop(c);
        peer.join().expect("peer thread panicked");
    }
}
