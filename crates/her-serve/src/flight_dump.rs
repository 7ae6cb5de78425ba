//! Durable flight-recorder dumps: the post-mortem that survives restart.
//!
//! When a request trips an anomaly trigger (shed, deadline exhaustion,
//! decode error, or rolling-p99 latency — see `her_obs::flight`), the
//! server appends one [`DumpRecord`] — the request's [`FlightRecord`]
//! plus its buffered trace events — to the configured dump file. Each
//! dump is one `her-store` checksummed frame, so the file inherits the
//! store's validation story: a crash mid-append leaves a torn tail that
//! [`read_dumps`] skips, and a flipped bit is detected rather than
//! trusted. `her-cli trace <id> --dump <file>` reconstructs a request's
//! span breakdown from this file with no server running.

use her_obs::{Event, FlightRecord};
use her_store::frame::{write_frame, FrameEvent, Frames};
use her_store::{CodecError, Dec, Enc};
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use crate::proto::{get_events, get_flight_record, put_events, put_flight_record};

/// Dump payload version; bumped on any incompatible layout change.
/// v2 added `pool_wait_us` to the embedded flight record.
pub const DUMP_VERSION: u32 = 2;

/// One anomalous request, as persisted: the flight record plus every
/// trace event that carried its id when the anomaly fired.
#[derive(Clone, Debug, PartialEq)]
pub struct DumpRecord {
    /// The per-request flight record (anomaly bits set).
    pub record: FlightRecord,
    /// The request's span/event breakdown (empty when the request was
    /// not sampled).
    pub events: Vec<Event>,
}

impl DumpRecord {
    /// Serializes this dump as one frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u32(DUMP_VERSION);
        put_flight_record(&mut e, &self.record);
        put_events(&mut e, &self.events);
        e.into_bytes()
    }

    /// Decodes a frame payload written by [`DumpRecord::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let version = d.u32()?;
        if version != DUMP_VERSION {
            return Err(CodecError {
                offset: 0,
                message: format!("flight dump v{version} (this build speaks v{DUMP_VERSION})"),
            });
        }
        let record = get_flight_record(&mut d)?;
        let events = get_events(&mut d)?;
        d.finish()?;
        Ok(DumpRecord { record, events })
    }
}

/// Appends one dump as a checksummed frame, flushing before returning.
/// Failures are the caller's to count (`flight.dump_failures`) — a
/// failed dump must never take the serving path down with it.
pub fn append_dump(path: &Path, dump: &DumpRecord) -> std::io::Result<()> {
    let mut buf = Vec::new();
    write_frame(&mut buf, &dump.encode());
    // The dump file is a diagnostics sink outside the durability domain:
    // a failed dump is counted and dropped, never retried or trusted.
    #[allow(clippy::disallowed_methods, reason = "diagnostics-only sink, not storage-fault-domain state")]
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(&buf)?;
    f.flush()
}

/// Reads every valid dump from `path`, oldest first. A torn tail (the
/// process died mid-append) ends the scan cleanly; a corrupt frame or
/// undecodable payload is skipped and reported in the second component
/// so a post-mortem knows the file was damaged.
pub fn read_dumps(path: &Path) -> std::io::Result<(Vec<DumpRecord>, Vec<String>)> {
    let bytes = std::fs::read(path)?;
    let mut dumps = Vec::new();
    let mut damage = Vec::new();
    let mut frames = Frames::new(&bytes);
    loop {
        match frames.next_frame() {
            FrameEvent::Frame(payload) => match DumpRecord::decode(payload) {
                Ok(d) => dumps.push(d),
                Err(e) => damage.push(format!("undecodable dump: {}", e.message)),
            },
            FrameEvent::Corrupt { message, .. } => {
                damage.push(format!("corrupt dump frame: {message}"));
                // Frames::next_frame cannot resync past corruption (the
                // length prefix is untrusted); stop like a torn tail.
                break;
            }
            FrameEvent::TornTail { .. } | FrameEvent::Eof => break,
        }
    }
    Ok((dumps, damage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use her_obs::flight::{anomaly, op};
    use her_obs::EventKind;

    fn sample(id: u64) -> DumpRecord {
        DumpRecord {
            record: FlightRecord {
                trace_id: id,
                at_us: 400,
                op: op::VPAIR,
                queue_wait_us: 120,
                exec_us: 260,
                calls: 5000,
                cache_hits: 12,
                shared_hits: 3,
                exhaust: 2,
                faults_seen: 0,
                anomaly: anomaly::DEADLINE,
                pool_wait_us: 35,
            },
            events: vec![
                Event {
                    at_us: 140,
                    kind: EventKind::Enter,
                    name: "serve.req".to_owned(),
                    detail: String::new(),
                    trace_id: id,
                },
                Event {
                    at_us: 400,
                    kind: EventKind::Exit,
                    name: "serve.req".to_owned(),
                    detail: "elapsed_us=260".to_owned(),
                    trace_id: id,
                },
            ],
        }
    }

    /// FNV-1a of one dump's bytes, pinned so the on-disk layout cannot
    /// drift while dumps written by earlier builds are still read.
    #[test]
    fn dump_bytes_are_pinned() {
        let fnv = sample(7).encode().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(fnv, 0x3b07_575a_165c_5692);
    }

    #[test]
    fn roundtrip_through_file() {
        let dir = std::env::temp_dir().join(format!("her-dump-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.hlog");
        let _ = std::fs::remove_file(&path);
        for id in 1..=3 {
            append_dump(&path, &sample(id)).unwrap();
        }
        let (dumps, damage) = read_dumps(&path).unwrap();
        assert!(damage.is_empty(), "{damage:?}");
        assert_eq!(dumps.len(), 3);
        assert_eq!(dumps[1], sample(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_skipped_cleanly() {
        let dir = std::env::temp_dir().join(format!("her-dump-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.hlog");
        let _ = std::fs::remove_file(&path);
        append_dump(&path, &sample(1)).unwrap();
        append_dump(&path, &sample(2)).unwrap();
        // Tear the last append mid-frame, as a crash would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let (dumps, damage) = read_dumps(&path).unwrap();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].record.trace_id, 1);
        assert!(damage.is_empty(), "a torn tail is expected, not damage");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_reported_not_trusted() {
        let dir = std::env::temp_dir().join(format!("her-dump-flip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.hlog");
        let _ = std::fs::remove_file(&path);
        append_dump(&path, &sample(1)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (dumps, damage) = read_dumps(&path).unwrap();
        assert!(dumps.is_empty());
        assert_eq!(damage.len(), 1, "{damage:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
