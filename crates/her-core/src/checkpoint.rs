//! Serializable checkpoint state for [`Matcher`](crate::Matcher).
//!
//! A [`MatcherCheckpoint`] captures exactly the state that cannot be
//! re-derived from the inputs: the verdict `cache` with its lineage sets,
//! the border/assumption bookkeeping of the parallel engine, the sticky
//! exhaustion flag and the stats counters. Derived memos (`ecache`
//! selections, both score tiers — the private pair memo and the
//! [`SharedScores`](crate::SharedScores) layer) are deliberately *not*
//! checkpointed — they re-fill on demand and only affect speed, never
//! verdicts. A restored matcher adopts the shared layer's *current*
//! invalidation generation, so a snapshot taken before a fine-tune
//! round restores against the post-fine-tune models without ever
//! serving stale scores.
//!
//! The byte format is the explicit little-endian [`her_store::codec`];
//! entries are sorted so the same matcher state always serializes to the
//! same bytes (checkpoint determinism is what makes "resumed run equals
//! uninterrupted run" testable bit-for-bit).

use crate::paramatch::{ExhaustReason, MatchStats, PairKey};
use her_graph::VertexId;
use her_store::{CodecError, Dec, Enc};

const VERSION: u32 = 1;

/// One cached verdict: the pair, its validity, and its lineage set.
pub type CheckpointEntry = (PairKey, bool, Vec<PairKey>);

/// Snapshot of a [`Matcher`](crate::Matcher)'s durable state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MatcherCheckpoint {
    /// Cached verdicts, sorted by pair for deterministic bytes.
    pub entries: Vec<CheckpointEntry>,
    /// Border vertices of `G` (parallel fragments), sorted; `None` when
    /// the matcher runs without fragment borders.
    pub border: Option<Vec<VertexId>>,
    /// Border pairs assumed valid but not yet drained by the engine.
    pub new_assumptions: Vec<PairKey>,
    /// Sticky budget-exhaustion state.
    pub exhausted: Option<ExhaustReason>,
    /// Monotone work counters.
    pub stats: MatchStats,
}

fn put_pair(e: &mut Enc, (u, v): PairKey) {
    e.put_u32(u.0).put_u32(v.0);
}

fn get_pair(d: &mut Dec<'_>) -> Result<PairKey, CodecError> {
    Ok((VertexId(d.u32()?), VertexId(d.u32()?)))
}

fn reason_tag(r: Option<ExhaustReason>) -> u8 {
    match r {
        None => 0,
        Some(ExhaustReason::Calls) => 1,
        Some(ExhaustReason::Deadline) => 2,
        Some(ExhaustReason::CacheCapacity) => 3,
        Some(ExhaustReason::Cancelled) => 4,
    }
}

fn tag_reason(tag: u8, at: usize) -> Result<Option<ExhaustReason>, CodecError> {
    Ok(match tag {
        0 => None,
        1 => Some(ExhaustReason::Calls),
        2 => Some(ExhaustReason::Deadline),
        3 => Some(ExhaustReason::CacheCapacity),
        4 => Some(ExhaustReason::Cancelled),
        b => {
            return Err(CodecError {
                offset: at,
                message: format!("bad ExhaustReason tag {b:#04x}"),
            })
        }
    })
}

impl MatcherCheckpoint {
    /// Serializes to deterministic bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.put_u32(VERSION);
        e.put_u8(reason_tag(self.exhausted));
        e.put_u64(self.stats.calls)
            .put_u64(self.stats.cache_hits)
            .put_u64(self.stats.early_terminations)
            .put_u64(self.stats.cleanups)
            .put_u64(self.stats.ecache_hits);
        match &self.border {
            None => {
                e.put_bool(false);
            }
            Some(b) => {
                e.put_bool(true).put_u32(b.len() as u32);
                for v in b {
                    e.put_u32(v.0);
                }
            }
        }
        e.put_u32(self.new_assumptions.len() as u32);
        for &p in &self.new_assumptions {
            put_pair(&mut e, p);
        }
        e.put_u32(self.entries.len() as u32);
        for (pair, valid, deps) in &self.entries {
            put_pair(&mut e, *pair);
            e.put_bool(*valid).put_u32(deps.len() as u32);
            for &d in deps {
                put_pair(&mut e, d);
            }
        }
        e.into_bytes()
    }

    /// Decodes bytes written by [`MatcherCheckpoint::encode`]. Every read
    /// is bounds-checked; malformed input errors, never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Dec::new(bytes);
        let version = d.u32()?;
        if version != VERSION {
            return Err(CodecError {
                offset: 0,
                message: format!("matcher checkpoint v{version} (this build reads v{VERSION})"),
            });
        }
        let tag = d.u8()?;
        let exhausted = tag_reason(tag, 4)?;
        let stats = MatchStats {
            calls: d.u64()?,
            cache_hits: d.u64()?,
            early_terminations: d.u64()?,
            cleanups: d.u64()?,
            ecache_hits: d.u64()?,
        };
        let border = if d.bool()? {
            let n = d.u32()? as usize;
            let mut b = Vec::with_capacity(n.min(1 << 20));
            for _ in 0..n {
                b.push(VertexId(d.u32()?));
            }
            Some(b)
        } else {
            None
        };
        let n_assumed = d.u32()? as usize;
        let mut new_assumptions = Vec::with_capacity(n_assumed.min(1 << 20));
        for _ in 0..n_assumed {
            new_assumptions.push(get_pair(&mut d)?);
        }
        let n = d.u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let pair = get_pair(&mut d)?;
            let valid = d.bool()?;
            let n_deps = d.u32()? as usize;
            let mut deps = Vec::with_capacity(n_deps.min(1 << 20));
            for _ in 0..n_deps {
                deps.push(get_pair(&mut d)?);
            }
            entries.push((pair, valid, deps));
        }
        d.finish()?;
        Ok(MatcherCheckpoint {
            entries,
            border,
            new_assumptions,
            exhausted,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MatcherCheckpoint {
        let p = |a: u32, b: u32| (VertexId(a), VertexId(b));
        MatcherCheckpoint {
            entries: vec![
                (p(0, 0), true, vec![p(1, 1), p(2, 2)]),
                (p(1, 1), true, vec![p(2, 2)]),
                (p(2, 2), false, vec![]),
            ],
            border: Some(vec![VertexId(7), VertexId(9)]),
            new_assumptions: vec![p(3, 7)],
            exhausted: Some(ExhaustReason::Deadline),
            stats: MatchStats {
                calls: 10,
                cache_hits: 4,
                early_terminations: 1,
                cleanups: 2,
                ecache_hits: 3,
            },
        }
    }

    #[test]
    fn round_trips() {
        let ck = sample();
        let bytes = ck.encode();
        assert_eq!(MatcherCheckpoint::decode(&bytes).unwrap(), ck);
        let empty = MatcherCheckpoint::default();
        assert_eq!(
            MatcherCheckpoint::decode(&empty.encode()).unwrap(),
            empty
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample().encode(), sample().encode());
    }

    /// Truncation at every byte offset errors cleanly (no panic, no
    /// partial struct).
    #[test]
    fn truncation_never_panics() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                MatcherCheckpoint::decode(&bytes[..cut]).is_err(),
                "cut={cut}: truncated checkpoint accepted"
            );
        }
    }

    #[test]
    fn bad_reason_tag_is_an_error() {
        let mut bytes = sample().encode();
        bytes[4] = 0xAA; // the ExhaustReason tag byte
        assert!(MatcherCheckpoint::decode(&bytes).is_err());
    }
}
