//! Capped exponential backoff, shared by every retry loop in the crate.
//!
//! The client's reply retries ([`crate::client::RetryPolicy`]) and the
//! server's in-place WAL retries previously each carried their own
//! shift-guarded `base << (attempt - 1)` with different caps; this
//! module is the single overflow-free core plus the two seeded-jitter
//! flavors layered on it:
//!
//! * [`jittered_ms`] — multiplicative 50–150% jitter drawn from a
//!   caller-held xorshift64* stream (the client flavor: one stream per
//!   client, byte-for-byte reproducible from the seed);
//! * [`seeded_jitter_ms`] — additive `[0, base)` jitter derived
//!   statelessly from a stable seed such as a trace id (the server
//!   flavor: decorrelates concurrent retry storms with no RNG state).
//!
//! All three are total over every `(base, attempt, cap)` including
//! `attempt == 0` (treated as the first retry) and `attempt == u32::MAX`
//! (saturates at the cap): monotone in `attempt` up to the cap, never
//! above the cap, never panicking — property-tested below.

/// `min(cap_ms, base_ms · 2^(attempt−1))`, saturating. `attempt` is
/// 1-based over retries; 0 is tolerated and treated like 1, so a caller
/// counting attempts from zero cannot underflow the shift.
pub fn capped_exp_ms(base_ms: u64, attempt: u32, cap_ms: u64) -> u64 {
    // Shifts of 64+ are UB-adjacent; past 63 the multiply saturates
    // anyway, so clamping the shift loses nothing.
    let shift = attempt.saturating_sub(1).min(63);
    base_ms.saturating_mul(1u64 << shift).min(cap_ms)
}

/// [`capped_exp_ms`] jittered multiplicatively to 50–150%, advancing the
/// caller's xorshift64* `state` (seed it odd for a full-period stream).
/// Deterministic: the same `(policy, state)` sequence yields the same
/// sleeps, which is what lets drills reproduce byte-for-byte.
pub fn jittered_ms(base_ms: u64, attempt: u32, cap_ms: u64, state: &mut u64) -> u64 {
    let nominal = capped_exp_ms(base_ms, attempt, cap_ms);
    let roll = xorshift64_star(state) % 101; // 0..=100
    nominal.saturating_mul(50 + roll) / 100
}

/// One xorshift64* step: advances `state` and returns its scrambled
/// output. The crate's one generator — [`jittered_ms`] and the fault
/// plan's fate stream both draw from it; quality is irrelevant,
/// reproducibility is the point.
pub(crate) fn xorshift64_star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// [`capped_exp_ms`] plus stateless additive jitter in `[0, base_ms)`
/// derived from `seed` (a trace id, typically) through a splitmix-style
/// multiply — the same request backs off the same way on every run,
/// while concurrent requests spread out.
pub fn seeded_jitter_ms(base_ms: u64, attempt: u32, cap_ms: u64, seed: u64) -> u64 {
    let exp = capped_exp_ms(base_ms, attempt, cap_ms);
    if base_ms == 0 {
        return exp;
    }
    let jitter = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(attempt as u64)
        % base_ms;
    exp.saturating_add(jitter)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The property the two old copies guarded differently: monotone in
    /// `attempt` below the cap, never above the cap, and total for every
    /// attempt value including 0 and `u32::MAX`.
    #[test]
    fn capped_exp_is_monotone_capped_and_total() {
        let cases: &[(u64, u64)] = &[(0, 0), (1, 1), (20, 1_000), (5, 320), (1, u64::MAX), (u64::MAX, u64::MAX)];
        for &(base, cap) in cases {
            let mut prev = 0u64;
            for attempt in 0..=200u32 {
                let d = capped_exp_ms(base, attempt, cap);
                assert!(d <= cap, "base={base} cap={cap} attempt={attempt}: {d} above cap");
                assert!(d >= prev, "base={base} cap={cap} attempt={attempt}: not monotone");
                prev = d;
            }
            // The extremes neither panic nor dodge the cap.
            for attempt in [0, 1, 31, 32, 63, 64, 65, 1_000_000, u32::MAX] {
                assert!(capped_exp_ms(base, attempt, cap) <= cap);
            }
        }
        // attempt 0 behaves like the first retry, not an underflow.
        assert_eq!(capped_exp_ms(20, 0, 1_000), capped_exp_ms(20, 1, 1_000));
        assert_eq!(capped_exp_ms(20, 3, 1_000), 80);
        assert_eq!(capped_exp_ms(20, 60, 1_000), 1_000, "saturates at the cap");
    }

    #[test]
    fn multiplicative_jitter_stays_in_band_and_is_deterministic() {
        let run = || -> Vec<u64> {
            let mut state = 9u64 | 1;
            (0..40).map(|a| jittered_ms(20, a, 1_000, &mut state)).collect()
        };
        assert_eq!(run(), run(), "same seed must yield the same stream");
        let mut state = 0x5eed | 1;
        for attempt in 0..200u32 {
            let nominal = capped_exp_ms(20, attempt, 1_000);
            let d = jittered_ms(20, attempt, 1_000, &mut state);
            assert!(d >= nominal / 2, "attempt {attempt}: {d} below 50%");
            assert!(d <= nominal.saturating_mul(3) / 2, "attempt {attempt}: {d} above 150%");
        }
        // Total at the extremes.
        let mut state = 1;
        let _ = jittered_ms(u64::MAX, u32::MAX, u64::MAX, &mut state);
        let _ = jittered_ms(0, 0, 0, &mut state);
    }

    /// The first sleeps of a fixed stream, pinned: the xorshift64* step
    /// is shared with the fault plan's fate stream, and neither may move.
    #[test]
    fn jitter_stream_is_pinned() {
        let mut state = 0x5eed | 1;
        let sleeps: Vec<u64> = (1..=16).map(|a| jittered_ms(20, a, 1_000, &mut state)).collect();
        assert_eq!((sleeps, state), (
                vec![25, 60, 113, 84, 227, 403, 740, 550, 1120, 880, 820, 540, 860, 550, 650, 1220],
                0x5f4a_ad53_8542_55bd
            ));
    }

    #[test]
    fn additive_jitter_is_stateless_bounded_and_total() {
        for attempt in 0..100u32 {
            let exp = capped_exp_ms(5, attempt, 320);
            let d = seeded_jitter_ms(5, attempt, 320, 0xfeed);
            assert!(d >= exp && d < exp.saturating_add(5), "attempt {attempt}: {d}");
            // Stateless: same inputs, same answer.
            assert_eq!(d, seeded_jitter_ms(5, attempt, 320, 0xfeed));
        }
        // Different seeds decorrelate at least somewhere.
        let spread: std::collections::HashSet<u64> =
            (0..16u64).map(|s| seeded_jitter_ms(5, 1, 320, s)).collect();
        assert!(spread.len() > 1, "seed must influence the jitter");
        // Zero base must not divide by zero.
        assert_eq!(seeded_jitter_ms(0, 3, 100, 42), 0);
        let _ = seeded_jitter_ms(u64::MAX, u32::MAX, u64::MAX, u64::MAX);
    }
}
