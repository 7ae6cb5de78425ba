//! Seeded inputs other than the dataset: which tuples a repetition
//! reads, each client's request script, the ingest order and the
//! retraction picks. Equal seeds give equal scripts.

use her_graph::VertexId;
use her_rdb::TupleRef;

/// SplitMix64: small, seedable and good enough to pick keys.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `k` distinct items of `items` in seeded order (all of them when `k` is larger).
pub fn sample<T: Copy>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    Rng::new(seed).shuffle(&mut v);
    v.truncate(k);
    v
}

/// One scripted request of the read workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadReq {
    Ping,
    Vpair(TupleRef),
}

/// The hot set: the tuples 80 % of the scripted VPairs ask for.
pub fn hot_set(persons: &[TupleRef], size: usize, seed: u64) -> Vec<TupleRef> {
    sample(persons, size, seed ^ 0x686f_7473)
}

/// One client's script for one repetition: 95 % `Vpair`, 5 % `Ping`;
/// 80 % of the VPairs go to `hot`, 20 % uniformly to all `persons`.
pub fn read_script(
    persons: &[TupleRef],
    hot: &[TupleRef],
    len: usize,
    seed: u64,
    client: u64,
    repetition: u64,
) -> Vec<ReadReq> {
    let mut rng = Rng::new(seed ^ (client << 48) ^ (repetition << 32) ^ 0x7265_6164);
    (0..len)
        .map(|_| {
            if rng.below(100) < 5 {
                ReadReq::Ping
            } else if rng.below(100) < 80 {
                ReadReq::Vpair(hot[rng.below(hot.len())])
            } else {
                ReadReq::Vpair(persons[rng.below(persons.len())])
            }
        })
        .collect()
}

/// The order in which a stream session ingests the person tuples.
pub fn ingest_order(persons: &[TupleRef], seed: u64) -> Vec<TupleRef> {
    sample(persons, persons.len(), seed ^ 0x696e_6773)
}

/// The quarter of the matched vertices (in first-match order, without
/// repeats) a session retracts after ingesting.
pub fn retract_picks(matched: &[VertexId], seed: u64) -> Vec<VertexId> {
    sample(matched, matched.len() / 4, seed ^ 0x7265_7472)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn persons(n: u32) -> Vec<TupleRef> {
        (0..n).map(|row| TupleRef { relation: 1, row }).collect()
    }

    #[test]
    fn equal_seeds_give_equal_scripts_and_different_seeds_differ() {
        let p = persons(200);
        let hot = hot_set(&p, 50, 9);
        assert_eq!(hot, hot_set(&p, 50, 9));
        assert_ne!(hot, hot_set(&p, 50, 10));
        let a = read_script(&p, &hot, 500, 9, 0, 1);
        assert_eq!(a, read_script(&p, &hot, 500, 9, 0, 1));
        assert_ne!(a, read_script(&p, &hot, 500, 10, 0, 1));
        assert_ne!(
            a,
            read_script(&p, &hot, 500, 9, 1, 1),
            "clients share a script"
        );
        assert_ne!(
            a,
            read_script(&p, &hot, 500, 9, 0, 2),
            "repetitions share a script"
        );
        assert_eq!(ingest_order(&p, 3), ingest_order(&p, 3));
        assert_ne!(ingest_order(&p, 3), ingest_order(&p, 4));
    }

    #[test]
    fn read_script_has_the_stated_mix() {
        let p = persons(1000);
        let hot = hot_set(&p, 50, 1);
        let script = read_script(&p, &hot, 20_000, 1, 0, 0);
        let pings = script.iter().filter(|r| **r == ReadReq::Ping).count();
        let hot_hits = script
            .iter()
            .filter(|r| matches!(r, ReadReq::Vpair(t) if hot.contains(t)))
            .count();
        let vpairs = script.len() - pings;
        assert!((800..1200).contains(&pings), "{pings} pings of 20000");
        let share = hot_hits as f64 / vpairs as f64;
        assert!((0.78..0.84).contains(&share), "hot share {share}");
    }

    #[test]
    fn samples_are_distinct_and_retractions_are_a_quarter() {
        let p = persons(100);
        let mut s = sample(&p, 40, 5);
        assert_eq!(s.len(), 40);
        s.sort();
        s.dedup();
        assert_eq!(s.len(), 40);
        let vs: Vec<VertexId> = (0..41).map(VertexId).collect();
        assert_eq!(retract_picks(&vs, 2).len(), 10);
        assert_eq!(retract_picks(&vs, 2), retract_picks(&vs, 2));
    }
}
