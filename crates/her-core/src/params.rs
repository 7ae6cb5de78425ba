//! The parameters of parametric simulation: score functions `(h_v, h_ρ,
//! h_r)` and thresholds `(σ, δ, k)` (§III).

use her_embed::{PathSimModel, SentenceModel, TopKRanker};

/// Thresholds `(σ, δ, k)`.
///
/// - `σ` bounds the vertex-label closeness `h_v`;
/// - `δ` bounds the aggregate path-association score of a lineage set;
/// - `k` caps how many important descendants `h_r` selects per vertex.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Vertex closeness bound for `h_v` (in `[0, 1]`).
    pub sigma: f32,
    /// Aggregate association bound for lineage sets.
    pub delta: f32,
    /// Number of top descendants considered per vertex.
    pub k: usize,
}

impl Default for Thresholds {
    /// The paper's default evaluation setting: `σ=0.8, δ=2.1, k=20` (§VII).
    fn default() -> Self {
        Self {
            sigma: 0.8,
            delta: 2.1,
            k: 20,
        }
    }
}

impl Thresholds {
    /// Convenience constructor.
    pub fn new(sigma: f32, delta: f32, k: usize) -> Self {
        assert!((0.0..=1.0).contains(&sigma), "σ must be in [0,1]");
        assert!(delta >= 0.0, "δ must be non-negative");
        assert!(k >= 1, "k must be positive");
        Self { sigma, delta, k }
    }
}

/// The full parameter bundle handed to the matching algorithms.
pub struct Params {
    /// `M_v`: vertex-label similarity model behind `h_v`.
    pub mv: SentenceModel,
    /// `M_ρ`: path-association model behind `h_ρ`.
    pub mrho: PathSimModel,
    /// `h_r`: top-k descendant ranking function (wraps `M_r` and PRA).
    pub ranker: TopKRanker,
    /// `(σ, δ, k)`.
    pub thresholds: Thresholds,
}

impl Params {
    /// Bundles the models with thresholds.
    pub fn new(
        mv: SentenceModel,
        mrho: PathSimModel,
        ranker: TopKRanker,
        thresholds: Thresholds,
    ) -> Self {
        Self {
            mv,
            mrho,
            ranker,
            thresholds,
        }
    }

    /// Fresh untrained parameters with `dim`-dimensional embeddings and
    /// default thresholds — useful for tests and as the starting point of
    /// the Learn module.
    pub fn untrained(dim: usize, seed: u64) -> Self {
        Self {
            mv: SentenceModel::new(dim),
            mrho: PathSimModel::new(dim, seed),
            ranker: TopKRanker::new(her_embed::PathLm::new()),
            thresholds: Thresholds::default(),
        }
    }

    /// Returns a copy with different thresholds (models shared by clone).
    pub fn with_thresholds(&self, thresholds: Thresholds) -> Params
    where
        SentenceModel: Clone,
        PathSimModel: Clone,
        TopKRanker: Clone,
    {
        Params {
            mv: self.mv.clone(),
            mrho: self.mrho.clone(),
            ranker: self.ranker.clone(),
            thresholds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_match_paper() {
        let t = Thresholds::default();
        assert_eq!(t.sigma, 0.8);
        assert_eq!(t.delta, 2.1);
        assert_eq!(t.k, 20);
    }

    #[test]
    fn constructor_validates() {
        let t = Thresholds::new(0.7, 1.5, 5);
        assert_eq!(t.k, 5);
    }

    #[test]
    #[should_panic(expected = "σ")]
    fn sigma_out_of_range_panics() {
        let _ = Thresholds::new(1.5, 1.0, 5);
    }

    #[test]
    #[should_panic(expected = "k")]
    fn zero_k_panics() {
        let _ = Thresholds::new(0.5, 1.0, 0);
    }

    #[test]
    fn with_thresholds_overrides_only_thresholds() {
        let p = Params::untrained(16, 1);
        let q = p.with_thresholds(Thresholds::new(0.5, 1.0, 3));
        assert_eq!(q.thresholds.k, 3);
        assert_eq!(p.thresholds.k, 20);
        // Models behave identically after the copy.
        assert_eq!(p.mv.similarity("a", "b"), q.mv.similarity("a", "b"));
    }
}
