//! # HER — Heterogeneous Entity Resolution
//!
//! A from-scratch Rust reproduction of *Linking Entities across Relations and
//! Graphs* (Fan, Geng, Jin, Lu, Tugay, Yu — ICDE 2022).
//!
//! HER links tuples `t` of a relational database `D` to vertices `v` of a
//! labeled directed graph `G` that denote the same real-world entity, using
//! **parametric simulation**: a recursive, score-parameterised topological
//! matching notion whose parameters (vertex/path similarity functions, a
//! descendant-ranking function, and thresholds `σ, δ, k`) are learned.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `her-graph` | CSR graphs, interned labels, paths, walks |
//! | [`rdb`] | `her-rdb` | relational schema/database + RDB2RDF canonical mapping |
//! | [`embed`] | `her-embed` | embedding + metric-learning + path-LM substrate |
//! | [`core`] | `her-core` | parametric simulation, SPair/VPair/APair, learning |
//! | [`obs`] | `her-obs` | structured tracing, metrics and run telemetry |
//! | [`parallel`] | `her-parallel` | BSP engine + parallel APair (PAllMatch) |
//! | [`store`] | `her-store` | checksummed snapshots + WAL for durable runs |
//! | [`serve`] | `her-serve` | always-on service: wire protocol, admission, warm restart |
//! | [`baselines`] | `her-baselines` | the paper's nine comparison methods |
//! | [`datagen`] | `her-datagen` | dataset emulators + synthetic scale generator |
//!
//! ## Quickstart
//!
//! ```
//! use her::prelude::*;
//!
//! // Build the paper's running example and link it.
//! let dataset = her::datagen::procurement::generate();
//! let system = her::train_on(&dataset, HerConfig::default());
//! let (tuple, vertex) = dataset.ground_truth[0];
//! assert!(system.spair(tuple, vertex));
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used))]
pub mod error;

pub use error::{HerError, Result};

pub use her_baselines as baselines;
pub use her_core as core;
pub use her_datagen as datagen;
pub use her_embed as embed;
pub use her_graph as graph;
pub use her_obs as obs;
pub use her_parallel as parallel;
pub use her_rdb as rdb;
pub use her_serve as serve;
pub use her_store as store;

use her_core::learn::SearchSpace;
use her_core::{Her, HerConfig};
use her_datagen::LinkedDataset;

/// Builds and trains a [`Her`] system on a generated dataset, following the
/// paper's protocol (§VII "Evaluation"): the dataset's synonym lexicon
/// seeds `M_v` (pre-trained semantic knowledge), 50% of annotations train
/// `M_ρ`, 15% drive the random search for `(σ, δ, k)`.
///
/// Returns the trained system; evaluate on the *test* third of
/// [`LinkedDataset::split`] for unbiased accuracy.
pub fn train_on(dataset: &LinkedDataset, mut cfg: HerConfig) -> Her {
    for (a, b) in &dataset.synonyms {
        cfg.synonyms.push((a.clone(), b.clone()));
    }
    let interner = dataset.interner.clone();
    let mut system = Her::build(&dataset.db, dataset.g.clone(), interner, &cfg);
    // The 50/15/35 protocol needs enough annotations for a meaningful 15%
    // validation slice; tiny datasets (like the running example) train and
    // validate on everything instead.
    let (train, val) = if dataset.annotations().len() < 40 {
        let all = dataset.annotations();
        (all.clone(), all)
    } else {
        let (train, val, _test) = dataset.split(cfg.seed);
        (train, val)
    };
    system.learn(&train, &val, &cfg, &SearchSpace::default());
    system
}

/// Most-used items in one import.
pub mod prelude {
    pub use her_core::her::{Her, HerConfig};
    pub use her_core::metrics::{confusion, Accuracy};
    pub use her_core::params::{Params, Thresholds};
    pub use her_datagen::dataset::LinkedDataset;
    pub use her_graph::{Graph, GraphBuilder, Interner, LabelId, Path, VertexId};
    pub use her_rdb::database::Database;
    pub use her_rdb::rdb2rdf::CanonicalGraph;
}
