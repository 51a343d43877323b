//! Simulated benchmark datasets.
//!
//! The paper's evaluation uses two datasets derived from a one-day Twitter
//! sample: a *weighted* one (chi-square + correlation coefficient weights) and
//! an *unweighted* one (thresholded log-likelihood ratio, 0/1 weights). The
//! raw corpus is not redistributable, so the harness generates statistically
//! similar streams with the planted-story simulator and converts them with the
//! same association measures.

use dyndens_graph::EdgeUpdate;
use dyndens_stream::{ChiSquareCorrelation, LogLikelihoodRatio};
use dyndens_workloads::{TweetSimulator, TweetSimulatorConfig};

/// Parameters of a simulated dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Number of simulated posts.
    pub n_posts: usize,
    /// Number of background entities.
    pub n_background_entities: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// The default harness scale: large enough to show the trends, small
    /// enough to run every experiment on a laptop in minutes.
    pub fn default_scale() -> Self {
        DatasetSpec {
            n_posts: 60_000,
            n_background_entities: 800,
            seed: 2011,
        }
    }

    /// Scales the number of posts (and entities, sub-linearly) by `factor`.
    pub fn scaled(factor: f64) -> Self {
        let base = Self::default_scale();
        DatasetSpec {
            n_posts: ((base.n_posts as f64) * factor).max(1_000.0) as usize,
            n_background_entities: ((base.n_background_entities as f64) * factor.sqrt()).max(100.0)
                as usize,
            seed: base.seed,
        }
    }

    fn simulator_config(&self) -> TweetSimulatorConfig {
        TweetSimulatorConfig {
            n_posts: self.n_posts,
            n_background_entities: self.n_background_entities,
            seed: self.seed,
            ..TweetSimulatorConfig::default()
        }
    }
}

/// The *weighted* dataset: chi-square + correlation-coefficient weights with a
/// two-hour mean post life. Returns the edge weight update stream.
pub fn weighted_dataset(spec: &DatasetSpec) -> Vec<EdgeUpdate> {
    let corpus = TweetSimulator::new(spec.simulator_config()).generate();
    corpus.to_updates(ChiSquareCorrelation::default(), Some(2.0 * 3600.0))
}

/// The *unweighted* dataset: thresholded log-likelihood-ratio weights (0/1
/// edges) with a two-hour mean post life.
pub fn unweighted_dataset(spec: &DatasetSpec) -> Vec<EdgeUpdate> {
    let corpus = TweetSimulator::new(spec.simulator_config()).generate();
    corpus.to_updates(LogLikelihoodRatio::default(), Some(2.0 * 3600.0))
}

// The partition-aligned planted-community stream moved to the workload
// library (it is now the `AlignedCommunities` scenario); re-exported here so
// existing bench bins and scripts keep compiling unchanged.
pub use dyndens_workloads::shard_aligned_stream;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_nonempty_and_deterministic() {
        let spec = DatasetSpec {
            n_posts: 4_000,
            n_background_entities: 120,
            seed: 3,
        };
        let w1 = weighted_dataset(&spec);
        let w2 = weighted_dataset(&spec);
        assert_eq!(w1, w2);
        assert!(!w1.is_empty());
        let u = unweighted_dataset(&spec);
        assert!(!u.is_empty());
        // The unweighted dataset has far fewer updates (edges only appear or
        // disappear), mirroring the 43K vs 41.5M relationship in the paper.
        assert!(u.len() < w1.len());
    }

    #[test]
    fn scaling_changes_volume() {
        let small = DatasetSpec::scaled(0.02);
        let smaller_still = DatasetSpec::scaled(0.01);
        assert!(small.n_posts > smaller_still.n_posts);
        assert_eq!(DatasetSpec::default_scale().n_posts, 60_000);
    }
}
