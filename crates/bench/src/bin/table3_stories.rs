//! Table 3: qualitative top stories for a simulated day, from a tweet-like and
//! a blog-like corpus (the paper's real corpora are not redistributable, so
//! the planted-story simulator stands in for them).
//!
//! The setup follows Section 5.3: correlations are computed over the whole day
//! (no decay), edge weights are raw log-likelihood ratios retained above a 5%
//! significance level, density is AvgDegree (favouring larger stories), and
//! the resulting output-dense subgraphs are re-ranked in a diversity-aware
//! manner before presentation.
//!
//! Usage:
//!
//! ```bash
//! cargo run --release -p dyndens-bench --bin table3_stories -- [--scale 1.0]
//! ```

use dyndens_core::{DynDens, DynDensConfig};
use dyndens_density::AvgDegree;
use dyndens_stream::{rank_with_diversity, LogLikelihoodRatio, CHI2_CRITICAL_5PCT};
use dyndens_workloads::{SimulatedCorpus, TweetSimulator, TweetSimulatorConfig};

fn top_stories(corpus: &SimulatedCorpus, threshold: f64) -> Vec<(Vec<String>, f64)> {
    // Raw (non-thresholded) log-likelihood ratio weights, no decay.
    let updates = corpus.to_updates(LogLikelihoodRatio::raw(CHI2_CRITICAL_5PCT), None);
    let mut engine = DynDens::new(
        AvgDegree,
        DynDensConfig::new(threshold, 5).with_delta_it_fraction(0.05),
    );
    for u in &updates {
        engine.apply_update(*u);
    }
    let ranked = rank_with_diversity(&engine.output_dense_subgraphs(), 0.8, 6);
    ranked
        .into_iter()
        .map(|(set, density, _)| (corpus.registry.describe(set.iter()), density))
        .collect()
}

fn print_block(label: &str, stories: &[(Vec<String>, f64)]) {
    println!("\n== Table 3 ({label}) ==");
    if stories.is_empty() {
        println!("  (no story clears the threshold; lower it with a smaller --scale dataset)");
    }
    for (rank, (entities, density)) in stories.iter().enumerate() {
        println!(
            "  {}. [density {density:.2}] {}",
            rank + 1,
            entities.join(", ")
        );
    }
}

fn main() {
    let scale = std::env::args()
        .skip_while(|a| a != "--scale")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);

    let tweet_config = TweetSimulatorConfig {
        n_posts: (60_000.0 * scale) as usize,
        n_background_entities: 600,
        ..TweetSimulatorConfig::default()
    };
    let blog_config = TweetSimulatorConfig {
        n_posts: (8_000.0 * scale) as usize,
        n_background_entities: 400,
        ..TweetSimulatorConfig::blog_profile()
    };

    let tweets = TweetSimulator::new(tweet_config).generate();
    let blogs = TweetSimulator::new(blog_config).generate();

    println!(
        "simulated corpora: {} tweets, {} blog posts, planted stories: {:?}",
        tweets.posts.len(),
        blogs.posts.len(),
        dyndens_workloads::tweets::default_stories()
            .iter()
            .map(|s| s.name.clone())
            .collect::<Vec<_>>()
    );

    print_block("from tweets", &top_stories(&tweets, 1.5));
    print_block("from blog posts", &top_stories(&blogs, 1.5));

    println!("\n(Compare against the planted story scripts above: the raid, Libya, royal wedding, PSN hack and pop-culture groups should dominate, with facets merged into single stories.)");
}
