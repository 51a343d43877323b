//! The run: rounds until the measuring time is spent, then one result.
//!
//! Every round builds a fresh deployment, runs the workload's whole
//! pre-generated input through it and checks the answer, so a run yields one
//! sample of each end-to-end metric per round and reports their medians. A
//! traced run alternates untraced and traced rounds: the untraced ones give
//! `trace.overhead_pct` and the `fresh.*` tails, the traced ones the other
//! per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::freshness::{Landing, Mark};
use crate::harness::{median, ms_between, quantile, Fault};
use crate::replay::{Replayed, Topo};
use crate::trace::Tracer;

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Multiplies every input size (smoke runs use a small fraction).
    pub scale: f64,
    pub fault: Option<Fault>,
    /// Directory for durable state and span dumps, inside the working
    /// directory the run starts in.
    pub work_dir: PathBuf,
}

impl Ctx {
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(1_000)
    }
}

/// Counts a traced round read from the program and its own bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    pub updates: u64,
    pub posts: u64,
    pub ingest_s: f64,
    pub batches: u64,
    pub wal_bytes: u64,
    pub explorations: u64,
    pub candidates: u64,
    pub pushes: u64,
    pub resyncs: u64,
    pub late_max_ms: f64,
    pub recover_ms: f64,
    pub recovery_replayed: u64,
    pub fanout_p50_ms: f64,
    pub fanout_p99_ms: f64,
}

/// What a traced round keeps for the replay of worker-side steps.
pub struct ReplayInput {
    pub landings: Vec<Landing>,
    pub marks: Vec<Mark>,
    pub topo: Vec<Topo>,
}

/// One round's measurements and verdict.
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub ingest_upd_per_s: f64,
    pub visible: Percentiles,
    pub pushed: Percentiles,
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations, also counted in `failed`.
    pub errors: Vec<String>,
    /// Correctness-gate failures: any one fails the run.
    pub mismatches: Vec<String>,
    pub traced: Option<Traced>,
    pub replay_input: Option<ReplayInput>,
}

/// Median and 99th percentile of one round's per-update latencies.
#[derive(Debug, Default, Clone, Copy)]
pub struct Percentiles {
    pub p50: f64,
    pub p99: f64,
    pub samples: usize,
}

impl Percentiles {
    pub fn of(samples: &mut [f64]) -> Percentiles {
        Percentiles {
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
            samples: samples.len(),
        }
    }
}

impl Round {
    /// A round that could not run at all.
    pub fn broken(mut self, why: String) -> Round {
        self.mismatches.push(why);
        self
    }

    pub fn op_failed(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    pub fn mismatch(&mut self, why: String) {
        self.mismatches.push(why);
    }

    /// Turns coverage instants into latency percentiles and returns the
    /// per-update fan-out (pushed minus visible). `pushed` is `None` where
    /// the round does not serve. An update never visible, or never pushed
    /// where the round serves, counts as failed.
    pub fn latencies(
        &mut self,
        visible: &[Option<Instant>],
        pushed: Option<&[Option<Instant>]>,
        ingest_at: impl Fn(usize) -> Instant,
    ) -> Vec<f64> {
        let mut vis = Vec::with_capacity(visible.len());
        let mut push = Vec::new();
        let mut fanout = Vec::new();
        let mut missing = 0;
        for (i, v) in visible.iter().enumerate() {
            let at = ingest_at(i);
            let p = pushed.map(|p| p[i]);
            if let Some(v) = v {
                vis.push(ms_between(at, *v));
            }
            if let Some(Some(p)) = p {
                push.push(ms_between(at, p));
                if let Some(v) = v {
                    fanout.push(ms_between(*v, p));
                }
            }
            if v.is_none() || p == Some(None) {
                missing += 1;
            }
        }
        if missing > 0 {
            self.failed += missing;
            self.errors
                .push(format!("{missing} updates never visible or never pushed"));
        }
        self.visible = Percentiles::of(&mut vis);
        self.pushed = Percentiles::of(&mut push);
        fanout
    }
}

/// Runs rounds until `ctx.seconds` have passed (at least one untraced and,
/// in a traced run, one traced round).
pub fn run_rounds(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer) -> Round,
) -> Vec<Round> {
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let traced = ctx.trace && rounds.len() % 2 == 1;
        tracer.set_enabled(traced);
        let r = round(tracer);
        eprintln!(
            "round {}{}: setup {:.3} ms, {:.0} upd/s, visible p50 {:.3} p99 {:.3} ms, pushed p50 {:.3} p99 {:.3} ms",
            rounds.len() + 1,
            if traced { " (traced)" } else { "" },
            r.setup_s * 1e3,
            r.ingest_upd_per_s,
            r.visible.p50,
            r.visible.p99,
            r.pushed.p50,
            r.pushed.p99
        );

        let stop = !r.mismatches.is_empty();
        if r.replay_input.is_some() {
            // Only the last traced round is replayed.
            for old in &mut rounds {
                old.replay_input = None;
            }
        }
        rounds.push(r);
        let enough = rounds.len() >= if ctx.trace { 2 } else { 1 };
        if stop || (enough && Instant::now() >= deadline) {
            break;
        }
    }
    tracer.set_enabled(ctx.trace);
    rounds
}

/// The median of a per-round quantity over the untraced rounds.
fn untraced_median(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(
        &rounds
            .iter()
            .filter(|r| r.traced.is_none())
            .map(f)
            .collect::<Vec<_>>(),
    )
}

/// The run's result: its verdict, counts and metrics.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts recorded with the result (seed, input sizes, sample counts).
    pub meta: Vec<(&'static str, String)>,
    pub errors: Vec<String>,
    /// The traced run's spans, written out when the run ends.
    pub spans: Option<Tracer>,
}

impl Outcome {
    pub fn from_rounds(rounds: &[Round]) -> Outcome {
        let mut errors = Vec::new();
        for r in rounds {
            errors.extend(r.mismatches.iter().cloned());
            errors.extend(r.errors.iter().cloned());
        }
        Outcome {
            correct: rounds.iter().all(|r| r.mismatches.is_empty()),
            attempted: rounds.iter().map(|r| r.attempted).sum::<u64>().max(1),
            failed: rounds.iter().map(|r| r.failed).sum(),
            metrics: BTreeMap::new(),
            meta: vec![("rounds", rounds.len().to_string())],
            errors,
            spans: None,
        }
    }

    /// The end-to-end metrics, as medians over the untraced rounds.
    pub fn end_to_end(&mut self, rounds: &[Round]) {
        let m = &mut self.metrics;
        m.insert("setup_s", untraced_median(rounds, |r| r.setup_s));
        m.insert(
            "ingest_upd_per_s",
            untraced_median(rounds, |r| r.ingest_upd_per_s),
        );
        m.insert("visible_p50_ms", untraced_median(rounds, |r| r.visible.p50));
        let plain = rounds.iter().filter(|r| r.traced.is_none());
        self.meta
            .push(("untraced_rounds", plain.clone().count().to_string()));
        self.meta.push((
            "latency_samples_per_round",
            plain
                .map(|r| r.visible.samples)
                .next()
                .unwrap_or(0)
                .to_string(),
        ));
    }

    /// `trace.overhead_pct`: the untraced rounds' median ingest rate over
    /// the traced rounds', as a percentage above 1.
    pub fn trace_overhead(&mut self, rounds: &[Round]) {
        let plain = untraced_median(rounds, |r| r.ingest_upd_per_s);
        let traced = median(
            &rounds
                .iter()
                .filter(|r| r.traced.is_some())
                .map(|r| r.ingest_upd_per_s)
                .collect::<Vec<_>>(),
        );
        self.metrics
            .insert("trace.overhead_pct", (plain / traced - 1.0) * 100.0);
    }

    /// The per-layer metrics every workload shares: span self times from
    /// the traced rounds and the replay, and counts from the traced rounds.
    pub fn per_layer(&mut self, rounds: &[Round], tracer: &Tracer, replayed: &Replayed) {
        let ns = |name: &str| tracer.self_total(name) as f64;
        let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
        let median_ns = |name: &str| {
            let times: Vec<f64> = tracer.self_times(name).iter().map(|&t| t as f64).collect();
            if times.is_empty() {
                0.0
            } else {
                median(&times)
            }
        };
        let updates = Self::traced_sum(rounds, |t| t.updates);
        let batches = Self::traced_sum(rounds, |t| t.batches);
        let worker = ns("core.apply")
            + ns("shard.publish")
            + ns("shard.wal_append")
            + ns("shard.checkpoint");
        let m = &mut self.metrics;
        m.insert(
            "core.apply_us_per_upd",
            per(ns("core.apply"), replayed.updates) / 1e3,
        );
        m.insert(
            "core.explorations_per_upd",
            per(Self::traced_sum(rounds, |t| t.explorations) as f64, updates),
        );
        m.insert(
            "core.candidates_per_upd",
            per(Self::traced_sum(rounds, |t| t.candidates) as f64, updates),
        );
        m.insert("shard.batch_upd_mean", per(updates as f64, batches));
        m.insert(
            "shard.publishes_per_kupd",
            per(batches as f64 * 1e3, updates),
        );
        m.insert(
            "shard.publish_us_per_batch",
            per(ns("shard.publish"), replayed.batches) / 1e3,
        );
        m.insert("shard.publish_share", 100.0 * ns("shard.publish") / worker);
        m.insert(
            "shard.route_us_per_upd",
            per(ns("shard.route"), updates) / 1e3,
        );
        m.insert(
            "shard.wal_append_us_per_batch",
            per(ns("shard.wal_append"), replayed.batches) / 1e3,
        );
        m.insert(
            "shard.wal_bytes_per_upd",
            per(Self::traced_sum(rounds, |t| t.wal_bytes) as f64, updates),
        );
        m.insert(
            "shard.checkpoint_ms_p50",
            median_ns("shard.checkpoint") / 1e6,
        );
        m.insert(
            "shard.checkpoints_per_kupd",
            per(replayed.checkpoints as f64 * 1e3, replayed.updates),
        );
        m.insert(
            "shard.checkpoint_share",
            100.0 * ns("shard.checkpoint") / worker,
        );
        m.insert("shard.split_ms", median_ns("shard.split") / 1e6);
        m.insert("shard.merge_ms", median_ns("shard.merge") / 1e6);
        m.insert(
            "shard.view_snapshot_us",
            per(
                ns("shard.view_snapshot"),
                tracer.count("shard.view_snapshot") as u64,
            ) / 1e3,
        );
        m.insert(
            "shard.deltas_since_us",
            per(
                ns("shard.deltas_since"),
                tracer.count("shard.deltas_since") as u64,
            ) / 1e3,
        );
        m.insert(
            "shard.recover_ms",
            Self::traced_median(rounds, |t| t.recover_ms),
        );
        m.insert(
            "shard.recovery_replayed_upd",
            Self::traced_median(rounds, |t| t.recovery_replayed as f64),
        );
        m.insert(
            "serve.fanout_p50_ms",
            Self::traced_median(rounds, |t| t.fanout_p50_ms),
        );
        m.insert(
            "serve.fanout_p99_ms",
            Self::traced_median(rounds, |t| t.fanout_p99_ms),
        );
        m.insert(
            "serve.pushes_per_publish",
            per(Self::traced_sum(rounds, |t| t.pushes) as f64, batches),
        );
        m.insert(
            "serve.resyncs",
            Self::traced_median(rounds, |t| t.resyncs as f64),
        );
        m.insert(
            "gen.late_ms_max",
            rounds
                .iter()
                .filter_map(|r| r.traced.as_ref())
                .map(|t| t.late_max_ms)
                .fold(0.0, f64::max),
        );
        // Freshness the end-to-end set cannot bound (see DESIGN.md), from
        // the run's untraced rounds.
        m.insert(
            "fresh.visible_p99_ms",
            untraced_median(rounds, |r| r.visible.p99),
        );
        m.insert(
            "fresh.pushed_p50_ms",
            untraced_median(rounds, |r| r.pushed.p50),
        );
        m.insert(
            "fresh.pushed_p99_ms",
            untraced_median(rounds, |r| r.pushed.p99),
        );
        self.trace_overhead(rounds);
        self.meta.push(("traced_updates", updates.to_string()));
        self.meta
            .push(("replayed_batches", replayed.batches.to_string()));
    }

    /// Medians of a per-round traced quantity.
    pub fn traced_median(rounds: &[Round], f: impl Fn(&Traced) -> f64) -> f64 {
        median(
            &rounds
                .iter()
                .filter_map(|r| r.traced.as_ref())
                .map(f)
                .collect::<Vec<_>>(),
        )
    }

    /// Sums of a per-round traced count.
    pub fn traced_sum(rounds: &[Round], f: impl Fn(&Traced) -> u64) -> u64 {
        rounds.iter().filter_map(|r| r.traced.as_ref()).map(f).sum()
    }
}
