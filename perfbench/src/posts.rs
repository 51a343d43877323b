//! `posts_durable`: `TweetSimulator` posts, ingested as entity names through
//! a persistent 2-shard `ShardedStoryPipeline` (default `ShardFn::Hashed`,
//! default `PersistenceConfig`), in a closed loop. After each round's ingest
//! the pipeline is dropped without a final checkpoint and reopened.
//!
//! The reference re-interns the same names in a fresh `EntityRegistry`,
//! lowers the posts with a fresh `EdgeUpdateGenerator`, routes each update
//! by the fleet's routing table, runs one `DynDens` per shard and takes the
//! union of their answers.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dyndens_core::{DynDens, DynDensConfig, EngineStats};
use dyndens_density::AvgWeight;
use dyndens_graph::{EdgeUpdate, VertexId};
use dyndens_obs::{names, Registry};
use dyndens_shard::{PersistenceConfig, ShardConfig, ShardedDynDens};
use dyndens_stream::{
    ChiSquareCorrelation, EdgeUpdateGenerator, EntityRegistry, Post, ShardedStoryPipeline,
};
use dyndens_workloads::{TweetSimulator, TweetSimulatorConfig};

use crate::freshness::{cover, Landing, Routing};
use crate::harness::{answer, diff, mirror_failures, Answer, Reader, Served};
use crate::replay::{replay, Durable};
use crate::round::{run_rounds, Ctx, Outcome, Percentiles, ReplayInput, Round, Traced};
use crate::trace::Tracer;

/// Base shards of the pipeline's fleet.
const SHARDS: usize = 2;
/// Posts per round.
const POSTS: usize = 500_000;
/// Background entities of the simulated corpus.
const BACKGROUND_ENTITIES: usize = 800;
/// The live fleet's checkpoint cadence, in micro-batches per shard: longer
/// than a round, so no checkpoint falls inside the timed ingest (see
/// `DESIGN.md`: on a file system mounted with online discard, the unlink
/// behind each checkpoint stalls its shard for 25-120 ms, drifting from run
/// to run). The replay checkpoints at the default cadence instead.
const LIVE_SNAPSHOT_EVERY_BATCHES: usize = 1 << 20;
/// Mean post life of the association decay: two hours.
const MEAN_LIFE_S: f64 = 2.0 * 3600.0;

/// `AvgWeight` at an operating point of the paper's Fig. 4(a) grid on the
/// weighted dataset (`T = 0.41`, `Nmax = 5`, ΔIt at 1 % of its maximum).
fn engine_config() -> DynDensConfig {
    DynDensConfig::new(0.41, 5).with_delta_it_fraction(0.01)
}

/// Two base shards, hashed routing, the default queueing; whole output-dense
/// families published (see `aligned::shard_config`).
fn shard_config() -> ShardConfig {
    ShardConfig::new(SHARDS).with_top_k(usize::MAX)
}

/// The default persistence layout with the live checkpoint cadence.
fn persistence(dir: &Path) -> PersistenceConfig {
    PersistenceConfig::new(dir).with_snapshot_every_batches(LIVE_SNAPSHOT_EVERY_BATCHES)
}

/// The pre-generated posts and everything derived from them.
struct Inputs {
    timestamps: Vec<f64>,
    /// Entity names of each post, as indices into `names`.
    post_names: Vec<Vec<usize>>,
    names: Vec<String>,
    /// The reference lowering: every update, in order, with the post it
    /// came from and where the fleet routes it.
    updates: Vec<EdgeUpdate>,
    update_post: Vec<u32>,
    routed_per_post: Vec<u32>,
    landings: Vec<Landing>,
    reference: Answer,
    names_interned: u64,
    intern_ns: f64,
    lower_ns: f64,
    single_engine_upd_per_s: f64,
}

impl Inputs {
    fn generate(n_posts: usize, seed: u64) -> Inputs {
        let corpus = TweetSimulator::new(TweetSimulatorConfig {
            n_posts,
            n_background_entities: BACKGROUND_ENTITIES,
            seed,
            ..TweetSimulatorConfig::default()
        })
        .generate();
        let names: Vec<String> = corpus.registry.names().to_vec();
        let post_names: Vec<Vec<usize>> = corpus
            .posts
            .iter()
            .map(|p| p.entities.iter().map(|v| v.0 as usize).collect())
            .collect();
        let timestamps: Vec<f64> = corpus.posts.iter().map(|p| p.timestamp).collect();

        // Re-intern in a fresh registry, then lower with a fresh generator;
        // each pass is timed as a whole.
        let started = Instant::now();
        let mut registry = EntityRegistry::new();
        let ids: Vec<Vec<VertexId>> = post_names
            .iter()
            .map(|p| p.iter().map(|&n| registry.intern(&names[n])).collect())
            .collect();
        let intern_ns = started.elapsed().as_nanos() as f64;
        let names_interned = post_names.iter().map(|p| p.len() as u64).sum();

        let started = Instant::now();
        let mut generator = EdgeUpdateGenerator::new(ChiSquareCorrelation::default(), MEAN_LIFE_S);
        let mut updates = Vec::new();
        let mut routed_per_post = Vec::with_capacity(n_posts);
        for (ids, &t) in ids.into_iter().zip(&timestamps) {
            let before = updates.len();
            generator.process_post_into(&Post::new(t, ids), &mut updates);
            routed_per_post.push((updates.len() - before) as u32);
        }
        let lower_ns = started.elapsed().as_nanos() as f64;
        let update_post: Vec<u32> = routed_per_post
            .iter()
            .enumerate()
            .flat_map(|(p, &n)| std::iter::repeat_n(p as u32, n as usize))
            .collect();

        // The fleet's routing table, from a fleet of the benchmark's shape.
        let map = ShardedDynDens::new(AvgWeight, engine_config(), shard_config()).shard_map();
        let mut routing = Routing::new(map, SHARDS);
        let landings: Vec<Landing> = updates.iter().map(|u| routing.land(u)).collect();

        let started = Instant::now();
        let mut engines: Vec<DynDens<AvgWeight>> = (0..SHARDS)
            .map(|_| DynDens::new(AvgWeight, engine_config()))
            .collect();
        let mut events = Vec::new();
        for (u, l) in updates.iter().zip(&landings) {
            engines[l.slot as usize].apply_update_into(*u, &mut events);
            events.clear();
        }
        let single_engine_upd_per_s = updates.len() as f64 / started.elapsed().as_secs_f64();
        let union: Vec<_> = engines
            .iter()
            .flat_map(|e| e.output_dense_subgraphs())
            .collect();
        Inputs {
            timestamps,
            post_names,
            names,
            update_post,
            routed_per_post,
            landings,
            reference: answer(&union, None),
            updates,
            names_interned,
            intern_ns,
            lower_ns,
            single_engine_upd_per_s,
        }
    }
}

/// Runs `posts_durable` for the run's measuring time.
pub fn run(ctx: &Ctx) -> Outcome {
    let n_posts = ctx.scaled(POSTS);
    let inputs = Inputs::generate(n_posts, ctx.seed);
    let post_names: Vec<Vec<&str>> = inputs
        .post_names
        .iter()
        .map(|p| p.iter().map(|&n| inputs.names[n].as_str()).collect())
        .collect();
    let dir = ctx.work_dir.join("posts_durable");
    let mut tracer = Tracer::new(false);
    let mut k = 0;
    let rounds = run_rounds(ctx, &mut tracer, |t| {
        k += 1;
        round(
            ctx,
            &inputs,
            &post_names,
            &dir.join(format!("round-{k}")),
            t,
        )
    });
    let mut out = Outcome::from_rounds(&rounds);
    out.meta.push(("posts_per_round", n_posts.to_string()));
    out.meta
        .push(("updates_per_round", inputs.updates.len().to_string()));
    if !ctx.trace {
        out.end_to_end(&rounds);
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }
    let persistence = PersistenceConfig::new(dir.join("replay"));
    let durable = Durable {
        dir: persistence.dir.clone(),
        snapshot_every: persistence.snapshot_every_batches,
        retained: persistence.retained_snapshots,
        segment_max_bytes: persistence.segment_max_bytes,
    };
    let replayed = match rounds.iter().rev().find_map(|r| r.replay_input.as_ref()) {
        Some(input) => replay(
            &inputs.updates,
            &input.landings,
            &input.marks,
            &input.topo,
            SHARDS,
            usize::MAX,
            || DynDens::new(AvgWeight, engine_config()),
            Some(&durable),
            &mut tracer,
        ),
        None => Err("no traced round to replay".into()),
    };
    let _ = std::fs::remove_dir_all(&dir);
    match &replayed {
        Ok(r) => out.per_layer(&rounds, &tracer, r),
        Err(e) => {
            out.correct = false;
            out.errors.push(format!("replay: {e}"));
        }
    }
    let traced_rounds = rounds.iter().filter(|r| r.traced.is_some()).count().max(1) as f64;
    let n_updates = inputs.updates.len().max(1) as f64;
    let m = &mut out.metrics;
    m.insert(
        "core.single_engine_upd_per_s",
        inputs.single_engine_upd_per_s,
    );
    m.insert(
        "stream.intern_ns_per_name",
        inputs.intern_ns / inputs.names_interned.max(1) as f64,
    );
    m.insert(
        "stream.lower_us_per_post",
        inputs.lower_ns / n_posts as f64 / 1e3,
    );
    m.insert("stream.upd_per_post", n_updates / n_posts as f64);
    m.insert(
        "stream.ingest_posts_per_s",
        Outcome::traced_median(&rounds, |t| t.posts as f64 / t.ingest_s),
    );
    // The pipeline routes inside `ingest`; its routing share is the ingest
    // thread's time there less the stream work the reference timed.
    let ingest_ns = tracer.self_total("stream.ingest") as f64 / traced_rounds;
    m.insert(
        "shard.route_us_per_upd",
        ((ingest_ns - inputs.intern_ns - inputs.lower_ns) / n_updates / 1e3).max(0.0),
    );
    out.spans = Some(tracer);
    out
}

/// One round: a fresh directory and pipeline, every post, the gate, the drop
/// and the verified reopen.
fn round(
    ctx: &Ctx,
    inputs: &Inputs,
    post_names: &[Vec<&str>],
    dir: &Path,
    tracer: &mut Tracer,
) -> Round {
    let traced = tracer.enabled();
    let registry = traced.then(|| Arc::new(Registry::new()));
    let mut round = Round::default();
    remove_committed(dir);

    let setup_started = Instant::now();
    let mut config = shard_config();
    if let Some(r) = &registry {
        config = config.with_obs(Arc::clone(r));
    }
    let open = |config: ShardConfig| {
        ShardedStoryPipeline::with_persistence(
            ChiSquareCorrelation::default(),
            MEAN_LIFE_S,
            AvgWeight,
            engine_config(),
            config,
            persistence(dir),
        )
    };
    let mut pipeline = match open(config) {
        Ok(p) => p,
        Err(e) => return round.broken(format!("open pipeline: {e}")),
    };
    let view = pipeline.view();
    let served = match Served::start(view.clone(), true, registry.as_ref(), ctx.fault) {
        Ok(s) => s,
        Err(e) => return round.broken(format!("serve: {e}")),
    };
    round.setup_s = setup_started.elapsed().as_secs_f64();

    let mut reader = Reader::new(view.clone());
    let mut submitted: Vec<Instant> = Vec::with_capacity(post_names.len());
    let mut miscounted = 0;
    let started = Instant::now();
    // One span over the whole loop: a span per post would cost more than the
    // work it frames. The reader's spans are its children.
    let ingest = tracer.begin("stream.ingest");
    for (p, names) in post_names.iter().enumerate() {
        submitted.push(Instant::now());
        let routed = pipeline.ingest(inputs.timestamps[p], names);
        if routed != inputs.routed_per_post[p] as usize {
            miscounted += 1;
        }
        reader.tick(tracer);
    }
    tracer.end(ingest);
    tracer.span("shard.flush", || pipeline.flush());
    let ingest_s = started.elapsed().as_secs_f64();
    let n = inputs.updates.len();
    round.ingest_upd_per_s = n as f64 / ingest_s;
    round.attempted = n as u64;
    if miscounted > 0 {
        round.mismatch(format!(
            "{miscounted} posts lowered to other updates than the reference's"
        ));
    }

    let end = served.finish(&view.per_shard_seq());
    let before = answer(&view.snapshot().stories, ctx.fault);
    if let Some(d) = diff(&inputs.reference, &before) {
        round.mismatch(format!(
            "pipeline answer differs from the per-shard reference: {d}"
        ));
    }
    round.failed += u64::from(end.push.as_ref().is_some_and(|p| p.sub.error.is_some()));
    for failure in mirror_failures(&end, &before) {
        round.mismatch(failure);
    }
    let visible = cover(&end.visible, &inputs.landings);
    let pushed = end
        .push
        .as_ref()
        .map(|p| cover(&p.sub.marks, &inputs.landings));
    let mut fanout = round.latencies(&visible, pushed.as_deref(), |i| {
        submitted[inputs.update_post[i] as usize]
    });

    let stats: EngineStats = view.stats();
    let snap = registry.map(|r| r.snapshot());
    // Drop without a final checkpoint, reopen, and hold the recovered
    // answer to the one before the drop.
    drop(view);
    drop(pipeline);
    let reopen_started = Instant::now();
    let (recover_ms, replayed) = match open(shard_config()) {
        Ok(p) => {
            let again = answer(&p.engine().output_dense(), ctx.fault);
            let recover_ms = reopen_started.elapsed().as_secs_f64() * 1e3;
            if let Some(d) = diff(&before, &again) {
                round.mismatch(format!(
                    "reopened answer differs from the answer before the drop: {d}"
                ));
            }
            let replayed = p
                .engine()
                .recovery_reports()
                .iter()
                .map(|r| r.replayed_updates)
                .sum();
            (recover_ms, replayed)
        }
        Err(e) => {
            round.mismatch(format!("reopen: {e}"));
            (0.0, 0)
        }
    };
    remove_committed(dir);

    if let Some(snap) = snap {
        let fanout = Percentiles::of(&mut fanout);
        round.traced = Some(Traced {
            updates: n as u64,
            posts: post_names.len() as u64,
            ingest_s,
            batches: snap.counter_total(names::SHARD_BATCHES_APPLIED_TOTAL),
            wal_bytes: snap.counter_total(names::WAL_APPEND_BYTES_TOTAL),
            explorations: stats.explorations,
            candidates: stats.candidates_examined,
            pushes: end.push.as_ref().map_or(0, |p| p.pushes_sent),
            resyncs: end.push.as_ref().map_or(0, |p| p.resyncs_served),
            recover_ms,
            recovery_replayed: replayed,
            fanout_p50_ms: fanout.p50,
            fanout_p99_ms: fanout.p99,
            ..Traced::default()
        });
        round.replay_input = Some(ReplayInput {
            landings: inputs.landings.clone(),
            marks: end.visible,
            topo: Vec::new(),
        });
    }
    round
}

/// Removes a round's directory and commits the removal, so the file
/// system's deferred work for it (block discards on a `discard` mount) is
/// done before the next round starts its clock.
fn remove_committed(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        if let Ok(f) = std::fs::File::open(parent) {
            let _ = f.sync_all();
        }
    }
}
