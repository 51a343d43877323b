//! The two workloads on the `AlignedCommunities` raw-update stream, both on
//! an in-memory 2-shard `ShardFn::Modulo` fleet:
//!
//! - `aligned_saturate`: a closed loop submitting 256-update `apply_batch`
//!   calls as fast as backpressure allows, with one `split_shard` about a
//!   third of the way in and a `merge_shards` of its children about two
//!   thirds in. It serves no subscriber: serving across a split and merge
//!   fails at this commit (see `DESIGN.md`);
//! - `paced_push`: an open loop submitting at a fixed rate, every update
//!   timed from its due time, with one push subscriber.
//!
//! On this stream the sharded answer is bit-identical to one uninterrupted
//! `DynDens` over the whole stream, which is the reference of both.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dyndens_core::{DynDens, DynDensConfig, EngineStats};
use dyndens_density::AvgWeight;
use dyndens_graph::EdgeUpdate;
use dyndens_obs::{names, Registry};
use dyndens_shard::{ShardConfig, ShardFn, ShardedDynDens};
use dyndens_workloads::{AlignedCommunities, Workload};

use crate::freshness::{cover, Landing, Routing};
use crate::harness::{answer, diff, mirror_failures, ms_between, Answer, Reader, Served};
use crate::replay::{replay, Topo};
use crate::round::{run_rounds, Ctx, Outcome, Percentiles, ReplayInput, Round, Traced};
use crate::trace::Tracer;

/// Updates per round of `aligned_saturate`.
const SATURATE_UPDATES: usize = 600_000;
/// Updates per round of `paced_push`.
const PACED_UPDATES: usize = 200_000;
/// The open loop's offered rate, in updates per second.
pub const PACED_RATE: f64 = 200_000.0;
/// Base shards of the fleet.
const SHARDS: usize = 2;
/// Updates per `apply_batch` call of the closed loop.
const CHUNK: usize = 256;
/// How long the open-loop generator sleeps between two checks of the clock.
const PACE_TICK: Duration = Duration::from_micros(50);

/// The canonical engine configuration of the aligned stream.
fn engine_config() -> DynDensConfig {
    DynDensConfig::new(1.0, 4).with_delta_it(0.15)
}

/// Two base shards under modulo routing with 64-update micro-batches. Each
/// shard publishes its whole output-dense family, so a resync snapshot is
/// complete and the push-fed mirror can be held to the exact story set.
fn shard_config() -> ShardConfig {
    ShardConfig::new(SHARDS)
        .with_shard_fn(ShardFn::Modulo)
        .with_max_batch(64)
        .with_top_k(usize::MAX)
}

/// The pre-generated stream and its reference answer.
pub struct Inputs {
    pub updates: Vec<EdgeUpdate>,
    pub reference: Answer,
    /// Updates per second of the single-engine reference pass.
    pub single_engine_upd_per_s: f64,
}

impl Inputs {
    pub fn generate(n: usize, seed: u64) -> Inputs {
        let updates = AlignedCommunities::new(n, seed).updates();
        let started = Instant::now();
        let mut engine = DynDens::new(AvgWeight, engine_config());
        let mut events = Vec::new();
        for &u in &updates {
            engine.apply_update_into(u, &mut events);
            events.clear();
        }
        let single_engine_upd_per_s = n as f64 / started.elapsed().as_secs_f64();
        Inputs {
            reference: answer(&engine.output_dense_subgraphs(), None),
            updates,
            single_engine_upd_per_s,
        }
    }
}

/// How a round submits the stream.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Loop {
    /// `aligned_saturate`.
    Closed,
    /// `paced_push`.
    Open,
}

/// Runs one of the two aligned workloads for the run's measuring time.
pub fn run(ctx: &Ctx, mode: Loop) -> Outcome {
    let n = ctx.scaled(match mode {
        Loop::Closed => SATURATE_UPDATES,
        Loop::Open => PACED_UPDATES,
    });
    let inputs = Inputs::generate(n, ctx.seed);
    let mut tracer = Tracer::new(false);
    let rounds = run_rounds(ctx, &mut tracer, |t| round(ctx, &inputs, mode, t));
    let mut out = Outcome::from_rounds(&rounds);
    out.meta.push(("updates_per_round", n.to_string()));
    if mode == Loop::Open {
        out.meta.push(("offered_upd_per_s", PACED_RATE.to_string()));
    }
    if !ctx.trace {
        out.end_to_end(&rounds);
        return out;
    }
    // Replay the last traced round's shard slices for the worker-side spans.
    let last = rounds.iter().rev().find_map(|r| r.replay_input.as_ref());
    let replayed = match last {
        Some(input) => replay(
            &inputs.updates,
            &input.landings,
            &input.marks,
            &input.topo,
            SHARDS,
            usize::MAX,
            || DynDens::new(AvgWeight, engine_config()),
            None,
            &mut tracer,
        ),
        None => Err("no traced round to replay".into()),
    };
    match replayed {
        Ok(r) => out.per_layer(&rounds, &tracer, &r),
        Err(e) => {
            out.correct = false;
            out.errors.push(format!("replay: {e}"));
        }
    }
    out.metrics.insert(
        "core.single_engine_upd_per_s",
        inputs.single_engine_upd_per_s,
    );
    out.spans = Some(tracer);
    out
}

/// One round: a fresh fleet, server and subscriber; the whole stream; the
/// correctness gate.
fn round(ctx: &Ctx, inputs: &Inputs, mode: Loop, tracer: &mut Tracer) -> Round {
    let traced = tracer.enabled();
    let registry = traced.then(|| Arc::new(Registry::new()));
    let mut round = Round::default();

    let setup_started = Instant::now();
    let mut config = shard_config();
    if let Some(r) = &registry {
        config = config.with_obs(Arc::clone(r));
    }
    let mut fleet = ShardedDynDens::new(AvgWeight, engine_config(), config);
    let view = fleet.view();
    let served = match Served::start(
        view.clone(),
        mode == Loop::Open,
        registry.as_ref(),
        ctx.fault,
    ) {
        Ok(s) => s,
        Err(e) => return round.broken(format!("serve: {e}")),
    };
    round.setup_s = setup_started.elapsed().as_secs_f64();

    let updates = &inputs.updates;
    let n = updates.len();
    let initial_map = fleet.shard_map();
    // Topology changes: the index of the first update routed after each,
    // the change, and the sequence number the fleet reported for it.
    let mut topo: Vec<(usize, Topo, u64)> = Vec::new();
    let mut reader = Reader::new(view.clone());
    // Submit instant of each closed-loop chunk.
    let mut submitted: Vec<Instant> = Vec::with_capacity(n / CHUNK + 1);
    let mut late_max_ms: f64 = 0.0;
    let started = Instant::now();
    match mode {
        Loop::Closed => {
            let n_chunks = n.div_ceil(CHUNK);
            let (split_at, merge_at) = (n_chunks / 3, 2 * n_chunks / 3);
            let mut new_slot = None;
            for (c, chunk) in updates.chunks(CHUNK).enumerate() {
                if c == split_at {
                    match tracer.span("shard.split", || fleet.split_shard(0)) {
                        Ok(r) => {
                            served.rewatch();
                            new_slot = Some(r.new_slot);
                            let split = Topo::Split {
                                slot: r.slot,
                                new_slot: r.new_slot,
                                map: fleet.shard_map(),
                            };
                            topo.push((c * CHUNK, split, r.parent_seq));
                        }
                        Err(e) => round.op_failed(format!("split_shard: {e}")),
                    }
                }
                if let (true, Some(b)) = (c == merge_at, new_slot) {
                    match tracer.span("shard.merge", || fleet.merge_shards(0, b)) {
                        Ok(r) => {
                            served.rewatch();
                            let merge = Topo::Merge {
                                slot: r.slot,
                                freed: r.freed_slot,
                                map: fleet.shard_map(),
                            };
                            topo.push((c * CHUNK, merge, r.merged_seq));
                        }
                        Err(e) => round.op_failed(format!("merge_shards: {e}")),
                    }
                }
                submitted.push(Instant::now());
                tracer.span("shard.route", || fleet.apply_batch(chunk));
                reader.tick(tracer);
            }
        }
        Loop::Open => {
            let period = 1.0 / PACED_RATE;
            let mut sent = 0;
            while sent < n {
                let due = ((started.elapsed().as_secs_f64() / period) as usize + 1).min(n);
                if due > sent {
                    let first_due = started + Duration::from_secs_f64(sent as f64 * period);
                    late_max_ms = late_max_ms.max(ms_between(first_due, Instant::now()));
                    tracer.span("shard.route", || fleet.apply_batch(&updates[sent..due]));
                    sent = due;
                    reader.tick(tracer);
                } else {
                    std::thread::sleep(PACE_TICK);
                }
            }
        }
    }
    tracer.span("shard.flush", || fleet.flush());
    round.ingest_upd_per_s = n as f64 / started.elapsed().as_secs_f64();
    round.attempted = n as u64;

    // Where every update landed, replaying the fleet's routing; each
    // topology change must agree with the counts so far.
    let mut routing = Routing::new(initial_map, SHARDS);
    let mut landings: Vec<Landing> = Vec::with_capacity(n);
    let mut changes = topo.iter().peekable();
    for (i, u) in updates.iter().enumerate() {
        while let Some((_, change, reported)) = changes.next_if(|(at, _, _)| *at == i) {
            let counted = match change {
                Topo::Split {
                    slot,
                    new_slot,
                    map,
                } => routing.split(*slot, *new_slot, map.clone()),
                Topo::Merge { slot, freed, map } => routing.merge(*slot, *freed, map.clone()),
            };
            if counted != *reported {
                round.mismatch(format!(
                    "topology change at update {i} reported seq {reported}, routed {counted}"
                ));
            }
        }
        landings.push(routing.land(u));
    }

    let end = served.finish(&view.per_shard_seq());

    // The correctness gate: the fleet's story set, score bits included,
    // against one engine over the same stream; the mirror against the view.
    let view_answer = answer(&view.snapshot().stories, ctx.fault);
    if let Some(d) = diff(&inputs.reference, &view_answer) {
        round.mismatch(format!("fleet answer differs from one engine: {d}"));
    }
    round.failed += u64::from(end.push.as_ref().is_some_and(|p| p.sub.error.is_some()));
    for failure in mirror_failures(&end, &view_answer) {
        round.mismatch(failure);
    }

    let visible = cover(&end.visible, &landings);
    let pushed = end.push.as_ref().map(|p| cover(&p.sub.marks, &landings));
    let mut fanout = round.latencies(&visible, pushed.as_deref(), |i| match mode {
        Loop::Closed => submitted[i / CHUNK],
        Loop::Open => started + Duration::from_secs_f64(i as f64 / PACED_RATE),
    });

    if traced {
        let stats: EngineStats = view.stats();
        let snap = registry
            .as_ref()
            .expect("traced rounds carry a registry")
            .snapshot();
        let fanout = Percentiles::of(&mut fanout);
        round.traced = Some(Traced {
            updates: n as u64,
            batches: snap.counter_total(names::SHARD_BATCHES_APPLIED_TOTAL),
            wal_bytes: snap.counter_total(names::WAL_APPEND_BYTES_TOTAL),
            explorations: stats.explorations,
            candidates: stats.candidates_examined,
            pushes: end.push.as_ref().map_or(0, |p| p.pushes_sent),
            resyncs: end.push.as_ref().map_or(0, |p| p.resyncs_served),
            late_max_ms,
            fanout_p50_ms: fanout.p50,
            fanout_p99_ms: fanout.p99,
            ..Traced::default()
        });
        round.replay_input = Some(ReplayInput {
            landings,
            marks: end.visible,
            topo: topo.into_iter().map(|(_, t, _)| t).collect(),
        });
    }
    round
}
