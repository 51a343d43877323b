//! The story pipeline's benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload <aligned_saturate|posts_durable|paced_push>
//!           [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale F] [--fault flip-score-bit|drop-push]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the seed, input sizes and sample counts. A run whose answers fail
//! the correctness gate exits with code 1.

mod aligned;
mod freshness;
mod harness;
mod posts;
mod replay;
mod round;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;

use harness::Fault;
use round::Ctx;

/// The end-to-end metrics, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_upd_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with their units. A layer that does no work on a
/// workload reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.apply_us_per_upd", "us"),
    ("core.single_engine_upd_per_s", "1/s"),
    ("core.explorations_per_upd", "count"),
    ("core.candidates_per_upd", "count"),
    ("shard.batch_upd_mean", "count"),
    ("shard.publishes_per_kupd", "count"),
    ("shard.publish_us_per_batch", "us"),
    ("shard.publish_share", "%"),
    ("shard.route_us_per_upd", "us"),
    ("shard.wal_append_us_per_batch", "us"),
    ("shard.wal_bytes_per_upd", "B"),
    ("shard.checkpoint_ms_p50", "ms"),
    ("shard.checkpoints_per_kupd", "count"),
    ("shard.checkpoint_share", "%"),
    ("shard.recover_ms", "ms"),
    ("shard.recovery_replayed_upd", "count"),
    ("shard.split_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.view_snapshot_us", "us"),
    ("shard.deltas_since_us", "us"),
    ("stream.intern_ns_per_name", "ns"),
    ("stream.lower_us_per_post", "us"),
    ("stream.upd_per_post", "count"),
    ("stream.ingest_posts_per_s", "1/s"),
    ("serve.fanout_p50_ms", "ms"),
    ("serve.fanout_p99_ms", "ms"),
    ("serve.pushes_per_publish", "count"),
    ("serve.resyncs", "count"),
    ("fresh.visible_p99_ms", "ms"),
    ("fresh.pushed_p50_ms", "ms"),
    ("fresh.pushed_p99_ms", "ms"),
    ("gen.late_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

const WORKLOADS: &[&str] = &["aligned_saturate", "posts_durable", "paced_push"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 2012,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        fault: None,
        work_dir: PathBuf::from(".bench_run"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => ctx.scale = value.parse().map_err(|e| bad(&e))?,
            "--fault" => {
                ctx.fault = Some(match value.as_str() {
                    "flip-score-bit" => Fault::FlipScoreBit,
                    "drop-push" => Fault::DropPush,
                    _ => return Err(bad(&"unknown fault")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(ctx.seconds > 0.0 && ctx.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(Args { workload, ctx })
}

fn main() {
    let Args { workload, mut ctx } = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    ctx.work_dir = ctx
        .work_dir
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!(
            "perfbench: working directory {}: {e}",
            ctx.work_dir.display()
        );
        std::process::exit(2);
    }
    let mut out = match workload.as_str() {
        "aligned_saturate" => aligned::run(&ctx, aligned::Loop::Closed),
        "paced_push" => aligned::run(&ctx, aligned::Loop::Open),
        _ => posts::run(&ctx),
    };
    if let Some(spans) = out.spans.take() {
        let path = ctx
            .work_dir
            .with_file_name(format!("spans-{workload}-{}.tsv", ctx.seed));
        if let Err(e) = spans.write_tsv(&path) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    out.metrics.insert("peak_rss_mb", harness::peak_rss_mb());
    out.meta.push(("workload", workload.clone()));
    out.meta.push(("seed", ctx.seed.to_string()));
    out.meta.push(("seconds", ctx.seconds.to_string()));
    out.meta.push(("scale", ctx.scale.to_string()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.meta.push(("nproc", nproc.to_string()));

    let table = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let mut value = out.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            if !ctx.trace {
                out.correct = false;
                out.errors.push(format!("{name} was not measured"));
            }
            value = 0.0;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for e in out.errors.iter().take(20) {
        eprintln!("perfbench: {e}");
    }
    let meta: Vec<String> = out
        .meta
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
    if !out.correct {
        std::process::exit(1);
    }
}
