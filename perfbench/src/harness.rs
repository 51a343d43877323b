//! What every workload's round shares: the visible log, the push subscriber
//! and its server where the workload serves, the periodic in-process reader,
//! answer comparison and quantiles.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dyndens_graph::VertexSet;
use dyndens_obs::{ObsHandle, Registry};
use dyndens_serve::{Client, ClientError, Mirror, StoryServer};
use dyndens_shard::{PublishWaker, StoryView};

use crate::freshness::{Mark, PublishLog};
use crate::trace::Tracer;

/// A fault the benchmark injects into its own observations, to show that
/// the correctness gate is not vacuous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip the lowest bit of one score in the answer read from the fleet.
    FlipScoreBit,
    /// Discard one push batch instead of applying it to the mirror.
    DropPush,
}

/// The push batch [`Fault::DropPush`] discards.
const DROPPED_PUSH: u64 = 3;

/// How long the subscriber may take to catch up after the last flush.
const CATCH_UP: Duration = Duration::from_secs(30);

/// An answer in comparable form: story sets ordered by vertex set, scores
/// as their f64 bits.
pub type Answer = Vec<(VertexSet, u64)>;

/// The push half of the correctness gate, empty where the round does not
/// serve: the subscriber ran without error, its mirror reached the fleet's
/// final sequence numbers, and it holds exactly the story sets of `want`
/// (the final `StoryView`). Returns the failures.
pub fn mirror_failures(end: &ServedEnd, want: &Answer) -> Vec<String> {
    let mut out = Vec::new();
    let Some(push) = &end.push else {
        return out;
    };
    if let Some(e) = &push.sub.error {
        out.push(format!("push subscriber: {e}"));
    }
    if !push.caught_up {
        out.push(format!(
            "push-fed mirror stopped at cursor {:?}; the fleet published {:?}",
            push.sub.mirror.cursor(),
            end.target
        ));
    }
    let sets: Vec<VertexSet> = want.iter().map(|(s, _)| s.clone()).collect();
    if push.sub.mirror.vertex_sets() != sets {
        out.push("push-fed mirror differs from the final StoryView".into());
    }
    out
}

/// Orders `stories` by vertex set and keeps their exact score bits.
pub fn answer(stories: &[(VertexSet, f64)], fault: Option<Fault>) -> Answer {
    let mut out: Answer = stories
        .iter()
        .map(|(s, d)| (s.clone(), d.to_bits()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    if fault == Some(Fault::FlipScoreBit) {
        if let Some(first) = out.first_mut() {
            first.1 ^= 1;
        }
    }
    out
}

/// Describes the first difference between two answers, if any.
pub fn diff(want: &Answer, got: &Answer) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} stories, expected {}", got.len(), want.len()));
    }
    want.iter().zip(got).find(|(w, g)| w != g).map(|(w, g)| {
        format!(
            "story {:?} score bits {:#x}, expected {:?} score bits {:#x}",
            g.0, g.1, w.0, w.1
        )
    })
}

/// The serving side of a round: the visible log and, where the workload
/// serves, a `StoryServer` with one event loop and one push subscriber
/// feeding a `Mirror` on its own thread.
pub struct Served {
    log: Arc<PublishLog>,
    waker: Arc<dyn PublishWaker>,
    push: Option<Push>,
}

struct Push {
    server: StoryServer,
    stop: Arc<AtomicBool>,
    cursor: Arc<Mutex<Vec<u64>>>,
    thread: JoinHandle<SubscriberEnd>,
}

/// What the subscriber thread hands back.
pub struct SubscriberEnd {
    pub mirror: Mirror,
    /// The pushed log: the mirror cursor after every applied push.
    pub marks: Vec<Mark>,
    pub error: Option<String>,
}

/// The serving side's account of a finished round.
pub struct ServedEnd {
    pub visible: Vec<Mark>,
    /// The fleet's final per-shard sequence numbers.
    pub target: Vec<u64>,
    pub push: Option<PushEnd>,
}

/// The push subscriber's account of a finished round.
pub struct PushEnd {
    pub sub: SubscriberEnd,
    /// Whether the mirror's cursor reached the fleet's final sequence
    /// numbers.
    pub caught_up: bool,
    /// Push frames the server enqueued, and resync entries it served.
    pub pushes_sent: u64,
    pub resyncs_served: u64,
}

impl Served {
    /// Registers the visible log on `view`; with `serve`, also binds the
    /// server and subscribes.
    pub fn start(
        view: StoryView,
        serve: bool,
        registry: Option<&Arc<Registry>>,
        fault: Option<Fault>,
    ) -> io::Result<Served> {
        let (log, waker) = PublishLog::attach(view.clone());
        let push = if serve {
            let obs = registry.map_or_else(ObsHandle::none, |r| ObsHandle::new(Arc::clone(r)));
            let server = StoryServer::builder(view)
                .workers(1)
                .obs(obs)
                .bind("127.0.0.1:0")?;
            let stop = Arc::new(AtomicBool::new(false));
            let cursor = Arc::new(Mutex::new(Vec::new()));
            let thread = spawn_subscriber(
                server.local_addr(),
                Arc::clone(&stop),
                Arc::clone(&cursor),
                fault == Some(Fault::DropPush),
            )?;
            Some(Push {
                server,
                stop,
                cursor,
                thread,
            })
        } else {
            None
        };
        Ok(Served { log, waker, push })
    }

    /// Attaches the visible log to cells a split or merge created.
    pub fn rewatch(&self) {
        self.log.rewatch(&self.waker);
    }

    /// Waits until the mirror's cursor reaches `target` (the fleet's
    /// per-shard sequence numbers after the final flush), then stops the
    /// subscriber and takes both logs.
    pub fn finish(self, target: &[u64]) -> ServedEnd {
        let push = self.push.map(|p| {
            let deadline = Instant::now() + CATCH_UP;
            while *p.cursor.lock().expect("cursor poisoned") != target
                && Instant::now() < deadline
                && !p.thread.is_finished()
            {
                std::thread::sleep(Duration::from_micros(200));
            }
            p.stop.store(true, Ordering::SeqCst);
            let sub = p.thread.join().expect("subscriber thread panicked");
            let stats = p.server.serve_stats();
            PushEnd {
                caught_up: sub.mirror.cursor() == target,
                sub,
                pushes_sent: stats.pushes_sent,
                resyncs_served: stats.resyncs_served,
            }
        });
        ServedEnd {
            visible: self.log.take(),
            target: target.to_vec(),
            push,
        }
    }
}

fn spawn_subscriber(
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    cursor: Arc<Mutex<Vec<u64>>>,
    drop_one: bool,
) -> io::Result<JoinHandle<SubscriberEnd>> {
    // A short read timeout lets the thread notice `stop` between pushes.
    let client = Client::builder()
        .read_timeout(Some(Duration::from_millis(20)))
        .connect(addr)?;
    let mut sub = client
        .subscribe(&[])
        .map_err(|e| io::Error::other(format!("subscribe: {e}")))?;
    std::thread::Builder::new()
        .name("push-subscriber".into())
        .spawn(move || {
            let mut end = SubscriberEnd {
                mirror: Mirror::new(),
                marks: Vec::with_capacity(1 << 16),
                error: None,
            };
            let mut pushes = 0;
            while !stop.load(Ordering::SeqCst) {
                let batch = match sub.recv() {
                    Ok(Some(batch)) => batch,
                    Ok(None) => {
                        end.error = Some("server hung up".into());
                        break;
                    }
                    Err(ClientError::Io(e))
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) => {
                        end.error = Some(format!("subscription: {e}"));
                        break;
                    }
                };
                pushes += 1;
                if drop_one && pushes == DROPPED_PUSH {
                    continue;
                }
                if let Err(e) = end.mirror.apply(&batch) {
                    end.error = Some(format!("mirror: {e}"));
                    break;
                }
                end.marks
                    .push(Mark::new(Instant::now(), end.mirror.cursor()));
                let mut shared = cursor.lock().expect("cursor poisoned");
                shared.clear();
                shared.extend_from_slice(end.mirror.cursor());
            }
            end
        })
}

/// An in-process reader beside ingest: every few milliseconds it takes a
/// merged `StoryView` snapshot and fetches each shard's deltas since its
/// previous read.
pub struct Reader {
    view: StoryView,
    next: Instant,
    seen: Vec<u64>,
}

/// Interval between two reads.
const READ_EVERY: Duration = Duration::from_millis(5);

impl Reader {
    pub fn new(view: StoryView) -> Self {
        Reader {
            view,
            next: Instant::now(),
            seen: Vec::new(),
        }
    }

    /// Reads if the interval has passed. Must run on the thread that splits
    /// and merges, so the shard count cannot change during a read.
    #[inline]
    pub fn tick(&mut self, tracer: &mut Tracer) {
        let now = Instant::now();
        if now < self.next {
            return;
        }
        self.next = now + READ_EVERY;
        let snapshot = tracer.span("shard.view_snapshot", || self.view.snapshot());
        self.seen.resize(snapshot.per_shard_seq.len(), 0);
        for (shard, since) in self.seen.iter().enumerate() {
            let deltas = tracer.span("shard.deltas_since", || {
                self.view.deltas_since(shard, *since)
            });
            std::hint::black_box(deltas);
        }
        self.seen.clone_from(&snapshot.per_shard_seq);
        std::hint::black_box(snapshot);
    }
}

/// `to - from` in ms; an event stamped before its ingest instant (a due
/// time the generator was already late for cannot be, but clocks are read
/// on different threads) counts as 0.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `samples`, by nearest rank.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    let (_, v, _) = samples.select_nth_unstable_by(rank, f64::total_cmp);
    *v
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    quantile(&mut v, 0.5)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn flipped_bit_is_a_difference() {
        let stories = vec![(VertexSet::from_ids(&[1, 2]), 0.75)];
        let want = answer(&stories, None);
        assert_eq!(diff(&want, &answer(&stories, None)), None);
        assert!(diff(&want, &answer(&stories, Some(Fault::FlipScoreBit))).is_some());
    }
}
