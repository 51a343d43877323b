//! Ingest→visible and ingest→pushed stamping.
//!
//! A shard's sequence number counts the updates it has applied, so update
//! number `k` routed to slot `s` is covered once slot `s` publishes a
//! sequence number of at least `k`. Two logs record when that happens:
//!
//! - [`PublishLog`], a [`PublishWaker`] registered through
//!   [`StoryView::watch`], stamps every publication with the fleet's
//!   per-shard sequence numbers (the *visible* log);
//! - the push subscriber stamps its `Mirror` cursor after every applied push
//!   (the *pushed* log).
//!
//! Both logs are monotone per slot within a topology epoch; a split or merge
//! changes the slot count, which is how the logs are cut into epochs.
//! [`Routing`] replays the fleet's routing on the benchmark's side to give
//! each update its epoch, slot and covering sequence number ([`Landing`]).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dyndens_graph::{EdgeUpdate, ShardMap};
use dyndens_shard::{PublishWaker, StoryView};

/// Slots a mark can hold (a 2-shard fleet grows to 3 during a split).
pub const MAX_SLOTS: usize = 8;

/// Per-shard sequence numbers observed at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at: Instant,
    pub len: usize,
    pub seqs: [u64; MAX_SLOTS],
}

impl Mark {
    pub fn new(at: Instant, seqs: &[u64]) -> Self {
        assert!(seqs.len() <= MAX_SLOTS, "more slots than a mark holds");
        let mut out = [0; MAX_SLOTS];
        out[..seqs.len()].copy_from_slice(seqs);
        Mark {
            at,
            len: seqs.len(),
            seqs: out,
        }
    }
}

/// The visible log: one [`Mark`] per shard publication.
pub struct PublishLog {
    view: StoryView,
    marks: Mutex<Vec<Mark>>,
}

impl PublishLog {
    /// Registers a new log on `view`. Keep the returned waker alive: cells
    /// hold it weakly. Call [`PublishLog::rewatch`] after a topology change.
    pub fn attach(view: StoryView) -> (Arc<PublishLog>, Arc<dyn PublishWaker>) {
        let log = Arc::new(PublishLog {
            view,
            marks: Mutex::new(Vec::with_capacity(1 << 16)),
        });
        let waker: Arc<dyn PublishWaker> = log.clone();
        log.view.watch(&waker);
        (log, waker)
    }

    /// Attaches the waker to cells a split or merge created.
    pub fn rewatch(&self, waker: &Arc<dyn PublishWaker>) {
        self.view.watch(waker);
    }

    /// Takes the marks recorded so far.
    pub fn take(&self) -> Vec<Mark> {
        std::mem::take(&mut *self.marks.lock().expect("publish log poisoned"))
    }
}

impl PublishWaker for PublishLog {
    fn wake(&self, _seq: u64) {
        // Read and stamp under the log's lock, so the log is in read order
        // and therefore monotone per slot.
        let mut marks = self.marks.lock().expect("publish log poisoned");
        let seqs = self.view.per_shard_seq();
        marks.push(Mark::new(Instant::now(), &seqs));
    }
}

/// Where one update lands: its topology epoch, its slot in that epoch, and
/// the slot sequence number that covers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Landing {
    pub epoch: u16,
    pub slot: u16,
    pub seq: u64,
}

/// The benchmark's replay of the fleet's routing: the shard map of the
/// current epoch plus the number of updates routed to each slot so far.
#[derive(Debug, Clone)]
pub struct Routing {
    map: ShardMap,
    routed: Vec<u64>,
    epoch: u16,
}

impl Routing {
    pub fn new(map: ShardMap, n_slots: usize) -> Self {
        Routing {
            map,
            routed: vec![0; n_slots],
            epoch: 0,
        }
    }

    /// Routes one update.
    pub fn land(&mut self, update: &EdgeUpdate) -> Landing {
        let slot = self.map.route(update.a.min(update.b));
        self.routed[slot] += 1;
        Landing {
            epoch: self.epoch,
            slot: slot as u16,
            seq: self.routed[slot],
        }
    }

    /// A split of `slot` into `slot` and `new_slot`: both children start at
    /// the parent's count. Returns the parent's count, which the split
    /// reports as its quiesce sequence number.
    pub fn split(&mut self, slot: usize, new_slot: usize, map: ShardMap) -> u64 {
        assert_eq!(new_slot, self.routed.len(), "a split appends its new slot");
        let parent = self.routed[slot];
        self.routed.push(parent);
        self.map = map;
        self.epoch += 1;
        parent
    }

    /// A merge of `slot` and `freed`: the merged shard starts at the sum of
    /// the children's counts and the last slot is renumbered into the freed
    /// one. Returns the merged count.
    pub fn merge(&mut self, slot: usize, freed: usize, map: ShardMap) -> u64 {
        let child = self.routed.swap_remove(freed);
        self.routed[slot] += child;
        self.map = map;
        self.epoch += 1;
        self.routed[slot]
    }
}

/// Cuts a log into topology epochs at every change of the slot count.
pub fn epochs(marks: &[Mark]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..marks.len() {
        if marks[i].len != marks[i - 1].len {
            out.push(start..i);
            start = i;
        }
    }
    if start < marks.len() {
        out.push(start..marks.len());
    }
    out
}

/// The instant each update became covered in `marks`, or `None` if it never
/// was. Updates must be in routing order. An update left uncovered at the end
/// of its epoch is covered by the first mark of a later epoch that covers
/// its slot; a slot that a merge removed counts as covered, because a merge
/// quiesces both children before it commits.
pub fn cover(marks: &[Mark], landings: &[Landing]) -> Vec<Option<Instant>> {
    let epochs = epochs(marks);
    // One cursor per (epoch, slot): targets rise per slot within an epoch,
    // and so do the marks, so every cursor only moves forward.
    let mut cursors: Vec<[usize; MAX_SLOTS]> =
        epochs.iter().map(|r| [r.start; MAX_SLOTS]).collect();
    landings
        .iter()
        .map(|l| {
            let (e, s) = (l.epoch as usize, l.slot as usize);
            let range = epochs.get(e)?;
            let p = &mut cursors[e][s];
            while *p < range.end && marks[*p].seqs[s] < l.seq {
                *p += 1;
            }
            if *p < range.end {
                return Some(marks[*p].at);
            }
            let later = epochs.get(e + 1)?.start;
            marks[later..]
                .iter()
                .find(|m| s >= m.len || m.seqs[s] >= l.seq)
                .map(|m| m.at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyndens_graph::{ShardFn, VertexId};
    use std::time::Duration;

    fn at(base: Instant, ms: u64) -> Instant {
        base + Duration::from_millis(ms)
    }

    #[test]
    fn coverage_is_per_slot_and_crosses_epochs() {
        let t = Instant::now();
        let marks = vec![
            Mark::new(at(t, 1), &[0, 1]),
            Mark::new(at(t, 2), &[2, 1]),
            Mark::new(at(t, 3), &[2, 3]),
            // Split of slot 0 at seq 2: both children start at 2.
            Mark::new(at(t, 4), &[2, 3, 2]),
            Mark::new(at(t, 5), &[3, 4, 2]),
        ];
        let landings = [
            Landing {
                epoch: 0,
                slot: 1,
                seq: 1,
            },
            Landing {
                epoch: 0,
                slot: 0,
                seq: 1,
            },
            Landing {
                epoch: 0,
                slot: 0,
                seq: 2,
            },
            Landing {
                epoch: 0,
                slot: 1,
                seq: 4,
            },
            Landing {
                epoch: 1,
                slot: 0,
                seq: 3,
            },
            Landing {
                epoch: 1,
                slot: 2,
                seq: 3,
            },
        ];
        let got = cover(&marks, &landings);
        assert_eq!(got[0], Some(at(t, 1)));
        assert_eq!(got[1], Some(at(t, 2)));
        assert_eq!(got[2], Some(at(t, 2)));
        // Not covered in epoch 0: the first covering mark of epoch 1.
        assert_eq!(got[3], Some(at(t, 5)));
        assert_eq!(got[4], Some(at(t, 5)));
        assert_eq!(got[5], None);
    }

    #[test]
    fn routing_follows_split_and_merge_counts() {
        let map = ShardMap::new(ShardFn::Modulo, 2);
        let mut r = Routing::new(map.clone(), 2);
        let u = EdgeUpdate::new(VertexId(0), VertexId(2), 1.0);
        assert_eq!(
            r.land(&u),
            Landing {
                epoch: 0,
                slot: 0,
                seq: 1
            }
        );
        assert_eq!(r.split(0, 2, map.clone()), 1);
        assert_eq!(
            r.land(&u),
            Landing {
                epoch: 1,
                slot: 0,
                seq: 2
            }
        );
        assert_eq!(r.merge(0, 2, map), 3);
        assert_eq!(
            r.land(&u),
            Landing {
                epoch: 2,
                slot: 0,
                seq: 4
            }
        );
    }
}
