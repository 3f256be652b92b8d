//! What EER and CR share around their decision rules: the per-peer decision
//! batches, decided whole at contact-up (Algorithm 1; Algorithms 3–4) and
//! drained one transfer at a time as the link frees, and the per-horizon
//! estimate cache their replica splits read.

use dtn_sim::{ContactCtx, NodeId, SimTime, TransferAction, TransferPlan};
use std::collections::VecDeque;

/// Pending transfer decisions per active contact.
#[derive(Debug, Default)]
pub(crate) struct DecisionBatches {
    queues: Vec<(NodeId, VecDeque<TransferPlan>)>,
}

impl DecisionBatches {
    /// Makes `batch` the pending decisions towards `peer`, replacing any
    /// earlier batch.
    pub(crate) fn decide(&mut self, peer: NodeId, batch: VecDeque<TransferPlan>) {
        match self.queues.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, queue)) => *queue = batch,
            None => self.queues.push((peer, batch)),
        }
    }

    /// Forgets the batch towards `peer`: its contact went down.
    pub(crate) fn forget(&mut self, peer: NodeId) {
        self.queues.retain(|(p, _)| *p != peer);
    }

    /// The next decision towards `ctx.peer` that still applies. A plan is
    /// skipped when its message left the buffer since the decision, was
    /// already sent during this contact, or is now held by the peer (unless
    /// the peer is its destination). A split gives at most the copies left,
    /// and becomes a forward when it gives them all.
    pub(crate) fn next(&mut self, ctx: &ContactCtx<'_>) -> Option<TransferPlan> {
        let (_, queue) = self.queues.iter_mut().find(|(p, _)| *p == ctx.peer)?;
        while let Some(plan) = queue.pop_front() {
            let Some(entry) = ctx.buf.get(plan.msg) else {
                continue; // dropped (TTL/eviction) since the decision
            };
            if ctx.sent.contains(&plan.msg) {
                continue;
            }
            if entry.msg.dst != ctx.peer && ctx.peer_buf.contains(plan.msg) {
                continue; // peer acquired it from a third party meanwhile
            }
            let plan = match plan.action {
                TransferAction::Split { give } => {
                    // Copies may have shrunk due to a concurrent contact.
                    let give = give.min(entry.copies);
                    if give == 0 {
                        continue;
                    }
                    if give == entry.copies {
                        TransferPlan::forward(plan.msg)
                    } else {
                        TransferPlan::split(plan.msg, give)
                    }
                }
                _ => plan,
            };
            return Some(plan);
        }
        None
    }
}

/// One node's estimates per horizon, each reused for `refresh` seconds
/// after it was computed.
#[derive(Debug)]
pub(crate) struct HorizonCache {
    refresh: f64,
    /// (τ bits, computed-at seconds, value).
    entries: Vec<(u64, f64, f64)>,
}

impl HorizonCache {
    /// An empty cache whose estimates live `refresh` seconds.
    pub(crate) fn new(refresh: f64) -> Self {
        HorizonCache {
            refresh,
            entries: Vec::new(),
        }
    }

    /// The estimate over horizon `tau` at `now`: a live cached one, or
    /// `estimate()`, cached after the expired entries are evicted.
    pub(crate) fn get(&mut self, now: SimTime, tau: f64, estimate: impl FnOnce() -> f64) -> f64 {
        let bits = tau.to_bits();
        let t = now.as_secs();
        if let Some(&(_, _, v)) = self
            .entries
            .iter()
            .find(|(b, at, _)| *b == bits && t - at <= self.refresh)
        {
            return v;
        }
        let v = estimate();
        self.entries.retain(|(_, at, _)| t - at <= self.refresh);
        self.entries.push((bits, t, v));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::{Buffer, BufferEntry, Message, MessageId, SentSet, SimStats};

    const ME: NodeId = NodeId(0);
    const PEER: NodeId = NodeId(1);

    fn entry(id: u32, dst: NodeId, copies: u32) -> BufferEntry {
        BufferEntry {
            msg: Message {
                id: MessageId(id),
                src: ME,
                dst,
                size: 10,
                created: SimTime::ZERO,
                ttl: 100.0,
            },
            copies,
            received_at: SimTime::ZERO,
            hops: 0,
        }
    }

    /// Drains the batch `plans` towards `PEER` over the two buffers.
    fn drain(mine: &Buffer, theirs: &Buffer, plans: &[TransferPlan]) -> Vec<TransferPlan> {
        let mut batches = DecisionBatches::default();
        batches.decide(PEER, plans.iter().copied().collect());
        let (mut stats, mut purge) = (SimStats::new(0), Vec::new());
        let ctx = ContactCtx {
            now: SimTime::ZERO,
            me: ME,
            peer: PEER,
            buf: mine,
            peer_buf: theirs,
            stats: &mut stats,
            sent: SentSet::empty(),
            purge: &mut purge,
        };
        std::iter::from_fn(|| batches.next(&ctx)).collect()
    }

    /// A split planned before the copies shrank gives only what is left,
    /// and one that takes every copy left is a forward.
    #[test]
    fn splits_are_clamped_to_the_copies_left() {
        let mut mine = Buffer::new(1_000);
        for (id, copies) in [(1, 3), (2, 3), (3, 5)] {
            mine.insert(entry(id, NodeId(9), copies)).unwrap();
        }
        let plans = [
            TransferPlan::split(MessageId(1), 8),
            TransferPlan::split(MessageId(2), 3),
            TransferPlan::split(MessageId(3), 2),
        ];
        assert_eq!(
            drain(&mine, &Buffer::new(1_000), &plans),
            [
                TransferPlan::forward(MessageId(1)),
                TransferPlan::forward(MessageId(2)),
                TransferPlan::split(MessageId(3), 2),
            ]
        );
    }

    /// Plans whose message left this buffer, or that the peer now holds,
    /// are skipped; a plan to the message's destination is kept even when
    /// the destination's buffer lists it.
    #[test]
    fn stale_plans_are_skipped_but_deliveries_kept() {
        let (mut mine, mut theirs) = (Buffer::new(1_000), Buffer::new(1_000));
        mine.insert(entry(1, NodeId(9), 1)).unwrap();
        mine.insert(entry(2, PEER, 1)).unwrap();
        mine.insert(entry(3, NodeId(9), 1)).unwrap();
        theirs.insert(entry(1, NodeId(9), 1)).unwrap();
        theirs.insert(entry(2, PEER, 1)).unwrap();
        let plans = [
            TransferPlan::forward(MessageId(7)),
            TransferPlan::forward(MessageId(1)),
            TransferPlan::forward(MessageId(2)),
            TransferPlan::forward(MessageId(3)),
        ];
        assert_eq!(
            drain(&mine, &theirs, &plans),
            [
                TransferPlan::forward(MessageId(2)),
                TransferPlan::forward(MessageId(3)),
            ]
        );
    }

    /// The batch is per peer: another peer's batch, or a forgotten one,
    /// yields nothing.
    #[test]
    fn batches_belong_to_their_peer() {
        let mut mine = Buffer::new(1_000);
        mine.insert(entry(1, NodeId(9), 1)).unwrap();
        let (mut stats, mut purge, theirs) = (SimStats::new(0), Vec::new(), Buffer::new(1_000));
        let ctx = ContactCtx {
            now: SimTime::ZERO,
            me: ME,
            peer: PEER,
            buf: &mine,
            peer_buf: &theirs,
            stats: &mut stats,
            sent: SentSet::empty(),
            purge: &mut purge,
        };
        let mut batches = DecisionBatches::default();
        batches.decide(NodeId(2), [TransferPlan::forward(MessageId(1))].into());
        assert_eq!(batches.next(&ctx), None);
        batches.decide(PEER, [TransferPlan::forward(MessageId(1))].into());
        batches.forget(PEER);
        assert_eq!(batches.next(&ctx), None);
    }

    /// An estimate is reused within the refresh window of its horizon and
    /// recomputed after it.
    #[test]
    fn horizon_cache_reuses_within_refresh() {
        let mut cache = HorizonCache::new(10.0);
        let at = SimTime::secs;
        assert_eq!(cache.get(at(0.0), 5.0, || 1.0), 1.0);
        assert_eq!(cache.get(at(10.0), 5.0, || 2.0), 1.0);
        assert_eq!(cache.get(at(10.0), 6.0, || 3.0), 3.0);
        assert_eq!(cache.get(at(10.5), 5.0, || 4.0), 4.0);
    }
}
