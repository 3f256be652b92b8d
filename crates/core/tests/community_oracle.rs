//! CR's community-sized intra-MI against the global layout it replaced: an
//! `n`-row `MiMatrix` per node in which only the own community's rows are
//! set and compared (`merge_rows_from`), and MEMD′ solved over it with
//! `restrict` set to the community.
//!
//! Real `Cr` routers run their contact-up handshakes over generated contact
//! sequences, while the oracle replays the same meetings into global
//! tables. After every contact, each side's control bytes, the number of
//! rows it adopted, every node's MEMD′ vector and every stamp and row must
//! match the oracle's restricted to the community, bit for bit.

use ce_core::memd::{emd_entries, solve_into};
use ce_core::{CommunityMap, ContactHistory, Cr, CrConfig, MiMatrix};
use dtn_sim::{Buffer, ContactCtx, NodeId, Router, SentSet, SimStats, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

/// One node as the global layout kept it.
struct Global {
    history: ContactHistory,
    mi: MiMatrix,
}

/// The old CR handshake for `me` meeting `peer`: record the meeting and,
/// within a community, publish the own row over global ids and adopt the
/// peer's fresher community rows. Returns `(copied, control bytes)`.
fn global_contact_up(
    nodes: &mut [Global],
    map: &CommunityMap,
    me: usize,
    peer: usize,
    now: SimTime,
) -> Option<(usize, u64)> {
    let (me_id, peer_id) = (NodeId(me as u32), NodeId(peer as u32));
    nodes[me].history.record_meeting(peer_id, now);
    if !map.same_community(me_id, peer_id) {
        return None;
    }
    let cid = map.cid(me_id);
    let row: Vec<(u32, f64)> = nodes[me]
        .history
        .mean_row()
        .filter(|&(j, _)| map.cid(NodeId(j)) == cid)
        .collect();
    nodes[me].mi.set_row(me_id, row, now.as_secs());
    let members = map.members(cid);
    let peer_mi = nodes[peer].mi.clone();
    let copied = nodes[me].mi.merge_rows_from(&peer_mi, members);
    Some((copied, 8 * (copied * members.len() + members.len()) as u64))
}

/// Runs `me`'s contact-up with `peer` on real routers, with empty buffers,
/// and returns the control bytes it accounted.
fn cr_contact_up(routers: &mut [Cr], me: usize, peer: usize, now: SimTime) -> u64 {
    let buf = Buffer::new(1 << 20);
    let mut stats = SimStats::new(0);
    let mut purge = Vec::new();
    let mut ctx = ContactCtx {
        now,
        me: NodeId(me as u32),
        peer: NodeId(peer as u32),
        buf: &buf,
        peer_buf: &buf,
        stats: &mut stats,
        sent: SentSet::empty(),
        purge: &mut purge,
    };
    let (a, b) = if me < peer {
        let (lo, hi) = routers.split_at_mut(peer);
        (&mut lo[me], &mut hi[0])
    } else {
        let (lo, hi) = routers.split_at_mut(me);
        (&mut hi[0], &mut lo[peer])
    };
    a.on_contact_up(&mut ctx, b);
    stats.control_bytes
}

/// A generated contact sequence: node count, community ids (up to three
/// communities), and `(a, peer offset, gap kind, gap)` steps.
#[allow(clippy::type_complexity)]
fn contact_case() -> impl Strategy<Value = (usize, Vec<u32>, Vec<(usize, usize, u32, f64)>)> {
    (3usize..14).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(0u32..3, n),
            proptest::collection::vec((0..n, 1..n, 0u32..4, 0.0f64..150.0), 1..80),
        )
    })
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (k, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{k}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn community_table_matches_global_restricted((n, cids, steps) in contact_case()) {
        let map = Arc::new(CommunityMap::new(cids));
        let cfg = CrConfig { window: 4, ..CrConfig::default() };
        let mut routers: Vec<Cr> = (0..n as u32)
            .map(|i| Cr::with_config(NodeId(i), n as u32, Arc::clone(&map), cfg))
            .collect();
        let mut global: Vec<Global> = (0..n as u32)
            .map(|i| Global {
                history: ContactHistory::new(NodeId(i), n as u32, cfg.window),
                mi: MiMatrix::new(n as u32),
            })
            .collect();
        let mut full = Vec::new();
        let mut t = 0.0;
        for (a, offset, kind, gap) in steps {
            // Kind 0 meets again at the same instant, kind 1 after a round gap.
            t += match kind { 0 => 0.0, 1 => 20.0, _ => gap };
            let now = SimTime::secs(t);
            let b = (a + offset) % n;
            // The engine's handshake order: one side, then the other.
            for (me, peer) in [(a, b), (b, a)] {
                let bytes = cr_contact_up(&mut routers, me, peer, now);
                match global_contact_up(&mut global, &map, me, peer, now) {
                    Some((copied, want)) => {
                        prop_assert_eq!(bytes, want, "control bytes of {} meeting {}", me, peer);
                        let size = map.members(map.cid(NodeId(me as u32))).len() as u64;
                        prop_assert_eq!((bytes / 8 - size) / size, copied as u64, "copied rows");
                    }
                    None => prop_assert_eq!(bytes, 0, "no gossip across communities"),
                }
            }
            for later in [0.0, 37.5] {
                let now = SimTime::secs(t + later);
                for (i, (router, node)) in routers.iter().zip(&global).enumerate() {
                    let members = map.members(map.cid(NodeId(i as u32)));
                    let own_row = emd_entries(&node.history, now);
                    solve_into(&mut full, node.history.me(), &node.mi, own_row, Some(members));
                    let want: Vec<f64> = members.iter().map(|m| full[m.idx()]).collect();
                    assert_bits(&router.intra_memd(now), &want, "MEMD′");
                    let table = router.intra_mi();
                    prop_assert_eq!(table.n(), members.len());
                    for (k, m) in members.iter().enumerate() {
                        let local = NodeId(k as u32);
                        prop_assert_eq!(table.row_time(local).to_bits(), node.mi.row_time(*m).to_bits());
                        let mapped: Vec<(u32, f64)> = node
                            .mi
                            .row_entries(*m)
                            .iter()
                            .map(|&(j, v)| (map.position(NodeId(j)), v))
                            .collect();
                        prop_assert_eq!(table.row_entries(local), mapped.as_slice());
                    }
                }
            }
        }
    }
}
