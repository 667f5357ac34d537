//! Property test for CS-MAC's cached table announcement: after any
//! sequence of `observe` and `observe_all` calls, with announcements taken
//! in between, `SlottedCore::table_announcement` hands out exactly the
//! snapshot a fresh core with the same table would build, and hands out
//! the cached allocation again whenever the announced pairs are unchanged.

use std::sync::Arc;

use proptest::prelude::*;

use uasn_net::node::NodeId;
use uasn_net::slotted::{CoreConfig, SlottedCore};
use uasn_sim::time::{SimDuration, SimTime};

/// The announcement a core that never announced before builds.
fn fresh(core: &SlottedCore) -> Option<Vec<(NodeId, SimDuration)>> {
    let mut fresh = SlottedCore::new(core.id, core.cfg);
    fresh.neighbors = core.neighbors.clone();
    fresh.table_announcement().map(|s| s.to_vec())
}

proptest! {
    /// Ops: 0–3 observe one `(id, delay)`, 4 observes a list at once, 5–7
    /// announce. Ids run past the 16 announced entries and delays repeat,
    /// so re-observations that change nothing, changes beyond the cap and
    /// changes inside it all occur.
    #[test]
    fn cached_announcement_equals_a_fresh_one(
        ops in proptest::collection::vec(
            (0u8..8, 0u32..24, 0u64..3, proptest::collection::vec((0u32..24, 0u64..3), 0..6)),
            1..120,
        ),
    ) {
        let cfg = CoreConfig { announce_table: true, ..CoreConfig::default() };
        let mut core = SlottedCore::new(NodeId::new(99), cfg);
        let mut last: Option<Arc<[(NodeId, SimDuration)]>> = None;
        for (step, (kind, id, delay, list)) in ops.into_iter().enumerate() {
            let now = SimTime::from_micros(step as u64);
            let delay_of = |d: u64| SimDuration::from_micros(1_000 + d);
            match kind {
                0..=3 => core.neighbors.observe(NodeId::new(id), delay_of(delay), now),
                4 => {
                    let list: Vec<_> =
                        list.iter().map(|&(id, d)| (NodeId::new(id), delay_of(d))).collect();
                    core.neighbors.observe_all(&list, now);
                }
                _ => {
                    let want = fresh(&core);
                    let got = core.table_announcement();
                    prop_assert_eq!(got.as_ref().map(|s| s.to_vec()), want);
                    if let (Some(prev), Some(got)) = (&last, &got) {
                        // Same pairs, same allocation.
                        prop_assert_eq!(Arc::ptr_eq(prev, got), prev[..] == got[..]);
                    }
                    if got.is_some() {
                        last = got;
                    }
                }
            }
        }
    }
}
