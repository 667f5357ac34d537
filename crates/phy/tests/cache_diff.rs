//! Differential properties of [`LinkBudgetCache`] against direct channel
//! recomputation, over random topologies and all three PER models.
//! The all-node pair sweep is held to a per-node walk of the same
//! audibility test.
//!
//! The cache is the network layer's only fan-out and the source of its
//! neighbour delay tables, and these properties are the reference it is
//! held to. The contract is exact: the cached row must contain **exactly**
//! the receivers a direct scan would keep, in ascending order, with
//! bit-identical link budgets — otherwise the channel RNG stream
//! desynchronizes and runs diverge. These properties pin each clause of that contract, including
//! the one the acceptance gate singles out: acoustic-range culling never
//! drops a receiver whose packet-error rate is below 1.

use proptest::prelude::*;

use uasn_phy::cache::LinkBudgetCache;
use uasn_phy::channel::AcousticChannel;
use uasn_phy::geometry::Point;
use uasn_phy::noise::AmbientNoise;
use uasn_phy::per::{Modulation, PerModel};
use uasn_phy::propagation::{LinkBudget, Spreading, TransmissionLoss};
use uasn_phy::sound::SoundSpeedProfile;

/// A channel for PER-model index `model` (0 = lossless, 1 = SNR
/// threshold, 2 = probabilistic modulation), with a configurable horizon
/// (`cutoff`, also scaling the SNR threshold) so the proptest sweep
/// exercises different audible-set shapes.
fn channel_for(model: u8, cutoff: f64) -> AcousticChannel {
    let per = match model {
        0 => PerModel::Lossless,
        1 => PerModel::SnrThreshold {
            threshold_db: cutoff / 100.0,
        },
        _ => PerModel::Modulation {
            scheme: Modulation::NcFsk,
            bandwidth_over_bitrate: 1.0,
        },
    };
    AcousticChannel::new(
        SoundSpeedProfile::default(),
        LinkBudget::new(
            170.0,
            TransmissionLoss::new(Spreading::Spherical, 10.0),
            AmbientNoise::default(),
            12_000.0,
        ),
        per,
        cutoff,
    )
}

/// Random node positions inside a 6 km × 6 km × 1 km box.
fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((0.0f64..6_000.0, 0.0f64..6_000.0, 0.0f64..1_000.0), 2..12).prop_map(
        |coords| {
            coords
                .into_iter()
                .map(|(x, y, z)| Point::new(x, y, z))
                .collect()
        },
    )
}

proptest! {
    /// The row is exactly the uncached audible set, ascending, and the
    /// cached numbers are the recomputed numbers to the last ULP.
    #[test]
    fn cached_rows_match_direct_recomputation(
        positions in positions_strategy(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
    ) {
        let ch = channel_for(model, cutoff);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        for tx in 0..positions.len() {
            cache.ensure_row(&ch, &positions, tx);
            let from = positions[tx];
            let expected: Vec<usize> = (0..positions.len())
                .filter(|&j| j != tx && ch.is_audible(from, positions[j]))
                .collect();
            let got: Vec<usize> =
                cache.row(tx).iter().map(|l| l.rx as usize).collect();
            prop_assert_eq!(&got, &expected, "audible set mismatch for tx {}", tx);
            for link in cache.row(tx) {
                let to = positions[link.rx as usize];
                let d = from.distance(to);
                prop_assert_eq!(link.distance_m.to_bits(), d.to_bits());
                prop_assert_eq!(
                    link.snr_db.to_bits(),
                    ch.budget().snr_db(d).to_bits()
                );
                prop_assert_eq!(link.delay, ch.propagation_delay(from, to));
                prop_assert_eq!(link.echo_delay, None, "no multipath configured");
            }
        }
    }

    /// Culling soundness: no receiver with a packet-error rate below 1 is
    /// ever culled, for any PER model and any geometry.
    #[test]
    fn culling_never_drops_a_deliverable_receiver(
        positions in positions_strategy(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        bits in 1u32..2_048,
    ) {
        let ch = channel_for(model, cutoff);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        for tx in 0..positions.len() {
            cache.ensure_row(&ch, &positions, tx);
            let from = positions[tx];
            for (j, &to) in positions.iter().enumerate() {
                if j == tx {
                    continue;
                }
                if ch.loss_probability(from, to, bits) < 1.0 {
                    prop_assert!(
                        cache.row(tx).iter().any(|l| l.rx as usize == j),
                        "tx {} culled deliverable receiver {}", tx, j
                    );
                }
            }
        }
    }

    /// The horizon bounds every PER model: no audible pair, direct or
    /// surface echo, lies beyond `max_range_m`, which is what lets the
    /// cull, the spatial index and τmax all read that one range.
    #[test]
    fn detection_radius_bounds_every_audible_pair(
        positions in positions_strategy(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        surface_loss_db in 0.0f64..10.0,
    ) {
        let ch = channel_for(model, cutoff).with_two_ray(surface_loss_db);
        let horizon = ch.max_range_m();
        for (i, &from) in positions.iter().enumerate() {
            for (j, &to) in positions.iter().enumerate() {
                if i == j {
                    continue;
                }
                if ch.is_audible(from, to) {
                    prop_assert!(
                        from.distance(to) <= horizon,
                        "audible pair ({}, {}) at {} m past the {} m horizon",
                        i, j, from.distance(to), horizon
                    );
                }
                if ch.echo_audible(from, to) {
                    prop_assert!(
                        ch.echo_path_m(from, to) <= horizon,
                        "audible echo ({}, {}) over {} m past the {} m horizon",
                        i, j, ch.echo_path_m(from, to), horizon
                    );
                }
            }
        }
    }

    /// The row-free walk lists exactly the `(rx, delay)` pairs of the row
    /// `ensure_row` builds, and moves the statistics the same way, whether
    /// the row is fresh or stale, with and without the spatial index, and
    /// across mobility epochs. It never builds the row itself.
    #[test]
    fn neighbor_delays_match_the_built_row(
        start in positions_strategy(),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        indexed in proptest::bool::ANY,
        fresh in proptest::num::u32::ANY,
        moves in proptest::collection::vec(
            (0usize..12, -3_000.0f64..3_000.0, -3_000.0f64..3_000.0),
            0..6,
        ),
    ) {
        let ch = channel_for(model, cutoff);
        let mut positions = start;
        let make = |p: &Vec<Point>| {
            if indexed {
                LinkBudgetCache::with_index(&ch, p)
            } else {
                LinkBudgetCache::new(&ch, p.len())
            }
        };
        let (mut walked, mut built) = (make(&positions), make(&positions));
        let mut out = Vec::new();
        for epoch in 0..3 {
            let mut walked_stale = Vec::new();
            for tx in 0..positions.len() {
                // Rows picked by `fresh` are built in both caches first, so
                // the walk copies a fresh row; the rest it walks stale.
                if fresh >> ((tx + 5 * epoch) % 32) & 1 == 1 {
                    walked.ensure_row(&ch, &positions, tx);
                    built.ensure_row(&ch, &positions, tx);
                } else {
                    walked_stale.push(tx);
                }
                walked.neighbor_delays(&ch, &positions, tx, &mut out);
                built.ensure_row(&ch, &positions, tx);
                let expected: Vec<(u32, _)> =
                    built.row(tx).iter().map(|l| (l.rx, l.delay)).collect();
                prop_assert_eq!(&out, &expected, "epoch {}, tx {}", epoch, tx);
                prop_assert_eq!(walked.stats(), built.stats(), "epoch {}, tx {}", epoch, tx);
            }
            // A walk from a stale row stored none: walking it again on a
            // copy is a miss again.
            let mut probe = walked.clone();
            for &tx in &walked_stale {
                let misses = probe.stats().misses;
                probe.neighbor_delays(&ch, &positions, tx, &mut out);
                prop_assert_eq!(probe.stats().misses, misses + 1, "epoch {}, tx {}", epoch, tx);
            }
            for &(node, dx, dy) in &moves {
                let node = node % positions.len();
                let p = positions[node];
                let moved = Point::new(p.x + dx, p.y + dy, p.z);
                positions[node] = moved;
                walked.note_move(node as u32, moved);
                built.note_move(node as u32, moved);
            }
            walked.invalidate();
            built.invalidate();
        }
    }

    /// Echo delays are cached exactly when the channel's multipath model
    /// makes the surface echo audible.
    #[test]
    fn multipath_rows_cache_exact_echo_delays(
        positions in positions_strategy(),
        surface_loss_db in 1.0f64..12.0,
    ) {
        let ch = channel_for(0, 2_500.0).with_two_ray(surface_loss_db);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        for tx in 0..positions.len() {
            cache.ensure_row(&ch, &positions, tx);
            let from = positions[tx];
            for link in cache.row(tx) {
                let to = positions[link.rx as usize];
                let expected = ch
                    .echo_audible(from, to)
                    .then(|| ch.echo_delay(from, to));
                prop_assert_eq!(link.echo_delay, expected);
            }
        }
    }

    /// The pair sweep gives every node the degree and uphill flag a
    /// per-node walk of `is_audible` gives it, with and without the
    /// spatial index, across mobility epochs with small moves and far
    /// moves that clamp into border cells, on a huge sparse extent that
    /// grows the cell edge, around a cell corner, with coincident nodes
    /// and with 0, 1 or 2 nodes. It never touches the statistics. The box is as deep as the
    /// horizon is long, so pairs straddle cells along every axis.
    #[test]
    fn sweep_matches_a_per_node_walk(
        raw in proptest::collection::vec(
            (0.0f64..6_000.0, 0.0f64..6_000.0, 0.0f64..4_000.0),
            0..40,
        ),
        model in 0u8..3,
        cutoff in 400.0f64..4_000.0,
        layout in 0u8..3,
        coincident in proptest::bool::ANY,
        indexed in proptest::bool::ANY,
        moves in proptest::collection::vec(
            (0usize..40, -3_000.0f64..3_000.0, -3_000.0f64..3_000.0, proptest::bool::ANY),
            0..12,
        ),
    ) {
        let ch = channel_for(model, cutoff);
        let mut positions: Vec<Point> = raw.iter().map(|&(x, y, z)| Point::new(x, y, z)).collect();
        let cell = ch.index_cell_m().expect("the horizon admits an index");
        for k in 0..positions.len() {
            let (x, y, z) = raw[k];
            positions[k] = match layout {
                // Spread over 300 km, each odd node within 600 m of its
                // even partner: the box needs far more cells than the
                // budget, so the edge grows.
                1 if k % 2 == 1 => {
                    let p = positions[k - 1];
                    Point::new(p.x + x / 10.0, p.y + y / 10.0, z)
                }
                1 => Point::new(x * 50.0, y * 50.0, z),
                // Within half a horizon of a cell corner along each
                // axis: pairs straddle the corner in every direction.
                2 => {
                    let near = |v: f64, span: f64| 2.0 * cell + (v / span - 0.5) * cutoff;
                    Point::new(near(x, 6_000.0), near(y, 6_000.0), near(z, 4_000.0))
                }
                _ => positions[k],
            };
        }
        if coincident && positions.len() >= 2 {
            positions[1] = positions[0];
        }
        let mut cache = if indexed {
            LinkBudgetCache::with_index(&ch, &positions)
        } else {
            LinkBudgetCache::new(&ch, positions.len())
        };
        for epoch in 0..3 {
            let stats = cache.stats();
            let sweep = cache.audible_sweep(&ch, &positions);
            prop_assert_eq!(cache.stats(), stats, "epoch {}", epoch);
            for (i, &from) in positions.iter().enumerate() {
                let heard: Vec<usize> = (0..positions.len())
                    .filter(|&j| j != i && ch.is_audible(from, positions[j]))
                    .collect();
                let uphill = heard.iter().any(|&j| positions[j].depth() < from.depth());
                prop_assert_eq!(sweep.degree[i] as usize, heard.len(), "epoch {}, node {}", epoch, i);
                prop_assert_eq!(sweep.hears_shallower[i], uphill, "epoch {}, node {}", epoch, i);
            }
            prop_assert_eq!(sweep.degree.len(), positions.len());
            prop_assert_eq!(sweep.hears_shallower.len(), positions.len());
            if positions.is_empty() {
                break;
            }
            for &(node, dx, dy, far) in &moves {
                let node = node % positions.len();
                let p = positions[node];
                // A far move leaves the build-time box and clamps.
                let (dx, dy) = if far { (dx * 20.0, dy * 20.0) } else { (dx, dy) };
                let moved = Point::new(p.x + dx, p.y + dy, p.z);
                positions[node] = moved;
                cache.note_move(node as u32, moved);
            }
            cache.invalidate();
        }
    }
}
