//! Per-pair link-budget memoization for the transmission fan-out hot path.
//!
//! Every transmission in the network simulator asks the channel, for each
//! potential receiver: distance, SNR (a transmission-loss `log10` against
//! the band noise level the link budget fixed at construction),
//! propagation delay, audibility, and — when multipath is configured — the
//! surface-echo geometry. On a static topology none of that changes between
//! transmissions, so
//! [`LinkBudgetCache`] computes each transmitter's audible-receiver row once
//! and replays it until a mobility epoch invalidates it.
//!
//! Rows are built only when a node transmits. A caller that needs one
//! node's receivers without a row walks them:
//! [`LinkBudgetCache::neighbor_delays`] lists their `(rx, delay)` pairs
//! (the network's one-hop delay tables at construction). A caller that
//! needs a count for every node (energy and maintenance accounting, the
//! connectivity check) reads [`LinkBudgetCache::audible_sweep`], which
//! tests each audible pair once, since audibility is symmetric, and
//! credits both ends. Every walk computes only what its caller reads. The
//! SNR, a transmission-loss `log10` per candidate, is computed for the
//! audibility test only when the PER model decides on it
//! ([`PerModel::reads_snr`](crate::per::PerModel::reads_snr): the SNR
//! threshold and modulation models); the lossless model is decided by the
//! horizon alone. A row build still stores the SNR of every link it keeps,
//! because the delivery draw replays it.
//!
//! Every walk is culled at the channel's horizon,
//! [`AcousticChannel::max_range_m`], which bounds every PER model: no
//! receiver beyond it is ever heard, so the cull radius is that range
//! (padded by [`CULL_MARGIN`]) and every cache built
//! [`with_index`](LinkBudgetCache::with_index) visits only the
//! transmitter's grid neighbourhood. A row therefore also serves as the
//! node's neighbourhood for routing (`uasn-net`'s `uphill_candidates`).
//!
//! Correctness contract (enforced by the differential tests in
//! `crates/phy/tests` and the golden-trace suite in `crates/bench/tests`):
//! a cached row must list **exactly** the receivers the uncached loop would
//! visit, in the same (ascending) order, with bit-identical `(distance,
//! snr)` pairs — because the channel RNG is consumed per audible receiver
//! in that order, any divergence desynchronizes the random stream and
//! changes the run.

use uasn_sim::time::SimDuration;

use crate::channel::AcousticChannel;
use crate::geometry::Point;
use crate::grid::SpatialGrid;
use crate::soa::PositionSource;

/// Safety factor applied on top of the horizon,
/// [`AcousticChannel::max_range_m`], before culling a receiver without an
/// exact audibility check.
///
/// The horizon is exact for every PER model, so the margin only has to
/// absorb the last-ULP difference between the cull's squared-distance
/// comparison and the exact `Point::distance` the audibility check uses;
/// any factor a few ULPs above 1 would do. The spatial index's cell edge
/// applies it twice ([`AcousticChannel::index_cell_m`]), and the split
/// between [`CacheStats::cull_rejects`] and
/// [`CacheStats::audibility_rejects`] depends on it.
pub const CULL_MARGIN: f64 = 1.05;

/// One memoized transmitter→receiver link.
///
/// `distance_m` and `snr_db` are exactly the values
/// [`AcousticChannel::loss_probability`] would recompute from positions, so
/// feeding them to [`AcousticChannel::draw_delivery_at`] reproduces the
/// uncached delivery draw bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedLink {
    /// Receiver node index.
    pub rx: u32,
    /// Direct-path distance, metres.
    pub distance_m: f64,
    /// Direct-path SNR, dB.
    pub snr_db: f64,
    /// Direct-path propagation delay.
    pub delay: SimDuration,
    /// Surface-echo propagation delay, present iff the echo is audible
    /// under the channel's multipath model.
    pub echo_delay: Option<SimDuration>,
}

/// One transmitter's cached fan-out row.
#[derive(Debug, Clone, Default)]
struct Row {
    /// Epoch the row was built at; 0 means never built (epochs start at 1).
    epoch: u64,
    links: Vec<CachedLink>,
}

/// Lifetime effectiveness counters for a [`LinkBudgetCache`].
///
/// Deterministic for a given run (they count structural decisions, not wall
/// time), so they can ride in profile reports without perturbing anything.
/// Maintained unconditionally: a few integer adds per row build are noise
/// next to the per-link transmission-loss and delay arithmetic they sit
/// beside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `ensure_row` calls answered by a fresh row (epoch matched).
    pub hits: u64,
    /// `ensure_row` calls that had to (re)build the row.
    pub misses: u64,
    /// `invalidate` calls (mobility epochs).
    pub invalidations: u64,
    /// Candidate receivers rejected by the squared-distance cull during row
    /// builds, skipping the exact link-budget arithmetic.
    pub cull_rejects: u64,
    /// Candidate receivers that survived the cull but failed the exact
    /// audibility check.
    pub audibility_rejects: u64,
}

impl CacheStats {
    /// Fraction of `ensure_row` calls served without a rebuild.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }

    /// Fraction of rejected candidates the cheap cull caught before the
    /// exact arithmetic ran.
    pub fn cull_rate(&self) -> f64 {
        let rejected = self.cull_rejects + self.audibility_rejects;
        if rejected > 0 {
            self.cull_rejects as f64 / rejected as f64
        } else {
            0.0
        }
    }
}

/// [`AcousticChannel::propagation_delay`] from `from` to `to` on the
/// distance between them already computed, so the delay is bit-identical
/// to it.
fn link_delay(channel: &AcousticChannel, from: Point, to: Point, distance_m: f64) -> SimDuration {
    let delay_s = channel
        .sound()
        .propagation_delay_secs(distance_m, from.depth(), to.depth());
    SimDuration::from_secs_f64(delay_s)
}

/// The exact audibility test of every walk: `Some` when a 1-bit frame
/// over `distance_m` is heard ([`AcousticChannel::loss_probability_at`]
/// below 1, the arithmetic of [`AcousticChannel::is_audible`]), `None`
/// when it is lost. The SNR (a transmission-loss `log10`) is computed,
/// and returned inside the `Some`, only when the PER model reads it
/// (`reads_snr`, from [`PerModel::reads_snr`](crate::per::PerModel::reads_snr));
/// the lossless model is decided by the horizon alone.
fn heard(channel: &AcousticChannel, reads_snr: bool, distance_m: f64) -> Option<Option<f64>> {
    let snr_db = reads_snr.then(|| channel.budget().snr_db(distance_m));
    // A model that does not read the SNR is handed NaN in its place.
    if channel.loss_probability_at(distance_m, snr_db.unwrap_or(f64::NAN), 1) >= 1.0 {
        None
    } else {
        Some(snr_db)
    }
}

/// Every node's view of the audible pairs at one set of positions, from
/// [`LinkBudgetCache::audible_sweep`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AudibleSweep {
    /// How many nodes each node hears: the length its row would have.
    pub degree: Vec<u32>,
    /// Whether each node hears some node strictly shallower than itself:
    /// a depth-routing witness.
    pub hears_shallower: Vec<bool>,
}

/// Memoizes each transmitter's audible receivers with their link budgets.
///
/// Rows are built lazily, by [`ensure_row`](Self::ensure_row) on a
/// transmission (a node that never transmits never pays), and invalidated
/// in O(1) by bumping the global epoch when node positions change.
/// [`neighbor_delays`](Self::neighbor_delays) reads a fresh row but never
/// builds one; on a stale row it walks the receivers a build would keep
/// and stores nothing. [`audible_sweep`](Self::audible_sweep) reads no
/// row at all.
///
/// # Examples
///
/// ```
/// use uasn_phy::cache::LinkBudgetCache;
/// use uasn_phy::channel::AcousticChannel;
/// use uasn_phy::geometry::Point;
///
/// let ch = AcousticChannel::paper_default();
/// let positions = vec![
///     Point::new(0.0, 0.0, 100.0),
///     Point::new(1_000.0, 0.0, 100.0),
///     Point::new(9_000.0, 0.0, 100.0), // out of range
/// ];
/// let mut cache = LinkBudgetCache::new(&ch, positions.len());
/// cache.ensure_row(&ch, &positions, 0);
/// assert_eq!(cache.row_len(0), 1); // only node 1 is audible
/// assert_eq!(cache.link_at(0, 0).rx, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LinkBudgetCache {
    epoch: u64,
    /// Squared cull radius: the horizon with the margin applied.
    cull_radius_sq: f64,
    rows: Vec<Row>,
    stats: CacheStats,
    /// Optional spatial index: when present, row builds visit only the
    /// 27-cell neighbourhood around the transmitter instead of all N nodes,
    /// and the cull runs inside the grid query.
    grid: Option<SpatialGrid>,
    /// Scratch buffer for the grid query's survivors (kept to avoid a
    /// per-build allocation).
    scratch: Vec<u32>,
}

impl LinkBudgetCache {
    /// Creates an empty cache for `node_count` nodes, culling at the
    /// channel's horizon. Without an index every walk tests every node
    /// against the cull radius: the reference path the differential tests
    /// hold [`with_index`](Self::with_index) to.
    pub fn new(channel: &AcousticChannel, node_count: usize) -> Self {
        let padded = channel.max_range_m() * CULL_MARGIN;
        LinkBudgetCache {
            epoch: 1,
            cull_radius_sq: padded * padded,
            rows: vec![Row::default(); node_count],
            stats: CacheStats::default(),
            grid: None,
            scratch: Vec::new(),
        }
    }

    /// Like [`LinkBudgetCache::new`], but additionally builds a
    /// [`SpatialGrid`] over `positions` (cell edge
    /// [`AcousticChannel::index_cell_m`]) so row builds only visit
    /// candidate-neighbour cells. Rows (and therefore the channel-RNG
    /// consumption of anything replaying them) are bit-identical to the
    /// unindexed cache's.
    pub fn with_index<P: PositionSource + ?Sized>(
        channel: &AcousticChannel,
        positions: &P,
    ) -> Self {
        let mut cache = Self::new(channel, positions.node_count());
        cache.grid = channel
            .index_cell_m()
            .map(|cell_m| SpatialGrid::build(cell_m, positions));
        cache
    }

    /// Whether a spatial index is attached.
    pub fn has_index(&self) -> bool {
        self.grid.is_some()
    }

    /// Re-bins `node` in the spatial index after a position change. A no-op
    /// without an index. Callers must still [`invalidate`](Self::invalidate)
    /// once per mobility epoch; this only keeps the index itself fresh.
    pub fn note_move(&mut self, node: u32, p: Point) {
        if let Some(grid) = &mut self.grid {
            grid.note_move(node, p);
        }
    }

    /// Current mobility epoch (starts at 1; rows stamped with an older
    /// epoch are stale).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Invalidates every row in O(1); call after any position update.
    pub fn invalidate(&mut self) {
        self.epoch += 1;
        self.stats.invalidations += 1;
    }

    /// Lifetime effectiveness counters (hits, misses, cull rejects, ...).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Builds (or refreshes) transmitter `tx`'s row from current positions.
    ///
    /// The row enumerates receivers in ascending index order — the same
    /// order the uncached fan-out visits them — keeping every receiver the
    /// uncached loop would keep and nothing else. The cull radius only
    /// short-circuits pairs that are provably inaudible; every surviving
    /// pair still goes through the exact audibility arithmetic. With a
    /// spatial index attached, nodes outside the transmitter's 27-cell
    /// neighbourhood are skipped without even the squared-distance test —
    /// the cell edge exceeds the cull radius, so every skipped node is one
    /// the cull would have rejected — and the neighbourhood is culled inside
    /// the grid query on the positions the grid stores, so only survivors
    /// are sorted. Every dropped node is counted as culled to keep the
    /// statistics layout-independent. The row is sized to the cull's
    /// survivors before it is filled, so a first build allocates once.
    pub fn ensure_row<P: PositionSource + ?Sized>(
        &mut self,
        channel: &AcousticChannel,
        positions: &P,
        tx: usize,
    ) {
        if self.is_fresh(positions.node_count(), tx) {
            return;
        }
        let from = positions.position(tx);
        let mut links = std::mem::take(&mut self.rows[tx].links);
        links.clear();
        links.reserve_exact(self.cull(positions, tx));
        self.walk_audible(channel, positions, tx, |j, to, distance_m, snr_db| {
            let echo_delay = channel
                .echo_audible(from, to)
                .then(|| channel.echo_delay(from, to));
            links.push(CachedLink {
                rx: j as u32,
                distance_m,
                // The SNR the walk skipped is the one it would have
                // computed: same function, same distance.
                snr_db: snr_db.unwrap_or_else(|| channel.budget().snr_db(distance_m)),
                delay: link_delay(channel, from, to, distance_m),
                echo_delay,
            });
        });
        self.rows[tx] = Row {
            epoch: self.epoch,
            links,
        };
    }

    /// Fills `out` with the `(rx, delay)` pairs of `tx`'s row, ascending by
    /// `rx`: what [`row`](Self::row) holds after
    /// [`ensure_row`](Self::ensure_row), with the same change to
    /// [`stats`](Self::stats). A stale row
    /// is not rebuilt: the walk computes each receiver's delay but no
    /// echo and stores no row, so the row stays stale. A fresh row is
    /// copied. This is what a one-hop delay table needs from the channel.
    pub fn neighbor_delays<P: PositionSource + ?Sized>(
        &mut self,
        channel: &AcousticChannel,
        positions: &P,
        tx: usize,
        out: &mut Vec<(u32, SimDuration)>,
    ) {
        out.clear();
        if self.is_fresh(positions.node_count(), tx) {
            out.extend(self.rows[tx].links.iter().map(|l| (l.rx, l.delay)));
            return;
        }
        let from = positions.position(tx);
        out.reserve(self.cull(positions, tx));
        self.walk_audible(channel, positions, tx, |j, to, distance_m, _| {
            out.push((j as u32, link_delay(channel, from, to, distance_m)));
        });
    }

    /// Whether `tx`'s row is current, counting a hit if it is and a miss if
    /// it is not. Sizes the row table to `n` nodes first.
    fn is_fresh(&mut self, n: usize, tx: usize) -> bool {
        if self.rows.len() != n {
            self.rows.resize(n, Row::default());
        }
        let fresh = self.rows[tx].epoch == self.epoch;
        if fresh {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        fresh
    }

    /// The first half of every walk: fills the scratch buffer with the
    /// receivers of `tx` that survive the cull (`tx` itself excluded),
    /// ascending, counts the rest as culled, and returns how many
    /// survived. [`walk_audible`](Self::walk_audible) is the second half.
    fn cull<P: PositionSource + ?Sized>(&mut self, positions: &P, tx: usize) -> usize {
        let n = positions.node_count();
        let from = positions.position(tx);
        let r2 = self.cull_radius_sq;
        self.scratch.clear();
        if let Some(grid) = &self.grid {
            debug_assert_eq!(
                grid.node_count(),
                n,
                "spatial index covers a different node set"
            );
            // Everything the query drops is beyond the cull radius: either
            // outside the neighbourhood (cell edge > cull radius) or
            // rejected by the cull's own comparison on the stored position.
            // `tx` itself always survives it.
            grid.within_into(from, r2, &mut self.scratch);
            self.scratch.retain(|&cand| cand as usize != tx);
            self.scratch.sort_unstable();
        } else {
            self.scratch.extend(
                (0..n)
                    .filter(|&j| j != tx && from.distance_sq(positions.position(j)) <= r2)
                    .map(|j| j as u32),
            );
        }
        // Counted the same with and without the index, so stats match the
        // unindexed build exactly.
        self.stats.cull_rejects += (n - 1 - self.scratch.len()) as u64;
        self.scratch.len()
    }

    /// The second half of every walk: calls `keep(j, to, distance_m,
    /// snr_db)` for every receiver `j` at `to` that [`cull`](Self::cull)
    /// left and that passes the exact audibility test, in the cull's order,
    /// counting the audibility rejects. Shared by every walk so they cannot
    /// drift apart.
    ///
    /// The test is [`heard`]; the SNR it computes is passed on.
    fn walk_audible<P: PositionSource + ?Sized>(
        &mut self,
        channel: &AcousticChannel,
        positions: &P,
        tx: usize,
        mut keep: impl FnMut(usize, Point, f64, Option<f64>),
    ) {
        let from = positions.position(tx);
        let reads_snr = channel.per_model().reads_snr();
        for &cand in &self.scratch {
            let j = cand as usize;
            let to = positions.position(j);
            let distance_m = from.distance(to);
            match heard(channel, reads_snr, distance_m) {
                Some(snr_db) => keep(j, to, distance_m, snr_db),
                None => self.stats.audibility_rejects += 1,
            }
        }
    }

    /// Every node's degree and uphill flag (see [`AudibleSweep`]) at the
    /// current positions, from one sweep over the audible pairs. Each pair
    /// the cull keeps takes the exact audibility test of a row build once
    /// and credits both ends, which is sound because the test reads only
    /// the pair's distance. With an index the pairs come from
    /// [`SpatialGrid::for_each_pair_within`] on the stored positions (kept
    /// current by [`note_move`](Self::note_move)); without one, from a scan
    /// of every pair. Reads and builds no row and leaves
    /// [`stats`](Self::stats) untouched.
    pub fn audible_sweep<P: PositionSource + ?Sized>(
        &self,
        channel: &AcousticChannel,
        positions: &P,
    ) -> AudibleSweep {
        let n = positions.node_count();
        let reads_snr = channel.per_model().reads_snr();
        let mut degree = vec![0; n];
        let mut hears_shallower = vec![false; n];
        let mut credit = |i: u32, j: u32, d2: f64| {
            if heard(channel, reads_snr, d2.sqrt()).is_some() {
                let (i, j) = (i as usize, j as usize);
                degree[i] += 1;
                degree[j] += 1;
                let (di, dj) = (positions.position(i).depth(), positions.position(j).depth());
                hears_shallower[i] |= dj < di;
                hears_shallower[j] |= di < dj;
            }
        };
        let r2 = self.cull_radius_sq;
        if let Some(grid) = &self.grid {
            debug_assert_eq!(
                grid.node_count(),
                n,
                "spatial index covers a different node set"
            );
            grid.for_each_pair_within(r2, credit);
        } else {
            for i in 0..n {
                let from = positions.position(i);
                for j in i + 1..n {
                    let d2 = from.distance_sq(positions.position(j));
                    if d2 <= r2 {
                        credit(i as u32, j as u32, d2);
                    }
                }
            }
        }
        AudibleSweep {
            degree,
            hears_shallower,
        }
    }

    /// Number of audible receivers in `tx`'s row (the node's degree).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the row is stale — call
    /// [`ensure_row`](Self::ensure_row) first.
    pub fn row_len(&self, tx: usize) -> usize {
        debug_assert_eq!(self.rows[tx].epoch, self.epoch, "row {tx} is stale");
        self.rows[tx].links.len()
    }

    /// The `k`-th cached link of transmitter `tx`.
    ///
    /// Returned by value (`CachedLink` is `Copy`) so callers can interleave
    /// lookups with mutation of their own state during the fan-out.
    pub fn link_at(&self, tx: usize, k: usize) -> CachedLink {
        debug_assert_eq!(self.rows[tx].epoch, self.epoch, "row {tx} is stale");
        self.rows[tx].links[k]
    }

    /// The full row as a slice (for tests and bulk inspection).
    pub fn row(&self, tx: usize) -> &[CachedLink] {
        debug_assert_eq!(self.rows[tx].epoch, self.epoch, "row {tx} is stale");
        &self.rows[tx].links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing_m: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * spacing_m, 0.0, 500.0))
            .collect()
    }

    #[test]
    fn row_matches_uncached_audible_set_in_order() {
        let ch = AcousticChannel::paper_default();
        let positions = line(8, 600.0);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        for tx in 0..positions.len() {
            cache.ensure_row(&ch, &positions, tx);
            let expected: Vec<u32> = (0..positions.len())
                .filter(|&j| j != tx && ch.is_audible(positions[tx], positions[j]))
                .map(|j| j as u32)
                .collect();
            let got: Vec<u32> = cache.row(tx).iter().map(|l| l.rx).collect();
            assert_eq!(got, expected, "tx {tx}");
        }
    }

    /// One channel per PER model over a 170 dB source: along a 700 m
    /// line every model keeps some receivers.
    fn every_per_model() -> Vec<AcousticChannel> {
        use crate::noise::AmbientNoise;
        use crate::per::{Modulation, PerModel};
        use crate::propagation::{LinkBudget, Spreading, TransmissionLoss};
        use crate::sound::SoundSpeedProfile;

        [
            PerModel::Lossless,
            PerModel::SnrThreshold { threshold_db: 20.0 },
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
        ]
        .into_iter()
        .map(|per| {
            AcousticChannel::new(
                SoundSpeedProfile::default(),
                LinkBudget::new(
                    170.0,
                    TransmissionLoss::new(Spreading::Practical, 10.0),
                    AmbientNoise::default(),
                    12_000.0,
                ),
                per,
                1_500.0,
            )
        })
        .collect()
    }

    #[test]
    fn cached_values_are_bit_identical_to_recomputation() {
        let positions = line(6, 700.0);
        let channels = std::iter::once(AcousticChannel::paper_default()).chain(every_per_model());
        for ch in channels {
            let mut cache = LinkBudgetCache::new(&ch, positions.len());
            for tx in 0..positions.len() {
                cache.ensure_row(&ch, &positions, tx);
                assert!(cache.row_len(tx) > 0, "{:?}", ch.per_model());
                for link in cache.row(tx) {
                    let to = positions[link.rx as usize];
                    let d = positions[tx].distance(to);
                    assert_eq!(link.distance_m.to_bits(), d.to_bits());
                    assert_eq!(link.snr_db.to_bits(), ch.budget().snr_db(d).to_bits());
                    assert_eq!(link.delay, ch.propagation_delay(positions[tx], to));
                }
            }
        }
    }

    #[test]
    fn first_build_allocates_exactly_the_cull_survivors() {
        // Every candidate the cull keeps either joins the row or is an
        // audibility reject, so the survivor count is `row_len + audibility
        // rejects` of that build. At 760 m spacing the 1.52 km pairs sit
        // between the horizon and the padded cull radius.
        let positions = line(12, 760.0);
        for ch in every_per_model() {
            let mut cache = LinkBudgetCache::with_index(&ch, &positions);
            let mut rejected_short = false;
            for tx in 0..positions.len() {
                let before = cache.stats().audibility_rejects;
                cache.ensure_row(&ch, &positions, tx);
                let rejected = (cache.stats().audibility_rejects - before) as usize;
                rejected_short |= rejected > 0;
                let survivors = cache.row_len(tx) + rejected;
                assert_eq!(
                    cache.rows[tx].links.capacity(),
                    survivors,
                    "{:?}, tx {tx}",
                    ch.per_model()
                );
            }
            assert!(
                rejected_short,
                "{:?}: the horizon rejects some survivors",
                ch.per_model()
            );
        }
    }

    #[test]
    fn invalidate_rebuilds_after_positions_move() {
        let ch = AcousticChannel::paper_default();
        let mut positions = line(3, 1_000.0);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        cache.ensure_row(&ch, &positions, 0);
        assert_eq!(cache.row_len(0), 1, "only the 1 km neighbour is audible");
        // Node 2 drifts into range; without invalidation the row is stale
        // by design, after invalidation it must pick the move up.
        positions[2] = Point::new(1_400.0, 0.0, 500.0);
        cache.invalidate();
        cache.ensure_row(&ch, &positions, 0);
        assert_eq!(cache.row_len(0), 2);
    }

    #[test]
    fn stats_count_hits_misses_and_rejects() {
        let ch = AcousticChannel::paper_default();
        // 600 m spacing: near neighbours audible, the far end of the line
        // beyond the cull radius.
        let positions = line(10, 600.0);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        assert_eq!(cache.stats(), CacheStats::default());

        cache.ensure_row(&ch, &positions, 0);
        let built = cache.stats();
        assert_eq!((built.hits, built.misses), (0, 1));
        assert!(
            built.cull_rejects > 0,
            "the 5.4 km end of the line must be culled: {built:?}"
        );

        // Replays are pure hits; nothing else moves.
        cache.ensure_row(&ch, &positions, 0);
        cache.ensure_row(&ch, &positions, 0);
        let replayed = cache.stats();
        assert_eq!(replayed.hits, 2);
        assert_eq!(replayed.misses, built.misses);
        assert_eq!(replayed.cull_rejects, built.cull_rejects);
        assert!(replayed.hit_rate() > 0.6 && replayed.hit_rate() < 0.7);

        // Invalidation is counted and forces a rebuild.
        cache.invalidate();
        cache.ensure_row(&ch, &positions, 0);
        let rebuilt = cache.stats();
        assert_eq!(rebuilt.invalidations, 1);
        assert_eq!(rebuilt.misses, 2);
    }

    #[test]
    fn no_cull_bound_means_no_cull_rejects() {
        // Every receiver sits inside the padded cull radius, the last one
        // 1,520 m out: past the 1.5 km horizon but short of the 1,575 m
        // cull bound. Nothing is culled under any PER model; the horizon
        // rejects the last receiver in the exact audibility test instead.
        let positions = vec![
            Point::new(0.0, 0.0, 500.0),
            Point::new(700.0, 0.0, 500.0),
            Point::new(1_400.0, 0.0, 500.0),
            Point::new(1_520.0, 0.0, 500.0),
        ];
        for ch in every_per_model() {
            let mut cache = LinkBudgetCache::new(&ch, positions.len());
            cache.ensure_row(&ch, &positions, 0);
            let stats = cache.stats();
            assert_eq!(stats.cull_rejects, 0, "nothing past the bound: {stats:?}");
            assert_eq!(stats.misses, 1);
            assert!(stats.audibility_rejects >= 1, "{stats:?}");
            assert_eq!(
                cache.row_len(0) as u64 + stats.audibility_rejects,
                (positions.len() - 1) as u64
            );
            assert!(cache.row(0).iter().all(|l| l.rx != 3));
        }
    }

    #[test]
    fn empty_stats_rates_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.cull_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            cull_rejects: 9,
            audibility_rejects: 3,
            ..CacheStats::default()
        };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.cull_rate(), 0.75);
    }

    #[test]
    fn echo_delays_cached_when_multipath_enabled() {
        let ch = AcousticChannel::paper_default().with_two_ray(6.0);
        let positions = vec![Point::new(0.0, 0.0, 100.0), Point::new(300.0, 0.0, 150.0)];
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        cache.ensure_row(&ch, &positions, 0);
        let link = cache.link_at(0, 0);
        assert_eq!(
            link.echo_delay,
            Some(ch.echo_delay(positions[0], positions[1]))
        );
        // Without multipath no echo is ever recorded.
        let dry = AcousticChannel::paper_default();
        let mut cache = LinkBudgetCache::new(&dry, positions.len());
        cache.ensure_row(&dry, &positions, 0);
        assert_eq!(cache.link_at(0, 0).echo_delay, None);
    }

    /// A 140 dB NC-FSK channel: probabilistic PER that never reaches
    /// loss 1 on its own within several kilometres.
    fn nc_fsk_140() -> AcousticChannel {
        use crate::noise::AmbientNoise;
        use crate::per::{Modulation, PerModel};
        use crate::propagation::{LinkBudget, Spreading, TransmissionLoss};
        use crate::sound::SoundSpeedProfile;

        AcousticChannel::new(
            SoundSpeedProfile::default(),
            LinkBudget::new(
                140.0,
                TransmissionLoss::new(Spreading::Spherical, 10.0),
                AmbientNoise::default(),
                12_000.0,
            ),
            PerModel::Modulation {
                scheme: Modulation::NcFsk,
                bandwidth_over_bitrate: 1.0,
            },
            1_500.0,
        )
    }

    #[test]
    fn modulation_rows_stop_at_the_horizon() {
        let ch = nc_fsk_140();
        // Probabilistic PER never reaches loss 1 on its own; the horizon
        // keeps the 1 km neighbour and culls the rest of the line.
        let positions = line(5, 1_000.0);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        cache.ensure_row(&ch, &positions, 0);
        assert_eq!(cache.row_len(0), 1);
        assert_eq!(cache.link_at(0, 0).rx, 1);
        let stats = cache.stats();
        assert_eq!((stats.cull_rejects, stats.audibility_rejects), (3, 0));
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn modulation_per_disables_culling_but_row_is_still_exact() {
        let ch = nc_fsk_140();
        // Inside the horizon the modulation model itself rejects nobody:
        // every receiver of the 1.4 km line is in the row, in the order
        // and with the values the uncached channel gives.
        let positions = line(5, 350.0);
        let mut cache = LinkBudgetCache::new(&ch, positions.len());
        cache.ensure_row(&ch, &positions, 0);
        assert_eq!(cache.row_len(0), positions.len() - 1);
        for (k, link) in cache.row(0).iter().enumerate() {
            let to = positions[k + 1];
            assert_eq!(link.rx as usize, k + 1);
            assert!(ch.is_audible(positions[0], to));
            assert_eq!(link.delay, ch.propagation_delay(positions[0], to));
        }
        let stats = cache.stats();
        assert_eq!((stats.cull_rejects, stats.audibility_rejects), (0, 0));
    }

    #[test]
    fn sweep_degree_equals_row_len_for_every_node() {
        // A 6 × 6 lattice at 700 m with depth jitter: every node has some
        // neighbours in range and some beyond it.
        let start: Vec<Point> = (0..36)
            .map(|i| {
                let (x, y) = ((i % 6) as f64, (i / 6) as f64);
                Point::new(x * 700.0, y * 700.0, 300.0 + (i * 37 % 11) as f64 * 90.0)
            })
            .collect();
        for ch in every_per_model() {
            let per = ch.per_model();
            for indexed in [false, true] {
                let mut positions = start.clone();
                let make = |p: &Vec<Point>| {
                    if indexed {
                        LinkBudgetCache::with_index(&ch, p)
                    } else {
                        LinkBudgetCache::new(&ch, p.len())
                    }
                };
                let (mut swept, mut built) = (make(&positions), make(&positions));
                for epoch in 0..3 {
                    let stats = swept.stats();
                    let sweep = swept.audible_sweep(&ch, &positions);
                    assert_eq!(swept.stats(), stats, "{per:?}, epoch {epoch}");
                    for tx in 0..positions.len() {
                        built.ensure_row(&ch, &positions, tx);
                        let case = format!("{per:?}, epoch {epoch}, tx {tx}");
                        assert_eq!(sweep.degree[tx] as usize, built.row_len(tx), "{case}");
                        let depth = positions[tx].depth();
                        let uphill = built
                            .row(tx)
                            .iter()
                            .any(|l| positions[l.rx as usize].depth() < depth);
                        assert_eq!(sweep.hears_shallower[tx], uphill, "{case}");
                    }
                    // Scatter a few nodes, some out of range of everyone.
                    for node in [3usize, 14, 29] {
                        let p = positions[node];
                        let moved = Point::new(p.x + 900.0 * (epoch + 1) as f64, p.y - 450.0, p.z);
                        positions[node] = moved;
                        swept.note_move(node as u32, moved);
                        built.note_move(node as u32, moved);
                    }
                    swept.invalidate();
                    built.invalidate();
                }
            }
        }
    }
}
