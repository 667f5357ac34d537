//! RTS priority values.
//!
//! §3.1: *"each RTS packet includes a random priority value rp related to
//! the contention and wait times of the sending sensor. When a receiver
//! receives multiple RTS packets, it selects the sender with the highest
//! rp."* The wait-time term is what makes contention long-run fair: a
//! sensor that keeps losing accumulates priority.

use rand::Rng;

/// The `rp` rule: a uniform random draw plus a wait-proportional boost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriorityRule {
    /// Random component range of `rp`.
    pub random_range: u32,
    /// Priority added per slot an SDU has waited (§3.1: rp is "related to
    /// the contention and wait times").
    pub wait_weight: u32,
}

/// Computes the rp value for an RTS: a uniform random draw plus a
/// wait-proportional boost.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use uasn_net::priority::{priority_value, PriorityRule};
///
/// let rule = PriorityRule { random_range: 256, wait_weight: 8 };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let fresh = priority_value(&mut rng, &rule, 0);
/// let waited = priority_value(&mut rng, &rule, 100);
/// assert!(waited > fresh + rule.random_range); // the boost dominates
/// ```
pub fn priority_value<R: Rng>(rng: &mut R, rule: &PriorityRule, waited_slots: u64) -> u32 {
    let random = rng.gen_range(0..rule.random_range);
    let boost = (waited_slots.min(u32::MAX as u64) as u32).saturating_mul(rule.wait_weight);
    random.saturating_add(boost)
}

/// Picks the winning RTS among candidates `(sender_index, rp)`: highest rp,
/// ties broken by lowest sender index for determinism. Returns the winner's
/// position in the sequence.
pub fn pick_winner(candidates: impl IntoIterator<Item = (u32, u32)>) -> Option<usize> {
    candidates
        .into_iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const RULE: PriorityRule = PriorityRule {
        random_range: 256,
        wait_weight: 8,
    };

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn rp_is_in_range_without_wait() {
        let mut r = rng();
        for _ in 0..100 {
            let rp = priority_value(&mut r, &RULE, 0);
            assert!(rp < RULE.random_range);
        }
    }

    #[test]
    fn waiting_raises_priority_monotonically_in_expectation() {
        let mut r = rng();
        let avg = |waited: u64, r: &mut rand::rngs::StdRng| -> f64 {
            (0..200)
                .map(|_| priority_value(r, &RULE, waited) as f64)
                .sum::<f64>()
                / 200.0
        };
        let short = avg(0, &mut r);
        let long = avg(50, &mut r);
        assert!(long > short + 300.0, "short {short}, long {long}");
    }

    #[test]
    fn rp_saturates_instead_of_overflowing() {
        let rule = PriorityRule {
            wait_weight: u32::MAX,
            ..RULE
        };
        let mut r = rng();
        let rp = priority_value(&mut r, &rule, u64::MAX);
        assert_eq!(rp, u32::MAX);
    }

    #[test]
    fn winner_is_max_rp() {
        let c = [(5, 10), (2, 30), (9, 20)];
        assert_eq!(pick_winner(c), Some(1));
    }

    #[test]
    fn winner_tie_breaks_by_lowest_sender() {
        let c = [(5, 30), (2, 30), (9, 30)];
        assert_eq!(pick_winner(c), Some(1));
    }

    #[test]
    fn empty_candidates_have_no_winner() {
        assert_eq!(pick_winner([]), None);
    }

    #[test]
    fn single_candidate_wins() {
        assert_eq!(pick_winner([(7, 0)]), Some(0));
    }
}
