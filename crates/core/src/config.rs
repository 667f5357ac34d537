//! EW-MAC tuning parameters.

use uasn_net::priority::PriorityRule;
use uasn_net::slotted::CoreConfig;
use uasn_sim::time::SimDuration;

/// EW-MAC configuration.
///
/// Defaults reproduce the paper's protocol; `enable_extra = false` is the
/// ablation switch that turns off the waiting-resource exploitation
/// machinery (§4.2), leaving the slotted handshake skeleton — the
/// `bench_ablation` experiment quantifies exactly what the extra
/// communications buy.
///
/// # Examples
///
/// ```
/// use uasn_ewmac::config::EwMacConfig;
///
/// let cfg = EwMacConfig::default();
/// assert!(cfg.enable_extra);
/// let ablated = EwMacConfig::default().without_extra();
/// assert!(!ablated.enable_extra);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwMacConfig {
    /// The slotted handshake EW-MAC runs on. EW-MAC always announces pair
    /// delays, never piggybacks tables and always ranks RTSs by the §3.1
    /// `rp` priority ([`EwMacConfig::validated`] enforces all three); what
    /// a caller may tune is the backoff and retry budget, the `rp`
    /// parameters and optional aggregation.
    pub core: CoreConfig,
    /// Whether the extra-communication machinery (EXR/EXC/EXData/EXAck) is
    /// active.
    pub enable_extra: bool,
    /// Guard time added to extra-packet arrival targets so an EXData lands
    /// strictly after the Ack transmission ends (numerical safety on top of
    /// Eq 6; see DESIGN.md).
    pub extra_guard: SimDuration,
}

impl Default for EwMacConfig {
    fn default() -> Self {
        EwMacConfig {
            core: CoreConfig {
                announce_delays: true,
                priority: Some(PriorityRule {
                    random_range: 256,
                    wait_weight: 8,
                }),
                ..CoreConfig::default()
            },
            enable_extra: true,
            extra_guard: SimDuration::from_millis(2),
        }
    }
}

impl EwMacConfig {
    /// The ablated variant with extra communications disabled.
    pub fn without_extra(mut self) -> Self {
        self.enable_extra = false;
        self
    }

    /// Enables SDU aggregation up to `max_bits` per negotiated data frame
    /// (the evaluation default sends one SDU per exchange, matching the
    /// fixed-size baselines).
    pub fn with_aggregation(mut self, max_bits: u32) -> Self {
        self.core.aggregate_max_bits = Some(max_bits);
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range values, and when `core` departs from the
    /// EW-MAC handshake (pair delays announced, no table piggyback, `rp`
    /// priority on); configurations are programmer input, not runtime data.
    pub fn validated(self) -> Self {
        let core = &self.core;
        assert!(core.announce_delays, "EW-MAC announces pair delays");
        assert!(!core.announce_table, "EW-MAC does not piggyback tables");
        assert!(core.base_cw >= 1, "base contention window must be >= 1");
        assert!(
            core.max_cw >= core.base_cw,
            "max contention window must be >= base"
        );
        assert!(
            core.priority.is_some_and(|rp| rp.random_range >= 1),
            "EW-MAC needs the rp priority with range >= 1"
        );
        assert!(core.max_retries >= 1, "at least one retry is required");
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        let c = EwMacConfig::default().validated();
        assert!(c.enable_extra);
        assert!(c.core.max_cw >= c.core.base_cw);
    }

    #[test]
    fn without_extra_only_touches_extra() {
        let c = EwMacConfig::default().without_extra();
        assert!(!c.enable_extra);
        assert_eq!(c.core, EwMacConfig::default().core);
    }

    #[test]
    #[should_panic(expected = "must be >= base")]
    fn bad_cw_panics() {
        let mut cfg = EwMacConfig::default();
        cfg.core.base_cw = 8;
        cfg.core.max_cw = 4;
        let _ = cfg.validated();
    }

    #[test]
    #[should_panic(expected = "announces pair delays")]
    fn silent_handshake_panics() {
        let mut cfg = EwMacConfig::default();
        cfg.core.announce_delays = false;
        let _ = cfg.validated();
    }

    #[test]
    #[should_panic(expected = "does not piggyback tables")]
    fn table_piggyback_panics() {
        let mut cfg = EwMacConfig::default();
        cfg.core.announce_table = true;
        let _ = cfg.validated();
    }

    #[test]
    #[should_panic(expected = "needs the rp priority")]
    fn missing_priority_panics() {
        let mut cfg = EwMacConfig::default();
        cfg.core.priority = None;
        let _ = cfg.validated();
    }
}
