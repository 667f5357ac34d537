//! Slotted FAMA (Molins & Stojanovic, OCEANS 2006), as characterised in
//! §5 of the paper: the plain slotted RTS/CTS/Data/Ack handshake where
//! *"each transmission reserves a maximal propagation delay"* and no idle
//! window is ever reused. S-FAMA is the paper's baseline for overhead
//! (ratio 1) and efficiency (index 1): it maintains no neighbour state and
//! piggybacks nothing.

use uasn_net::mac::{MacContext, MacProtocol, MaintenanceProfile, Reception};
use uasn_net::node::NodeId;
use uasn_net::packet::Sdu;
use uasn_net::slots::SlotIndex;
use uasn_net::slotted::{CoreConfig, SlottedCore};

/// The S-FAMA instance bound to one node.
///
/// # Examples
///
/// ```
/// use uasn_baselines::SFama;
/// use uasn_net::mac::MacProtocol;
/// use uasn_net::node::NodeId;
///
/// let mac = SFama::new(NodeId::new(0));
/// assert_eq!(mac.name(), "S-FAMA");
/// ```
#[derive(Debug)]
pub struct SFama {
    core: SlottedCore,
}

impl SFama {
    /// Creates an S-FAMA instance for node `id`.
    pub fn new(id: NodeId) -> Self {
        SFama {
            core: SlottedCore::new(
                id,
                CoreConfig {
                    announce_delays: false,
                    ..CoreConfig::default()
                },
            ),
        }
    }
}

impl MacProtocol for SFama {
    fn name(&self) -> &'static str {
        "S-FAMA"
    }

    fn maintenance(&self) -> MaintenanceProfile {
        // §5.3: "S-FAMA does not require additional computation or storage".
        MaintenanceProfile::none()
    }

    fn on_slot_start(&mut self, ctx: &mut MacContext<'_>, slot: SlotIndex) {
        let _ = self.core.on_slot_start(ctx, slot);
    }

    fn on_enqueue(&mut self, _ctx: &mut MacContext<'_>, sdu: Sdu) {
        self.core.on_enqueue(sdu);
    }

    fn on_frame_received(&mut self, ctx: &mut MacContext<'_>, rx: &Reception<'_>) {
        let ev = self.core.on_frame_received(ctx, rx);
        let _ = self.core.default_lost_contention(ctx, ev);
    }

    fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    fn state_label(&self) -> &'static str {
        self.core.role.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uasn_net::mac::NeighborInfoScope;

    #[test]
    fn is_free_of_maintenance() {
        let mac = SFama::new(NodeId::new(3));
        let p = mac.maintenance();
        assert_eq!(p.scope, NeighborInfoScope::None);
        assert_eq!(p.piggyback_bits, 0);
        assert!(p.periodic_refresh.is_none());
    }

    #[test]
    fn starts_with_empty_queue() {
        assert_eq!(SFama::new(NodeId::new(0)).queue_len(), 0);
    }
}
