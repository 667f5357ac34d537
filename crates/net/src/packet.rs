//! Frames and service data units.
//!
//! A [`Frame`] is what a modem puts on the water: one of the paper's packet
//! kinds (Table 1 — RTS, CTS, Data, Ack, EXR, EXC, EXData, EXAck, plus the
//! Hello/maintenance beacon and ROPA's RTA), carrying the fields the
//! protocols negotiate with: the sending timestamp (every packet — §4.3),
//! the random priority `rp` (RTS), the pair propagation delay τ announced in
//! negotiation packets, and the announced data duration the receiver needs
//! to schedule the Ack slot (Eq 5).
//!
//! An [`Sdu`] is the unit the traffic generator hands the MAC: "this many
//! data bits for that next hop".

use std::fmt;

use uasn_sim::time::{SimDuration, SimTime};

use crate::neighbor::DelaySnapshot;
use crate::node::NodeId;

/// The paper's packet kinds (Table 1) plus the maintenance beacon and
/// ROPA's appending request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Request to send, at a slot boundary.
    Rts,
    /// Clear to send, at a slot boundary.
    Cts,
    /// Negotiated data, at a slot boundary.
    Data,
    /// Acknowledgement, at a slot boundary (Eq 5).
    Ack,
    /// Extra RTS — EW-MAC's mid-slot negotiation request (EXR).
    ExRts,
    /// Extra CTS — EW-MAC's mid-slot grant (EXC).
    ExCts,
    /// Extra data riding a waiting window (EXData).
    ExData,
    /// Acknowledgement of extra data (EXAck).
    ExAck,
    /// Hello / neighbour-maintenance beacon (initialisation §4.3, and the
    /// periodic two-hop refresh ROPA and CS-MAC pay for).
    Beacon,
    /// ROPA's reverse-appending request sent during a sender's wait window.
    Rta,
}

impl FrameKind {
    /// Whether this kind is a control packet (everything except data).
    pub fn is_control(self) -> bool {
        !matches!(self, FrameKind::Data | FrameKind::ExData)
    }

    /// Whether this kind carries payload data.
    pub fn is_data(self) -> bool {
        matches!(self, FrameKind::Data | FrameKind::ExData)
    }

    /// Whether this kind belongs to EW-MAC's extra-communication exchange.
    pub fn is_extra(self) -> bool {
        matches!(
            self,
            FrameKind::ExRts | FrameKind::ExCts | FrameKind::ExData | FrameKind::ExAck
        )
    }

    /// The kind's stable short label used in display output and trace
    /// fields; [`FrameKind::from_label`] inverts it.
    pub fn label(self) -> &'static str {
        match self {
            FrameKind::Rts => "RTS",
            FrameKind::Cts => "CTS",
            FrameKind::Data => "Data",
            FrameKind::Ack => "Ack",
            FrameKind::ExRts => "EXR",
            FrameKind::ExCts => "EXC",
            FrameKind::ExData => "EXData",
            FrameKind::ExAck => "EXAck",
            FrameKind::Beacon => "Beacon",
            FrameKind::Rta => "RTA",
        }
    }

    /// Parses a label produced by [`FrameKind::label`] back into the kind.
    pub fn from_label(label: &str) -> Option<FrameKind> {
        Some(match label {
            "RTS" => FrameKind::Rts,
            "CTS" => FrameKind::Cts,
            "Data" => FrameKind::Data,
            "Ack" => FrameKind::Ack,
            "EXR" => FrameKind::ExRts,
            "EXC" => FrameKind::ExCts,
            "EXData" => FrameKind::ExData,
            "EXAck" => FrameKind::ExAck,
            "Beacon" => FrameKind::Beacon,
            "RTA" => FrameKind::Rta,
            _ => return None,
        })
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A unit of application data for the MAC to deliver one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sdu {
    /// Unique id across the run (assigned by the traffic generator).
    pub id: u64,
    /// The node that originally generated the data.
    pub origin: NodeId,
    /// The next-hop destination for this MAC exchange.
    pub next_hop: NodeId,
    /// Payload size in bits.
    pub bits: u32,
    /// Generation (or forwarding-enqueue) time.
    pub created: SimTime,
    /// Routing header: the transport attempt (copy number) this SDU
    /// instance belongs to. 0 for first injections and all single-hop
    /// traffic; each transport retry stamps a fresh copy number so
    /// per-copy hop accounting never conflates a stale in-flight frame
    /// with its retransmission.
    pub attempt: u32,
}

/// One over-the-water frame.
///
/// Constructed by MAC protocols through [`Frame::control`] /
/// [`Frame::data`]; the simulator stamps [`timestamp`](Frame::timestamp)
/// with the actual transmit start (the paper appends the sending timestamp
/// to every packet).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Packet kind.
    pub kind: FrameKind,
    /// Transmitting node.
    pub src: NodeId,
    /// Addressed node (every kind here is unicast-addressed; overhearers
    /// still decode it).
    pub dst: NodeId,
    /// Frame length in bits (control frames share one size — §3.1).
    pub bits: u32,
    /// Transmit start time, stamped by the simulator at transmission.
    pub timestamp: SimTime,
    /// Random priority value carried by RTS frames (§3.1).
    pub rp: u32,
    /// Propagation delay between the negotiating pair, announced in
    /// CTS/EXC frames so overhearers can compute waiting windows (§4.2).
    pub pair_delay: Option<SimDuration>,
    /// Announced duration of the upcoming data transmission (TD in Eq 5),
    /// carried by RTS/CTS so neighbours can compute the Ack slot.
    pub data_duration: Option<SimDuration>,
    /// The SDU carried by a data frame.
    pub sdu: Option<Sdu>,
    /// Whether this data frame is a retransmission (overhead accounting).
    pub retx: bool,
    /// One-hop delay entries piggybacked on this frame (§5.3: ROPA and
    /// CS-MAC "control packets include the extra … neighbor information"),
    /// ascending by id with each id once. Receivers with two-hop scope
    /// install the shared slice itself as the sender's snapshot (a pointer
    /// clone). `None` when nothing is announced, so an ordinary frame
    /// allocates nothing for it.
    pub announced: Option<DelaySnapshot>,
    /// Further SDUs aggregated into this data frame beyond [`Frame::sdu`]
    /// (§2: "data should be collected and then transmitted when the amount
    /// of data is sufficient"; §4.3: packets are "not bound by a fixed
    /// data size"). Empty for unaggregated traffic.
    pub bundle: Vec<Sdu>,
}

impl Frame {
    /// Builds a control frame of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a data kind or `bits` is zero.
    pub fn control(kind: FrameKind, src: NodeId, dst: NodeId, bits: u32) -> Self {
        assert!(kind.is_control(), "use Frame::data for data kinds");
        assert!(bits > 0, "control frame must have positive size");
        Frame {
            kind,
            src,
            dst,
            bits,
            timestamp: SimTime::ZERO,
            rp: 0,
            pair_delay: None,
            data_duration: None,
            sdu: None,
            retx: false,
            announced: None,
            bundle: Vec::new(),
        }
    }

    /// Builds a data frame carrying `sdu`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a data kind.
    pub fn data(kind: FrameKind, src: NodeId, sdu: Sdu) -> Self {
        assert!(kind.is_data(), "use Frame::control for control kinds");
        Frame {
            kind,
            src,
            dst: sdu.next_hop,
            bits: sdu.bits,
            timestamp: SimTime::ZERO,
            rp: 0,
            pair_delay: None,
            data_duration: None,
            sdu: Some(sdu),
            retx: false,
            announced: None,
            bundle: Vec::new(),
        }
    }

    /// Sets the RTS priority value.
    pub fn with_rp(mut self, rp: u32) -> Self {
        self.rp = rp;
        self
    }

    /// Announces the negotiating-pair propagation delay.
    pub fn with_pair_delay(mut self, tau: SimDuration) -> Self {
        self.pair_delay = Some(tau);
        self
    }

    /// Announces the upcoming data duration (TD).
    pub fn with_data_duration(mut self, td: SimDuration) -> Self {
        self.data_duration = Some(td);
        self
    }

    /// Marks the frame as a retransmission.
    pub fn as_retransmission(mut self) -> Self {
        self.retx = true;
        self
    }

    /// Piggybacks one-hop delay entries on the frame (`None`: nothing to
    /// announce).
    pub fn with_announced(mut self, entries: Option<DelaySnapshot>) -> Self {
        self.announced = entries;
        self
    }

    /// Aggregates further SDUs into this data frame; the frame length grows
    /// by their payloads.
    ///
    /// # Panics
    ///
    /// Panics on a non-data frame or if any bundled SDU has a different
    /// next hop than the primary one.
    pub fn with_bundle(mut self, extra: Vec<Sdu>) -> Self {
        assert!(self.kind.is_data(), "only data frames carry bundles");
        for sdu in &extra {
            assert_eq!(
                sdu.next_hop, self.dst,
                "bundled SDUs must share the frame's next hop"
            );
            self.bits += sdu.bits;
        }
        self.bundle = extra;
        self
    }

    /// Every SDU riding this frame (primary first, then the bundle).
    pub fn sdus(&self) -> impl Iterator<Item = &Sdu> + '_ {
        self.sdu.iter().chain(self.bundle.iter())
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}->{} {}b @{}]",
            self.kind, self.src, self.dst, self.bits, self.timestamp
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdu() -> Sdu {
        Sdu {
            id: 1,
            origin: NodeId::new(5),
            next_hop: NodeId::new(2),
            bits: 2_048,
            created: SimTime::from_secs(1),
            attempt: 0,
        }
    }

    #[test]
    fn kind_classification() {
        assert!(FrameKind::Rts.is_control());
        assert!(FrameKind::Beacon.is_control());
        assert!(FrameKind::Rta.is_control());
        assert!(!FrameKind::Data.is_control());
        assert!(FrameKind::Data.is_data());
        assert!(FrameKind::ExData.is_data());
        assert!(FrameKind::ExRts.is_extra());
        assert!(FrameKind::ExAck.is_extra());
        assert!(!FrameKind::Rts.is_extra());
    }

    #[test]
    fn control_frame_builder() {
        let f = Frame::control(FrameKind::Rts, NodeId::new(1), NodeId::new(2), 64).with_rp(77);
        assert_eq!(f.kind, FrameKind::Rts);
        assert_eq!(f.bits, 64);
        assert_eq!(f.rp, 77);
        assert_eq!(f.sdu, None);
        assert!(!f.retx);
    }

    #[test]
    fn data_frame_builder_takes_size_from_sdu() {
        let f = Frame::data(FrameKind::Data, NodeId::new(5), sdu());
        assert_eq!(f.bits, 2_048);
        assert_eq!(f.dst, NodeId::new(2));
        assert_eq!(f.sdu.unwrap().origin, NodeId::new(5));
    }

    #[test]
    fn builders_set_negotiation_fields() {
        let f = Frame::control(FrameKind::Cts, NodeId::new(2), NodeId::new(1), 64)
            .with_pair_delay(SimDuration::from_millis(400))
            .with_data_duration(SimDuration::from_millis(171));
        assert_eq!(f.pair_delay, Some(SimDuration::from_millis(400)));
        assert_eq!(f.data_duration, Some(SimDuration::from_millis(171)));
    }

    #[test]
    fn retransmission_flag() {
        let f = Frame::data(FrameKind::Data, NodeId::new(5), sdu()).as_retransmission();
        assert!(f.retx);
    }

    #[test]
    #[should_panic(expected = "use Frame::data")]
    fn control_builder_rejects_data_kind() {
        let _ = Frame::control(FrameKind::Data, NodeId::new(0), NodeId::new(1), 64);
    }

    #[test]
    #[should_panic(expected = "use Frame::control")]
    fn data_builder_rejects_control_kind() {
        let mut s = sdu();
        s.bits = 64;
        // Deliberately wrong kind:
        let _ = Frame {
            kind: FrameKind::Rts,
            ..Frame::data(FrameKind::Rts, NodeId::new(0), s)
        };
    }

    #[test]
    fn labels_round_trip() {
        for kind in [
            FrameKind::Rts,
            FrameKind::Cts,
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::ExRts,
            FrameKind::ExCts,
            FrameKind::ExData,
            FrameKind::ExAck,
            FrameKind::Beacon,
            FrameKind::Rta,
        ] {
            assert_eq!(FrameKind::from_label(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
        }
        assert_eq!(FrameKind::from_label("bogus"), None);
    }

    #[test]
    fn display_is_informative() {
        let f = Frame::control(FrameKind::Rts, NodeId::new(1), NodeId::new(2), 64);
        let s = f.to_string();
        assert!(
            s.contains("RTS") && s.contains("n1") && s.contains("n2"),
            "{s}"
        );
    }
}
