//! Packets and flits for the wormhole-switched network.
//!
//! Packets are serialised into 32-bit flits (the paper's flit width). The
//! head flit carries routing state; body and tail flits follow the wormhole
//! path reserved by the head.

use crate::node::NodeId;
use crate::routing::Phase;

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries the route.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases wormhole reservations.
    Tail,
    /// A single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a wormhole (performs routing).
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a wormhole (releases the output port).
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit in flight (32 bytes: every field is read by
/// the switch kernel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Role within the packet.
    pub kind: FlitKind,
    /// Destination node of the packet.
    pub dest: NodeId,
    /// Routing phase carried by the head flit (updated per hop).
    pub phase: Phase,
    /// Cycle at which the packet was created (entered the source queue).
    pub created: u64,
    /// Earliest cycle at which this flit may move again (one hop per cycle).
    pub ready_at: u64,
    /// Whether the packet was diverted onto the wireline-only fallback tree
    /// after its wireless interface was disabled by the fault model; always
    /// `false` in fault-free simulations.
    pub wired_fallback: bool,
}

/// Builds the flit sequence for a packet of `len` flits.
///
/// # Panics
///
/// Panics if `len == 0`.
///
/// # Examples
///
/// ```
/// use mapwave_noc::flit::{flits_of, FlitKind};
/// use mapwave_noc::NodeId;
///
/// let fs = flits_of(NodeId(5), 4, 100);
/// assert_eq!(fs.len(), 4);
/// assert_eq!(fs[0].kind, FlitKind::Head);
/// assert_eq!(fs[3].kind, FlitKind::Tail);
/// ```
pub fn flits_of(dest: NodeId, len: usize, now: u64) -> Vec<Flit> {
    flit_sequence(dest, len, now).collect()
}

/// Iterator form of [`flits_of`]: yields the flit sequence without
/// allocating a `Vec` (the simulator extends source queues from it
/// directly).
///
/// # Panics
///
/// Panics if `len == 0`.
pub fn flit_sequence(dest: NodeId, len: usize, now: u64) -> impl Iterator<Item = Flit> {
    assert!(len > 0, "a packet has at least one flit");
    (0..len).map(move |i| Flit {
        kind: if len == 1 {
            FlitKind::HeadTail
        } else if i == 0 {
            FlitKind::Head
        } else if i == len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        },
        dest,
        phase: Phase::Up,
        created: now,
        ready_at: now,
        wired_fallback: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 32);
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let fs = flits_of(NodeId(2), 1, 0);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FlitKind::HeadTail);
        assert!(fs[0].kind.is_head());
        assert!(fs[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_roles() {
        let fs = flits_of(NodeId(2), 3, 7);
        assert_eq!(fs[0].kind, FlitKind::Head);
        assert_eq!(fs[1].kind, FlitKind::Body);
        assert_eq!(fs[2].kind, FlitKind::Tail);
        assert!(fs.iter().all(|f| f.created == 7));
        assert!(!fs[1].kind.is_head());
        assert!(!fs[0].kind.is_tail());
    }

    #[test]
    #[should_panic]
    fn zero_length_packet_panics() {
        let _ = flits_of(NodeId(1), 0, 0);
    }
}
