//! Token-passing medium-access control for the wireless channels.
//!
//! All wireless interfaces tuned to one channel share that medium. A token
//! circulates among them; only the holder may transmit. The holder keeps the
//! token while a packet is in flight on its wireless port (wormhole packets
//! are never interleaved on a channel) and otherwise passes it on at the end
//! of any cycle in which it did not transmit.

use crate::node::NodeId;
use crate::topology::wireless::{ChannelId, WirelessOverlay};

/// Token state of a single wireless channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMac {
    channel: ChannelId,
    members: Vec<NodeId>,
    token: usize,
}

impl ChannelMac {
    /// Creates the MAC for `channel` with its member WIs (sorted by node).
    pub fn new(channel: ChannelId, members: Vec<NodeId>) -> Self {
        ChannelMac {
            channel,
            members,
            token: 0,
        }
    }

    /// The channel this MAC arbitrates.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// The WI currently holding the token, if the channel has members.
    pub fn holder(&self) -> Option<NodeId> {
        self.members.get(self.token).copied()
    }

    /// Number of member WIs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the channel has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Ends a cycle: if the holder `transmitted` or still `holds_packet`
    /// (mid-wormhole), the token stays; otherwise it rotates to the next WI.
    pub fn end_cycle(&mut self, transmitted: bool, holds_packet: bool) {
        if self.members.len() > 1 && !transmitted && !holds_packet {
            self.token = (self.token + 1) % self.members.len();
        }
    }

    /// The WI that would hold the token after `k` idle rotations from the
    /// current position.
    pub fn holder_after(&self, k: usize) -> Option<NodeId> {
        if self.members.is_empty() {
            None
        } else {
            self.members
                .get((self.token + k) % self.members.len())
                .copied()
        }
    }

    /// Advances the token over `cycles` consecutive idle cycles at once —
    /// equivalent to that many `end_cycle(false, false)` calls. Used by the
    /// simulator's idle jump when no flit can move for a stretch of cycles.
    pub fn advance_idle(&mut self, cycles: u64) {
        if self.members.len() > 1 {
            let step = (cycles % self.members.len() as u64) as usize;
            self.token = (self.token + step) % self.members.len();
        }
    }
}

/// Builds one [`ChannelMac`] per channel of `overlay`.
pub fn macs_for(overlay: &WirelessOverlay) -> Vec<ChannelMac> {
    (0..overlay.channel_count())
        .map(|c| ChannelMac::new(ChannelId(c), overlay.channel_members(ChannelId(c))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::wireless::WirelessInterface;

    fn mac3() -> ChannelMac {
        ChannelMac::new(ChannelId(0), vec![NodeId(1), NodeId(5), NodeId(9)])
    }

    #[test]
    fn token_rotates_when_idle() {
        let mut m = mac3();
        assert_eq!(m.holder(), Some(NodeId(1)));
        m.end_cycle(false, false);
        assert_eq!(m.holder(), Some(NodeId(5)));
        m.end_cycle(false, false);
        m.end_cycle(false, false);
        assert_eq!(m.holder(), Some(NodeId(1)));
    }

    #[test]
    fn token_sticks_while_transmitting() {
        let mut m = mac3();
        m.end_cycle(true, true);
        assert_eq!(m.holder(), Some(NodeId(1)));
        m.end_cycle(false, true); // blocked mid-packet: still holds
        assert_eq!(m.holder(), Some(NodeId(1)));
        m.end_cycle(false, false);
        assert_eq!(m.holder(), Some(NodeId(5)));
    }

    #[test]
    fn advance_idle_matches_repeated_end_cycle() {
        for k in [0u64, 1, 2, 3, 7, 100, 1_000_003] {
            let mut fast = mac3();
            let mut slow = mac3();
            fast.advance_idle(k);
            for _ in 0..k.min(10_000) {
                slow.end_cycle(false, false);
            }
            if k <= 10_000 {
                assert_eq!(fast.holder(), slow.holder(), "k = {k}");
            } else {
                // Large jumps reduce modulo the member count.
                let mut expect = mac3();
                expect.advance_idle(k % 3);
                assert_eq!(fast.holder(), expect.holder(), "k = {k}");
            }
        }
    }

    #[test]
    fn empty_channel_has_no_holder() {
        let mut m = ChannelMac::new(ChannelId(0), vec![]);
        assert_eq!(m.holder(), None);
        m.end_cycle(false, false);
        assert!(m.is_empty());
    }

    #[test]
    fn single_member_keeps_token() {
        let mut m = ChannelMac::new(ChannelId(0), vec![NodeId(3)]);
        m.end_cycle(false, false);
        assert_eq!(m.holder(), Some(NodeId(3)));
    }

    #[test]
    fn macs_for_overlay() {
        let overlay = WirelessOverlay::new(
            vec![
                WirelessInterface {
                    node: NodeId(0),
                    channel: ChannelId(0),
                },
                WirelessInterface {
                    node: NodeId(4),
                    channel: ChannelId(1),
                },
                WirelessInterface {
                    node: NodeId(2),
                    channel: ChannelId(0),
                },
            ],
            2,
        )
        .unwrap();
        let macs = macs_for(&overlay);
        assert_eq!(macs.len(), 2);
        assert_eq!(macs[0].len(), 2);
        assert_eq!(macs[0].holder(), Some(NodeId(0)));
        assert_eq!(macs[1].holder(), Some(NodeId(4)));
    }
}
