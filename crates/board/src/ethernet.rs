//! The Ethernet bridge module (§V.E).
//!
//! The bridge attaches to a reserved South link and is addressable as an
//! ordinary network node; it forwards everything between the Swallow
//! network and a host. Each bridge sustains up to 80 Mbit/s of full-duplex
//! data — the pacing modelled here — and is how programs and data enter
//! and leave a physical Swallow machine.
//!
//! For multi-tenant use (many machines behind one traffic front-end, the
//! `swallow-fleet` layer) the bridge additionally speaks *frames*: a frame
//! is a run of words closed by an END control token. Egress frames are
//! admission-controlled against a configurable ingress capacity — the
//! front-end sees an explicit rejection instead of silent queue growth —
//! and ingress frames are reassembled with the machine's tag and the exact
//! simulated instant their END token arrived, so per-request latency can
//! be measured without polling.

use crate::snapshot;
use std::collections::VecDeque;
use swallow_isa::token::word_to_tokens;
use swallow_isa::{ControlToken, NodeId, ResType, ResourceId, Token};
use swallow_sim::{ByteReader, ByteWriter, CodecError, Time, TimeDelta};

/// Bridge throughput cap per direction (bits per second).
pub const BRIDGE_RATE_BPS: u64 = 80_000_000;

/// Time the bridge needs per eight-bit token at 80 Mbit/s.
pub const BRIDGE_TOKEN_TIME: TimeDelta = TimeDelta::from_ns(100);

/// Traffic counters for one bridge: the observable counterpart of the
/// admission control, surfaced through `MetricsReport` so a saturated
/// bridge shows up in reports instead of as silent queue growth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Frames accepted for transmission into the network.
    pub frames_sent: u64,
    /// Complete frames received from the network (END-terminated).
    pub frames_received: u64,
    /// Frames refused by ingress admission control (queue at capacity).
    pub frames_rejected: u64,
    /// Highest transmit-queue depth observed, in tokens.
    pub peak_backlog: u64,
}

/// One END-terminated frame received from the network, stamped with the
/// bridge's machine tag and the delivery instant of its closing token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BridgeFrame {
    /// The owning machine's tag (see [`EthernetBridge::set_tag`]).
    pub tag: u32,
    /// Payload words in arrival order.
    pub words: Vec<u32>,
    /// Simulated instant the END token reached the bridge.
    pub completed_at: Time,
}

/// An Ethernet bridge: a pseudo-core whose "channel end 0" is the host.
#[derive(Debug)]
pub struct EthernetBridge {
    node: NodeId,
    now: Time,
    next_tx: Time,
    tx: VecDeque<(ResourceId, Token)>,
    rx: Vec<Token>,
    /// Machine tag stamped on reassembled ingress frames.
    tag: u32,
    /// Admission bound on the transmit queue, in tokens.
    capacity: u64,
    stats: BridgeStats,
    /// Bytes of the ingress frame currently being assembled.
    partial: Vec<u8>,
    /// Completed ingress frames awaiting the host.
    frames: VecDeque<BridgeFrame>,
}

impl EthernetBridge {
    /// Creates a bridge occupying the given network node.
    pub fn new(node: NodeId) -> Self {
        EthernetBridge {
            node,
            now: Time::ZERO,
            next_tx: Time::ZERO,
            tx: VecDeque::new(),
            rx: Vec::new(),
            tag: 0,
            capacity: u64::MAX,
            stats: BridgeStats::default(),
            partial: Vec::new(),
            frames: VecDeque::new(),
        }
    }

    /// The bridge's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The resource id cores aim `setd` at to reach the host.
    pub fn chanend(&self) -> ResourceId {
        ResourceId::new(self.node, 0, ResType::Chanend)
    }

    /// Updates the bridge's notion of time (drives the 80 Mbit/s pacing).
    pub fn set_now(&mut self, now: Time) {
        self.now = now;
    }

    /// True when pacing allows the next token out.
    pub fn can_transmit(&self) -> bool {
        self.next_tx <= self.now
    }

    /// Sets the machine tag stamped on ingress frames — how a fleet
    /// front-end attributes replies when it merges many bridges' streams.
    pub fn set_tag(&mut self, tag: u32) {
        self.tag = tag;
    }

    /// The machine tag.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Bounds the transmit queue to `tokens`; frames that would overflow
    /// it are rejected by [`EthernetBridge::send_frame`] and counted in
    /// [`BridgeStats::frames_rejected`]. Unlimited by default.
    pub fn set_ingress_capacity(&mut self, tokens: u64) {
        self.capacity = tokens;
    }

    /// Traffic counters.
    pub fn stats(&self) -> BridgeStats {
        self.stats
    }

    fn note_backlog(&mut self) {
        self.stats.peak_backlog = self.stats.peak_backlog.max(self.tx.len() as u64);
    }

    /// Queues a 32-bit word for a destination chanend in the network.
    pub fn send_word(&mut self, dest: ResourceId, word: u32) {
        for t in word_to_tokens(word) {
            self.tx.push_back((dest, t));
        }
        self.note_backlog();
    }

    /// Queues a control token (e.g. END to close the route).
    pub fn send_ct(&mut self, dest: ResourceId, ct: ControlToken) {
        self.tx.push_back((dest, Token::Ctrl(ct)));
        self.note_backlog();
    }

    /// Queues a whole END-terminated frame for `dest`, subject to the
    /// ingress capacity: when the frame's tokens would push the transmit
    /// queue past the bound, nothing is queued, the rejection is counted
    /// and `false` is returned — explicit backpressure instead of
    /// unbounded growth.
    pub fn send_frame(&mut self, dest: ResourceId, words: &[u32]) -> bool {
        let needed = words.len() as u64 * 4 + 1;
        if self.tx.len() as u64 + needed > self.capacity {
            self.stats.frames_rejected += 1;
            return false;
        }
        for &w in words {
            self.send_word(dest, w);
        }
        self.send_ct(dest, ControlToken::END);
        self.stats.frames_sent += 1;
        true
    }

    /// Tokens queued but not yet on the network.
    pub fn tx_backlog(&self) -> usize {
        self.tx.len()
    }

    /// The instant pacing next allows a token out (may be in the past).
    /// With the queue head's launch-ready instant, this is the bridge's
    /// contribution to the machine's next-activity estimate.
    pub fn next_tx_at(&self) -> Time {
        self.next_tx
    }

    /// The next token the bridge will put on the network and its
    /// destination, whether or not pacing lets it out yet.
    pub(crate) fn tx_head(&self) -> Option<(ResourceId, Token)> {
        self.tx.front().copied()
    }

    /// Everything received from the network so far.
    pub fn received(&self) -> &[Token] {
        &self.rx
    }

    /// Received payload reassembled into words (control tokens skipped).
    pub fn received_words(&self) -> Vec<u32> {
        let bytes: Vec<u8> = self.rx.iter().filter_map(|t| t.data()).collect();
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
            .collect()
    }

    /// Clears the receive archive, returning its length.
    pub fn drain_received(&mut self) -> usize {
        let n = self.rx.len();
        self.rx.clear();
        n
    }

    /// Completed ingress frames not yet taken by the host.
    pub fn pending_frames(&self) -> usize {
        self.frames.len()
    }

    /// Takes the oldest completed ingress frame.
    pub fn pop_frame(&mut self) -> Option<BridgeFrame> {
        self.frames.pop_front()
    }

    // Endpoint hooks used by the machine's `CoreEndpoints` impl.

    pub(crate) fn ep_tx_front(&self) -> Option<(ResourceId, Token)> {
        if self.can_transmit() {
            self.tx_head()
        } else {
            None
        }
    }

    pub(crate) fn ep_tx_pop(&mut self) -> Option<(ResourceId, Token)> {
        if !self.can_transmit() {
            return None;
        }
        let item = self.tx.pop_front()?;
        self.next_tx = self.now + BRIDGE_TOKEN_TIME;
        Some(item)
    }

    pub(crate) fn ep_deliver(&mut self, token: Token) {
        if let Some(byte) = token.data() {
            self.partial.push(byte);
        } else if token == Token::Ctrl(ControlToken::END) {
            let words = self
                .partial
                .chunks_exact(4)
                .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
                .collect();
            self.partial.clear();
            self.frames.push_back(BridgeFrame {
                tag: self.tag,
                words,
                completed_at: self.now,
            });
            self.stats.frames_received += 1;
        }
        self.rx.push(token);
    }

    // Snapshot codec (the node id is topology-derived, not serialized).

    pub(crate) fn encode_state(&self, w: &mut ByteWriter) {
        snapshot::write_time(w, self.now);
        snapshot::write_time(w, self.next_tx);
        w.u64(self.tx.len() as u64);
        for &(dest, token) in &self.tx {
            w.u32(dest.raw());
            snapshot::write_token(w, token);
        }
        w.u64(self.rx.len() as u64);
        for &token in &self.rx {
            snapshot::write_token(w, token);
        }
        w.u32(self.tag);
        w.u64(self.capacity);
        w.u64(self.stats.frames_sent);
        w.u64(self.stats.frames_received);
        w.u64(self.stats.frames_rejected);
        w.u64(self.stats.peak_backlog);
        w.u64(self.partial.len() as u64);
        for &b in &self.partial {
            w.u8(b);
        }
        w.u64(self.frames.len() as u64);
        for frame in &self.frames {
            w.u32(frame.tag);
            snapshot::write_time(w, frame.completed_at);
            w.u64(frame.words.len() as u64);
            for &word in &frame.words {
                w.u32(word);
            }
        }
    }

    pub(crate) fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        self.now = snapshot::read_time(r)?;
        self.next_tx = snapshot::read_time(r)?;
        self.tx.clear();
        for _ in 0..r.len_prefixed(6)? {
            let dest = ResourceId::from_raw(r.u32()?);
            let token = snapshot::read_token(r)?;
            self.tx.push_back((dest, token));
        }
        self.rx.clear();
        for _ in 0..r.len_prefixed(2)? {
            self.rx.push(snapshot::read_token(r)?);
        }
        self.tag = r.u32()?;
        self.capacity = r.u64()?;
        self.stats = BridgeStats {
            frames_sent: r.u64()?,
            frames_received: r.u64()?,
            frames_rejected: r.u64()?,
            peak_backlog: r.u64()?,
        };
        self.partial.clear();
        for _ in 0..r.len_prefixed(1)? {
            self.partial.push(r.u8()?);
        }
        self.frames.clear();
        for _ in 0..r.len_prefixed(8)? {
            let tag = r.u32()?;
            let completed_at = snapshot::read_time(r)?;
            let mut words = Vec::new();
            for _ in 0..r.len_prefixed(4)? {
                words.push(r.u32()?);
            }
            self.frames.push_back(BridgeFrame {
                tag,
                words,
                completed_at,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_enforces_80mbps() {
        let mut b = EthernetBridge::new(NodeId(16));
        let dest = ResourceId::new(NodeId(0), 0, ResType::Chanend);
        b.send_word(dest, 0xAABB_CCDD);
        b.set_now(Time::ZERO);
        assert!(b.ep_tx_pop().is_some());
        // Second token refused until 100 ns later.
        assert!(b.ep_tx_pop().is_none());
        b.set_now(Time::from_ps(99_000));
        assert!(b.ep_tx_pop().is_none());
        b.set_now(Time::from_ps(100_000));
        assert!(b.ep_tx_pop().is_some());
    }

    #[test]
    fn word_reassembly() {
        let mut b = EthernetBridge::new(NodeId(16));
        for t in word_to_tokens(0x0102_0304) {
            b.ep_deliver(t);
        }
        b.ep_deliver(Token::Ctrl(ControlToken::END));
        assert_eq!(b.received_words(), vec![0x0102_0304]);
        assert_eq!(b.drain_received(), 5);
        assert!(b.received().is_empty());
    }

    #[test]
    fn rate_constant_is_consistent() {
        // 8 bits / 100 ns = 80 Mbit/s.
        let bits_per_sec = 8.0 / BRIDGE_TOKEN_TIME.as_secs_f64();
        assert!((bits_per_sec - BRIDGE_RATE_BPS as f64).abs() < 1.0);
    }

    #[test]
    fn frames_carry_tag_and_completion_instant() {
        let mut b = EthernetBridge::new(NodeId(16));
        b.set_tag(7);
        b.set_now(Time::from_ps(1_000));
        for t in word_to_tokens(41) {
            b.ep_deliver(t);
        }
        for t in word_to_tokens(42) {
            b.ep_deliver(t);
        }
        b.set_now(Time::from_ps(5_000));
        b.ep_deliver(Token::Ctrl(ControlToken::END));
        assert_eq!(b.pending_frames(), 1);
        let frame = b.pop_frame().expect("framed");
        assert_eq!(frame.tag, 7);
        assert_eq!(frame.words, vec![41, 42]);
        assert_eq!(frame.completed_at, Time::from_ps(5_000));
        assert_eq!(b.stats().frames_received, 1);
        assert!(b.pop_frame().is_none());
    }

    #[test]
    fn ingress_capacity_rejects_and_counts() {
        let mut b = EthernetBridge::new(NodeId(16));
        let dest = ResourceId::new(NodeId(0), 0, ResType::Chanend);
        // Two words + END = 9 tokens; cap to exactly one frame.
        b.set_ingress_capacity(9);
        assert!(b.send_frame(dest, &[1, 2]));
        assert!(!b.send_frame(dest, &[3, 4]), "queue at capacity");
        let stats = b.stats();
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.frames_rejected, 1);
        assert_eq!(stats.peak_backlog, 9);
        assert_eq!(b.tx_backlog(), 9);
        // Draining the queue re-opens admission.
        b.set_now(Time::from_ps(u64::MAX / 2));
        while b.ep_tx_pop().is_some() {
            b.set_now(b.next_tx_at());
        }
        assert!(b.send_frame(dest, &[3, 4]));
        assert_eq!(b.stats().frames_sent, 2);
    }

    #[test]
    fn codec_round_trips_frame_state() {
        let mut b = EthernetBridge::new(NodeId(16));
        b.set_tag(3);
        b.set_ingress_capacity(100);
        let dest = ResourceId::new(NodeId(2), 0, ResType::Chanend);
        assert!(b.send_frame(dest, &[10, 20]));
        for t in word_to_tokens(5) {
            b.ep_deliver(t);
        }
        b.ep_deliver(Token::Ctrl(ControlToken::END));
        // A half-assembled ingress frame survives the round trip too.
        for t in word_to_tokens(6) {
            b.ep_deliver(t);
        }
        let mut w = ByteWriter::new();
        b.encode_state(&mut w);
        let bytes = w.finish();
        let mut restored = EthernetBridge::new(NodeId(16));
        let mut r = ByteReader::new(&bytes);
        restored.restore_state(&mut r).expect("restores");
        assert_eq!(restored.tag(), 3);
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.tx_backlog(), b.tx_backlog());
        assert_eq!(restored.pending_frames(), 1);
        assert_eq!(restored.pop_frame(), b.pop_frame());
        // The partial frame closes identically on both sides.
        restored.ep_deliver(Token::Ctrl(ControlToken::END));
        b.ep_deliver(Token::Ctrl(ControlToken::END));
        assert_eq!(restored.pop_frame(), b.pop_frame());
        // Re-encoding is byte-identical (snapshot losslessness).
        let mut w2 = ByteWriter::new();
        b.encode_state(&mut w2);
        let mut w3 = ByteWriter::new();
        // Rebuild b's state from bytes once more for a fair comparison.
        let mut again = EthernetBridge::new(NodeId(16));
        let mut r2 = ByteReader::new(&bytes);
        again.restore_state(&mut r2).expect("restores");
        again.encode_state(&mut w3);
        assert_eq!(w3.finish(), bytes);
    }
}
