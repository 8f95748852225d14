//! Effect capture: how a node's driver calls reach the rest of the
//! simulation.
//!
//! A driver call's effects are buffered as [`Emission`]s and
//! [`TraceRecord`]s, each stamped with a canonical key `(time, node,
//! per-node seq)`. After every window the cluster sorts the buffers on
//! that key and *commits* them: network RNG draws, telemetry counters
//! and trace appends all happen in commit order, which depends only on
//! simulated time and node identity, never on the order the window's
//! events happened to be dispatched in.

use bytes::Bytes;
use lifeguard_core::driver::{OwnedOutput, Sink};
use lifeguard_core::event::Event;
use lifeguard_proto::{codec, compound, Ack, Message, Nack, NodeAddr, NodeName};

use crate::clock::SimTime;

/// Shape of the simulated population.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Topology {
    /// Number of real (driver-backed) nodes: indices `0..real`.
    pub real: usize,
    /// Total roster size including phantom members: `real..total` are
    /// phantoms — table entries with no driver, answered by a canned
    /// responder.
    pub total: usize,
}

/// A cross-node effect captured during a window, delivered at commit.
pub(crate) struct Emission {
    /// When the sender produced it.
    pub at: SimTime,
    /// Global index of the sending node.
    pub from: usize,
    /// Per-sender monotonic stamp (ties on `at` commit in send order).
    pub seq: u64,
    pub kind: EmitKind,
}

/// What was emitted.
pub(crate) enum EmitKind {
    /// A datagram to a real (or unknown) address.
    Packet {
        to: NodeAddr,
        payload: Bytes,
    },
    /// A stream message to a real (or unknown) address. `len` is the
    /// encoded length, precomputed at capture so telemetry accounting
    /// at commit costs nothing.
    Stream {
        to: NodeAddr,
        msg: Message,
        len: usize,
    },
    /// A datagram addressed to a phantom member. Capture already ran
    /// the canned responder; `replies` are the packets the phantom
    /// answers with (each takes two network legs: out and back).
    PhantomPacket {
        phantom: usize,
        len: usize,
        // bounded: at most one reply per decoded compound part of a single datagram
        replies: Vec<(NodeAddr, Bytes)>,
    },
    /// A stream message to a phantom member: counted, then dropped
    /// (phantoms have no stream endpoint; anti-entropy simply misses).
    PhantomStream {
        len: usize,
    },
}

/// A membership conclusion captured during a window, appended to the
/// trace at commit in canonical `(at, reporter, seq)` order.
pub(crate) struct TraceRecord {
    pub at: SimTime,
    pub reporter: usize,
    pub seq: u64,
    pub event: Event,
}

/// One node's [`Sink`]: packets and stream messages become buffered
/// [`Emission`]s (or a paused node's outbox entries), membership events
/// become buffered [`TraceRecord`]s.
pub(crate) struct NodeSink<'a> {
    pub node: usize,
    pub now: SimTime,
    pub paused: bool,
    pub topo: Topology,
    pub outbox: &'a mut Vec<OwnedOutput>,
    pub seq: &'a mut u64,
    pub emissions: &'a mut Vec<Emission>,
    pub records: &'a mut Vec<TraceRecord>,
}

impl NodeSink<'_> {
    fn stamp(&mut self) -> u64 {
        let s = *self.seq;
        *self.seq += 1;
        s
    }

    fn emit(&mut self, kind: EmitKind) {
        let seq = self.stamp();
        self.emissions.push(Emission {
            at: self.now,
            from: self.node,
            seq,
            kind,
        });
    }

    fn emit_packet(&mut self, to: NodeAddr, payload: Bytes) {
        let kind = match phantom_index(to, self.topo) {
            Some(phantom) => EmitKind::PhantomPacket {
                phantom,
                len: payload.len(),
                replies: phantom_replies(phantom, self.topo, &payload),
            },
            None => EmitKind::Packet { to, payload },
        };
        self.emit(kind);
    }

    fn emit_stream(&mut self, to: NodeAddr, msg: Message) {
        let len = codec::encoded_len(&msg);
        let kind = match phantom_index(to, self.topo) {
            Some(_) => EmitKind::PhantomStream { len },
            None => EmitKind::Stream { to, msg, len },
        };
        self.emit(kind);
    }

    /// Dispatches a previously captured (outbox) output as if it were
    /// produced now — used when a pause ends and the blocked sends are
    /// released.
    pub fn dispatch_owned(&mut self, output: OwnedOutput) {
        match output {
            OwnedOutput::Packet { to, payload } => self.emit_packet(to, payload),
            OwnedOutput::Stream { to, msg } => self.emit_stream(to, msg),
            OwnedOutput::Event(e) => self.event(e),
        }
    }
}

impl Sink for NodeSink<'_> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        // A paused node blocks before sending: network effects are held
        // in its outbox until the anomaly ends. In-flight packets
        // outlive the borrow of the node's scratch, so both paths copy
        // the payload into an owned buffer.
        if self.paused {
            self.outbox.push(OwnedOutput::Packet {
                to,
                payload: Bytes::copy_from_slice(payload),
            });
        } else {
            self.emit_packet(to, Bytes::copy_from_slice(payload));
        }
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        if self.paused {
            self.outbox.push(OwnedOutput::Stream { to, msg });
        } else {
            self.emit_stream(to, msg);
        }
    }

    fn event(&mut self, event: Event) {
        // A paused node's membership conclusions are still logged (the
        // paper's analysis reads the agents' logs, which are written
        // regardless).
        let seq = self.stamp();
        self.records.push(TraceRecord {
            at: self.now,
            reporter: self.node,
            seq,
            event,
        });
    }
}

// ---------------------------------------------------------------------
// Phantom members
// ---------------------------------------------------------------------

/// Recovers a phantom member's index from its synthetic address, if the
/// address falls in the phantom range `real..total`.
fn phantom_index(to: NodeAddr, topo: Topology) -> Option<usize> {
    if topo.total == topo.real {
        return None; // no phantoms configured
    }
    if to.port() != crate::cluster::SIM_PORT {
        return None;
    }
    let std::net::IpAddr::V4(v4) = to.ip() else {
        return None;
    };
    let [a, b, c, d] = v4.octets();
    if a != 10 {
        return None;
    }
    let idx = ((b as usize) << 16) | ((c as usize) << 8) | d as usize;
    (topo.real..topo.total).contains(&idx).then_some(idx)
}

/// Parses `node-<i>` back to `i`.
fn node_index_of(name: &NodeName) -> Option<usize> {
    name.as_str().strip_prefix("node-")?.parse().ok()
}

/// The canned protocol behaviour of a phantom member: a permanently
/// healthy peer that answers probes and nothing else.
///
/// * `ping` naming the phantom → `ack` back to the prober.
/// * `ping-req` (indirect probe) → `ack` if the probe target is another
///   phantom (phantoms are always alive), else a `nack` when the origin
///   understands them: the *relay* is responsive even though it will not
///   actually probe a real target, which feeds the origin's Local Health
///   Multiplier exactly like a live relay that timed out.
/// * gossip / anti-entropy → consumed silently.
///
/// Replies are bare (non-compound) message encodings, which the receive
/// path accepts like any single-message datagram.
fn phantom_replies(phantom: usize, topo: Topology, payload: &[u8]) -> Vec<(NodeAddr, Bytes)> {
    let Ok(msgs) = compound::decode_packet(payload) else {
        return Vec::new(); // malformed packets are dropped, as real nodes drop them
    };
    let mut replies = Vec::new();
    for msg in msgs {
        match msg {
            Message::Ping(p) if node_index_of(&p.target) == Some(phantom) => {
                replies.push((
                    p.source_addr,
                    codec::encode_message(&Message::Ack(Ack { seq: p.seq })),
                ));
            }
            Message::IndirectPing(ip) => {
                let target_is_phantom = node_index_of(&ip.target)
                    .is_some_and(|t| (topo.real..topo.total).contains(&t));
                if target_is_phantom {
                    replies.push((
                        ip.source_addr,
                        codec::encode_message(&Message::Ack(Ack { seq: ip.seq })),
                    ));
                } else if ip.nack {
                    replies.push((
                        ip.source_addr,
                        codec::encode_message(&Message::Nack(Nack { seq: ip.seq })),
                    ));
                }
            }
            _ => {}
        }
    }
    replies
}
