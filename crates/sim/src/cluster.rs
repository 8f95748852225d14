//! The simulated cluster: N protocol nodes + network + anomaly injection.
//!
//! Reproduces the paper's experiment environment (§V-E): many agents on
//! one machine's loopback interface, with message send/receive *blocked*
//! at selected nodes for controlled periods. A paused node's inbound
//! messages and timers are queued and processed the moment it resumes —
//! exactly the observable behaviour of a process starved of CPU.
//!
//! # Execution order: windows and canonical commits
//!
//! One event queue drives every node. The simulation advances in
//! *windows* no longer than the network's minimum one-way latency, so
//! nothing a node sends inside a window can arrive inside it. Within a
//! window, events are dispatched in queue order and each node's effects
//! (sends, membership conclusions) are buffered. Between windows they are
//! *committed* in the canonical order `(time, sending node, per-node
//! sequence)`: network RNG draws, arrival scheduling, telemetry and trace
//! appends all happen at commit. That order fixes the network RNG stream
//! and the queue order of same-instant arrivals, so it defines the trace.
//!
//! The whole simulation is deterministic for a given
//! [`ClusterBuilder::seed`]: node RNGs, network jitter and event ordering
//! are all derived from it.
//!
//! # Phantom members
//!
//! Large-scale slices (tens of thousands of members) cannot afford a
//! full driver per member. [`ClusterBuilder::phantom_members`] extends
//! the roster with *phantoms*: members that exist in every real node's
//! tables but are simulated by a canned responder that acks probes and
//! swallows gossip. Real protocol work (tables, sampling, gossip fan-out,
//! probe scheduling) runs against the full roster size while memory and
//! CPU stay proportional to the real-node count.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, OwnedOutput};
use lifeguard_core::membership::Roster;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_proto::{Message, NodeAddr, NodeName};

use crate::anomaly::AnomalySpec;
use crate::clock::{SimDuration, SimTime};
use crate::event_queue::EventQueue;
use crate::network::{Delivery, Network, NetworkConfig};
use crate::sink::{EmitKind, Emission, NodeSink, Topology, TraceRecord};
use crate::telemetry::Telemetry;
use crate::trace::Trace;

/// UDP/TCP port every simulated member listens on.
pub(crate) const SIM_PORT: u16 = 7946;

/// An action injected into a running simulation.
#[derive(Clone, Debug)]
pub enum SimAction {
    /// Hard-kill a node: it stops processing forever (true failure).
    Crash {
        /// Index of the node to crash.
        node: usize,
    },
    /// Pause a node (anomaly) for `duration` from the current instant.
    Pause {
        /// Index of the node to pause.
        node: usize,
        /// How long the node blocks.
        duration: Duration,
    },
    /// Make a node leave the group gracefully.
    Leave {
        /// Index of the leaving node.
        node: usize,
    },
    /// Replace a node's application metadata (controlled membership
    /// churn: bumps the incarnation and gossips the change, without the
    /// failure-detector side effects of a pause or crash).
    UpdateMeta {
        /// Index of the node whose metadata changes.
        node: usize,
        /// The new metadata blob.
        meta: Bytes,
    },
    /// Sever connectivity between two nodes (both directions).
    Partition {
        /// One side.
        a: usize,
        /// Other side.
        b: usize,
    },
    /// Remove all partitions.
    HealPartitions,
}

/// Configures and builds a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    n: usize,
    config: Config,
    seed: u64,
    network: NetworkConfig,
    anomalies: Vec<(usize, AnomalySpec)>,
    full_mesh: bool,
    phantoms: usize,
}

impl ClusterBuilder {
    /// A cluster of `n` nodes named `node-0 … node-{n-1}`, with `node-0`
    /// acting as the join seed.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one node");
        ClusterBuilder {
            n,
            config: Config::lan(),
            seed: 0,
            network: NetworkConfig::loopback(),
            anomalies: Vec::new(),
            full_mesh: false,
            phantoms: 0,
        }
    }

    /// Starts every node with full knowledge of every peer instead of
    /// joining through `node-0`. Skips the O(n²) join/push-pull flood, so
    /// large-cluster benchmarks measure steady-state protocol cost
    /// rather than bootstrap traffic. The roster is built once and every
    /// node adopts it ([`SwimNode::adopt_roster`]), sharing one name
    /// index.
    pub fn full_mesh(mut self, enabled: bool) -> Self {
        self.full_mesh = enabled;
        self
    }

    /// Protocol configuration used by every node.
    pub fn config(mut self, config: Config) -> Self {
        self.config = config;
        self
    }

    /// Master seed for all randomness in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network latency/loss model.
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Adds an anomaly schedule for one node.
    pub fn anomaly(mut self, node: usize, spec: AnomalySpec) -> Self {
        assert!(node < self.n, "anomaly node out of range");
        self.anomalies.push((node, spec));
        self
    }

    /// Extends the roster with `phantoms` phantom members (indices
    /// `n..n + phantoms`): table entries answered by a canned prober-side
    /// responder instead of a full protocol instance. Requires
    /// [`full_mesh`](Self::full_mesh) bootstrap, since phantoms cannot
    /// execute a join handshake.
    pub fn phantom_members(mut self, phantoms: usize) -> Self {
        self.phantoms = phantoms;
        self
    }

    /// Builds the cluster at simulated time zero: every node is started,
    /// and nodes 1… send a join push-pull to `node-0`.
    pub fn build(self) -> Cluster {
        let n = self.n;
        let total = n + self.phantoms;
        assert!(
            self.phantoms == 0 || self.full_mesh,
            "phantom members require full_mesh bootstrap"
        );
        assert!(total <= 1 << 24, "address scheme supports 2^24 members");
        // The window length: nothing crosses the network faster than
        // the minimum one-way latency, so no send lands in the window
        // that produced it.
        let horizon_us = self
            .network
            .datagram_latency
            .min(self.network.stream_latency)
            .as_micros() as u64;
        let mut slots = Vec::with_capacity(n);
        let mut addr_to_idx = HashMap::with_capacity(n);
        for i in 0..n {
            let name = NodeName::from(format!("node-{i}"));
            let addr = Cluster::addr_for(i);
            addr_to_idx.insert(addr, i);
            // Distinct, seed-derived RNG stream per node.
            let node_seed = self
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            let node = SwimNode::new(name, addr, self.config.clone(), node_seed);
            slots.push(NodeSlot {
                driver: Driver::new(node),
                paused_until: None,
                crashed: false,
                wake_marker: None,
                outbox: Vec::new(),
                emit_seq: 0,
            });
        }
        let mut cluster = Cluster {
            slots,
            queue: EventQueue::new(),
            emissions: Vec::new(),
            records: Vec::new(),
            network: Network::new(self.network, self.seed.wrapping_add(0x00C0_FFEE)),
            addr_to_idx,
            now: SimTime::ZERO,
            trace: Trace::new(),
            telemetry: Telemetry::new(n),
            topo: Topology { real: n, total },
            horizon_us,
        };
        // Boot + join (or direct full-mesh bootstrap). Phantom members
        // appear in the bootstrap roster like any other peer.
        let seed_addr = Cluster::addr_for(0);
        // The roster is hashed once here; every node adopts it and
        // shares its name index.
        let roster = self.full_mesh.then(|| {
            Roster::new((0..total).map(|i| (Cluster::name_of(i), Cluster::addr_for(i))))
        });
        for i in 0..n {
            cluster.drive_now(i, |driver, sink| driver.start(SimTime::ZERO, sink));
            if let Some(roster) = &roster {
                cluster.slots[i]
                    .driver
                    .node_mut()
                    .adopt_roster(roster, SimTime::ZERO);
            } else if i > 0 {
                cluster.drive_now(i, |driver, sink| {
                    driver.join(vec![seed_addr], SimTime::ZERO, sink);
                });
            }
            cluster.ensure_wake(i);
        }
        // Schedule anomaly windows.
        for (node, spec) in &self.anomalies {
            let wseed = self.seed.wrapping_add(0xA0_0000 + *node as u64);
            for w in spec.windows(wseed) {
                cluster.queue.push(
                    w.start,
                    SimEvent::PauseStart {
                        node: *node,
                        until: w.end,
                    },
                );
                cluster.queue.push(w.end, SimEvent::PauseEnd { node: *node });
            }
        }
        cluster
    }
}

/// A running simulated cluster.
pub struct Cluster {
    /// Node `i`'s driver and anomaly state, at index `i`.
    // bounded: fixed at build time — one slot per real node, never grows
    slots: Vec<NodeSlot>,
    queue: EventQueue<SimEvent>,
    /// Effects buffered during the current window.
    // bounded: drained every window commit; holds one window's sends
    emissions: Vec<Emission>,
    /// Trace entries buffered during the current window.
    // bounded: drained every window commit; holds one window's conclusions
    records: Vec<TraceRecord>,
    network: Network,
    addr_to_idx: HashMap<NodeAddr, usize>,
    now: SimTime,
    trace: Trace,
    telemetry: Telemetry,
    topo: Topology,
    /// Window length: the network's minimum one-way latency, in µs.
    horizon_us: u64,
}

/// An event in the cluster's queue.
enum SimEvent {
    /// A node's next timer deadline fell due.
    Wake {
        /// Index of the node.
        node: usize,
    },
    /// A datagram arrives.
    Datagram {
        /// Index of the receiving node.
        to: usize,
        /// Sender address (used for ack routing).
        from: NodeAddr,
        /// Raw packet bytes.
        payload: Bytes,
    },
    /// A stream message arrives.
    Stream {
        /// Index of the receiving node.
        to: usize,
        /// Sender's advertised address.
        from: NodeAddr,
        /// The decoded message.
        msg: Message,
    },
    /// An anomaly window opens.
    PauseStart {
        /// Index of the paused node.
        node: usize,
        /// When the window closes.
        until: SimTime,
    },
    /// An anomaly window closes.
    PauseEnd {
        /// Index of the resuming node.
        node: usize,
    },
}

/// One simulated node: its driver plus anomaly state.
struct NodeSlot {
    /// The protocol core behind the shared sans-I/O driver harness.
    driver: Driver,
    paused_until: Option<SimTime>,
    crashed: bool,
    wake_marker: Option<SimTime>,
    /// Sends generated while paused ("block immediately before
    /// sending"); flushed in order at the end of the anomaly.
    // bounded: drained at PauseEnd; holds at most one anomaly's worth of buffered sends
    outbox: Vec<OwnedOutput>,
    /// Monotonic stamp shared by this node's emissions and trace
    /// records: the third component of the canonical commit key.
    emit_seq: u64,
}

impl Cluster {
    /// The synthetic address of node `i` (10.x.y.z encodes `i` in the
    /// low 24 bits, supporting rosters beyond 2¹⁶ members).
    pub fn addr_for(i: usize) -> NodeAddr {
        NodeAddr::new(
            [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
            SIM_PORT,
        )
    }

    /// The name of node `i`.
    pub fn name_of(i: usize) -> NodeName {
        NodeName::from(format!("node-{i}"))
    }

    /// Number of real (driver-backed) nodes.
    pub fn len(&self) -> usize {
        self.topo.real
    }

    /// Whether the cluster is empty (never true after building).
    pub fn is_empty(&self) -> bool {
        self.topo.real == 0
    }

    /// Total roster size including phantom members.
    pub fn total_members(&self) -> usize {
        self.topo.total
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node's protocol state.
    pub fn node(&self, i: usize) -> &SwimNode {
        self.slots[i].driver.node()
    }

    /// The recorded event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The message/byte counters.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Node `i`'s metrics export in the runtime-independent snapshot
    /// shape: the core's deterministic protocol metrics plus the sim
    /// network's transmit accounting folded into the I/O section —
    /// the same struct the threaded and reactor agents return from
    /// `Agent::metrics()`, so sim and real runs aggregate identically.
    pub fn metrics_snapshot(&self, i: usize) -> lifeguard_metrics::Snapshot {
        let t = self.telemetry.node(i);
        lifeguard_metrics::Snapshot {
            core: self.slots[i].driver.metrics(),
            io: lifeguard_metrics::IoSnapshot {
                datagrams_sent: t.datagrams_sent,
                datagram_bytes: t.datagram_bytes,
                streams_sent: t.streams_sent,
                stream_bytes: t.stream_bytes,
                ..Default::default()
            },
        }
    }

    /// Whether node `i` is currently inside an anomaly window.
    pub fn is_paused(&self, i: usize) -> bool {
        self.slots[i].paused_until.is_some()
    }

    /// Whether node `i` was crashed.
    pub fn is_crashed(&self, i: usize) -> bool {
        self.slots[i].crashed
    }

    /// Runs the simulation until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(base) = self.queue.peek_time().filter(|&b| b <= t) {
            // The window ends one µs short of the horizon (a delivery
            // drawn at `base` lands at `base + horizon` at the earliest,
            // strictly after the window), clipped to the run target.
            let end = (base.as_micros() + self.horizon_us.saturating_sub(1)).min(t.as_micros());
            let wend = SimTime::from_micros(end);
            while self.queue.peek_time().is_some_and(|at| at <= wend) {
                let Some((at, ev)) = self.queue.pop() else {
                    break;
                };
                debug_assert!(at >= self.now, "sim time went backwards");
                self.now = at;
                self.dispatch(ev);
            }
            self.now = wend;
            self.commit();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now + d;
        self.run_until(t);
    }

    /// Injects an action at the current instant.
    pub fn apply(&mut self, action: SimAction) {
        match action {
            SimAction::Crash { node } => {
                self.slots[node].crashed = true;
            }
            SimAction::Pause { node, duration } => {
                let until = self.now + duration;
                self.pause(node, until);
                self.commit();
                self.queue.push(until, SimEvent::PauseEnd { node });
            }
            SimAction::Leave { node } => {
                let now = self.now;
                self.drive_now(node, |driver, sink| driver.leave(now, sink));
                self.ensure_wake(node);
            }
            SimAction::UpdateMeta { node, meta } => {
                let now = self.now;
                self.drive_now(node, |driver, sink| {
                    driver
                        .handle(Input::UpdateMeta { meta }, now, sink)
                        .expect("update-meta input is infallible");
                });
                self.ensure_wake(node);
            }
            SimAction::Partition { a, b } => {
                self.network.set_partitioned(a, b, true);
            }
            SimAction::HealPartitions => {
                self.network.heal_all();
            }
        }
    }

    /// Whether every functioning (non-crashed, non-left) node sees every
    /// other functioning node as alive.
    pub fn converged(&self) -> bool {
        let participants: Vec<usize> = (0..self.len())
            .filter(|&i| !self.slots[i].crashed && !self.slots[i].driver.node().has_left())
            .collect();
        let names: Vec<NodeName> = participants.iter().map(|&j| Self::name_of(j)).collect();
        participants.iter().all(|&i| {
            let node = self.slots[i].driver.node();
            participants.iter().zip(&names).all(|(&j, name)| {
                i == j
                    || node
                        .member(name)
                        .is_some_and(|m| m.state == lifeguard_proto::MemberState::Alive)
            })
        })
    }

    /// Indices of nodes that consider `name` alive right now.
    pub fn nodes_seeing_alive(&self, name: &str) -> Vec<usize> {
        let name = NodeName::from(name);
        (0..self.len())
            .filter(|&i| {
                self.slots[i]
                    .driver
                    .node()
                    .member(&name)
                    .is_some_and(|m| m.state == lifeguard_proto::MemberState::Alive)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn dispatch(&mut self, ev: SimEvent) {
        let now = self.now;
        match ev {
            SimEvent::Wake { node } => {
                let slot = &mut self.slots[node];
                if slot.wake_marker != Some(now) {
                    return; // stale wake; a fresher one is queued
                }
                slot.wake_marker = None;
                if slot.crashed {
                    return;
                }
                // Timers run even during an anomaly: the paper's
                // instrumentation blocks only sends/receives, so the
                // agent's logic keeps evaluating wall-clock deadlines.
                // Sends it produces are captured in the outbox by the
                // sink.
                self.drive(node, |driver, sink| driver.tick(now, sink));
                self.ensure_wake(node);
            }
            SimEvent::Datagram { to, from, payload } => {
                let slot = &self.slots[to];
                if slot.crashed {
                    return;
                }
                if let Some(until) = slot.paused_until {
                    // Blocked on receive: queue for after the anomaly.
                    self.queue
                        .push(until, SimEvent::Datagram { to, from, payload });
                    return;
                }
                // Zero-copy delivery: compound parts and blob fields
                // alias the datagram buffer. Malformed packets are
                // dropped, as a real deployment would.
                self.drive(to, |driver, sink| {
                    let _ = driver.handle(Input::Datagram { from, payload }, now, sink);
                });
                self.ensure_wake(to);
            }
            SimEvent::Stream { to, from, msg } => {
                let slot = &self.slots[to];
                if slot.crashed {
                    return;
                }
                if let Some(until) = slot.paused_until {
                    self.queue.push(until, SimEvent::Stream { to, from, msg });
                    return;
                }
                self.drive(to, |driver, sink| {
                    driver
                        .handle(Input::Stream { from, msg }, now, sink)
                        .expect("stream input is infallible");
                });
                self.ensure_wake(to);
            }
            SimEvent::PauseStart { node, until } => {
                if !self.slots[node].crashed {
                    self.pause(node, until);
                }
            }
            SimEvent::PauseEnd { node } => {
                let slot = &mut self.slots[node];
                if slot.crashed {
                    return;
                }
                // Only the end of the latest-ending overlapping pause
                // resumes the node.
                if slot.paused_until.is_some_and(|u| u <= now) {
                    slot.paused_until = None;
                    // "The blocked sends ... are unblocked": flush
                    // everything the node tried to send while paused,
                    // then let the node evaluate its postponed probe
                    // deadlines (which fail, raising suspicions) and any
                    // other due timers.
                    let outbox = std::mem::take(&mut slot.outbox);
                    self.drive(node, |driver, sink| {
                        for held in outbox {
                            sink.dispatch_owned(held);
                        }
                        driver
                            .handle(Input::IoBlocked { blocked: false }, now, sink)
                            .expect("io-blocked input is infallible");
                        driver.tick(now, sink);
                    });
                    self.ensure_wake(node);
                }
            }
        }
    }

    /// Blocks `node`'s I/O until at least `until`. Overlapping pauses
    /// keep the later end, so a short pause inside a long one cannot
    /// resume the node early.
    fn pause(&mut self, node: usize, until: SimTime) {
        let slot = &mut self.slots[node];
        slot.paused_until = Some(slot.paused_until.map_or(until, |u| u.max(until)));
        let now = self.now;
        self.drive(node, |driver, sink| {
            driver
                .handle(Input::IoBlocked { blocked: true }, now, sink)
                .expect("io-blocked input is infallible");
        });
    }

    /// Runs one driver call with a [`NodeSink`] assembled from split
    /// borrows of the cluster's fields — the single place the shared
    /// driver harness attaches to the effect buffers.
    fn drive(&mut self, node: usize, f: impl FnOnce(&mut Driver, &mut NodeSink<'_>)) {
        let NodeSlot {
            driver,
            paused_until,
            outbox,
            emit_seq,
            ..
        } = &mut self.slots[node];
        let mut sink = NodeSink {
            node,
            now: self.now,
            paused: paused_until.is_some(),
            topo: self.topo,
            outbox,
            seq: emit_seq,
            emissions: &mut self.emissions,
            records: &mut self.records,
        };
        f(driver, &mut sink)
    }

    /// [`Cluster::drive`], then an immediate commit — the path for
    /// build-time boots and injected actions, which happen between
    /// windows.
    fn drive_now(&mut self, node: usize, f: impl FnOnce(&mut Driver, &mut NodeSink<'_>)) {
        self.drive(node, f);
        self.commit();
    }

    /// Arms a wake event at the node's next timer deadline unless an
    /// earlier one is already queued.
    fn ensure_wake(&mut self, node: usize) {
        let now = self.now;
        let slot = &mut self.slots[node];
        if slot.crashed {
            return;
        }
        let Some(wake) = slot.driver.next_wake() else {
            return;
        };
        let wake = wake.max(now);
        match slot.wake_marker {
            Some(existing) if existing <= wake => {}
            _ => {
                slot.wake_marker = Some(wake);
                self.queue.push(wake, SimEvent::Wake { node });
            }
        }
    }

    /// Sorts the buffered effects into the canonical `(time, sender,
    /// per-sender seq)` order and applies them: telemetry counters,
    /// network verdicts (the only RNG draws in the delivery path) and
    /// arrival events, then trace appends in `(time, reporter, seq)`
    /// order.
    fn commit(&mut self) {
        let Cluster {
            queue,
            emissions,
            records,
            network,
            addr_to_idx,
            telemetry,
            trace,
            ..
        } = self;
        emissions.sort_unstable_by_key(|e| (e.at, e.from, e.seq));
        records.sort_unstable_by_key(|r| (r.at, r.reporter, r.seq));
        for em in emissions.drain(..) {
            let from_addr = Cluster::addr_for(em.from);
            match em.kind {
                EmitKind::Packet { to, payload } => {
                    telemetry.record_datagram(em.from, payload.len());
                    let Some(&to_idx) = addr_to_idx.get(&to) else {
                        continue; // address outside the simulation
                    };
                    if let Delivery::Deliver(delay) = network.datagram(em.from, to_idx) {
                        queue.push(
                            em.at + delay,
                            SimEvent::Datagram {
                                to: to_idx,
                                from: from_addr,
                                payload,
                            },
                        );
                    }
                }
                EmitKind::Stream { to, msg, len } => {
                    telemetry.record_stream(em.from, len);
                    let Some(&to_idx) = addr_to_idx.get(&to) else {
                        continue;
                    };
                    if let Delivery::Deliver(delay) = network.stream(em.from, to_idx) {
                        queue.push(
                            em.at + delay,
                            SimEvent::Stream {
                                to: to_idx,
                                from: from_addr,
                                msg,
                            },
                        );
                    }
                }
                EmitKind::PhantomPacket {
                    phantom,
                    len,
                    replies,
                } => {
                    telemetry.record_datagram(em.from, len);
                    // Outbound leg to the phantom; each canned reply then
                    // takes its own return leg. Phantom sends are not
                    // telemetered — telemetry tracks real nodes only.
                    if let Delivery::Deliver(out) = network.datagram(em.from, phantom) {
                        let phantom_addr = Cluster::addr_for(phantom);
                        for (reply_to, payload) in replies {
                            let Some(&to_idx) = addr_to_idx.get(&reply_to) else {
                                continue;
                            };
                            if let Delivery::Deliver(back) = network.datagram(phantom, to_idx) {
                                queue.push(
                                    em.at + out + back,
                                    SimEvent::Datagram {
                                        to: to_idx,
                                        from: phantom_addr,
                                        payload,
                                    },
                                );
                            }
                        }
                    }
                }
                EmitKind::PhantomStream { len } => {
                    // Counted like any send, then dropped: phantoms have no
                    // stream endpoint, so anti-entropy with them is a no-op.
                    telemetry.record_stream(em.from, len);
                }
            }
        }
        for r in records.drain(..) {
            trace.record(r.at, r.reporter, r.event);
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("n", &self.topo.real)
            .field("phantoms", &(self.topo.total - self.topo.real))
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .field("trace_len", &self.trace.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifeguard_core::event::Event;

    #[test]
    fn five_node_cluster_converges() {
        let mut c = ClusterBuilder::new(5).seed(1).build();
        c.run_for(SimDuration::from_secs(15));
        assert!(c.converged(), "cluster failed to converge in 15 s");
        for i in 0..5 {
            assert_eq!(c.node(i).num_alive(), 5);
        }
    }

    #[test]
    fn crashed_node_is_detected_and_disseminated() {
        let mut c = ClusterBuilder::new(8).seed(2).build();
        c.run_for(SimDuration::from_secs(15));
        assert!(c.converged());
        c.apply(SimAction::Crash { node: 7 });
        c.run_for(SimDuration::from_secs(40));
        let detect = c.trace().first_failure_detection("node-7");
        assert!(detect.is_some(), "crash never detected");
        // Everyone else eventually declares it failed.
        let healthy: Vec<usize> = (0..7).collect();
        assert!(c.trace().full_dissemination("node-7", &healthy).is_some());
    }

    #[test]
    fn short_pause_does_not_kill_a_node_with_lifeguard() {
        let mut c = ClusterBuilder::new(8)
            .seed(3)
            .config(Config::lan().lifeguard())
            .build();
        c.run_for(SimDuration::from_secs(15));
        c.apply(SimAction::Pause {
            node: 3,
            duration: Duration::from_millis(1500),
        });
        c.run_for(SimDuration::from_secs(30));
        // A 1.5 s pause may raise suspicions but must never produce a
        // failure declaration about the paused (healthy) node.
        assert_eq!(c.trace().first_failure_detection("node-3"), None);
        assert!(c.nodes_seeing_alive("node-3").len() == 8);
    }

    #[test]
    fn leave_is_not_a_failure() {
        let mut c = ClusterBuilder::new(5).seed(4).build();
        c.run_for(SimDuration::from_secs(15));
        c.apply(SimAction::Leave { node: 4 });
        c.run_for(SimDuration::from_secs(20));
        assert_eq!(c.trace().first_failure_detection("node-4"), None);
        let leaves = c
            .trace()
            .count(|e| matches!(&e.event, Event::MemberLeft { name } if name.as_str() == "node-4"));
        assert!(leaves >= 4, "peers must observe the graceful leave");
    }

    #[test]
    fn determinism_same_seed_same_trace_and_telemetry() {
        let run = |seed: u64| {
            let mut c = ClusterBuilder::new(6).seed(seed).build();
            c.run_for(SimDuration::from_secs(10));
            c.apply(SimAction::Crash { node: 5 });
            c.run_for(SimDuration::from_secs(30));
            let events: Vec<String> = c
                .trace()
                .events()
                .iter()
                .map(|e| format!("{:?}/{}/{:?}", e.at, e.reporter, e.event))
                .collect();
            (events, c.telemetry().total())
        };
        let (ea, ta) = run(77);
        let (eb, tb) = run(77);
        assert_eq!(ea, eb);
        assert_eq!(ta, tb);
        let (ec, _) = run(78);
        assert_ne!(ea, ec, "different seeds should differ");
    }

    #[test]
    fn partition_heals_via_push_pull() {
        let mut c = ClusterBuilder::new(4).seed(5).build();
        c.run_for(SimDuration::from_secs(15));
        // Fully isolate node 3.
        for i in 0..3 {
            c.apply(SimAction::Partition { a: i, b: 3 });
        }
        c.run_for(SimDuration::from_secs(40));
        // The majority side declared node-3 failed.
        assert!(c.trace().first_failure_detection("node-3").is_some());
        c.apply(SimAction::HealPartitions);
        // After healing, Serf-style reconnect push-pulls re-merge the
        // sides: node-3 refutes and everyone sees it alive again.
        let mut recovered = false;
        for _ in 0..30 {
            c.run_for(SimDuration::from_secs(5));
            if c.nodes_seeing_alive("node-3").len() == 4 && c.converged() {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "partition did not heal within 150 s");
    }

    #[test]
    fn telemetry_counts_grow_with_time() {
        let mut c = ClusterBuilder::new(4).seed(6).build();
        c.run_for(SimDuration::from_secs(5));
        let early = c.telemetry().total();
        c.run_for(SimDuration::from_secs(5));
        let late = c.telemetry().total();
        assert!(late.messages() > early.messages());
        assert!(late.bytes() > early.bytes());
    }

    #[test]
    fn anomaly_schedule_pauses_and_resumes() {
        let mut c = ClusterBuilder::new(4)
            .seed(7)
            .anomaly(
                2,
                AnomalySpec::Threshold {
                    start: SimTime::from_secs(10),
                    duration: Duration::from_secs(2),
                },
            )
            .build();
        c.run_until(SimTime::from_secs(11));
        assert!(c.is_paused(2));
        c.run_until(SimTime::from_secs(13));
        assert!(!c.is_paused(2));
    }

    #[test]
    fn manual_pause_inside_anomaly_keeps_the_later_end() {
        let mut c = ClusterBuilder::new(4)
            .seed(7)
            .anomaly(
                2,
                AnomalySpec::Threshold {
                    start: SimTime::from_secs(10),
                    duration: Duration::from_secs(10),
                },
            )
            .build();
        c.run_until(SimTime::from_secs(12));
        c.apply(SimAction::Pause {
            node: 2,
            duration: Duration::from_secs(1),
        });
        c.run_until(SimTime::from_secs(15));
        assert!(c.is_paused(2), "the 1 s pause ended the 10 s anomaly early");
        c.run_until(SimTime::from_secs(21));
        assert!(!c.is_paused(2));
    }

    #[test]
    fn anomaly_inside_manual_pause_keeps_the_later_end() {
        let mut c = ClusterBuilder::new(4)
            .seed(7)
            .anomaly(
                2,
                AnomalySpec::Threshold {
                    start: SimTime::from_secs(10),
                    duration: Duration::from_secs(1),
                },
            )
            .build();
        c.run_until(SimTime::from_secs(9));
        c.apply(SimAction::Pause {
            node: 2,
            duration: Duration::from_secs(10),
        });
        c.run_until(SimTime::from_secs(15));
        assert!(c.is_paused(2), "the 1 s anomaly ended the 10 s pause early");
        c.run_until(SimTime::from_secs(20));
        assert!(!c.is_paused(2));
    }

    #[test]
    fn phantom_members_are_seen_alive_and_stay_alive() {
        // 4 real nodes + 60 phantoms: every real node should hold the
        // full roster as alive and keep it that way (phantoms always
        // ack probes), without ever declaring a phantom failed.
        let mut c = ClusterBuilder::new(4)
            .seed(11)
            .full_mesh(true)
            .phantom_members(60)
            .build();
        c.run_for(SimDuration::from_secs(30));
        for i in 0..4 {
            assert_eq!(c.node(i).num_alive(), 64, "node {i} lost roster members");
        }
        let phantom_failures = c.trace().count(|e| {
            matches!(&e.event, Event::MemberFailed { name, .. }
                if name.as_str().strip_prefix("node-")
                    .and_then(|s| s.parse::<usize>().ok())
                    .is_some_and(|idx| idx >= 4))
        });
        assert_eq!(phantom_failures, 0, "phantoms must never be declared failed");
    }
}
