//! The Driver-replay harness behind the traced run of the sim workloads.
//!
//! `lifeguard_sim::Cluster` is opaque from outside, so the traced run
//! re-creates the workload here: the same number of
//! `lifeguard_core::driver::Driver`s with the same names, addresses,
//! config, seeds, roster, churn and `Input::IoBlocked` pauses, driven by
//! this harness's own event queue with fixed per-hop latencies. Every
//! call into a layer is wrapped in a span: `proto::compound` decode,
//! `Driver::handle` by input kind, `Driver::tick`, and the harness's own
//! queue operations, all under one root span per 100 ms slice.
//!
//! The replay is not byte-identical to the sim (latencies are fixed and
//! the delivery order differs); it is checked to carry the same message
//! load instead.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::driver::{Driver, OwnedOutput, Sink};
use lifeguard_core::event::Event;
use lifeguard_core::node::{Input, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{codec, compound, Message, NodeAddr};
use lifeguard_sim::{Cluster, NetworkConfig};

use crate::span::Tracer;
use crate::util::Rng;

/// One scripted action, applied at the start of a slice.
#[derive(Clone, Debug)]
pub enum Action {
    Meta { node: usize, meta: Bytes },
    Pause { node: usize, dur: Duration },
}

/// Everything both the sim run and the replay are built from.
#[derive(Clone, Debug)]
pub struct Plan {
    pub n: usize,
    pub config: Config,
    pub network: NetworkConfig,
    pub seed: u64,
    /// Bootstrap every table directly (`full_mesh`) instead of joining
    /// through `node-0`.
    pub full_mesh: bool,
    /// Sim time before the first measured slice (joins settle here).
    pub warmup: Duration,
    /// Measured 100 ms slices.
    pub slices: usize,
    /// Actions per measured slice (index = slice).
    // bounded: one entry per measured slice
    pub actions: Vec<Vec<Action>>,
    /// Fixed pause windows `(node, start, end)` of the slow members.
    // bounded: expanded from a finite anomaly schedule
    pub anomalies: Vec<(usize, Time, Time)>,
}

pub const SLICE: Duration = Duration::from_millis(100);

impl Plan {
    /// Sim time at which measured slice `k` starts.
    pub fn slice_start(&self, k: usize) -> Time {
        Time::ZERO + self.warmup + SLICE * k as u32
    }

    /// The per-node seed the simulator derives from the master seed.
    pub fn node_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64 + 1)
    }
}

enum Kind {
    Wake {
        node: usize,
    },
    Datagram {
        to: usize,
        from: NodeAddr,
        payload: Bytes,
    },
    Stream {
        to: usize,
        from: NodeAddr,
        msg: Box<Message>,
    },
    PauseStart {
        node: usize,
        until: Time,
    },
    PauseEnd {
        node: usize,
    },
}

struct Ev {
    at: Time,
    seq: u64,
    kind: Kind,
}

impl PartialEq for Ev {
    fn eq(&self, o: &Ev) -> bool {
        (self.at, self.seq) == (o.at, o.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, o: &Ev) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Ev {
    // Reversed: `BinaryHeap` is a max-heap, the queue pops earliest first.
    fn cmp(&self, o: &Ev) -> Ordering {
        (o.at, o.seq).cmp(&(self.at, self.seq))
    }
}

struct Slot {
    driver: Driver,
    paused_until: Option<Time>,
    wake_marker: Option<Time>,
    // bounded: drained at pause end; one pause's worth of held sends
    outbox: Vec<OwnedOutput>,
}

enum Emit {
    Packet(NodeAddr, Bytes),
    Stream(NodeAddr, Message),
}

/// Collects one driver call's effects; a paused node's sends are held.
struct ReplaySink<'a> {
    paused: bool,
    outbox: &'a mut Vec<OwnedOutput>,
    out: &'a mut Vec<Emit>,
    failures: &'a mut u64,
    outputs: &'a mut u64,
}

impl Sink for ReplaySink<'_> {
    fn transmit(&mut self, to: NodeAddr, payload: &[u8]) {
        *self.outputs += 1;
        let payload = Bytes::copy_from_slice(payload);
        if self.paused {
            self.outbox.push(OwnedOutput::Packet { to, payload });
        } else {
            self.out.push(Emit::Packet(to, payload));
        }
    }

    fn stream(&mut self, to: NodeAddr, msg: Message) {
        *self.outputs += 1;
        if self.paused {
            self.outbox.push(OwnedOutput::Stream { to, msg });
        } else {
            self.out.push(Emit::Stream(to, msg));
        }
    }

    fn event(&mut self, event: Event) {
        *self.outputs += 1;
        if event.is_failure() {
            *self.failures += 1;
        }
    }
}

/// Counters the replay keeps beside its spans.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Messages (datagrams + stream messages) sent during measured slices.
    pub msgs: u64,
    pub bytes: u64,
    pub driver_calls: u64,
    pub outputs: u64,
    pub failures: u64,
    pub datagrams_decoded: u64,
    pub decoded_msgs: u64,
    pub decoded_bytes: u64,
    /// Time in `SwimNode::bootstrap_peers`, and entries it inserted.
    pub bootstrap: Duration,
    pub bootstrap_entries: u64,
}

pub struct Replay {
    plan: Plan,
    slots: Vec<Slot>,
    addr_to_idx: HashMap<NodeAddr, usize>,
    heap: BinaryHeap<Ev>,
    seq: u64,
    now: Time,
    rng: Rng,
    datagram_delay: Duration,
    stream_delay: Duration,
    // bounded: one driver call's effects, drained after each call
    out: Vec<Emit>,
    measuring: bool,
    pub counts: Counts,
    /// Wall time of each measured slice, ns.
    // bounded: one entry per measured slice
    pub slice_ns: Vec<u64>,
}

impl Replay {
    /// Boots every node at time zero exactly as the simulator does and
    /// runs the warm-up untimed.
    pub fn build(plan: &Plan) -> Replay {
        let net = &plan.network;
        let mut r = Replay {
            plan: plan.clone(),
            slots: Vec::with_capacity(plan.n),
            addr_to_idx: (0..plan.n).map(|i| (Cluster::addr_for(i), i)).collect(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
            rng: Rng::new(plan.seed ^ 0x4E57),
            // Fixed hop latency: the network model's mean.
            datagram_delay: net.datagram_latency + net.datagram_jitter / 2,
            stream_delay: net.stream_latency + net.stream_jitter / 2,
            out: Vec::new(),
            measuring: false,
            counts: Counts::default(),
            slice_ns: Vec::with_capacity(plan.slices),
        };
        for i in 0..plan.n {
            let node = SwimNode::new(
                Cluster::name_of(i),
                Cluster::addr_for(i),
                plan.config.clone(),
                plan.node_seed(i),
            );
            r.slots.push(Slot {
                driver: Driver::new(node),
                paused_until: None,
                wake_marker: None,
                outbox: Vec::new(),
            });
        }
        let roster: Vec<_> = if plan.full_mesh {
            (0..plan.n)
                .map(|i| (Cluster::name_of(i), Cluster::addr_for(i)))
                .collect()
        } else {
            Vec::new()
        };
        let mut scratch = Tracer::new(false);
        for i in 0..plan.n {
            r.call(i, &mut scratch, "driver.start", 0, |d, s| {
                d.start(Time::ZERO, s)
            });
            if plan.full_mesh {
                let t = Instant::now();
                r.slots[i]
                    .driver
                    .node_mut()
                    .bootstrap_peers(roster.iter().cloned(), Time::ZERO);
                r.counts.bootstrap += t.elapsed();
                r.counts.bootstrap_entries += roster.len() as u64 - 1;
            } else if i > 0 {
                let seeds = vec![Cluster::addr_for(0)];
                r.call(i, &mut scratch, "driver.join", 0, |d, s| {
                    d.join(seeds, Time::ZERO, s)
                });
            }
            r.after_call(i, &mut scratch, 0);
        }
        for &(node, start, end) in &plan.anomalies {
            r.push(start, Kind::PauseStart { node, until: end });
            r.push(end, Kind::PauseEnd { node });
        }
        r.run_until(plan.slice_start(0), &mut scratch, 0);
        r.counts = Counts {
            bootstrap: r.counts.bootstrap,
            bootstrap_entries: r.counts.bootstrap_entries,
            ..Counts::default()
        };
        r
    }

    /// Runs every measured slice, timing each; spans go to `tracer`.
    pub fn run(&mut self, tracer: &mut Tracer) {
        self.measuring = true;
        for k in 0..self.plan.slices {
            let t0 = Instant::now();
            let root = tracer.open("slice", k as u64);
            let actions = std::mem::take(&mut self.plan.actions[k]);
            for a in actions {
                self.apply(a, tracer, k as u64);
            }
            self.run_until(self.plan.slice_start(k + 1), tracer, k as u64);
            tracer.close(root);
            self.slice_ns.push(t0.elapsed().as_nanos() as u64);
        }
        self.measuring = false;
    }

    fn apply(&mut self, action: Action, tracer: &mut Tracer, id: u64) {
        let now = self.now;
        match action {
            Action::Meta { node, meta } => {
                self.call(node, tracer, "driver.meta", id, |d, s| {
                    let _ = d.handle(Input::UpdateMeta { meta }, now, s);
                });
                self.after_call(node, tracer, id);
            }
            Action::Pause { node, dur } => {
                let until = now + dur;
                self.slots[node].paused_until = Some(until);
                self.call(node, tracer, "driver.io_blocked", id, |d, s| {
                    let _ = d.handle(Input::IoBlocked { blocked: true }, now, s);
                });
                self.push_traced(until, Kind::PauseEnd { node }, tracer, id);
            }
        }
    }

    /// Delivers every event due by `t`. Every piece of work sits in a
    /// leaf span directly under the slice (`queue.pop`, `queue.push`,
    /// `proto.decode`, `driver.*`), so the slice's self time is exactly
    /// what no span measures: the harness's glue and the tracer itself.
    fn run_until(&mut self, t: Time, tracer: &mut Tracer, id: u64) {
        loop {
            let pop = tracer.open("queue.pop", id);
            let ev = match self.heap.peek() {
                Some(e) if e.at <= t => self.heap.pop(),
                _ => None,
            };
            tracer.close(pop);
            let Some(ev) = ev else { break };
            self.now = ev.at;
            self.dispatch(ev.kind, tracer, id);
        }
        self.now = t;
    }

    fn dispatch(&mut self, kind: Kind, tracer: &mut Tracer, id: u64) {
        let now = self.now;
        match kind {
            Kind::Wake { node } => {
                if self.slots[node].wake_marker != Some(now) {
                    return; // stale: a fresher wake is queued
                }
                self.slots[node].wake_marker = None;
                self.call(node, tracer, "driver.tick", id, |d, s| d.tick(now, s));
                self.after_call(node, tracer, id);
            }
            Kind::Datagram { to, from, payload } => {
                if let Some(until) = self.slots[to].paused_until {
                    self.push_traced(until, Kind::Datagram { to, from, payload }, tracer, id);
                    return;
                }
                if tracer.enabled() {
                    let dec = tracer.open("proto.decode", id);
                    let parts = compound::decode_packet_shared(&payload).map_or(0, |m| m.len());
                    tracer.close(dec);
                    self.counts.datagrams_decoded += 1;
                    self.counts.decoded_msgs += parts as u64;
                    self.counts.decoded_bytes += payload.len() as u64;
                }
                self.call(to, tracer, "driver.datagram", id, |d, s| {
                    let _ = d.handle(Input::Datagram { from, payload }, now, s);
                });
                self.after_call(to, tracer, id);
            }
            Kind::Stream { to, from, msg } => {
                if let Some(until) = self.slots[to].paused_until {
                    self.push_traced(until, Kind::Stream { to, from, msg }, tracer, id);
                    return;
                }
                self.call(to, tracer, "driver.stream", id, |d, s| {
                    let _ = d.handle(Input::Stream { from, msg: *msg }, now, s);
                });
                self.after_call(to, tracer, id);
            }
            Kind::PauseStart { node, until } => {
                self.slots[node].paused_until = Some(until);
                self.call(node, tracer, "driver.io_blocked", id, |d, s| {
                    let _ = d.handle(Input::IoBlocked { blocked: true }, now, s);
                });
            }
            Kind::PauseEnd { node } => {
                if self.slots[node].paused_until.is_none_or(|u| u > now) {
                    return; // an overlapping pause extended the window
                }
                self.slots[node].paused_until = None;
                let h = tracer.open("queue.push", id);
                let held = std::mem::take(&mut self.slots[node].outbox);
                for o in held {
                    match o {
                        OwnedOutput::Packet { to, payload } => {
                            self.out.push(Emit::Packet(to, payload))
                        }
                        OwnedOutput::Stream { to, msg } => self.out.push(Emit::Stream(to, msg)),
                        OwnedOutput::Event(_) => {}
                    }
                }
                tracer.close(h);
                self.call(node, tracer, "driver.io_blocked", id, |d, s| {
                    let _ = d.handle(Input::IoBlocked { blocked: false }, now, s);
                    d.tick(now, s);
                });
                self.after_call(node, tracer, id);
            }
        }
    }

    /// One driver call inside a span named `span`; its sends wait in
    /// `self.out` for [`Replay::after_call`].
    fn call(
        &mut self,
        node: usize,
        tracer: &mut Tracer,
        span: &'static str,
        id: u64,
        f: impl FnOnce(&mut Driver, &mut ReplaySink<'_>),
    ) {
        let h = tracer.open(span, id);
        let slot = &mut self.slots[node];
        let mut sink = ReplaySink {
            paused: slot.paused_until.is_some(),
            outbox: &mut slot.outbox,
            out: &mut self.out,
            failures: &mut self.counts.failures,
            outputs: &mut self.counts.outputs,
        };
        f(&mut slot.driver, &mut sink);
        tracer.close(h);
        self.counts.driver_calls += 1;
    }

    /// Queues the last call's sends and re-arms the node's wake, inside
    /// a `queue.push` span.
    fn after_call(&mut self, node: usize, tracer: &mut Tracer, id: u64) {
        let h = tracer.open("queue.push", id);
        self.flush(node);
        self.ensure_wake(node);
        tracer.close(h);
    }

    /// Hands node `from`'s buffered sends to the queue: each datagram
    /// survives the model's loss draw and arrives one fixed hop later.
    fn flush(&mut self, from: usize) {
        let now = self.now;
        let from_addr = Cluster::addr_for(from);
        let mut out = std::mem::take(&mut self.out);
        for e in out.drain(..) {
            let (to, len) = match &e {
                Emit::Packet(to, p) => (*to, p.len()),
                Emit::Stream(to, m) => (*to, codec::encoded_len(m)),
            };
            if self.measuring {
                self.counts.msgs += 1;
                self.counts.bytes += len as u64;
            }
            let Some(&to) = self.addr_to_idx.get(&to) else {
                continue;
            };
            match e {
                Emit::Packet(_, payload) => {
                    let loss = self.plan.network.datagram_loss;
                    if loss > 0.0
                        && ((self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < loss
                    {
                        continue;
                    }
                    let kind = Kind::Datagram {
                        to,
                        from: from_addr,
                        payload,
                    };
                    self.push(now + self.datagram_delay, kind);
                }
                Emit::Stream(_, msg) => {
                    let kind = Kind::Stream {
                        to,
                        from: from_addr,
                        msg: Box::new(msg),
                    };
                    self.push(now + self.stream_delay, kind);
                }
            }
        }
        self.out = out;
    }

    fn ensure_wake(&mut self, node: usize) {
        let Some(wake) = self.slots[node].driver.next_wake() else {
            return;
        };
        let wake = wake.max(self.now);
        if self.slots[node].wake_marker.is_none_or(|m| m > wake) {
            self.slots[node].wake_marker = Some(wake);
            self.push(wake, Kind::Wake { node });
        }
    }

    /// [`Replay::push`] inside a `queue.push` span.
    fn push_traced(&mut self, at: Time, kind: Kind, tracer: &mut Tracer, id: u64) {
        let h = tracer.open("queue.push", id);
        self.push(at, kind);
        tracer.close(h);
    }

    fn push(&mut self, at: Time, kind: Kind) {
        self.seq += 1;
        self.heap.push(Ev {
            at,
            seq: self.seq,
            kind,
        });
    }

    /// Sends per node per sim second over the measured slices.
    pub fn msgs_per_node_s(&self) -> f64 {
        self.counts.msgs as f64
            / (self.plan.n as f64 * self.plan.slices as f64 * SLICE.as_secs_f64())
    }

    pub fn failures(&self) -> u64 {
        self.counts.failures
    }
}
