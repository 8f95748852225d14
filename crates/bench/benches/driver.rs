//! Benchmarks of the sans-I/O driving surface (`handle_input` /
//! `poll_output`) against the seed's `Vec<Output>` collection shape
//! (kept in [`lifeguard_bench::naive::collect_outputs_vec`]), plus
//! allocation-count proofs that draining the output queue performs
//! **zero allocations per poll** in steady state, and that a warm tick
//! whose only outputs are packets performs **zero allocations** too.
//!
//! The workload is a 1000-member node in steady state: every cycle one
//! gossip message arrives (keeping the broadcast queue non-empty),
//! simulated time advances one gossip interval, the due timers fire
//! (gossip fan-out → up to `gossip_nodes` packets, periodic probe
//! rounds), and the queued outputs are drained. The poll path hands
//! each packet out as a borrow of the node's scratch buffer; the
//! baseline materialises the seed's fresh `Vec` + owned `Bytes` per
//! packet.
//!
//! Results are recorded in `docs/PERFORMANCE.md` §5.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use bytes::Bytes;
use lifeguard_bench::naive::collect_outputs_vec;
use lifeguard_core::config::Config;
use lifeguard_core::node::{Input, Output, SwimNode};
use lifeguard_core::time::Time;
use lifeguard_proto::{codec, Alive, Incarnation, Message, NodeAddr, NodeName};

/// A pass-through allocator that counts allocations while the flag is
/// raised — the instrument behind the zero-allocation assertion.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus atomic counter bumps —
// the layout/pointer contracts `GlobalAlloc` requires are delegated
// unchanged to an allocator that upholds them.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `layout` is forwarded verbatim from our caller, who
        // upholds GlobalAlloc's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as in `alloc` — arguments forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator (a System pointer)
        // and `layout`/`new_size` are forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator with `layout`,
        // i.e. by `System`, which is what frees it.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

const MEMBERS: usize = 1000;
const GOSSIP_STEP: Duration = Duration::from_millis(200);

fn steady_state_node() -> SwimNode {
    let mut node = SwimNode::new(
        "local".into(),
        NodeAddr::new([10, 0, 0, 1], 7946),
        Config::lan().lifeguard(),
        7,
    );
    node.start(Time::ZERO);
    let peers = (0..MEMBERS as u32).map(|i| {
        (
            NodeName::from(format!("peer-{i}").as_str()),
            NodeAddr::new([10, 1, (i >> 8) as u8, (i & 0xff) as u8], 7946),
        )
    });
    node.bootstrap_peers(peers, Time::ZERO);
    node
}

/// One pre-encoded gossip arrival per incarnation, so the broadcast
/// queue never runs dry and every gossip tick emits packets.
fn gossip_payload(incarnation: u64) -> Bytes {
    codec::encode_message(&Message::Alive(Alive {
        incarnation: Incarnation(incarnation),
        node: "peer-0".into(),
        addr: NodeAddr::new([10, 1, 0, 0], 7946),
        meta: Bytes::new(),
    }))
}

/// Delivers the next gossip arrival.
fn deliver_gossip(node: &mut SwimNode, now: Time, incarnation: &mut u64) {
    *incarnation += 1;
    node.handle_input(
        Input::Datagram {
            from: NodeAddr::new([10, 1, 0, 0], 7946),
            payload: gossip_payload(*incarnation),
        },
        now,
    )
    .expect("valid gossip payload");
}

/// Advances one steady-state cycle: gossip arrival + due timers. The
/// outputs are left queued for the caller to drain.
fn advance_cycle(node: &mut SwimNode, now: &mut Time, incarnation: &mut u64) {
    deliver_gossip(node, *now, incarnation);
    *now += GOSSIP_STEP;
    node.handle_input(Input::Tick, *now).expect("tick");
}

/// Zero-copy drain: every queued output is visited, packet payloads
/// stay borrows of the node's scratch buffer.
fn drain_poll(node: &mut SwimNode) -> usize {
    let mut packets = 0;
    while let Some(output) = node.poll_output() {
        if let Output::Packet { payload, .. } = &output {
            packets += 1;
            black_box(payload.len());
        }
        black_box(&output);
    }
    packets
}

/// Proof obligation for the acceptance criteria: after warm-up, a full
/// output drain performs zero allocations, while the seed baseline
/// allocates per packet (fresh `Vec` growth + one owned `Bytes` each).
///
/// The metrics plane is always on — every cycle records into the
/// core's counters and fixed-size histograms — so this assertion also
/// proves that instrumentation costs zero allocations per poll.
fn assert_poll_is_allocation_free() {
    let mut node = steady_state_node();
    let mut now = Time::ZERO;
    let mut inc = 10;
    // Warm-up: let the scratch arena, queue and builder reach their
    // high-water capacities.
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        drain_poll(&mut node);
    }
    let before = node.metrics();
    let mut packets = 0usize;
    let mut poll_allocs = 0u64;
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        poll_allocs += count_allocs(|| {
            packets += drain_poll(&mut node);
        });
    }
    assert!(
        packets > 0,
        "steady-state cycles must actually emit packets"
    );
    assert_eq!(
        poll_allocs, 0,
        "poll_output drain must be allocation-free in steady state"
    );
    // The counted region was not a dead zone for observability: the
    // metrics kept moving while allocations stayed at zero. (Unacked
    // probes drive probes_sent/failed and push the LHM up; the gossip
    // arrivals keep the broadcast queue hot.)
    let after = node.metrics();
    assert!(
        after.probes_sent > before.probes_sent,
        "steady-state cycles must keep probing"
    );
    assert!(after.lhm_peak > 0, "unacked probes must move the LHM");
    assert!(
        after.broadcast_queue_peak > 0,
        "gossip arrivals must register queue depth"
    );

    // The seed-shaped baseline on the same workload allocates at least
    // one Bytes per packet plus the Vec itself.
    let mut baseline_allocs = 0u64;
    let mut baseline_packets = 0usize;
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        baseline_allocs += count_allocs(|| {
            let out = collect_outputs_vec(&mut node);
            baseline_packets += out.len();
            black_box(&out);
        });
    }
    assert!(
        baseline_allocs as usize >= baseline_packets,
        "baseline must allocate per collected output"
    );
    println!(
        "driver/alloc-proof: poll drain 0 allocs over {packets} packets; \
         vec baseline {baseline_allocs} allocs over {baseline_packets} outputs"
    );
}

/// Proof that a warm tick whose only outputs are packets — gossip
/// fan-out and probes: sampling the targets, filling each packet from
/// the broadcast queue, encoding it — performs zero allocations. The
/// sampler's position map and the queue's requeue buffer are reusable
/// scratch, like the packet arena. Ticks that also change a member's
/// state (an event, a new broadcast) or start anti-entropy (a stream)
/// legitimately allocate and are not counted.
fn assert_tick_is_allocation_free() {
    let mut node = steady_state_node();
    let mut now = Time::ZERO;
    let mut inc = 10;
    for _ in 0..200 {
        advance_cycle(&mut node, &mut now, &mut inc);
        drain_poll(&mut node);
    }
    let mut packet_only = 0usize;
    let mut tick_allocs = 0u64;
    for _ in 0..200 {
        deliver_gossip(&mut node, now, &mut inc);
        drain_poll(&mut node);
        now += GOSSIP_STEP;
        let allocs = count_allocs(|| {
            node.handle_input(Input::Tick, now).expect("tick");
        });
        let (mut packets, mut others) = (0, 0);
        while let Some(output) = node.poll_output() {
            match output {
                Output::Packet { .. } => packets += 1,
                _ => others += 1,
            }
        }
        if packets > 0 && others == 0 {
            packet_only += 1;
            tick_allocs += allocs;
        }
    }
    assert!(
        packet_only >= 150,
        "most steady-state ticks must emit packets and nothing else ({packet_only} of 200)"
    );
    assert_eq!(
        tick_allocs, 0,
        "a warm packet-emitting tick must be allocation-free"
    );
    println!("driver/alloc-proof: 0 allocs over {packet_only} packet-emitting ticks");
}

fn bench_driver(c: &mut Criterion) {
    assert_poll_is_allocation_free();
    assert_tick_is_allocation_free();

    // Full steady-state cycle (input + tick + drain), allocation-free
    // poll path.
    {
        let mut node = steady_state_node();
        let mut now = Time::ZERO;
        let mut inc = 10;
        c.bench_function("driver/poll_output", |b| {
            b.iter(|| {
                advance_cycle(&mut node, &mut now, &mut inc);
                drain_poll(&mut node)
            })
        });
    }

    // The same cycle drained through the seed's Vec<Output> shape.
    {
        let mut node = steady_state_node();
        let mut now = Time::ZERO;
        let mut inc = 10;
        c.bench_function("driver/vec_baseline", |b| {
            b.iter(|| {
                advance_cycle(&mut node, &mut now, &mut inc);
                collect_outputs_vec(&mut node).len()
            })
        });
    }
}

criterion_group!(benches, bench_driver);
criterion_main!(benches);
