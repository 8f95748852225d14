//! `net_loopback`: one real `Runtime::Reactor` agent on loopback UDP.
//!
//! 256 emulated members are injected with one push-pull reply; their
//! addresses all map to the client's socket, and the client acks every
//! `Ping` and `IndirectPing` the agent sends them. The client (this
//! thread) drives an open loop of direct pings at a fixed rate, in
//! bursts, and times each from its due time. Two threads in all: the
//! client and the agent's reactor. Push-pull, reconnect and the stream
//! fallback probe are off, so the anti-entropy layer is bypassed.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::event::Event;
use lifeguard_net::agent::{Agent, AgentConfig, Runtime};
use lifeguard_net::transport;
use lifeguard_proto::{
    codec, compound, Ack, Incarnation, MemberState, Message, NodeAddr, Ping, PushNodeState,
    PushPull, SeqNo,
};

use crate::alloc;
use crate::json::Json;
use crate::openloop::{Accounting, OpenLoop};
use crate::report::Report;
use crate::sims::finish_trace;
use crate::span::{Span, Tracer, NONE};
use crate::util::{process_cpu_except, thread_id, ThreadClock};
use lifeguard_metrics::percentile;

const MEMBERS: usize = 256;
/// Set-ups per run; `setup_s` is their median. A set-up takes about a
/// millisecond but single ones range from 0.5 to 40 ms (thread start, a
/// TCP connect and cross-thread wakeups), so many repeats steady the
/// median at little cost.
const SETUP_REPS: usize = 201;
/// Open-loop ping rate, per second.
const RATE: u64 = 2000;
/// Pings fall due this many at a time (a burst every 16 ms at `RATE`).
/// One wakeup of the reactor then serves many pings, so the agent's CPU
/// time per message measures its own work more than the host's cost of
/// waking an idle core, which varies with what else the host runs.
const BURST: u64 = 32;
/// A ping not acked this long after its due time has failed.
const DEADLINE: Duration = Duration::from_millis(100);
/// Client-side API samples in traced runs.
const API_EVERY: Duration = Duration::from_millis(10);
const METRICS_EVERY: Duration = Duration::from_millis(100);
/// How far before a burst is due the client stops blocking in socket
/// reads (whose timeouts round up to the scheduler tick, 4 ms at 250 Hz)
/// and sleeps until the due time instead.
const NEAR_DUE: Duration = Duration::from_millis(10);

pub fn params(seconds: u64) -> Vec<(String, Json)> {
    vec![
        ("members".into(), Json::from(MEMBERS)),
        ("runtime".into(), Json::from("reactor")),
        (
            "config".into(),
            Json::from("lan+lifeguard, push-pull/reconnect/stream-fallback off"),
        ),
        ("ping_rate_per_s".into(), Json::from(RATE)),
        ("ping_burst".into(), Json::from(BURST)),
        ("pings".into(), Json::from(RATE * seconds.max(1))),
        (
            "deadline_ms".into(),
            Json::from(DEADLINE.as_millis() as u64),
        ),
        ("setup_reps".into(), Json::from(SETUP_REPS)),
    ]
}

pub fn config() -> Config {
    let mut cfg = Config::lan().lifeguard();
    cfg.push_pull_interval = None;
    cfg.reconnect_interval = None;
    cfg.stream_fallback_probe = false;
    cfg
}

struct Rig {
    agent: Agent,
    sock: UdpSocket,
    addr: NodeAddr,
    started: Instant,
    inject: Duration,
    inject_heap: usize,
}

/// Starts the agent, injects the members and waits until it sees them
/// all alive.
fn set_up(seed: u64) -> Result<Rig, String> {
    let started = Instant::now();
    let agent = Agent::start(
        AgentConfig::local("agent")
            .protocol(config())
            .seed(seed | 1)
            .runtime(Runtime::Reactor),
    )
    .map_err(|e| format!("agent start: {e}"))?;
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("client bind: {e}"))?;
    sock.set_nonblocking(true)
        .map_err(|e| format!("client nonblocking: {e}"))?;
    let addr = NodeAddr::from(sock.local_addr().map_err(|e| e.to_string())?);
    let states = (0..MEMBERS)
        .map(|i| PushNodeState {
            name: format!("m{i:03}").into(),
            addr,
            incarnation: Incarnation(1),
            state: MemberState::Alive,
            meta: Bytes::new(),
        })
        .collect();
    let msg = Message::PushPull(PushPull {
        join: false,
        reply: true,
        states,
    });
    let heap0 = alloc::live();
    let t = Instant::now();
    transport::send_stream(agent.addr(), addr, &msg).map_err(|e| format!("inject: {e}"))?;
    // Event-driven wait: one `MemberJoined` per injected member, so the
    // set-up ends when the last merge lands, not at a polling tick.
    let deadline = t + Duration::from_secs(10);
    let mut joined = 0;
    while joined < MEMBERS {
        let left = deadline.saturating_duration_since(Instant::now());
        match agent.events().recv_timeout(left) {
            Ok(ev) if matches!(ev.event, Event::MemberJoined { .. }) => joined += 1,
            Ok(_) => {}
            Err(_) => {
                return Err(format!(
                    "injection stalled at {joined} of {MEMBERS} members"
                ))
            }
        }
    }
    let inject = t.elapsed();
    if agent.num_alive() != MEMBERS + 1 {
        return Err(format!(
            "agent sees {} alive after injection",
            agent.num_alive()
        ));
    }
    let inject_heap = alloc::live().saturating_sub(heap0);
    Ok(Rig {
        agent,
        sock,
        addr,
        started,
        inject,
        inject_heap,
    })
}

/// What one measured window saw.
#[derive(Default)]
struct Window {
    acct: Accounting,
    pings: u64,
    wall: Duration,
    agent_cpu: Duration,
    client_cpu: Duration,
    io0: lifeguard_metrics::IoSnapshot,
    io1: lifeguard_metrics::IoSnapshot,
    api_ns: Vec<f64>,
    decoded: u64,
    decoded_msgs: u64,
    decoded_bytes: u64,
    decode_ns: u64,
    /// Per one-second sub-window of due times: ping latencies, µs.
    // bounded: one entry per second of the run
    sub_lat_us: Vec<Vec<f64>>,
    /// Agent CPU time and datagrams sent at each sub-window boundary.
    // bounded: one entry per second of the run
    sub_marks: Vec<(Duration, u64)>,
}

impl Window {
    /// Median over the sub-windows of a per-sub-window statistic, so a
    /// burst of contention from other tenants of the host moves a few
    /// sub-windows instead of the run's result.
    fn sub_median(&self, stat: impl Fn(usize) -> Option<f64>) -> f64 {
        let v: Vec<f64> = (0..self.sub_lat_us.len()).filter_map(stat).collect();
        percentile(&v, 50.0).unwrap_or(0.0)
    }

    /// Median over the sub-windows of their `pct` latency percentile, µs.
    fn sub_latency(&self, pct: f64) -> f64 {
        self.sub_median(|i| percentile(&self.sub_lat_us[i], pct))
    }

    /// Agent CPU µs per datagram it sent, per sub-window.
    fn sub_cpu_per_msg(&self) -> f64 {
        self.sub_median(|i| {
            let (&(c0, s0), &(c1, s1)) = (self.sub_marks.get(i)?, self.sub_marks.get(i + 1)?);
            (s1 > s0).then(|| (c1 - c0).as_secs_f64() * 1e6 / (s1 - s0) as f64)
        })
    }
}

/// Answers the agent's probes of the emulated members and collects the
/// acks of the client's own pings.
fn measure(
    rig: &Rig,
    seconds: f64,
    tracer: &mut Tracer,
    client_tid: Option<u64>,
) -> Result<Window, String> {
    let total = (RATE as f64 * seconds).round() as u64;
    let mut sched = OpenLoop::new(RATE, BURST, total);
    let subs = (seconds.ceil() as usize).max(1);
    let mut w = Window {
        pings: total,
        sub_lat_us: vec![Vec::new(); subs],
        ..Window::default()
    };
    // Per ping: due, encode start, send start, send end (ns since t0).
    let mut inflight: Vec<Option<[u64; 4]>> = vec![None; total as usize];
    let mut buf = vec![0u8; 65536];
    let agent_addr = rig.agent.addr();
    let target = rig.agent.name();
    w.io0 = rig.agent.metrics().io;
    let agent_cpu0 = process_cpu_except(client_tid);
    let client_clock = ThreadClock::new();
    let client_cpu0 = client_clock.now();
    let t0 = Instant::now();
    let ns = |t: Instant| t.saturating_duration_since(t0).as_nanos() as u64;
    let end_ns = sched.due_ns(total) + DEADLINE.as_nanos() as u64;
    let mut next_api = API_EVERY.as_nanos() as u64;
    let mut next_metrics = METRICS_EVERY.as_nanos() as u64;
    let mut answered = 0u64;
    let mut next_mark = 0u64;
    loop {
        let now = ns(Instant::now());
        if now >= next_mark && w.sub_marks.len() <= subs {
            next_mark += 1_000_000_000;
            let sent = rig.agent.stats().datagrams_sent;
            w.sub_marks.push((process_cpu_except(client_tid), sent));
        }
        while let Some((k, due)) = sched.take_due(now) {
            let e0 = ns(Instant::now());
            let ping = Message::Ping(Ping {
                seq: SeqNo(k as u32),
                target: target.clone(),
                source: "client".into(),
                source_addr: rig.addr,
            });
            let bytes = codec::encode_message(&ping);
            let e1 = ns(Instant::now());
            rig.sock
                .send_to(&bytes, agent_addr)
                .map_err(|e| format!("ping send: {e}"))?;
            let e2 = ns(Instant::now());
            w.acct.sent(due, e1);
            inflight[k as usize] = Some([due, e0, e1, e2]);
        }
        if tracer.enabled() && now >= next_api {
            next_api += API_EVERY.as_nanos() as u64;
            let a0 = Instant::now();
            std::hint::black_box(rig.agent.num_alive());
            let a1 = Instant::now();
            w.api_ns.push((a1 - a0).as_nanos() as f64);
            tracer.record_root(
                span("agent.num_alive", 0, tracer.ns_at(a0), tracer.ns_at(a1)),
                &[],
            );
            if now >= next_metrics {
                next_metrics += METRICS_EVERY.as_nanos() as u64;
                let m0 = Instant::now();
                std::hint::black_box(rig.agent.stats());
                std::hint::black_box(rig.agent.metrics());
                tracer.record_root(
                    span("agent.metrics", 0, tracer.ns_at(m0), tracer.now_ns()),
                    &[],
                );
            }
        }
        let now = ns(Instant::now());
        if now >= end_ns || (sched.wait_ns(now).is_none() && answered == total) {
            break;
        }
        // Far from the next due time, block in the read so an ack is
        // taken the moment it lands. Socket timeouts round up to the
        // scheduler tick, so the blocking read stops `NEAR_DUE` short of
        // the due time; from there the client polls once and sleeps out
        // the rest (a high-resolution sleep).
        let wait = sched.wait_ns(now).unwrap_or(end_ns - now);
        let block = wait.checked_sub(NEAR_DUE.as_nanos() as u64);
        let len = match recv(&rig.sock, &mut buf, block.map(Duration::from_nanos)) {
            Ok(Some(len)) => len,
            Ok(None) => {
                if block.is_none() {
                    std::thread::sleep(Duration::from_nanos(wait));
                }
                continue;
            }
            Err(e) => return Err(format!("client recv: {e}")),
        };
        let got = Instant::now();
        let d0 = Instant::now();
        let msgs = compound::decode_packet(&buf[..len]);
        w.decode_ns += d0.elapsed().as_nanos() as u64;
        let Ok(msgs) = msgs else { continue };
        w.decoded += 1;
        w.decoded_msgs += msgs.len() as u64;
        w.decoded_bytes += len as u64;
        for m in msgs {
            let reply = match m {
                Message::Ack(a) => {
                    let k = a.seq.0 as usize;
                    if let Some([due, e0, e1, e2]) = inflight.get_mut(k).and_then(Option::take) {
                        let done = ns(got);
                        w.acct.answered(due, done);
                        let sub = ((due / 1_000_000_000) as usize).min(subs - 1);
                        w.sub_lat_us[sub].push((done - due) as f64 / 1e3);
                        answered += 1;
                        if tracer.enabled() {
                            let at = |x: u64| tracer.ns_at(t0) + x;
                            tracer.record_root(
                                span("ping", k as u64, at(due), at(done)),
                                &[
                                    span_under("generator.late", k as u64, at(due), at(e0)),
                                    span_under("encode", k as u64, at(e0), at(e1)),
                                    span_under("send", k as u64, at(e1), at(e2)),
                                    span_under("ack_wait", k as u64, at(e2), at(done)),
                                ],
                            );
                        }
                    }
                    None
                }
                Message::Ping(p) => Some((p.source_addr, p.seq)),
                Message::IndirectPing(ip) => Some((ip.source_addr, ip.seq)),
                _ => None,
            };
            if let Some((to, seq)) = reply {
                let ack = codec::encode_message(&Message::Ack(Ack { seq }));
                rig.sock
                    .send_to(&ack, std::net::SocketAddr::from(to))
                    .map_err(|e| format!("ack send: {e}"))?;
            }
        }
    }
    w.wall = t0.elapsed();
    w.sub_marks.push((
        process_cpu_except(client_tid),
        rig.agent.stats().datagrams_sent,
    ));
    w.agent_cpu = process_cpu_except(client_tid).saturating_sub(agent_cpu0);
    w.client_cpu = client_clock.now().saturating_sub(client_cpu0);
    w.io1 = rig.agent.metrics().io;
    let deadline = DEADLINE.as_nanos() as u64;
    let late = w.acct.latency_ns.iter().filter(|&&l| l > deadline).count() as u64;
    w.acct.timeouts = total - answered + late;
    Ok(w)
}

/// Reads one datagram from the client socket (kept non-blocking):
/// without waiting, or waiting up to `block`. `None` when nothing came.
fn recv(
    sock: &UdpSocket,
    buf: &mut [u8],
    block: Option<Duration>,
) -> std::io::Result<Option<usize>> {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    if let Some(t) = block {
        sock.set_nonblocking(false)?;
        sock.set_read_timeout(Some(t.max(Duration::from_micros(1))))?;
    }
    let got = sock.recv_from(buf);
    if block.is_some() {
        sock.set_nonblocking(true)?;
    }
    match got {
        Ok((len, _)) => Ok(Some(len)),
        Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => Ok(None),
        Err(e) => Err(e),
    }
}

fn span(name: &'static str, id: u64, start: u64, end: u64) -> Span {
    Span {
        name,
        id,
        parent: NONE,
        start,
        end,
    }
}

fn span_under(name: &'static str, id: u64, start: u64, end: u64) -> Span {
    Span {
        parent: 0,
        ..span(name, id, start, end)
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool, r: &mut Report) -> Result<(), String> {
    alloc::reset_peak();
    let client_tid = thread_id();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        let made = set_up(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        rig = Some(made);
    }
    let rig = rig.expect("at least one set-up");
    let secs = seconds.max(1) as f64;
    let mut tracer = Tracer::new(false);
    // A traced run measures half its time untraced, for the overhead.
    let w = if traced {
        let off = measure(&rig, secs / 2.0, &mut tracer, client_tid)?;
        tracer = Tracer::new(true);
        let on = measure(&rig, secs / 2.0, &mut tracer, client_tid)?;
        let per = |w: &Window| w.client_cpu.as_secs_f64() / w.pings as f64;
        r.set("trace.overhead_frac", per(&on) / per(&off) - 1.0);
        on
    } else {
        measure(&rig, secs, &mut tracer, client_tid)?
    };
    let peak_mb = alloc::peak() as f64 / 1e6;

    let members = rig.agent.members();
    let alive = members
        .iter()
        .filter(|m| m.name.as_str().starts_with('m') && m.state == MemberState::Alive)
        .count();
    let stats = rig.agent.stats();
    r.check(
        alive == MEMBERS,
        format!("{alive} of {MEMBERS} emulated members alive at the end"),
    );
    r.check(
        stats.send_errors == 0,
        format!("agent reported {} send errors", stats.send_errors),
    );
    r.check(!w.acct.latency_ns.is_empty(), "no ping was acked");
    r.check(
        w.agent_cpu > Duration::ZERO,
        "agent CPU time unreadable from /proc",
    );
    r.attempted = w.pings;
    r.failed = w.acct.timeouts;

    let (io0, io1) = (w.io0, w.io1);
    let sent = io1.datagrams_sent - io0.datagrams_sent;
    let received = io1.datagrams_received - io0.datagrams_received;
    let wall = w.wall.as_secs_f64();
    let rtt_us: Vec<f64> = w.acct.latency_ns.iter().map(|&n| n as f64 / 1e3).collect();
    r.set("setup_s", percentile(&setups, 50.0).unwrap_or(0.0));
    r.set("peak_heap_mb", peak_mb);
    r.set("step_ms", w.sub_latency(50.0) / 1e3);
    r.set("cpu_us_per_msg", w.sub_cpu_per_msg());
    r.set("msgs_per_node_s", sent as f64 / wall);
    r.set(
        "kb_per_node_s",
        (io1.datagram_bytes - io0.datagram_bytes) as f64 / 1e3 / wall,
    );
    r.note_tail("rtt_us_tail", &rtt_us);
    r.note("rtt_us_p50", percentile(&rtt_us, 50.0).unwrap_or(0.0));
    r.note("rtt_us_p90", percentile(&rtt_us, 90.0).unwrap_or(0.0));
    r.note(
        "agent_cpu_us_per_msg",
        w.agent_cpu.as_secs_f64() * 1e6 / sent.max(1) as f64,
    );
    r.note(
        "agent_cpu_us_per_ping",
        w.agent_cpu.as_secs_f64() * 1e6 / w.pings as f64,
    );
    r.note("failed_frac", w.acct.timeouts as f64 / w.pings as f64);
    r.note("client_late_ms_max", w.acct.late_max_ns as f64 / 1e6);
    r.note(
        "setup_s_samples",
        Json::Arr(setups.iter().map(|&s| Json::from(s)).collect()),
    );

    if !traced {
        return Ok(());
    }
    r.set(
        "membership.bootstrap_ns_per_entry",
        rig.inject.as_nanos() as f64 / MEMBERS as f64,
    );
    r.set(
        "membership.heap_bytes_per_entry",
        rig.inject_heap as f64 / MEMBERS as f64,
    );
    r.set(
        "proto.decode_ns_per_datagram",
        w.decode_ns as f64 / w.decoded.max(1) as f64,
    );
    r.set(
        "proto.msgs_per_datagram",
        w.decoded_msgs as f64 / w.decoded.max(1) as f64,
    );
    r.set(
        "proto.bytes_per_datagram",
        w.decoded_bytes as f64 / w.decoded.max(1) as f64,
    );
    let core = rig.agent.metrics().core;
    r.set(
        "probe.ack_frac",
        1.0 - core.probes_failed as f64 / core.probes_sent.max(1) as f64,
    );
    r.set(
        "probe.indirect_frac",
        core.indirect_probes_sent as f64 / core.probes_sent.max(1) as f64,
    );
    let hours = rig.agent_uptime_h();
    r.set(
        "suspicion.raised_per_node_hour",
        core.suspicions_raised as f64 / hours,
    );
    r.set(
        "suspicion.refuted_frac",
        core.flaps as f64 / core.suspicions_raised.max(1) as f64,
    );
    r.set(
        "suspicion.lifetime_s_p50",
        core.suspicion_lifetime.quantile(50.0).unwrap_or(0.0) / 1e6,
    );
    r.set("lha.lhm_peak", core.lhm_peak as f64);
    r.set("broadcast.queue_peak", core.broadcast_queue_peak as f64);
    r.set(
        "reactor.wakeups_per_ping",
        (io1.wakeups - io0.wakeups) as f64 / w.pings as f64,
    );
    r.set(
        "reactor.send_syscalls_per_datagram",
        (io1.send_syscalls - io0.send_syscalls) as f64 / sent.max(1) as f64,
    );
    r.set(
        "reactor.recv_syscalls_per_datagram",
        (io1.recv_syscalls - io0.recv_syscalls) as f64 / received.max(1) as f64,
    );
    r.set("reactor.cpu_busy_frac", w.agent_cpu.as_secs_f64() / wall);
    let drops = |io: &lifeguard_metrics::IoSnapshot| {
        io.would_block_drops + io.recv_truncations + io.send_errors
    };
    r.set("reactor.drops", (drops(&io1) - drops(&io0)) as f64);
    r.set(
        "agent.api_us_p50",
        percentile(&w.api_ns, 50.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "agent.api_us_p99",
        percentile(&w.api_ns, 99.0).unwrap_or(0.0) / 1e3,
    );
    r.set(
        "agent.probe_rtt_us_p50",
        core.probe_rtt.quantile(50.0).unwrap_or(0.0),
    );
    r.set("client.rtt_us_p90", w.sub_latency(90.0));
    r.set(
        "client.rtt_us_p99",
        percentile(&rtt_us, 99.0).unwrap_or(0.0),
    );
    r.set("client.late_ms_max", w.acct.late_max_ns as f64 / 1e6);
    finish_trace(&tracer, r);
    Ok(())
}

impl Rig {
    /// Hours since the agent started (suspicion rates are per node-hour).
    fn agent_uptime_h(&self) -> f64 {
        self.started.elapsed().as_secs_f64() / 3600.0
    }
}
