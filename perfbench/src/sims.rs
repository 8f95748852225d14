//! The two simulator workloads, `steady_2k` and `faults_128`.
//!
//! Both run `lifeguard_sim::Cluster` with the library's default
//! scheduler (no `.workers()` call) in 100 ms slices of sim time, timing
//! each slice. The amount of simulated time is fixed by `--seconds`, so
//! every sim-time outcome repeats exactly for a seed.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lifeguard_core::config::Config;
use lifeguard_core::event::Event;
use lifeguard_core::time::Time;
use lifeguard_metrics::{percentile, CoreSnapshot};
use lifeguard_sim::{AnomalySpec, Cluster, ClusterBuilder, NetworkConfig, SimAction};

use crate::alloc;
use crate::json::Json;
use crate::replay::{Action, Plan, Replay, SLICE};
use crate::report::Report;
use crate::span::Tracer;
use crate::util::{Rng, ThreadClock};

/// Times the set-up is repeated in one run (`setup_s` is the median):
/// a steady_2k set-up takes about a second, a faults_128 one a tenth of
/// that, so faults_128 affords more repeats for the same time.
const STEADY_SETUP_REPS: usize = 5;
const FAULTS_SETUP_REPS: usize = 41;

/// Simulated work per `--seconds` of budget (100 ms slices for
/// steady_2k, sim seconds for faults_128): sized so a run's measured
/// phase takes about `--seconds` of wall time on a 2-core host.
const STEADY_SLICES_PER_S: u64 = 64;
const FAULTS_SIM_PER_S: u64 = 60;

const STEADY_MEMBERS: usize = 2000;
/// Share of members taking an `UpdateMeta` each sim second, in ‰.
const STEADY_META_PER_MILLE: usize = 1;

const FAULTS_MEMBERS: usize = 128;
const FAULTS_SLOW: usize = 16;
/// Table III anomaly shape: D = 8192 ms blocked, I = 1024 ms running.
const SLOW_D: Duration = Duration::from_millis(8192);
const SLOW_I: Duration = Duration::from_millis(1024);
/// Joins settle and every member runs its first push-pull (30 s
/// interval plus a random phase below 30 s), which repairs a join
/// announcement that gossip alone failed to deliver.
const FAULTS_WARMUP: Duration = Duration::from_secs(65);
/// First fault and slow-member anomaly, absolute sim time.
const FAULTS_FIRST: Duration = Duration::from_secs(75);
const PAUSE_EVERY: Duration = Duration::from_secs(5);
const PAUSE_LEN: Duration = Duration::from_secs(30);
/// Quiet tail after the last fault starts: the cluster must reconverge.
const FAULTS_TAIL: Duration = Duration::from_secs(60);
/// A member is paused at most once per this span of sim time.
const PAUSE_REST: Duration = Duration::from_secs(120);

/// One sim workload: its plan plus the parameters it was built from.
pub struct SimWorkload {
    pub plan: Plan,
    /// Members that run the slow-member anomaly.
    // bounded: FAULTS_SLOW entries
    pub slow: Vec<usize>,
    /// Their anomaly schedule (`AnomalySpec::Interval`, Table III shape).
    pub slow_spec: Option<AnomalySpec>,
    /// Injected faults `(node, start, end)`.
    // bounded: one per PAUSE_EVERY of the measured phase
    pub pauses: Vec<(usize, Time, Time)>,
    /// Set-ups per untraced run.
    pub setup_reps: usize,
    pub params: Vec<(String, Json)>,
}

pub fn steady_2k(seed: u64, seconds: u64) -> SimWorkload {
    let n = STEADY_MEMBERS;
    let slices = (STEADY_SLICES_PER_S * seconds.max(1)).next_multiple_of(10) as usize;
    let sim_s = slices as u64 / 10;
    let mut rng = Rng::new(seed);
    let all: Vec<usize> = (0..n).collect();
    let per_s = n * STEADY_META_PER_MILLE / 1000;
    let mut actions = vec![Vec::new(); slices];
    for s in 0..sim_s as usize {
        for node in rng.pick(&all, per_s) {
            let meta =
                Bytes::copy_from_slice(format!("rev-{s}-{}", rng.next_u64() % 1000).as_bytes());
            actions[s * 10].push(Action::Meta { node, meta });
        }
    }
    let plan = Plan {
        n,
        config: Config::lan().lifeguard(),
        network: NetworkConfig::loopback(),
        seed,
        full_mesh: true,
        warmup: Duration::ZERO,
        slices,
        actions,
        anomalies: Vec::new(),
    };
    let params = vec![
        ("members".into(), Json::from(n)),
        ("bootstrap".into(), Json::from("full_mesh")),
        ("config".into(), Json::from("lan+lifeguard")),
        ("network".into(), Json::from("loopback")),
        ("sim_seconds".into(), Json::from(sim_s)),
        ("meta_updates_per_s".into(), Json::from(per_s)),
        ("push_pull_s".into(), Json::from(30u64)),
        ("delta_sync".into(), Json::from(true)),
        ("setup_reps".into(), Json::from(STEADY_SETUP_REPS)),
    ];
    SimWorkload {
        plan,
        slow: Vec::new(),
        slow_spec: None,
        pauses: Vec::new(),
        setup_reps: STEADY_SETUP_REPS,
        params,
    }
}

pub fn faults_128(seed: u64, seconds: u64) -> SimWorkload {
    let n = FAULTS_MEMBERS;
    let sim = Duration::from_secs(FAULTS_SIM_PER_S * seconds.max(3));
    let slices = (sim.as_millis() / SLICE.as_millis()) as usize;
    let mut rng = Rng::new(seed);
    let others: Vec<usize> = (1..n).collect();
    let mut slow = rng.pick(&others, FAULTS_SLOW);
    slow.sort_unstable();
    let end = FAULTS_WARMUP + sim;
    let last_start = end - FAULTS_TAIL;
    let spec = AnomalySpec::Interval {
        start: Time::ZERO + FAULTS_FIRST,
        duration: SLOW_D,
        interval: SLOW_I,
        until: Time::ZERO + last_start,
    };
    let mut anomalies = Vec::new();
    for &node in &slow {
        for w in spec.windows(0) {
            anomalies.push((node, w.start, w.end));
        }
    }
    let healthy: Vec<usize> = (0..n).filter(|i| !slow.contains(i)).collect();
    let mut last_paused: Vec<Option<Duration>> = vec![None; n];
    let mut actions = vec![Vec::new(); slices];
    let mut pauses = Vec::new();
    let mut t = FAULTS_FIRST;
    while t <= last_start {
        let rested: Vec<usize> = healthy
            .iter()
            .copied()
            .filter(|&i| last_paused[i].is_none_or(|p| t >= p + PAUSE_REST))
            .collect();
        if let Some(&node) = rng.pick(&rested, 1).first() {
            last_paused[node] = Some(t);
            let k = ((t - FAULTS_WARMUP).as_millis() / SLICE.as_millis()) as usize;
            actions[k].push(Action::Pause {
                node,
                dur: PAUSE_LEN,
            });
            pauses.push((node, Time::ZERO + t, Time::ZERO + t + PAUSE_LEN));
        }
        t += PAUSE_EVERY;
    }
    let plan = Plan {
        n,
        config: Config::lan().lifeguard(),
        network: lifeguard_experiments::scenario::experiment_network(),
        seed,
        full_mesh: false,
        warmup: FAULTS_WARMUP,
        slices,
        actions,
        anomalies,
    };
    let params = vec![
        ("members".into(), Json::from(n)),
        ("bootstrap".into(), Json::from("join via node-0")),
        ("config".into(), Json::from("lan+lifeguard")),
        (
            "network".into(),
            Json::from("experiment_network (0.5% loss)"),
        ),
        ("sim_seconds".into(), Json::from(sim.as_secs())),
        ("slow_members".into(), Json::from(FAULTS_SLOW)),
        ("slow_d_ms".into(), Json::from(SLOW_D.as_millis() as u64)),
        ("slow_i_ms".into(), Json::from(SLOW_I.as_millis() as u64)),
        ("pause_every_s".into(), Json::from(PAUSE_EVERY.as_secs())),
        ("pause_len_s".into(), Json::from(PAUSE_LEN.as_secs())),
        ("pauses".into(), Json::from(pauses.len())),
        ("setup_reps".into(), Json::from(FAULTS_SETUP_REPS)),
    ];
    SimWorkload {
        plan,
        slow,
        slow_spec: Some(spec),
        pauses,
        setup_reps: FAULTS_SETUP_REPS,
        params,
    }
}

fn build_cluster(w: &SimWorkload) -> Cluster {
    let p = &w.plan;
    let mut b = ClusterBuilder::new(p.n)
        .full_mesh(p.full_mesh)
        .config(p.config.clone())
        .network(p.network.clone())
        .seed(p.seed);
    if let Some(spec) = &w.slow_spec {
        for &node in &w.slow {
            b = b.anomaly(node, spec.clone());
        }
    }
    b.build()
}

/// Builds the cluster and runs the warm-up: everything before the first
/// measured slice.
fn set_up(w: &SimWorkload) -> Cluster {
    let mut c = build_cluster(w);
    c.run_until(w.plan.slice_start(0));
    c
}

fn messages(c: &Cluster) -> (u64, u64) {
    let t = c.telemetry().total();
    (t.messages(), t.bytes())
}

fn core_totals(c: &Cluster) -> CoreSnapshot {
    let mut sum = CoreSnapshot::default();
    for i in 0..c.len() {
        let s = c.metrics_snapshot(i).core;
        sum.probes_sent += s.probes_sent;
        sum.probes_failed += s.probes_failed;
        sum.indirect_probes_sent += s.indirect_probes_sent;
        sum.suspicions_raised += s.suspicions_raised;
        sum.refutations += s.refutations;
        sum.failures_declared += s.failures_declared;
        sum.flaps += s.flaps;
        sum.delta_syncs += s.delta_syncs;
        sum.delta_sync_bytes += s.delta_sync_bytes;
        sum.full_sync_fallbacks += s.full_sync_fallbacks;
        sum.lhm_peak = sum.lhm_peak.max(s.lhm_peak);
        sum.broadcast_queue_peak = sum.broadcast_queue_peak.max(s.broadcast_queue_peak);
        sum.probe_rtt.merge(&s.probe_rtt);
        sum.suspicion_lifetime.merge(&s.suspicion_lifetime);
    }
    sum
}

/// Protocol-level outcome of the measured phase.
struct SimRun {
    slice_ms: Vec<f64>,
    apply_us: Vec<f64>,
    wall: Duration,
    cpu: Duration,
    msgs: u64,
    bytes: u64,
    streams: u64,
    stream_bytes: u64,
}

fn run_measured(c: &mut Cluster, plan: &Plan) -> SimRun {
    let (m0, b0) = messages(c);
    let t0 = c.telemetry().total();
    let mut slice_ms = Vec::with_capacity(plan.slices);
    let mut apply_us = Vec::new();
    let clock = ThreadClock::new();
    let cpu0 = clock.now();
    let wall0 = Instant::now();
    for k in 0..plan.slices {
        let s0 = Instant::now();
        for a in &plan.actions[k] {
            let action = match a.clone() {
                Action::Meta { node, meta } => SimAction::UpdateMeta { node, meta },
                Action::Pause { node, dur } => SimAction::Pause {
                    node,
                    duration: dur,
                },
            };
            let a0 = Instant::now();
            c.apply(action);
            apply_us.push(a0.elapsed().as_secs_f64() * 1e6);
        }
        c.run_until(plan.slice_start(k + 1));
        slice_ms.push(s0.elapsed().as_secs_f64() * 1e3);
    }
    let wall = wall0.elapsed();
    let cpu = clock.now().saturating_sub(cpu0);
    let (m1, b1) = messages(c);
    let t1 = c.telemetry().total();
    SimRun {
        slice_ms,
        apply_us,
        wall,
        cpu,
        msgs: m1 - m0,
        bytes: b1 - b0,
        streams: t1.streams_sent - t0.streams_sent,
        stream_bytes: t1.stream_bytes - t0.stream_bytes,
    }
}

/// Runs one sim workload. Untraced: every end-to-end metric. Traced: one
/// set-up, the same measured phase for the protocol-layer metrics, then
/// the Driver replay untraced and traced for the per-layer costs.
pub fn run(w: &SimWorkload, traced: bool, r: &mut Report) {
    alloc::reset_peak();
    let reps = if traced { 1 } else { w.setup_reps };
    // Set-up is timed in this thread's CPU time, like the slices, and in
    // wall time for the notes and `sim.build_s`.
    let clock = ThreadClock::new();
    let mut setups = Vec::with_capacity(reps);
    let mut setups_wall = Vec::with_capacity(reps);
    let mut cluster = None;
    let mut heap_per_entry = 0.0;
    for _ in 0..reps {
        drop(cluster.take());
        let live0 = alloc::live();
        let (c0, t) = (clock.now(), Instant::now());
        let c = set_up(w);
        setups_wall.push(t.elapsed().as_secs_f64());
        setups.push(clock.now().saturating_sub(c0).as_secs_f64());
        heap_per_entry = (alloc::live() - live0) as f64 / (w.plan.n * w.plan.n) as f64;
        cluster = Some(c);
    }
    let mut c = cluster.expect("at least one set-up");
    if !w.plan.full_mesh {
        r.check(
            c.converged(),
            "cluster did not converge during the join warm-up",
        );
    }
    let run = run_measured(&mut c, &w.plan);
    let peak_mb = alloc::peak() as f64 / 1e6;
    let sim_s = w.plan.slices as f64 * SLICE.as_secs_f64();
    let node_s = w.plan.n as f64 * sim_s;

    let slice_ms = &run.slice_ms;
    r.set("setup_s", percentile(&setups, 50.0).unwrap_or(0.0));
    r.set("peak_heap_mb", peak_mb);
    // The simulating thread's CPU time per slice, over the whole phase:
    // CPU time leaves out what the host gives other tenants, and a mean
    // over the phase averages the host's speed drift that a median over
    // parts of it would pick one side of.
    r.set(
        "step_ms",
        run.cpu.as_secs_f64() * 1e3 / w.plan.slices.max(1) as f64,
    );
    r.set(
        "cpu_us_per_msg",
        run.cpu.as_secs_f64() * 1e6 / run.msgs.max(1) as f64,
    );
    r.set("msgs_per_node_s", run.msgs as f64 / node_s);
    r.set("kb_per_node_s", run.bytes as f64 / 1e3 / node_s);
    r.note_tail("slice_ms_tail", slice_ms);
    r.note("slice_ms_p50", percentile(slice_ms, 50.0).unwrap_or(0.0));
    r.note("sim_s_per_wall_s", sim_s / run.wall.as_secs_f64());
    r.note("slice_ms_p90", percentile(slice_ms, 90.0).unwrap_or(0.0));
    r.note("slice_ms_p99", percentile(slice_ms, 99.0).unwrap_or(0.0));
    r.note(
        "setup_s_samples",
        Json::Arr(setups.iter().map(|&s| Json::from(s)).collect()),
    );
    r.note(
        "setup_wall_s",
        percentile(&setups_wall, 50.0).unwrap_or(0.0),
    );

    r.check(
        run.cpu > Duration::ZERO,
        "thread CPU time unreadable from /proc",
    );
    let core = core_totals(&c);
    let fd = if w.pauses.is_empty() {
        check_steady(&c, &core, r)
    } else {
        check_faults(&mut c, w, r)
    };

    if !traced {
        return;
    }
    let msgs_sim = run.msgs as f64 / node_s;
    r.set("membership.heap_bytes_per_entry", heap_per_entry);
    r.set(
        "sync.delta_frac",
        core.delta_syncs as f64 / (core.delta_syncs + core.full_sync_fallbacks).max(1) as f64,
    );
    r.set(
        "sync.kb_per_exchange",
        run.stream_bytes as f64 / 1e3 / run.streams.max(1) as f64,
    );
    let hours = node_s / 3600.0;
    r.set(
        "probe.ack_frac",
        1.0 - core.probes_failed as f64 / core.probes_sent.max(1) as f64,
    );
    r.set(
        "probe.indirect_frac",
        core.indirect_probes_sent as f64 / core.probes_sent.max(1) as f64,
    );
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
    if let Some(fd) = fd {
        r.set("fd.detect_s_p50", fd.detect_p50);
        r.set("fd.detect_s_p90", fd.detect_p90);
        r.set("fd.dissem_s_p50", fd.dissem_p50);
        r.set("fd.fp_per_node_hour", fd.fp_per_node_hour);
        r.set("fd.failed_frac", fd.failed_frac);
    }
    r.set("sim.build_s", setups_wall[0]);
    r.set(
        "sim.apply_us_p50",
        percentile(&run.apply_us, 50.0).unwrap_or(0.0),
    );
    r.set(
        "sim.slice_ms_p90",
        percentile(slice_ms, 90.0).unwrap_or(0.0),
    );
    r.set(
        "sim.slice_ms_p99",
        percentile(slice_ms, 99.0).unwrap_or(0.0),
    );
    r.set("sim.s_per_wall_s", sim_s / run.wall.as_secs_f64());
    let sim_wall = run.wall.as_secs_f64();
    drop(c);

    // The replay, untraced then traced, each from a fresh build.
    let mut off = Replay::build(&w.plan);
    let mut quiet = Tracer::new(false);
    off.run(&mut quiet);
    let off_total: u64 = off.slice_ns.iter().sum();
    let replay_msgs = off.msgs_per_node_s();
    let replay_failures = off.failures();
    drop(off);
    let mut on = Replay::build(&w.plan);
    let mut tracer = Tracer::new(true);
    on.run(&mut tracer);
    let on_total: u64 = on.slice_ns.iter().sum();

    let ratio = replay_msgs / msgs_sim.max(f64::MIN_POSITIVE);
    r.set("replay.msgs_ratio", ratio);
    r.check(
        (ratio - 1.0).abs() <= 0.10,
        format!("replay carries {replay_msgs:.3} msgs/node-s against the sim's {msgs_sim:.3}"),
    );
    if w.pauses.is_empty() {
        r.check(
            replay_failures == 0,
            format!("replay declared {replay_failures} failures in steady state"),
        );
    }
    let cnt = &on.counts;
    if cnt.bootstrap_entries > 0 {
        r.set(
            "membership.bootstrap_ns_per_entry",
            cnt.bootstrap.as_nanos() as f64 / cnt.bootstrap_entries as f64,
        );
    }
    let dec = tracer.get("proto.decode");
    r.set(
        "proto.decode_ns_per_datagram",
        dec.total_ns as f64 / dec.count.max(1) as f64,
    );
    r.set(
        "proto.msgs_per_datagram",
        cnt.decoded_msgs as f64 / cnt.datagrams_decoded.max(1) as f64,
    );
    r.set(
        "proto.bytes_per_datagram",
        cnt.decoded_bytes as f64 / cnt.datagrams_decoded.max(1) as f64,
    );
    for (span, p50, p99) in [
        (
            "driver.datagram",
            "driver.datagram_us_p50",
            "driver.datagram_us_p99",
        ),
        ("driver.tick", "driver.tick_us_p50", "driver.tick_us_p99"),
        (
            "driver.stream",
            "driver.stream_us_p50",
            "driver.stream_us_p99",
        ),
    ] {
        let a = tracer.get(span);
        r.set(p50, a.dur.quantile(50.0).unwrap_or(0.0) / 1e3);
        r.set(p99, a.dur.quantile(99.0).unwrap_or(0.0) / 1e3);
    }
    r.set(
        "driver.outputs_per_input",
        cnt.outputs as f64 / cnt.driver_calls.max(1) as f64,
    );
    let driver_ns: u64 = tracer
        .agg
        .iter()
        .filter(|(name, _)| name.starts_with("driver."))
        .map(|(_, a)| a.total_ns)
        .sum();
    let slice_total = tracer.get("slice").total_ns.max(1);
    r.set("driver.busy_frac", driver_ns as f64 / slice_total as f64);
    r.set("sim.overhead_frac", 1.0 - off_total as f64 / 1e9 / sim_wall);
    // Tracing overhead net of the extra decode the traced replay makes.
    let probe_ns = dec.total_ns;
    r.set(
        "trace.overhead_frac",
        (on_total.saturating_sub(probe_ns) as f64 - off_total as f64) / off_total.max(1) as f64,
    );
    finish_trace(&tracer, r);
}

/// Coverage check shared by every traced run: the spans, credited with
/// the tracer's own measured cost per span, must account for at least
/// 90% of a root's wall time in 99% of roots. The rest is left to the
/// host: a preemption between two spans (tens of µs on a shared
/// machine) is time no layer spent.
pub fn finish_trace(tracer: &Tracer, r: &mut Report) {
    let cov = &tracer.coverage;
    let p1 = percentile(cov, 1.0).unwrap_or(0.0);
    r.set("trace.coverage_p1", p1);
    r.note("trace_span_cost_ns", tracer.span_cost_ns);
    r.note(
        "trace_coverage_raw_p1",
        percentile(&tracer.coverage_raw, 1.0).unwrap_or(0.0),
    );
    r.note(
        "trace_coverage_min",
        cov.iter().copied().reduce(f64::min).unwrap_or(0.0),
    );
    r.note("trace_coverage_p50", percentile(cov, 50.0).unwrap_or(0.0));
    r.check(
        p1 >= 0.9,
        format!("spans cover under 90% of the wall time of over 1% of roots (p1 {p1:.3})"),
    );
    r.spans = Some(tracer.to_json());
}

/// steady_2k: converged, no failure declared; attempted/failed are
/// probes sent and probes failed.
fn check_steady(c: &Cluster, core: &CoreSnapshot, r: &mut Report) -> Option<FdStats> {
    let failures = c.trace().failures().count();
    r.check(
        failures == 0,
        format!("{failures} failure declarations in steady state"),
    );
    r.check(
        c.converged(),
        "steady-state cluster is not converged at the end",
    );
    r.attempted = core.probes_sent;
    r.failed = core.probes_failed;
    None
}

/// `node-17` → 17.
fn node_index(name: &str) -> Option<usize> {
    name.strip_prefix("node-")?.parse().ok()
}

struct FdStats {
    detect_p50: f64,
    detect_p90: f64,
    dissem_p50: f64,
    fp_per_node_hour: f64,
    failed_frac: f64,
}

/// faults_128: every fault is detected and refuted, the cluster
/// reconverges; detection, dissemination and false positives from the
/// trace. attempted/failed are faults injected and faults not declared
/// before they ended.
fn check_faults(c: &mut Cluster, w: &SimWorkload, r: &mut Report) -> Option<FdStats> {
    let mut converged = c.converged();
    for _ in 0..FAULTS_TAIL.as_secs() {
        if converged {
            break;
        }
        c.run_for(Duration::from_secs(1));
        converged = c.converged();
    }
    r.check(converged, "cluster did not reconverge after the last fault");
    let smax = w.plan.config.suspicion_max(w.plan.n);
    let slow = |i: usize| w.slow.contains(&i);
    let paused_at = |i: usize, t: Time| w.pauses.iter().any(|&(v, s, e)| v == i && s <= t && t < e);
    // A declaration about a victim up to `smax` after its pause belongs
    // to that fault.
    let victim_at = |i: usize, t: Time| {
        w.pauses
            .iter()
            .any(|&(v, s, e)| v == i && s <= t && t < e + smax)
    };
    let healthy_reporter = |i: usize, t: Time| !slow(i) && !paused_at(i, t);

    // Declarations by subject, and self-refutations by node.
    let mut failed: Vec<Vec<(Time, usize)>> = vec![Vec::new(); w.plan.n];
    let mut refuted: Vec<Vec<Time>> = vec![Vec::new(); w.plan.n];
    for e in c.trace().events() {
        match &e.event {
            Event::MemberFailed { name, .. } => {
                if let Some(u) = node_index(name.as_str()) {
                    failed[u].push((e.at, e.reporter));
                }
            }
            Event::SelfRefuted { .. } => refuted[e.reporter].push(e.at),
            _ => {}
        }
    }
    let mut detect = Vec::new();
    let mut dissem = Vec::new();
    let mut missed = 0u64;
    let mut unrefuted = 0u64;
    for &(v, start, end) in &w.pauses {
        let about_v = &failed[v];
        let first = about_v
            .iter()
            .filter(|&&(t, rep)| t >= start && t < end && healthy_reporter(rep, t))
            .map(|&(t, _)| t)
            .min();
        match first {
            Some(t) => detect.push(t.saturating_since(start).as_secs_f64()),
            None => missed += 1,
        }
        // Full dissemination: every member that was healthy throughout
        // the fault has declared it.
        let mut first_by: Vec<Option<Time>> = vec![None; w.plan.n];
        for &(t, rep) in about_v
            .iter()
            .filter(|&&(t, _)| t >= start && t < end + smax)
        {
            first_by[rep] = Some(first_by[rep].map_or(t, |f: Time| f.min(t)));
        }
        let required = (0..w.plan.n).filter(|&i| {
            i != v
                && !slow(i)
                && !w
                    .pauses
                    .iter()
                    .any(|&(u, s, e)| u == i && s < end && start < e)
        });
        let mut last = Some(start);
        for i in required {
            last = last.zip(first_by[i]).map(|(a, b)| a.max(b));
        }
        if let Some(t) = last {
            dissem.push(t.saturating_since(start).as_secs_f64());
        }
        // The refutation must come before the member's next pause, or
        // a later fault's refutation would cover for this one.
        let next = w
            .pauses
            .iter()
            .filter(|&&(u, s, _)| u == v && s >= end)
            .map(|&(_, s, _)| s)
            .min();
        if !refuted[v]
            .iter()
            .any(|&t| t >= end && next.is_none_or(|n| t < n))
        {
            unrefuted += 1;
        }
    }
    r.check(
        unrefuted == 0,
        format!("{unrefuted} paused members never refuted"),
    );
    r.check(
        missed == 0,
        format!("{missed} faults were not declared before they ended"),
    );
    let fp = failed
        .iter()
        .enumerate()
        .flat_map(|(u, ds)| ds.iter().map(move |&(t, rep)| (u, t, rep)))
        .filter(|&(u, t, rep)| healthy_reporter(rep, t) && !slow(u) && !victim_at(u, t))
        .count();
    let healthy_nodes = (w.plan.n - w.slow.len()) as f64;
    let hours = w.plan.slices as f64 * SLICE.as_secs_f64() / 3600.0;
    r.attempted = w.pauses.len() as u64;
    r.failed = missed;
    let stats = FdStats {
        detect_p50: percentile(&detect, 50.0).unwrap_or(0.0),
        detect_p90: percentile(&detect, 90.0).unwrap_or(0.0),
        dissem_p50: percentile(&dissem, 50.0).unwrap_or(0.0),
        fp_per_node_hour: fp as f64 / (healthy_nodes * hours),
        failed_frac: missed as f64 / w.pauses.len().max(1) as f64,
    };
    r.note_tail("detect_s_tail", &detect);
    r.note("faults", w.pauses.len());
    r.note("detected", detect.len());
    r.note("fully_disseminated", dissem.len());
    r.note("false_positives", fp);
    r.note("detect_s_p50", stats.detect_p50);
    r.note("detect_s_p90", stats.detect_p90);
    r.note("dissem_s_p50", stats.dissem_p50);
    r.note("fp_per_node_hour", stats.fp_per_node_hour);
    r.note("failed_frac", stats.failed_frac);
    Some(stats)
}
