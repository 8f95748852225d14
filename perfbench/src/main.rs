//! The repository benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <steady_2k|faults_128|net_loopback> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). The
//! line before it is the run manifest; the lines before that are a
//! human-readable report. A traced run also writes its spans to
//! `perfbench/out/`. See `perfbench/README.md` for the metric catalogue.

mod alloc;
mod json;
mod manifest;
mod net;
mod openloop;
mod replay;
mod report;
mod sims;
mod span;
mod stats;
mod util;

use std::path::Path;
use std::process::ExitCode;

use json::Json;
use manifest::{config_hash, Manifest, HELDOUT_SEED};
use report::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["steady_2k", "faults_128", "net_loopback"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(16).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut r = Report::new();
    let (config, params) = match args.workload.as_str() {
        "net_loopback" => {
            let cfg = config_hash(&[&net::config()]);
            if let Err(e) = net::run(args.seed, args.seconds, args.trace, &mut r) {
                eprintln!("perfbench: net_loopback: {e}");
                return ExitCode::FAILURE;
            }
            (cfg, net::params(args.seconds))
        }
        name => {
            let w = if name == "steady_2k" {
                sims::steady_2k(args.seed, args.seconds)
            } else {
                sims::faults_128(args.seed, args.seconds)
            };
            sims::run(&w, args.trace, &mut r);
            (config_hash(&[&w.plan.config, &w.plan.network]), w.params)
        }
    };
    let manifest = Manifest {
        workload: args.workload.clone(),
        seed: args.seed,
        heldout_seed: HELDOUT_SEED,
        seconds: args.seconds,
        trace: args.trace,
        config_hash: config,
        params,
        git_rev: manifest::git_rev(),
        source_hash: manifest::source_hash(Path::new(".")),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let manifest = manifest.to_json();

    for (name, value) in &r.metrics {
        println!("metric {name} = {value}");
    }
    if let Json::Obj(notes) = &r.notes {
        for (k, v) in notes {
            println!("note {k} = {}", v.render());
        }
    }
    for p in &r.problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(spans) = r.spans.take() {
        let mut dump = Json::obj();
        dump.push("manifest", manifest.clone()).push("spans", spans);
        let dir = Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, dump.render())) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: span dump {}: {e}", path.display()),
        }
    }
    let mut m = Json::obj();
    m.push("manifest", manifest);
    println!("{}", m.render());
    let line = r.result_line(args.trace);
    debug_assert!(Json::parse(&line).is_ok(), "result line must be valid JSON");
    println!("{line}");
    ExitCode::SUCCESS
}
