//! The Ψ serving benchmark. One command runs one workload from a seed,
//! checks every answer, and prints every metric by name with its unit;
//! the last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <hot_repeat|cold_search> --seed <n> --seconds <s> --trace <0|1>
//! ```

mod common;
mod inproc;
mod inputs;
mod layers;
mod probes;
mod report;
mod rng;
mod trace;
mod wire;

use common::{median, Blocks, Ctx, Tally, Timed, Window};
use report::Report;
use std::io::Write;
use std::path::PathBuf;

/// Queries replayed through each layer in a traced run.
const REPLAY_QUERIES: usize = 300;

const WORKLOADS: [&str; 2] = ["hot_repeat", "cold_search"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Median over the windows of the measured phase of `f` of each window.
fn over_windows(windows: &Blocks, f: impl Fn(&Window) -> f64) -> f64 {
    let per: Vec<f64> = windows.iter().map(f).collect();
    median(&per)
}

fn end_to_end(timed: &Timed) -> Report {
    let mut r = Report::default();
    let reads = &timed.reads_by_window;
    let n = reads.iter().map(|w| w.lat.len()).sum();
    r.add("setup_s", median(&timed.setup_s), "s", timed.setup_s.len());
    r.add("read_qps", over_windows(reads, Window::rate), "1/s", n);
    r.add("read_p50_us", over_windows(reads, us(0.5)), "us", n);
    r.add("read_p99_us", over_windows(reads, us(0.99)), "us", n);
    r.add("peak_rss_mb", report::peak_rss_mb(), "MiB", 1);
    r
}

/// Write latencies, printed but not part of the result: on a shared
/// 2-core box they swing by a third between runs of one build.
fn write_latencies(timed: &Timed) -> Report {
    let mut r = Report::default();
    let writes = &timed.writes_by_window;
    let n = writes.iter().map(|w| w.lat.len()).sum();
    r.add("write_p50_us", over_windows(writes, us(0.5)), "us", n);
    r.add("write_p99_us", over_windows(writes, us(0.99)), "us", n);
    r
}

/// The percentile `p` of a window's latencies, in µs.
fn us(p: f64) -> impl Fn(&Window) -> f64 {
    move |w| w.lat.pct(p) as f64 / 1e3
}

/// Time of a fixed single-threaded integer loop, ms: printed before and
/// after the run so a reader can tell a slow machine from a slow program.
fn reference_loop_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..20_000_000u64 {
        x = rng::mix(x ^ i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("servebench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, out_dir);
    println!(
        "servebench {} seed {} seconds {} trace {} (cores: {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("reference loop before: {:.1} ms", reference_loop_ms());
    let mut replay = Tally::default();
    let input = if args.workload == "hot_repeat" {
        inproc::hot_repeat_inputs(args.seed)
    } else {
        inproc::cold_search_inputs(args.seed)
    };
    let served = inproc::run(&ctx, &input);
    let overheads = if ctx.traced() {
        let net_rate = if args.workload == "hot_repeat" { 400.0 } else { 40.0 };
        let probe = inproc::probe_input(&input, &served, REPLAY_QUERIES, net_rate);
        probes::run(&ctx, &probe, &mut replay)
    } else {
        Vec::new()
    };
    let timed = served.timed;
    println!("reference loop after: {:.1} ms", reference_loop_ms());
    let total: u64 = timed.paths.iter().sum();
    println!(
        "paths: hit {} fast {} race {} (hit share {:.3}); compactions {}",
        timed.paths[0],
        timed.paths[1],
        timed.paths[2],
        timed.paths[0] as f64 / total.max(1) as f64,
        timed.compactions
    );
    println!("{}", timed.reads.line("reads"));
    println!("{}", timed.writes.line("writes"));
    let e2e = end_to_end(&timed);
    println!("end to end:");
    e2e.print_table();
    println!("writes (informational):");
    write_latencies(&timed).print_table();
    let report = match ctx.tracer.take() {
        Some(tracer) => {
            println!("{}", replay.line("replayed operations"));
            let trace = tracer.finish();
            let path = ctx.out_dir.join(format!("trace-{}.jsonl", args.workload));
            match std::fs::File::create(&path).map(std::io::BufWriter::new) {
                Ok(mut f) => {
                    if let Err(e) = trace.write_jsonl(&mut f).and_then(|()| f.flush()) {
                        println!("warning: writing {}: {e}", path.display());
                    }
                }
                Err(e) => println!("warning: creating {}: {e}", path.display()),
            }
            println!("spans ({} kept, written to {}):", trace.spans.len(), path.display());
            layers::print_self_times(&trace);
            let per_layer = layers::per_layer(&ctx, &trace, &timed, &overheads);
            println!("per layer:");
            per_layer.print_table();
            per_layer
        }
        None => e2e,
    };
    let mut all = timed.reads;
    all.merge(&timed.writes);
    all.merge(&replay);
    let correct = all.wrong == 0 && all.lost == 0;
    println!("{}", report.json(correct, all.attempted, all.failed()));
    if !correct {
        std::process::exit(1);
    }
}
