//! `servebench` — the serving-path benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds `sigserve` from the
//! checkout, trains the `ci` models once (outside every timed window),
//! computes the goldens with the service-free reference path, then starts
//! a real daemon (`SIG_OBS` unset, no `timings` opt-in) and drives the
//! workload over TCP from this one process. Every reply is compared
//! byte-for-byte with its golden.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer split instead: the daemon's own `timings` and `stats`
//! counters over the wire, plus an in-process replay of the same frames
//! through each layer's public functions (see [`replay`]). The last line
//! of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`.
//!
//! Throughput and latency quantiles are medians over five consecutive
//! chunks of the window's replies ([`stats::summarize`]): the host is a
//! shared 2-core VM whose speed swings within a run.
//!
//! # Layers
//!
//! | metrics | layer | measured by |
//! |---|---|---|
//! | `serve.wire_ms` | `sigserve::{mux, reactor, protocol}`, socket | round trip − daemon `timings.total_s` |
//! | `serve.{queue,resolve,execute}_ms` | `sigserve::service`, `sigserve::{registry, cache}`, `sigsim::simulator` | daemon `timings` |
//! | `cache.*`, `delta.*`, `serve.rejects` | `sigserve::{cache, session, service}` | `stats` counters before and after |
//! | `protocol.*` | `sigserve::protocol` | `decode_request`, `encode_response` |
//! | `circuit.build_ms`, `engine.compile_ms` | `sigcircuit`, `sigsim::simulator` | `parse_circuit` + `map_for_simulation`, `CircuitProgram::compile` |
//! | `registry.load_s` | `sigserve::registry` | cold `ModelRegistry::get_or_load` |
//! | `region.*` | `sigtom::region` | `GateModel::prepare_batch` in a timing wrapper |
//! | `nn.*` | `signn` | `TransferFunction::predict_batch` in the same wrapper |
//! | `engine.self_ms` | `sigsim::simulator` | replay execute − projection − inference |
//!
//! Which end-to-end metric each should move: `engine.self_ms` and
//! `delta.*` the `latency_p50_ms` of `edit_c17` (no effect on the
//! cache-miss path of `small_inline`); `region.*` and `nn.*` the latency of
//! both; `serve.wire_ms`, `serve.queue_ms` and `protocol.*` the
//! `sims_per_s` of both; `serve.resolve_ms`, `cache.*`,
//! `circuit.build_ms` and `engine.compile_ms` `small_inline` and
//! `setup_s`; `registry.load_s` `setup_s`.

mod client;
mod daemon;
mod replay;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use sigserve::{decode_response, ModelRegistry, Response, StatsReply};

use client::{DriveOpts, Tally};
use daemon::Daemon;
use workload::{Plan, Workload, LIBRARY, MODELS};

/// End-to-end metrics (`--trace 0`): name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("sims_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("t_err_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
const PER_LAYER: [(&str, &str); 25] = [
    ("serve.rtt_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.resolve_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.rejects", "count"),
    ("cache.circuit_hit_ratio", "ratio"),
    ("cache.program_hit_ratio", "ratio"),
    ("delta.gates_reeval_per_req", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("circuit.build_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("registry.load_s", "s"),
    ("engine.execute_ms", "ms"),
    ("region.project_ms", "ms"),
    ("region.project_share", "ratio"),
    ("region.queries_per_req", "count"),
    ("region.moved_frac", "ratio"),
    ("nn.infer_ms", "ms"),
    ("nn.rows_per_call", "count"),
    ("nn.ns_per_row", "ns"),
    ("engine.self_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Daemon starts per untraced run; `setup_s` is their median.
const SETUP_STARTS: usize = 7;
const WARMUP: Duration = Duration::from_secs(1);
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// The window's samples are summarized over this many consecutive chunks
/// (see [`stats::summarize`]).
const WINDOW_CHUNKS: usize = 5;
/// `latency_p99_ms` is only a stable figure with this many samples.
const P99_MIN_SAMPLES: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!(
                "servebench: {e}\nusage: servebench --workload {} --seed N --seconds S --trace 0|1",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("working directory");
    let bin = match daemon::build(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = bin
        .parent()
        .and_then(Path::parent)
        .unwrap_or(&root)
        .join("servebench")
        .join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(|e| format!("cannot create {}: {e}", work.display()))
        .and_then(|()| run(&args, &bin, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            print!("{}", report.text);
            println!("{}", report.json);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: the human report and the final JSON line.
struct Report {
    text: String,
    json: String,
    correct: bool,
}

/// One metric with the sample count behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn run(args: &Args, bin: &Path, work: &Path) -> Result<Report, String> {
    let w = args.workload;
    let models = work.join("models");
    let mut text = String::new();

    // Models are trained once per invocation, outside every timed window;
    // the goldens use them as loaded back from disk, like the daemon.
    let t0 = Instant::now();
    ModelRegistry::new(&models)
        .get_or_load(MODELS, LIBRARY)
        .map_err(|e| format!("training {MODELS}/{LIBRARY}: {e}"))?;
    let train_s = t0.elapsed().as_secs_f64();
    let set = ModelRegistry::new(&models)
        .get_or_load(MODELS, LIBRARY)
        .map_err(|e| format!("loading {MODELS}/{LIBRARY}: {e}"))?;
    let plan = Plan::new(w, args.seed, false);
    let t1 = Instant::now();
    let goldens = workload::goldens(&plan.expects, &set, daemon::WORKERS)?;
    writeln!(
        text,
        "servebench {} seed {}: trained {MODELS}/{LIBRARY} in {train_s:.2} s, {} goldens in {:.2} s",
        w.name(),
        args.seed,
        goldens.len(),
        t1.elapsed().as_secs_f64()
    )
    .unwrap();

    let mut tally = Tally::default();
    let log = work.join("sigserve.log");
    let starts = if args.trace { 1 } else { SETUP_STARTS };
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..starts {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let (d, setup) = start(bin, &models, &log, &plan, &goldens, &mut tally)?;
        setups.extend(setup);
        daemon = Some(d);
    }
    let mut daemon = daemon.expect("at least one start");
    let measure = Duration::from_secs(args.seconds);
    let opts = DriveOpts {
        warmup: WARMUP,
        measure,
        traced: false,
        timeout: REPLY_TIMEOUT,
    };

    let (metrics, stats) = if args.trace {
        let traced_plan = Plan::new(w, args.seed, true);
        let half = DriveOpts {
            measure: measure / 2,
            ..opts
        };
        let plain = client::drive(&daemon.addr, &plan, &goldens, &half);
        let before = daemon.stats()?;
        let traced = client::drive(
            &daemon.addr,
            &traced_plan,
            &goldens,
            &DriveOpts {
                traced: true,
                ..half
            },
        );
        let after = daemon.stats()?;
        daemon.stop();
        let replayed = replay::replay(&traced_plan, &goldens, &models, measure / 4)?;
        tally.attempted += replayed.checked;
        tally.failed += replayed.failed;
        if let Some(why) = &replayed.first_failure {
            tally
                .first_failure
                .get_or_insert(format!("in-process replay: {why}"));
        }
        let metrics = per_layer(&mut text, &plain, &traced, &before, &after, &replayed);
        tally.merge(plain);
        tally.merge(traced);
        (metrics, after)
    } else {
        let window = client::drive(&daemon.addr, &plan, &goldens, &opts);
        let rss = daemon
            .peak_rss_mb()
            .map_err(|e| format!("daemon VmHWM: {e}"))?;
        let t_err = t_err_ratio(&daemon.addr, &plan, &goldens, &mut tally);
        let stats = daemon.stats()?;
        daemon.stop();
        let metrics = end_to_end(&mut text, &window, &setups, t_err, rss, measure);
        tally.merge(window);
        (metrics, stats)
    };

    writeln!(text, "host: {}", host_record(args, &stats)).unwrap();
    let mut correct = tally.failed == 0;
    if let Some(why) = &tally.first_failure {
        writeln!(
            text,
            "FAILED {} of {} frames; first: {why}",
            tally.failed, tally.attempted
        )
        .unwrap();
    }
    let mut json = String::new();
    for m in &metrics {
        if !m.value.is_finite() {
            correct = false;
            writeln!(text, "FAILED metric {} is not finite", m.name).unwrap();
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .unwrap();
    }
    Ok(Report {
        text,
        json: format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            tally.attempted.max(1),
            tally.failed
        ),
        correct,
    })
}

/// Starts a daemon and times it from process start to the first correct
/// reply on the workload's first frame (model load from disk, first parse
/// and compile included). A wrong first reply is a failure, not a time.
fn start(
    bin: &Path,
    models: &Path,
    log: &Path,
    plan: &Plan,
    goldens: &[String],
    tally: &mut Tally,
) -> Result<(Daemon, Option<f64>), String> {
    let t0 = Instant::now();
    let mut daemon =
        Daemon::spawn(bin, models, log).map_err(|e| format!("starting sigserve: {e}"))?;
    let mut conn = daemon.connect(t0 + REPLY_TIMEOUT).map_err(|e| {
        let log = std::fs::read_to_string(log).unwrap_or_default();
        format!("connecting to sigserve: {e}\n{log}")
    })?;
    let first = plan.conns[0]
        .opens
        .first()
        .unwrap_or(&plan.conns[0].frames[0]);
    tally.attempted += 1;
    match client::exchange(&mut conn, 1, first, goldens, REPLY_TIMEOUT, false) {
        Ok(_) => Ok((daemon, Some(t0.elapsed().as_secs_f64()))),
        Err(e) => {
            tally.fail(format!("first reply: {e}"));
            Ok((daemon, None))
        }
    }
}

/// Sends the compare-mode frames (one connection each, concurrently) and
/// returns `Σ t_err_sigmoid / Σ t_err_digital`, both against the analog
/// reference. Replies are golden-checked like every other frame.
fn t_err_ratio(addr: &str, plan: &Plan, goldens: &[String], tally: &mut Tally) -> f64 {
    let replies: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let threads: Vec<_> = plan
            .compare
            .iter()
            .map(|frame| {
                scope.spawn(move || {
                    let mut conn =
                        client::Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    client::exchange(
                        &mut conn,
                        1,
                        frame,
                        goldens,
                        Duration::from_secs(120),
                        false,
                    )
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("compare thread panicked"))
            .collect()
    });
    let (mut sigmoid, mut digital) = (0.0, 0.0);
    for reply in replies {
        tally.attempted += 1;
        match reply.map(|r| decode_response(&r)) {
            Ok(Ok(Response::Sim { result, .. })) if result.compare.is_some() => {
                let c = result.compare.expect("checked");
                sigmoid += c.t_err_sigmoid;
                digital += c.t_err_digital;
            }
            Ok(_) => tally.fail("compare reply without t_err".to_string()),
            Err(e) => tally.fail(format!("compare: {e}")),
        }
    }
    sigmoid / digital
}

fn end_to_end(
    text: &mut String,
    window: &Tally,
    setups: &[f64],
    t_err: f64,
    rss: f64,
    measure: Duration,
) -> Vec<Metric> {
    let n = window.samples.len();
    let summary = stats::summarize(&window.samples, WINDOW_CHUNKS);
    let pick = |f: fn(&stats::Summary) -> f64| summary.as_ref().map_or(f64::NAN, f);
    let setup = if setups.is_empty() {
        f64::NAN
    } else {
        stats::median(setups)
    };
    let values: [(f64, usize); 6] = [
        (pick(|s| s.sims_per_s), n),
        (pick(|s| s.p50_ms), n),
        (pick(|s| s.p90_ms), n),
        (t_err, workload::COMPARE_SEEDS.len()),
        (setup, setups.len()),
        (rss, 1),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect();
    writeln!(text, "end-to-end ({} s window):", measure.as_secs()).unwrap();
    for m in &metrics {
        writeln!(
            text,
            "  {:<16} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        )
        .unwrap();
    }
    if n > 0 {
        let all = stats::sorted(window.samples.iter().map(|s| s.latency_ms).collect());
        let p99 = if n >= P99_MIN_SAMPLES {
            ""
        } else {
            "  (under 1000 samples: not a stable figure)"
        };
        writeln!(
            text,
            "  {:<16} {:>14.6} {:<6} n={n}, whole window{p99}",
            "latency_p99_ms",
            stats::quantile(&all, 0.99),
            "ms"
        )
        .unwrap();
    }
    let error_rate = stats::ratio(window.failed as f64, window.attempted as f64);
    writeln!(
        text,
        "  {:<16} {:>14.6} {:<6} failed {} of {} window frames",
        "error_rate", error_rate, "ratio", window.failed, window.attempted
    )
    .unwrap();
    metrics
}

fn per_layer(
    text: &mut String,
    plain: &Tally,
    traced: &Tally,
    before: &StatsReply,
    after: &StatsReply,
    r: &replay::Replay,
) -> Vec<Metric> {
    let frames = traced.timings.len();
    let mean_of = |f: &dyn Fn(&client::Traced) -> f64| {
        stats::mean(&traced.timings.iter().map(f).collect::<Vec<_>>())
    };
    let rtt = mean_of(&|t| t.rtt_ms);
    let wire = mean_of(&|t| t.rtt_ms - t.phases.total_s * 1e3);
    let queue = mean_of(&|t| t.phases.queue_s * 1e3);
    let resolve = mean_of(&|t| t.phases.resolve_s * 1e3);
    let execute = mean_of(&|t| t.phases.execute_s * 1e3);
    let engine_self = r.execute_ms - r.project_ms - r.infer_ms;
    // The daemon's execute phase, split by the replay's shares.
    let split = |part: f64| execute * stats::ratio(part, r.execute_ms);
    let unattributed = rtt - (wire + queue + resolve + execute);
    let d = |f: fn(&StatsReply) -> u64| (f(after) - f(before)) as f64;
    let hits = d(|s| s.cache_hits);
    let program_hits = d(|s| s.program_hits);
    let deltas = d(|s| s.delta_hits);
    let plain_mean = stats::mean(
        &plain
            .samples
            .iter()
            .map(|s| s.latency_ms)
            .collect::<Vec<_>>(),
    );
    let n = frames;
    let rn = r.frames as usize;
    let values: [(f64, usize); 25] = [
        (rtt, n),
        (wire, n),
        (queue, n),
        (resolve, n),
        (execute, n),
        (d(|s| s.rejected), n),
        (stats::ratio(hits, hits + d(|s| s.cache_misses)), n),
        (
            stats::ratio(program_hits, program_hits + d(|s| s.program_misses)),
            n,
        ),
        (stats::ratio(d(|s| s.gates_reeval), deltas), n),
        (r.decode_us, rn),
        (r.encode_us, rn),
        (r.build_ms, rn),
        (r.compile_ms, rn),
        (r.load_s, 3),
        (r.execute_ms, rn),
        (r.project_ms, rn),
        (stats::ratio(r.project_ms, r.execute_ms), rn),
        (r.queries_per_req, rn),
        (r.moved_frac, rn),
        (r.infer_ms, rn),
        (r.rows_per_call, rn),
        (r.ns_per_row, rn),
        (engine_self, rn),
        (unattributed, n),
        (rtt - plain_mean, n + plain.samples.len()),
    ];
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
        })
        .collect();

    let share = |v: f64| 100.0 * stats::ratio(v, rtt);
    writeln!(
        text,
        "per-layer split of the client mean round trip ({frames} traced frames):"
    )
    .unwrap();
    for (name, value, what) in [
        (
            "serve.wire_ms",
            wire,
            "socket, mux/reactor, protocol decode + encode",
        ),
        ("serve.queue_ms", queue, "scheduler queue"),
        (
            "serve.resolve_ms",
            resolve,
            "registry, circuit + program caches",
        ),
        ("serve.execute_ms", execute, "engine: the three rows below"),
        (
            "  region.project_ms",
            split(r.project_ms),
            "valid-region projection",
        ),
        ("  nn.infer_ms", split(r.infer_ms), "MLP inference"),
        (
            "  engine.self_ms",
            split(engine_self),
            "bind, rounds, finalize",
        ),
        (
            "trace.unattributed_ms",
            unattributed,
            "daemon time outside its timed phases",
        ),
    ] {
        writeln!(
            text,
            "  {name:<22} {value:>10.4} ms {:>6.1}%  {what}",
            share(value)
        )
        .unwrap();
    }
    let ok = unattributed.abs() <= 0.1 * rtt;
    writeln!(
        text,
        "  {:<22} {rtt:>10.4} ms  remainder {:.1}% of it: {}",
        "= client mean",
        share(unattributed),
        if ok { "within 10%" } else { "OVER 10%" }
    )
    .unwrap();
    writeln!(
        text,
        "  serve.execute_ms {execute:.4} ms is split by the in-process replay's shares \
         (replay execute {:.4} ms, {:+.1}% off); projection share of execute {:.1}%",
        r.execute_ms,
        100.0 * (stats::ratio(r.execute_ms, execute) - 1.0),
        100.0 * stats::ratio(r.project_ms, r.execute_ms)
    )
    .unwrap();
    if let (Some(p), Some(t)) = (
        stats::summarize(&plain.samples, WINDOW_CHUNKS),
        stats::summarize(&traced.samples, WINDOW_CHUNKS),
    ) {
        writeln!(
            text,
            "tracing overhead (traced - untraced): mean {:+.4} ms, p50 {:+.4} ms, p90 {:+.4} ms, sims/s {:+.3}",
            rtt - plain_mean,
            t.p50_ms - p.p50_ms,
            t.p90_ms - p.p90_ms,
            t.sims_per_s - p.sims_per_s,
        )
        .unwrap();
    }
    writeln!(text, "per-layer metrics:").unwrap();
    for m in &metrics {
        writeln!(
            text,
            "  {:<28} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        )
        .unwrap();
    }
    metrics
}

/// Where and how the result was measured, as one JSON object.
fn host_record(args: &Args, stats: &StatsReply) -> String {
    let (rev, dirty) = git_state();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"git_rev\": \"{rev}\", \"dirty\": {dirty}, \"nproc\": {}, \"cpu\": \"{}\", \"simd_level\": \"{}\", \
         \"sig_obs\": \"unset\", \"obs_mode\": \"{}\", \"daemon_flags\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        cpu.replace('"', "'"),
        stats.simd_level,
        stats.obs_mode,
        daemon::flags().join(" "),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// The checkout's commit and whether it has uncommitted changes;
/// `"none"`/`null` outside a git repository.
fn git_state() -> (String, &'static str) {
    if !Path::new(".git").exists() {
        return ("none".to_string(), "null");
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
    let dirty = match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(s) if s.is_empty() => "false",
        Some(_) => "true",
        None => "null",
    };
    (rev, dirty)
}

/// The metric names, for the consistency tests.
#[cfg(test)]
fn metric_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().chain(&PER_LAYER).map(|&(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for name in metric_names() {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "bad metric name {name:?}"
            );
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        expected.extend(metric_names());
        assert_eq!(declared, expected);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }
}
