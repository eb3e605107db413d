//! `xdaq-benchmark` — the one measurement spine of xdaq-rs.
//!
//! One process measures one workload: construction → first operation
//! delivered end to end (`setup_s`, repeated, median) → untimed warm-up
//! → timed repetitions whose medians are the end-to-end metrics →
//! drain and correctness check. Every workload is a closed loop driven
//! from this one thread: all executives are pumped cooperatively
//! (`a.run_once(); b.run_once(); …` in fixed order), never spawned.
//!
//! `--trace 1` makes the separate traced run that yields the per-layer
//! ladder. The suite modes (`--suite`, `--check-repeat`, `--spread`,
//! `--smoke`) re-execute this binary once per workload so that set-up
//! time and peak memory belong to exactly one workload.
//!
//! See `benchmark/README.md` for the metric definitions.

mod check;
mod layers;
mod procfs;
mod spec;
mod stats;
mod sut;
mod trace;

use check::OpLog;
use layers::{Edge, Layers, OsCounts};
use serde_json::{json, Value};
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sut::{Probe, Rig};
use trace::{Recorder, Reduced};

/// Fewest set-ups per run; `setup_s` is the median of all of them.
const SETUP_REPEATS: usize = 9;
/// Bare set-ups (built, first operation delivered, torn down) go on
/// until this much time is spent or this many are done.
const SETUP_BUDGET: Duration = Duration::from_millis(300);
const SETUP_REPEATS_MAX: usize = 99;
/// Longest a set-up may wait for its first operation.
const SETUP_PATIENCE: Duration = Duration::from_secs(20);
/// Longest the drain waits for operations in flight.
const DRAIN_PATIENCE: Duration = Duration::from_secs(3);
/// Spans the in-memory buffer holds; a traced window ends when full.
const SPAN_CAP: usize = 1 << 19;
/// Spans written to the trace file (the head of the last window).
const TRACE_FILE_SPANS: usize = 1 << 16;
/// Idle policy of the pump, the product's own (`ExecutiveConfig`
/// default `idle_spins`): spin this many empty passes, then yield.
const IDLE_SPINS: u32 = 200;

/// How `--seconds` is spent: warm-up, then equal repetitions of at
/// least two seconds each (fewer, not shorter, when time is short).
struct Plan {
    warm: f64,
    reps: usize,
    rep_len: f64,
}

fn plan(seconds: f64) -> Plan {
    let warm = (0.1 * seconds).min(2.0);
    let rest = seconds - warm;
    let reps = ((rest / 2.0).floor() as usize).clamp(1, 5);
    Plan {
        warm,
        reps,
        rep_len: rest / reps as f64,
    }
}

/// One timed window of the closed loop.
struct Window {
    secs: f64,
    ops: u64,
    cpu_s: Option<f64>,
    /// Latency samples, ascending, ns.
    samples: Vec<u64>,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.secs
    }

    fn latency_us(&self, q: f64) -> Option<f64> {
        stats::percentile(&self.samples, q).map(|ns| ns as f64 / 1000.0)
    }

    fn cpu_us_per_op(&self) -> Option<f64> {
        let cpu = self.cpu_s?;
        (self.ops > 0).then(|| cpu * 1e6 / self.ops as f64)
    }
}

/// Pumps for `len` (or until the span buffer is full).
fn run_window(
    rig: &Rig,
    log: &OpLog,
    len: f64,
    expected_rate: f64,
    rec: Option<&Recorder>,
) -> Window {
    log.begin_window((expected_rate * len * 1.5) as u64);
    let ops0 = log.completed();
    let cpu0 = procfs::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(len);
    let (mut idle, mut pass) = (0u32, 0u32);
    loop {
        if rig.pump() > 0 {
            idle = 0;
        } else {
            idle += 1;
            if idle < IDLE_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        pass = pass.wrapping_add(1);
        if pass % 16 == 0 && (Instant::now() >= deadline || rec.is_some_and(Recorder::is_full)) {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let cpu1 = procfs::cpu_seconds();
    Window {
        secs,
        ops: log.completed() - ops0,
        cpu_s: cpu0.zip(cpu1).map(|(a, b)| (b.0 + b.1) - (a.0 + a.1)),
        samples: log.end_window(),
    }
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Single,
    Suite,
    CheckRepeat,
    Spread,
    Smoke,
}

fn usage() -> ! {
    eprintln!(
        "usage: xdaq-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n\
         \x20      xdaq-benchmark --suite [--trace 0|1] | --check-repeat | --spread | --smoke  [--seed N] [--seconds S]\n\
         workloads: {}",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        mode: Mode::Single,
    };
    let mut seconds_given = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.seconds = value().parse().unwrap_or_else(|_| usage());
                seconds_given = true;
            }
            "--trace" => cli.trace = value() == "1",
            "--out" => cli.out = PathBuf::from(value()),
            "--suite" => cli.mode = Mode::Suite,
            "--check-repeat" => cli.mode = Mode::CheckRepeat,
            "--spread" => cli.mode = Mode::Spread,
            "--smoke" => cli.mode = Mode::Smoke,
            _ => usage(),
        }
    }
    if cli.mode == Mode::Smoke && !seconds_given {
        cli.seconds = 0.5;
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        usage();
    }
    cli
}

fn fingerprint(xpt_backend: &str, uring: bool) -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    json!({
        "cpus": std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        "kernel": procfs::kernel_release().unwrap_or_else(|| "unknown".to_string()),
        "io_uring_granted": uring,
        "xpt_backend": xpt_backend,
        "rustc": env("XDAQ_BENCH_RUSTC"),
        "commit": env("XDAQ_BENCH_COMMIT"),
    })
}

/// Builds the rig and pumps until its first operation has been
/// delivered end to end. Returns the rig and the seconds it took.
fn set_up(w: &Workload, seed: u64, probe: &Probe, scratch: &Path) -> Result<(Rig, f64), String> {
    probe.log.reset();
    let start = Instant::now();
    let rig = Rig::build(w.shape, seed, probe, scratch)?;
    rig.kick()?;
    while probe.log.completed() == 0 {
        if rig.pump() == 0 {
            std::thread::yield_now();
        }
        if start.elapsed() > SETUP_PATIENCE {
            rig.teardown();
            return Err(format!(
                "{}: no operation completed within {SETUP_PATIENCE:?}",
                w.name
            ));
        }
    }
    Ok((rig, start.elapsed().as_secs_f64()))
}

fn nullable(v: Option<f64>) -> Value {
    match v {
        Some(v) if v.is_finite() => Value::from(v),
        _ => Value::Null,
    }
}

/// What one repetition — a fresh rig, measured and drained — produced.
struct Repetition {
    setup_s: f64,
    plain: Window,
    traced: Option<(Window, Layers)>,
    completed: u64,
    failed: u64,
    stuck: u64,
    violations: Vec<String>,
    chaos_dropped: u64,
    evb: Option<(u64, u64, u64)>,
    xpt_uring: Option<bool>,
}

/// One repetition: set-up → warm-up → timed window (in a traced
/// process an untraced half, then a traced half) → drain → check →
/// teardown. Every repetition gets a rig of its own, so whatever a rig
/// fixes when it is built (which core a transport thread lands on,
/// socket buffers, pool layout) is drawn again per repetition and the
/// run's median averages over it.
fn repetition(
    w: &Workload,
    seed: u64,
    p: &Plan,
    probe: &Probe,
    scratch: &Path,
    spans: &mut Vec<trace::Span>,
) -> Result<Repetition, String> {
    let (rig, setup_s) = set_up(w, seed, probe, scratch)?;
    let log = &probe.log;
    let xpt_uring = procfs::has_fd_linking_to("io_uring");

    // Untimed warm-up; its rate sizes the sampling stride.
    let rate = run_window(&rig, log, p.warm / p.reps as f64, 0.0, None).ops_per_s();
    let (plain, traced) = match probe.rec.as_deref() {
        None => (run_window(&rig, log, p.rep_len, rate, None), None),
        Some(rec) => {
            let plain = run_window(&rig, log, p.rep_len / 2.0, rate, None);
            rec.clear();
            let edge = || Edge {
                nodes: rig.counts(),
                os: OsCounts::now(),
                evb: rig.evb_extras(),
            };
            let before = edge();
            rec.set_on(true);
            let win = run_window(&rig, log, p.rep_len / 2.0, rate, Some(rec));
            rec.set_on(false);
            let after = edge();
            *spans = rec.spans();
            let layers = layers::of_window(
                &Reduced::from_spans(spans),
                &before,
                &after,
                win.ops,
                win.latency_us(0.5),
                |role| rig.nodes_with(role),
            );
            (plain, Some((win, layers)))
        }
    };

    let threads = procfs::threads();
    let quiesced = rig.quiesce(DRAIN_PATIENCE);
    let mut violations = quiesced.violations;
    if w.cooperative && threads.is_some_and(|t| t != 1) {
        violations.push(format!(
            "cooperative workload ran on {} threads",
            threads.unwrap_or(0)
        ));
    }
    let rep = Repetition {
        setup_s,
        plain,
        traced,
        completed: log.completed(),
        failed: log.failed(),
        stuck: quiesced.stuck,
        violations,
        chaos_dropped: rig.chaos_dropped(),
        evb: rig.evb_extras(),
        xpt_uring,
    };
    rig.teardown();
    Ok(rep)
}

/// Runs one workload; returns its result record, in which
/// `metrics.<name>.value` is `null` for a metric that does not exist on
/// this workload.
fn run_single(w: &Workload, cli: &Cli) -> Result<Value, String> {
    // glibc raises its mmap threshold the first time a large block is
    // freed; until then 128 KiB pool blocks are mmapped and faulted in
    // on every set-up, after it they come from the heap. Which regime a
    // process is in when set-ups are timed would otherwise be chance
    // (set-up medians of 0.8 or 1.7 ms on stream_xpt_64k). Settle it.
    drop(std::hint::black_box(vec![1u8; 4 << 20]));
    let uring = sut::uring_granted();
    let probe = Probe {
        log: Arc::new(OpLog::new()),
        rec: cli.trace.then(|| Arc::new(Recorder::new(SPAN_CAP))),
    };
    let scratch = cli.out.join(format!("shm-{}", std::process::id()));
    let p = plan(cli.seconds);

    // Bare set-ups first: `setup_s` is a median of at least
    // SETUP_REPEATS values however few repetitions the run has, and of
    // many when a set-up is cheap (tens of microseconds on gm://).
    let mut setups = Vec::new();
    let budget = Instant::now() + SETUP_BUDGET;
    while setups.len() + p.reps < SETUP_REPEATS
        || (Instant::now() < budget && setups.len() < SETUP_REPEATS_MAX)
    {
        let (rig, secs) = set_up(w, cli.seed, &probe, &scratch)?;
        rig.teardown();
        setups.push(secs);
    }
    let mut reps = Vec::new();
    let mut last_spans = Vec::new();
    for k in 0..p.reps {
        // Same --seed, same inputs; another stream per repetition.
        let seed = cli.seed ^ ((k as u64) << 32);
        reps.push(repetition(w, seed, &p, &probe, &scratch, &mut last_spans)?);
    }
    setups.extend(reps.iter().map(|r| r.setup_s));

    let xpt_backend = match (w.shape.socket_transport(), reps[0].xpt_uring) {
        (Some("xpt"), Some(true)) => "uring",
        (Some("xpt"), Some(false)) => "epoll",
        (Some("xpt"), None) => "unknown",
        _ => "unused",
    };
    let violations: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
    let sum = |f: fn(&Repetition) -> u64| reps.iter().map(f).sum::<u64>();
    let stuck = sum(|r| r.stuck);
    let failed = sum(|r| r.failed) + stuck + violations.len() as u64;
    let attempted = sum(|r| r.completed) + sum(|r| r.failed) + stuck;
    let extras = json!({
        "chaos_dropped_frames": sum(|r| r.chaos_dropped),
        "evb_reassigned": sum(|r| r.evb.map_or(0, |e| e.0)),
        "evb_discards_seen": sum(|r| r.evb.map_or(0, |e| e.1)),
        "evb_corrupt_fragments_seen": sum(|r| r.evb.map_or(0, |e| e.2)),
        "stuck_ops": stuck,
    });

    // Reduce: every value is the median over the repetitions.
    let med = |f: &dyn Fn(&Window) -> Option<f64>| {
        stats::median(&reps.iter().filter_map(|r| f(&r.plain)).collect::<Vec<_>>())
    };
    let rates: Vec<f64> = reps.iter().map(|r| r.plain.ops_per_s()).collect();
    let mut metrics: BTreeMap<&'static str, Option<f64>> = BTreeMap::new();
    if cli.trace {
        let windows: Vec<Layers> = reps
            .iter()
            .filter_map(|r| r.traced.as_ref().map(|(_, layers)| layers.clone()))
            .collect();
        metrics.extend(layers::median_of(&windows));
        let overhead: Vec<f64> = reps
            .iter()
            .filter(|r| r.plain.ops > 0)
            .filter_map(|r| {
                let (traced, _) = r.traced.as_ref()?;
                Some((r.plain.ops_per_s() - traced.ops_per_s()) / r.plain.ops_per_s())
            })
            .collect();
        metrics.insert("trace.overhead_share", stats::median(&overhead));
        metrics.insert("tail.lat_p99_us", med(&|w| w.latency_us(0.99)));
        metrics.insert("tail.lat_p999_us", med(&|w| w.latency_us(0.999)));
        metrics.insert("rep.ops_per_s_mad_share", stats::mad_share(&rates));
        let path = cli.out.join(format!("trace_{}.json", w.name));
        trace::write_file(&path, w.name, &last_spans, TRACE_FILE_SPANS)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        metrics.insert("ops_per_s", stats::median(&rates));
        metrics.insert("lat_p50_us", med(&|w| w.latency_us(0.5)));
        metrics.insert("lat_p90_us", med(&|w| w.latency_us(0.9)));
        metrics.insert("cpu_us_per_op", med(&Window::cpu_us_per_op));
        metrics.insert("setup_s", stats::median(&setups));
        metrics.insert("peak_rss_mib", procfs::peak_rss_mib());
    }

    let table = if cli.trace { PER_LAYER } else { END_TO_END };
    let failed_share = failed as f64 / attempted.max(1) as f64;
    let record = json!({
        "workload": w.name,
        "why": w.why,
        "in_flight": w.in_flight,
        "seed": cli.seed,
        "seconds": cli.seconds,
        "traced": cli.trace,
        "fingerprint": fingerprint(xpt_backend, uring),
        "plan": {"warm_s": p.warm, "repetitions": p.reps, "repetition_s": p.rep_len},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed_share,
        "correct": failed == 0,
        "violations": violations,
        "extras": extras,
        "setup_s_each": setups,
        "repetitions": reps.iter().map(|r| {
            let w = &r.plain;
            json!({
                "seconds": w.secs,
                "ops": w.ops,
                "ops_per_s": w.ops_per_s(),
                "samples": w.samples.len() as u64,
                "lat_p50_us": nullable(w.latency_us(0.5)),
                "lat_p90_us": nullable(w.latency_us(0.9)),
                "lat_p99_us": nullable(w.latency_us(0.99)),
                "lat_p999_us": nullable(w.latency_us(0.999)),
                "cpu_us_per_op": nullable(w.cpu_us_per_op()),
                "traced_seconds": nullable(r.traced.as_ref().map(|(t, _)| t.secs)),
                "traced_ops_per_s": nullable(r.traced.as_ref().map(|(t, _)| t.ops_per_s())),
                "traced_lat_p50_us": nullable(r.traced.as_ref().and_then(|(t, _)| t.latency_us(0.5))),
            })
        }).collect::<Vec<_>>(),
        "ops_per_s_mad_share": nullable(stats::mad_share(&rates)),
        "metrics": table.iter().map(|m| (m.name.to_string(), json!({
            "value": nullable(metrics.get(m.name).copied().flatten()),
            "unit": m.unit,
        }))).collect::<serde_json::Map>(),
    });
    Ok(record)
}

fn print_metric(m: &Metric, value: Option<f64>) {
    match value {
        Some(v) => println!("{:<32} {:>16.4} {}", m.name, v, m.unit),
        None => println!("{:<32} {:>16} {}", m.name, "null", m.unit),
    }
}

fn value_of(record: &Value, metric: &str) -> Option<f64> {
    record["metrics"][metric]["value"].as_f64()
}

/// Prints every metric by name with its unit, then the driver's line.
fn report(w: &Workload, cli: &Cli, record: &Value) {
    let table = if cli.trace { PER_LAYER } else { END_TO_END };
    println!(
        "# {} seed={} seconds={} trace={} in_flight={}",
        w.name, cli.seed, cli.seconds, cli.trace as u8, w.in_flight
    );
    println!("# fingerprint {}", record["fingerprint"]);
    let attempted = record["attempted"].as_u64().unwrap_or(0);
    let failed = record["failed"].as_u64().unwrap_or(0);
    let mut line = serde_json::Map::new();
    for m in table {
        let value = value_of(record, m.name);
        print_metric(m, value);
        // The driver's line carries numbers only: a metric that does
        // not exist on this workload reads 0 there, null in the record.
        line.insert(
            m.name.to_string(),
            json!({"value": value.unwrap_or(0.0), "unit": m.unit}),
        );
    }
    println!(
        "{:<32} {:>16.6} ratio   ({} failed of {} attempted)",
        "failed_share",
        record["failed_share"].as_f64().unwrap_or(0.0),
        failed,
        attempted
    );
    for v in record["violations"].as_array().into_iter().flatten() {
        println!("# violation: {}", v.as_str().unwrap_or("?"));
    }
    println!(
        "{}",
        json!({
            "correct": failed == 0,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": line,
        })
    );
}

fn write_record(cli: &Cli, name: &str, record: &Value) -> Result<(), String> {
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("create {}: {e}", cli.out.display()))?;
    let path = cli.out.join(name);
    let text = serde_json::to_string_pretty(record).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Suite modes: one child process per workload
// ---------------------------------------------------------------------

/// Runs one workload in a child process; returns its result record.
fn child(cli: &Cli, w: &Workload, seed: u64, trace: bool, seconds: f64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out)
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let kind = if trace { "layers" } else { "e2e" };
    let path = cli.out.join(format!("result_{}_{kind}.json", w.name));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e:?}", path.display()))
}

/// The workloads a suite mode covers: all, or the one `--workload` names.
fn selected(cli: &Cli) -> impl Iterator<Item = &'static Workload> + '_ {
    WORKLOADS
        .iter()
        .filter(|w| cli.workload.as_deref().is_none_or(|name| name == w.name))
}

/// One pass over the workloads; prints each record as it arrives.
fn suite(cli: &Cli, seed: u64, trace: bool) -> Result<Vec<Value>, String> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut records = Vec::new();
    for w in selected(cli) {
        let r = child(cli, w, seed, trace, cli.seconds)?;
        println!(
            "## {}  attempted={} failed={} failed_share={}",
            w.name, r["attempted"], r["failed"], r["failed_share"]
        );
        for m in table {
            print_metric(m, value_of(&r, m.name));
        }
        records.push(r);
    }
    Ok(records)
}

/// `value` is worse than `reference` by this share of `reference`
/// (negative = better), in the metric's own direction.
fn worsening(m: &Metric, reference: f64, value: f64) -> f64 {
    let change = (value - reference) / reference.abs();
    if m.better == "lower" {
        change
    } else {
        -change
    }
}

fn failures(records: &[Value]) -> Vec<String> {
    records
        .iter()
        .filter(|r| r["failed"].as_u64() != Some(0))
        .map(|r| {
            format!(
                "{}: {} of {} operations failed {}",
                r["workload"].as_str().unwrap_or("?"),
                r["failed"],
                r["attempted"],
                r["violations"]
            )
        })
        .collect()
}

/// Two untraced passes on the same build, on the same host. The rule is
/// the CI driver's: on no workload may an end-to-end metric of the
/// second pass be worse than the first by more than its bound.
fn check_repeat(cli: &Cli) -> Result<Vec<String>, String> {
    // Both passes must meet the same environment: the first tcp:// run
    // after minutes without one sets up 0.2 ms slower than the next.
    println!("# pass 0 (0.5 s per workload, discarded)");
    for w in selected(cli) {
        child(cli, w, cli.seed, false, 0.5)?;
    }
    println!("# pass 1");
    let first = suite(cli, cli.seed, false)?;
    println!("# pass 2");
    let second = suite(cli, cli.seed, false)?;
    let mut problems = failures(&first);
    problems.extend(failures(&second));
    println!("\n# repeatability: pass 1, pass 2, worsening (+ = pass 2 worse), bound");
    for (a, b) in first.iter().zip(&second) {
        let name = a["workload"].as_str().unwrap_or("?");
        if a["fingerprint"] != b["fingerprint"] {
            problems.push(format!("{name}: host fingerprints differ"));
        }
        for m in END_TO_END {
            let (Some(x), Some(y)) = (value_of(a, m.name), value_of(b, m.name)) else {
                problems.push(format!("{name} {}: value missing", m.name));
                continue;
            };
            let worse = worsening(m, x, y);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse <= bound { "ok" } else { "EXCEEDS" };
            println!(
                "{name:<18} {:<14} {x:>14.4} {y:>14.4} {:>8} {worse:>+8.4} {bound:>6.2} {verdict}",
                m.name, m.unit
            );
            if worse > bound {
                problems.push(format!(
                    "{name} {}: {y} is worse than {x} by {worse:.3} > {bound}",
                    m.name
                ));
            }
        }
    }
    Ok(problems)
}

/// Ten untraced runs per workload, each with another seed: the spread
/// (interquartile distance as a share of the median) of every
/// end-to-end metric, against its bound.
fn spread(cli: &Cli) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    println!("# spread over 10 seeds: metric median iqr_share bound verdict [values]");
    for w in selected(cli) {
        let mut runs = Vec::new();
        for k in 0..10 {
            runs.push(child(cli, w, cli.seed + k, false, cli.seconds)?);
        }
        problems.extend(failures(&runs));
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, m.name)).collect();
            let median = stats::median(&values).unwrap_or(f64::NAN);
            let share = stats::iqr_share(&values).unwrap_or(f64::NAN);
            let bound = m.bound.unwrap_or(0.0);
            // setup_s is exempt from the spread rule, not from the print.
            let gated = m.name != "setup_s";
            let verdict = match share {
                _ if !gated => "exempt",
                s if s <= bound / 3.0 => "ok",
                s if s <= bound => "WIDE",
                _ => "EXCEEDS",
            };
            println!(
                "{:<18} {:<14} {median:>14.4} {:>6} {share:>8.4} {bound:>6.2} {verdict:<7} {values:.4?}",
                w.name, m.name, m.unit
            );
            if verdict == "EXCEEDS" {
                problems.push(format!(
                    "{} {}: spread {share:.3} > bound {bound}",
                    w.name, m.name
                ));
            }
        }
    }
    Ok(problems)
}

fn main() {
    let cli = parse_cli();
    let verdict = match cli.mode {
        Mode::Single => {
            let Some(w) = cli.workload.as_deref().and_then(spec::workload) else {
                usage()
            };
            run_single(w, &cli).and_then(|record| {
                let kind = if cli.trace { "layers" } else { "e2e" };
                write_record(&cli, &format!("result_{}_{kind}.json", w.name), &record)?;
                report(w, &cli, &record);
                Ok(Vec::new())
            })
        }
        // No bounds applied: a quick pass that everything runs and
        // verifies, traced and untraced.
        Mode::Smoke => suite(&cli, cli.seed, false).and_then(|mut records| {
            records.extend(suite(&cli, cli.seed, true)?);
            Ok(failures(&records))
        }),
        Mode::Suite => suite(&cli, cli.seed, cli.trace).map(|r| failures(&r)),
        Mode::CheckRepeat => check_repeat(&cli),
        Mode::Spread => spread(&cli),
    };
    match verdict {
        Ok(problems) if problems.is_empty() => {}
        Ok(problems) => {
            for p in &problems {
                eprintln!("FAIL {p}");
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
