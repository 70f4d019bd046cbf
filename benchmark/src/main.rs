//! The repo benchmark: four traffic shapes on the paper cluster.
//!
//! ```text
//! afc-benchmark [run]  --workload <name> --seed <n> [--seconds <s>] [--quick]
//! afc-benchmark trace  --workload <name> --seed <n> [--seconds <s>] [--quick]
//! afc-benchmark describe            # prints BENCHMARK.json
//! ```
//!
//! `--trace 0|1` selects `run`/`trace` too (the driver's spelling). See
//! README.md for what is measured and why.

mod drivers;
mod estimators;
mod generator;
mod layers;
mod procfs;
mod report;
mod sut;
mod trace;
mod workload;

use afc_common::metrics::MetricsSnapshot;
use estimators::Window;
use generator::{GenConfig, RunStats};
use procfs::HostNoise;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sut::{ClusterTarget, Delays};
use workload::{OpStream, Pacing, Workload};

/// Times the cluster is set up per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Nominal window length: short enough that a neighbour's burst (a few
/// hundred ms on this class of host) spoils one or two, long enough that 1 %
/// of its CPU capacity is a whole steal tick.
const WINDOW_NS: u64 = 500_000_000;
/// Longest silence the watchdog tolerates outside the load phases.
const IDLE_LIMIT: Duration = Duration::from_secs(60);
/// Longest run the watchdog tolerates (the driver's limit is 180 s).
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Windows in a measured phase, at least.
const MIN_WINDOWS: u64 = 20;

struct Args {
    traced: bool,
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    quick: bool,
}

impl Args {
    /// Discarded lead-in of a run.
    fn warmup(&self) -> Duration {
        if self.quick {
            Duration::from_millis(500)
        } else {
            Duration::from_secs(3)
        }
    }

    /// Measured time of a run.
    fn measure(&self) -> Duration {
        Duration::from_secs(if self.quick { 2 } else { self.seconds })
    }
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: afc-benchmark [run|trace|describe] --workload <{}> --seed <n> \
         [--seconds <1..60>] [--trace 0|1] [--quick]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut traced = false;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = report::RUN_SECONDS;
    let mut quick = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "run" => traced = false,
            "trace" => traced = true,
            "--quick" => quick = true,
            "--workload" => {
                let name = value("a name")?;
                workload = Some(workload::by_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be 1..60".into());
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is not 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        traced,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        quick,
    })
}

/// Ends the process if the heartbeat stops for [`IDLE_LIMIT`] or the run
/// outlives [`RUN_LIMIT`]: the backstop for the blocking calls the
/// generator's own deadlines do not cover (build, quiesce, scrub, shutdown).
/// Each of those is announced on stderr when it starts, so the last line
/// before the watchdog's names the call that hung.
///
/// The idle limit is far above the generator's 10 s stall limit on purpose:
/// a 10 s limit ended a healthy run while a neighbour held the CPUs and the
/// drain and scrub ran at a tenth of their speed. That is a slow host, not a
/// hang.
struct Watchdog {
    beat: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start() -> Self {
        let beat = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (b, s) = (Arc::clone(&beat), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            let (mut seen, mut since) = (0, started);
            // ordering: the flag and the beat publish nothing else.
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let now = b.load(Ordering::Relaxed);
                if now != seen {
                    (seen, since) = (now, Instant::now());
                }
                if since.elapsed() > IDLE_LIMIT || started.elapsed() > RUN_LIMIT {
                    eprintln!(
                        "watchdog: {:?} since the last completion, {:?} since the start; giving up",
                        since.elapsed(),
                        started.elapsed()
                    );
                    std::process::exit(4);
                }
            }
        });
        Watchdog {
            beat,
            stop,
            thread: Some(thread),
        }
    }

    fn beat(&self) {
        self.beat.fetch_add(1, Ordering::Relaxed);
    }

    /// Announce a call the generator does not time, and count it as progress.
    fn enter(&self, call: &str) {
        eprintln!("afc-benchmark: {call}");
        self.beat();
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// CPUs this process may run on.
fn cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// Phase lengths of one generator run.
fn gen_config(
    pacing: Pacing,
    warmup: Duration,
    measure: Duration,
    record_spans: bool,
) -> GenConfig {
    let measure_ns = measure.as_nanos() as u64;
    let windows = (measure_ns / WINDOW_NS).max(MIN_WINDOWS);
    GenConfig {
        pacing,
        warmup_ns: warmup.as_nanos() as u64,
        window_ns: measure_ns / windows,
        windows: windows as usize,
        deadline_ns: generator::OP_DEADLINE_NS,
        suspect_ns: generator::SUSPECT_NS,
        stall_ns: generator::STALL_NS,
        max_outstanding: generator::MAX_OUTSTANDING,
        record_spans,
    }
}

/// Build, prefill and drain a cluster; returns it with the time that took.
fn set_up(seed: u64, delays: Delays, dog: &Watchdog) -> Result<(afc_core::Cluster, f64), String> {
    dog.enter("set-up: build, prefill, quiesce");
    let t = Instant::now();
    let cluster = sut::build(seed, delays);
    let client = cluster.client().map_err(|e| format!("client: {e}"))?;
    sut::prefill(&cluster, &client, &|| dog.beat())?;
    Ok((cluster, t.elapsed().as_secs_f64()))
}

/// Drain, take the registry's final reading, then check the replicas against
/// each other (the scrub's own reads must not count as the workload's).
/// Outside every timed window.
fn drain_and_scrub(
    cluster: &afc_core::Cluster,
    dog: &Watchdog,
) -> Result<(MetricsSnapshot, bool), String> {
    dog.enter("drain: quiesce");
    cluster.quiesce();
    let drained = cluster.metrics_snapshot();
    dog.enter("deep scrub");
    let report = cluster
        .deep_scrub()
        .map_err(|e| format!("deep scrub: {e}"))?;
    dog.beat();
    if !report.is_clean() {
        eprintln!(
            "deep scrub: {} inconsistent objects",
            report.inconsistent.len()
        );
    }
    let clean = report.is_clean() && report.objects_checked == u64::from(workload::OBJECTS);
    Ok((drained, clean))
}

fn print_metrics(metrics: &[(&report::MetricDef, f64)]) {
    for (def, value) in metrics {
        println!("{:<40} {value:>16.4} {}", def.name, def.unit);
    }
}

fn print_noise(before: &HostNoise, after: &HostNoise) {
    let steal = match (before.steal_ticks, after.steal_ticks) {
        (Some(b), Some(a)) => (a - b).to_string(),
        _ => "n/a".into(),
    };
    let pct = |p: Option<f64>| p.map_or("n/a".into(), |v| v.to_string());
    println!(
        "host: steal_ticks={steal} pressure_some_avg10_before={} pressure_some_avg10_after={} cpus={}",
        pct(before.pressure_avg10),
        pct(after.pressure_avg10),
        cpus()
    );
}

/// Run the generator. A run cut short by the stall limit says what it
/// measured, then fails.
fn drive(
    target: &mut ClusterTarget,
    cfg: &GenConfig,
    ops: &mut OpStream,
) -> Result<RunStats, String> {
    let stats = generator::run(target, cfg, ops);
    if !stats.stalled {
        return Ok(stats);
    }
    println!(
        "partial: {} of the windows closed, {} ops completed, {} attempted, {} failed",
        stats.windows.len(),
        stats.completed(),
        stats.attempted,
        stats.failed
    );
    Err(format!(
        "no op completed for {} s; run abandoned",
        generator::STALL_NS / 1_000_000_000
    ))
}

/// The windows the hypervisor left alone, with their ops' latencies.
fn quiet_part(stats: &RunStats) -> (Vec<Window>, Vec<u64>) {
    stats.select(&estimators::quiet_windows(&stats.windows, cpus()))
}

/// What a finished run hands to `main`.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// The untraced run: the six end-to-end metrics.
fn run_untraced(args: &Args, dog: &Watchdog) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let (cluster, setup_s) = set_up(args.seed, Delays::Modeled, dog)?;
    setups.push(setup_s);
    let prefilled = cluster.metrics_snapshot();

    let progress = || dog.beat();
    let mut target = ClusterTarget::new(&cluster, &progress);
    let cfg = gen_config(args.workload.pacing, args.warmup(), args.measure(), false);
    let stats = drive(
        &mut target,
        &cfg,
        &mut OpStream::new(args.workload, args.seed),
    )?;
    let (drained, clean) = drain_and_scrub(&cluster, dog)?;
    let rss_mb = procfs::vm_hwm_mib();
    // Bytes are counted between two drained states and divided by every op
    // completed between them, warm-up included: nothing is in flight at
    // either end, so the count has no boundary to blur it.
    let delta = layers::Delta::new(&prefilled, &drained);
    let dev_bytes = layers::dev_bytes_per_op(&delta, stats.completed_all);
    let correct = clean && target.mismatches == 0;
    drop(target);
    dog.enter("shutdown");
    cluster.shutdown();
    drop(cluster);

    // Peak RSS is read above, so the repeated set-ups cannot inflate it.
    for _ in 1..if args.quick { 1 } else { SETUPS } {
        let (cluster, setup_s) = set_up(args.seed, Delays::Modeled, dog)?;
        setups.push(setup_s);
        dog.enter("shutdown");
        cluster.shutdown();
    }

    let (windows, latencies) = quiet_part(&stats);
    println!(
        "windows: {} of {} used ({} left out as stolen)",
        windows.len(),
        stats.windows.len(),
        stats.windows.len() - windows.len()
    );
    let missing = |what: &str| format!("{what}: nothing completed in the measured phase");
    let metrics = vec![
        (
            "ops_per_s".to_string(),
            estimators::window_ops_per_s(&windows).ok_or(missing("ops_per_s"))?,
        ),
        ("lat_p50_us".to_string(), estimators::p50_us(&latencies)),
        (
            "cpu_us_per_op".to_string(),
            estimators::window_cpu_us_per_op(&windows).ok_or(missing("cpu_us_per_op"))?,
        ),
        ("dev_bytes_per_op".to_string(), dev_bytes),
        ("rss_mb".to_string(), rss_mb),
        (
            "setup_s".to_string(),
            estimators::median(&setups).expect("at least one set-up"),
        ),
    ];
    if stats.failed > 0 {
        println!(
            "lost ops: {} of {} attempted failed ({} by the {} s deadline)",
            stats.failed,
            stats.attempted,
            stats.timed_out,
            generator::OP_DEADLINE_NS / 1_000_000_000
        );
    }
    Ok(Outcome {
        correct,
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
    })
}

/// The traced run: the per-layer metrics and the span file.
fn run_traced(args: &Args, dog: &Watchdog) -> Result<Outcome, String> {
    // The run's seconds are split: a quarter measures the workload with
    // spans off (the reference for `trace.overhead_pct`), half measures it
    // with spans kept, a quarter is the software-only QD1 pass.
    let (warmup, total) = (args.warmup(), args.measure());
    let calls = if args.quick {
        drivers::CALLS / 10
    } else {
        drivers::CALLS
    };
    let (cluster, _) = set_up(args.seed, Delays::Modeled, dog)?;
    let progress = || dog.beat();
    let mut target = ClusterTarget::new(&cluster, &progress);
    let mut ops = OpStream::new(args.workload, args.seed);

    let cfg = gen_config(args.workload.pacing, warmup, total / 4, false);
    let reference = drive(&mut target, &cfg, &mut ops)?;
    let at = target.snapshots.len();
    let cfg = gen_config(args.workload.pacing, warmup / 3, total / 2, true);
    let stats = drive(&mut target, &cfg, &mut ops)?;
    let (_, clean) = drain_and_scrub(&cluster, dog)?;
    let delta = layers::Delta::new(&target.snapshots[at], &target.snapshots[at + 1]);
    let mut metrics = layers::workload_metrics(args.workload, &stats, &delta);
    let correct = clean && target.mismatches == 0;
    drop(target);
    dog.enter("shutdown");
    cluster.shutdown();
    drop(cluster);

    let rate = |s: &RunStats| estimators::window_ops_per_s(&quiet_part(s).0).unwrap_or(0.0);
    let overhead = (rate(&reference) - rate(&stats)) / rate(&reference) * 100.0;
    metrics.push(("trace.overhead_pct".to_string(), overhead));

    // Software-only latency: the QD1 write path with every modeled delay
    // at zero.
    let (cluster, _) = set_up(args.seed, Delays::Zero, dog)?;
    let mut target = ClusterTarget::new(&cluster, &progress);
    let qd1 = workload::by_name("w4k_qd1").expect("w4k_qd1 exists");
    let cfg = gen_config(qd1.pacing, warmup / 3, total / 4, false);
    let sw = drive(&mut target, &cfg, &mut OpStream::new(qd1, args.seed))?;
    metrics.push((
        "client.sw_lat_p50_us".to_string(),
        estimators::p50_us(&sw.latencies_ns),
    ));
    drop(target);
    dog.enter("shutdown");
    cluster.shutdown();
    drop(cluster);

    dog.enter("layer drivers");
    let mut rec = trace::Recorder::default();
    metrics.extend(drivers::run_all(&mut rec, calls));
    dog.beat();

    let file = trace::TraceFile {
        workload: args.workload.name,
        seed: args.seed,
        ops: &stats.spans,
        spans: rec.spans(),
        metrics: &metrics,
    };
    // `cargo run` names the package directory at run time; a bare binary
    // falls back to where it was built.
    let package = std::env::var("CARGO_MANIFEST_DIR").unwrap_or(env!("CARGO_MANIFEST_DIR").into());
    let dir = Path::new(&package).join("out");
    match file.write_into(&dir) {
        Ok(path) => println!(
            "trace: {} op spans, {} layer spans -> {}",
            stats.spans.len(),
            rec.spans().len(),
            path.display()
        ),
        Err(e) => return Err(format!("write trace into {}: {e}", dir.display())),
    }
    Ok(Outcome {
        correct,
        attempted: stats.attempted,
        failed: stats.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("describe") {
        print!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let dog = Watchdog::start();
    let before = HostNoise::read();
    let outcome = if args.traced {
        run_traced(&args, &dog)
    } else {
        run_untraced(&args, &dog)
    };
    let after = HostNoise::read();
    drop(dog);
    print_noise(&before, &after);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("afc-benchmark: {e}");
            return ExitCode::from(3);
        }
    };
    let metrics = if args.traced {
        report::in_catalogue_order(report::PER_LAYER.iter(), &outcome.metrics)
    } else {
        report::in_catalogue_order(report::END_TO_END.iter().map(|(m, _)| m), &outcome.metrics)
    };
    print_metrics(&metrics);
    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics
        )
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("afc-benchmark: outputs are wrong (read mismatch or unclean deep scrub)");
        ExitCode::from(1)
    }
}
