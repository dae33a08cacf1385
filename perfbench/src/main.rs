//! `tsss-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `tsss_perfbench::workload::WORKLOADS`) and
//! prints its metrics, one per line, then the JSON result as the last
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` the
//! per-layer split from a separate traced run. Scratch files go under
//! `--work-dir` (removed at exit) and span dumps under `--out-dir`.

#![forbid(unsafe_code)]

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use tsss_perfbench::layers::{self, Layers, TracedServer};
use tsss_perfbench::serve::{self, AppendLog, Library, ReadLog, Window};
use tsss_perfbench::stats::{self, percentile, Percentile};
use tsss_perfbench::trace::{self, Span, Tracer};
use tsss_perfbench::workload::{self, Inputs, Workload, CONNECTIONS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Tail percentile the latency metrics ask for.
const TAIL_PCT: f64 = 99.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: tsss-perfbench --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--work-dir <dir>] [--out-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = PathBuf::from(".perfbench_work");
    let mut out_dir = PathBuf::from(".perfbench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::by_name(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name, std::process::id()));
    let outcome = run(&args, &dir);
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("perfbench: could not remove {}: {e}", dir.display());
        }
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What the traffic phases of a run saw.
#[derive(Default)]
struct Traffic {
    reads: Vec<ReadLog>,
    appends: AppendLog,
    cursor: usize,
}

/// One closed-loop phase of `seconds` after a short warm-up: both
/// connections read, or — on the ingest workload — connection 0 streams
/// appends while connection 1 reads. With `origin`, read requests record
/// `request` spans.
fn phase(
    w: &Workload,
    inputs: &Inputs,
    addr: SocketAddr,
    seconds: f64,
    traffic: &mut Traffic,
    origin: Option<Instant>,
) -> (Vec<ReadLog>, Window, Vec<Vec<Span>>) {
    let warm = (seconds / 10.0).min(1.0);
    let now = Instant::now();
    let win = Window {
        warm_until: now + Duration::from_secs_f64(warm),
        end: now + Duration::from_secs_f64(warm + seconds),
    };
    let Traffic {
        appends, cursor, ..
    } = traffic;
    let (logs, spans) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..CONNECTIONS)
            .filter(|&c| !(w.mixed_ingest && c == 0))
            .map(|c| {
                s.spawn(move || {
                    let mut t = origin.map(Tracer::new);
                    let log = serve::read_loop(addr, w, inputs, c, win, w.mixed_ingest, t.as_mut());
                    (log, t.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        if w.mixed_ingest {
            serve::append_loop(addr, inputs, cursor, win, appends);
        }
        readers
            .into_iter()
            .map(|h| h.join().expect("read connection thread panicked"))
            .unzip::<_, _, Vec<_>, Vec<_>>()
    });
    (logs, win, spans)
}

fn latencies(logs: &[ReadLog]) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect()
}

/// Reads completed per second of the timed window.
fn rps(logs: &[ReadLog], win: &Window) -> Result<f64, String> {
    let n = logs.iter().map(|l| l.latencies_ms.len()).sum::<usize>();
    let last = logs
        .iter()
        .filter_map(|l| l.last_done)
        .max()
        .ok_or("no timed reads completed")?;
    Ok(n as f64 / last.duration_since(win.warm_until).as_secs_f64())
}

fn tail(samples: &[f64], what: &str, pct: f64) -> Result<Percentile, String> {
    percentile(samples, pct).ok_or(format!(
        "{what}: {} samples, too few for a percentile with {} beyond it",
        samples.len(),
        stats::MIN_BEYOND
    ))
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_us") || name.ends_with("_us_per_page") {
        "us"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("precision") {
        "ratio"
    } else if name.starts_with("wal.bytes") {
        "B"
    } else {
        "count"
    }
}

fn run(args: &Args, dir: &Path) -> Result<(), String> {
    let w = &args.workload;
    let e = |e: std::io::Error| e.to_string();
    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut kept = None;
    for r in 0..setups {
        let d = dir.join(format!("setup{r}"));
        let (inputs, served, secs) = serve::start(w, args.seed, &d).map_err(e)?;
        setup_s.push(secs);
        if r + 1 < setups {
            served.server.shutdown();
            std::fs::remove_dir_all(&d).map_err(e)?;
        } else {
            kept = Some((inputs, served, d));
        }
    }
    let (inputs, served, setup_dir) = kept.ok_or("no set-up ran")?;
    println!(
        "workload {}: {} series, {} windows served, epsilon {:.6} ({} queries), {} shard(s)",
        w.name,
        inputs.served.len(),
        tsss_server::routes::snapshot(served.server.state()).num_windows(),
        inputs.epsilon,
        inputs.queries.len(),
        w.shards
    );
    let addr = served.server.addr();
    let mut traffic = Traffic::default();
    // A traced run splits its window: an untraced half as the baseline
    // for the tracing overhead, then the traced half.
    let window = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t_traffic = Instant::now();
    let (logs, win, _) = phase(w, &inputs, addr, window, &mut traffic, None);
    let lat = latencies(&logs);
    let read_rps = rps(&logs, &win)?;
    traffic.reads.extend(logs);

    let mut layers = Layers::new();
    let mut spans = Vec::new();
    if args.trace {
        let ts = TracedServer::bind().map_err(e)?;
        let taddr = ts.addr().map_err(e)?;
        let origin = Instant::now();
        let state = served.server.state();
        let (tlogs, client, server) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CONNECTIONS)
                .map(|_| s.spawn(|| ts.worker(state, origin)))
                .collect();
            let (tlogs, _, client) = phase(w, &inputs, taddr, window, &mut traffic, Some(origin));
            ts.stop(CONNECTIONS);
            let server: Vec<Vec<Span>> = workers
                .into_iter()
                .map(|h| h.join().expect("traced server thread panicked"))
                .collect();
            (tlogs, client, server)
        });
        let mut http = trace::merge(client.into_iter().chain(server).collect());
        layers::http_layers(&mut http, &mut layers)?;
        spans.push(http);
        let untraced = tail(&lat, "untraced reads", 50.0)?.value;
        let traced = tail(&latencies(&tlogs), "traced reads", 50.0)?.value;
        layers.insert("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
        println!("trace: read p50 {untraced:.4} ms untraced, {traced:.4} ms traced");
        traffic.reads.extend(tlogs);
    }

    // Peak memory of set-up and the timed loop, before the untimed appends
    // and the checks (which load library engines of their own).
    let peak_rss_mb = serve::peak_rss_mb().unwrap_or(f64::NAN);
    if w.mixed_ingest {
        serve::catch_up(addr, &inputs, traffic.cursor, &mut traffic.appends);
    } else {
        // Append → visible on a quiet server, after the read window.
        let now = Instant::now();
        let all = Window {
            warm_until: now,
            end: now + Duration::from_secs(3600),
        };
        serve::append_loop(
            addr,
            &inputs,
            &mut traffic.cursor,
            all,
            &mut traffic.appends,
        );
    }
    let engine_path = served.engine_path.clone();
    served.server.shutdown();
    let t_checks = Instant::now();
    let lib = Library::load(&engine_path, w.shards).map_err(e)?;
    let expected = serve::oracle(&lib, w, &inputs)?;

    // Correctness: every response against the library, then the
    // acknowledged appends against a reopened engine.
    let mut attempted = traffic.appends.attempted;
    let mut failed = traffic.appends.failed;
    let mut errors = traffic.appends.errors.clone();
    for l in &traffic.reads {
        attempted += l.attempted;
        failed += l.failed;
        errors.extend(l.errors.iter().cloned());
    }
    if w.mixed_ingest {
        let raw: Vec<serve::RawRead> = traffic
            .reads
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.raw))
            .collect();
        let (checked, bad, why) =
            serve::check_ingest(&engine_path, &inputs, &raw, &traffic.appends)?;
        println!("check: {checked} ingest-run responses replayed against the library");
        failed += bad;
        errors.extend(why);
    } else {
        for l in &traffic.reads {
            let (bad, why) = serve::check_reads(l, &expected);
            failed += bad;
            errors.extend(why);
        }
    }
    let stored = match serve::check_durable(&engine_path, &traffic.appends.acks) {
        Ok(ratio) => ratio,
        Err(why) => {
            failed += 1;
            errors.push(why);
            f64::NAN
        }
    };
    let rebuilds = traffic
        .appends
        .acks
        .iter()
        .filter(|a| a.str_rebuilt)
        .count();
    println!(
        "check: {} appends acknowledged and reopened ({} with an STR rebuild), {failed} of {attempted} requests failed",
        traffic.appends.acks.len(),
        rebuilds
    );
    for why in errors.iter().take(10) {
        println!("error: {why}");
    }
    println!(
        "time: traffic {:.1} s, checks {:.1} s",
        t_checks.duration_since(t_traffic).as_secs_f64(),
        t_checks.elapsed().as_secs_f64()
    );

    let mut metrics: Metrics = Vec::new();
    if args.trace {
        let budget = Duration::from_secs_f64(window);
        let origin = Instant::now();
        spans.push(layers::layer_split(
            w,
            &inputs,
            &lib,
            &expected,
            budget,
            origin,
            &mut layers,
        )?);
        drop(lib);
        spans.push(layers::ingest_split(
            &inputs,
            &engine_path,
            &setup_dir,
            origin,
            &mut layers,
        )?);
        layers.insert("ingest.str_rebuilds", rebuilds as f64);
        std::fs::create_dir_all(&args.out_dir).map_err(e)?;
        let dump = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        let all = trace::merge(spans);
        trace::write_jsonl(&dump, &all).map_err(e)?;
        println!("trace: {} spans written to {}", all.len(), dump.display());
        for (name, v) in layers {
            metrics.push((name, v, layer_unit(name)));
        }
    } else {
        let p50 = tail(&lat, "reads", 50.0)?;
        let p99 = tail(&lat, "reads", TAIL_PCT)?;
        let visible = &traffic.appends.visible_ms;
        let v50 = tail(visible, "append → visible", 50.0)?;
        let v99 = tail(visible, "append → visible", TAIL_PCT)?;
        println!(
            "reads: {} timed, tail at p{:.2} ({} beyond); append → visible: {} timed, tail at p{:.2} ({} beyond)",
            p99.samples, p99.pct, p99.beyond, v99.samples, v99.pct, v99.beyond
        );
        println!(
            "failed_share = {} (of {attempted})",
            failed as f64 / attempted.max(1) as f64
        );
        metrics.extend([
            ("setup_s", stats::median(&setup_s).unwrap_or(f64::NAN), "s"),
            ("read_rps", read_rps, "1/s"),
            ("read_p50_ms", p50.value, "ms"),
            ("read_p99_ms", p99.value, "ms"),
            ("append_visible_p50_ms", v50.value, "ms"),
            ("append_visible_p99_ms", v99.value, "ms"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("stored_bytes_per_value_byte", stored, "B/B"),
        ]);
        println!("setup: {setup_s:?} s");
    }

    let mut json = Vec::new();
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
        if !v.is_finite() {
            return Err(format!("metric {name} could not be measured"));
        }
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", ")
    );
    Ok(())
}
