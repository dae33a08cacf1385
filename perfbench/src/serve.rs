//! Serving a workload over HTTP: set-up, the closed loops, and the checks
//! every response and the final state must pass.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

use tsss_core::{
    DurableEngine, EngineConfig, SearchEngine, SearchOptions, SearchResult, ShardedEngine,
};
use tsss_server::json::Json;
use tsss_server::{Server, ServerConfig};

use crate::client::Conn;
use crate::oracle::{self, Answer};
use crate::trace::Tracer;
use crate::workload::{self, Inputs, Route, Workload, CONNECTIONS, WINDOW};

/// Diagnoses kept per log; the rest are only counted.
const KEPT_ERRORS: usize = 5;

/// The server configuration a workload runs under: one worker per
/// connection, connections kept alive for the whole run.
pub fn server_config(w: &Workload) -> ServerConfig {
    ServerConfig {
        workers: CONNECTIONS,
        keep_alive_requests: usize::MAX,
        shards: w.shards,
        ..ServerConfig::default()
    }
}

/// The HTTP path of a workload's reads.
pub fn read_path(w: &Workload) -> &'static str {
    match w.route {
        Route::Search { .. } => "/search",
        Route::Knn { .. } => "/knn",
    }
}

/// A started server and the engine file it serves.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// The saved engine image (its WAL sits beside it).
    pub engine_path: PathBuf,
}

/// One timed set-up: generate the corpus, build and save the index, open
/// it durably, start the server and wait for its first answer. Returns
/// the inputs, the server, and the seconds it all took.
///
/// # Errors
/// I/O and engine failures, or a first answer other than 200.
pub fn start(w: &Workload, seed: u64, dir: &Path) -> io::Result<(Inputs, Served, f64)> {
    let t0 = Instant::now();
    let inputs = workload::generate(w, seed);
    let engine = SearchEngine::build(&inputs.served, EngineConfig::paper())
        .map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::create_dir_all(dir)?;
    let engine_path = dir.join("engine.tsss");
    engine.save_to_path(&engine_path)?;
    drop(engine);
    let master = DurableEngine::open(&engine_path)?;
    let server = Server::start_durable(master, &server_config(w))?;
    let mut conn = Conn::new(server.addr());
    let first = conn.send("GET", "/health", "")?;
    conn.close();
    if first.status != 200 {
        return Err(io::Error::other(format!(
            "first request answered {}: {}",
            first.status, first.body
        )));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        inputs,
        Served {
            server,
            engine_path,
        },
        secs,
    ))
}

/// The library engine(s) a workload's answers are computed with, loaded
/// from the saved image independently of the server's copies.
pub enum Library {
    /// One engine (`shards = 1`), boxed like the server's own snapshot.
    Single(Box<SearchEngine>),
    /// The scatter-gather twin (`shards > 1`).
    Sharded(ShardedEngine),
}

impl Library {
    /// Loads the image at `path` and partitions it like the server does.
    ///
    /// # Errors
    /// I/O and engine failures.
    pub fn load(path: &Path, shards: usize) -> io::Result<Library> {
        let engine = SearchEngine::load_from_path(path)?;
        if shards <= 1 {
            return Ok(Library::Single(Box::new(engine)));
        }
        ShardedEngine::from_engine(&engine, shards)
            .map(Library::Sharded)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// The answer to `query` on `route`, with default options.
    ///
    /// # Errors
    /// Whatever the engine reports.
    pub fn answer(
        &self,
        route: Route,
        query: &[f64],
        epsilon: f64,
    ) -> Result<SearchResult, String> {
        let opts = SearchOptions::default();
        match self {
            Library::Single(e) => call_engine(e, route, query, epsilon, opts),
            Library::Sharded(s) => call_sharded(s, route, query, epsilon, opts),
        }
    }
}

/// The route's call on one engine.
///
/// # Errors
/// Whatever the engine reports.
pub fn call_engine(
    e: &SearchEngine,
    route: Route,
    q: &[f64],
    eps: f64,
    opts: SearchOptions,
) -> Result<SearchResult, String> {
    match route {
        Route::Search { .. } => e.search(q, eps, opts),
        Route::Knn { k } => e.nearest_search_opts(q, k, opts),
    }
    .map_err(|e| e.to_string())
}

/// The route's scatter-gather call.
///
/// # Errors
/// Whatever the engine reports.
pub fn call_sharded(
    s: &ShardedEngine,
    route: Route,
    q: &[f64],
    eps: f64,
    opts: SearchOptions,
) -> Result<SearchResult, String> {
    match route {
        Route::Search { .. } => s.search(q, eps, opts),
        Route::Knn { k } => s.nearest_search_opts(q, k, opts),
    }
    .map_err(|e| e.to_string())
}

/// Precomputes the expected answer of every query in the pool.
///
/// # Errors
/// The first query the library itself cannot answer.
pub fn oracle(lib: &Library, w: &Workload, inputs: &Inputs) -> Result<Vec<Answer>, String> {
    inputs
        .queries
        .iter()
        .map(|q| {
            lib.answer(w.route, q, inputs.epsilon)
                .map(|r| Answer::from_result(&r))
                .map_err(|e| format!("oracle query failed: {e}"))
        })
        .collect()
}

/// The timed part of a closed loop: requests sent before `warm_until`
/// are checked but not timed; none is sent after `end`.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// End of the warm-up.
    pub warm_until: Instant,
    /// No request is sent after this.
    pub end: Instant,
}

/// What one read connection saw.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Latency of each timed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Completion time of the last timed request.
    pub last_done: Option<Instant>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered other than 200, or not at all.
    pub failed: u64,
    /// Distinct 200 bodies (wall-clock field removed) per query index,
    /// with how many responses carried each.
    pub distinct: HashMap<usize, Vec<(String, u64)>>,
    /// Every 200 response, when kept (ingest reads, whose bodies differ by
    /// snapshot).
    pub raw: Vec<RawRead>,
    /// The first few failure diagnoses.
    pub errors: Vec<String>,
}

impl ReadLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }
}

/// One kept read response and when it was in flight.
#[derive(Debug)]
pub struct RawRead {
    /// Query index in the pool.
    pub q: usize,
    /// The response body.
    pub body: String,
    /// When the request was sent.
    pub sent: Instant,
    /// When its response was complete.
    pub done: Instant,
}

/// Drives one read connection as a closed loop over the pool.
pub fn read_loop(
    addr: SocketAddr,
    w: &Workload,
    inputs: &Inputs,
    conn_idx: usize,
    win: Window,
    keep_raw: bool,
    mut tracer: Option<&mut Tracer>,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut conn = Conn::new(addr);
    let path = read_path(w);
    let mut i = 0;
    while Instant::now() < win.end {
        let q = workload::query_index(inputs.bodies.len(), conn_idx, i);
        i += 1;
        let span = match tracer.as_deref_mut() {
            Some(t) => match conn.next_id() {
                Ok(id) => Some((t.begin("request", id, None), id)),
                Err(e) => {
                    log.attempted += 1;
                    log.fail(format!("connect: {e}"));
                    continue;
                }
            },
            None => None,
        };
        let t0 = Instant::now();
        let r = conn.send("POST", path, &inputs.bodies[q]);
        let done = Instant::now();
        if let (Some(t), Some((s, _))) = (tracer.as_deref_mut(), span) {
            t.end(s);
        }
        log.attempted += 1;
        match r {
            Ok(resp) if resp.status == 200 => {
                if t0 >= win.warm_until {
                    log.latencies_ms
                        .push(done.duration_since(t0).as_secs_f64() * 1e3);
                    log.last_done = Some(done);
                }
                if keep_raw {
                    log.raw.push(RawRead {
                        q,
                        body: resp.body,
                        sent: t0,
                        done,
                    });
                } else {
                    let body = oracle::without_elapsed(&resp.body);
                    let seen = log.distinct.entry(q).or_default();
                    match seen.iter_mut().find(|(b, _)| *b == body) {
                        Some((_, n)) => *n += 1,
                        None => seen.push((body, 1)),
                    }
                }
            }
            Ok(resp) => log.fail(format!("{path} answered {}: {}", resp.status, resp.body)),
            Err(e) => {
                log.fail(format!("{path}: {e}"));
                conn.close();
            }
        }
    }
    log
}

/// Checks every distinct body a read connection received against the
/// oracle; returns how many responses failed, with diagnoses.
pub fn check_reads(log: &ReadLog, expected: &[Answer]) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    for (&q, bodies) in &log.distinct {
        for (body, n) in bodies {
            let why = match Answer::from_body(body) {
                Ok(got) => got.diff(&expected[q]),
                Err(e) => Some(e),
            };
            if let Some(why) = why {
                failed += n;
                if errors.len() < KEPT_ERRORS {
                    errors.push(format!("query {q}: {why}"));
                }
            }
        }
    }
    (failed, errors)
}

/// One acknowledged `/append`.
#[derive(Debug, Clone)]
pub struct Ack {
    /// Series extended.
    pub series: usize,
    /// The values appended.
    pub values: Vec<f64>,
    /// `series_len` the server acknowledged.
    pub series_len: usize,
    /// `num_windows` the server acknowledged.
    pub num_windows: usize,
    /// Snapshot epoch the append published.
    pub epoch: u64,
    /// Whether the append ran an STR rebuild.
    pub str_rebuilt: bool,
    /// When the acknowledgement arrived.
    pub acked: Instant,
}

/// What the append connection saw.
#[derive(Debug, Default)]
pub struct AppendLog {
    /// `/append` → follow-up-sees-it latency of each timed cycle, ms.
    pub visible_ms: Vec<f64>,
    /// Requests sent (appends and follow-ups).
    pub attempted: u64,
    /// Requests that failed or answered wrongly.
    pub failed: u64,
    /// When each `/append` was sent, in order.
    pub sent: Vec<Instant>,
    /// Every acknowledged append, in order.
    pub acks: Vec<Ack>,
    /// Each follow-up body with the index into `acks` it followed.
    pub follow_ups: Vec<(usize, String)>,
    /// The first few failure diagnoses.
    pub errors: Vec<String>,
}

impl AppendLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(why);
        }
    }
}

fn parse_ack(body: &str, series: usize, values: &[f64]) -> Result<Ack, String> {
    let j = Json::parse(body).map_err(|e| format!("unparseable ack: {e}"))?;
    let num = |k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("ack lacks {k:?}"))
    };
    if j.get("durable").and_then(Json::as_bool) != Some(true) {
        return Err("append acknowledged without durability".to_string());
    }
    Ok(Ack {
        series,
        values: values.to_vec(),
        series_len: num("series_len")? as usize,
        num_windows: num("num_windows")? as usize,
        epoch: num("epoch")?,
        str_rebuilt: j.get("str_rebuilt").and_then(Json::as_bool) == Some(true),
        acked: Instant::now(),
    })
}

/// Sends one append and, once acknowledged, the follow-up search for the
/// new tail window; checks the ack and the self-match. Returns the ack.
fn append_cycle(
    conn: &mut Conn,
    log: &mut AppendLog,
    series: usize,
    values: &[f64],
    expect_len: usize,
    follow_up: Option<&str>,
    tol: f64,
) -> Option<Ack> {
    log.attempted += 1;
    let body = workload::append_body(series, values);
    log.sent.push(Instant::now());
    let ack = match conn.send("POST", "/append", &body) {
        Ok(r) if r.status == 200 => match parse_ack(&r.body, series, values) {
            Ok(a) if a.series_len == expect_len => a,
            Ok(a) => {
                log.fail(format!(
                    "append to {series} acknowledged length {}, want {expect_len}",
                    a.series_len
                ));
                return None;
            }
            Err(e) => {
                log.fail(e);
                return None;
            }
        },
        Ok(r) => {
            log.fail(format!("/append answered {}: {}", r.status, r.body));
            return None;
        }
        Err(e) => {
            log.fail(format!("/append: {e}"));
            conn.close();
            return None;
        }
    };
    log.acks.push(ack.clone());
    let Some(follow_up) = follow_up else {
        return Some(ack);
    };
    log.attempted += 1;
    match conn.send("POST", "/search", follow_up) {
        Ok(r) if r.status == 200 => {
            let seen = Answer::from_body(&r.body)
                .map(|a| oracle::has_self_match(&a, series, expect_len - WINDOW, tol));
            match seen {
                Ok(true) => {
                    log.follow_ups.push((log.acks.len() - 1, r.body));
                    Some(ack)
                }
                Ok(false) => {
                    log.fail(format!(
                        "follow-up search misses the new tail window of series {series}"
                    ));
                    None
                }
                Err(e) => {
                    log.fail(e);
                    None
                }
            }
        }
        Ok(r) => {
            log.fail(format!("follow-up answered {}: {}", r.status, r.body));
            None
        }
        Err(e) => {
            log.fail(format!("follow-up: {e}"));
            conn.close();
            None
        }
    }
}

/// Self-match tolerance for follow-ups: a window fitted to itself.
fn self_match_tol(inputs: &Inputs) -> f64 {
    1e-9 * inputs.median_fluctuation
}

/// Streams held-back appends from `*cursor` as a closed loop until the
/// window ends or the appends run out, timing each append → visible
/// cycle sent after the warm-up.
pub fn append_loop(
    addr: SocketAddr,
    inputs: &Inputs,
    cursor: &mut usize,
    win: Window,
    log: &mut AppendLog,
) {
    let mut conn = Conn::new(addr);
    let tol = self_match_tol(inputs);
    while Instant::now() < win.end && *cursor < inputs.appends.len() {
        let a = &inputs.appends[*cursor];
        *cursor += 1;
        let t0 = Instant::now();
        let ok = append_cycle(
            &mut conn,
            log,
            a.series,
            &a.values,
            a.len_after,
            Some(&a.follow_up),
            tol,
        );
        if ok.is_some() && t0 >= win.warm_until {
            log.visible_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Appends every held-back value not yet sent, one request per series
/// (untimed), so every run ends on the full corpus.
pub fn catch_up(addr: SocketAddr, inputs: &Inputs, cursor: usize, log: &mut AppendLog) {
    let mut rest: BTreeMap<usize, (Vec<f64>, usize)> = BTreeMap::new();
    for a in &inputs.appends[cursor.min(inputs.appends.len())..] {
        let e = rest.entry(a.series).or_default();
        e.0.extend_from_slice(&a.values);
        e.1 = a.len_after;
    }
    let mut conn = Conn::new(addr);
    for (series, (values, len_after)) in rest {
        append_cycle(&mut conn, log, series, &values, len_after, None, 0.0);
    }
}

/// Reopens the engine from disk and checks that it reproduces the last
/// acknowledged `num_windows` and every appended series' length. Returns
/// the bytes stored (image + WAL) per byte of values held.
///
/// # Errors
/// A diagnosis of the first discrepancy.
pub fn check_durable(engine_path: &Path, acks: &[Ack]) -> Result<f64, String> {
    let wal = DurableEngine::wal_path_for(engine_path);
    let stored = std::fs::metadata(engine_path)
        .and_then(|m| std::fs::metadata(&wal).map(|w| m.len() + w.len()))
        .map_err(|e| format!("stat engine files: {e}"))?;
    let de = DurableEngine::open(engine_path).map_err(|e| format!("reopen: {e}"))?;
    let engine = de.engine();
    if let Some(last) = acks.last() {
        if engine.num_windows() != last.num_windows {
            return Err(format!(
                "reopened engine holds {} windows, last ack said {}",
                engine.num_windows(),
                last.num_windows
            ));
        }
    }
    let mut last_len: BTreeMap<usize, usize> = BTreeMap::new();
    for a in acks {
        last_len.insert(a.series, a.series_len);
    }
    for (&s, &len) in &last_len {
        let got = engine.series_len(s).map_err(|e| e.to_string())?;
        if got != len {
            return Err(format!(
                "reopened series {s} holds {got} values, last ack said {len}"
            ));
        }
    }
    let mut values = 0usize;
    for s in 0..engine.num_series() {
        values += engine.series_len(s).map_err(|e| e.to_string())?;
    }
    Ok(stored as f64 / (8.0 * values as f64))
}

/// A response to check during the ingest replay: its query, its answer,
/// the epochs its snapshot can have had, and the epoch it was stamped with.
struct Pending<'a> {
    q: &'a [f64],
    got: Answer,
    lo: u64,
    hi: u64,
    stamp: u64,
}

/// Replays the acknowledged appends on library engines loaded from the
/// initial image and checks every ingest-run response against the
/// snapshot it could have been answered from.
///
/// A follow-up search is sent after its append's acknowledgement and
/// before the next append, so it must equal the library's answer at that
/// append's epoch exactly. A read races the appends; causality bounds its
/// snapshot to epochs `lo..=hi`: every append acknowledged before the read
/// was sent had been published (`lo`), and no append sent after its
/// response arrived could have been (`hi`). The server's own epoch stamp
/// lies in that range but is advisory (read after the search), so a read
/// is checked at its stamp first, then at the epoch before, then forward,
/// and finally at any remaining epoch of its range.
///
/// Returns responses checked and failed, with diagnoses.
///
/// # Errors
/// Failures of the library itself.
pub fn check_ingest(
    engine_path: &Path,
    inputs: &Inputs,
    reads: &[RawRead],
    appends: &AppendLog,
) -> Result<(u64, u64, Vec<String>), String> {
    let load = || SearchEngine::load_from_path(engine_path).map_err(|e| e.to_string());
    let apply = |e: &mut SearchEngine, a: &Ack| -> Result<(), String> {
        e.append_values(a.series, &a.values)
            .map_err(|e| e.to_string())?;
        // The server's own policy: an append that makes a rebuild due
        // runs it before publishing.
        if e.str_rebuild_due() {
            e.repair().map_err(|e| e.to_string())?;
        }
        Ok(())
    };
    let search = |e: &SearchEngine, q: &[f64]| -> Result<Answer, String> {
        e.search(q, inputs.epsilon, SearchOptions::default())
            .map(|r| Answer::from_result(&r))
            .map_err(|e| e.to_string())
    };
    let acks = &appends.acks;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut note = |failed: &mut u64, why: String| {
        *failed += 1;
        if errors.len() < KEPT_ERRORS {
            errors.push(why);
        }
    };
    for (k, ack) in acks.iter().enumerate() {
        if ack.epoch != k as u64 + 1 {
            note(
                &mut failed,
                format!("append {k} published epoch {}, want {}", ack.epoch, k + 1),
            );
        }
    }

    let mut by_stamp: BTreeMap<u64, Vec<Pending>> = BTreeMap::new();
    for r in reads {
        let parsed = Answer::from_body(&r.body).and_then(|a| {
            oracle::epoch_of(&r.body)
                .map(|e| (a, e))
                .ok_or_else(|| "read response lacks an epoch".to_string())
        });
        match parsed {
            Ok((got, stamp)) => {
                let lo = acks.partition_point(|a| a.acked < r.sent) as u64;
                let hi = appends.sent.partition_point(|t| *t < r.done) as u64;
                by_stamp.entry(stamp).or_default().push(Pending {
                    q: &inputs.queries[r.q],
                    got,
                    lo,
                    hi,
                    stamp,
                });
            }
            Err(e) => note(&mut failed, e),
        }
    }
    let mut follow_by_epoch: BTreeMap<u64, Vec<(&[f64], Answer)>> = BTreeMap::new();
    for (ai, body) in &appends.follow_ups {
        let ack = &acks[*ai];
        let tail = inputs
            .appends
            .iter()
            .find(|a| a.series == ack.series && a.len_after == ack.series_len);
        match (tail, Answer::from_body(body)) {
            (Some(a), Ok(ans)) => follow_by_epoch
                .entry(ack.epoch)
                .or_default()
                .push((&a.tail, ans)),
            (None, _) => note(&mut failed, "follow-up for an unknown append".to_string()),
            (_, Err(e)) => note(&mut failed, e),
        }
    }
    let checked = reads.len() as u64 + appends.follow_ups.len() as u64;
    let last = by_stamp
        .values()
        .flatten()
        .map(|p| p.hi)
        .chain(follow_by_epoch.keys().copied())
        .max()
        .unwrap_or(0)
        .min(acks.len() as u64);

    // Forward pass: `cur` holds epoch k and `prev` epoch k - 1. A read is
    // tried at its stamp and the epoch before, then carried forward while
    // its range allows; what is left needs an epoch below stamp - 1.
    let mut cur = load()?;
    let mut prev: Option<SearchEngine> = None;
    let mut carried: Vec<Pending> = Vec::new();
    let mut leftover: Vec<Pending> = Vec::new();
    for k in 0..=last {
        let fresh = by_stamp.remove(&k).unwrap_or_default();
        let judge = |p: &Pending, first: bool| -> Result<bool, String> {
            if p.got.diff(&search(&cur, p.q)?).is_none() {
                return Ok(true);
            }
            match &prev {
                Some(e) if first && k > p.lo => Ok(p.got.diff(&search(e, p.q)?).is_none()),
                _ => Ok(false),
            }
        };
        let todo: Vec<(Pending, bool)> = fresh
            .into_iter()
            .map(|p| (p, true))
            .chain(carried.drain(..).map(|p| (p, false)))
            .collect();
        let (front, back) = todo.split_at(todo.len() / 2);
        let part = |ps: &[(Pending, bool)]| {
            ps.iter()
                .map(|(p, first)| judge(p, *first))
                .collect::<Vec<_>>()
        };
        let verdicts: Vec<Result<bool, String>> = std::thread::scope(|sc| {
            let other = sc.spawn(|| part(back));
            let mut v = part(front);
            v.extend(
                other
                    .join()
                    .unwrap_or_else(|_| vec![Err("judge thread panicked".into())]),
            );
            v
        });
        for ((p, _), v) in todo.into_iter().zip(verdicts) {
            if v? {
                continue;
            }
            if k < p.hi {
                carried.push(p);
            } else {
                leftover.push(p);
            }
        }
        for (q, got) in follow_by_epoch.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
            if let Some(why) = got.diff(&search(&cur, q)?) {
                note(&mut failed, format!("follow-up at epoch {k}: {why}"));
            }
        }
        if k == last {
            break;
        }
        let ki = k as usize;
        let (p, c) = std::thread::scope(|sc| {
            let p = sc.spawn(|| match prev.take() {
                Some(mut p) => apply(&mut p, &acks[ki - 1]).map(|()| p),
                None => load(),
            });
            let c = apply(&mut cur, &acks[ki]);
            (
                p.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into())),
                c,
            )
        });
        prev = Some(p?);
        c?;
    }
    leftover.extend(carried);
    leftover.extend(by_stamp.into_values().flatten());

    // Rare second pass: the epochs below stamp - 1 that each leftover
    // read's range still allows.
    if !leftover.is_empty() {
        let mut e = load()?;
        let top = leftover
            .iter()
            .map(|p| p.stamp.saturating_sub(2))
            .max()
            .unwrap_or(0);
        let mut open: Vec<Pending> = leftover;
        for k in 0..=top {
            let mut still = Vec::new();
            for p in open {
                let untried = k >= p.lo && k + 2 <= p.stamp;
                if !untried || p.got.diff(&search(&e, p.q)?).is_some() {
                    still.push(p);
                }
            }
            open = still;
            let Some(ack) = acks.get(k as usize).filter(|_| !open.is_empty() && k < top) else {
                break;
            };
            apply(&mut e, ack)?;
        }
        for p in open {
            note(
                &mut failed,
                format!(
                    "read stamped epoch {} matches no snapshot of epochs {}..={}",
                    p.stamp, p.lo, p.hi
                ),
            );
        }
    }
    Ok((checked, failed, errors))
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
