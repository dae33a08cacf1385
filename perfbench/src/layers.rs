//! The traced run: per-layer spans recorded from the benchmark's own
//! files, around calls into each layer's public functions, on the same
//! inputs the untraced run sends.
//!
//! Two parts. [`TracedServer`] serves the workload's traffic through a
//! server loop assembled from `tsss-server`'s public pieces
//! (`http::read_request`, `routes::handle`, `http::write_response_conn`,
//! the same sequence the server's own workers run) over the live server
//! state, so each client `request` span holds the `server.handle` span
//! that answered it ([`http_layers`]). [`layer_split`] and
//! [`ingest_split`] then replay the
//! same request bodies in-process through the layers one call at a time —
//! parse, plan, index probe, verify, encode; the shard scatter-gather; the
//! k-NN frontier; append, WAL and publication — checking that the
//! hand-composed stages give bit-identical answers to the library's own
//! entry points.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tsss_core::{
    CandidateSource, DeadlineMeter, DegradationPolicy, DurableEngine, IndexProbe, QueryPlan,
    SearchEngine, SearchOptions, SearchResult, ShardedEngine, Verifier,
};
use tsss_server::api;
use tsss_server::json::Json;
use tsss_server::routes::{self, AppState};

use crate::oracle::Answer;
use crate::serve::{call_engine, call_sharded, Library};
use crate::stats::median;
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, Route, Workload};

/// Shards of the scatter-gather twin a single-shard workload's shard
/// layer is measured on.
const TWIN_SHARDS: usize = 2;

/// k of the k-NN layer on workloads whose reads are ε-range searches.
const KNN_K: usize = 10;

/// Appends the ingest layer replays on twins of the served engine.
const INGEST_APPENDS: usize = 16;

/// Requests the layer split replays at least, whatever its time budget.
const MIN_LAYER_REQUESTS: usize = 32;

/// STR rebuilds timed on the durable twin.
const STR_REBUILDS: usize = 2;

/// Per-layer figures by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// A server loop over `state` on its own listener, built from the
/// server's public pieces, recording a `server.handle` span per request.
/// Each request's id is `peer_port << 32 | its index on the connection`,
/// the id the client computes for the same request.
pub struct TracedServer {
    listener: TcpListener,
    stop: AtomicBool,
}

impl TracedServer {
    /// Binds a fresh local port.
    ///
    /// # Errors
    /// Bind failures.
    pub fn bind() -> io::Result<TracedServer> {
        Ok(TracedServer {
            listener: TcpListener::bind("127.0.0.1:0")?,
            stop: AtomicBool::new(false),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    /// Socket failures.
    pub fn addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and serves connections one at a time until stopped.
    pub fn worker(&self, state: &AppState, origin: Instant) -> Vec<Span> {
        let mut t = Tracer::new(origin);
        while let Ok((mut stream, peer)) = self.listener.accept() {
            // Ordering::SeqCst: a plain stop flag read once per accepted
            // connection; nothing else is published through it.
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            serve_connection(state, &mut stream, u64::from(peer.port()), &mut t);
        }
        t.into_spans()
    }

    /// Stops `workers` threads blocked in `accept`.
    pub fn stop(&self, workers: usize) {
        // Ordering::SeqCst: see `worker`.
        self.stop.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.addr() {
            for _ in 0..workers {
                drop(TcpStream::connect(addr));
            }
        }
    }
}

fn serve_connection(state: &AppState, stream: &mut TcpStream, port: u64, t: &mut Tracer) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let mut carry = Vec::new();
    let mut seq = 0u64;
    while let Ok(req) = tsss_server::http::read_request(stream, &mut carry) {
        let id = port << 32 | seq;
        seq += 1;
        let (status, body) = t.time("server.handle", id, None, || {
            routes::handle(state, &req.method, &req.path, &req.body)
        });
        if tsss_server::http::write_response_conn(stream, status, &body, true).is_err() {
            break;
        }
    }
}

/// Durations in µs of the spans named `name`.
fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Server-side figures of a traced HTTP phase: `server.handle_us`, and
/// `server.wire_us` — each request's client round trip minus the handler
/// time inside it. Every request span must hold exactly one handler span.
///
/// # Errors
/// Spans that do not nest, or requests with no handler span.
pub fn http_layers(spans: &mut [Span], out: &mut Layers) -> Result<(), String> {
    trace::attach_to_roots(spans, "request");
    trace::check_nesting(spans)?;
    let self_ns = trace::self_times(spans);
    let mut handled = vec![0usize; spans.len()];
    let mut handle = Vec::new();
    for s in spans.iter() {
        if let (Some(p), "server.handle") = (s.parent, s.name) {
            handled[p] += 1;
            handle.push(s.duration_ns() as f64 / 1e3);
        }
    }
    let mut wire = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "request" {
            if handled[i] != 1 {
                return Err(format!(
                    "request {} holds {} handler spans",
                    s.request, handled[i]
                ));
            }
            wire.push(self_ns[i] as f64 / 1e3);
        }
    }
    out.insert(
        "server.handle_us",
        median(&handle).ok_or("no handled requests")?,
    );
    out.insert("server.wire_us", median(&wire).ok_or("no traced requests")?);
    Ok(())
}

/// Parsed read request, as the server's route parses it.
struct Parsed {
    query: Vec<f64>,
    epsilon: f64,
    k: usize,
    opts: SearchOptions,
}

fn parse(body: &str, route: Route) -> Result<Parsed, String> {
    let j = Json::parse(body).map_err(|e| e.to_string())?;
    let query = api::require_f64_array(&j, "query").map_err(|e| e.message)?;
    let (epsilon, k) = match route {
        Route::Search { .. } => (api::require_f64(&j, "epsilon").map_err(|e| e.message)?, 0),
        Route::Knn { .. } => {
            let k = api::require_u64(&j, "k").map_err(|e| e.message)?;
            (0.0, usize::try_from(k).map_err(|e| e.to_string())?)
        }
    };
    let opts = api::parse_options(&j).map_err(|e| e.message)?;
    Ok(Parsed {
        query,
        epsilon,
        k,
        opts,
    })
}

/// Stage figures of one hand-composed probe → verify search.
#[derive(Debug, Default, Clone, Copy)]
struct Composed {
    plan_us: f64,
    probe_us: f64,
    verify_us: f64,
    index_pages: u64,
    data_pages: u64,
    candidates: u64,
    verified: u64,
}

impl Composed {
    fn add(&mut self, o: &Composed) {
        self.plan_us += o.plan_us;
        self.probe_us += o.probe_us;
        self.verify_us += o.verify_us;
        self.index_pages += o.index_pages;
        self.data_pages += o.data_pages;
        self.candidates += o.candidates;
        self.verified += o.verified;
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs plan → index probe → verify by hand under spans, then checks the
/// result bit for bit against `SearchEngine::search` on the same query.
fn compose(
    t: &mut Tracer,
    id: u64,
    parent: usize,
    e: &SearchEngine,
    query: &[f64],
    epsilon: f64,
    opts: SearchOptions,
) -> Result<(SearchResult, Composed), String> {
    let err = |e: tsss_core::EngineError| e.to_string();
    let pl = t.begin("core.plan", id, Some(parent));
    let plan = QueryPlan::exact(e, query, epsilon, opts).map_err(err)?;
    t.end(pl);
    let mut meter = DeadlineMeter::new(plan.options().deadline);
    let p = t.begin("core.probe", id, Some(parent));
    let index_stats = e.index_stats();
    let scope = index_stats.local_scope();
    let cands = IndexProbe.candidates(e, &plan, &mut meter).map_err(err)?;
    let index_pages = scope.finish().total_accesses();
    t.end(p);
    let v = t.begin("core.verify", id, Some(parent));
    let data_stats = e.data_stats();
    let scope = data_stats.local_scope();
    let mut res = Verifier.verify(e, &plan, cands, &mut meter).map_err(err)?;
    let data_pages = scope.finish().total_accesses();
    t.end(v);
    res.stats.index_pages = index_pages;
    res.stats.data_pages = data_pages;

    let library = e.search(query, epsilon, opts).map_err(err)?;
    if let Some(why) = Answer::from_result(&res).diff(&Answer::from_result(&library)) {
        return Err(format!(
            "composed probe → verify differs from search: {why}"
        ));
    }
    let spans = t.spans_since(pl);
    let d = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, Span::duration_ns)
    };
    let c = Composed {
        plan_us: us(d("core.plan")),
        probe_us: us(d("core.probe")),
        verify_us: us(d("core.verify")),
        index_pages,
        data_pages,
        candidates: res.stats.candidates,
        verified: res.stats.verified,
    };
    Ok((res, c))
}

/// Times the gather (`ShardedEngine` call) and, separately, each shard's
/// own call run in parallel as the scatter does; returns
/// `(gather, slowest shard)` in µs.
fn shard_probe(
    t: &mut Tracer,
    origin: Instant,
    id: u64,
    s: &ShardedEngine,
    route: Route,
    q: &[f64],
    eps: f64,
) -> Result<(f64, f64), String> {
    let opts = SearchOptions::default();
    let g = t.begin("shard.gather", id, None);
    call_sharded(s, route, q, eps, opts)?;
    t.end(g);
    let gather_ns = t.spans_since(g)[0].duration_ns();
    // Shards run under the Error policy inside a gather.
    let shard_opts = SearchOptions {
        degradation: DegradationPolicy::Error,
        ..opts
    };
    let root = t.begin("shard.scatter", id, None);
    let lists: Vec<Result<Vec<Span>, String>> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..s.num_shards())
            .filter_map(|i| s.shard(i))
            .map(|shard| {
                sc.spawn(move || {
                    let mut st = Tracer::new(origin);
                    let r = st.time("shard.search", id, None, || {
                        call_engine(shard, route, q, eps, shard_opts)
                    });
                    r.map(|_| st.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard thread panicked".into()))
            })
            .collect()
    });
    t.end(root);
    let mut slowest = 0u64;
    for l in lists {
        let l = l?;
        slowest = slowest.max(l.iter().map(Span::duration_ns).max().unwrap_or(0));
        t.adopt(l, root);
    }
    Ok((us(gather_ns), us(slowest)))
}

/// Replays the read bodies in-process through every read-path layer, for
/// at least `budget` and `MIN_LAYER_REQUESTS` requests, under spans.
///
/// # Errors
/// A composed answer that differs from the library's, or a library
/// failure.
pub fn layer_split(
    w: &Workload,
    inputs: &Inputs,
    lib: &Library,
    expected: &[crate::oracle::Answer],
    budget: Duration,
    origin: Instant,
    out: &mut Layers,
) -> Result<Vec<Span>, String> {
    let mut t = Tracer::new(origin);
    let twin;
    let (single, sharded): (Option<&SearchEngine>, &ShardedEngine) = match lib {
        Library::Single(e) => {
            twin = ShardedEngine::from_engine(e, TWIN_SHARDS).map_err(|e| e.to_string())?;
            (Some(&**e), &twin)
        }
        Library::Sharded(s) => (None, s),
    };
    let mut figs: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut totals = Composed::default();
    let mut requests = 0u64;
    let started = Instant::now();
    let pool = inputs.bodies.len();
    let mut i = 0usize;
    while i < MIN_LAYER_REQUESTS || started.elapsed() < budget {
        let qi = i % pool;
        let id = i as u64;
        i += 1;
        let body = &inputs.bodies[qi];
        let root = t.begin("layer.request", id, None);
        let p = t.begin("server.parse", id, Some(root));
        let req = parse(body, w.route)?;
        t.end(p);
        let res = match (single, w.route) {
            (Some(e), Route::Search { .. }) => {
                let (res, c) = compose(&mut t, id, root, e, &req.query, req.epsilon, req.opts)?;
                totals.add(&c);
                push_composed(&mut figs, &c);
                res
            }
            (Some(e), Route::Knn { .. }) => {
                let n = t.begin("nn.knn", id, Some(root));
                let res = e
                    .nearest_search_opts(&req.query, req.k, req.opts)
                    .map_err(|e| e.to_string())?;
                t.end(n);
                res
            }
            (None, _) => {
                let g = t.begin("shard.gather", id, Some(root));
                let res = call_sharded(sharded, w.route, &req.query, req.epsilon, req.opts)?;
                t.end(g);
                res
            }
        };
        if let Some(why) = Answer::from_result(&res).diff(&expected[qi]) {
            return Err(format!("layer split, query {qi}: {why}"));
        }
        let en = t.begin("server.encode", id, Some(root));
        let encoded = api::encode_result(&res, None).encode();
        t.end(en);
        t.end(root);
        std::hint::black_box(encoded);
        requests += 1;

        // Layers the request itself did not pass through, on the same
        // query: the probe → verify stages (per shard on a sharded
        // workload; at the k-th neighbour's distance for k-NN), the k-NN
        // frontier, and the shard scatter-gather.
        match (single, w.route) {
            (Some(_), Route::Search { .. }) => {}
            (Some(e), Route::Knn { .. }) => {
                let eps_k = res.matches.last().map_or(0.0, |m| m.distance);
                let r = t.begin("core.compose", id, None);
                let (_, c) = compose(&mut t, id, r, e, &req.query, eps_k, req.opts)?;
                t.end(r);
                totals.add(&c);
                push_composed(&mut figs, &c);
            }
            (None, _) => {
                let r = t.begin("core.compose", id, None);
                let mut sum = Composed::default();
                for shard in (0..sharded.num_shards()).filter_map(|s| sharded.shard(s)) {
                    let (_, c) = compose(&mut t, id, r, shard, &req.query, req.epsilon, req.opts)?;
                    sum.add(&c);
                }
                t.end(r);
                totals.add(&sum);
                push_composed(&mut figs, &sum);
            }
        }
        let knn = match (single, w.route) {
            (Some(_), Route::Knn { .. }) => res,
            _ => {
                let n = t.begin("nn.knn", id, None);
                let r = match single {
                    Some(e) => e.nearest_search_opts(&req.query, KNN_K, req.opts),
                    None => sharded.nearest_search_opts(&req.query, KNN_K, req.opts),
                }
                .map_err(|e| e.to_string())?;
                t.end(n);
                r
            }
        };
        figs.entry("nn.index_pages_per_query")
            .or_default()
            .push(knn.stats.index_pages as f64);
        figs.entry("nn.candidates_per_query")
            .or_default()
            .push(knn.stats.candidates as f64);
        let (gather, slowest) = shard_probe(
            &mut t,
            origin,
            id,
            sharded,
            w.route,
            &req.query,
            req.epsilon,
        )?;
        figs.entry("shard.gather_us").or_default().push(gather);
        figs.entry("shard.slowest_shard_us")
            .or_default()
            .push(slowest);
        figs.entry("shard.merge_us")
            .or_default()
            .push(gather - slowest);
    }

    let spans = t.into_spans();
    trace::check_nesting(&spans)?;
    let self_ns = trace::self_times(&spans);
    for (s, &own) in spans.iter().zip(&self_ns) {
        let key = match s.name {
            "server.parse" => "server.parse_us",
            "server.encode" => "server.encode_us",
            "nn.knn" => "nn.knn_us",
            _ => continue,
        };
        figs.entry(key).or_default().push(us(own));
    }
    for (k, v) in figs {
        out.insert(k, median(&v).ok_or_else(|| format!("no samples for {k}"))?);
    }
    let n = requests as f64;
    out.insert("index.pages_per_query", totals.index_pages as f64 / n);
    out.insert("storage.data_pages_per_query", totals.data_pages as f64 / n);
    out.insert("core.candidates_per_query", totals.candidates as f64 / n);
    out.insert(
        "core.verify_precision",
        totals.verified as f64 / (totals.candidates as f64).max(1.0),
    );
    Ok(spans)
}

fn push_composed(figs: &mut BTreeMap<&'static str, Vec<f64>>, c: &Composed) {
    figs.entry("core.plan_us").or_default().push(c.plan_us);
    figs.entry("core.probe_us").or_default().push(c.probe_us);
    figs.entry("core.verify_us").or_default().push(c.verify_us);
    if c.index_pages > 0 {
        figs.entry("index.probe_us_per_page")
            .or_default()
            .push(c.probe_us / c.index_pages as f64);
    }
}

/// Replays the first held-back appends on a durable and a volatile twin
/// of the served image, timing each layer of an `/append`: the durable
/// append (WAL fsync + apply), the volatile append (apply only), the
/// snapshot publication (`save_to` + `load_from`), and the STR rebuild.
///
/// # Errors
/// I/O or engine failures.
pub fn ingest_split(
    inputs: &Inputs,
    engine_path: &Path,
    dir: &Path,
    origin: Instant,
    out: &mut Layers,
) -> Result<Vec<Span>, String> {
    let io_err = |e: io::Error| e.to_string();
    let err = |e: tsss_core::EngineError| e.to_string();
    let twin_path = dir.join("twin.tsss");
    std::fs::copy(engine_path, &twin_path).map_err(io_err)?;
    let mut durable = DurableEngine::open(&twin_path).map_err(io_err)?;
    let mut volatile =
        DurableEngine::new_volatile(SearchEngine::load_from_path(engine_path).map_err(io_err)?);
    let wal_path = DurableEngine::wal_path_for(&twin_path);
    let wal_len = || {
        std::fs::metadata(&wal_path)
            .map(|m| m.len())
            .map_err(io_err)
    };
    let wal_before = wal_len()?;
    let mut t = Tracer::new(origin);
    let appends = &inputs.appends[..INGEST_APPENDS.min(inputs.appends.len())];
    for (i, a) in appends.iter().enumerate() {
        let id = i as u64;
        t.time("ingest.append_durable", id, None, || {
            durable.append_values(a.series, &a.values)
        })
        .map_err(err)?;
        t.time("ingest.publish", id, None, || {
            let mut buf = Vec::new();
            durable.engine().save_to(&mut buf)?;
            SearchEngine::load_from(&mut io::Cursor::new(buf)).map(std::hint::black_box)
        })
        .map_err(io_err)?;
        t.time("ingest.append_volatile", id, None, || {
            volatile.append_values(a.series, &a.values)
        })
        .map_err(err)?;
    }
    let wal_growth = wal_len()? - wal_before;
    for i in 0..STR_REBUILDS {
        t.time("ingest.str_rebuild", i as u64, None, || {
            durable.engine_mut().repair()
        })
        .map_err(err)?;
    }
    drop(durable);
    std::fs::remove_file(&twin_path).map_err(io_err)?;
    std::fs::remove_file(&wal_path).map_err(io_err)?;

    let spans = t.into_spans();
    for (name, key) in [
        ("ingest.append_durable", "ingest.append_durable_us"),
        ("ingest.append_volatile", "ingest.append_volatile_us"),
        ("ingest.publish", "ingest.publish_us"),
        ("ingest.str_rebuild", "ingest.str_rebuild_us"),
    ] {
        let v = durations_us(&spans, name);
        out.insert(key, median(&v).ok_or_else(|| format!("no {name} spans"))?);
    }
    out.insert(
        "wal.bytes_per_append",
        wal_growth as f64 / appends.len().max(1) as f64,
    );
    Ok(spans)
}
