//! The four workloads and the inputs each one derives from its seed.
//!
//! Everything a run sends is generated here from `(workload, seed)` before
//! the server starts: the corpus, the query pool, every request body and
//! every held-back append. The same seed always gives byte-identical
//! request bodies.
//!
//! The corpus of a workload is the same for every seed: the market the
//! repository's figure and `bench_search` runs use ([`CORPUS_SEED`]). The
//! seed draws the query pool. A corpus drawn per seed would move the cost
//! of a query by up to 4× between seeds — at a fixed ε/median ratio the
//! number of trivially matching low-fluctuation windows depends on the
//! spread of simulated price levels — and bury any change a run should
//! detect.

use tsss_data::{MarketConfig, MarketSimulator, QueryWorkload, Series, WorkloadConfig};

/// Window length and feature count of the paper configuration every
/// workload serves (`EngineConfig::paper()`).
pub const WINDOW: usize = 128;

/// Seed of every workload's market simulation.
pub const CORPUS_SEED: u64 = 0x7555_1999;

/// Values per `/append` call.
pub const APPEND_LEN: usize = 16;

/// Keep-alive connections the closed loop drives (the host has 2 cores).
pub const CONNECTIONS: usize = 2;

/// What the read connections send.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Route {
    /// `/search` at `eps_frac` × the corpus's median window fluctuation,
    /// with no `limit` (every match is encoded).
    Search {
        /// ε as a fraction of the median fluctuation.
        eps_frac: f64,
    },
    /// `/knn` with this `k`.
    Knn {
        /// Neighbours per query.
        k: usize,
    },
}

/// One named workload: corpus shape, traffic and serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Companies (series) in the generated market.
    pub companies: usize,
    /// Days (values) per series in the full corpus, held-back days
    /// included.
    pub days: usize,
    /// What the read connections send.
    pub route: Route,
    /// Fault domains the server partitions every snapshot into.
    pub shards: usize,
    /// Distinct queries the read connections cycle through. Where the
    /// cost of a query varies widely (the index probe at a selective ε),
    /// the pool is large enough that the slowest 1 % of requests spans
    /// about ten distinct queries, so `read_p99_ms` does not hinge on the
    /// two or three heaviest queries a seed happens to draw.
    pub query_pool: usize,
    /// When true, connection A streams appends (each followed by a search
    /// for the new tail window) while connection B reads; when false both
    /// connections read and the appends run after the timed window.
    pub mixed_ingest: bool,
    /// Series with held-back tail values.
    pub held_back_series: usize,
    /// Held-back `/append` chunks per such series ([`APPEND_LEN`] values
    /// each), taken from the end of the series.
    pub held_back_chunks: usize,
}

impl Workload {
    /// Held-back values per series that has any.
    pub fn held_back_days(&self) -> usize {
        self.held_back_chunks * APPEND_LEN
    }

    /// Appends available to the run.
    pub fn appends(&self) -> usize {
        self.held_back_series * self.held_back_chunks
    }
}

/// Every workload the benchmark knows, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    // Paper scale (Figure 5's setting): the index probe dominates and the
    // working set is far larger than the CPU cache.
    Workload {
        name: "probe-paper",
        companies: 1000,
        days: 650,
        route: Route::Search { eps_frac: 0.002 },
        shards: 1,
        query_pool: 1024,
        mixed_ingest: false,
        held_back_series: 64,
        held_back_chunks: 1,
    },
    // Wide ε: fetch + verify and JSON encoding of ~100 KB responses
    // dominate, and every request pays the 2-shard scatter-gather merge.
    Workload {
        name: "verify-wide-sharded",
        companies: 200,
        days: 600,
        route: Route::Search { eps_frac: 0.05 },
        shards: 2,
        query_pool: 64,
        mixed_ingest: false,
        held_back_series: 24,
        held_back_chunks: 1,
    },
    // Best-first k-NN over the index: no other workload runs it.
    Workload {
        name: "knn",
        companies: 200,
        days: 600,
        route: Route::Knn { k: 10 },
        shards: 1,
        query_pool: 64,
        mixed_ingest: false,
        held_back_series: 150,
        held_back_chunks: 2,
    },
    // Streaming ingest under read load: WAL fsync, apply and snapshot
    // publication share the 2 cores with selective reads.
    Workload {
        name: "ingest-mixed",
        companies: 200,
        days: 680,
        route: Route::Search { eps_frac: 0.002 },
        shards: 1,
        query_pool: 1024,
        mixed_ingest: true,
        held_back_series: 200,
        held_back_chunks: 5,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One held-back `/append`.
#[derive(Debug, Clone, PartialEq)]
pub struct Append {
    /// Series index the values extend.
    pub series: usize,
    /// The values, in order.
    pub values: Vec<f64>,
    /// The series length once this append lands.
    pub len_after: usize,
    /// Request body of the follow-up `/search` for the new tail window.
    pub follow_up: String,
    /// The new tail window itself (the follow-up's query).
    pub tail: Vec<f64>,
}

/// Everything a run of one workload sends, derived from its seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The corpus the server starts with.
    pub served: Vec<Series>,
    /// The held-back appends, in the order they are sent.
    pub appends: Vec<Append>,
    /// The read query pool.
    pub queries: Vec<Vec<f64>>,
    /// The read request body for each query, same order.
    pub bodies: Vec<String>,
    /// ε of `/search` reads and of append follow-ups (absolute).
    pub epsilon: f64,
    /// Median window fluctuation of the served corpus (ε's unit).
    pub median_fluctuation: f64,
}

/// Encodes a float array the way any JSON client would: shortest
/// round-trip decimal, so the server parses back the identical `f64`s.
fn floats(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", parts.join(","))
}

/// A `/search` body with no `limit`.
pub fn search_body(query: &[f64], epsilon: f64) -> String {
    format!("{{\"query\":{},\"epsilon\":{epsilon}}}", floats(query))
}

/// A `/knn` body.
pub fn knn_body(query: &[f64], k: usize) -> String {
    format!("{{\"query\":{},\"k\":{k}}}", floats(query))
}

/// An `/append` body extending `series`.
pub fn append_body(series: usize, values: &[f64]) -> String {
    format!("{{\"series\":{series},\"values\":{}}}", floats(values))
}

/// Generates the inputs of `w` for `seed`.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let held = w.held_back_days();
    let full = MarketSimulator::new(MarketConfig {
        companies: w.companies,
        days: w.days,
        seed: CORPUS_SEED,
        ..MarketConfig::paper()
    })
    .generate();
    let mut served = full.clone();
    for s in served.iter_mut().take(w.held_back_series) {
        s.values.truncate(w.days - held);
    }
    let median_fluctuation = tsss_bench::median_window_fluctuation(&served, WINDOW);
    let eps_frac = match w.route {
        Route::Search { eps_frac } => eps_frac,
        // k-NN reads take no ε; append follow-ups use the selective
        // setting of the other workloads.
        Route::Knn { .. } => 0.002,
    };
    let epsilon = eps_frac * median_fluctuation;

    // Round-major: chunk j of every held-back series before chunk j + 1,
    // so consecutive appends rotate over the series.
    let mut appends = Vec::with_capacity(w.appends());
    for j in 0..w.held_back_chunks {
        for (si, s) in full.iter().enumerate().take(w.held_back_series) {
            let start = w.days - held + j * APPEND_LEN;
            let len_after = start + APPEND_LEN;
            let values = s.values[start..len_after].to_vec();
            let tail = s.values[len_after - WINDOW..len_after].to_vec();
            appends.push(Append {
                series: si,
                follow_up: search_body(&tail, epsilon),
                values,
                len_after,
                tail,
            });
        }
    }

    let queries: Vec<Vec<f64>> = QueryWorkload::generate(
        &served,
        WorkloadConfig {
            queries: w.query_pool,
            window_len: WINDOW,
            noise_level: 0.005,
            seed: seed ^ 0x51ED,
            ..Default::default()
        },
    )
    .queries
    .into_iter()
    .map(|q| q.values)
    .collect();
    let bodies = queries
        .iter()
        .map(|q| match w.route {
            Route::Search { .. } => search_body(q, epsilon),
            Route::Knn { k } => knn_body(q, k),
        })
        .collect();
    Inputs {
        served,
        appends,
        queries,
        bodies,
        epsilon,
        median_fluctuation,
    }
}

/// The query index connection `conn` sends as its `i`-th read: each
/// connection walks the pool cyclically from its own starting point.
pub fn query_index(pool: usize, conn: usize, i: usize) -> usize {
    (conn * pool / CONNECTIONS + i) % pool
}
