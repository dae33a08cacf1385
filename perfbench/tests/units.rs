//! Unit tests of the benchmark's own machinery: the percentile rule,
//! self-time subtraction, and seed → inputs determinism.

use std::time::Instant;

use tsss_perfbench::stats::{median, percentile, MIN_BEYOND};
use tsss_perfbench::trace::{self, Span, Tracer};
use tsss_perfbench::workload::{self, WORKLOADS};

fn ramp(n: usize) -> Vec<f64> {
    // 1..=n, shuffled deterministically so sorting is exercised.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    let len = v.len();
    for i in 0..len {
        v.swap(i, (i * 7919 + 13) % len);
    }
    v
}

#[test]
fn p99_is_reported_when_ten_samples_lie_beyond_it() {
    let p = percentile(&ramp(1000), 99.0).expect("1000 samples support p99");
    assert_eq!(p.pct, 99.0);
    assert_eq!(p.value, 990.0);
    assert_eq!(p.beyond, 10);
    assert_eq!(p.samples, 1000);
}

#[test]
fn the_tail_falls_to_the_highest_percentile_the_sample_supports() {
    let p = percentile(&ramp(500), 99.0).expect("500 samples support p98");
    assert!((p.pct - 98.0).abs() < 1e-9, "pct {}", p.pct);
    assert_eq!(p.value, 490.0);
    assert_eq!(p.beyond, MIN_BEYOND);
    assert_eq!(p.samples, 500);

    // Between the round cases the rank never rounds past the ten.
    for n in [20, 37, 101, 999, 1001, 1100, 4321] {
        let p = percentile(&ramp(n), 99.0).expect("at least 20 samples");
        assert!(p.beyond >= MIN_BEYOND, "n {n}: {} beyond", p.beyond);
        assert!(p.pct <= 99.0);
        assert_eq!(p.samples, n);
    }
}

#[test]
fn too_few_samples_give_no_percentile() {
    assert!(percentile(&ramp(19), 50.0).is_none());
    let p = percentile(&ramp(20), 50.0).expect("20 samples support the median");
    assert_eq!((p.value, p.beyond), (10.0, 10));
    // With 20 samples the highest supported tail is the median itself.
    assert_eq!(percentile(&ramp(20), 99.0).map(|p| p.pct), Some(50.0));
}

#[test]
fn median_of_even_and_odd_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        request: 1,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_nested_and_overlapping_children_once() {
    let spans = vec![
        span("request", 0, 100, None),
        // Two overlapping children (parallel work) cover [10, 50] once.
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)),
        span("c", 60, 70, Some(0)),
        // A grandchild counts against its own parent only.
        span("a.inner", 12, 14, Some(1)),
    ];
    trace::check_nesting(&spans).expect("the spans nest");
    let own = trace::self_times(&spans);
    assert_eq!(own, vec![50, 18, 30, 10, 2]);
    // Self time plus covered time reconstructs every span.
    for (i, s) in spans.iter().enumerate() {
        let kids: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(i)).collect();
        assert_eq!(own[i] + trace::covered_ns(s, &kids), s.duration_ns());
    }
}

#[test]
fn children_are_clipped_to_their_parent_and_escapes_are_reported() {
    let spans = vec![
        span("request", 0, 100, None),
        span("late", 90, 120, Some(0)),
    ];
    assert_eq!(trace::self_times(&spans)[0], 90);
    assert!(trace::check_nesting(&spans).is_err());
}

#[test]
fn spans_from_other_threads_join_their_request_root() {
    let origin = Instant::now();
    let mut client = Tracer::new(origin);
    let root = client.begin("request", 7, None);
    let server = std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = Tracer::new(origin);
            t.time("server.handle", 7, None, || std::hint::black_box(1 + 1));
            t.into_spans()
        })
        .join()
        .expect("server thread")
    });
    client.end(root);
    let mut spans = trace::merge(vec![client.into_spans(), server]);
    trace::attach_to_roots(&mut spans, "request");
    assert_eq!(spans[1].parent, Some(0));
    trace::check_nesting(&spans).expect("the handler lies inside the request");
    let own = trace::self_times(&spans);
    assert_eq!(own[0] + spans[1].duration_ns(), spans[0].duration_ns());
}

#[test]
fn the_same_seed_gives_the_same_request_bodies() {
    for w in WORKLOADS.iter().filter(|w| w.companies <= 200) {
        let a = workload::generate(w, 42);
        let b = workload::generate(w, 42);
        assert_eq!(a.bodies, b.bodies, "{}", w.name);
        assert_eq!(a.appends, b.appends, "{}", w.name);
        assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits(), "{}", w.name);
        assert_eq!(a.bodies.len(), w.query_pool);
        assert_eq!(a.appends.len(), w.appends());

        let c = workload::generate(w, 43);
        assert_ne!(a.bodies, c.bodies, "{}: another seed, other inputs", w.name);
    }
}

#[test]
fn each_connection_walks_the_pool_from_its_own_offset() {
    let pool = 64;
    let first: Vec<usize> = (0..2).map(|c| workload::query_index(pool, c, 0)).collect();
    assert_eq!(first, vec![0, 32]);
    assert_eq!(workload::query_index(pool, 1, 40), 8);
}
