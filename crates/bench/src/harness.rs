//! A minimal Criterion-compatible bench harness.
//!
//! The container this repo builds in has no crate registry, so the
//! Criterion dependency was replaced by this shim exposing the exact API
//! surface the `benches/` targets use: `Criterion::benchmark_group`,
//! chainable `sample_size`/`warm_up_time`/`measurement_time`,
//! `bench_function`/`bench_with_input`, `Bencher::iter`, `BenchmarkId`,
//! and the `criterion_group!`/`criterion_main!` macros. Timing is
//! wall-clock mean over the configured sample count; output is one line
//! per benchmark.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Declared per-iteration work, for throughput reporting (mirrors
/// `criterion::Throughput`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per timed iteration — here, page walks, so a
    /// benchmark that declares it gets a walks-per-second rate.
    Elements(u64),
}

/// One finished benchmark: its mean timing and, when the group declared
/// throughput, its per-iteration element (walk) count.
#[derive(Clone, Debug)]
struct BenchResult {
    ns_per_iter: u64,
    iters: u64,
    elements: Option<u64>,
}

/// Results accumulated across every group in the process, so
/// [`criterion_main!`] can print one walks/sec headline at exit.
static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());

/// Prints the walks-per-second headline to **stderr** — the aggregate over
/// every throughput-declaring benchmark that ran (total walks retired over
/// total timed host seconds). Silent when no benchmark declared
/// throughput. Called by the [`criterion_main!`] expansion; stderr keeps
/// the rate out of any byte-compared stdout stream.
pub fn print_walks_headline() {
    let results = RESULTS.lock().expect("bench results poisoned");
    let mut walks: u64 = 0;
    let mut wall_ns: u64 = 0;
    for result in results.iter() {
        if let Some(elements) = result.elements {
            walks = walks.saturating_add(elements.saturating_mul(result.iters));
            wall_ns = wall_ns.saturating_add(result.ns_per_iter.saturating_mul(result.iters));
        }
    }
    if walks > 0 {
        eprintln!(
            "bench: {walks} walks in {:.3} s host time -> {} walks/sec",
            wall_ns as f64 / 1e9,
            hpmp_trace::walks_per_sec(walks, wall_ns)
        );
    }
}

/// A `function_name/parameter` benchmark identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchmarkId {
    function_name: String,
    parameter: String,
}

impl BenchmarkId {
    /// Identifier from a function name and a displayable parameter.
    pub fn new<S: Into<String>, P: fmt::Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            function_name: function_name.into(),
            parameter: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.parameter.is_empty() {
            write!(f, "{}", self.function_name)
        } else {
            write!(f, "{}/{}", self.function_name, self.parameter)
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(name: &str) -> BenchmarkId {
        BenchmarkId {
            function_name: name.to_string(),
            parameter: String::new(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(name: String) -> BenchmarkId {
        BenchmarkId {
            function_name: name,
            parameter: String::new(),
        }
    }
}

/// The timing loop handed to each benchmark closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f`, called `iters` times after one warm-up call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// A named group of benchmarks with shared sampling configuration.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: u64,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut BenchmarkGroup {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Declare how much work one timed iteration performs; subsequent
    /// benchmarks in the group report a walks-per-second rate alongside
    /// ns/iter in console output.
    pub fn throughput(&mut self, t: Throughput) -> &mut BenchmarkGroup {
        self.throughput = Some(t);
        self
    }

    /// Accepted for Criterion compatibility; the shim's single warm-up
    /// call is not time-bounded.
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut BenchmarkGroup {
        self
    }

    /// Accepted for Criterion compatibility; the shim always runs exactly
    /// `sample_size` iterations.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut BenchmarkGroup {
        self
    }

    /// Run one benchmark.
    pub fn bench_function<I: Into<BenchmarkId>, F>(&mut self, id: I, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iters: self.sample_size,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        self.report(&id, &b);
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized, F>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher, &T),
    {
        let id = id.into();
        let mut b = Bencher {
            iters: self.sample_size,
            elapsed: Duration::ZERO,
        };
        f(&mut b, input);
        self.report(&id, &b);
    }

    /// End the group (prints nothing; provided for API compatibility).
    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, b: &Bencher) {
        let per_iter = b.elapsed.as_nanos() / u128::from(b.iters.max(1));
        let elements = self.throughput.map(|Throughput::Elements(n)| n);
        match elements {
            Some(n) => println!(
                "bench {}/{id}: {per_iter} ns/iter ({} iters, {} walks/sec)",
                self.name,
                b.iters,
                hpmp_trace::walks_per_sec(n, per_iter as u64),
            ),
            None => println!(
                "bench {}/{id}: {per_iter} ns/iter ({} iters)",
                self.name, b.iters
            ),
        }
        if let Ok(mut results) = RESULTS.lock() {
            results.push(BenchResult {
                ns_per_iter: per_iter as u64,
                iters: b.iters,
                elements,
            });
        }
    }
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// Define a bench group function running each listed target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` running each listed group, then printing the walks/sec
/// headline.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::print_walks_headline();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_id_displays_name_and_parameter() {
        let id = BenchmarkId::new("fig10/rocket", "tc1");
        assert_eq!(id.to_string(), "fig10/rocket/tc1");
    }

    #[test]
    fn group_runs_the_closure_sample_size_times() {
        let mut c = Criterion;
        let mut group = c.benchmark_group("test");
        group.sample_size(5);
        let mut calls = 0u64;
        group.bench_function("counting", |b| b.iter(|| calls += 1));
        // One warm-up call + 5 timed iterations.
        assert_eq!(calls, 6);
        group.finish();
    }

    #[test]
    fn results_are_recorded_for_the_headline() {
        let mut c = Criterion;
        let mut group = c.benchmark_group("recorded");
        group.sample_size(2);
        group.throughput(Throughput::Elements(4_242));
        group.bench_function("noop", |b| b.iter(|| ()));
        group.finish();
        let results = RESULTS.lock().expect("bench results poisoned");
        // RESULTS is process-global and other tests may also record, so
        // check containment rather than the full contents.
        assert!(results
            .iter()
            .any(|r| r.elements == Some(4_242) && r.iters == 2));
    }

    #[test]
    fn bench_with_input_passes_the_input() {
        let mut c = Criterion;
        let mut group = c.benchmark_group("test");
        group.sample_size(1);
        let mut seen = 0u64;
        group.bench_with_input(BenchmarkId::new("inp", 7), &21u64, |b, &x| {
            b.iter(|| seen = x * 2)
        });
        assert_eq!(seen, 42);
    }
}
