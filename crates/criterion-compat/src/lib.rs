//! # seqpat-criterion-compat — offline stand-in for the `criterion` crate
//!
//! The build environment has no crates.io access, so the slice of the
//! `criterion 0.5` API used by `crates/bench/benches/*` is reimplemented
//! here and wired in under the dependency name `criterion`. Covered:
//! [`Criterion`], [`black_box`], [`BenchmarkId`], benchmark groups with
//! `sample_size`/`bench_function`/`bench_with_input`/`finish`, and the
//! [`criterion_group!`]/[`criterion_main!`] macros.
//!
//! Statistics are intentionally minimal: each benchmark runs a short
//! warm-up then `sample_size` timed iterations and reports
//! min/mean/p50/p99/max (nearest-rank percentiles).
//! When invoked with `--test` (as `cargo test` does for `harness = false`
//! bench targets) every body runs exactly once, untimed, so the tier-1
//! gate stays fast. Rigorous measurements in this workspace come from the
//! `seqpat-bench` harness binaries, not from these micro-benchmarks.
//!
//! Two CLI extensions beyond the criterion API surface:
//!
//! * **Substring filters** — positional arguments select benchmarks whose
//!   full label contains any of them (criterion's filter behaviour), so CI
//!   can smoke one fast cell per kernel family.
//! * **`--json PATH`** — after all groups run, a machine-readable summary
//!   (`{"results": [{"label", "mean_ns", "min_ns", "max_ns", "p50_ns",
//!   "p99_ns", "n"}]}`) is
//!   written to `PATH` for the tracked kernel-benchmark baseline
//!   (`results/bench_kernels.json`) and the `bench_compare.sh` gate.

use std::fmt::Display;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

const DEFAULT_SAMPLE_SIZE: usize = 20;

/// One finished benchmark, queued for the `--json` report.
struct BenchRecord {
    label: String,
    mean_ns: u128,
    min_ns: u128,
    max_ns: u128,
    p50_ns: u128,
    p99_ns: u128,
    n: usize,
}

/// Results accumulated across every group of the run (benches execute on
/// the main thread; the mutex just satisfies `static` requirements).
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Process-wide CLI configuration, parsed once.
struct Config {
    test_mode: bool,
    json_path: Option<String>,
    filters: Vec<String>,
}

fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| {
        let mut test_mode = false;
        let mut json_path = None;
        let mut filters = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--test" {
                test_mode = true;
            } else if arg == "--json" {
                json_path = args.next();
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
            // Other flags (--bench, --nocapture, ...) are cargo harness
            // plumbing; ignore them like criterion does.
        }
        Config {
            test_mode,
            json_path,
            filters,
        }
    })
}

/// Entry point handed to each benchmark group function.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: config().test_mode,
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: DEFAULT_SAMPLE_SIZE,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        run_one(id, DEFAULT_SAMPLE_SIZE, self.test_mode, f);
        self
    }
}

/// A named set of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Display, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.sample_size, self.criterion.test_mode, f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_one(&full, self.sample_size, self.criterion.test_mode, |b| {
            f(b, input)
        });
        self
    }

    pub fn finish(self) {}
}

/// Identifies one parameterised benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// Passed to each benchmark body; `iter` is the timed hot loop.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    test_mode: bool,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // One warm-up pass, then timed samples of a single call each.
        black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(label: &str, sample_size: usize, test_mode: bool, mut f: F) {
    let cfg = config();
    if !cfg.filters.is_empty() && !cfg.filters.iter().any(|needle| label.contains(needle)) {
        return;
    }
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
        test_mode,
    };
    f(&mut bencher);
    if test_mode {
        println!("test-mode {label}: ok");
        return;
    }
    if bencher.samples.is_empty() {
        println!("{label}: no samples recorded");
        return;
    }
    let mut sorted = bencher.samples.clone();
    sorted.sort_unstable();
    let n = sorted.len();
    let min = sorted[0];
    let max = sorted[n - 1];
    let mean: Duration = sorted.iter().sum::<Duration>() / n as u32;
    // Nearest-rank percentiles over the sorted samples (matches
    // `seqpat_serve::stats::summarize`).
    let at = |q_num: usize, q_den: usize| sorted[(n * q_num).div_ceil(q_den).clamp(1, n) - 1];
    let p50 = at(50, 100);
    let p99 = at(99, 100);
    println!("{label}: mean {mean:?} (min {min:?}, p50 {p50:?}, p99 {p99:?}, max {max:?}, n={n})");
    let mut results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    results.push(BenchRecord {
        label: label.to_string(),
        mean_ns: mean.as_nanos(),
        min_ns: min.as_nanos(),
        max_ns: max.as_nanos(),
        p50_ns: p50.as_nanos(),
        p99_ns: p99.as_nanos(),
        n,
    });
}

/// Minimal JSON string escape (labels are plain ASCII identifiers, but a
/// stray quote must not corrupt the report).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes the accumulated results to the `--json` path, if one was given.
/// Called by [`criterion_main!`] after every group has run; a no-op
/// without the flag (and in `--test` mode, where nothing is recorded).
pub fn write_json_report() {
    let Some(path) = config().json_path.as_deref() else {
        return;
    };
    let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\n  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        // `p50_ns`/`p99_ns` sit after `max_ns` so bench_compare.sh's
        // label/mean_ns/min_ns field adjacency keeps working.
        out.push_str(&format!(
            "    {{\"label\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"n\": {}}}{comma}\n",
            escape(&r.label),
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            r.p50_ns,
            r.p99_ns,
            r.n
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("criterion-compat: failed to write {path}: {e}");
    }
}

/// Bundles benchmark functions into one group runner, mirroring
/// criterion's simple (non-config) form.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

/// Generates `main` running each group in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("compat_smoke");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0u64..100).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("scaled", 4), &4u64, |b, &n| {
            b.iter(|| n * 2)
        });
        group.finish();
    }

    #[test]
    fn group_api_runs_bodies() {
        let mut c = Criterion { test_mode: true };
        tiny_bench(&mut c);
        c.bench_function("top_level", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(escape("plain/label_1"), "plain/label_1");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(
            BenchmarkId::new("algorithm", "apriori").to_string(),
            "algorithm/apriori"
        );
        assert_eq!(BenchmarkId::from_parameter(0.25).to_string(), "0.25");
    }
}
