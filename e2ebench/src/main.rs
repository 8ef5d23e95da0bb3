//! `seqpat-e2ebench` — the processes behind `e2ebench/run.py`.
//!
//! ```text
//! seqpat-e2ebench setup     --workload W --seed S --dir D
//! seqpat-e2ebench measure   --workload W --seed S --dir D --seconds N
//! seqpat-e2ebench trace     --workload W --seed S --dir D
//! seqpat-e2ebench check     --workload W --seed S --dir D
//! seqpat-e2ebench reference --workload W --seed S --dir D
//! ```
//!
//! `setup` writes the workload's inputs into D. `measure` repeats the
//! measured operation untraced for N seconds in a process that does nothing
//! else, and prints one JSON line with the median time and the process's
//! peak resident set. `trace` runs set-up and one operation layer by layer
//! with spans and prints the per-layer metrics. `check` verifies the last
//! operation's output in D. `reference` mines D's input with PrefixSpan
//! and diffs the answer with D's patterns (run by hand, not on every run).

mod check;
mod files;
mod layers;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use seqpat_core::stats::{peak_rss_bytes, Stopwatch};
use seqpat_core::{Database, Miner};
use seqpat_datagen::query_workload;
use seqpat_io::{build_colstore, spmf, BuildSummary, ColstoreDataset};
use seqpat_prefixspan::{prefixspan_maximal, PrefixSpanConfig};
use seqpat_serve::{PatternTrie, Prediction};

use crate::check::{fold_answer, Answer};
use crate::trace::Tracer;
use crate::workload::{raw, raw_patterns, Kind, Workload, QUERIES, REPLAYS, TOP_K};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("seqpat-e2ebench: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    seconds: f64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} is required"))
    };
    let name = value("--workload")?;
    let workload = workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds = match value("--seconds") {
        Ok(s) => s
            .parse()
            .map_err(|_| "--seconds takes a number".to_string())?,
        Err(_) => 0.0,
    };
    Ok(Args {
        workload,
        seed,
        dir: PathBuf::from(value("--dir")?),
        seconds,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let (command, rest) = args.split_first().ok_or("expected a command")?;
    let a = parse(rest)?;
    match command.as_str() {
        "setup" => setup(&a.workload, a.seed, &a.dir, &Tracer::new()).map(drop),
        "measure" => measure(&a.workload, &a.dir, a.seconds),
        "trace" => layers::traced_run(&a.workload, a.seed, &a.dir),
        "check" => check(&a.workload, a.seed, &a.dir),
        "reference" => reference(&a.workload, a.seed, &a.dir),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Generates the workload's inputs into `dir`, with a span per layer.
/// Returns the colstore build summary for `sharded-disk`.
pub fn setup(
    w: &Workload,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
) -> Result<Option<BuildSummary>, String> {
    let customers = tracer.span("datagen.generate", || w.customers(seed));
    match w.kind {
        Kind::Resident => {
            let db = Database::new(customers);
            let path = dir.join(files::SPMF);
            tracer
                .span("io.spmf_write", || spmf::write_file(&db, &path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(None)
        }
        Kind::Sharded => {
            let path = dir.join(files::COLSTORE);
            let min_count = w.min_support().to_count(customers.len());
            let mut apriori = w.miner_config().apriori;
            apriori.parallelism = w.miner_config().parallelism;
            let summary = tracer
                .span("io.colstore_build", || {
                    build_colstore(
                        || customers.iter().cloned(),
                        min_count,
                        &apriori,
                        4096,
                        &path,
                    )
                })
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            Ok(Some(summary))
        }
        Kind::Serve => {
            // The index holds every large sequence, not only the maximal ones.
            let db = Database::new(customers);
            let config = w.miner_config().include_non_maximal(true);
            let result = tracer.span("setup.mine", || Miner::new(config).mine(&db));
            let trie = tracer
                .span("serve.build", || {
                    PatternTrie::build(
                        &result.id_patterns,
                        result.table.clone(),
                        result.num_customers as u64,
                    )
                })
                .map_err(|e| format!("building the index: {e}"))?;
            let path = dir.join(files::INDEX);
            tracer
                .span("serve.save", || trie.save(&path))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            let queries = tracer.span("setup.queries", || {
                query_workload(&result.id_patterns, &QUERIES, seed)
            });
            let patterns: Vec<(Vec<u32>, Option<u64>)> = result
                .id_patterns
                .iter()
                .map(|p| (p.ids.clone(), Some(p.support)))
                .collect();
            files::write_id_lines(&dir.join(files::INDEX_PATTERNS), &patterns)?;
            let queries: Vec<(Vec<u32>, Option<u64>)> =
                queries.into_iter().map(|q| (q, None)).collect();
            files::write_id_lines(&dir.join(files::QUERIES), &queries)?;
            Ok(None)
        }
    }
}

/// The measured mining operation, the way `seqmine mine` runs it: from
/// opening the input file to holding the final pattern list.
fn mine_once(w: &Workload, dir: &Path) -> Result<Vec<seqpat_core::Pattern>, String> {
    let miner = Miner::new(w.miner_config());
    let result = if w.kind == Kind::Sharded {
        let path = dir.join(files::COLSTORE);
        let store =
            ColstoreDataset::open(&path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        miner.mine_dataset(&store)
    } else {
        let path = dir.join(files::SPMF);
        let db = spmf::read_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        miner.mine(&db)
    };
    Ok(result.patterns)
}

/// Answers the query set `REPLAYS` times; returns one replay's hit count
/// and answer digest, after checking that every replay agrees.
pub fn replay(trie: &PatternTrie, queries: &[Vec<u32>]) -> Result<(u64, u64), String> {
    let mut out = [Prediction::default(); TOP_K];
    let mut first = None;
    for _ in 0..REPLAYS {
        let mut hits = 0u64;
        let mut digest = 0u64;
        for q in queries {
            let n = trie.predict_into(q, &mut out);
            hits += u64::from(n > 0);
            digest = fold_answer(digest, out[..n].iter().map(|p| (p.id, p.support)));
        }
        match first {
            None => first = Some((hits, digest)),
            Some(seen) if seen != (hits, digest) => {
                return Err("two replays of one query set answered differently".into())
            }
            Some(_) => {}
        }
    }
    first.ok_or_else(|| "no replay ran".to_string())
}

/// The measured serving operation: load the index, answer the query set.
fn serve_once(dir: &Path, queries: &[Vec<u32>]) -> Result<(u64, u64), String> {
    let path = dir.join(files::INDEX);
    let trie = PatternTrie::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    replay(&trie, queries)
}

/// Answers to each distinct query, for the check.
pub fn distinct_answers(trie: &PatternTrie, queries: &[Vec<u32>]) -> Vec<(Vec<u32>, Answer)> {
    let mut distinct = queries.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .into_iter()
        .map(|q| {
            let answer = trie
                .predict(&q, TOP_K)
                .iter()
                .map(|p| (p.id, p.support))
                .collect();
            (q, answer)
        })
        .collect()
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(values[n / 2]),
        _ => Some((values[n / 2 - 1] + values[n / 2]) / 2.0),
    }
}

/// Runs `op` once as an untimed warm-up, then again and again within
/// `budget`, which the warm-up counts against. No operation starts that
/// the last one's time says would end past the budget, but at least one
/// is timed. Returns the seconds of each successful timed run, the number
/// of runs attempted and failed (warm-up included) and the first result,
/// after checking that every successful run returned the same result.
fn repeat<T: PartialEq>(
    budget: Duration,
    mut op: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, u64, u64, Option<T>), String> {
    let clock = Stopwatch::start();
    let mut times = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut first: Option<T> = None;
    loop {
        let sw = Stopwatch::start();
        let out = op();
        let took = sw.elapsed();
        let warm_up = attempted == 0;
        attempted += 1;
        match out {
            Ok(result) => {
                if !warm_up {
                    times.push(took.as_secs_f64());
                }
                match &first {
                    None => first = Some(result),
                    Some(seen) if *seen != result => {
                        return Err("two operations returned different results".into())
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                eprintln!("operation failed: {e}");
                failed += 1;
            }
        }
        if attempted > 1 && clock.elapsed() + took >= budget {
            return Ok((times, attempted, failed, first));
        }
    }
}

/// Repeats the measured operation within `seconds` (see [`repeat`]),
/// then writes its output for the check and prints `{"attempted",
/// "failed", "wall_s", "peak_rss_bytes"}`.
fn measure(w: &Workload, dir: &Path, seconds: f64) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let (times, attempted, failed, peak) = if w.kind == Kind::Serve {
        let queries = files::read_queries(&dir.join(files::QUERIES))?;
        let (times, attempted, failed, first) = repeat(budget, || serve_once(dir, &queries))?;
        let peak = peak_rss_bytes();
        if let Some((hits, digest)) = first {
            files::write_replay(&dir.join(files::REPLAY), hits, digest)?;
            let path = dir.join(files::INDEX);
            let trie =
                PatternTrie::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            let answers = distinct_answers(&trie, &queries);
            files::write_answers(&dir.join(files::ANSWERS), &answers)?;
        }
        (times, attempted, failed, peak)
    } else {
        let (times, attempted, failed, first) = repeat(budget, || mine_once(w, dir))?;
        let peak = peak_rss_bytes();
        if let Some(patterns) = first {
            files::write_patterns(&dir.join(files::PATTERNS), &raw_patterns(&patterns))?;
        }
        (times, attempted, failed, peak)
    };
    eprintln!("operation seconds: {times:.4?}");
    let wall_s = median(times).ok_or("every operation failed")?;
    println!(
        "{{\"attempted\": {attempted}, \"failed\": {failed}, \"wall_s\": {wall_s}, \"peak_rss_bytes\": {peak}}}"
    );
    Ok(())
}

/// Checks the output the last `measure` or `trace` left in `dir`.
fn check(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    if w.kind == Kind::Serve {
        let patterns = files::read_id_patterns(&dir.join(files::INDEX_PATTERNS))?;
        let queries = files::read_queries(&dir.join(files::QUERIES))?;
        let answers = files::read_answers(&dir.join(files::ANSWERS))?;
        let (hits, digest) = files::read_replay(&dir.join(files::REPLAY))?;
        let s = check::check_answers(&patterns, TOP_K, &queries, &answers, hits, digest)?;
        eprintln!(
            "check ok: {} distinct queries, {} hits and {} misses per replay",
            s.distinct_queries, s.hits, s.misses
        );
    } else {
        let customers = raw(&w.customers(seed));
        let patterns = files::read_patterns(&dir.join(files::PATTERNS))?;
        let min_count = w.min_count(customers.len());
        let s = check::check_patterns(&customers, min_count, &patterns)?;
        eprintln!(
            "check ok: {} patterns recounted over {} customers (min count {min_count}); {} frequent items and {} frequent 2-sequences covered",
            s.patterns,
            customers.len(),
            s.frequent_items,
            s.frequent_pairs
        );
    }
    Ok(())
}

/// Mines the workload's customers with PrefixSpan and diffs the answer
/// with the patterns in `dir`.
fn reference(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    if w.kind == Kind::Serve {
        return Err("reference answers exist for the mining workloads only".into());
    }
    let db = Database::new(w.customers(seed));
    let clock = Stopwatch::start();
    let reference = prefixspan_maximal(&db, w.min_support(), &PrefixSpanConfig::default());
    let took = clock.elapsed();
    let mut expected = raw_patterns(&reference);
    let mut got = files::read_patterns(&dir.join(files::PATTERNS))?;
    expected.sort();
    got.sort();
    let only_expected: Vec<_> = expected
        .iter()
        .filter(|p| got.binary_search(p).is_err())
        .collect();
    let only_got: Vec<_> = got
        .iter()
        .filter(|p| expected.binary_search(p).is_err())
        .collect();
    eprintln!(
        "prefixspan: {} patterns in {:.2} s; benchmark output: {} patterns",
        expected.len(),
        took.as_secs_f64(),
        got.len()
    );
    for p in only_expected.iter().take(10) {
        eprintln!("  only in prefixspan: {p:?}");
    }
    for p in only_got.iter().take(10) {
        eprintln!("  only in the miner:  {p:?}");
    }
    if only_expected.is_empty() && only_got.is_empty() {
        eprintln!("reference ok: identical pattern sets");
        Ok(())
    } else {
        Err(format!(
            "{} patterns only in prefixspan, {} only in the miner",
            only_expected.len(),
            only_got.len()
        ))
    }
}
