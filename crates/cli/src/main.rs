//! `seqmine` — command-line front end for the workspace.
//!
//! ```text
//! seqmine gen   --out data.spmf [--dataset C10-T2.5-S4-I1.25] [--customers N] [--seed S]
//!               [--format spmf|csv|colstore] [--minsup F]  (colstore requires --minsup;
//!               customers are streamed to disk, never resident all at once)
//! seqmine mine  --in data.spmf  --minsup 0.01 [--algorithm apriori-all|apriori-some|dynamic-some|prefixspan]
//!               [--step K] [--all] [--max-length L] [--window W] [--threads N|auto]
//!               [--strategy direct|hashtree|vertical|bitmap|auto] [--vertical-cache-mb N]
//!               [--backend mem|mmap] [--shard-customers N]
//!               [--format spmf|csv] [--stats]
//! seqmine stats --in data.spmf [--format spmf|csv]
//! seqmine convert --in data.spmf --out data.csv  (format inferred from extensions;
//!               `--out x.colstore --minsup F` builds the on-disk transformed store)
//! seqmine queries --index idx.seqpats --out q.txt [--count N] [--skew F] [--miss-rate F] [--seed S]
//! seqmine query --index idx.seqpats (--prefix "10 20 -1" | --queries q.txt) [--k N] [--oracle] [--stats]
//! seqmine serve --index idx.seqpats --queries q.txt [--threads N] [--repeat N] [--k N]
//! ```
//!
//! `mine --index-out idx.seqpats` additionally compiles the mined maximal
//! patterns into a `SEQPATS1` prefix-trie index for the serving commands.

mod serve;

use std::process::ExitCode;

use seqpat_core::{
    Algorithm, CountingStrategy, Database, MinSupport, Miner, MinerConfig, MiningResult,
    Parallelism,
};
use seqpat_datagen::{generate, stream, GenParams};
use seqpat_gsp::{gsp, gsp_maximal, GspConfig};
use seqpat_io::stream::min_count_for;
use seqpat_io::{build_colstore, csv, spmf, ColstoreDataset, DatasetStats};
use seqpat_prefixspan::{prefixspan, prefixspan_maximal, PrefixSpanConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if Flags::asks_for_help(rest) {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match command.as_str() {
        "gen" => cmd_gen(rest),
        "mine" => cmd_mine(rest),
        "stats" => cmd_stats(rest),
        "convert" => cmd_convert(rest),
        "queries" => serve::cmd_queries(rest),
        "query" => serve::cmd_query(rest),
        "serve" => serve::cmd_serve(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
seqmine — sequential pattern mining (Agrawal & Srikant, ICDE 1995)

commands:
  gen      generate a synthetic dataset        (--out FILE [--dataset NAME] [--customers N] [--seed S] [--format spmf|csv|colstore] [--minsup F])
  mine     mine maximal sequential patterns    (--in FILE --minsup F [--algorithm NAME] [--step K] [--all] [--max-length L] [--window W] [--threads N|auto] [--strategy direct|hashtree|vertical|bitmap|auto] [--vertical-cache-mb N] [--backend mem|mmap] [--shard-customers N] [--stats])
  stats    print dataset statistics            (--in FILE)
  convert  convert between spmf and csv        (--in FILE --out FILE; --out x.colstore --minsup F builds the on-disk store)
  queries  sample a query workload from an index (--index FILE --out FILE [--count N] [--skew F] [--miss-rate F] [--seed S])
  query    answer prefix queries against an index (--index FILE --prefix STR|--queries FILE [--k N] [--oracle] [--stats])
  serve    replay a query workload concurrently (--index FILE --queries FILE [--threads N] [--repeat N] [--k N])

algorithms: apriori-all (default), apriori-some, dynamic-some, prefixspan,
            gsp (supports --min-gap G --max-gap G --element-window W)
mine --index-out FILE writes a SEQPATS1 prefix-trie index for query/serve";

/// Tiny flag parser: `--key value` pairs plus boolean switches.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    /// True when a subcommand's arguments contain `--help` or `-h`. Checked
    /// before [`Flags::parse`], which would read `--help` as a flag missing
    /// its value and reject `-h` as not a `--flag`.
    fn asks_for_help(args: &[String]) -> bool {
        args.iter().any(|a| a == "--help" || a == "-h")
    }

    fn parse(args: &[String], switches: &[&str]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {flag:?}"));
            };
            if switches.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} requires a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Self(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for --{name}: {v:?}"))
            })
            .transpose()
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// File format selection, by flag or extension.
fn detect_format(flags: &Flags, path: &str) -> Result<&'static str, String> {
    if let Some(f) = flags.get("format") {
        return match f {
            "spmf" => Ok("spmf"),
            "csv" => Ok("csv"),
            "colstore" => Ok("colstore"),
            other => Err(format!(
                "unknown format {other:?} (use spmf, csv, or colstore)"
            )),
        };
    }
    if path.ends_with(".csv") {
        Ok("csv")
    } else if path.ends_with(".colstore") {
        Ok("colstore")
    } else {
        Ok("spmf")
    }
}

fn load(path: &str, format: &str) -> Result<Database, String> {
    if format == "colstore" {
        return Err(format!(
            "{path}: a colstore holds the transformed database; only `mine --backend mmap` reads it"
        ));
    }
    let db = match format {
        "csv" => csv::read_file(path),
        _ => spmf::read_file(path),
    };
    db.map_err(|e| format!("reading {path}: {e}"))
}

fn store(db: &Database, path: &str, format: &str) -> Result<(), String> {
    let r = match format {
        "csv" => csv::write_file(db, path),
        _ => spmf::write_file(db, path),
    };
    r.map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let out = flags.require("out")?;
    let dataset = flags.get("dataset").unwrap_or("C10-T2.5-S4-I1.25");
    let customers = flags.get_parsed::<usize>("customers")?.unwrap_or(1_000);
    let seed = flags.get_parsed::<u64>("seed")?.unwrap_or(42);
    let params = GenParams::paper_dataset(dataset)
        .ok_or_else(|| {
            format!(
                "unknown dataset {dataset:?}; known: {}",
                GenParams::paper_dataset_names().join(", ")
            )
        })?
        .customers(customers);
    let format = detect_format(&flags, out)?;
    if format == "colstore" {
        // Out-of-core generation: customers stream straight through the
        // litemset/transform passes to disk; the full database is never
        // resident. The transformed store depends on minsup, so it is
        // required here.
        let minsup: f64 = flags
            .get_parsed("minsup")?
            .ok_or("--format colstore requires --minsup")?;
        if !(0.0..=1.0).contains(&minsup) || minsup == 0.0 {
            return Err("--minsup must be in (0, 1]".into());
        }
        let min_count = min_count_for(customers as u64, minsup);
        let summary = build_colstore(
            || stream(&params, seed),
            min_count,
            &Default::default(),
            4096,
            out,
        )
        .map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "generated {dataset} with {} customers → {out} (colstore: {} litemsets, {} litemset passes, minsup {minsup})",
            summary.total_customers, summary.litemsets, summary.passes
        );
        return Ok(());
    }
    let db = generate(&params, seed);
    store(&db, out, format)?;
    println!(
        "generated {dataset} with {} customers ({} transactions) → {out}",
        db.num_customers(),
        db.num_transactions()
    );
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["all", "stats"])?;
    let input = flags.require("in")?;
    let minsup: f64 = flags.get_parsed("minsup")?.ok_or("--minsup is required")?;
    if !(0.0..=1.0).contains(&minsup) || minsup == 0.0 {
        return Err("--minsup must be in (0, 1]".into());
    }
    let format = detect_format(&flags, input)?;
    // Backend selection: "mem" (default) loads the whole database; "mmap"
    // opens an on-disk colstore (see `gen --format colstore` / `convert`)
    // and pages customer rows in shard by shard. A .colstore input implies
    // --backend mmap.
    let backend = match flags.get("backend") {
        None if format == "colstore" => "mmap",
        None | Some("mem") => "mem",
        Some("mmap") => "mmap",
        Some(other) => return Err(format!("unknown backend {other:?} (use mem or mmap)")),
    };
    let shard_customers = flags.get_parsed::<usize>("shard-customers")?;
    if shard_customers == Some(0) {
        return Err("--shard-customers must be positive".into());
    }
    let algorithm_name = flags.get("algorithm").unwrap_or("apriori-all");
    let include_all = flags.has("all");
    let max_length = flags.get_parsed::<usize>("max-length")?;
    // Support counting threads: a number, or "auto" (default) for one per
    // core. Results are bit-identical regardless of the value.
    let parallelism = match flags.get("threads") {
        None | Some("auto") => Parallelism::Auto,
        Some(v) => {
            let n: usize = v.parse().map_err(|_| {
                format!("invalid value for --threads: {v:?} (use a number or auto)")
            })?;
            Parallelism::threads(n)
        }
    };
    // Support counting strategy (paper algorithms only; ignored by
    // prefixspan/gsp which have their own counting machinery). "auto"
    // resolves to bitmap/vertical/hashtree from database statistics after
    // the transformation phase (--stats shows the choice and why).
    let strategy = match flags.get("strategy") {
        None => CountingStrategy::default(),
        Some(v) => v.parse::<CountingStrategy>().map_err(|e| e.to_string())?,
    };
    // Vertical strategy pass-to-pass occurrence-list cache cap (MiB).
    let vertical_cache_mb = flags.get_parsed::<usize>("vertical-cache-mb")?;

    // Loads the resident database, applying the optional sliding-window
    // re-grouping (paper's conclusion extension): transactions within
    // --window time units merge into one element.
    let load_mem_db = || -> Result<Database, String> {
        let mut db = load(input, format)?;
        if let Some(window) = flags.get_parsed::<i64>("window")? {
            if window < 0 {
                return Err("--window must be non-negative".into());
            }
            db = Database::from_rows_windowed(db.to_rows(), window);
        }
        Ok(db)
    };

    if backend == "mmap" && (algorithm_name == "gsp" || algorithm_name == "prefixspan") {
        return Err(format!(
            "--backend mmap supports the paper algorithms only; {algorithm_name} needs the raw database (--backend mem)"
        ));
    }

    // The serving index is compiled from litemset-id-space patterns, which
    // only the paper algorithms carry through `MiningResult`.
    if flags.get("index-out").is_some()
        && (algorithm_name == "gsp" || algorithm_name == "prefixspan")
    {
        return Err(format!(
            "--index-out requires a paper algorithm (apriori-all/-some, dynamic-some); {algorithm_name} does not produce id-space patterns"
        ));
    }

    if algorithm_name == "gsp" {
        let db = load_mem_db()?;
        let mut config = GspConfig::default();
        if let Some(g) = flags.get_parsed::<i64>("min-gap")? {
            config = config.min_gap(g);
        }
        if let Some(g) = flags.get_parsed::<i64>("max-gap")? {
            config = config.max_gap(g);
        }
        if let Some(w) = flags.get_parsed::<i64>("element-window")? {
            config = config.window(w);
        }
        let patterns = if include_all {
            gsp(&db, MinSupport::Fraction(minsup), &config)
        } else {
            gsp_maximal(&db, MinSupport::Fraction(minsup), &config)
        };
        for p in &patterns {
            println!("{p} #SUP: {}", p.support);
        }
        eprintln!("{} patterns (gsp, {config:?})", patterns.len());
        return Ok(());
    }

    if algorithm_name == "prefixspan" {
        let db = load_mem_db()?;
        let config = PrefixSpanConfig {
            max_length,
            ..Default::default()
        };
        let patterns = if include_all {
            prefixspan(&db, MinSupport::Fraction(minsup), &config)
        } else {
            prefixspan_maximal(&db, MinSupport::Fraction(minsup), &config)
        };
        for p in &patterns {
            println!("{p} #SUP: {}", p.support);
        }
        eprintln!("{} patterns (prefixspan)", patterns.len());
        return Ok(());
    }

    let step = flags.get_parsed::<usize>("step")?.unwrap_or(2);
    let algorithm = match algorithm_name {
        "apriori-all" => Algorithm::AprioriAll,
        "apriori-some" => Algorithm::AprioriSome,
        "dynamic-some" => Algorithm::DynamicSome { step },
        other => {
            return Err(format!(
                "unknown algorithm {other:?} (apriori-all, apriori-some, dynamic-some, prefixspan, gsp)"
            ))
        }
    };
    let mut config = MinerConfig::new(MinSupport::Fraction(minsup))
        .algorithm(algorithm)
        .include_non_maximal(include_all)
        .parallelism(parallelism)
        .counting(strategy);
    if let Some(cap) = max_length {
        config = config.max_length(cap);
    }
    if let Some(mb) = vertical_cache_mb {
        config.vertical.cache_cap_bytes = mb << 20;
    }
    if let Some(s) = shard_customers {
        config = config.shard_customers(s);
    }
    let result: MiningResult = if backend == "mmap" {
        if flags.get("window").is_some() {
            return Err(
                "--window re-groups raw transactions; a colstore is already transformed".into(),
            );
        }
        let store = ColstoreDataset::open(input).map_err(|e| format!("opening {input}: {e}"))?;
        Miner::new(config).mine_dataset(&store)
    } else {
        let db = load_mem_db()?;
        Miner::new(config).mine(&db)
    };
    for p in &result.patterns {
        println!("{p} #SUP: {}", p.support);
    }
    eprintln!(
        "{} patterns at minsup {minsup} (count ≥ {}) over {} customers [{algorithm}, {strategy} counting]",
        result.patterns.len(),
        result.min_support_count,
        result.num_customers
    );
    if let Some(index_out) = flags.get("index-out") {
        let trie = seqpat_serve::PatternTrie::build(
            &result.id_patterns,
            result.table.clone(),
            result.num_customers as u64,
        )
        .map_err(|e| format!("building index: {e}"))?;
        trie.save(index_out)
            .map_err(|e| format!("writing {index_out}: {e}"))?;
        eprintln!(
            "index: {} patterns → {index_out} ({} nodes, {} children, {} bytes)",
            trie.num_patterns(),
            trie.num_nodes(),
            trie.num_children(),
            trie.serialized_len()
        );
    }
    if flags.has("stats") {
        let s = &result.stats;
        eprintln!(
            "litemsets: {}  candidates generated/counted: {}/{}  containment tests: {}  threads: {}",
            s.num_litemsets,
            s.candidates_generated,
            s.candidates_counted,
            s.containment_tests,
            s.threads_used
        );
        if s.probe_nodes > 0 {
            eprintln!("hash tree: probe nodes visited: {}", s.probe_nodes);
        }
        eprintln!(
            "sequences: {} large, {} maximal  passes: {} litemset, {} sequence",
            s.large_sequences,
            s.maximal_sequences,
            s.litemset_passes.len(),
            s.sequence_passes.len()
        );
        for p in &s.litemset_passes {
            eprintln!(
                "  litemset k={}: candidates {}  large {}  in {:?}",
                p.k, p.candidates, p.large, p.duration
            );
        }
        for p in &s.sequence_passes {
            eprintln!(
                "  pass k={}{}: generated {}  counted {}  large {}  pruned {}  in {:?}",
                p.k,
                if p.backward { " (backward)" } else { "" },
                p.generated,
                p.counted,
                p.large,
                p.pruned_by_containment,
                p.pass_time
            );
        }
        if let Some(d) = &s.auto_decision {
            eprintln!(
                "auto: chose {} ({}) — customers: {}  litemsets: {}  mean length: {:.2}  density: {:.4}",
                d.choice, d.reason, d.customers, d.litemsets, d.mean_len, d.density
            );
        }
        if strategy == CountingStrategy::Vertical || s.vertical_peak_bytes > 0 {
            eprintln!(
                "vertical: index build {:?}  joins: {}  gallop skips: {}  peak index bytes: {}",
                s.vertical_index_time, s.join_ops, s.gallop_skips, s.vertical_peak_bytes
            );
        }
        if strategy == CountingStrategy::Bitmap || s.bitmap_words > 0 {
            eprintln!(
                "bitmap: index build {:?}  sstep ops: {}  lane words: {}  carry fixups: {}  arena words: {}",
                s.bitmap_index_time, s.sstep_ops, s.lane_words, s.carry_fixups, s.bitmap_words
            );
        }
        if s.shards_processed > 0 {
            eprintln!(
                "shards: {} processed  {} bytes paged in",
                s.shards_processed, s.shard_bytes
            );
        }
        eprintln!("memory: peak rss bytes: {}", s.peak_rss_bytes);
        eprintln!(
            "times: litemset {:?}, transform {:?}, sequence {:?}, maximal {:?}",
            s.litemset_time, s.transform_time, s.sequence_time, s.maximal_time
        );
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let input = flags.require("in")?;
    let format = detect_format(&flags, input)?;
    let db = load(input, format)?;
    println!("{}", DatasetStats::compute(&db));
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[])?;
    let input = flags.require("in")?;
    let output = flags.require("out")?;
    let in_format = if input.ends_with(".csv") {
        "csv"
    } else {
        "spmf"
    };
    let out_format = if output.ends_with(".csv") {
        "csv"
    } else if output.ends_with(".colstore") {
        "colstore"
    } else {
        "spmf"
    };
    let db = load(input, in_format)?;
    if out_format == "colstore" {
        // The store holds the *transformed* database, so the litemset
        // threshold must be fixed at conversion time.
        let minsup: f64 = flags
            .get_parsed("minsup")?
            .ok_or("a .colstore output requires --minsup")?;
        if !(0.0..=1.0).contains(&minsup) || minsup == 0.0 {
            return Err("--minsup must be in (0, 1]".into());
        }
        let min_count = min_count_for(db.num_customers() as u64, minsup);
        let summary = build_colstore(
            || db.customers().iter().cloned(),
            min_count,
            &Default::default(),
            4096,
            output,
        )
        .map_err(|e| format!("writing {output}: {e}"))?;
        println!(
            "converted {input} ({in_format}) → {output} (colstore: {} customers, {} litemsets at minsup {minsup})",
            summary.total_customers, summary.litemsets
        );
        return Ok(());
    }
    store(&db, output, out_format)?;
    println!("converted {input} ({in_format}) → {output} ({out_format})");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str], switches: &[&str]) -> Flags {
        Flags::parse(
            &args.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            switches,
        )
        .expect("parse")
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let f = flags(&["--in", "x.spmf", "--all", "--minsup", "0.1"], &["all"]);
        assert_eq!(f.get("in"), Some("x.spmf"));
        assert!(f.has("all"));
        assert_eq!(f.get_parsed::<f64>("minsup").unwrap(), Some(0.1));
        assert_eq!(f.get("nope"), None);
        assert!(f.require("in").is_ok());
        assert!(f.require("nope").is_err());
    }

    #[test]
    fn flags_reject_bare_words_and_missing_values() {
        let args = vec!["oops".to_string()];
        assert!(Flags::parse(&args, &[]).is_err());
        let args = vec!["--in".to_string()];
        assert!(Flags::parse(&args, &[]).is_err());
    }

    #[test]
    fn help_flag_is_a_help_request_not_a_flag_missing_its_value() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(Flags::asks_for_help(&args(&["--help"])));
        assert!(Flags::asks_for_help(&args(&["-h"])));
        assert!(Flags::asks_for_help(&args(&["--in", "x.spmf", "--help"])));
        assert!(!Flags::asks_for_help(&args(&["--in", "x.spmf", "--stats"])));
        assert!(!Flags::asks_for_help(&[]));
    }

    #[test]
    fn bad_numeric_value_is_an_error() {
        let f = flags(&["--minsup", "abc"], &[]);
        assert!(f.get_parsed::<f64>("minsup").is_err());
    }

    #[test]
    fn format_detection() {
        let none = flags(&[], &[]);
        assert_eq!(detect_format(&none, "data.csv").unwrap(), "csv");
        assert_eq!(detect_format(&none, "data.spmf").unwrap(), "spmf");
        assert_eq!(detect_format(&none, "data.txt").unwrap(), "spmf");
        let forced = flags(&["--format", "csv"], &[]);
        assert_eq!(detect_format(&forced, "data.spmf").unwrap(), "csv");
        let bad = flags(&["--format", "xml"], &[]);
        assert!(detect_format(&bad, "x").is_err());
    }

    #[test]
    fn gen_mine_stats_end_to_end() {
        let dir = std::env::temp_dir().join("seqmine_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.spmf");
        let out = path.to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            out.clone(),
            "--customers".into(),
            "50".into(),
            "--seed".into(),
            "3".into(),
        ])
        .expect("gen");
        cmd_stats(&["--in".into(), out.clone()]).expect("stats");
        cmd_mine(&[
            "--in".into(),
            out.clone(),
            "--minsup".into(),
            "0.2".into(),
            "--algorithm".into(),
            "apriori-some".into(),
        ])
        .expect("mine");
        let csv_out = dir.join("tiny.csv").to_string_lossy().into_owned();
        cmd_convert(&["--in".into(), out, "--out".into(), csv_out.clone()]).expect("convert");
        cmd_mine(&[
            "--in".into(),
            csv_out,
            "--minsup".into(),
            "0.2".into(),
            "--algorithm".into(),
            "prefixspan".into(),
        ])
        .expect("mine csv via prefixspan");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_rejects_bad_arguments() {
        assert!(cmd_mine(&[
            "--in".into(),
            "/nonexistent".into(),
            "--minsup".into(),
            "0.5".into()
        ])
        .is_err());
        assert!(cmd_mine(&["--minsup".into(), "0.5".into()]).is_err());
        let dir = std::env::temp_dir().join("seqmine_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.spmf").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            path.clone(),
            "--customers".into(),
            "10".into(),
        ])
        .unwrap();
        assert!(cmd_mine(&["--in".into(), path.clone(), "--minsup".into(), "2.0".into()]).is_err());
        assert!(cmd_mine(&[
            "--in".into(),
            path,
            "--minsup".into(),
            "0.5".into(),
            "--algorithm".into(),
            "bogus".into()
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_accepts_thread_settings() {
        let dir = std::env::temp_dir().join("seqmine_cli_threads_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spmf").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            path.clone(),
            "--customers".into(),
            "30".into(),
        ])
        .unwrap();
        for threads in ["auto", "1", "2"] {
            cmd_mine(&[
                "--in".into(),
                path.clone(),
                "--minsup".into(),
                "0.2".into(),
                "--threads".into(),
                threads.into(),
            ])
            .unwrap_or_else(|e| panic!("--threads {threads}: {e}"));
        }
        assert!(cmd_mine(&[
            "--in".into(),
            path,
            "--minsup".into(),
            "0.2".into(),
            "--threads".into(),
            "bogus".into(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_accepts_strategy_settings() {
        let dir = std::env::temp_dir().join("seqmine_cli_strategy_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.spmf").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            path.clone(),
            "--customers".into(),
            "30".into(),
        ])
        .unwrap();
        for strategy in [
            "direct",
            "hashtree",
            "hash-tree",
            "vertical",
            "bitmap",
            "auto",
        ] {
            cmd_mine(&[
                "--in".into(),
                path.clone(),
                "--minsup".into(),
                "0.2".into(),
                "--strategy".into(),
                strategy.into(),
                "--stats".into(),
            ])
            .unwrap_or_else(|e| panic!("--strategy {strategy}: {e}"));
        }
        // The vertical cache cap is settable (0 disables retention).
        for mb in ["0", "16"] {
            cmd_mine(&[
                "--in".into(),
                path.clone(),
                "--minsup".into(),
                "0.2".into(),
                "--strategy".into(),
                "vertical".into(),
                "--vertical-cache-mb".into(),
                mb.into(),
            ])
            .unwrap_or_else(|e| panic!("--vertical-cache-mb {mb}: {e}"));
        }
        assert!(cmd_mine(&[
            "--in".into(),
            path.clone(),
            "--minsup".into(),
            "0.2".into(),
            "--vertical-cache-mb".into(),
            "lots".into(),
        ])
        .is_err());
        assert!(cmd_mine(&[
            "--in".into(),
            path,
            "--minsup".into(),
            "0.2".into(),
            "--strategy".into(),
            "bogus".into(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_with_window_merges_elements() {
        let dir = std::env::temp_dir().join("seqmine_cli_window_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.csv").to_string_lossy().into_owned();
        std::fs::write(&path, "customer,time,items\n1,0,1\n1,1,2\n2,0,1\n2,1,2\n").unwrap();
        cmd_mine(&[
            "--in".into(),
            path.clone(),
            "--minsup".into(),
            "1.0".into(),
            "--window".into(),
            "1".into(),
        ])
        .expect("windowed mine");
        assert!(cmd_mine(&[
            "--in".into(),
            path,
            "--minsup".into(),
            "1.0".into(),
            "--window".into(),
            "-3".into(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn colstore_backend_end_to_end() {
        let dir = std::env::temp_dir().join("seqmine_cli_colstore_test");
        std::fs::create_dir_all(&dir).unwrap();
        let spmf_path = dir.join("c.spmf").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            spmf_path.clone(),
            "--customers".into(),
            "30".into(),
            "--seed".into(),
            "5".into(),
        ])
        .expect("gen spmf");

        // convert → colstore, then mine it through the mmap backend
        // (implied by the extension) with sharding and explicit flags.
        let col = dir.join("c.colstore").to_string_lossy().into_owned();
        cmd_convert(&[
            "--in".into(),
            spmf_path.clone(),
            "--out".into(),
            col.clone(),
            "--minsup".into(),
            "0.2".into(),
        ])
        .expect("convert to colstore");
        cmd_mine(&[
            "--in".into(),
            col.clone(),
            "--minsup".into(),
            "0.2".into(),
            "--max-length".into(),
            "4".into(),
            "--shard-customers".into(),
            "7".into(),
            "--stats".into(),
        ])
        .expect("mine colstore sharded");
        cmd_mine(&[
            "--in".into(),
            col.clone(),
            "--minsup".into(),
            "0.2".into(),
            "--max-length".into(),
            "4".into(),
            "--backend".into(),
            "mmap".into(),
        ])
        .expect("mine colstore explicit backend");

        // gen --format colstore streams straight to disk.
        let gen_col = dir.join("g.colstore").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            gen_col.clone(),
            "--customers".into(),
            "25".into(),
            "--seed".into(),
            "5".into(),
            "--minsup".into(),
            "0.25".into(),
        ])
        .expect("gen colstore");
        cmd_mine(&[
            "--in".into(),
            gen_col.clone(),
            "--minsup".into(),
            "0.25".into(),
            "--max-length".into(),
            "4".into(),
        ])
        .expect("mine generated colstore");

        // Error surface: prefixspan/window/backends/shard sizes.
        let base = ["--in".to_string(), col.clone(), "--minsup".to_string()];
        assert!(cmd_mine(
            &[
                &base[..],
                &["0.2".into(), "--algorithm".into(), "prefixspan".into()]
            ]
            .concat()
        )
        .is_err());
        assert!(
            cmd_mine(&[&base[..], &["0.2".into(), "--window".into(), "1".into()]].concat())
                .is_err()
        );
        assert!(cmd_mine(
            &[
                &base[..],
                &["0.2".into(), "--backend".into(), "bogus".into()]
            ]
            .concat()
        )
        .is_err());
        assert!(cmd_mine(
            &[
                &base[..],
                &["0.2".into(), "--shard-customers".into(), "0".into()]
            ]
            .concat()
        )
        .is_err());
        assert!(cmd_gen(&[
            "--out".into(),
            gen_col.clone(),
            "--format".into(),
            "colstore".into()
        ])
        .is_err());
        assert!(cmd_stats(&["--in".into(), gen_col]).is_err());
        assert!(cmd_convert(&[
            "--in".into(),
            spmf_path,
            "--out".into(),
            dir.join("no-minsup.colstore")
                .to_string_lossy()
                .into_owned(),
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mine_index_out_builds_a_servable_index() {
        let dir = std::env::temp_dir().join("seqmine_cli_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.spmf").to_string_lossy().into_owned();
        let idx = dir.join("d.seqpats").to_string_lossy().into_owned();
        cmd_gen(&[
            "--out".into(),
            data.clone(),
            "--customers".into(),
            "40".into(),
            "--seed".into(),
            "7".into(),
        ])
        .expect("gen");
        cmd_mine(&[
            "--in".into(),
            data.clone(),
            "--minsup".into(),
            "0.1".into(),
            "--index-out".into(),
            idx.clone(),
        ])
        .expect("mine with index");
        let qfile = dir.join("q.txt").to_string_lossy().into_owned();
        serve::cmd_queries(&[
            "--index".into(),
            idx.clone(),
            "--out".into(),
            qfile.clone(),
            "--count".into(),
            "25".into(),
        ])
        .expect("queries");
        serve::cmd_query(&[
            "--index".into(),
            idx.clone(),
            "--queries".into(),
            qfile.clone(),
            "--stats".into(),
        ])
        .expect("query");
        serve::cmd_serve(&["--index".into(), idx.clone(), "--queries".into(), qfile])
            .expect("serve");
        // gsp/prefixspan cannot carry id-space patterns out.
        assert!(cmd_mine(&[
            "--in".into(),
            data,
            "--minsup".into(),
            "0.2".into(),
            "--algorithm".into(),
            "prefixspan".into(),
            "--index-out".into(),
            idx,
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gen_rejects_unknown_dataset() {
        assert!(cmd_gen(&[
            "--out".into(),
            "/tmp/x.spmf".into(),
            "--dataset".into(),
            "NOPE".into()
        ])
        .is_err());
    }
}
