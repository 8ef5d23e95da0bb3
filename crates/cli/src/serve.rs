//! The serving-side subcommands: `queries`, `query`, and `serve`.
//!
//! All three operate on a `SEQPATS1` index file written by
//! `mine --index-out` (see `seqpat_serve::format`). Queries travel in a
//! small SPMF-flavoured text format, one query per line:
//!
//! ```text
//! 10 20 -1 30 -1 -2      # two elements: itemset (10 20), then (30)
//! ? -1 30 -2             # `?` is a guaranteed-miss element
//! ```
//!
//! Elements are separated by `-1` and a line ends at `-2` (trailing `-2`
//! optional on `--prefix`). Each element is resolved against the index's
//! litemset table; an unknown itemset — including the explicit `?` — maps
//! to the miss sentinel, so the trie and the `--oracle` reference agree
//! that it matches nothing.

use std::sync::Arc;

use seqpat_core::{Item, LitemsetId};
use seqpat_datagen::{query_workload, QueryWorkloadParams, MISS_ID};
use seqpat_serve::{oracle_predict, run_workload, PatternTrie, Prediction, WorkloadOptions};

use crate::Flags;

pub(crate) fn load_index(path: &str) -> Result<Arc<PatternTrie>, String> {
    PatternTrie::load(path)
        .map(Arc::new)
        .map_err(|e| format!("loading index {path}: {e}"))
}

/// Parses one query line (`items -1 items -1 -2`, `?` = miss element)
/// into litemset-id space against the index's table.
fn parse_query(line: &str, trie: &PatternTrie) -> Result<Vec<LitemsetId>, String> {
    let mut ids = Vec::new();
    let mut items: Vec<Item> = Vec::new();
    let mut miss = false;
    let mut flush = |items: &mut Vec<Item>, miss: &mut bool| {
        if *miss || !items.is_empty() {
            let id = if *miss {
                MISS_ID
            } else {
                items.sort_unstable();
                items.dedup();
                trie.table().id_of(items).unwrap_or(MISS_ID)
            };
            ids.push(id);
            items.clear();
            *miss = false;
        }
    };
    for token in line.split_whitespace() {
        match token {
            "-2" => break,
            "-1" => flush(&mut items, &mut miss),
            "?" => miss = true,
            t => items.push(
                t.parse::<Item>()
                    .map_err(|_| format!("bad item {t:?} in query {line:?}"))?,
            ),
        }
    }
    flush(&mut items, &mut miss);
    Ok(ids)
}

/// Reads a query file: one query per line, `#` comments and blanks skipped.
fn read_queries(path: &str, trie: &PatternTrie) -> Result<Vec<Vec<LitemsetId>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let q = parse_query(line, trie).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if !q.is_empty() {
            out.push(q);
        }
    }
    Ok(out)
}

/// Renders one id-space query back into the text format.
fn render_query(trie: &PatternTrie, ids: &[LitemsetId]) -> String {
    let mut s = String::new();
    for &id in ids {
        if id == MISS_ID || (id as usize) >= trie.table().len() {
            s.push_str("? -1 ");
        } else {
            for item in trie.table().itemset(id).items() {
                s.push_str(&format!("{item} "));
            }
            s.push_str("-1 ");
        }
    }
    s.push_str("-2");
    s
}

/// Renders a prediction list in the stable form the CI smoke diffs.
fn render_predictions(trie: &PatternTrie, preds: &[Prediction]) -> String {
    if preds.is_empty() {
        return "-".to_string();
    }
    preds
        .iter()
        .map(|p| format!("{} #SUP: {}", trie.table().itemset(p.id), p.support))
        .collect::<Vec<_>>()
        .join(" | ")
}

/// `seqmine queries` — sample a reproducible prefix-query workload from
/// the patterns stored in an index.
pub(crate) fn cmd_queries(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["index", "out", "count", "skew", "miss-rate", "seed"],
        &[],
    )?;
    let index = flags.require("index")?;
    let out = flags.require("out")?;
    let defaults = QueryWorkloadParams::default();
    let params = QueryWorkloadParams {
        count: flags.get_parsed("count")?.unwrap_or(defaults.count),
        skew: flags.get_parsed("skew")?.unwrap_or(defaults.skew),
        miss_rate: flags.get_parsed("miss-rate")?.unwrap_or(defaults.miss_rate),
    };
    if !(0.0..=1.0).contains(&params.miss_rate) {
        return Err("--miss-rate must be in [0, 1]".into());
    }
    let seed = flags.get_parsed::<u64>("seed")?.unwrap_or(42);
    let trie = load_index(index)?;
    let patterns = trie.patterns();
    let workload = query_workload(&patterns, &params, seed);
    let mut text = String::new();
    for q in &workload {
        text.push_str(&render_query(&trie, q));
        text.push('\n');
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} queries → {out} (from {} patterns, skew {}, miss-rate {}, seed {seed})",
        workload.len(),
        patterns.len(),
        params.skew,
        params.miss_rate
    );
    Ok(())
}

/// `seqmine query` — answer one prefix (`--prefix`) or a whole file
/// (`--queries`), printing one line per query. `--oracle` answers from a
/// linear scan of the stored patterns instead of the trie; the output
/// format is identical, so the two modes can be diffed.
pub(crate) fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["index", "k", "prefix", "queries"],
        &["oracle", "stats"],
    )?;
    let index = flags.require("index")?;
    let k = flags.get_parsed::<usize>("k")?.unwrap_or(5);
    let trie = load_index(index)?;
    let queries = match (flags.get("prefix"), flags.get("queries")) {
        (Some(_), Some(_)) => return Err("--prefix and --queries are mutually exclusive".into()),
        (Some(p), None) => vec![parse_query(p, &trie)?],
        (None, Some(path)) => read_queries(path, &trie)?,
        (None, None) => return Err("one of --prefix or --queries is required".into()),
    };
    let oracle_patterns = if flags.has("oracle") {
        Some(trie.patterns())
    } else {
        None
    };
    let mut hits = 0usize;
    for q in &queries {
        let preds = match &oracle_patterns {
            Some(patterns) => oracle_predict(patterns, q, k),
            None => trie.predict(q, k),
        };
        if !preds.is_empty() {
            hits += 1;
        }
        println!(
            "{} => {}",
            render_query(&trie, q),
            render_predictions(&trie, &preds)
        );
    }
    if flags.has("stats") {
        eprintln!(
            "{} queries, {} hits ({:.1}%), k={k}, mode={} [index: {} nodes, {} patterns]",
            queries.len(),
            hits,
            if queries.is_empty() {
                0.0
            } else {
                100.0 * hits as f64 / queries.len() as f64
            },
            if oracle_patterns.is_some() {
                "oracle"
            } else {
                "trie"
            },
            trie.num_nodes(),
            trie.num_patterns()
        );
    }
    Ok(())
}

/// `seqmine serve` — replay a query file through the concurrent workload
/// runner and report throughput and latency order statistics.
pub(crate) fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["index", "queries", "threads", "repeat", "k"], &[])?;
    let index = flags.require("index")?;
    let queries_path = flags.require("queries")?;
    let opts = WorkloadOptions {
        threads: flags.get_parsed("threads")?.unwrap_or(1),
        repeat: flags.get_parsed("repeat")?.unwrap_or(1),
        k: flags.get_parsed("k")?.unwrap_or(5),
    };
    let trie = load_index(index)?;
    let queries = read_queries(queries_path, &trie)?;
    if queries.is_empty() {
        return Err(format!("{queries_path}: no queries"));
    }
    let report = run_workload(&trie, &queries, &opts);
    println!(
        "index: {} nodes, {} children, {} patterns, {} heap bytes",
        trie.num_nodes(),
        trie.num_children(),
        trie.num_patterns(),
        trie.heap_bytes()
    );
    println!(
        "served {} queries × {} repeat(s) on {} thread(s), k={}: {} hits ({:.1}%), {} predictions, checksum {:016x}",
        report.queries,
        opts.repeat.max(1),
        opts.threads.max(1),
        opts.k,
        report.hits,
        100.0 * report.hit_rate(),
        report.predictions,
        report.checksum
    );
    println!(
        "latency: mean {} ns  p50 {} ns  p99 {} ns  max {} ns   throughput: {:.0} qps",
        report.latency.mean_ns,
        report.latency.p50_ns,
        report.latency.p99_ns,
        report.latency.max_ns,
        report.qps()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpat_core::{Itemset, LargeIdSequence, LitemsetTable};

    fn index() -> Arc<PatternTrie> {
        let table = LitemsetTable::new(vec![
            (Itemset::new(vec![10, 20]), 8),
            (Itemset::new(vec![30]), 6),
            (Itemset::new(vec![40]), 5),
        ]);
        let patterns = vec![
            LargeIdSequence {
                ids: vec![0, 1],
                support: 4,
            },
            LargeIdSequence {
                ids: vec![0, 2],
                support: 6,
            },
        ];
        Arc::new(PatternTrie::build(&patterns, table, 10).unwrap())
    }

    #[test]
    fn parse_resolves_items_misses_and_sentinels() {
        let trie = index();
        assert_eq!(parse_query("10 20 -1 30 -1 -2", &trie).unwrap(), vec![0, 1]);
        // Order and duplicates inside an element do not matter.
        assert_eq!(parse_query("20 10 10 -1", &trie).unwrap(), vec![0]);
        // Unknown itemsets and `?` both become the miss sentinel.
        assert_eq!(parse_query("99 -1 -2", &trie).unwrap(), vec![MISS_ID]);
        assert_eq!(parse_query("? -1 30 -2", &trie).unwrap(), vec![MISS_ID, 1]);
        assert!(parse_query("abc -1", &trie).is_err());
        assert!(parse_query("-2", &trie).unwrap().is_empty());
    }

    #[test]
    fn render_roundtrips_through_parse() {
        let trie = index();
        for q in [vec![0, 1], vec![2], vec![MISS_ID, 0]] {
            let text = render_query(&trie, &q);
            assert_eq!(parse_query(&text, &trie).unwrap(), q, "{text}");
        }
    }

    #[test]
    fn end_to_end_index_queries_serve() {
        let dir = std::env::temp_dir().join("seqmine_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let idx = dir.join("t.seqpats").to_string_lossy().into_owned();
        index().save(&idx).unwrap();

        let qfile = dir.join("q.txt").to_string_lossy().into_owned();
        cmd_queries(&[
            "--index".into(),
            idx.clone(),
            "--out".into(),
            qfile.clone(),
            "--count".into(),
            "20".into(),
            "--seed".into(),
            "1".into(),
        ])
        .expect("queries");
        let trie = load_index(&idx).unwrap();
        assert_eq!(read_queries(&qfile, &trie).unwrap().len(), 20);

        cmd_query(&[
            "--index".into(),
            idx.clone(),
            "--prefix".into(),
            "10 20 -1".into(),
            "--stats".into(),
        ])
        .expect("query prefix");
        cmd_query(&[
            "--index".into(),
            idx.clone(),
            "--queries".into(),
            qfile.clone(),
            "--oracle".into(),
        ])
        .expect("query oracle");
        cmd_serve(&[
            "--index".into(),
            idx.clone(),
            "--queries".into(),
            qfile,
            "--threads".into(),
            "2".into(),
            "--repeat".into(),
            "3".into(),
        ])
        .expect("serve");

        // Error surface.
        assert!(cmd_query(&["--index".into(), idx.clone()]).is_err());
        assert!(cmd_query(&[
            "--index".into(),
            idx.clone(),
            "--prefix".into(),
            "30 -1".into(),
            "--queries".into(),
            "x".into(),
        ])
        .is_err());
        assert!(cmd_queries(&[
            "--index".into(),
            idx.clone(),
            "--out".into(),
            "/tmp/q".into(),
            "--miss-rate".into(),
            "1.5".into(),
        ])
        .is_err());
        assert!(cmd_serve(&[
            "--index".into(),
            idx,
            "--queries".into(),
            "/nonexistent".into()
        ])
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
