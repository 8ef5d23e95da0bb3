//! **E7 — ablations** of the implementation choices DESIGN.md calls out,
//! plus **E10 — the vertical-counting crossover study**.
//!
//! E7 cells:
//!
//! * counting strategy: all three explicit strategies — the paper's
//!   candidate hash tree, the vertical occurrence-index joins, the
//!   SPAM-style bitmap S-step kernel — plus the `auto` selector, one serial
//!   cell each;
//! * hash-tree shape: fanout × leaf-capacity grid;
//! * counting threads: 2 / 4 workers for the explicit strategies.
//!
//! Results are identical across all cells by construction (the property
//! tests pin that) and every cell is asserted against the hash-tree baseline,
//! so any strategy disagreement aborts the run with a non-zero exit. Only
//! the time and the per-strategy work counters move. The work counters are
//! *not* comparable unit-for-unit across strategies — horizontal strategies
//! do exact containment tests, the vertical strategy does occurrence-list
//! merge-joins, the bitmap strategy smears frontier words — so all three
//! are reported, plus their sum `ops` as the "exact verification
//! operations" total E10 analyses.
//!
//! E10 sweeps minimum support with the index strategies serial on one
//! dataset and writes `results/e10_vertical.json`: per cell wall time,
//! containment tests, joins, `ops = tests + joins + sstep words`, peak
//! vertical index bytes and the (identical) pattern count. (E11, the
//! bitmap crossover sweep, lives in `exp_bitmap`.)

use seqpat_bench::harness::{measure_config, MiningMeasurement};
use seqpat_bench::table::fmt_secs;
use seqpat_bench::{Args, Table};
use seqpat_core::counting::TreeParams;
use seqpat_core::{CountingStrategy, MinSupport, MinerConfig, Parallelism};
use seqpat_datagen::{generate, GenParams};

/// The three explicit strategies, baseline (the paper's hash tree) first.
const STRATEGIES: [CountingStrategy; 3] = [
    CountingStrategy::HashTree,
    CountingStrategy::Vertical,
    CountingStrategy::Bitmap,
];

/// Everything E7's serial smoke covers: the explicit strategies plus Auto.
const SERIAL_CELLS: [CountingStrategy; 4] = [
    CountingStrategy::HashTree,
    CountingStrategy::Vertical,
    CountingStrategy::Bitmap,
    CountingStrategy::Auto,
];

fn ops(m: &MiningMeasurement) -> u64 {
    m.containment_tests + m.join_ops + m.sstep_ops
}

fn main() {
    let args = Args::parse();
    let minsup = if args.quick { 0.01 } else { 0.005 };
    let dataset = "C10-T2.5-S4-I1.25";
    let params = GenParams::paper_dataset(dataset)
        .expect("paper dataset")
        .customers(args.customers);
    let db = generate(&params, args.seed);

    println!(
        "E7: counting ablation on {dataset} (|D| = {}, minsup {:.2}%)\n",
        args.customers,
        minsup * 100.0
    );
    let mut table = Table::new(&[
        "strategy",
        "fanout",
        "leaf cap",
        "threads",
        "time s",
        "containment tests",
        "joins",
        "sstep ops",
        "patterns",
    ]);
    let mut rows = Vec::new();
    let mut serial = |strategy: CountingStrategy| {
        let m = measure_config(
            &db,
            dataset,
            minsup,
            MinerConfig::new(MinSupport::Fraction(minsup))
                .counting(strategy)
                .parallelism(Parallelism::Serial),
        );
        table.row(vec![
            strategy.to_string(),
            "-".into(),
            "-".into(),
            m.threads.to_string(),
            fmt_secs(m.seconds),
            m.containment_tests.to_string(),
            m.join_ops.to_string(),
            m.sstep_ops.to_string(),
            m.patterns.to_string(),
        ]);
        rows.push(format!(
            "{},,,{},{:.6},{},{},{},{}",
            strategy,
            m.threads,
            m.seconds,
            m.containment_tests,
            m.join_ops,
            m.sstep_ops,
            m.patterns
        ));
        m
    };
    // One serial cell per strategy, Auto included; a pattern-set mismatch
    // against the hash-tree baseline aborts the run (non-zero exit).
    let mut baseline: Option<MiningMeasurement> = None;
    for strategy in SERIAL_CELLS {
        let m = serial(strategy);
        if let Some(baseline) = &baseline {
            assert_eq!(
                m.patterns, baseline.patterns,
                "{strategy} disagrees with the hash-tree baseline on the answer"
            );
        } else {
            baseline = Some(m);
        }
    }
    let baseline = baseline.expect("baseline cell");

    for fanout in [4usize, 16, 64] {
        for leaf_capacity in [8usize, 32, 128] {
            let mut config = MinerConfig::new(MinSupport::Fraction(minsup))
                .counting(CountingStrategy::HashTree)
                .parallelism(Parallelism::Serial);
            config.tree_params = TreeParams {
                fanout,
                leaf_capacity,
            };
            let m = measure_config(&db, dataset, minsup, config);
            assert_eq!(
                m.patterns, baseline.patterns,
                "strategies must agree on the answer"
            );
            table.row(vec![
                "hashtree".into(),
                fanout.to_string(),
                leaf_capacity.to_string(),
                m.threads.to_string(),
                fmt_secs(m.seconds),
                m.containment_tests.to_string(),
                m.join_ops.to_string(),
                m.sstep_ops.to_string(),
                m.patterns.to_string(),
            ]);
            rows.push(format!(
                "hashtree,{},{},{},{:.6},{},{},{},{}",
                fanout,
                leaf_capacity,
                m.threads,
                m.seconds,
                m.containment_tests,
                m.join_ops,
                m.sstep_ops,
                m.patterns
            ));
        }
    }

    // Threads axis: all strategies, default tree shape. Answers and work
    // counters stay bit-identical to the serial rows.
    for strategy in STRATEGIES {
        for threads in [2usize, 4] {
            let config = MinerConfig::new(MinSupport::Fraction(minsup))
                .counting(strategy)
                .parallelism(Parallelism::threads(threads));
            let m = measure_config(&db, dataset, minsup, config);
            assert_eq!(
                m.patterns, baseline.patterns,
                "thread count must not change the answer"
            );
            assert_eq!(m.threads, threads);
            table.row(vec![
                strategy.to_string(),
                "-".into(),
                "-".into(),
                threads.to_string(),
                fmt_secs(m.seconds),
                m.containment_tests.to_string(),
                m.join_ops.to_string(),
                m.sstep_ops.to_string(),
                m.patterns.to_string(),
            ]);
            rows.push(format!(
                "{},,,{},{:.6},{},{},{},{}",
                strategy,
                threads,
                m.seconds,
                m.containment_tests,
                m.join_ops,
                m.sstep_ops,
                m.patterns
            ));
        }
    }
    table.print();
    let path = args
        .write_csv(
            "e7_ablation",
            "strategy,fanout,leaf_capacity,threads,seconds,containment_tests,join_ops,sstep_ops,patterns",
            &rows,
        )
        .expect("write CSV");
    println!("\nwrote {}", path.display());

    // ---- E10: vertical crossover sweep ---------------------------------
    let grid: &[f64] = if args.quick {
        &[0.01]
    } else {
        &[0.01, 0.0075, 0.005, 0.0033]
    };
    println!("\nE10: vertical crossover on {dataset} (serial, minsup sweep)\n");
    let mut table = Table::new(&[
        "minsup %",
        "strategy",
        "time s",
        "containment tests",
        "joins",
        "sstep ops",
        "ops",
        "peak index bytes",
        "patterns",
    ]);
    let mut entries = Vec::new();
    let mut vertical_beats_hashtree = false;
    for &minsup in grid {
        let mut cells: Vec<(CountingStrategy, MiningMeasurement)> = Vec::new();
        for strategy in STRATEGIES {
            let config = MinerConfig::new(MinSupport::Fraction(minsup))
                .counting(strategy)
                .parallelism(Parallelism::Serial);
            let m = measure_config(&db, dataset, minsup, config);
            if let Some((_, first)) = cells.first() {
                assert_eq!(
                    m.patterns, first.patterns,
                    "strategies must agree at minsup {minsup}"
                );
            }
            table.row(vec![
                format!("{:.2}", minsup * 100.0),
                strategy.to_string(),
                fmt_secs(m.seconds),
                m.containment_tests.to_string(),
                m.join_ops.to_string(),
                m.sstep_ops.to_string(),
                ops(&m).to_string(),
                m.vertical_peak_bytes.max(m.bitmap_words * 8).to_string(),
                m.patterns.to_string(),
            ]);
            entries.push(format!(
                "    {{\"minsup\": {minsup}, \"strategy\": \"{strategy}\", \
                 \"seconds\": {:.6}, \"containment_tests\": {}, \"join_ops\": {}, \
                 \"sstep_ops\": {}, \"ops\": {}, \"vertical_index_seconds\": {:.6}, \
                 \"vertical_peak_bytes\": {}, \"patterns\": {}}}",
                m.seconds,
                m.containment_tests,
                m.join_ops,
                m.sstep_ops,
                ops(&m),
                m.vertical_index_seconds,
                m.vertical_peak_bytes,
                m.patterns
            ));
            cells.push((strategy, m));
        }
        // `STRATEGIES` order: the hash tree, then vertical.
        let hashtree = &cells[0].1;
        let vertical = &cells[1].1;
        if ops(vertical) < ops(hashtree) {
            vertical_beats_hashtree = true;
        }
    }
    table.print();
    assert!(
        vertical_beats_hashtree,
        "expected at least one cell where vertical does fewer exact ops than the hash tree"
    );

    let json = format!(
        "{{\n  \"experiment\": \"e10_vertical\",\n  \"dataset\": \"{dataset}\",\n  \
         \"customers\": {},\n  \"seed\": {},\n  \"results\": [\n{}\n  ]\n}}\n",
        args.customers,
        args.seed,
        entries.join(",\n")
    );
    std::fs::create_dir_all(&args.out_dir).expect("create results dir");
    let path = std::path::Path::new(&args.out_dir).join("e10_vertical.json");
    std::fs::write(&path, json).expect("write JSON");
    println!("\nwrote {}", path.display());
}
