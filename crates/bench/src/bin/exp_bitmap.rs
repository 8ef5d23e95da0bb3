//! **E11 — the bitmap counting crossover study.**
//!
//! Sweeps *density* × *minimum support* and races the three index-aware
//! strategies (hash tree, vertical id-lists, SPAM-style bitmap) serially
//! in every cell. Density is steered through the item-universe size `N`
//! of the paper's generator: a small universe concentrates support on few
//! litemsets (dense bitmaps — the S-step kernel's regime), the paper's
//! 10 000-item universe spreads it long-tail thin (sparse — the id-list
//! joins' regime).
//!
//! Each cell records wall time, the exact-work counters (`ops` =
//! containment tests + joins + S-step words), per-strategy peak index
//! bytes, and what `CountingStrategy::Auto` chose for the cell and why.
//! The output, `results/e11_bitmap.json`, is the calibration source for
//! the `AUTO_*` thresholds in `seqpat_core::counting` — EXPERIMENTS.md
//! §E11 walks through the reading.
//!
//! Every cell asserts all strategies (and Auto) return the same pattern
//! count, so a disagreement aborts with a non-zero exit.

use seqpat_bench::harness::{measure_config, MiningMeasurement};
use seqpat_bench::table::fmt_secs;
use seqpat_bench::{Args, Table};
use seqpat_core::counting::{AUTO_BITMAP_CAP_BYTES, AUTO_DENSITY_CROSSOVER, AUTO_MIN_CUSTOMERS};
use seqpat_core::{CountingStrategy, MinSupport, Miner, MinerConfig, Parallelism};
use seqpat_datagen::{generate, GenParams};

/// The racers: one cell per explicit strategy.
const RACERS: [CountingStrategy; 3] = [
    CountingStrategy::HashTree,
    CountingStrategy::Vertical,
    CountingStrategy::Bitmap,
];

/// Peak index footprint of a run, whichever index the strategy built.
fn peak_bytes(m: &MiningMeasurement) -> u64 {
    m.vertical_peak_bytes.max(m.bitmap_words * 8)
}

fn ops(m: &MiningMeasurement) -> u64 {
    m.containment_tests + m.join_ops + m.sstep_ops
}

fn main() {
    let args = Args::parse();
    // The shape with the paper's longest transactions — itemset candidates
    // survive transformation, so counting passes dominate.
    let shape = "C20-T2.5-S8-I1.25";
    // Density axis: item-universe sizes, dense → paper's long-tail sparse.
    // Each density level gets a minsup range that keeps the large-sequence
    // lattice comparable across levels: shrinking the universe multiplies
    // every item's support, so a fixed low minsup on a dense universe
    // explodes candidate generation rather than stressing counting.
    let cells_spec: &[(u32, &[f64])] = if args.quick {
        &[(100, &[0.15]), (10_000, &[0.01])]
    } else {
        &[
            (100, &[0.2, 0.15, 0.1]),
            (500, &[0.1, 0.05]),
            (2_000, &[0.02, 0.01]),
            (10_000, &[0.01, 0.0075, 0.005]),
        ]
    };

    println!(
        "E11: bitmap crossover on {shape} (|D| = {}, serial, N × minsup sweep)\n",
        args.customers
    );
    let mut table = Table::new(&[
        "N items",
        "minsup %",
        "density",
        "strategy",
        "time s",
        "ops",
        "peak index bytes",
        "patterns",
        "auto chose",
    ]);
    let mut cells = Vec::new();
    for &(num_items, grid) in cells_spec {
        let params = GenParams::paper_dataset(shape)
            .expect("paper dataset")
            .customers(args.customers)
            .items(num_items);
        let dataset = format!("{shape}-N{num_items}");
        let db = generate(&params, args.seed);
        for &minsup in grid {
            // The Auto run first: it records the density statistics the
            // selector saw and which kernel it routed the cell to.
            let auto = Miner::new(
                MinerConfig::new(MinSupport::Fraction(minsup))
                    .counting(CountingStrategy::Auto)
                    .parallelism(Parallelism::Serial),
            )
            .mine(&db);
            let decision = auto
                .stats
                .auto_decision
                .clone()
                .expect("auto run records its decision");

            let mut strategies = Vec::new();
            let mut measured: Vec<(CountingStrategy, MiningMeasurement)> = Vec::new();
            for strategy in RACERS {
                let m = measure_config(
                    &db,
                    &dataset,
                    minsup,
                    MinerConfig::new(MinSupport::Fraction(minsup))
                        .counting(strategy)
                        .parallelism(Parallelism::Serial),
                );
                assert_eq!(
                    m.patterns,
                    auto.patterns.len(),
                    "{strategy} disagrees with auto on {dataset} at minsup {minsup}"
                );
                table.row(vec![
                    num_items.to_string(),
                    format!("{:.2}", minsup * 100.0),
                    format!("{:.4}", decision.density),
                    strategy.to_string(),
                    fmt_secs(m.seconds),
                    ops(&m).to_string(),
                    peak_bytes(&m).to_string(),
                    m.patterns.to_string(),
                    decision.choice.to_string(),
                ]);
                strategies.push(format!(
                    "        {{\"strategy\": \"{strategy}\", \"seconds\": {:.6}, \
                     \"containment_tests\": {}, \"join_ops\": {}, \"sstep_ops\": {}, \
                     \"ops\": {}, \"index_seconds\": {:.6}, \"peak_index_bytes\": {}, \
                     \"patterns\": {}}}",
                    m.seconds,
                    m.containment_tests,
                    m.join_ops,
                    m.sstep_ops,
                    ops(&m),
                    m.vertical_index_seconds + m.bitmap_index_seconds,
                    peak_bytes(&m),
                    m.patterns
                ));
                measured.push((strategy, m));
            }
            let fastest = measured
                .iter()
                .min_by(|a, b| a.1.seconds.total_cmp(&b.1.seconds))
                .map(|(s, _)| *s)
                .expect("non-empty racers");
            let fewest_ops = measured
                .iter()
                .min_by_key(|(_, m)| ops(m))
                .map(|(s, _)| *s)
                .expect("non-empty racers");
            cells.push(format!(
                "    {{\"dataset\": \"{dataset}\", \"num_items\": {num_items}, \
                 \"minsup\": {minsup}, \"customers\": {}, \"litemsets\": {}, \
                 \"mean_len\": {:.4}, \"density\": {:.6}, \"bitmap_bytes\": {}, \
                 \"auto_choice\": \"{}\", \"auto_reason\": \"{}\", \
                 \"fastest\": \"{fastest}\", \"fewest_ops\": \"{fewest_ops}\", \
                 \"strategies\": [\n{}\n      ]}}",
                decision.customers,
                decision.litemsets,
                decision.mean_len,
                decision.density,
                decision.bitmap_bytes,
                decision.choice,
                decision.reason,
                strategies.join(",\n")
            ));
        }
    }
    table.print();

    let json = format!(
        "{{\n  \"experiment\": \"e11_bitmap\",\n  \"shape\": \"{shape}\",\n  \
         \"customers\": {},\n  \"seed\": {},\n  \"auto_thresholds\": {{\
         \"min_customers\": {AUTO_MIN_CUSTOMERS}, \
         \"density_crossover\": {AUTO_DENSITY_CROSSOVER}, \
         \"bitmap_cap_bytes\": {AUTO_BITMAP_CAP_BYTES}}},\n  \"cells\": [\n{}\n  ]\n}}\n",
        args.customers,
        args.seed,
        cells.join(",\n")
    );
    std::fs::create_dir_all(&args.out_dir).expect("create results dir");
    let path = std::path::Path::new(&args.out_dir).join("e11_bitmap.json");
    std::fs::write(&path, json).expect("write JSON");
    println!("\nwrote {}", path.display());
}
