//! The traced run: set-up and one measured operation, split into the
//! library's layers and timed from outside them.
//!
//! Mining goes through the same public functions `Miner` calls
//! (`spmf::read_file`, `litemset_phase`, `transform_phase`, the sequence
//! algorithm, `maximal_phase`), each inside a span. Shard loads of the
//! colstore go through [`RecordingStore`], a `Dataset` that delegates to the
//! store and records every range the counting passes load. It reads no
//! clock: its `load_shard` is reachable from the counting kernels, which
//! seqpat-lint keeps free of wall-clock reads. The recorded loads are
//! replayed against the store after the operation, one span each, and
//! that replay is `io.shard_load_s`. Counters come from what the public
//! API returns (`MiningStats`, the litemset table, the index file) plus
//! this benchmark's own counts.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;

use seqpat_core::algorithms::apriori_all::SequencePhaseOptions;
use seqpat_core::algorithms::{apriori_all, apriori_some, dynamic_some};
use seqpat_core::counting::large_two_sequences;
use seqpat_core::phases::litemset::litemset_phase;
use seqpat_core::phases::maximal::maximal_phase;
use seqpat_core::phases::transform::transform_phase;
use seqpat_core::{Algorithm, Dataset, LargeIdSequence, LitemsetTable, MinerConfig, MiningStats};
use seqpat_core::{Pattern, ShardScratch, TransformedCustomer};
use seqpat_io::{spmf, ColstoreDataset};
use seqpat_serve::PatternTrie;

use crate::files;
use crate::trace::Tracer;
use crate::workload::{raw_patterns, Kind, Workload, REPLAYS};

/// Every per-layer metric, with its unit. A metric of a layer the
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("datagen.generate_s", "s"),
    ("io.spmf_write_s", "s"),
    ("io.spmf_read_s", "s"),
    ("io.input_bytes", "bytes"),
    ("io.colstore_build_s", "s"),
    ("io.colstore_open_s", "s"),
    ("io.shard_load_s", "s"),
    ("io.shard_loads", "count"),
    ("io.shard_bytes", "bytes"),
    ("itemset.litemset_s", "s"),
    ("itemset.litemsets", "count"),
    ("itemset.passes", "count"),
    ("itemset.candidates", "count"),
    ("core.transform_s", "s"),
    ("core.sequence_s", "s"),
    ("core.pass2_s", "s"),
    ("core.pass3plus_s", "s"),
    ("core.candidates_generated", "count"),
    ("core.candidates_counted", "count"),
    ("core.containment_tests", "count"),
    ("core.probe_nodes", "count"),
    ("core.join_ops", "count"),
    ("core.sstep_ops", "count"),
    ("core.index_peak_bytes", "bytes"),
    ("core.large_sequences", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.maximal_s", "s"),
    ("core.maximal_sequences", "count"),
    ("serve.build_s", "s"),
    ("serve.save_s", "s"),
    ("serve.load_s", "s"),
    ("serve.lookup_s", "s"),
    ("serve.lookups", "count"),
    ("serve.hits", "count"),
    ("serve.index_bytes", "bytes"),
];

/// A colstore seen through the `Dataset` contract, recording every shard
/// load the counting passes ask for.
struct RecordingStore<'a> {
    store: &'a ColstoreDataset,
    loads: RefCell<Vec<Range<usize>>>,
    bytes: Cell<u64>,
}

impl Dataset for RecordingStore<'_> {
    fn table(&self) -> &LitemsetTable {
        self.store.table()
    }

    fn total_customers(&self) -> usize {
        self.store.total_customers()
    }

    fn num_rows(&self) -> usize {
        self.store.num_rows()
    }

    fn resident(&self) -> Option<&[TransformedCustomer]> {
        self.store.resident()
    }

    fn load_shard<'b>(
        &'b self,
        range: Range<usize>,
        scratch: &'b mut ShardScratch,
    ) -> &'b [TransformedCustomer] {
        self.bytes
            .set(self.bytes.get() + self.store.shard_bytes(range.clone()));
        self.loads.borrow_mut().push(range.clone());
        self.store.load_shard(range, scratch)
    }

    fn shard_bytes(&self, range: Range<usize>) -> u64 {
        self.store.shard_bytes(range)
    }
}

/// Sequence and maximal phases, as `Miner` runs them, with a span each.
fn sequence_and_maximal(
    config: &MinerConfig,
    ds: &dyn Dataset,
    min_count: u64,
    tracer: &Tracer,
) -> (Vec<Pattern>, MiningStats) {
    let options = SequencePhaseOptions {
        counting: config.counting,
        tree_params: config.tree_params,
        max_length: config.max_length,
        parallelism: config.parallelism,
        vertical: config.vertical,
        shard_customers: config.shard_customers,
    };
    let mut stats = MiningStats::default();
    let large: Vec<LargeIdSequence> = tracer.span("core.sequence", || match config.algorithm {
        Algorithm::AprioriAll => apriori_all(ds, min_count, &options, &mut stats),
        Algorithm::AprioriSome => apriori_some(ds, min_count, &options, &mut stats),
        Algorithm::DynamicSome { step } => dynamic_some(ds, min_count, step, &options, &mut stats),
    });
    stats.large_sequences = large.len() as u64;
    let maximal = tracer.span("core.maximal", || maximal_phase(large, ds.table()));
    stats.maximal_sequences = maximal.len() as u64;
    let mut patterns: Vec<Pattern> = maximal
        .iter()
        .map(|s| Pattern {
            sequence: ds.table().to_sequence(&s.ids),
            support: s.support,
        })
        .collect();
    patterns.sort_by(|a, b| {
        (a.sequence.len(), a.sequence.elements()).cmp(&(b.sequence.len(), b.sequence.elements()))
    });
    (patterns, stats)
}

fn file_bytes(path: &Path) -> Result<f64, String> {
    std::fs::metadata(path)
        .map(|m| m.len() as f64)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn record_mining(m: &mut BTreeMap<&'static str, f64>, stats: &MiningStats) {
    m.insert(
        "core.candidates_generated",
        stats.candidates_generated as f64,
    );
    m.insert("core.candidates_counted", stats.candidates_counted as f64);
    m.insert("core.containment_tests", stats.containment_tests as f64);
    m.insert("core.probe_nodes", stats.probe_nodes as f64);
    m.insert("core.join_ops", stats.join_ops as f64);
    m.insert("core.sstep_ops", stats.sstep_ops as f64);
    m.insert(
        "core.index_peak_bytes",
        stats.vertical_peak_bytes.max(stats.bitmap_words * 8) as f64,
    );
    m.insert("core.large_sequences", stats.large_sequences as f64);
    m.insert("core.maximal_sequences", stats.maximal_sequences as f64);
    if stats.candidates_counted > 0 {
        m.insert(
            "core.useful_ratio",
            stats.large_sequences as f64 / stats.candidates_counted as f64,
        );
    }
}

/// Runs set-up and one operation with spans, writes the operation's output
/// for the check and the spans to `<dir>.trace.json`, and prints every
/// per-layer metric as one JSON object.
pub fn traced_run(w: &Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let tracer = Tracer::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let summary = crate::setup(w, seed, dir, &tracer)?;
    let config = w.miner_config();
    let mut pass2_from_stats = None;
    match w.kind {
        Kind::Resident => {
            let path = dir.join(files::SPMF);
            m.insert("io.input_bytes", file_bytes(&path)?);
            let db = tracer
                .span("io.spmf_read", || spmf::read_file(&path))
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let min_count = config.min_support.to_count(db.num_customers());
            let mut apriori = config.apriori.clone();
            apriori.parallelism = config.parallelism;
            let lit = tracer.span("itemset.litemset", || {
                litemset_phase(&db, min_count, &apriori)
            });
            m.insert("itemset.litemsets", lit.table.len() as f64);
            m.insert("itemset.passes", lit.passes.len() as f64);
            let candidates: u64 = lit.passes.iter().map(|p| p.candidates).sum();
            m.insert("itemset.candidates", candidates as f64);
            let tdb = tracer.span("core.transform", || transform_phase(&db, lit.table));
            let (patterns, stats) = sequence_and_maximal(&config, &tdb, min_count, &tracer);
            record_mining(&mut m, &stats);
            files::write_patterns(&dir.join(files::PATTERNS), &raw_patterns(&patterns))?;
            // Pass 2 on its own: a direct call on the same dataset.
            let mut tests = 0u64;
            tracer.span("core.pass2", || {
                large_two_sequences(&tdb, min_count, config.parallelism, &mut tests)
            });
        }
        Kind::Sharded => {
            let path = dir.join(files::COLSTORE);
            m.insert("io.input_bytes", file_bytes(&path)?);
            if let Some(s) = summary {
                m.insert("itemset.litemsets", s.litemsets as f64);
                m.insert("itemset.passes", s.passes as f64);
            }
            let store = tracer
                .span("io.colstore_open", || ColstoreDataset::open(&path))
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            let recording = RecordingStore {
                store: &store,
                loads: RefCell::new(Vec::new()),
                bytes: Cell::new(0),
            };
            let min_count = config.min_support.to_count(recording.total_customers());
            let (patterns, stats) = sequence_and_maximal(&config, &recording, min_count, &tracer);
            record_mining(&mut m, &stats);
            let loads = recording.loads.into_inner();
            m.insert("io.shard_loads", loads.len() as f64);
            m.insert("io.shard_bytes", recording.bytes.get() as f64);
            let mut scratch = ShardScratch::new();
            for range in loads {
                tracer.span("io.shard_load", || {
                    std::hint::black_box(store.load_shard(range, &mut scratch).len())
                });
            }
            files::write_patterns(&dir.join(files::PATTERNS), &raw_patterns(&patterns))?;
            // `large_two_sequences` takes no shard size, so a direct call
            // would count pass 2 unsharded; the pass record is the sharded
            // pass the operation ran.
            pass2_from_stats = stats
                .sequence_passes
                .iter()
                .find(|p| p.k == 2)
                .map(|p| p.pass_time.as_secs_f64());
        }
        Kind::Serve => {
            let path = dir.join(files::INDEX);
            m.insert("serve.index_bytes", file_bytes(&path)?);
            let queries = files::read_queries(&dir.join(files::QUERIES))?;
            let trie = tracer
                .span("serve.load", || PatternTrie::load(&path))
                .map_err(|e| format!("loading {}: {e}", path.display()))?;
            let (hits, digest) = tracer.span("serve.lookup", || crate::replay(&trie, &queries))?;
            let replays = REPLAYS as f64;
            m.insert("serve.lookups", queries.len() as f64 * replays);
            m.insert("serve.hits", hits as f64 * replays);
            files::write_replay(&dir.join(files::REPLAY), hits, digest)?;
            let answers = crate::distinct_answers(&trie, &queries);
            files::write_answers(&dir.join(files::ANSWERS), &answers)?;
        }
    }
    for (name, unit) in PER_LAYER {
        if unit == "s" {
            let span = name.trim_end_matches("_s");
            m.insert(name, tracer.total_s(span));
        }
    }
    if let Some(pass2) = pass2_from_stats {
        m.insert("core.pass2_s", pass2);
    }
    let pass3plus = (m["core.sequence_s"] - m["core.pass2_s"]).max(0.0);
    m.insert("core.pass3plus_s", pass3plus);

    let trace_path = dir.with_extension("trace.json");
    std::fs::write(&trace_path, tracer.to_json())
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    for (name, calls, total, self_s) in tracer.summary() {
        eprintln!("span {name:<20} calls {calls:>5}  total {total:>9.4} s  self {self_s:>9.4} s");
    }
    let fields: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = m.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("{{{}}}", fields.join(", "));
    Ok(())
}
