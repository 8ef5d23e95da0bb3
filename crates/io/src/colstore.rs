//! On-disk columnar store for the transformed database (`SEQPATC1`).
//!
//! The sequence phase reads the transformed database as contiguous runs of
//! customer rows; this module stores those rows in a two-level CSR layout
//! so a shard of rows can be loaded with four positioned reads and decoded
//! directly into a reusable scratch buffer — no upfront deserialization,
//! peak memory proportional to the shard, not the database.
//!
//! # File layout (all integers little-endian)
//!
//! | offset | field |
//! |---|---|
//! | 0   | magic `b"SEQPATC1"` |
//! | 8   | `u32` version (currently 1) |
//! | 12  | `u32` endianness tag `0x1A2B3C4D` |
//! | 16  | `u64` total_customers (support denominator) |
//! | 24  | `u64` num_rows |
//! | 32  | `u64` num_elements (retained transactions, all rows) |
//! | 40  | `u64` num_ids (litemset-id occurrences, all elements) |
//! | 48  | `u64` num_litemsets |
//! | 56  | `u64` num_table_items (items across all litemsets) |
//! | 64  | `u64` ×6 section offsets: customer_ids, row_offsets, elem_offsets, ids, table, file_len |
//! | 112 | sections, contiguous, in that order |
//!
//! Sections:
//!
//! * `customer_ids` — `u64` × num_rows, the original customer ids.
//! * `row_offsets` — `u64` × (num_rows + 1), CSR level 1: row *r*'s
//!   elements are `row_offsets[r] .. row_offsets[r+1]`.
//! * `elem_offsets` — `u64` × (num_elements + 1), CSR level 2: element
//!   *e*'s ids are `elem_offsets[e] .. elem_offsets[e+1]`.
//! * `ids` — `u32` × num_ids, ascending within each element.
//! * `table` — the litemset table: supports (`u64` × L), item offsets
//!   (`u64` × (L+1)), items (`u32` × num_table_items).
//!
//! The store is *versioned* by the magic+version pair and *endianness
//! checked* by the tag: a file written on a big-endian machine would carry
//! a byte-swapped tag and be rejected instead of misread (writers always
//! emit little-endian; the tag guards against future non-conforming
//! writers and against reading a foreign file).
//!
//! # Access model
//!
//! The workspace forbids `unsafe`, so the "mmap" backend does not actually
//! `mmap(2)`: [`ColstoreDataset`] keeps the file open and serves each shard
//! with positioned reads (`pread` via `FileExt::read_exact_at` on Unix, a
//! mutex-guarded seek+read elsewhere). The kernel's page cache provides
//! the same lazy, page-granular behaviour mmap would — without the UB
//! surface of a remappable slice.
//!
//! # Failure model
//!
//! [`ColstoreDataset::open`] validates the header, the section geometry
//! against the real file length, and the whole litemset table, and fails
//! closed with [`IoError`]. After a successful open the only way a shard
//! load can fail is the file being truncated, rewritten, or the device
//! erroring mid-run; [`Dataset::load_shard`] cannot report errors (it
//! returns rows), and silently dropping rows would corrupt supports, so
//! that one case aborts the process via panic.

use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::error::IoError;
use crate::readat::{u32s_from, u64s_from, ReadAt};
use seqpat_core::cast::w64;
use seqpat_core::{
    Dataset, Itemset, LitemsetTable, ShardScratch, TransformedCustomer, TransformedDatabase,
};

/// First eight bytes of every colstore file.
pub const MAGIC: [u8; 8] = *b"SEQPATC1";
/// Format version written (and the only one read).
pub const VERSION: u32 = 1;
/// Endianness tag: reads back byte-swapped if the file is foreign-endian.
const ENDIAN_TAG: u32 = 0x1A2B_3C4D;
/// Fixed header size in bytes (sections start here).
const HEADER_LEN: u64 = 112;

/// The header's six counts; section offsets are derived from them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    total_customers: u64,
    num_rows: u64,
    num_elements: u64,
    num_ids: u64,
    num_litemsets: u64,
    num_table_items: u64,
}

/// Absolute byte offsets of each section (and the expected file length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sections {
    customer_ids: u64,
    row_offsets: u64,
    elem_offsets: u64,
    ids: u64,
    table: u64,
    file_len: u64,
}

impl Header {
    /// Section offsets, or `None` when the counts overflow u64 byte
    /// arithmetic (only possible for a corrupt header).
    fn sections(&self) -> Option<Sections> {
        let customer_ids = HEADER_LEN;
        let row_offsets = customer_ids.checked_add(self.num_rows.checked_mul(8)?)?;
        let elem_offsets =
            row_offsets.checked_add(self.num_rows.checked_add(1)?.checked_mul(8)?)?;
        let ids = elem_offsets.checked_add(self.num_elements.checked_add(1)?.checked_mul(8)?)?;
        let table = ids.checked_add(self.num_ids.checked_mul(4)?)?;
        let table_len = self
            .num_litemsets
            .checked_mul(8)?
            .checked_add(self.num_litemsets.checked_add(1)?.checked_mul(8)?)?
            .checked_add(self.num_table_items.checked_mul(4)?)?;
        let file_len = table.checked_add(table_len)?;
        Some(Sections {
            customer_ids,
            row_offsets,
            elem_offsets,
            ids,
            table,
            file_len,
        })
    }
}

fn corrupt(msg: impl Into<String>) -> IoError {
    IoError::parse(0, msg)
}

/// Narrows a validated `u64` offset/count to `usize`.
fn uz(v: u64) -> usize {
    debug_assert!(usize::try_from(v).is_ok(), "offset {v} overflows usize");
    // seqpat-lint: allow(no-lossy-casts-in-kernels) open() rejects files whose length overflows usize, and every value narrowed here is bounded by a validated file length
    v as usize
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming colstore writer: rows are pushed one at a time and spilled to
/// four temporary column files next to the destination, so peak memory is
/// one row regardless of database size. [`ColstoreWriter::finish`] stitches
/// header + columns + litemset table into the final file and removes the
/// spill files.
#[derive(Debug)]
pub struct ColstoreWriter {
    final_path: PathBuf,
    spill_paths: [PathBuf; 4],
    customer_ids: io::BufWriter<File>,
    row_offsets: io::BufWriter<File>,
    elem_offsets: io::BufWriter<File>,
    ids: io::BufWriter<File>,
    rows: u64,
    elements: u64,
    id_count: u64,
}

impl ColstoreWriter {
    /// Opens a writer targeting `path`. Creates (and truncates) four spill
    /// files `<path>.colN.tmp` in the same directory.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let final_path = path.as_ref().to_path_buf();
        let spill_paths = [
            spill_path(&final_path, 0),
            spill_path(&final_path, 1),
            spill_path(&final_path, 2),
            spill_path(&final_path, 3),
        ];
        debug_assert_eq!(spill_paths.len(), 4);
        let customer_ids = create_spill(&spill_paths[0])?;
        let mut row_offsets = create_spill(&spill_paths[1])?;
        let mut elem_offsets = create_spill(&spill_paths[2])?;
        let ids = create_spill(&spill_paths[3])?;
        // Both offset columns lead with their initial zero.
        row_offsets.write_all(&0u64.to_le_bytes())?;
        elem_offsets.write_all(&0u64.to_le_bytes())?;
        Ok(Self {
            final_path,
            spill_paths,
            customer_ids,
            row_offsets,
            elem_offsets,
            ids,
            rows: 0,
            elements: 0,
            id_count: 0,
        })
    }

    /// Appends one transformed customer row.
    pub fn push_row(&mut self, row: &TransformedCustomer) -> Result<(), IoError> {
        self.customer_ids
            .write_all(&row.customer_id.to_le_bytes())?;
        for element in &row.elements {
            for &id in element {
                self.ids.write_all(&id.to_le_bytes())?;
            }
            self.id_count += w64(element.len());
            self.elements += 1;
            self.elem_offsets.write_all(&self.id_count.to_le_bytes())?;
        }
        self.rows += 1;
        self.row_offsets.write_all(&self.elements.to_le_bytes())?;
        Ok(())
    }

    /// Rows pushed so far.
    pub fn rows_written(&self) -> u64 {
        self.rows
    }

    /// Writes the final file (header, columns, litemset table), fsync-free
    /// but length-verified, and removes the spill files.
    pub fn finish(mut self, table: &LitemsetTable, total_customers: u64) -> Result<(), IoError> {
        self.customer_ids.flush()?;
        self.row_offsets.flush()?;
        self.elem_offsets.flush()?;
        self.ids.flush()?;

        let num_table_items: u64 = table.iter().map(|(_, set, _)| w64(set.len())).sum();
        let header = Header {
            total_customers,
            num_rows: self.rows,
            num_elements: self.elements,
            num_ids: self.id_count,
            num_litemsets: w64(table.len()),
            num_table_items,
        };
        let sections = match header.sections() {
            Some(s) => s,
            None => return Err(corrupt("dataset too large for the colstore format")),
        };

        let mut out = io::BufWriter::new(File::create(&self.final_path)?);
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&ENDIAN_TAG.to_le_bytes())?;
        for count in [
            header.total_customers,
            header.num_rows,
            header.num_elements,
            header.num_ids,
            header.num_litemsets,
            header.num_table_items,
        ] {
            out.write_all(&count.to_le_bytes())?;
        }
        for off in [
            sections.customer_ids,
            sections.row_offsets,
            sections.elem_offsets,
            sections.ids,
            sections.table,
            sections.file_len,
        ] {
            out.write_all(&off.to_le_bytes())?;
        }
        for spill in &self.spill_paths {
            let mut f = File::open(spill)?;
            io::copy(&mut f, &mut out)?;
        }
        // Litemset table: supports, item offsets, items.
        for (_, _, support) in table.iter() {
            out.write_all(&support.to_le_bytes())?;
        }
        let mut item_off = 0u64;
        out.write_all(&item_off.to_le_bytes())?;
        for (_, set, _) in table.iter() {
            item_off += w64(set.len());
            out.write_all(&item_off.to_le_bytes())?;
        }
        for (_, set, _) in table.iter() {
            for &item in set.items() {
                out.write_all(&item.to_le_bytes())?;
            }
        }
        out.flush()?;
        drop(out);

        let written = std::fs::metadata(&self.final_path)?.len();
        if written != sections.file_len {
            return Err(corrupt(format!(
                "colstore writer produced {written} bytes, expected {}",
                sections.file_len
            )));
        }
        for spill in &self.spill_paths {
            let _ = std::fs::remove_file(spill);
        }
        Ok(())
    }
}

/// Path of spill file `n` beside the destination: `<final_path>.colN.tmp`.
fn spill_path(final_path: &Path, n: u32) -> PathBuf {
    let mut os = final_path.as_os_str().to_os_string();
    os.push(format!(".col{n}.tmp"));
    PathBuf::from(os)
}

/// Creates (or truncates) one spill file behind a buffered writer.
fn create_spill(p: &Path) -> Result<io::BufWriter<File>, IoError> {
    Ok(io::BufWriter::new(File::create(p)?))
}

/// Converts a resident [`TransformedDatabase`] into a colstore file.
pub fn write_transformed(tdb: &TransformedDatabase, path: impl AsRef<Path>) -> Result<(), IoError> {
    let mut writer = ColstoreWriter::create(path)?;
    for row in &tdb.customers {
        writer.push_row(row)?;
    }
    writer.finish(&tdb.table, w64(tdb.total_customers))
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Checks one offset-column boundary value at `off` against `expect`.
fn check_bound(file: &ReadAt, off: u64, expect: u64, what: &str) -> Result<(), IoError> {
    let mut b = [0u8; 8];
    file.read_exact_at(&mut b, off)?;
    let got = u64::from_le_bytes(b);
    if got != expect {
        return Err(corrupt(format!("{what} is {got}, expected {expect}")));
    }
    Ok(())
}

/// An opened colstore file, serving shards of [`TransformedCustomer`] rows
/// through the [`Dataset`] trait. Only the header and the litemset table
/// are resident; rows stay on disk until a shard load asks for them.
#[derive(Debug)]
pub struct ColstoreDataset {
    path: PathBuf,
    file: ReadAt,
    header: Header,
    sections: Sections,
    table: LitemsetTable,
}

impl ColstoreDataset {
    /// Opens and validates a colstore file: magic/version/endianness, the
    /// section geometry against the real file length, the offset-column
    /// boundary invariants, and the full litemset table. Fails closed —
    /// after a successful open, shard loads trust the file's structure.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, IoError> {
        let path = path.as_ref().to_path_buf();
        let raw = File::open(&path)?;
        let actual_len = raw.metadata()?.len();
        let file = ReadAt::new(raw);

        let mut head = [0u8; 112];
        if actual_len < HEADER_LEN {
            return Err(corrupt(format!(
                "file is {actual_len} bytes, shorter than the {HEADER_LEN}-byte header"
            )));
        }
        file.read_exact_at(&mut head, 0)?;
        debug_assert_eq!(head.len() as u64, HEADER_LEN);
        if head[0..8] != MAGIC {
            return Err(corrupt("bad magic: not a colstore file"));
        }
        let head_u32 = |at: usize| -> u32 {
            debug_assert!(at + 4 <= head.len());
            let mut b = [0u8; 4];
            b.copy_from_slice(&head[at..at + 4]);
            u32::from_le_bytes(b)
        };
        let head_u64 = |at: usize| -> u64 {
            debug_assert!(at + 8 <= head.len());
            let mut b = [0u8; 8];
            b.copy_from_slice(&head[at..at + 8]);
            u64::from_le_bytes(b)
        };
        let version = head_u32(8);
        if version != VERSION {
            return Err(corrupt(format!(
                "unsupported colstore version {version} (reader supports {VERSION})"
            )));
        }
        let endian = head_u32(12);
        if endian != ENDIAN_TAG {
            return Err(corrupt(if endian == ENDIAN_TAG.swap_bytes() {
                "endianness mismatch: file written with byte-swapped integers".to_string()
            } else {
                format!("bad endianness tag {endian:#010x}")
            }));
        }
        let header = Header {
            total_customers: head_u64(16),
            num_rows: head_u64(24),
            num_elements: head_u64(32),
            num_ids: head_u64(40),
            num_litemsets: head_u64(48),
            num_table_items: head_u64(56),
        };
        let sections = header
            .sections()
            .ok_or_else(|| corrupt("header counts overflow the section layout"))?;
        let stored = Sections {
            customer_ids: head_u64(64),
            row_offsets: head_u64(72),
            elem_offsets: head_u64(80),
            ids: head_u64(88),
            table: head_u64(96),
            file_len: head_u64(104),
        };
        if stored != sections {
            return Err(corrupt(
                "stored section offsets disagree with the header counts",
            ));
        }
        if actual_len != sections.file_len {
            return Err(corrupt(format!(
                "file is {actual_len} bytes, header says {}",
                sections.file_len
            )));
        }
        if usize::try_from(actual_len).is_err()
            || usize::try_from(header.total_customers).is_err()
            || usize::try_from(header.num_rows).is_err()
        {
            return Err(corrupt("file too large for this platform's usize"));
        }
        if header.num_rows > header.total_customers {
            return Err(corrupt("more rows than customers"));
        }

        // Offset-column boundary invariants (interior monotonicity is
        // checked shard by shard, while decoding already touches the data).
        check_bound(&file, sections.row_offsets, 0, "row_offsets[0]")?;
        check_bound(
            &file,
            sections.row_offsets + 8 * header.num_rows,
            header.num_elements,
            "row_offsets[num_rows]",
        )?;
        check_bound(&file, sections.elem_offsets, 0, "elem_offsets[0]")?;
        check_bound(
            &file,
            sections.elem_offsets + 8 * header.num_elements,
            header.num_ids,
            "elem_offsets[num_elements]",
        )?;

        let table = Self::read_table(&file, &header, &sections)?;
        Ok(Self {
            path,
            file,
            header,
            sections,
            table,
        })
    }

    fn read_table(
        file: &ReadAt,
        header: &Header,
        sections: &Sections,
    ) -> Result<LitemsetTable, IoError> {
        let n = uz(header.num_litemsets);
        debug_assert!(sections.table >= sections.ids);
        let mut supports_buf = vec![0u8; n * 8];
        file.read_exact_at(&mut supports_buf, sections.table)?;
        let supports = u64s_from(&supports_buf);
        let mut offs_buf = vec![0u8; (n + 1) * 8];
        file.read_exact_at(&mut offs_buf, sections.table + 8 * header.num_litemsets)?;
        let offs = u64s_from(&offs_buf);
        let mut items_buf = vec![0u8; uz(header.num_table_items) * 4];
        file.read_exact_at(
            &mut items_buf,
            sections.table + 8 * header.num_litemsets + 8 * (header.num_litemsets + 1),
        )?;
        let items = u32s_from(&items_buf);

        if offs.first() != Some(&0) || offs.last() != Some(&header.num_table_items) {
            return Err(corrupt("litemset item offsets do not span the item column"));
        }
        let mut large = Vec::with_capacity(n);
        for i in 0..n {
            debug_assert!(i + 1 < offs.len() && i < supports.len());
            let (start, end) = (offs[i], offs[i + 1]);
            if start > end || end > header.num_table_items {
                return Err(corrupt("litemset item offsets are not monotone"));
            }
            let set = &items[uz(start)..uz(end)];
            if set.is_empty() || set.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("litemset items are not strictly ascending"));
            }
            large.push((Itemset::from_sorted(set.to_vec()), supports[i]));
        }
        Ok(LitemsetTable::new(large))
    }

    /// Aborts the process: the file stopped honouring the structure that
    /// was validated at open (truncated, rewritten, or a device error).
    /// `load_shard` returns rows, not a `Result`, and fabricating or
    /// dropping rows would silently corrupt every downstream support.
    fn fail(&self, what: &str, detail: impl std::fmt::Display) -> ! {
        // seqpat-lint: allow(transitive-panic-reachability) open() validated the whole structure; reaching here means the store changed or the device failed mid-run, and returning wrong rows would silently corrupt supports — failing loudly is the only sound option
        panic!(
            "colstore {}: {what} failed after a validated open: {detail}",
            self.path.display()
        )
    }

    fn read_u64s(&self, offset: u64, count: usize, what: &str) -> Vec<u64> {
        let mut buf = vec![0u8; count * 8];
        if let Err(e) = self.file.read_exact_at(&mut buf, offset) {
            self.fail(what, e);
        }
        u64s_from(&buf)
    }

    /// Decodes the rows of `range` into `scratch`.
    fn decode_shard(&self, range: Range<usize>, scratch: &mut ShardScratch) {
        debug_assert!(range.start <= range.end && range.end <= uz(self.header.num_rows));
        scratch.clear();
        let n = range.end - range.start;
        if n == 0 {
            return;
        }
        let customer_ids = self.read_u64s(
            self.sections.customer_ids + 8 * w64(range.start),
            n,
            "customer-id read",
        );
        let row_offs = self.read_u64s(
            self.sections.row_offsets + 8 * w64(range.start),
            n + 1,
            "row-offset read",
        );
        let (e0, e1) = (row_offs[0], row_offs[n]);
        if e0 > e1 || e1 > self.header.num_elements {
            self.fail("row-offset decode", "offsets not monotone");
        }
        let elem_offs = self.read_u64s(
            self.sections.elem_offsets + 8 * e0,
            uz(e1 - e0) + 1,
            "element-offset read",
        );
        let (i0, i1) = (elem_offs[0], elem_offs[uz(e1 - e0)]);
        if i0 > i1 || i1 > self.header.num_ids {
            self.fail("element-offset decode", "offsets not monotone");
        }
        let mut ids_buf = vec![0u8; uz(i1 - i0) * 4];
        if let Err(e) = self
            .file
            .read_exact_at(&mut ids_buf, self.sections.ids + 4 * i0)
        {
            self.fail("id read", e);
        }
        let ids = u32s_from(&ids_buf);

        let num_litemsets = u32::try_from(self.header.num_litemsets).unwrap_or(u32::MAX);
        for r in 0..n {
            let (row_e0, row_e1) = (row_offs[r], row_offs[r + 1]);
            if row_e0 > row_e1 || row_e1 > e1 {
                self.fail("row decode", "row offsets not monotone");
            }
            let mut elements = Vec::with_capacity(uz(row_e1 - row_e0));
            for e in uz(row_e0 - e0)..uz(row_e1 - e0) {
                let (id_start, id_end) = (elem_offs[e], elem_offs[e + 1]);
                if id_start > id_end || id_end > i1 {
                    self.fail("element decode", "element offsets not monotone");
                }
                let element = ids[uz(id_start - i0)..uz(id_end - i0)].to_vec();
                // Ascending ids mean the last one bounds them all; together
                // with the table check this validates every id in one pass.
                let sorted = element.windows(2).all(|w| w[0] < w[1]);
                if element.is_empty()
                    || !sorted
                    || element.last().is_some_and(|&id| id >= num_litemsets)
                {
                    self.fail("element decode", "ids not ascending within the table");
                }
                elements.push(element);
            }
            scratch.push(TransformedCustomer {
                customer_id: customer_ids[r],
                elements,
            });
        }
    }
}

impl Dataset for ColstoreDataset {
    fn table(&self) -> &LitemsetTable {
        &self.table
    }

    fn total_customers(&self) -> usize {
        uz(self.header.total_customers)
    }

    fn num_rows(&self) -> usize {
        uz(self.header.num_rows)
    }

    fn resident(&self) -> Option<&[TransformedCustomer]> {
        None
    }

    fn load_shard<'a>(
        &'a self,
        range: Range<usize>,
        scratch: &'a mut ShardScratch,
    ) -> &'a [TransformedCustomer] {
        self.decode_shard(range, scratch);
        scratch.rows()
    }

    fn shard_bytes(&self, range: Range<usize>) -> u64 {
        debug_assert!(range.start <= range.end && range.end <= uz(self.header.num_rows));
        let n = w64(range.end - range.start);
        if n == 0 {
            return 0;
        }
        let row_bounds = self.read_u64s(
            self.sections.row_offsets + 8 * w64(range.start),
            uz(n) + 1,
            "row-offset read",
        );
        let (e0, e1) = (row_bounds[0], row_bounds[uz(n)]);
        if e0 > e1 || e1 > self.header.num_elements {
            self.fail("row-offset decode", "offsets not monotone");
        }
        let first = self.read_u64s(
            self.sections.elem_offsets + 8 * e0,
            1,
            "element-offset read",
        );
        let last = self.read_u64s(
            self.sections.elem_offsets + 8 * e1,
            1,
            "element-offset read",
        );
        let (i0, i1) = (first[0], last[0]);
        if i0 > i1 || i1 > self.header.num_ids {
            self.fail("element-offset decode", "offsets not monotone");
        }
        // Storage bytes of this shard: customer ids + both offset columns'
        // spans + the id payload.
        8 * n + 8 * (n + 1) + 8 * (e1 - e0 + 1) + 4 * (i1 - i0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqpat_core::shard_ranges;

    fn sample_tdb() -> TransformedDatabase {
        let table = LitemsetTable::new(vec![
            (Itemset::new(vec![30]), 4),
            (Itemset::new(vec![40]), 2),
            (Itemset::new(vec![40, 70]), 2),
            (Itemset::new(vec![70]), 3),
            (Itemset::new(vec![90]), 3),
        ]);
        let customers = vec![
            TransformedCustomer {
                customer_id: 1,
                elements: vec![vec![0], vec![4]],
            },
            TransformedCustomer {
                customer_id: 2,
                elements: vec![vec![0], vec![1, 2, 3]],
            },
            TransformedCustomer {
                customer_id: 3,
                elements: vec![vec![0, 3]],
            },
            TransformedCustomer {
                customer_id: 4,
                elements: vec![],
            },
            TransformedCustomer {
                customer_id: 5,
                elements: vec![vec![4]],
            },
        ];
        TransformedDatabase {
            customers,
            table,
            total_customers: 5,
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seqpat-colstore-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_all_rows() {
        let tdb = sample_tdb();
        let path = tmp_path("roundtrip.colstore");
        write_transformed(&tdb, &path).unwrap();
        let ds = ColstoreDataset::open(&path).unwrap();
        assert_eq!(ds.num_rows(), 5);
        assert_eq!(ds.total_customers(), 5);
        assert_eq!(ds.table().len(), tdb.table.len());
        for id in 0..tdb.table.len() as u32 {
            assert_eq!(ds.table().itemset(id), tdb.table.itemset(id));
            assert_eq!(ds.table().support(id), tdb.table.support(id));
        }
        let mut scratch = ShardScratch::new();
        let rows = ds.load_shard(0..5, &mut scratch);
        assert_eq!(rows, &tdb.customers[..]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_shard_split_matches_resident_rows() {
        let tdb = sample_tdb();
        let path = tmp_path("shards.colstore");
        write_transformed(&tdb, &path).unwrap();
        let ds = ColstoreDataset::open(&path).unwrap();
        for shard in [Some(1), Some(2), Some(3), None] {
            let mut scratch = ShardScratch::new();
            let mut got: Vec<TransformedCustomer> = Vec::new();
            for range in shard_ranges(ds.num_rows(), shard) {
                got.extend(ds.load_shard(range, &mut scratch).iter().cloned());
            }
            assert_eq!(got, tdb.customers, "shard size {shard:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_bytes_sum_to_whole() {
        let tdb = sample_tdb();
        let path = tmp_path("bytes.colstore");
        write_transformed(&tdb, &path).unwrap();
        let ds = ColstoreDataset::open(&path).unwrap();
        let whole = ds.shard_bytes(0..5);
        assert!(whole > 0);
        // Per-shard sums exceed the whole only by the repeated offset
        // boundary entries (one u64 per extra shard per level).
        let split: u64 = shard_ranges(5, Some(2))
            .into_iter()
            .map(|r| ds.shard_bytes(r))
            .sum();
        assert!(split >= whole);
        assert!(split <= whole + 8 * 4 * 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_truncated_file() {
        let tdb = sample_tdb();
        let path = tmp_path("trunc.colstore");
        write_transformed(&tdb, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(ColstoreDataset::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_bad_magic_and_version() {
        let tdb = sample_tdb();
        let path = tmp_path("magic.colstore");
        write_transformed(&tdb, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(ColstoreDataset::open(&path).is_err());
        bytes[0] = b'S';
        bytes[8] = 99; // version
        std::fs::write(&path, &bytes).unwrap();
        assert!(ColstoreDataset::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_byte_swapped_endianness() {
        let tdb = sample_tdb();
        let path = tmp_path("endian.colstore");
        write_transformed(&tdb, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12..16].reverse();
        std::fs::write(&path, &bytes).unwrap();
        let err = ColstoreDataset::open(&path).unwrap_err();
        assert!(format!("{err}").contains("endianness"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_database_roundtrips() {
        let tdb = TransformedDatabase {
            customers: vec![],
            table: LitemsetTable::default(),
            total_customers: 0,
        };
        let path = tmp_path("empty.colstore");
        write_transformed(&tdb, &path).unwrap();
        let ds = ColstoreDataset::open(&path).unwrap();
        assert_eq!(ds.num_rows(), 0);
        assert!(ds.table().is_empty());
        let mut scratch = ShardScratch::new();
        assert!(ds.load_shard(0..0, &mut scratch).is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
