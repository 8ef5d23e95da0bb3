//! The plain-text files the benchmark's processes hand to each other
//! inside a run's work directory.

use std::fmt::Write as _;
use std::path::Path;

use crate::check::Answer;
use crate::workload::RawPattern;

pub const SPMF: &str = "input.spmf";
pub const COLSTORE: &str = "input.colstore";
pub const INDEX: &str = "index.seqpats";
pub const QUERIES: &str = "queries.txt";
/// The mined id-space patterns the `serve-replay` index was built from.
pub const INDEX_PATTERNS: &str = "index-patterns.txt";
/// The measured operation's answer: mined patterns or query answers.
pub const PATTERNS: &str = "patterns.txt";
pub const ANSWERS: &str = "answers.txt";
pub const REPLAY: &str = "replay.txt";

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn numbers<T: std::str::FromStr>(text: &str, path: &Path) -> Result<Vec<T>, String> {
    text.split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| format!("{}: bad number {t:?}", path.display()))
        })
        .collect()
}

/// `support<TAB>items|items|…`, items separated by spaces.
pub fn write_patterns(path: &Path, patterns: &[RawPattern]) -> Result<(), String> {
    let mut text = String::new();
    for (elements, support) in patterns {
        let elements: Vec<String> = elements
            .iter()
            .map(|e| e.iter().map(u32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        let _ = writeln!(text, "{support}\t{}", elements.join("|"));
    }
    write(path, &text)
}

pub fn read_patterns(path: &Path) -> Result<Vec<RawPattern>, String> {
    let text = read(path)?;
    text.lines()
        .map(|line| {
            let (support, elements) = line
                .split_once('\t')
                .ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
            let elements = elements
                .split('|')
                .map(|e| numbers(e, path))
                .collect::<Result<Vec<Vec<u32>>, String>>()?;
            let support = support
                .parse()
                .map_err(|_| format!("{}: bad support in {line:?}", path.display()))?;
            Ok((elements, support))
        })
        .collect()
}

/// One id sequence per line; with `support`, it leads the line.
pub fn write_id_lines(path: &Path, lines: &[(Vec<u32>, Option<u64>)]) -> Result<(), String> {
    let mut text = String::new();
    for (ids, support) in lines {
        if let Some(s) = support {
            let _ = write!(text, "{s} ");
        }
        let ids: Vec<String> = ids.iter().map(u32::to_string).collect();
        let _ = writeln!(text, "{}", ids.join(" "));
    }
    write(path, &text)
}

pub fn read_queries(path: &Path) -> Result<Vec<Vec<u32>>, String> {
    read(path)?.lines().map(|l| numbers(l, path)).collect()
}

pub fn read_id_patterns(path: &Path) -> Result<Vec<(Vec<u32>, u64)>, String> {
    read(path)?
        .lines()
        .map(|l| {
            let mut nums: Vec<u64> = numbers(l, path)?;
            if nums.len() < 2 {
                return Err(format!("{}: bad line {l:?}", path.display()));
            }
            let support = nums.remove(0);
            let ids = nums
                .into_iter()
                .map(|n| {
                    u32::try_from(n).map_err(|_| format!("{}: id {n} too big", path.display()))
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Ok((ids, support))
        })
        .collect()
}

/// `query ids<TAB>id:support id:support …`
pub fn write_answers(path: &Path, answers: &[(Vec<u32>, Answer)]) -> Result<(), String> {
    let mut text = String::new();
    for (q, answer) in answers {
        let q: Vec<String> = q.iter().map(u32::to_string).collect();
        let a: Vec<String> = answer.iter().map(|(id, s)| format!("{id}:{s}")).collect();
        let _ = writeln!(text, "{}\t{}", q.join(" "), a.join(" "));
    }
    write(path, &text)
}

pub fn read_answers(path: &Path) -> Result<Vec<(Vec<u32>, Answer)>, String> {
    let text = read(path)?;
    text.lines()
        .map(|line| {
            let (q, a) = line
                .split_once('\t')
                .ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
            let answer = a
                .split_whitespace()
                .map(|pair| {
                    let (id, s) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("{}: bad answer {pair:?}", path.display()))?;
                    match (id.parse(), s.parse()) {
                        (Ok(id), Ok(s)) => Ok((id, s)),
                        _ => Err(format!("{}: bad answer {pair:?}", path.display())),
                    }
                })
                .collect::<Result<Answer, String>>()?;
            Ok((numbers(q, path)?, answer))
        })
        .collect()
}

/// Hits and digest of one replay of the query set.
pub fn write_replay(path: &Path, hits: u64, digest: u64) -> Result<(), String> {
    write(path, &format!("{hits} {digest}\n"))
}

pub fn read_replay(path: &Path) -> Result<(u64, u64), String> {
    match numbers::<u64>(&read(path)?, path)?[..] {
        [hits, digest] => Ok((hits, digest)),
        _ => Err(format!("{}: expected hits and digest", path.display())),
    }
}
