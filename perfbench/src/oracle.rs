//! Pinned reference outputs: the correctness oracle of every workload.
//!
//! Each workload draws its operations from a fixed pool (protect jobs,
//! simulation seeds, campaign seeds); `--seed` only chooses the order and
//! mix. The expected output of every pool member is committed under
//! `reference/`, one line per member: a key, then its expected values.
//! `perfbench reference --workload NAME` regenerates a file; do so only
//! when a change to the program is meant to change its output bytes.

use bombdroid_crypto::sha256;
use std::collections::BTreeMap;

/// One workload's pinned values, keyed by pool member.
#[derive(Debug, Default)]
pub struct Reference {
    entries: BTreeMap<String, Vec<String>>,
}

impl Reference {
    /// Parses a reference file: `key value…` lines, `#` comments.
    pub fn parse(text: &str) -> Self {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| {
                let mut fields = l.split_whitespace().map(str::to_string);
                let key = fields.next()?;
                Some((key, fields.collect()))
            })
            .collect();
        Reference { entries }
    }

    /// The pinned values of `key`, if any.
    pub fn get(&self, key: &str) -> Option<&[String]> {
        self.entries.get(key).map(Vec::as_slice)
    }

    /// Whether `key` is pinned to exactly `values`.
    pub fn matches(&self, key: &str, values: &[String]) -> bool {
        self.get(key) == Some(values)
    }
}

/// The committed reference text of a workload.
pub fn committed(workload: &str) -> &'static str {
    match workload {
        "protect_intake" => include_str!("../reference/protect_intake.txt"),
        "population_vm" => include_str!("../reference/population_vm.txt"),
        "fuzz_campaign" => include_str!("../reference/fuzz_campaign.txt"),
        "population_synthetic" => include_str!("../reference/population_synthetic.txt"),
        _ => "",
    }
}

/// Writes a regenerated reference file into the benchmark's source tree.
pub fn write(workload: &str, header: &str, lines: &[String]) -> std::io::Result<String> {
    let path = format!("{}/reference/{workload}.txt", env!("CARGO_MANIFEST_DIR"));
    let mut text = String::new();
    for l in header.lines() {
        text.push_str("# ");
        text.push_str(l);
        text.push('\n');
    }
    for l in lines {
        text.push_str(l);
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

/// First 8 bytes of SHA-256, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    sha256::digest(bytes)[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
