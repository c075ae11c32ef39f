//! The pinned expected outcome of every cell the workloads can submit.
//!
//! `pinned.tsv` maps a cell's *class* — its key label, without the key
//! seed when the seed only labels the cell — to either the FNV-1a digest
//! of its normalized payload or the error message the cell is known to
//! end in. The table is computed by `perfbench pin`, which calls the
//! engine directly (no daemon, no cache, no transport), and it is compiled
//! into the benchmark. A daemon answer is correct when every row matches
//! its class, the row's fingerprint matches its key, and the job ends in
//! the frame the table predicts.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ringdeploy_analysis::key::InstanceKey;
use ringdeploy_analysis::Workload as Shape;
use ringdeploy_core::Schedule;
use ringdeploy_json::Json;

/// Whether the key seed changes the cell's computation (a random
/// workload, or a random schedule seeded per cell). Otherwise the seed
/// only labels the cache key.
pub fn seed_matters(key: &InstanceKey) -> bool {
    matches!(
        key.workload,
        Shape::Random { .. } | Shape::RandomAperiodic { .. }
    ) || matches!(key.schedule, Some(Schedule::Random(_)))
}

/// The cell's class: its label, without the seed where [`seed_matters`]
/// says the seed is only a label.
pub fn class_of(key: &InstanceKey) -> String {
    let label = key.label();
    if seed_matters(key) {
        label
    } else {
        label.replacen(&format!(":seed{}", key.seed), "", 1)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The payload with its `instance_fingerprint` stamp removed, encoded.
/// Fails when the stamp does not name `key`.
pub fn normalized(key: &InstanceKey, payload: &Json) -> Result<String, String> {
    let Json::Object(map) = payload else {
        return Err(format!("{}: payload is not an object", key.label()));
    };
    let mut map = map.clone();
    if let Some(stamp) = map.remove("instance_fingerprint") {
        let want = format!("{:016x}", key.fingerprint());
        if stamp.as_str() != Some(want.as_str()) {
            return Err(format!(
                "{}: payload stamped {stamp}, key fingerprint is {want}",
                key.label()
            ));
        }
    }
    Ok(Json::Object(map).to_string())
}

/// A pinned outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pinned {
    /// The cell succeeds with this normalized-payload digest.
    Row {
        /// [`fnv1a`] of [`normalized`].
        digest: u64,
    },
    /// The cell fails; the daemon's message is the key label, `": "`,
    /// and this text.
    Error(String),
}

/// The compiled-in table.
pub struct PinTable(BTreeMap<String, Pinned>);

/// `pinned.tsv`, as committed.
pub const PINNED_TSV: &str = include_str!("../pinned.tsv");

impl PinTable {
    /// Parses the table format written by [`pin`].
    pub fn parse(text: &str) -> Result<PinTable, String> {
        let mut map = BTreeMap::new();
        for (number, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let outcome = match fields.as_slice() {
                [_, "row", digest] => Pinned::Row {
                    digest: u64::from_str_radix(digest, 16)
                        .map_err(|e| format!("pinned.tsv:{}: {e}", number + 1))?,
                },
                [_, "error", message] => Pinned::Error((*message).to_string()),
                _ => return Err(format!("pinned.tsv:{}: malformed line", number + 1)),
            };
            map.insert(fields[0].to_string(), outcome);
        }
        Ok(PinTable(map))
    }

    /// The compiled-in table.
    pub fn compiled() -> PinTable {
        PinTable::parse(PINNED_TSV).expect("the committed pinned.tsv parses")
    }

    /// The pinned outcome of `key`'s class.
    pub fn get(&self, key: &InstanceKey) -> Option<&Pinned> {
        self.0.get(&class_of(key))
    }
}

/// Computes the outcome of one key straight from the engine.
pub fn outcome(key: &InstanceKey) -> Result<Pinned, String> {
    Ok(match ringdeploy_service::engine::compute(key) {
        Ok(payload) => Pinned::Row {
            digest: fnv1a(normalized(key, &payload)?.as_bytes()),
        },
        Err(message) => {
            let prefix = format!("{}: ", key.label());
            match message.strip_prefix(&prefix) {
                Some(rest) => Pinned::Error(rest.to_string()),
                None => return Err(format!("unlabelled error `{message}`")),
            }
        }
    })
}

/// Computes the table for `keys` and renders it. Each seed-independent
/// class is computed under two key seeds, which must agree — the check
/// that the seed really is only a label.
pub fn pin(keys: &[InstanceKey]) -> Result<String, String> {
    let mut classes: BTreeMap<String, Pinned> = BTreeMap::new();
    for key in keys {
        let class = class_of(key);
        if classes.contains_key(&class) {
            continue;
        }
        let pinned = outcome(key)?;
        if !seed_matters(key) {
            let relabelled = InstanceKey {
                seed: key.seed ^ 0x5EED,
                ..key.clone()
            };
            if outcome(&relabelled)? != pinned {
                return Err(format!("{class}: outcome depends on the key seed"));
            }
        }
        classes.insert(class, pinned);
    }
    let mut out = String::from(
        "# class\toutcome\tdigest-or-message — generated by `perfbench pin`; do not edit\n",
    );
    for (class, pinned) in &classes {
        match pinned {
            Pinned::Row { digest } => writeln!(out, "{class}\trow\t{digest:016x}"),
            Pinned::Error(message) => writeln!(out, "{class}\terror\t{message}"),
        }
        .expect("writing to a String");
    }
    Ok(out)
}
