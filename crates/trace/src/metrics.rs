//! A unified metrics registry with hierarchical counter names.
//!
//! Every `*Stats` struct in the workspace implements [`Counters`] and
//! exports into a [`MetricsRegistry`] under a dotted prefix (`machine.tlb.l1_hits`,
//! `mem.dram.row_misses`, …). A [`Snapshot`] is an immutable copy that can
//! be diffed against an earlier snapshot (`delta`), merged with a snapshot
//! from another machine (`merge`), and exported as nested JSON.

use crate::json::{parse_json, JsonValue};
use crate::read::{check_schema, ReadError};
use crate::{json_escape, SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A plain struct of `u64` counters that publishes itself into a
/// [`MetricsRegistry`].
///
/// The struct's fields are the live counter store: the hot path adds to
/// them directly, and names are only formatted when [`Counters::export`]
/// runs at snapshot time.
pub trait Counters {
    /// Counter names below the export prefix, in [`Counters::values`]
    /// order.
    const NAMES: &'static [&'static str];

    /// The counter values, in [`Counters::NAMES`] order.
    fn values(&self) -> impl IntoIterator<Item = u64>;

    /// Sets `<prefix>.<name>` in `reg` for every name in
    /// [`Counters::NAMES`].
    fn export(&self, reg: &mut MetricsRegistry, prefix: &str) {
        for (name, value) in Self::NAMES.iter().zip(self.values()) {
            reg.set(format!("{prefix}.{name}"), value);
        }
    }
}

/// A mutable bag of named counters, the staging area a [`Snapshot`] is
/// frozen from.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    values: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Set `name` to `value`, creating it if needed.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.values.insert(name.into(), value);
    }

    /// Add `delta` to `name`, creating it at zero if needed.
    pub fn add(&mut self, name: impl Into<String>, delta: u64) {
        *self.values.entry(name.into()).or_insert(0) += delta;
    }

    /// Current value of `name` (0 when absent).
    pub fn value(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no counters have been set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Freeze the current state into an immutable snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.clone().into_snapshot()
    }

    /// Freeze the registry into a snapshot without copying it.
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            values: self.values,
        }
    }
}

/// An immutable, diffable, mergeable copy of a registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    values: BTreeMap<String, u64>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Value of `name`, 0 when absent.
    pub fn value(&self, name: &str) -> u64 {
        self.get(name).unwrap_or(0)
    }

    /// Iterate `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Counter-wise `self - earlier` (saturating; keys are unioned, so a
    /// counter absent from `earlier` contributes its full value).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.values {
            out.insert(k.clone(), v.saturating_sub(earlier.value(k)));
        }
        for k in earlier.values.keys() {
            out.entry(k.clone()).or_insert(0);
        }
        Snapshot { values: out }
    }

    /// Counter-wise sum of `self` and `other` (e.g. across machines).
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut out = self.values.clone();
        for (k, &v) in &other.values {
            *out.entry(k.clone()).or_insert(0) += v;
        }
        Snapshot { values: out }
    }

    /// Sum of every counter matching `prefix.` (dotted-subtree total).
    ///
    /// Walks only the contiguous key range that can match — no dotted
    /// prefix string is rebuilt and nothing is allocated per call.
    pub fn subtree_total(&self, prefix: &str) -> u64 {
        use std::ops::Bound;
        self.values
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter(|(k, _)| k.len() == prefix.len() || k.as_bytes()[prefix.len()] == b'.')
            .map(|(_, &v)| v)
            .sum()
    }

    /// Export as nested JSON: dotted names become nested objects. A name
    /// that is both a leaf and an interior node renders its leaf value
    /// under `"_total"`.
    pub fn to_json(&self) -> String {
        #[derive(Default)]
        struct Node {
            value: Option<u64>,
            children: BTreeMap<String, Node>,
        }

        fn render(node: &Node, out: &mut String) {
            out.push('{');
            let mut first = true;
            if let (Some(v), false) = (node.value, node.children.is_empty()) {
                let _ = write!(out, "\"_total\":{v}");
                first = false;
            }
            for (name, child) in &node.children {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":", json_escape(name));
                if child.children.is_empty() {
                    let _ = write!(out, "{}", child.value.unwrap_or(0));
                } else {
                    render(child, out);
                }
            }
            out.push('}');
        }

        let mut root = Node::default();
        for (name, &value) in &self.values {
            let mut node = &mut root;
            for part in name.split('.') {
                node = node.children.entry(part.to_string()).or_default();
            }
            node.value = Some(value);
        }
        let mut out = String::new();
        render(&root, &mut out);
        out
    }

    /// The `kind` tag of a versioned snapshot document.
    pub const JSON_KIND: &'static str = "hpmp-metrics";

    /// Export as a versioned JSON document:
    /// `{"schema":1,"kind":"hpmp-metrics","counters":{...}}` with the
    /// counters nested as in [`Snapshot::to_json`]. This is what
    /// `--metrics-out` writes and what [`Snapshot::from_json`] reads.
    pub fn to_json_versioned(&self) -> String {
        format!(
            "{{\"schema\":{},\"kind\":\"{}\",\"counters\":{}}}",
            SCHEMA_VERSION,
            Self::JSON_KIND,
            self.to_json()
        )
    }

    /// Parse a versioned snapshot document produced by
    /// [`Snapshot::to_json_versioned`]. Rejects documents with a missing or
    /// unknown `schema` with a clear error, and re-flattens the nested
    /// counter tree back into dotted names (`"_total"` members become the
    /// parent name itself).
    pub fn from_json(text: &str) -> Result<Snapshot, ReadError> {
        let doc = parse_json(text).map_err(|e| ReadError::Schema {
            message: format!("metrics document is not valid JSON ({e})"),
        })?;
        check_schema(&doc, "metrics document")?;
        match doc.get("kind").and_then(JsonValue::as_str) {
            Some(Self::JSON_KIND) => {}
            Some(other) => {
                return Err(ReadError::Schema {
                    message: format!(
                        "document kind is \"{other}\", expected \"{}\"",
                        Self::JSON_KIND
                    ),
                })
            }
            None => {
                return Err(ReadError::Schema {
                    message: "metrics document has no \"kind\" field".to_string(),
                })
            }
        }
        let counters = doc.get("counters").ok_or_else(|| ReadError::Schema {
            message: "metrics document has no \"counters\" object".to_string(),
        })?;
        let mut values = BTreeMap::new();
        flatten_counters(counters, String::new(), &mut values)
            .map_err(|message| ReadError::Parse { line: 1, message })?;
        Ok(Snapshot { values })
    }

    /// Re-flatten a bare nested counter tree (the `"counters"` member of a
    /// versioned metrics document, or of a timeline slice) back into a
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Describes the first non-`u64` leaf encountered.
    pub fn from_counters(counters: &JsonValue) -> Result<Snapshot, String> {
        let mut values = BTreeMap::new();
        flatten_counters(counters, String::new(), &mut values)?;
        Ok(Snapshot { values })
    }
}

/// Re-flatten a nested counter tree into dotted names.
fn flatten_counters(
    value: &JsonValue,
    prefix: String,
    out: &mut BTreeMap<String, u64>,
) -> Result<(), String> {
    match value {
        JsonValue::Object(members) => {
            for (key, child) in members {
                if key == "_total" && !prefix.is_empty() {
                    let v = child
                        .as_u64()
                        .ok_or_else(|| format!("counter \"{prefix}\" _total is not a u64"))?;
                    out.insert(prefix.clone(), v);
                    continue;
                }
                let name = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_counters(child, name, out)?;
            }
            Ok(())
        }
        _ => {
            let v = value
                .as_u64()
                .ok_or_else(|| format!("counter \"{prefix}\" is not a u64"))?;
            out.insert(prefix, v);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_add_and_value() {
        let mut reg = MetricsRegistry::new();
        reg.set("machine.accesses", 10);
        reg.add("machine.accesses", 5);
        reg.add("machine.walks", 2);
        assert_eq!(reg.value("machine.accesses"), 15);
        assert_eq!(reg.value("machine.walks"), 2);
        assert_eq!(reg.value("absent"), 0);
    }

    #[test]
    fn subtree_total_ignores_sibling_with_prefix_name() {
        let mut reg = MetricsRegistry::new();
        reg.set("tlb", 2);
        reg.set("tlb.l1_hits", 5);
        reg.set("tlbx", 100);
        reg.set("tla", 100);
        assert_eq!(reg.snapshot().subtree_total("tlb"), 7);
    }

    #[test]
    fn delta_is_counterwise_difference() {
        let mut reg = MetricsRegistry::new();
        reg.set("a.x", 10);
        reg.set("a.y", 3);
        let before = reg.snapshot();
        reg.add("a.x", 7);
        reg.set("a.z", 1);
        let after = reg.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.value("a.x"), 7);
        assert_eq!(d.value("a.y"), 0);
        assert_eq!(d.value("a.z"), 1);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = MetricsRegistry::new();
        a.set("m.cycles", 100);
        a.set("m.only_a", 1);
        let mut b = MetricsRegistry::new();
        b.set("m.cycles", 50);
        b.set("m.only_b", 2);
        let merged = a.snapshot().merge(&b.snapshot());
        assert_eq!(merged.value("m.cycles"), 150);
        assert_eq!(merged.value("m.only_a"), 1);
        assert_eq!(merged.value("m.only_b"), 2);
    }

    #[test]
    fn subtree_total_sums_the_prefix() {
        let mut reg = MetricsRegistry::new();
        reg.set("tlb.l1_hits", 5);
        reg.set("tlb.l2_hits", 3);
        reg.set("tlbx", 100);
        assert_eq!(reg.snapshot().subtree_total("tlb"), 8);
    }

    #[test]
    fn json_nests_dotted_names() {
        let mut reg = MetricsRegistry::new();
        reg.set("machine.tlb.l1_hits", 4);
        reg.set("machine.tlb.misses", 1);
        reg.set("machine.cycles", 99);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"machine\":{\"cycles\":99,\"tlb\":{\"l1_hits\":4,\"misses\":1}}}"
        );
    }

    #[test]
    fn json_handles_leaf_and_interior_conflict() {
        let mut reg = MetricsRegistry::new();
        reg.set("refs", 10);
        reg.set("refs.pt", 6);
        let json = reg.snapshot().to_json();
        assert_eq!(json, "{\"refs\":{\"_total\":10,\"pt\":6}}");
    }

    #[test]
    fn versioned_json_round_trips() {
        let mut reg = MetricsRegistry::new();
        reg.set("machine.tlb.l1_hits", 4);
        reg.set("machine.cycles", 99);
        reg.set("refs", 10);
        reg.set("refs.pt", 6);
        reg.set("big", u64::MAX);
        let snap = reg.snapshot();
        let back = Snapshot::from_json(&snap.to_json_versioned()).unwrap();
        assert_eq!(back, snap, "flatten(nest(x)) must be identity");
    }

    #[test]
    fn delta_survives_json_round_trip() {
        // The exact pipeline `hpmp-analyze diff` runs: two snapshots, delta,
        // serialize, parse back.
        let mut reg = MetricsRegistry::new();
        reg.set("m.cycles", 1000);
        reg.set("m.walks", 10);
        let before = reg.snapshot();
        reg.add("m.cycles", 250);
        reg.add("m.walks", 3);
        reg.set("m.new_counter", 7);
        let after = reg.snapshot();
        let d = after.delta(&before);
        let back = Snapshot::from_json(&d.to_json_versioned()).unwrap();
        assert_eq!(back.value("m.cycles"), 250);
        assert_eq!(back.value("m.walks"), 3);
        assert_eq!(back.value("m.new_counter"), 7);
        assert_eq!(back, d);
    }

    #[test]
    fn from_json_rejects_unknown_schema() {
        let err = Snapshot::from_json("{\"schema\":42,\"kind\":\"hpmp-metrics\",\"counters\":{}}")
            .expect_err("must reject");
        assert!(err.to_string().contains("42"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_schema_and_wrong_kind() {
        assert!(Snapshot::from_json("{\"counters\":{}}").is_err());
        let err = Snapshot::from_json("{\"schema\":1,\"kind\":\"other\",\"counters\":{}}")
            .expect_err("must reject");
        assert!(err.to_string().contains("other"), "{err}");
    }
}
