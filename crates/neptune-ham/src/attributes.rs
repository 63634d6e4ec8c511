//! Attribute names, versioned attribute values, and the value index.
//!
//! Paper §3: *"an unlimited number of attribute/value pairs can be attached
//! to a node or link"*; attributes are *"very dynamic"* (attachable,
//! deletable, modifiable at any time) and every change to an archive's
//! attribute *"creates a new version of the attribute value"* (§A.4). The
//! appendix also demands history of the attribute *vocabulary* itself:
//! `getAttributes(Context × Time)` lists the attributes "that existed at
//! time Time".

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::error::Result as StorageResult;

use crate::history::Versioned;
use crate::pmap::Pam;
use crate::types::{AttributeIndex, Time};
use crate::value::{value_index_key, Value};

/// The graph-wide registry interning attribute names.
///
/// `getAttributeIndex` has create-on-miss semantics in the paper ("If no
/// attribute exists, then creates one"), so the table records each name's
/// creation time for `getAttributes(… Time)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttributeTable {
    by_name: HashMap<String, AttributeIndex>,
    names: Vec<(String, Time)>, // indexed by AttributeIndex.0
}

impl AttributeTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up `name`, creating it at `now` if absent — the HAM's
    /// `getAttributeIndex`.
    pub fn intern(&mut self, name: &str, now: Time) -> AttributeIndex {
        match self.by_name.entry(name.to_string()) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let idx = AttributeIndex(self.names.len() as u64);
                self.names.push((name.to_string(), now));
                *e.insert(idx)
            }
        }
    }

    /// Look up `name` without creating it.
    pub fn lookup(&self, name: &str) -> Option<AttributeIndex> {
        self.by_name.get(name).copied()
    }

    /// The name for `idx`, if it exists.
    pub fn name(&self, idx: AttributeIndex) -> Option<&str> {
        self.names.get(idx.0 as usize).map(|(n, _)| n.as_str())
    }

    /// All `(name, index)` pairs existing at `time` — `getAttributes`.
    pub fn attributes_at(&self, time: Time) -> Vec<(String, AttributeIndex)> {
        self.names
            .iter()
            .enumerate()
            .filter(|(_, (_, created))| time.is_current() || *created <= time)
            .map(|(i, (name, _))| (name.clone(), AttributeIndex(i as u64)))
            .collect()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no names are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl Encode for AttributeTable {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.names.len() as u64);
        for (name, created) in &self.names {
            w.put_str(name);
            created.encode(w);
        }
    }
}

impl Decode for AttributeTable {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let count = r.get_u64()? as usize;
        let mut table = AttributeTable::new();
        for i in 0..count {
            let name = r.get_str()?.to_owned();
            let created = Time::decode(r)?;
            table.by_name.insert(name.clone(), AttributeIndex(i as u64));
            table.names.push((name, created));
        }
        Ok(table)
    }
}

/// Count one attribute point-get and the probes its binary search made.
/// `neptune_ham_attr_probes_total / neptune_ham_attr_gets_total` is the
/// mean probe depth — O(log versions) when healthy; a linear regression
/// would push it toward the version count.
fn observe_attr_get(probes: u32) {
    use std::sync::{Arc, OnceLock};
    static PROBES: OnceLock<Arc<neptune_obs::Counter>> = OnceLock::new();
    static GETS: OnceLock<Arc<neptune_obs::Counter>> = OnceLock::new();
    if neptune_obs::enabled() {
        PROBES
            .get_or_init(|| neptune_obs::registry().counter("neptune_ham_attr_probes_total"))
            .add(u64::from(probes));
        GETS.get_or_init(|| neptune_obs::registry().counter("neptune_ham_attr_gets_total"))
            .inc();
    }
}

/// The versioned attribute/value pairs attached to one node or link.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrMap {
    values: BTreeMap<AttributeIndex, Versioned<Value>>,
}

impl AttrMap {
    /// An empty attribute map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set `attr` to `value` as of `now` — `setNodeAttributeValue` /
    /// `setLinkAttributeValue`.
    pub fn set(&mut self, attr: AttributeIndex, value: Value, now: Time) {
        self.values.entry(attr).or_default().set(now, value);
    }

    /// Delete `attr` as of `now` — `deleteNodeAttribute` /
    /// `deleteLinkAttribute`. Returns whether the attribute had a value.
    pub fn delete(&mut self, attr: AttributeIndex, now: Time) -> bool {
        match self.values.get_mut(&attr) {
            Some(v) if v.exists_at(Time::CURRENT) => {
                v.delete(now);
                true
            }
            _ => false,
        }
    }

    /// The value of `attr` at `time` — `getNodeAttributeValue` /
    /// `getLinkAttributeValue`. Binary-searches the sorted version vector;
    /// the probe count feeds `neptune_ham_attr_probes_total` so a
    /// regression back to a linear walk shows up in metrics, not just in
    /// latency.
    pub fn get(&self, attr: AttributeIndex, time: Time) -> Option<&Value> {
        let versions = self.values.get(&attr)?;
        let (value, probes) = versions.get_at_counted(time);
        observe_attr_get(probes);
        value
    }

    /// All `(attribute, value)` pairs with a value at `time` —
    /// `getNodeAttributes` / `getLinkAttributes`.
    pub fn all_at(&self, time: Time) -> Vec<(AttributeIndex, Value)> {
        self.values
            .iter()
            .filter_map(|(idx, v)| v.get_at(time).map(|val| (*idx, val.clone())))
            .collect()
    }

    /// Times at which any attribute of this object changed (for minor
    /// version histories).
    pub fn change_times(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .values
            .values()
            .flat_map(|v| v.change_times())
            .collect();
        times.sort_unstable();
        times.dedup();
        times
    }

    /// Attributes whose value changed (set or deleted) strictly after
    /// `time` — used by context merging to find divergent attributes.
    /// Only the newest change time matters, so this reads it in O(1) per
    /// attribute instead of materializing every attribute's full
    /// `change_times()` vector (the linear-walk shape merge paid per
    /// attribute per merge).
    pub fn attrs_changed_after(&self, time: Time) -> Vec<AttributeIndex> {
        self.values
            .iter()
            .filter(|(_, v)| v.last_change_time().is_some_and(|t| t > time))
            .map(|(idx, _)| *idx)
            .collect()
    }

    /// Every attribute's full versioned history, for integrity checking.
    pub fn histories(&self) -> impl Iterator<Item = (AttributeIndex, &Versioned<Value>)> {
        self.values.iter().map(|(idx, v)| (*idx, v))
    }

    /// Number of attributes that ever had a value.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no attribute ever had a value.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Encode for AttrMap {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.values.len() as u64);
        for (idx, versions) in &self.values {
            idx.encode(w);
            versions.encode(w);
        }
    }
}

impl Decode for AttrMap {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let count = r.get_u64()? as usize;
        let mut values = BTreeMap::new();
        for _ in 0..count {
            let idx = AttributeIndex::decode(r)?;
            let versions = Versioned::<Value>::decode(r)?;
            values.insert(idx, versions);
        }
        Ok(AttrMap { values })
    }
}

/// What kind of object an index entry refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjKind {
    /// A node.
    Node,
    /// A link.
    Link,
}

/// An object reference in the index: what kind it is plus its raw id.
pub type ObjRef = (ObjKind, u64);

/// One collision-chain entry in [`ValueIndex::by_pair`]: the exact
/// `(attr, value key)` pair and the members currently carrying it.
type PairChain = Vec<((AttributeIndex, Vec<u8>), BTreeSet<ObjRef>)>;

/// One collision-chain entry in [`ValueIndex::values_by_attr`]:
/// `(value key, value, carrier count)`.
type ValueChain = Vec<(Vec<u8>, Value, usize)>;

/// An inverted index from `(attribute, value)` to the objects currently
/// carrying that pair.
///
/// This accelerates `getGraphQuery` for the common `attr = literal`
/// predicate (the paper's own example) and `getAttributeValues`. It tracks
/// **current** values only; historical queries fall back to scanning, which
/// experiment E3 quantifies.
///
/// Internals are persistent ([`Pam`] tries keyed by FNV-1a hashes with
/// in-bucket collision chains) so a graph clone — taken on every snapshot
/// publish and context fork — shares the whole index and a later mutation
/// copies only the touched bucket's path, keeping publication
/// O(changes) rather than O(index).
#[derive(Debug, Clone, Default)]
pub struct ValueIndex {
    /// FNV-1a of `(attr, value key)` → collision chain of
    /// `((attr, value key), members carrying that pair)`.
    by_pair: Pam<PairChain>,
    /// `attr.0` → (FNV-1a of value key → collision chain of
    /// `(value key, value, carrier count)`).
    values_by_attr: Pam<Pam<ValueChain>>,
}

/// FNV-1a over an attribute index and a value key — the bucket addresses
/// for [`ValueIndex`]'s tries. Deterministic by design (no per-process
/// hasher seed), so equal indexes have equal internal shapes.
fn index_hash(attr: u64, key: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in attr.to_le_bytes().iter().chain(key) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ValueIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `obj`'s current value of `attr` is now `value`,
    /// replacing `old` if the attribute was previously set.
    pub fn update(
        &mut self,
        obj: (ObjKind, u64),
        attr: AttributeIndex,
        old: Option<&Value>,
        value: &Value,
    ) {
        if let Some(old) = old {
            self.remove(obj, attr, old);
        }
        let key = value_index_key(value);
        let slot = index_hash(attr.0, &key);
        if self.by_pair.get(slot).is_none() {
            self.by_pair.insert(slot, Vec::new());
        }
        if let Some(bucket) = self.by_pair.get_mut(slot) {
            match bucket
                .iter_mut()
                .find(|(pair, _)| pair == &(attr, key.clone()))
            {
                Some((_, members)) => {
                    members.insert(obj);
                }
                None => bucket.push(((attr, key.clone()), BTreeSet::from([obj]))),
            }
        }
        if self.values_by_attr.get(attr.0).is_none() {
            self.values_by_attr.insert(attr.0, Pam::new());
        }
        if let Some(values) = self.values_by_attr.get_mut(attr.0) {
            let vslot = index_hash(0, &key);
            if values.get(vslot).is_none() {
                values.insert(vslot, Vec::new());
            }
            if let Some(bucket) = values.get_mut(vslot) {
                match bucket.iter_mut().find(|(k, _, _)| k == &key) {
                    Some((_, _, count)) => *count += 1,
                    None => bucket.push((key, value.clone(), 1)),
                }
            }
        }
    }

    /// Record that `obj` no longer carries `attr = value`.
    pub fn remove(&mut self, obj: (ObjKind, u64), attr: AttributeIndex, value: &Value) {
        let key = value_index_key(value);
        let slot = index_hash(attr.0, &key);
        let mut drop_bucket = false;
        if let Some(bucket) = self.by_pair.get_mut(slot) {
            if let Some(pos) = bucket
                .iter()
                .position(|(pair, _)| pair == &(attr, key.clone()))
            {
                if let Some((_, members)) = bucket.get_mut(pos) {
                    members.remove(&obj);
                    if members.is_empty() {
                        bucket.remove(pos);
                    }
                }
            }
            drop_bucket = bucket.is_empty();
        }
        if drop_bucket {
            self.by_pair.remove(slot);
        }
        let mut drop_attr = false;
        if let Some(values) = self.values_by_attr.get_mut(attr.0) {
            let vslot = index_hash(0, &key);
            let mut drop_values = false;
            if let Some(bucket) = values.get_mut(vslot) {
                if let Some(pos) = bucket.iter().position(|(k, _, _)| k == &key) {
                    if let Some((_, _, count)) = bucket.get_mut(pos) {
                        *count -= 1;
                        if *count == 0 {
                            bucket.remove(pos);
                        }
                    }
                }
                drop_values = bucket.is_empty();
            }
            if drop_values {
                values.remove(vslot);
            }
            drop_attr = values.is_empty();
        }
        if drop_attr {
            self.values_by_attr.remove(attr.0);
        }
    }

    /// Objects currently carrying `attr = value`.
    pub fn lookup(&self, attr: AttributeIndex, value: &Value) -> Vec<(ObjKind, u64)> {
        let key = value_index_key(value);
        self.by_pair
            .get(index_hash(attr.0, &key))
            .and_then(|bucket| {
                bucket
                    .iter()
                    .find(|(pair, _)| pair.0 == attr && pair.1 == key)
            })
            .map(|(_, members)| members.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Distinct current values of `attr` — the fast path of
    /// `getAttributeValues` at the current time.
    pub fn current_values(&self, attr: AttributeIndex) -> Vec<Value> {
        let mut vals: Vec<(Vec<u8>, Value)> = self
            .values_by_attr
            .get(attr.0)
            .map(|values| {
                values
                    .values()
                    .flat_map(|bucket| bucket.iter().map(|(k, v, _)| (k.clone(), v.clone())))
                    .collect()
            })
            .unwrap_or_default();
        vals.sort_by(|a, b| a.0.cmp(&b.0));
        vals.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = AttributeTable::new();
        let a = t.intern("contentType", Time(1));
        let b = t.intern("contentType", Time(2));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), Some("contentType"));
        assert_eq!(t.lookup("contentType"), Some(a));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn attributes_at_respects_creation_time() {
        let mut t = AttributeTable::new();
        t.intern("early", Time(1));
        t.intern("late", Time(10));
        assert_eq!(t.attributes_at(Time(5)).len(), 1);
        assert_eq!(t.attributes_at(Time(10)).len(), 2);
        assert_eq!(t.attributes_at(Time::CURRENT).len(), 2);
    }

    #[test]
    fn table_codec_roundtrip() {
        let mut t = AttributeTable::new();
        t.intern("a", Time(1));
        t.intern("b", Time(2));
        let decoded = AttributeTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn attrmap_versioned_values() {
        let mut m = AttrMap::new();
        let attr = AttributeIndex(0);
        m.set(attr, Value::str("draft"), Time(1));
        m.set(attr, Value::str("final"), Time(5));
        assert_eq!(m.get(attr, Time(1)), Some(&Value::str("draft")));
        assert_eq!(m.get(attr, Time(4)), Some(&Value::str("draft")));
        assert_eq!(m.get(attr, Time(5)), Some(&Value::str("final")));
        assert_eq!(m.get(attr, Time::CURRENT), Some(&Value::str("final")));
    }

    #[test]
    fn attrmap_delete_keeps_history() {
        let mut m = AttrMap::new();
        let attr = AttributeIndex(3);
        m.set(attr, Value::Int(1), Time(1));
        assert!(m.delete(attr, Time(2)));
        assert!(!m.delete(attr, Time(3)), "double delete reports false");
        assert_eq!(m.get(attr, Time(1)), Some(&Value::Int(1)));
        assert_eq!(m.get(attr, Time::CURRENT), None);
    }

    #[test]
    fn attrmap_all_at_reflects_time() {
        let mut m = AttrMap::new();
        m.set(AttributeIndex(0), Value::str("x"), Time(1));
        m.set(AttributeIndex(1), Value::Int(9), Time(5));
        assert_eq!(m.all_at(Time(1)).len(), 1);
        assert_eq!(m.all_at(Time(5)).len(), 2);
        assert_eq!(m.all_at(Time::CURRENT).len(), 2);
    }

    #[test]
    fn attrmap_codec_roundtrip() {
        let mut m = AttrMap::new();
        m.set(AttributeIndex(0), Value::str("v"), Time(1));
        m.delete(AttributeIndex(0), Time(2));
        m.set(AttributeIndex(7), Value::Float(2.5), Time(3));
        let decoded = AttrMap::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn value_index_tracks_current_pairs() {
        let mut ix = ValueIndex::new();
        let attr = AttributeIndex(0);
        let n1 = (ObjKind::Node, 1);
        let n2 = (ObjKind::Node, 2);
        ix.update(n1, attr, None, &Value::str("requirements"));
        ix.update(n2, attr, None, &Value::str("requirements"));
        assert_eq!(ix.lookup(attr, &Value::str("requirements")), vec![n1, n2]);
        // n2 changes document.
        ix.update(
            n2,
            attr,
            Some(&Value::str("requirements")),
            &Value::str("design"),
        );
        assert_eq!(ix.lookup(attr, &Value::str("requirements")), vec![n1]);
        assert_eq!(ix.lookup(attr, &Value::str("design")), vec![n2]);
        // Deletion.
        ix.remove(n1, attr, &Value::str("requirements"));
        assert!(ix.lookup(attr, &Value::str("requirements")).is_empty());
        let values = ix.current_values(attr);
        assert_eq!(values, vec![Value::str("design")]);
    }

    #[test]
    fn value_index_counts_duplicates() {
        let mut ix = ValueIndex::new();
        let attr = AttributeIndex(1);
        ix.update((ObjKind::Node, 1), attr, None, &Value::Int(7));
        ix.update((ObjKind::Link, 1), attr, None, &Value::Int(7));
        ix.remove((ObjKind::Node, 1), attr, &Value::Int(7));
        // The value survives because the link still carries it.
        assert_eq!(ix.current_values(attr), vec![Value::Int(7)]);
    }
}
