//! A persistent (copy-on-write) map from `u64` keys to values.
//!
//! [`Pam`] is a 16-ary array-mapped trie over the key's 4-bit chunks,
//! least-significant first. Interior nodes are `Arc`-shared, so `clone()` is
//! one refcount bump and a mutation after a clone copies only the O(depth)
//! path to the touched leaf (`Arc::make_mut`), leaving everything else
//! shared. This is what makes publishing an immutable [`CommittedView`]
//! (see [`crate::view`]) O(changes-since-last-publish) instead of
//! O(graph): the committed snapshot and the in-transaction working state
//! share all untouched structure.
//!
//! The build environment has no crates.io access, so this is a std-only
//! hand-rolled structure rather than `im::HashMap`; the fixed `u64` key
//! domain (node/link/context ids, already dense and unique) lets it skip
//! hashing entirely.
//!
//! Shape is canonical: a branch exists only where at least two keys share a
//! prefix, children are bitmap-ordered, and removal collapses single-leaf
//! branches. Equality can therefore recurse structurally with an
//! `Arc::ptr_eq` fast path for shared subtrees.

use std::sync::Arc;

const BITS: u32 = 4;
const MASK: u64 = 0xf;

#[derive(Debug, Clone)]
enum PamNode<V> {
    Leaf(u64, V),
    Branch {
        /// Bit `c` set iff a child exists for chunk value `c`.
        bitmap: u16,
        /// Present children, ordered by chunk value.
        children: Vec<Arc<PamNode<V>>>,
    },
}

/// Persistent array-mapped trie keyed by `u64`; `clone` is O(1), mutation
/// after a clone copies only the touched path.
#[derive(Debug, Clone)]
pub struct Pam<V> {
    root: Option<Arc<PamNode<V>>>,
    len: usize,
}

impl<V> Default for Pam<V> {
    fn default() -> Self {
        Pam { root: None, len: 0 }
    }
}

fn child_slot(bitmap: u16, chunk: u64) -> (bool, usize) {
    let bit = 1u16 << chunk;
    let idx = (bitmap & (bit - 1)).count_ones() as usize;
    (bitmap & bit != 0, idx)
}

impl<V> Pam<V> {
    /// An empty map.
    pub fn new() -> Self {
        Pam::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared reference to the value for `key`.
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        let mut shift = 0u32;
        loop {
            match node {
                PamNode::Leaf(k, v) => return (*k == key).then_some(v),
                PamNode::Branch { bitmap, children } => {
                    let (present, idx) = child_slot(*bitmap, (key >> shift) & MASK);
                    if !present {
                        return None;
                    }
                    node = children.get(idx)?;
                    shift += BITS;
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, &value)` pairs in unspecified order.
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: self.root.as_deref().into_iter().collect(),
        }
    }

    /// Iterate over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<V: Clone> Pam<V> {
    /// Insert `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        match &mut self.root {
            None => {
                self.root = Some(Arc::new(PamNode::Leaf(key, value)));
                self.len += 1;
                None
            }
            Some(root) => {
                let old = insert_node(root, key, value, 0);
                if old.is_none() {
                    self.len += 1;
                }
                old
            }
        }
    }

    /// Exclusive reference to the value for `key`, copying the path to it
    /// if the structure is shared.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        // Peek first: `make_mut` on a miss would clone nodes for nothing.
        if !self.contains_key(key) {
            return None;
        }
        get_mut_node(self.root.as_mut()?, key, 0)
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let root = self.root.as_mut()?;
        let (removed, now_empty) = remove_node(root, key, 0);
        if now_empty {
            self.root = None;
        }
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }
}

fn insert_node<V: Clone>(node: &mut Arc<PamNode<V>>, key: u64, value: V, shift: u32) -> Option<V> {
    // Leaf cases replace the whole node, so peek before `make_mut`.
    let leaf_key = match &**node {
        PamNode::Leaf(k, _) => Some(*k),
        PamNode::Branch { .. } => None,
    };
    if let Some(k) = leaf_key {
        let inner = Arc::make_mut(node);
        if k == key {
            if let PamNode::Leaf(_, v) = inner {
                return Some(std::mem::replace(v, value));
            }
            return None;
        }
        // Split: replace this leaf with a branch holding both keys,
        // descending further while their chunks collide.
        let old = std::mem::replace(inner, empty_branch());
        if let PamNode::Leaf(_, existing) = old {
            *inner = split_leaves(k, existing, key, value, shift);
        }
        return None;
    }
    let PamNode::Branch { bitmap, children } = Arc::make_mut(node) else {
        return None;
    };
    let chunk = (key >> shift) & MASK;
    let (present, idx) = child_slot(*bitmap, chunk);
    if present {
        match children.get_mut(idx) {
            Some(child) => insert_node(child, key, value, shift + BITS),
            None => None,
        }
    } else {
        *bitmap |= 1u16 << chunk;
        children.insert(idx, Arc::new(PamNode::Leaf(key, value)));
        None
    }
}

/// `Arc::make_mut` needs ownership of the old node to move its value out;
/// this placeholder briefly stands in for it during a leaf split.
fn empty_branch<V>() -> PamNode<V> {
    PamNode::Branch {
        bitmap: 0,
        children: Vec::new(),
    }
}

fn split_leaves<V>(k1: u64, v1: V, k2: u64, v2: V, shift: u32) -> PamNode<V> {
    let c1 = (k1 >> shift) & MASK;
    let c2 = (k2 >> shift) & MASK;
    if c1 == c2 {
        PamNode::Branch {
            bitmap: 1u16 << c1,
            children: vec![Arc::new(split_leaves(k1, v1, k2, v2, shift + BITS))],
        }
    } else {
        let (first, second) = if c1 < c2 {
            (PamNode::Leaf(k1, v1), PamNode::Leaf(k2, v2))
        } else {
            (PamNode::Leaf(k2, v2), PamNode::Leaf(k1, v1))
        };
        PamNode::Branch {
            bitmap: (1u16 << c1) | (1u16 << c2),
            children: vec![Arc::new(first), Arc::new(second)],
        }
    }
}

fn get_mut_node<V: Clone>(node: &mut Arc<PamNode<V>>, key: u64, shift: u32) -> Option<&mut V> {
    match Arc::make_mut(node) {
        PamNode::Leaf(k, v) => (*k == key).then_some(v),
        PamNode::Branch { bitmap, children } => {
            let (present, idx) = child_slot(*bitmap, (key >> shift) & MASK);
            if !present {
                return None;
            }
            get_mut_node(children.get_mut(idx)?, key, shift + BITS)
        }
    }
}

/// Remove `key` under `node`; returns the removed value and whether the
/// node is now empty and must be dropped by the parent.
fn remove_node<V: Clone>(node: &mut Arc<PamNode<V>>, key: u64, shift: u32) -> (Option<V>, bool) {
    if let PamNode::Leaf(k, _) = &**node {
        if *k != key {
            return (None, false);
        }
        // The parent drops this node; the value is recovered by swapping
        // in a placeholder.
        let inner = Arc::make_mut(node);
        let old = std::mem::replace(inner, empty_branch());
        if let PamNode::Leaf(_, v) = old {
            return (Some(v), true);
        }
        return (None, true);
    }
    let (removed, collapse) = {
        let PamNode::Branch { bitmap, children } = Arc::make_mut(node) else {
            return (None, false);
        };
        let chunk = (key >> shift) & MASK;
        let (present, idx) = child_slot(*bitmap, chunk);
        if !present {
            return (None, false);
        }
        let Some(child) = children.get_mut(idx) else {
            return (None, false);
        };
        let (removed, child_empty) = remove_node(child, key, shift + BITS);
        if child_empty {
            *bitmap &= !(1u16 << chunk);
            children.remove(idx);
        }
        if children.is_empty() {
            return (removed, true);
        }
        // Canonical shape: a branch whose single child is a leaf collapses
        // to that leaf.
        let collapse = (children.len() == 1 && matches!(&*children[0], PamNode::Leaf(..)))
            .then(|| children.remove(0));
        (removed, collapse)
    };
    if let Some(only) = collapse {
        *node = only;
    }
    (removed, false)
}

/// Borrowed iterator over all entries, unspecified order.
pub struct Iter<'a, V> {
    stack: Vec<&'a PamNode<V>>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (u64, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.stack.pop()? {
                PamNode::Leaf(k, v) => return Some((*k, v)),
                PamNode::Branch { children, .. } => {
                    self.stack.extend(children.iter().map(|c| &**c));
                }
            }
        }
    }
}

impl<V: PartialEq> PartialEq for Pam<V> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => node_eq(a, b),
            _ => false,
        }
    }
}

impl<V: Eq> Eq for Pam<V> {}

fn node_eq<V: PartialEq>(a: &Arc<PamNode<V>>, b: &Arc<PamNode<V>>) -> bool {
    if Arc::ptr_eq(a, b) {
        return true;
    }
    match (&**a, &**b) {
        (PamNode::Leaf(ka, va), PamNode::Leaf(kb, vb)) => ka == kb && va == vb,
        (
            PamNode::Branch {
                bitmap: ba,
                children: ca,
            },
            PamNode::Branch {
                bitmap: bb,
                children: cb,
            },
        ) => ba == bb && ca.len() == cb.len() && ca.iter().zip(cb).all(|(x, y)| node_eq(x, y)),
        _ => false,
    }
}

impl<V: Clone> FromIterator<(u64, V)> for Pam<V> {
    fn from_iter<T: IntoIterator<Item = (u64, V)>>(iter: T) -> Self {
        let mut map = Pam::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = Pam::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(17, "b"), None); // collides with 1 in chunk 0
        assert_eq!(m.insert(1, "a2"), Some("a"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(&"a2"));
        assert_eq!(m.get(17), Some(&"b"));
        assert_eq!(m.get(33), None);
        assert_eq!(m.remove(1), Some("a2"));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(17), Some(&"b"));
    }

    #[test]
    fn clone_is_independent() {
        let mut a = Pam::new();
        for k in 0..200u64 {
            a.insert(k * 7, k);
        }
        let snapshot = a.clone();
        for k in 0..200u64 {
            *a.get_mut(k * 7).unwrap() += 1000;
        }
        a.insert(99_999, 1);
        a.remove(0);
        for k in 0..200u64 {
            assert_eq!(snapshot.get(k * 7), Some(&k), "snapshot must be frozen");
        }
        assert_eq!(snapshot.len(), 200);
        assert_eq!(a.get(7), Some(&1001));
    }

    #[test]
    fn matches_hashmap_model() {
        // Deterministic pseudo-random workload cross-checked against
        // std::collections::HashMap.
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut m: Pam<u64> = Pam::new();
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in 0..4000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 512; // force collisions and deep splits
            match state % 3 {
                0 => {
                    assert_eq!(m.insert(key, i), model.insert(key, i));
                }
                1 => {
                    assert_eq!(m.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(m.get(key), model.get(&key));
                    if let Some(v) = m.get_mut(key) {
                        *v += 1;
                        *model.get_mut(&key).unwrap() += 1;
                    }
                }
            }
            assert_eq!(m.len(), model.len());
        }
        let collected: HashMap<u64, u64> = m.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(collected, model);
    }

    #[test]
    fn equality_is_shape_independent() {
        let keys: Vec<u64> = vec![0, 1, 16, 17, 256, 4096, 65536, 65537, 3];
        let forward: Pam<u64> = keys.iter().map(|&k| (k, k)).collect();
        let reverse: Pam<u64> = keys.iter().rev().map(|&k| (k, k)).collect();
        assert_eq!(forward, reverse);

        // Removal collapses back to the canonical shape of a fresh build.
        let mut pruned = forward.clone();
        pruned.insert(999_999, 0);
        pruned.remove(999_999);
        assert_eq!(pruned, forward);

        let mut differs = forward.clone();
        *differs.get_mut(16).unwrap() = 0;
        assert_ne!(differs, forward);
    }

    #[test]
    fn shared_subtrees_survive_partial_mutation() {
        let mut a: Pam<String> = (0..64u64).map(|k| (k, format!("v{k}"))).collect();
        let b = a.clone();
        // Touch one key: only its path is copied, so deep equality still
        // short-circuits on the untouched shared subtrees.
        a.get_mut(63).unwrap().push('!');
        assert_ne!(a, b);
        assert_eq!(a.get(0), b.get(0));
    }
}
