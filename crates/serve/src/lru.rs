//! A bounded map that evicts its least recently used entry: the result
//! store's in-memory index and the server's front-end memo.

use std::collections::{BTreeMap, HashMap};

/// At most `capacity` entries under 128-bit keys; an insert past capacity
/// evicts the least recently used entry. Every operation is O(log n).
#[derive(Debug)]
pub(crate) struct Lru<V> {
    capacity: usize,
    entries: HashMap<u128, (V, u64)>,
    /// Last use → key, oldest first.
    order: BTreeMap<u64, u128>,
    tick: u64,
}

impl<V> Lru<V> {
    /// An empty map holding at most `capacity` (at least one) entries.
    pub(crate) fn new(capacity: usize) -> Lru<V> {
        Lru {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The value under `key`, now the most recently used.
    pub(crate) fn get(&mut self, key: u128) -> Option<&V> {
        let (value, used) = self.entries.get_mut(&key)?;
        self.order.remove(used);
        self.tick += 1;
        *used = self.tick;
        self.order.insert(self.tick, key);
        Some(value)
    }

    /// Inserts (or replaces) the value under `key` as the most recently
    /// used, evicting the least recently used entries past capacity.
    pub(crate) fn insert(&mut self, key: u128, value: V) {
        self.tick += 1;
        if let Some((_, used)) = self.entries.insert(key, (value, self.tick)) {
            self.order.remove(&used);
        }
        self.order.insert(self.tick, key);
        while self.entries.len() > self.capacity {
            let (_, oldest) = self.order.pop_first().expect("every entry is ordered");
            self.entries.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Lru;

    #[test]
    fn evicts_the_least_recently_used() {
        let mut lru = Lru::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(1), Some(&"a")); // 2 is now the oldest
        lru.insert(3, "c");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(2), None);
        lru.insert(1, "a2"); // a replacement refreshes, evicts nothing
        assert_eq!(lru.len(), 2);
        lru.insert(4, "d");
        assert_eq!(lru.get(3), None);
        assert_eq!(lru.get(1), Some(&"a2"));
        assert_eq!(lru.get(4), Some(&"d"));
    }
}
