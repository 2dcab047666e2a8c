//! The benchmark's own model of the relation: every tuple's data values
//! and annotation names, from the generated base plus every acknowledged
//! update. It shares no code with the store — names are interned in a
//! local table and tuples are sorted id lists — so the oracle's recounts
//! are independent of the system under test.

use std::collections::HashMap;

/// Independent copy of the relation the service must serve.
#[derive(Debug, Clone, Default)]
pub struct Model {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    /// Per tuple (id = index): sorted, deduplicated item ids.
    tuples: Vec<Vec<u32>>,
}

/// The Fig. 4 convention: digit-only tokens are data values.
pub fn is_data(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_digit())
}

impl Model {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// The id of `name`, if any tuple ever carried it.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The name of item `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct names.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Append one Fig. 4 row (space-separated tokens).
    pub fn insert_row(&mut self, row: &str) {
        let mut items: Vec<u32> = row.split_whitespace().map(|tok| self.intern(tok)).collect();
        items.sort_unstable();
        items.dedup();
        self.tuples.push(items);
    }

    /// Attach `name` to tuple `tid`; `false` if it was already there.
    pub fn annotate(&mut self, tid: u32, name: &str) -> bool {
        let id = self.intern(name);
        let items = &mut self.tuples[tid as usize];
        match items.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                items.insert(at, id);
                true
            }
        }
    }

    /// Detach `name` from tuple `tid`; `false` if it was absent.
    pub fn remove(&mut self, tid: u32, name: &str) -> bool {
        let Some(id) = self.id(name) else {
            return false;
        };
        let items = &mut self.tuples[tid as usize];
        match items.binary_search(&id) {
            Ok(at) => {
                items.remove(at);
                true
            }
            Err(_) => false,
        }
    }

    /// Does tuple `tid` carry `name`?
    pub fn has(&self, tid: u32, name: &str) -> bool {
        self.id(name)
            .is_some_and(|id| self.tuples[tid as usize].binary_search(&id).is_ok())
    }

    /// Annotation names of tuple `tid`.
    pub fn annotations_of(&self, tid: u32) -> Vec<String> {
        self.tuples[tid as usize]
            .iter()
            .map(|&id| self.name(id))
            .filter(|n| !is_data(n))
            .map(str::to_string)
            .collect()
    }

    /// Sorted names of tuple `tid`.
    pub fn sorted_names(&self, tid: u32) -> Vec<&str> {
        let mut names: Vec<&str> = self.tuples[tid as usize]
            .iter()
            .map(|&id| self.name(id))
            .collect();
        names.sort_unstable();
        names
    }

    /// One posting bitset per item id: bit `t` set iff tuple `t` carries
    /// the item. The brute-force recounts intersect these.
    pub fn postings(&self) -> Postings {
        let words = self.tuples.len().div_ceil(64);
        let mut bits = vec![vec![0u64; words]; self.names.len()];
        for (tid, items) in self.tuples.iter().enumerate() {
            for &id in items {
                bits[id as usize][tid / 64] |= 1 << (tid % 64);
            }
        }
        Postings { bits }
    }
}

/// Per-item tuple bitsets of a [`Model`].
pub struct Postings {
    bits: Vec<Vec<u64>>,
}

impl Postings {
    /// Tuples carrying every item of `items` (all tuples if empty).
    pub fn count_all(&self, items: &[u32], tuples: usize) -> u64 {
        match items {
            [] => tuples as u64,
            [only] => self.bits[*only as usize]
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum(),
            [first, rest @ ..] => {
                let mut acc = self.bits[*first as usize].clone();
                for &id in rest {
                    for (a, b) in acc.iter_mut().zip(&self.bits[id as usize]) {
                        *a &= b;
                    }
                }
                acc.iter().map(|w| u64::from(w.count_ones())).sum()
            }
        }
    }

    /// Tuples carrying both `a` and `b`.
    pub fn count_pair(&self, a: u32, b: u32) -> u64 {
        self.bits[a as usize]
            .iter()
            .zip(&self.bits[b as usize])
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_updates_are_set_semantics() {
        let mut m = Model::default();
        m.insert_row("28 85 Annot_1 28");
        m.insert_row("17 99");
        assert_eq!(m.sorted_names(0), vec!["28", "85", "Annot_1"]);
        assert!(m.annotate(1, "Annot_1"));
        assert!(!m.annotate(1, "Annot_1"));
        assert!(m.remove(0, "Annot_1"));
        assert!(!m.remove(0, "Annot_1"));
        let p = m.postings();
        let a = m.id("Annot_1").unwrap();
        assert_eq!(p.count_all(&[a], m.len()), 1);
        assert_eq!(p.count_pair(a, m.id("17").unwrap()), 1);
        assert_eq!(p.count_all(&[], m.len()), 2);
    }
}
