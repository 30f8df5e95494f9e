//! Dictionary-coded columnar storage — the primary representation
//! behind [`crate::table::Table`].
//!
//! Every column is a `Vec<u32>` of dictionary codes with `0` reserved
//! for the null marker `⊥`, plus the ascending list of null-bearing
//! rows. Codes are assigned in **first-appearance order** and never
//! reassigned, so within one store code equality coincides with value
//! equality — the invariant every partition kernel in
//! `sqlnf-discovery` relies on. For a table built by appends alone the
//! codes are exactly what a fresh row-major encode would produce;
//! after point updates or deletes the codes may differ from a fresh
//! encode (retired dictionary entries keep their codes) but remain
//! *consistent*, which is all the discovery kernels need: partitions
//! group by code identity, never by code magnitude.
//!
//! Columns sit behind [`Arc`]s so a discovery snapshot is `O(arity)`
//! pointer clones. Mutations go through [`Arc::make_mut`]: in-place
//! while the store is unshared (the engine's steady state), a one-time
//! column copy when a snapshot is still alive. Callers that mine and
//! mutate in alternation should therefore drop snapshots before
//! mutating again.

use crate::attrs::Attr;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One dictionary-coded column: the code vector and the ascending list
/// of rows holding `⊥`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColData {
    /// `codes[row]` is the dictionary code of the cell; `0` = `⊥`.
    pub codes: Vec<u32>,
    /// Rows with `⊥` in this column, strictly ascending.
    pub null_rows: Vec<u32>,
}

/// The code [`Table::lookup_codes`](crate::table::Table::lookup_codes)
/// gives a value its column's dictionary has never seen. Stored codes
/// never reach it, so it equals none of them.
pub const UNSEEN: u32 = u32::MAX;

/// Value → code dictionary for one column. Code `0` stays reserved for
/// `⊥`; non-null values get `1, 2, …` in first-appearance order.
/// Entries are never removed, so a code retired by UPDATE/DELETE is
/// simply never reused for a different value.
#[derive(Debug, Clone, Default)]
struct Dict {
    index: HashMap<Value, u32>,
}

impl Dict {
    fn code_for(&mut self, v: &Value) -> u32 {
        if let Some(&c) = self.index.get(v) {
            return c;
        }
        let c = self.index.len() as u32 + 1;
        sqlnf_obs::count!("discovery.encode.dict_entries");
        self.index.insert(v.clone(), c);
        c
    }

    fn lookup(&self, v: &Value) -> u32 {
        if v.is_null() {
            return 0;
        }
        self.index.get(v).copied().unwrap_or(UNSEEN)
    }
}

/// The dictionary-coded columns of a table, maintained incrementally
/// on INSERT/UPDATE/DELETE.
#[derive(Debug, Clone, Default)]
pub struct ColumnStore {
    cols: Vec<Arc<ColData>>,
    dicts: Vec<Dict>,
    rows: usize,
}

/// A frozen `O(arity)` view of a [`ColumnStore`]: shared column data
/// plus the dictionary sizes (every code in `cols[a]` is `≤
/// dict_sizes[a]`). This is what `sqlnf-discovery`'s `Encoded` wraps —
/// taking one costs no per-row work at all.
#[derive(Debug, Clone)]
pub struct ColumnSnapshot {
    /// Shared per-column code vectors and null lists.
    pub cols: Vec<Arc<ColData>>,
    /// Number of dictionary entries per column; an inclusive upper
    /// bound on the codes appearing in the column.
    pub dict_sizes: Vec<u32>,
    /// Number of rows.
    pub rows: usize,
}

impl ColumnStore {
    /// An empty store with `arity` columns.
    pub fn new(arity: usize) -> ColumnStore {
        ColumnStore {
            cols: (0..arity).map(|_| Arc::new(ColData::default())).collect(),
            dicts: vec![Dict::default(); arity],
            rows: 0,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The code of cell `(row, col)`; `0` = `⊥`.
    #[inline]
    pub fn code_at(&self, row: usize, col: usize) -> u32 {
        self.cols[col].codes[row]
    }

    /// Number of dictionary entries of column `col` (codes run
    /// `1..=dict_size`).
    pub fn dict_size(&self, col: usize) -> u32 {
        self.dicts[col].index.len() as u32
    }

    /// Appends one row in `O(arity)` dictionary probes.
    pub fn push(&mut self, t: &Tuple) {
        sqlnf_obs::count!("discovery.encode.rows");
        let row = self.rows as u32;
        for (ci, dict) in self.dicts.iter_mut().enumerate() {
            let v = t.get(Attr::from(ci));
            let code = if v.is_null() { 0 } else { dict.code_for(v) };
            let col = Arc::make_mut(&mut self.cols[ci]);
            col.codes.push(code);
            if code == 0 {
                col.null_rows.push(row);
            }
        }
        self.rows += 1;
    }

    /// The codes `t` would carry as a row, read without growing any
    /// dictionary: a value a column has not seen gets [`UNSEEN`].
    pub(crate) fn lookup_codes(&self, t: &Tuple) -> Vec<u32> {
        self.dicts
            .iter()
            .enumerate()
            .map(|(ci, dict)| dict.lookup(t.get(Attr::from(ci))))
            .collect()
    }

    /// Re-codes one cell after a point update.
    pub fn set_value(&mut self, row: usize, col: usize, v: &Value) {
        let code = if v.is_null() {
            0
        } else {
            self.dicts[col].code_for(v)
        };
        let data = Arc::make_mut(&mut self.cols[col]);
        let old = std::mem::replace(&mut data.codes[row], code);
        if (old == 0) != (code == 0) {
            let r = row as u32;
            match data.null_rows.binary_search(&r) {
                Ok(i) => {
                    data.null_rows.remove(i);
                }
                Err(i) => data.null_rows.insert(i, r),
            }
        }
    }

    /// Removes one row, shifting later rows down by one.
    pub fn remove_row(&mut self, row: usize) {
        let r = row as u32;
        for col in &mut self.cols {
            let data = Arc::make_mut(col);
            data.codes.remove(row);
            let i = match data.null_rows.binary_search(&r) {
                Ok(i) => {
                    data.null_rows.remove(i);
                    i
                }
                Err(i) => i,
            };
            for n in &mut data.null_rows[i..] {
                *n -= 1;
            }
        }
        self.rows -= 1;
    }

    /// Drops every row from `len` on; no other row is renumbered.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.rows {
            return;
        }
        for col in &mut self.cols {
            let data = Arc::make_mut(col);
            data.codes.truncate(len);
            let keep = data.null_rows.partition_point(|&r| (r as usize) < len);
            data.null_rows.truncate(keep);
        }
        self.rows = len;
    }

    /// Freezes the current contents into an `O(arity)` snapshot.
    pub fn snapshot(&self) -> ColumnSnapshot {
        ColumnSnapshot {
            cols: self.cols.clone(),
            dict_sizes: (0..self.cols.len()).map(|c| self.dict_size(c)).collect(),
            rows: self.rows,
        }
    }

    /// FNV-style hash of a row's code vector. Together with
    /// [`ColumnStore::code_rows_equal`] this gives duplicate detection
    /// over `u32` codes instead of hashing `Value`s.
    pub fn row_code_hash(&self, row: usize) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for col in &self.cols {
            h ^= u64::from(col.codes[row]);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Whether two rows carry identical codes in every column — within
    /// one store, exactly value (multiset-element) equality.
    pub fn code_rows_equal(&self, r: usize, s: usize) -> bool {
        self.cols.iter().all(|c| c.codes[r] == c.codes[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn store3() -> ColumnStore {
        let mut s = ColumnStore::new(2);
        s.push(&tuple!["x", 1i64]);
        s.push(&tuple![null, 1i64]);
        s.push(&tuple!["x", 2i64]);
        s
    }

    #[test]
    fn first_appearance_codes_and_null_lists() {
        let s = store3();
        assert_eq!(s.rows(), 3);
        assert_eq!(s.code_at(0, 0), 1);
        assert_eq!(s.code_at(1, 0), 0);
        assert_eq!(s.code_at(2, 0), 1);
        assert_eq!(s.code_at(0, 1), 1);
        assert_eq!(s.code_at(2, 1), 2);
        assert_eq!(s.snapshot().cols[0].null_rows, vec![1]);
        assert_eq!(s.dict_size(0), 1);
        assert_eq!(s.dict_size(1), 2);
    }

    #[test]
    fn set_value_maintains_null_rows() {
        let mut s = store3();
        s.set_value(1, 0, &Value::str("y"));
        assert_eq!(s.code_at(1, 0), 2);
        assert!(s.snapshot().cols[0].null_rows.is_empty());
        s.set_value(0, 0, &Value::Null);
        assert_eq!(s.code_at(0, 0), 0);
        assert_eq!(s.snapshot().cols[0].null_rows, vec![0]);
        // Re-using an existing value re-uses its code.
        s.set_value(0, 0, &Value::str("x"));
        assert_eq!(s.code_at(0, 0), 1);
    }

    #[test]
    fn remove_row_shifts_null_rows() {
        let mut s = store3();
        s.push(&tuple![null, 3i64]);
        // null rows in column 0: [1, 3]
        s.remove_row(0);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.snapshot().cols[0].null_rows, vec![0, 2]);
        s.remove_row(0); // removes the (now first) null row
        assert_eq!(s.snapshot().cols[0].null_rows, vec![1]);
    }

    #[test]
    fn lookup_codes_never_grow_a_dictionary() {
        let s = store3();
        assert_eq!(s.lookup_codes(&tuple!["x", 2i64]), vec![1, 2]);
        assert_eq!(s.lookup_codes(&tuple![null, 7i64]), vec![0, UNSEEN]);
        assert_eq!((s.dict_size(0), s.dict_size(1)), (1, 2));
    }

    #[test]
    fn truncate_drops_tail_rows_and_their_nulls() {
        let mut s = store3();
        s.push(&tuple![null, 3i64]);
        s.truncate(2);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.snapshot().cols[0].null_rows, vec![1]);
        assert_eq!(s.snapshot().cols[1].codes, vec![1, 1]);
        s.truncate(5);
        assert_eq!(s.rows(), 2);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut s = store3();
        let snap = s.snapshot();
        s.push(&tuple!["z", 9i64]);
        s.set_value(0, 1, &Value::Int(7));
        assert_eq!(snap.rows, 3);
        assert_eq!(snap.cols[0].codes.len(), 3);
        assert_eq!(snap.cols[1].codes[0], 1);
        assert_eq!(s.code_at(0, 1), 4); // 9 took code 3, then 7 got 4
    }

    #[test]
    fn code_row_equality_matches_value_equality() {
        let mut s = ColumnStore::new(2);
        s.push(&tuple!["a", 1i64]);
        s.push(&tuple!["a", 1i64]);
        s.push(&tuple!["a", 2i64]);
        s.push(&tuple![null, 1i64]);
        s.push(&tuple![null, 1i64]);
        assert!(s.code_rows_equal(0, 1));
        assert!(!s.code_rows_equal(0, 2));
        assert!(s.code_rows_equal(3, 4));
        assert_eq!(s.row_code_hash(0), s.row_code_hash(1));
    }
}
