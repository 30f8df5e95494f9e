//! Incremental constraint checking over dictionary codes: validate one
//! candidate row against an instance in (amortized) constant time per
//! constraint, instead of revalidating the whole table.
//!
//! Every constraint of Σ gets one index of the same shape. A key `⟨X⟩`
//! is an FD `X → Y` with no `Y` to agree on: any two rows that match
//! on `X` conflict. An index reads the table's dictionary codes
//! ([`Table::code_at`], `0` = `⊥`) and never a value:
//!
//! * `groups` maps the `X`-codes of every `X`-total row to the group's
//!   member rows. On the `X`-total part strong similarity is code
//!   equality, and admission keeps every member equal on `Y`, so the
//!   first member stands for the group;
//! * `null_rows` lists the rows with `⊥` in `X`. For certain
//!   constraints weak similarity ("equal codes, or one of them is
//!   `0`") reaches past the map: a candidate is compared with these
//!   rows, and a candidate with `⊥` in `X` with every row. With the
//!   null lists short — the common case — a check is O(1) +
//!   O(#null rows).
//!
//! A candidate arrives as the codes of [`Table::lookup_codes`], which
//! never grows a dictionary: a value its column has not seen gets
//! [`UNSEEN`](crate::column::UNSEEN), equal to no stored code, so a
//! rejected row leaves the table untouched. A row enters the bank once
//! it is stored ([`IndexBank::insert`] reads its codes back) and leaves
//! it while it is still stored ([`IndexBank::remove`]). A positional
//! delete then renumbers the later ids ([`IndexBank::shift_down`]);
//! dropping tail rows renumbers nothing. When a candidate conflicts,
//! the witness is the group's first member, else the first weakly
//! similar null row, else the first weakly similar row of the table.
//! The equivalence with full revalidation is property-tested.

use crate::attrs::{Attr, AttrSet};
use crate::constraint::{Modality, Sigma};
use crate::table::Table;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem::size_of;

/// Why a candidate row is inadmissible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// An existing row the candidate conflicts with.
    pub with_row: usize,
}

/// The member rows of one `X`-total group, in the order a `Vec` with
/// `swap_remove` would keep them. The first member is held inline, so
/// a key group — always a single row — allocates nothing.
#[derive(Debug, Clone)]
struct Group {
    first: u32,
    rest: Vec<u32>,
}

/// Incremental checker for one FD (`rhs: Some`) or key (`rhs: None`).
#[derive(Debug, Clone)]
struct ConstraintIndex {
    lhs: AttrSet,
    rhs: Option<AttrSet>,
    modality: Modality,
    groups: HashMap<Box<[u32]>, Group>,
    null_rows: Vec<u32>,
    /// Summed capacity of the groups' `rest` lists.
    spilled: usize,
}

impl ConstraintIndex {
    fn new(lhs: AttrSet, rhs: Option<AttrSet>, modality: Modality) -> ConstraintIndex {
        ConstraintIndex {
            lhs,
            rhs,
            modality,
            groups: HashMap::new(),
            null_rows: Vec::new(),
            spilled: 0,
        }
    }

    /// The `X`-codes of a row, or `None` if it has `⊥` in `X`.
    fn project(&self, code: impl Fn(Attr) -> u32) -> Option<Box<[u32]>> {
        self.lhs
            .iter()
            .map(|a| Some(code(a)).filter(|&c| c != 0))
            .collect()
    }

    /// Whether stored row `r` and the candidate conflict, given that
    /// they match on `X`: they disagree on `Y`, and a key has no `Y`.
    fn disagrees(&self, table: &Table, r: usize, codes: &[u32]) -> bool {
        !self
            .rhs
            .is_some_and(|y| y.iter().all(|a| table.code_at(r, a) == codes[a.index()]))
    }

    fn weakly_similar(&self, table: &Table, r: usize, codes: &[u32]) -> bool {
        self.lhs.iter().all(|a| {
            let (c, d) = (codes[a.index()], table.code_at(r, a));
            c == d || c == 0 || d == 0
        })
    }

    fn check(&self, table: &Table, codes: &[u32], exclude: Option<usize>) -> Result<(), Conflict> {
        let key = self.project(|a| codes[a.index()]);
        if let Some(g) = key.as_ref().and_then(|k| self.groups.get(k)) {
            let w = g.first as usize;
            if self.disagrees(table, w, codes) {
                return Err(Conflict { with_row: w });
            }
        }
        if self.modality == Modality::Certain {
            let conflicts =
                |r: usize| self.weakly_similar(table, r, codes) && self.disagrees(table, r, codes);
            // The candidate against the rows with ⊥ in X…
            if let Some(&r) = self.null_rows.iter().find(|&&r| conflicts(r as usize)) {
                return Err(Conflict {
                    with_row: r as usize,
                });
            }
            // …and, with ⊥ in its own X, against rows the map cannot
            // find: scan.
            if key.is_none() {
                if let Some(r) = (0..table.len()).find(|&r| Some(r) != exclude && conflicts(r)) {
                    return Err(Conflict { with_row: r });
                }
            }
        }
        Ok(())
    }

    fn insert(&mut self, table: &Table, row: usize) {
        let id = row as u32;
        let Some(key) = self.project(|a| table.code_at(row, a)) else {
            self.null_rows.push(id);
            return;
        };
        match self.groups.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Group {
                    first: id,
                    rest: Vec::new(),
                });
            }
            Entry::Occupied(o) => {
                let rest = &mut o.into_mut().rest;
                let before = rest.capacity();
                rest.push(id);
                self.spilled += rest.capacity() - before;
            }
        }
    }

    fn remove(&mut self, table: &Table, row: usize) {
        let id = row as u32;
        let Some(key) = self.project(|a| table.code_at(row, a)) else {
            if let Some(at) = self.null_rows.iter().rposition(|&r| r == id) {
                self.null_rows.swap_remove(at);
            }
            return;
        };
        let Some(g) = self.groups.get_mut(&key) else {
            return;
        };
        if g.first != id {
            if let Some(at) = g.rest.iter().rposition(|&r| r == id) {
                g.rest.swap_remove(at);
            }
        } else if let Some(last) = g.rest.pop() {
            g.first = last;
        } else {
            self.spilled -= g.rest.capacity();
            self.groups.remove(&key);
        }
    }

    fn shift_down(&mut self, removed: usize) {
        let removed = removed as u32;
        let shift = |r: &mut u32| {
            debug_assert_ne!(*r, removed, "removed id still indexed");
            if *r > removed {
                *r -= 1;
            }
        };
        for g in self.groups.values_mut() {
            shift(&mut g.first);
            g.rest.iter_mut().for_each(shift);
        }
        self.null_rows.iter_mut().for_each(shift);
    }

    /// Map slots (key handle, group, control byte), the `X`-codes each
    /// group's key holds, the spilled members and the null list.
    /// Allocator overhead is not counted.
    fn bytes(&self) -> usize {
        self.groups.capacity() * (size_of::<(Box<[u32]>, Group)>() + 1)
            + (self.groups.len() * self.lhs.len() + self.spilled + self.null_rows.capacity())
                * size_of::<u32>()
    }
}

/// A bank of indexes, one per constraint of Σ in [`Sigma::iter`]
/// order, sharing admission and maintenance.
#[derive(Debug, Clone, Default)]
pub struct IndexBank {
    indexes: Vec<ConstraintIndex>,
}

impl IndexBank {
    /// Builds the bank for Σ over every row of `table`.
    pub fn build(sigma: &Sigma, table: &Table) -> IndexBank {
        let fds = sigma
            .fds
            .iter()
            .map(|fd| ConstraintIndex::new(fd.lhs, Some(fd.rhs), fd.modality));
        let keys = sigma
            .keys
            .iter()
            .map(|k| ConstraintIndex::new(k.attrs, None, k.modality));
        let mut bank = IndexBank {
            indexes: fds.chain(keys).collect(),
        };
        for row in 0..table.len() {
            bank.insert(table, row);
        }
        bank
    }

    /// Whether a row with the candidate `codes` (from
    /// [`Table::lookup_codes`]) may join `table`; on refusal, the first
    /// violated constraint's index and the conflict. A full scan skips
    /// the row at `exclude`: a point update validates the replacement
    /// while the old row, already [`remove`](Self::remove)d, still
    /// occupies its slot.
    pub fn check(
        &self,
        table: &Table,
        codes: &[u32],
        exclude: Option<usize>,
    ) -> Result<(), (usize, Conflict)> {
        for (ci, idx) in self.indexes.iter().enumerate() {
            idx.check(table, codes, exclude).map_err(|c| (ci, c))?;
        }
        Ok(())
    }

    /// Indexes the stored row `row`. Callers must have checked it
    /// first; the bank does not re-verify.
    pub fn insert(&mut self, table: &Table, row: usize) {
        for idx in &mut self.indexes {
            idx.insert(table, row);
        }
    }

    /// Forgets the stored row `row`, reading its codes before the
    /// table drops or changes it: one hash lookup plus a scan of the
    /// row's group. Other ids are untouched.
    pub fn remove(&mut self, table: &Table, row: usize) {
        for idx in &mut self.indexes {
            idx.remove(table, row);
        }
    }

    /// Compacts ids after a positional delete: every stored id greater
    /// than `removed` decrements by one. The id `removed` itself must
    /// already have been [`remove`](Self::remove)d. Touches each stored
    /// id once — no rehashing, no reallocation.
    pub fn shift_down(&mut self, removed: usize) {
        for idx in &mut self.indexes {
            idx.shift_down(removed);
        }
    }

    /// The bytes the indexes hold, from the sizes they keep (no map is
    /// walked): map slots, group keys, spilled members and null lists.
    pub fn index_bytes(&self) -> usize {
        self.indexes.iter().map(ConstraintIndex::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{Fd, Key};
    use crate::satisfy::satisfies_all;
    use crate::schema::TableSchema;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn schema() -> TableSchema {
        TableSchema::new("t", ["a", "b", "c"], &[])
    }

    /// Reference: would appending `row` keep Σ satisfied?
    fn naive_admissible(table: &Table, sigma: &Sigma, row: &Tuple) -> bool {
        let mut next = table.clone();
        next.push(row.clone());
        satisfies_all(&next, sigma)
    }

    fn check(bank: &IndexBank, table: &Table, row: &Tuple) -> Result<(), (usize, Conflict)> {
        bank.check(table, &table.lookup_codes(row), None)
    }

    /// Appends `row` if the bank admits it, in the engine's order:
    /// check, store, index.
    fn admit(bank: &mut IndexBank, table: &mut Table, row: Tuple) -> bool {
        let ok = check(bank, table, &row).is_ok();
        if ok {
            table.push(row);
            bank.insert(table, table.len() - 1);
        }
        ok
    }

    #[test]
    fn fd_admission_matches_naive() {
        let sigma = Sigma::new().with(Fd::certain(
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let candidates = vec![
            tuple![1i64, 10i64, 0i64],
            tuple![1i64, 10i64, 1i64], // same group, same rhs: ok
            tuple![1i64, 20i64, 2i64], // conflicts
            tuple![null, 10i64, 3i64], // weakly similar to group 1, same b: ok
            tuple![null, 30i64, 4i64], // weakly similar, different b: conflict
            tuple![2i64, 30i64, 5i64], // fresh group… but wait: weakly similar to the ⊥ row!
        ];
        for cand in candidates {
            let expected = naive_admissible(&table, &sigma, &cand);
            assert_eq!(admit(&mut bank, &mut table, cand), expected);
        }
    }

    #[test]
    fn key_admission_matches_naive() {
        let sigma = Sigma::new().with(Key::certain(AttrSet::from_indices([0, 1])));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let candidates = vec![
            tuple![1i64, 1i64, 0i64],
            tuple![1i64, 2i64, 0i64],
            tuple![1i64, 1i64, 9i64], // duplicate key: conflict
            tuple![null, 3i64, 0i64], // ⊥ weakly matches nothing on b=3: ok
            tuple![null, 1i64, 0i64], // weakly matches (1,1): conflict
            tuple![2i64, 3i64, 0i64], // weakly matches (⊥,3): conflict
        ];
        for cand in candidates {
            let expected = naive_admissible(&table, &sigma, &cand);
            assert_eq!(admit(&mut bank, &mut table, cand), expected);
        }
    }

    #[test]
    fn conflict_reports_a_real_row() {
        let sigma = Sigma::new().with(Fd::possible(
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        assert!(admit(&mut bank, &mut table, tuple![7i64, 1i64, 0i64]));
        // The RHS value 2 is unseen: its sentinel code matches nothing.
        let (ci, conflict) = check(&bank, &table, &tuple![7i64, 2i64, 0i64]).unwrap_err();
        assert_eq!(ci, 0);
        assert_eq!(conflict.with_row, 0);
    }

    #[test]
    fn remove_and_shift_track_deletes() {
        let sigma = Sigma::new()
            .with(Key::certain(AttrSet::from_indices([0])))
            .with(Fd::certain(
                AttrSet::from_indices([1]),
                AttrSet::from_indices([2]),
            ));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        for r in [
            tuple![1i64, 5i64, 50i64],
            tuple![2i64, null, 50i64],
            tuple![3i64, 5i64, 50i64],
        ] {
            assert!(admit(&mut bank, &mut table, r));
        }
        // Delete the middle (null-bearing) row: remove, drop, shift.
        bank.remove(&table, 1);
        table.remove_row(1);
        bank.shift_down(1);
        // Key 2 is free again, key 3 (now id 1) still taken, and the
        // FD group {5}→{50} still rejects a divergent RHS.
        assert!(check(&bank, &table, &tuple![2i64, 9i64, 0i64]).is_ok());
        let (_, c) = check(&bank, &table, &tuple![3i64, 8i64, 0i64]).unwrap_err();
        assert_eq!(c.with_row, 1);
        assert!(check(&bank, &table, &tuple![4i64, 5i64, 99i64]).is_err());
        // Updating row 0's key: remove old, validate the replacement
        // excluding the slot, store it, index it.
        bank.remove(&table, 0);
        let taken = table.lookup_codes(&tuple![3i64, 5i64, 50i64]);
        // Key 3 is taken by row 1: conflict even mid-update.
        assert!(bank.check(&table, &taken, Some(0)).is_err());
        let free = table.lookup_codes(&tuple![7i64, 5i64, 50i64]);
        bank.check(&table, &free, Some(0)).unwrap();
        table.set_value(0, Attr(0), crate::value::Value::Int(7));
        bank.insert(&table, 0);
        assert!(check(&bank, &table, &tuple![7i64, 0i64, 0i64]).is_err());
        assert!(check(&bank, &table, &tuple![1i64, 0i64, 0i64]).is_ok());
    }

    #[test]
    fn dropping_tail_rows_frees_their_groups() {
        let sigma = Sigma::new().with(Key::possible(AttrSet::from_indices([0])));
        let mut table = Table::new(schema());
        let mut bank = IndexBank::build(&sigma, &table);
        let empty = bank.index_bytes();
        assert!(admit(&mut bank, &mut table, tuple![1i64, 0i64, 0i64]));
        assert!(admit(&mut bank, &mut table, tuple![2i64, 0i64, 0i64]));
        assert!(bank.index_bytes() > empty);
        assert!(check(&bank, &table, &tuple![2i64, 0i64, 0i64]).is_err());
        bank.remove(&table, 1);
        table.truncate(1);
        assert!(check(&bank, &table, &tuple![2i64, 0i64, 0i64]).is_ok());
        assert!(check(&bank, &table, &tuple![1i64, 0i64, 0i64]).is_err());
        // A bank built over the survivors agrees.
        let rebuilt = IndexBank::build(&sigma, &table);
        assert!(check(&rebuilt, &table, &tuple![1i64, 0i64, 0i64]).is_err());
    }
}
