//! Seeded variants of the generated tables.
//!
//! `adult_like` plants few dependencies, so how many accidental ones a
//! generator seed produces decides the cost of mining it: the `MINE`
//! report on adult took from 1.1 s to 5.4 s across generator seeds 1–5
//! on a 2-vCPU Xeon.
//! That spread would swamp any change under test. The benchmark
//! therefore generates each table once, from [`BASE_SEED`], and lets
//! the run's seed rename every column's values through a bijection and
//! shuffle the rows: every seed gives different input bytes, but the
//! same dependencies, partitions and mining work.

use sqlnf_model::prelude::*;

/// Generator seed of every base table.
pub const BASE_SEED: u64 = 20160626;

/// SplitMix64: a small, seedable, well-mixed generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a purpose `stream`, so independent
    /// uses of one seed draw independent numbers.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A number in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `table` with each column's values renamed by a bijection drawn from
/// `seed`: integers shift by a per-column offset, strings gain a
/// per-column suffix, nulls stay nulls. Equal cells stay equal and
/// distinct cells stay distinct.
pub fn relabel(table: &Table, seed: u64) -> Table {
    let mut rng = Rng::new(seed, 1);
    let cols: Vec<(i64, String)> = (0..table.schema().arity())
        .map(|_| {
            let offset = rng.below(1 << 20) as i64;
            (offset, format!("~{:04x}", rng.below(1 << 16)))
        })
        .collect();
    let rows = table.rows().iter().map(|row| {
        let values: Vec<Value> = row
            .values()
            .iter()
            .zip(&cols)
            .map(|(v, (offset, suffix))| match v {
                Value::Int(i) => Value::Int(i + offset),
                Value::Str(s) => Value::Str(format!("{s}{suffix}")),
                other => other.clone(),
            })
            .collect();
        Tuple::new(values)
    });
    Table::from_rows(table.schema().clone(), rows)
}

/// `rows` in an order drawn from `seed` (Fisher–Yates).
pub fn shuffled(rows: &[Tuple], seed: u64) -> Vec<Tuple> {
    let mut rng = Rng::new(seed, 2);
    let mut out = rows.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// [`relabel`] then shuffle: the seed's variant of a base table.
pub fn variant(base: &Table, seed: u64) -> Table {
    let renamed = relabel(base, seed);
    Table::from_rows(base.schema().clone(), shuffled(renamed.rows(), seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        TableBuilder::new("t", ["a", "b"], &[])
            .row(Tuple::new(vec![Value::Int(1), Value::str("x")]))
            .row(Tuple::new(vec![Value::Int(1), Value::Null]))
            .row(Tuple::new(vec![Value::Int(2), Value::str("x")]))
            .row(Tuple::new(vec![Value::Int(3), Value::str("y")]))
            .build()
    }

    #[test]
    fn variants_keep_the_equality_structure() {
        let base = sample();
        let v = relabel(&base, 9);
        assert_ne!(v.rows(), base.rows());
        for (i, r) in base.rows().iter().enumerate() {
            for (j, s) in base.rows().iter().enumerate() {
                for a in 0..2 {
                    let a = sqlnf_model::attrs::Attr::from(a);
                    assert_eq!(
                        r.get(a) == s.get(a),
                        v.rows()[i].get(a) == v.rows()[j].get(a)
                    );
                }
            }
        }
        assert_eq!(v.null_count(sqlnf_model::attrs::Attr::from(1)), 1);
    }

    #[test]
    fn variants_are_seeded_permutations() {
        let base = sample();
        assert_eq!(variant(&base, 4).rows(), variant(&base, 4).rows());
        let mut a = shuffled(base.rows(), 4);
        let mut b = base.rows().to_vec();
        let key = |t: &Tuple| format!("{:?}", t.values());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }
}
