//! Tables: rows, indexes, and cost-accounted operations.

use crate::schema::Schema;
use crate::value::Value;
use crate::StoreError;
use serde::{Deserialize, Serialize};
use simcore::DetHashMap;
use std::collections::BTreeMap;

/// A row: primary key plus values in schema column order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// The primary key.
    pub key: u64,
    /// Column values in schema order.
    pub values: Vec<Value>,
}

/// What an operation cost: the inputs to the CPU-demand model.
///
/// Costs are *logical* (rows, probes, bytes); converting them to cycles is
/// the consumer's calibration, not the store's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpStats {
    /// Rows read (including rows skipped by pagination).
    pub rows_read: u64,
    /// Rows written.
    pub rows_written: u64,
    /// B-tree descents (primary or secondary).
    pub index_probes: u64,
    /// Bytes of row data materialized for the caller.
    pub bytes_out: u64,
}

impl OpStats {
    /// Accumulates another operation's stats.
    pub fn merge(&mut self, other: OpStats) {
        self.rows_read += other.rows_read;
        self.rows_written += other.rows_written;
        self.index_probes += other.index_probes;
        self.bytes_out += other.bytes_out;
    }
}

/// One table: schema, primary storage, secondary indexes.
///
/// Primary storage and the per-column index routing are `DetHashMap` (O(1)
/// point lookups, fixed-seed so capacity — hence any footprint accounting —
/// is identical on every run). The *inner* index stays a `BTreeMap`: its
/// keys are [`Value`]s (which include floats, so they cannot be hashed) and
/// its range order is what makes paged selects deterministic.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Table {
    schema: Option<Schema>,
    rows: DetHashMap<u64, Vec<Value>>,
    // column name → value → keys (insertion-ordered within a value).
    indexes: DetHashMap<String, BTreeMap<Value, Vec<u64>>>,
}

impl Table {
    /// Creates an empty table for `schema`.
    pub fn new(schema: Schema) -> Table {
        let indexes = schema
            .indexed()
            .iter()
            .map(|c| (c.clone(), BTreeMap::new()))
            .collect();
        Table {
            schema: Some(schema),
            rows: DetHashMap::default(),
            indexes,
        }
    }

    fn schema(&self) -> &Schema {
        self.schema
            .as_ref()
            .expect("tables are built with a schema")
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row.
    ///
    /// # Errors
    ///
    /// [`StoreError::DuplicateKey`] if the key exists,
    /// [`StoreError::WrongArity`] if the value count mismatches the schema.
    pub fn insert(&mut self, key: u64, values: Vec<Value>) -> Result<OpStats, StoreError> {
        let ncols = self.schema().columns().len();
        if values.len() != ncols {
            return Err(StoreError::WrongArity {
                expected: ncols,
                got: values.len(),
            });
        }
        if self.rows.contains_key(&key) {
            return Err(StoreError::DuplicateKey(key));
        }
        let mut stats = OpStats {
            rows_written: 1,
            index_probes: 1, // the primary descent
            ..OpStats::default()
        };
        let schema = self.schema().clone();
        for col in schema.indexed() {
            let idx = schema.column_index(col).expect("indexed columns exist");
            let value = values[idx].clone();
            self.indexes
                .get_mut(col)
                .expect("index exists for indexed column")
                .entry(value)
                .or_default()
                .push(key);
            stats.index_probes += 1;
        }
        self.rows.insert(key, values);
        Ok(stats)
    }

    /// Fetches a row by primary key.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchKey`] if absent.
    pub fn get(&self, key: u64) -> Result<(Row, OpStats), StoreError> {
        let values = self.rows.get(&key).ok_or(StoreError::NoSuchKey(key))?;
        let bytes: u64 = values.iter().map(Value::size_bytes).sum();
        Ok((
            Row {
                key,
                values: values.clone(),
            },
            OpStats {
                rows_read: 1,
                index_probes: 1,
                bytes_out: bytes,
                ..OpStats::default()
            },
        ))
    }

    /// Paged equality scan over an indexed column: rows whose `column`
    /// equals `value`, skipping `offset`, returning at most `limit`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchColumn`] / [`StoreError::NotIndexed`] as
    /// appropriate.
    pub fn select_eq(
        &self,
        column: &str,
        value: &Value,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<Row>, OpStats), StoreError> {
        let schema = self.schema();
        if schema.column_index(column).is_none() {
            return Err(StoreError::NoSuchColumn(column.to_owned()));
        }
        let index = self
            .indexes
            .get(column)
            .ok_or_else(|| StoreError::NotIndexed(column.to_owned()))?;
        let mut stats = OpStats {
            index_probes: 1,
            ..OpStats::default()
        };
        let keys = index.get(value).map(Vec::as_slice).unwrap_or(&[]);
        // Real engines walk the index past the skipped page too.
        stats.rows_read = keys.len().min(offset + limit) as u64;
        let mut rows = Vec::new();
        for &key in keys.iter().skip(offset).take(limit) {
            let values = self.rows.get(&key).expect("index points at live rows");
            stats.index_probes += 1; // primary lookup per materialized row
            stats.bytes_out += values.iter().map(Value::size_bytes).sum::<u64>();
            rows.push(Row {
                key,
                values: values.clone(),
            });
        }
        Ok((rows, stats))
    }

    /// Number of rows matching `column == value` (indexed).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotIndexed`] if the column has no index.
    pub fn count_eq(&self, column: &str, value: &Value) -> Result<(usize, OpStats), StoreError> {
        let index = self
            .indexes
            .get(column)
            .ok_or_else(|| StoreError::NotIndexed(column.to_owned()))?;
        let n = index.get(value).map(Vec::len).unwrap_or(0);
        Ok((
            n,
            OpStats {
                index_probes: 1,
                ..OpStats::default()
            },
        ))
    }

    /// Updates one column of one row.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchKey`] / [`StoreError::NoSuchColumn`].
    pub fn update(
        &mut self,
        key: u64,
        column: &str,
        new_value: Value,
    ) -> Result<OpStats, StoreError> {
        let schema = self.schema().clone();
        let col_idx = schema
            .column_index(column)
            .ok_or_else(|| StoreError::NoSuchColumn(column.to_owned()))?;
        let values = self.rows.get_mut(&key).ok_or(StoreError::NoSuchKey(key))?;
        let old = std::mem::replace(&mut values[col_idx], new_value.clone());
        let mut stats = OpStats {
            rows_read: 1,
            rows_written: 1,
            index_probes: 1,
            ..OpStats::default()
        };
        // Maintain the secondary index if this column carries one.
        if let Some(index) = self.indexes.get_mut(column) {
            if let Some(keys) = index.get_mut(&old) {
                keys.retain(|&k| k != key);
                if keys.is_empty() {
                    index.remove(&old);
                }
            }
            index.entry(new_value).or_default().push(key);
            stats.index_probes += 2;
        }
        Ok(stats)
    }

    /// Full scan applying `pred`, returning matching rows (costed at one
    /// read per row scanned — the expensive path the indexes exist to
    /// avoid).
    pub fn scan(&self, mut pred: impl FnMut(&Row) -> bool) -> (Vec<Row>, OpStats) {
        let mut stats = OpStats::default();
        let mut out = Vec::new();
        // Visit rows in key order: hash-map iteration order is seed-stable
        // but arbitrary, and scans are observable (result order, cost
        // attribution order).
        let mut keys: Vec<u64> = self.rows.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let values = &self.rows[&key];
            stats.rows_read += 1;
            let row = Row {
                key,
                values: values.clone(),
            };
            if pred(&row) {
                stats.bytes_out += row.values.iter().map(Value::size_bytes).sum::<u64>();
                out.push(row);
            }
        }
        (out, stats)
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Table {
    /// Rows travel sorted by primary key and index routing sorted by column
    /// name, so two logically equal tables snapshot to identical bytes
    /// regardless of insertion history.
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            schema,
            rows,
            indexes,
        } = self;
        w.section("table");
        schema.save(w);
        let mut keys: Vec<u64> = rows.keys().copied().collect();
        keys.sort_unstable();
        w.usize(keys.len());
        for key in keys {
            w.u64(key);
            rows[&key].save(w);
        }
        let mut cols: Vec<&String> = indexes.keys().collect();
        cols.sort_unstable();
        w.usize(cols.len());
        for col in cols {
            w.str(col);
            let index = &indexes[col];
            w.usize(index.len());
            for (value, keys) in index {
                value.save(w);
                keys.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.section("table")?;
        let schema = Option::<Schema>::load(r)?;
        let nrows = r.usize()?;
        let mut rows = DetHashMap::default();
        for _ in 0..nrows {
            let key = r.u64()?;
            rows.insert(key, Vec::<Value>::load(r)?);
        }
        let ncols = r.usize()?;
        let mut indexes = DetHashMap::default();
        for _ in 0..ncols {
            let col = r.str()?;
            let nvalues = r.usize()?;
            let mut index = BTreeMap::new();
            for _ in 0..nvalues {
                let value = Value::load(r)?;
                let keys = Vec::<u64>::load(r)?;
                if let Some(bad) = keys.iter().find(|k| !rows.contains_key(k)) {
                    return Err(SnapError::Corrupt(format!(
                        "index on {col:?} points at missing row {bad}"
                    )));
                }
                index.insert(value, keys);
            }
            indexes.insert(col, index);
        }
        Ok(Table {
            schema,
            rows,
            indexes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn products() -> Table {
        let mut t = Table::new(
            Schema::new("products", &["category_id", "name", "price"]).index_on("category_id"),
        );
        for i in 0..50u64 {
            t.insert(
                i,
                vec![
                    Value::Int((i % 5) as i64),
                    Value::text(format!("tea-{i}")),
                    Value::Int(100 + i as i64),
                ],
            )
            .expect("insert");
        }
        t
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = products();
        assert_eq!(t.len(), 50);
        let (row, stats) = t.get(7).expect("exists");
        assert_eq!(row.values[1], Value::text("tea-7"));
        assert_eq!(stats.rows_read, 1);
        assert!(stats.bytes_out > 0);
        assert!(t.get(999).is_err());
    }

    #[test]
    fn duplicate_and_arity_errors() {
        let mut t = products();
        assert_eq!(
            t.insert(7, vec![Value::Int(0), Value::text("x"), Value::Int(1)]),
            Err(StoreError::DuplicateKey(7))
        );
        assert_eq!(
            t.insert(100, vec![Value::Int(0)]),
            Err(StoreError::WrongArity {
                expected: 3,
                got: 1
            })
        );
    }

    #[test]
    fn select_eq_pages_deterministically() {
        let t = products();
        let (page1, s1) = t
            .select_eq("category_id", &Value::Int(2), 0, 4)
            .expect("query");
        let (page2, _) = t
            .select_eq("category_id", &Value::Int(2), 4, 4)
            .expect("query");
        assert_eq!(page1.len(), 4);
        assert_eq!(page2.len(), 4);
        assert!(page1.iter().all(|r| r.values[0] == Value::Int(2)));
        let keys1: Vec<u64> = page1.iter().map(|r| r.key).collect();
        let keys2: Vec<u64> = page2.iter().map(|r| r.key).collect();
        assert!(
            keys1.iter().all(|k| !keys2.contains(k)),
            "pages must not overlap"
        );
        assert!(s1.rows_read >= 4);
        // An unknown value yields an empty page, cheaply.
        let (none, s) = t
            .select_eq("category_id", &Value::Int(99), 0, 10)
            .expect("query");
        assert!(none.is_empty());
        assert_eq!(s.rows_read, 0);
    }

    #[test]
    fn deeper_pages_cost_more() {
        let t = products();
        let (_, first) = t.select_eq("category_id", &Value::Int(1), 0, 2).expect("q");
        let (_, deep) = t.select_eq("category_id", &Value::Int(1), 8, 2).expect("q");
        assert!(
            deep.rows_read > first.rows_read,
            "pagination depth must show up in cost: {first:?} vs {deep:?}"
        );
    }

    #[test]
    fn count_eq() {
        let t = products();
        let (n, stats) = t.count_eq("category_id", &Value::Int(3)).expect("count");
        assert_eq!(n, 10);
        assert_eq!(stats.index_probes, 1);
        assert!(
            t.count_eq("name", &Value::text("tea-1")).is_err(),
            "not indexed"
        );
    }

    #[test]
    fn update_maintains_index() {
        let mut t = products();
        t.update(7, "category_id", Value::Int(4)).expect("update");
        let (rows, _) = t
            .select_eq("category_id", &Value::Int(4), 0, 50)
            .expect("q");
        assert!(rows.iter().any(|r| r.key == 7));
        let (rows, _) = t
            .select_eq("category_id", &Value::Int(2), 0, 50)
            .expect("q");
        assert!(!rows.iter().any(|r| r.key == 7), "old index entry removed");
        assert!(t.update(999, "price", Value::Int(1)).is_err());
        assert!(t.update(1, "nope", Value::Int(1)).is_err());
    }

    #[test]
    fn scan_costs_full_table() {
        let t = products();
        let (rows, stats) = t.scan(|r| r.values[2] == Value::Int(110));
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.rows_read, 50, "scans read everything");
    }
}
