//! The database: a set of named tables.

use crate::schema::Schema;
use crate::table::{OpStats, Row, Table};
use crate::value::Value;
use crate::StoreError;
use serde::{Deserialize, Serialize};
use simcore::DetHashMap;

/// A named collection of [`Table`]s with pass-through, cost-accounted
/// operations. Tables are keyed in a fixed-seed hash map (all access is by
/// name; [`Database::table_names`] sorts at the observation point).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    tables: DetHashMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Creates a table from `schema`.
    ///
    /// # Errors
    ///
    /// [`StoreError::TableExists`] if the name is taken.
    pub fn create_table(&mut self, schema: Schema) -> Result<(), StoreError> {
        let name = schema.name().to_owned();
        if self.tables.contains_key(&name) {
            return Err(StoreError::TableExists(name));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_owned()))
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Number of rows in `table`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchTable`] if absent.
    pub fn row_count(&self, table: &str) -> Result<usize, StoreError> {
        Ok(self.table(table)?.len())
    }

    /// Inserts a row into `table`. See [`Table::insert`].
    ///
    /// # Errors
    ///
    /// Propagates table errors; [`StoreError::NoSuchTable`] if absent.
    pub fn insert(
        &mut self,
        table: &str,
        key: u64,
        values: Vec<Value>,
    ) -> Result<OpStats, StoreError> {
        self.table_mut(table)?.insert(key, values)
    }

    /// Fetches a row by primary key. See [`Table::get`].
    ///
    /// # Errors
    ///
    /// Propagates table errors; [`StoreError::NoSuchTable`] if absent.
    pub fn get(&self, table: &str, key: u64) -> Result<(Row, OpStats), StoreError> {
        self.table(table)?.get(key)
    }

    /// Paged equality select. See [`Table::select_eq`].
    ///
    /// # Errors
    ///
    /// Propagates table errors; [`StoreError::NoSuchTable`] if absent.
    pub fn select_eq(
        &self,
        table: &str,
        column: &str,
        value: &Value,
        offset: usize,
        limit: usize,
    ) -> Result<(Vec<Row>, OpStats), StoreError> {
        self.table(table)?.select_eq(column, value, offset, limit)
    }

    /// Indexed count. See [`Table::count_eq`].
    ///
    /// # Errors
    ///
    /// Propagates table errors; [`StoreError::NoSuchTable`] if absent.
    pub fn count_eq(
        &self,
        table: &str,
        column: &str,
        value: &Value,
    ) -> Result<(usize, OpStats), StoreError> {
        self.table(table)?.count_eq(column, value)
    }

    /// Single-column update. See [`Table::update`].
    ///
    /// # Errors
    ///
    /// Propagates table errors; [`StoreError::NoSuchTable`] if absent.
    pub fn update(
        &mut self,
        table: &str,
        key: u64,
        column: &str,
        value: Value,
    ) -> Result<OpStats, StoreError> {
        self.table_mut(table)?.update(key, column, value)
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Database {
    fn save(&self, w: &mut SnapWriter) {
        let Self { tables } = self;
        w.section("database");
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort_unstable();
        w.usize(names.len());
        for name in names {
            w.str(name);
            tables[name].save(w);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.section("database")?;
        let ntables = r.usize()?;
        let mut tables = DetHashMap::default();
        for _ in 0..ntables {
            let name = r.str()?;
            tables.insert(name, Table::load(r)?);
        }
        Ok(Database { tables })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_route() {
        let mut db = Database::new();
        db.create_table(Schema::new("a", &["x"])).expect("fresh");
        db.create_table(Schema::new("b", &["y"]).index_on("y"))
            .expect("fresh");
        assert_eq!(db.table_names(), vec!["a", "b"]);
        assert_eq!(
            db.create_table(Schema::new("a", &["z"])),
            Err(StoreError::TableExists("a".to_owned()))
        );
        db.insert("a", 1, vec![Value::Int(10)]).expect("insert");
        assert_eq!(db.row_count("a").expect("exists"), 1);
        assert_eq!(db.get("a", 1).expect("row").0.values[0], Value::Int(10));
        assert!(matches!(db.get("zzz", 1), Err(StoreError::NoSuchTable(_))));
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable_and_query_identical() {
        use simcore::snap::{SnapReader, SnapWriter};
        let mut db = Database::new();
        db.create_table(Schema::new("products", &["category", "price"]).index_on("category"))
            .expect("fresh");
        db.create_table(Schema::new("users", &["name"]))
            .expect("fresh");
        for i in 0..40u64 {
            db.insert(
                "products",
                i,
                vec![Value::Int((i % 4) as i64), Value::Int(100 + i as i64)],
            )
            .expect("insert");
        }
        db.insert("users", 1, vec![Value::text("alice")])
            .expect("insert");
        db.update("products", 7, "category", Value::Int(9))
            .expect("update");

        let mut w = SnapWriter::new();
        db.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let restored = Database::load(&mut r).expect("loads");
        assert_eq!(restored.table_names(), db.table_names());
        assert_eq!(restored.row_count("products"), db.row_count("products"));
        // Queries over the restored database give identical rows AND costs.
        assert_eq!(
            restored.select_eq("products", "category", &Value::Int(2), 0, 10),
            db.select_eq("products", "category", &Value::Int(2), 0, 10)
        );
        assert_eq!(
            restored.count_eq("products", "category", &Value::Int(9)),
            db.count_eq("products", "category", &Value::Int(9))
        );
        let mut w2 = SnapWriter::new();
        restored.save(&mut w2);
        assert_eq!(w2.finish(), bytes, "snapshot→load→snapshot stable");
    }

    #[test]
    fn snapshot_rejects_dangling_index() {
        use simcore::snap::{SnapError, SnapReader, SnapWriter};
        let mut w = SnapWriter::new();
        w.section("table");
        Some(Schema::new("t", &["x"]).index_on("x")).save(&mut w);
        w.usize(0); // no rows …
        w.usize(1);
        w.str("x");
        w.usize(1);
        Value::Int(1).save(&mut w);
        vec![5u64].save(&mut w); // … but the index names row 5
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        match Table::load(&mut r) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("missing row"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn cross_table_isolation() {
        let mut db = Database::new();
        db.create_table(Schema::new("a", &["x"]).index_on("x"))
            .expect("fresh");
        db.create_table(Schema::new("b", &["x"]).index_on("x"))
            .expect("fresh");
        db.insert("a", 1, vec![Value::Int(5)]).expect("insert");
        let (rows, _) = db
            .select_eq("b", "x", &Value::Int(5), 0, 10)
            .expect("query");
        assert!(rows.is_empty(), "tables must not leak into each other");
    }
}
