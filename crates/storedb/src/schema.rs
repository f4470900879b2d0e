//! Table schemas.

use serde::{Deserialize, Serialize};

/// A table definition: name, column names, and which columns carry
/// secondary indexes. Every table has an implicit `u64` primary key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    name: String,
    columns: Vec<String>,
    indexed: Vec<String>,
}

impl Schema {
    /// Creates a schema.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or contains duplicates.
    pub fn new(name: &str, columns: &[&str]) -> Schema {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let mut seen = simcore::DetHashSet::default();
        for c in columns {
            assert!(seen.insert(*c), "duplicate column {c:?}");
        }
        Schema {
            name: name.to_owned(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            indexed: Vec::new(),
        }
    }

    /// Adds a secondary index on `column` (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist or is already indexed.
    pub fn index_on(mut self, column: &str) -> Schema {
        assert!(
            self.columns.iter().any(|c| c == column),
            "cannot index unknown column {column:?}"
        );
        assert!(
            !self.indexed.iter().any(|c| c == column),
            "column {column:?} is already indexed"
        );
        self.indexed.push(column.to_owned());
        self
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column names in declaration order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Indexed column names.
    pub fn indexed(&self) -> &[String] {
        &self.indexed
    }

    /// The position of `column`, if it exists.
    pub fn column_index(&self, column: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == column)
    }
}

use simcore::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for Schema {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            name,
            columns,
            indexed,
        } = self;
        w.str(name);
        columns.save(w);
        indexed.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let name = r.str()?;
        let columns = Vec::<String>::load(r)?;
        let indexed = Vec::<String>::load(r)?;
        if columns.is_empty() {
            return Err(SnapError::Corrupt(format!("table {name:?} has no columns")));
        }
        if indexed.iter().any(|c| !columns.contains(c)) {
            return Err(SnapError::Corrupt(format!(
                "table {name:?} indexes a column it does not have"
            )));
        }
        Ok(Schema {
            name,
            columns,
            indexed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_looks_up() {
        let s = Schema::new("t", &["a", "b"]).index_on("b");
        assert_eq!(s.name(), "t");
        assert_eq!(s.columns().len(), 2);
        assert_eq!(s.column_index("b"), Some(1));
        assert_eq!(s.column_index("z"), None);
        assert_eq!(s.indexed(), ["b".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::new("t", &["a", "a"]);
    }

    #[test]
    #[should_panic(expected = "unknown column")]
    fn indexing_unknown_column_rejected() {
        Schema::new("t", &["a"]).index_on("b");
    }
}
