//! The database facade.
//!
//! Holds a handle to the (possibly shared) string dictionary, owns tables
//! and indexes, and exposes the public API: DDL
//! ([`Database::create_table`], `create_*_index`), inserts, and
//! [`Database::query`] for the SQL subset.

use std::sync::atomic::{AtomicUsize, Ordering};

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::pool::Pool;
use raptor_storage::{EntityClass, StoreStats, ValueColumn};

use crate::exec::{execute, ExecStats};
use crate::index::{BTreeIndex, HashIndex, TrigramIndex};
use crate::like::{containment_literal, like_match};
use crate::plan::{plan_select, SchemaProvider};
use crate::schema::TableSchema;
use crate::sql::parse_select;
use crate::table::Table;
use crate::value::Value;

/// A value being inserted (strings are interned on the way in).
#[derive(Clone, Copy, Debug)]
pub enum Ins<'a> {
    Int(i64),
    Str(&'a str),
    Null,
}

/// A query result: projected column names, typed shared-plane **columns**,
/// and execution counters. Strings stay interned — `rendered_rows` (or the
/// engine's edge) resolves them through the carried dictionary handle.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub columns: Vec<String>,
    /// One [`ValueColumn`] per projected column (column-major; rows are
    /// materialized only on demand via [`QueryResult::rows`]).
    pub cols: Vec<ValueColumn>,
    pub stats: ExecStats,
    /// The dictionary plane `cols`' symbols resolve through.
    pub dict: SharedDict,
}

impl QueryResult {
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    /// One row, materialized on demand.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// All rows, materialized row-major (tests and edge consumers).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows()).map(|i| self.row(i)).collect()
    }

    /// Renders rows as display strings (column order preserved).
    pub fn rendered_rows(&self) -> Vec<Vec<String>> {
        (0..self.n_rows())
            .map(|i| self.cols.iter().map(|c| c.render(i, &self.dict)).collect())
            .collect()
    }
}

/// The embedded relational database.
pub struct Database {
    dict: SharedDict,
    tables: FxHashMap<String, Table>,
    hash_indexes: FxHashMap<(String, String), HashIndex>,
    btree_indexes: FxHashMap<(String, String), BTreeIndex>,
    trigram_indexes: FxHashMap<(String, String), TrigramIndex>,
    /// SQL texts parsed over this database's lifetime. The typed
    /// `StorageBackend` entry points never touch this — tests assert it.
    /// Atomic (not `Cell`) so the database stays `Sync` on the query path:
    /// the parallel execution plane shares `&Database` across workers.
    text_parses: AtomicUsize,
    /// Worker pool for partitioned scans and parallel hash-join probes
    /// (see `exec`). One thread ⇒ the exact sequential code paths.
    pool: Pool,
    /// Data statistics, maintained incrementally by [`Database::insert`]
    /// (every write path funnels through it). The only copy the system
    /// keeps: the planner's index selection, the engine's cardinality
    /// estimator and the checkpoint's catalog digest all read it.
    stats: StoreStats,
}

/// Entity class whose rows live in `table`, for the audit schema's entity
/// tables (`None` for `events` and non-audit tables).
fn class_for_table(table: &str) -> Option<EntityClass> {
    match table {
        "files" => Some(EntityClass::File),
        "processes" => Some(EntityClass::Process),
        "netconns" => Some(EntityClass::NetConn),
        _ => None,
    }
}

impl SchemaProvider for Database {
    fn schema(&self, table: &str) -> Option<&TableSchema> {
        self.tables.get(table).map(|t| &t.schema)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::with_dict(SharedDict::new())
    }
}

impl Database {
    /// A database over its own private dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A database interning into `dict` — the shared dictionary plane. The
    /// engine hands one dictionary to both backends at `empty()`/`load()`
    /// time so equal strings compare as equal symbols across stores.
    pub fn with_dict(dict: SharedDict) -> Self {
        Database {
            stats: StoreStats::new(dict.clone()),
            dict,
            tables: FxHashMap::default(),
            hash_indexes: FxHashMap::default(),
            btree_indexes: FxHashMap::default(),
            trigram_indexes: FxHashMap::default(),
            text_parses: AtomicUsize::new(0),
            pool: Pool::default(),
        }
    }

    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// The worker pool query execution parallelizes on (scan filtering and
    /// hash-join probes). Defaults to `RAPTOR_THREADS` / available
    /// parallelism; see [`Database::set_threads`].
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// Pins the query-execution worker count (1 ⇒ strictly sequential).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::with_threads(threads);
    }

    /// Re-segments every table to `rows`-row segments, rebuilding zone maps
    /// in one pass. Cell storage is capacity-independent (whole-table
    /// columnar vectors), so this is cheap and callable at any time —
    /// results are byte-identical at every capacity, only scan granularity
    /// (and [`ExecStats`] segment counters) changes.
    pub fn set_segment_rows(&mut self, rows: usize) {
        for t in self.tables.values_mut() {
            t.set_segment_rows(rows);
        }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    pub(crate) fn hash_index(&self, table: &str, col: &str) -> Option<&HashIndex> {
        self.hash_indexes.get(&(table.to_string(), col.to_string()))
    }

    pub(crate) fn btree_index(&self, table: &str, col: &str) -> Option<&BTreeIndex> {
        self.btree_indexes.get(&(table.to_string(), col.to_string()))
    }

    pub(crate) fn trigram_index(&self, table: &str, col: &str) -> Option<&TrigramIndex> {
        self.trigram_indexes.get(&(table.to_string(), col.to_string()))
    }

    /// The symbols of `table.col` matching the LIKE `pattern`, verified:
    /// the rarest trigram of the pattern's containment literal lists the
    /// candidates, and each is checked against the full pattern. The
    /// trigram index holds every symbol of the column, so the set is the
    /// column's whole matching domain. `None` unless the column carries
    /// both a trigram and a hash index (the pair that serves LIKE) and the
    /// pattern has a literal run of at least one trigram.
    pub fn like_symbols(&self, table: &str, col: &str, pattern: &str) -> Option<Vec<Sym>> {
        let lit = containment_literal(pattern)?;
        let tri = self.trigram_index(table, col)?;
        self.hash_index(table, col)?;
        let dict = &self.dict;
        Some(tri.candidates(lit, dict)?.filter(|&s| like_match(pattern, dict.resolve(s))).collect())
    }

    /// Creates an empty table.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::storage(format!("table `{}` already exists", schema.name)));
        }
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    fn check_col(&self, table: &str, col: &str) -> Result<usize> {
        let t = self
            .tables
            .get(table)
            .ok_or_else(|| Error::storage(format!("unknown table `{table}`")))?;
        t.schema.require_column(col)
    }

    /// Creates a hash (equality) index. Rows already present are indexed
    /// (one pass down the column vector).
    pub fn create_hash_index(&mut self, table: &str, col: &str) -> Result<()> {
        let ci = self.check_col(table, col)?;
        let t = &self.tables[table];
        let mut idx = HashIndex::default();
        for rid in 0..t.len() as u32 {
            idx.insert(t.cell(rid, ci), rid);
        }
        self.hash_indexes.insert((table.to_string(), col.to_string()), idx);
        Ok(())
    }

    /// Creates a B-tree (range) index over an integer/time column.
    pub fn create_btree_index(&mut self, table: &str, col: &str) -> Result<()> {
        let ci = self.check_col(table, col)?;
        let t = &self.tables[table];
        let mut idx = BTreeIndex::default();
        for rid in 0..t.len() as u32 {
            if let Value::Int(k) = t.cell(rid, ci) {
                idx.insert(k, rid);
            }
        }
        self.btree_indexes.insert((table.to_string(), col.to_string()), idx);
        Ok(())
    }

    /// Creates a trigram index over a string column (used together with a
    /// hash index on the same column to accelerate `LIKE '%lit%'`).
    pub fn create_trigram_index(&mut self, table: &str, col: &str) -> Result<()> {
        let ci = self.check_col(table, col)?;
        let t = &self.tables[table];
        let mut idx = TrigramIndex::default();
        for rid in 0..t.len() as u32 {
            if let Value::Str(s) = t.cell(rid, ci) {
                idx.add_sym(s, &self.dict);
            }
        }
        self.trigram_indexes.insert((table.to_string(), col.to_string()), idx);
        Ok(())
    }

    /// Inserts one row, maintaining all indexes on the table.
    pub fn insert(&mut self, table: &str, row: &[Ins<'_>]) -> Result<()> {
        let values: Vec<Value> = row
            .iter()
            .map(|v| match v {
                Ins::Int(i) => Value::Int(*i),
                Ins::Str(s) => Value::Str(self.dict.intern(s)),
                Ins::Null => Value::Null,
            })
            .collect();
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::storage(format!("unknown table `{table}`")))?;
        let rid = t.insert(&values)?;
        let schema = t.schema.clone();
        // Maintain data statistics (row/column counts, degree summaries)
        // alongside the indexes — every write path funnels through here, so
        // bulk load and streaming ingest produce identical stats. String
        // values are recorded by their freshly interned symbols, so the
        // frequency maps key on the shared dictionary plane.
        {
            let ts = self.stats.table_mut(table);
            ts.record_row();
            for (ci, cdef) in schema.columns.iter().enumerate() {
                match values[ci] {
                    Value::Int(i) => ts.record_int(&cdef.name, i),
                    Value::Str(s) => ts.record_sym(&cdef.name, s),
                    Value::Null => {}
                }
            }
            let int_col = |name: &str| -> Option<i64> {
                schema.column_index(name).and_then(|ci| match row[ci] {
                    Ins::Int(i) => Some(i),
                    _ => None,
                })
            };
            if let Some(class) = class_for_table(table) {
                if let Some(id) = int_col("id") {
                    self.stats.record_node(class, id);
                }
            } else if table == "events" {
                if let (Some(s), Some(o)) = (int_col("subject"), int_col("object")) {
                    let op = schema.column_index("optype").and_then(|ci| match values[ci] {
                        Value::Str(sym) => Some(sym),
                        _ => None,
                    });
                    self.stats.record_edge(s, o, op);
                }
            }
        }
        for (ci, cdef) in schema.columns.iter().enumerate() {
            let key = (table.to_string(), cdef.name.clone());
            if let Some(idx) = self.hash_indexes.get_mut(&key) {
                idx.insert(values[ci], rid);
            }
            if let Some(idx) = self.btree_indexes.get_mut(&key) {
                if let Value::Int(k) = values[ci] {
                    idx.insert(k, rid);
                }
            }
            if let Some(idx) = self.trigram_indexes.get_mut(&key) {
                if let Value::Str(s) = values[ci] {
                    idx.add_sym(s, &self.dict);
                }
            }
        }
        Ok(())
    }

    /// Parses, plans and executes a SELECT.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.text_parses.fetch_add(1, Ordering::Relaxed);
        let sel = parse_select(sql)?;
        let plan = plan_select(self, &sel)?;
        let (core, stats) = execute(self, &plan)?;
        Ok(QueryResult { columns: core.columns, cols: core.cols, stats, dict: self.dict.clone() })
    }

    /// How many SQL texts this database has parsed (the typed backend path
    /// keeps this flat).
    pub fn text_parse_count(&self) -> usize {
        self.text_parses.load(Ordering::Relaxed)
    }

    /// The incrementally-maintained data statistics and path catalog. The
    /// planner consults these for index selection; the engine's cost-based
    /// scheduler for pattern ordering.
    pub fn store_stats(&self) -> &StoreStats {
        &self.stats
    }

    /// Convenience: runs a `SELECT COUNT(*) ...` and returns the count.
    pub fn query_count(&self, sql: &str) -> Result<i64> {
        let r = self.query(sql)?;
        r.cols
            .first()
            .filter(|c| !c.is_empty())
            .and_then(|c| c.get(0).as_int())
            .ok_or_else(|| Error::execution("query did not return a count"))
    }

    /// Total rows across all tables (for stats displays).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn db_with_audit_shape() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "processes",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("pid", ColumnType::Int),
                ColumnDef::new("exename", ColumnType::Str),
            ],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "files",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        db.create_table(TableSchema::new(
            "events",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("subject", ColumnType::Int),
                ColumnDef::new("object", ColumnType::Int),
                ColumnDef::new("optype", ColumnType::Str),
                ColumnDef::new("starttime", ColumnType::Time),
            ],
        ))
        .unwrap();
        // Entities.
        db.insert("processes", &[Ins::Int(0), Ins::Int(100), Ins::Str("/bin/tar")]).unwrap();
        db.insert("processes", &[Ins::Int(1), Ins::Int(101), Ins::Str("/bin/bzip2")]).unwrap();
        db.insert("processes", &[Ins::Int(2), Ins::Int(102), Ins::Str("/usr/bin/curl")]).unwrap();
        db.insert("files", &[Ins::Int(3), Ins::Str("/etc/passwd")]).unwrap();
        db.insert("files", &[Ins::Int(4), Ins::Str("/tmp/upload.tar")]).unwrap();
        // tar reads /etc/passwd, writes /tmp/upload.tar; bzip2 reads it.
        db.insert(
            "events",
            &[Ins::Int(0), Ins::Int(0), Ins::Int(3), Ins::Str("read"), Ins::Int(100)],
        )
        .unwrap();
        db.insert(
            "events",
            &[Ins::Int(1), Ins::Int(0), Ins::Int(4), Ins::Str("write"), Ins::Int(200)],
        )
        .unwrap();
        db.insert(
            "events",
            &[Ins::Int(2), Ins::Int(1), Ins::Int(4), Ins::Str("read"), Ins::Int(300)],
        )
        .unwrap();
        db
    }

    #[test]
    fn single_table_filter() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT exename FROM processes WHERE exename LIKE '%tar%'").unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(r.rendered_rows()[0][0], "/bin/tar");
    }

    #[test]
    fn three_way_join_event_pattern() {
        let db = db_with_audit_shape();
        let r = db
            .query(
                "SELECT p.exename, f.name FROM processes p, events e, files f \
                 WHERE e.subject = p.id AND e.object = f.id AND e.optype = 'read' \
                 AND p.exename LIKE '%/bin/tar%'",
            )
            .unwrap();
        assert_eq!(
            r.rendered_rows(),
            vec![vec!["/bin/tar".to_string(), "/etc/passwd".to_string()]]
        );
    }

    #[test]
    fn temporal_residual_between_event_copies() {
        let db = db_with_audit_shape();
        // tar's read happens before tar's write: self-join on events.
        let r = db
            .query(
                "SELECT e1.id, e2.id FROM events e1, events e2 \
                 WHERE e1.subject = e2.subject AND e1.optype = 'read' \
                 AND e2.optype = 'write' AND e1.starttime < e2.starttime",
            )
            .unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(r.row(0)[0], Value::Int(0));
        assert_eq!(r.row(0)[1], Value::Int(1));
    }

    #[test]
    fn distinct_order_limit() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT DISTINCT optype FROM events ORDER BY optype LIMIT 2").unwrap();
        assert_eq!(r.rendered_rows(), vec![vec!["read".to_string()], vec!["write".to_string()]]);
    }

    /// Pins the satellite contract on `Value` ordering: symbols order by
    /// dictionary *content*, never by handle id — so ORDER BY (and any
    /// `sorted_rows()`-style consumer) cannot silently change with interner
    /// insertion order.
    #[test]
    fn order_by_is_interner_insertion_order_independent() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            vec![ColumnDef::new("id", ColumnType::Int), ColumnDef::new("name", ColumnType::Str)],
        ))
        .unwrap();
        // Insert in *reverse* lexicographic order: handle ids invert string
        // order by construction.
        for (id, name) in [(0, "zeta"), (1, "mid"), (2, "alpha")] {
            db.insert("t", &[Ins::Int(id), Ins::Str(name)]).unwrap();
        }
        let zeta = db.dict().get("zeta").unwrap();
        let alpha = db.dict().get("alpha").unwrap();
        assert!(zeta < alpha, "handles inverted by construction");
        let r = db.query("SELECT name FROM t ORDER BY name").unwrap();
        assert_eq!(r.rendered_rows(), vec![vec!["alpha"], vec!["mid"], vec!["zeta"]]);
    }

    #[test]
    fn count_star() {
        let db = db_with_audit_shape();
        assert_eq!(db.query_count("SELECT COUNT(*) FROM events").unwrap(), 3);
        assert_eq!(db.query_count("SELECT COUNT(*) FROM events WHERE optype = 'read'").unwrap(), 2);
    }

    #[test]
    fn indexes_accelerate_without_changing_results() {
        let mut db = db_with_audit_shape();
        let slow = db.query("SELECT id FROM events WHERE optype = 'read'").unwrap();
        assert_eq!(slow.stats.full_scans, 1);
        db.create_hash_index("events", "optype").unwrap();
        let fast = db.query("SELECT id FROM events WHERE optype = 'read'").unwrap();
        assert_eq!(fast.stats.index_scans, 1);
        assert_eq!(slow.rows(), fast.rows());
    }

    #[test]
    fn trigram_like_acceleration() {
        let mut db = db_with_audit_shape();
        db.create_hash_index("processes", "exename").unwrap();
        db.create_trigram_index("processes", "exename").unwrap();
        let r = db.query("SELECT id FROM processes WHERE exename LIKE '%curl%'").unwrap();
        assert_eq!(r.stats.index_scans, 1);
        assert_eq!(r.rows(), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn btree_range_acceleration() {
        let mut db = db_with_audit_shape();
        db.create_btree_index("events", "starttime").unwrap();
        let r = db.query("SELECT id FROM events WHERE starttime >= 200").unwrap();
        assert_eq!(r.stats.index_scans, 1);
        assert_eq!(r.n_rows(), 2);
    }

    #[test]
    fn in_list_filter() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT exename FROM processes WHERE id IN (0, 2)").unwrap();
        assert_eq!(r.n_rows(), 2);
        let r = db
            .query("SELECT exename FROM processes WHERE exename IN ('/bin/tar', 'missing')")
            .unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn unknown_string_literal_matches_nothing() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT id FROM processes WHERE exename = '/bin/nonexistent'").unwrap();
        assert_eq!(r.n_rows(), 0);
        // ...but != matches everything.
        let r = db.query("SELECT id FROM processes WHERE exename != '/bin/nonexistent'").unwrap();
        assert_eq!(r.n_rows(), 3);
    }

    #[test]
    fn or_and_not_combinations() {
        let db = db_with_audit_shape();
        let r = db
            .query(
                "SELECT id FROM events WHERE optype = 'write' OR (optype = 'read' AND starttime >= 300)",
            )
            .unwrap();
        assert_eq!(r.n_rows(), 2);
        let r = db.query("SELECT id FROM events WHERE NOT optype = 'read'").unwrap();
        assert_eq!(r.n_rows(), 1);
        let r = db.query("SELECT id FROM events WHERE optype NOT IN ('read')").unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn cartesian_join_without_equi_key() {
        let db = db_with_audit_shape();
        let r = db.query("SELECT p.id, f.id FROM processes p, files f").unwrap();
        assert_eq!(r.n_rows(), 6);
    }

    #[test]
    fn ddl_errors() {
        let mut db = db_with_audit_shape();
        assert!(db
            .create_table(TableSchema::new("events", vec![]))
            .unwrap_err()
            .to_string()
            .contains("already exists"));
        assert!(db.create_hash_index("nope", "x").is_err());
        assert!(db.create_hash_index("events", "nope").is_err());
        assert!(db.insert("nope", &[]).is_err());
        assert!(db.insert("files", &[Ins::Int(0)]).is_err());
    }
}
