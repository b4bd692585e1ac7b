//! Query execution.
//!
//! Pipeline: per-alias **scan** (access-path selection + vectorized filter)
//! → left-deep **joins** in FROM order (hash join when an equi conjunct
//! links the new alias to bound ones, nested-loop otherwise; residual
//! conjuncts apply as soon as their aliases are bound) → projection →
//! DISTINCT → ORDER BY → LIMIT.
//!
//! Scans pick the cheapest applicable access path per pushed-down conjunct:
//! hash-index point/IN lookups, B-tree ranges for integer comparisons,
//! trigram candidates for `LIKE`. Every path re-verifies the full
//! predicate, so index choice is purely a performance decision.
//!
//! **LIKE** conjuncts are matched against the column's dictionary once per
//! scan: the pattern's longest literal run picks the rarest trigram's
//! posting list, each listed symbol is verified by substring search and
//! then by the full pattern, and that one verified symbol set both prices
//! the conjunct (summed tracked frequencies, exactly what
//! `ColumnStats::like_fraction` would compute) and, if chosen, fans out to
//! rows through the hash index.
//!
//! **Vectorized scans** (the columnar storage plane): a pushed-down
//! predicate is compiled once per scan into a `ScanPred` — `IN` lists
//! become hash sets, literals bind to dictionary handles, type mismatches
//! fold to constants — and a full scan walks the table segment by segment.
//! Each segment is first tested against its [zone maps](crate::table::ZoneMap)
//! (`zone_may_match`: min/max/null-count refutation, counted in
//! [`ExecStats::segments_pruned`] without touching a row), and surviving
//! segments evaluate the predicate as tight mask loops over contiguous
//! column slices (`segment_select`), emitting an ascending **selection
//! vector** of row ids. Joins, projection and `ResultBatch` construction
//! consume selection vectors; rows are never materialized inside the scan.
//!
//! **Parallelism** (the parallel execution plane): full scans are
//! partitioned over segment ranges, index-candidate re-verification over
//! row-chunk ranges, and the probe side of every hash join over tuple
//! ranges, all through the database's [`Pool`](raptor_common::pool::Pool).
//! Partition outputs are concatenated in partition order (counters absorbed
//! in segment order), so row order, result rows and every [`ExecStats`]
//! counter are byte-identical to the sequential execution at any thread
//! count; a one-thread pool takes the exact sequential code path.

use raptor_common::error::{Error, Result};
use raptor_common::hash::{FxHashMap, FxHashSet};
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::obs;

use crate::db::Database;
use crate::like::like_match;
use crate::plan::{QueryPlan, ScanPlan};
use crate::sql::ast::{CmpOp, ColRef, Expr, Literal, Projection};
use crate::table::{RowId, Table};
use crate::value::Value;
use raptor_storage::ValueColumn;

/// Candidate rows below which a scan's predicate re-verification is not
/// worth partitioning (per-row evaluation is tens of nanoseconds; spawning
/// scoped workers costs tens of microseconds). Full scans partition over
/// segment ranges instead, with the same row floor per task.
const PAR_MIN_FILTER_ROWS: usize = 4096;

/// Probe-side tuples below which a hash join probe stays sequential (each
/// probed tuple does a key build, a hash lookup and per-match clones —
/// heavier than a filter row, so the bar is lower).
const PAR_MIN_PROBE_TUPLES: usize = 1024;

/// Execution counters, surfaced for benchmarks and ablations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows touched by scans (before residual filtering). Rows inside
    /// zone-pruned segments are never touched and never counted.
    pub rows_scanned: usize,
    /// Tuples materialized across all join steps.
    pub tuples_built: usize,
    /// Scans that used an index access path.
    pub index_scans: usize,
    /// Scans that fell back to a full table scan.
    pub full_scans: usize,
    /// Segments whose rows a full scan actually evaluated.
    pub segments_scanned: usize,
    /// Segments refuted wholesale by their zone maps (no row touched).
    pub segments_pruned: usize,
}

/// A bound column: (alias slot, column index).
#[derive(Clone, Copy, Debug)]
struct Slot {
    alias: usize,
    col: usize,
}

/// Expression with names resolved to slots; string literals are bound to
/// their dictionary handles so per-row equality is an integer compare.
#[derive(Clone, Debug)]
enum BExpr {
    CmpLit { slot: Slot, op: CmpOp, lit: BLit },
    CmpCol { left: Slot, op: CmpOp, right: Slot },
    Like { slot: Slot, pattern: String, negated: bool },
    InList { slot: Slot, set: Vec<BLit>, negated: bool },
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

#[derive(Clone, Debug)]
enum BLit {
    Int(i64),
    /// An interned string literal: equality against a row cell is a handle
    /// compare; ordered comparisons resolve both sides. Typed requests
    /// arrive with the handle pre-bound (`Literal::Interned`), parsed text
    /// literals bind through one dictionary lookup here.
    Sym(Sym),
    /// A parsed string literal absent from the dictionary: no row can equal
    /// it; ordered comparisons fall back to the raw text.
    Raw(Box<str>),
}

struct Binder<'a> {
    /// alias → slot index
    slots: FxHashMap<&'a str, usize>,
    /// slot → table
    tables: &'a [&'a Table],
    dict: &'a SharedDict,
}

impl<'a> Binder<'a> {
    fn bind_col(&self, c: &ColRef) -> Result<Slot> {
        let q = c.qualifier.as_deref().ok_or_else(|| {
            Error::semantic(format!("internal: unresolved column `{}`", c.column))
        })?;
        let &alias =
            self.slots.get(q).ok_or_else(|| Error::semantic(format!("unknown alias `{q}`")))?;
        let col = self.tables[alias].schema.require_column(&c.column)?;
        Ok(Slot { alias, col })
    }

    fn bind_lit(&self, l: &Literal) -> BLit {
        match l {
            Literal::Int(i) => BLit::Int(*i),
            Literal::Str(s) => match self.dict.get(s) {
                Some(sym) => BLit::Sym(sym),
                None => BLit::Raw(s.as_str().into()),
            },
            Literal::Interned(sym) => BLit::Sym(*sym),
        }
    }

    fn bind(&self, e: &Expr) -> Result<BExpr> {
        Ok(match e {
            Expr::CmpLit { col, op, lit } => {
                BExpr::CmpLit { slot: self.bind_col(col)?, op: *op, lit: self.bind_lit(lit) }
            }
            Expr::CmpCol { left, op, right } => {
                BExpr::CmpCol { left: self.bind_col(left)?, op: *op, right: self.bind_col(right)? }
            }
            Expr::Like { col, pattern, negated } => BExpr::Like {
                slot: self.bind_col(col)?,
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::InList { col, list, negated } => BExpr::InList {
                slot: self.bind_col(col)?,
                set: list.iter().map(|l| self.bind_lit(l)).collect(),
                negated: *negated,
            },
            Expr::And(a, b) => BExpr::And(Box::new(self.bind(a)?), Box::new(self.bind(b)?)),
            Expr::Or(a, b) => BExpr::Or(Box::new(self.bind(a)?), Box::new(self.bind(b)?)),
            Expr::Not(inner) => BExpr::Not(Box::new(self.bind(inner)?)),
        })
    }
}

fn cmp_values(v: Value, op: CmpOp, lit: &BLit, dict: &SharedDict) -> bool {
    use std::cmp::Ordering::*;
    let ord = match (v, lit) {
        (Value::Int(a), BLit::Int(b)) => a.cmp(b),
        (Value::Str(s), BLit::Sym(l)) => {
            // Fast path: equality is a dictionary-handle compare.
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                let eq = s == *l;
                return if matches!(op, CmpOp::Eq) { eq } else { !eq };
            }
            dict.resolve(s).cmp(dict.resolve(*l))
        }
        (Value::Str(s), BLit::Raw(raw)) => {
            // Literal not in the dictionary ⇒ no row equals it.
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                return matches!(op, CmpOp::Ne);
            }
            dict.resolve(s).cmp(raw.as_ref())
        }
        // Type mismatch or NULL: no comparison holds (SQL-ish semantics).
        _ => return false,
    };
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

fn eval(e: &BExpr, tuple: &[RowId], tables: &[&Table], dict: &SharedDict) -> bool {
    match e {
        BExpr::CmpLit { slot, op, lit } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            cmp_values(v, *op, lit, dict)
        }
        BExpr::CmpCol { left, op, right } => {
            let a = tables[left.alias].cell(tuple[left.alias], left.col);
            let b = tables[right.alias].cell(tuple[right.alias], right.col);
            if a.is_null() || b.is_null() {
                return false;
            }
            let ord = a.cmp_with(b, dict);
            match op {
                CmpOp::Eq => ord == std::cmp::Ordering::Equal,
                CmpOp::Ne => ord != std::cmp::Ordering::Equal,
                CmpOp::Lt => ord == std::cmp::Ordering::Less,
                CmpOp::Le => ord != std::cmp::Ordering::Greater,
                CmpOp::Gt => ord == std::cmp::Ordering::Greater,
                CmpOp::Ge => ord != std::cmp::Ordering::Less,
            }
        }
        BExpr::Like { slot, pattern, negated } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            let m = match v {
                Value::Str(s) => like_match(pattern, dict.resolve(s)),
                _ => false,
            };
            m != *negated
        }
        BExpr::InList { slot, set, negated } => {
            let v = tables[slot.alias].cell(tuple[slot.alias], slot.col);
            let m = set.iter().any(|l| cmp_values(v, CmpOp::Eq, l, dict));
            m != *negated
        }
        BExpr::And(a, b) => eval(a, tuple, tables, dict) && eval(b, tuple, tables, dict),
        BExpr::Or(a, b) => eval(a, tuple, tables, dict) || eval(b, tuple, tables, dict),
        BExpr::Not(inner) => !eval(inner, tuple, tables, dict),
    }
}

fn ord_ok(ord: std::cmp::Ordering, op: CmpOp) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }
}

/// A pushed-down scan predicate compiled for vectorized evaluation over one
/// table's column slices. Compilation happens once per scan: `IN` lists
/// become hash sets (the per-row membership test is O(1) instead of a
/// linear literal sweep), string literals stay dictionary handles, and
/// shapes that can never match the column's declared type fold to
/// [`ScanPred::Const`]. Semantics are exactly those of the row-at-a-time
/// [`eval`] over a single-alias tuple — the equivalence suites pin this.
enum ScanPred {
    /// `Int`/`Time` column vs integer literal.
    CmpInt {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    /// `Str` column vs interned literal (equality is a handle compare;
    /// ordered ops resolve through the dictionary).
    CmpSym {
        col: usize,
        op: CmpOp,
        lit: Sym,
    },
    /// `Str` column ordered-compared against a dictionary-miss literal.
    CmpRaw {
        col: usize,
        op: CmpOp,
        raw: Box<str>,
    },
    /// Same-alias column/column compare.
    CmpCols {
        left: usize,
        op: CmpOp,
        right: usize,
    },
    /// Matches exactly the non-NULL cells (`!=` against a dictionary-miss
    /// literal: every present string differs from it).
    NotNull {
        col: usize,
    },
    Like {
        col: usize,
        pattern: String,
        negated: bool,
    },
    /// `Int`/`Time` column membership; `extent` pre-computes the set's
    /// min/max for zone refutation.
    InInts {
        col: usize,
        set: FxHashSet<i64>,
        extent: (i64, i64),
        negated: bool,
    },
    /// `Str` column membership over interned handles.
    InSyms {
        col: usize,
        set: FxHashSet<Sym>,
        negated: bool,
    },
    /// Decided at compile time (type mismatches, empty `IN` sets, equality
    /// against literals absent from the dictionary).
    Const(bool),
    And(Box<ScanPred>, Box<ScanPred>),
    Or(Box<ScanPred>, Box<ScanPred>),
    Not(Box<ScanPred>),
}

/// Compiles a bound single-alias predicate for `table`. `e` must only
/// reference alias slot 0 (the scan's own alias — guaranteed by predicate
/// pushdown).
fn compile_scan_pred(e: &BExpr, table: &Table) -> ScanPred {
    match e {
        BExpr::CmpLit { slot, op, lit } => {
            let col = slot.col;
            if table.col_is_int(col) {
                match lit {
                    BLit::Int(i) => ScanPred::CmpInt { col, op: *op, lit: *i },
                    // Type mismatch: no comparison holds (SQL-ish).
                    BLit::Sym(_) | BLit::Raw(_) => ScanPred::Const(false),
                }
            } else {
                match lit {
                    BLit::Sym(s) => ScanPred::CmpSym { col, op: *op, lit: *s },
                    BLit::Int(_) => ScanPred::Const(false),
                    BLit::Raw(raw) => match op {
                        // No row equals a literal absent from the dictionary.
                        CmpOp::Eq => ScanPred::Const(false),
                        // ...and every present string differs from it.
                        CmpOp::Ne => ScanPred::NotNull { col },
                        _ => ScanPred::CmpRaw { col, op: *op, raw: raw.clone() },
                    },
                }
            }
        }
        BExpr::CmpCol { left, op, right } => {
            ScanPred::CmpCols { left: left.col, op: *op, right: right.col }
        }
        BExpr::Like { slot, pattern, negated } => {
            if table.col_is_int(slot.col) {
                // A non-string cell never LIKE-matches; NOT LIKE matches all.
                ScanPred::Const(*negated)
            } else {
                ScanPred::Like { col: slot.col, pattern: pattern.clone(), negated: *negated }
            }
        }
        BExpr::InList { slot, set, negated } => {
            let col = slot.col;
            if table.col_is_int(col) {
                let ints: FxHashSet<i64> = set
                    .iter()
                    .filter_map(|l| match l {
                        BLit::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if ints.is_empty() {
                    // Nothing can match ⇒ `IN` is false, `NOT IN` true.
                    return ScanPred::Const(*negated);
                }
                let extent = (
                    ints.iter().copied().min().expect("non-empty"),
                    ints.iter().copied().max().expect("non-empty"),
                );
                ScanPred::InInts { col, set: ints, extent, negated: *negated }
            } else {
                let syms: FxHashSet<Sym> = set
                    .iter()
                    .filter_map(|l| match l {
                        BLit::Sym(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                if syms.is_empty() {
                    return ScanPred::Const(*negated);
                }
                ScanPred::InSyms { col, set: syms, negated: *negated }
            }
        }
        BExpr::And(a, b) => ScanPred::And(
            Box::new(compile_scan_pred(a, table)),
            Box::new(compile_scan_pred(b, table)),
        ),
        BExpr::Or(a, b) => ScanPred::Or(
            Box::new(compile_scan_pred(a, table)),
            Box::new(compile_scan_pred(b, table)),
        ),
        BExpr::Not(inner) => ScanPred::Not(Box::new(compile_scan_pred(inner, table))),
    }
}

/// Can segment `seg` contain a row satisfying `p`? Pure zone-map
/// refutation: exact min/max/null counts, so `false` is a proof (the
/// segment is skipped without touching a row); `true` is conservative.
fn zone_may_match(p: &ScanPred, table: &Table, seg: usize) -> bool {
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            let z = table.zone(*col, seg);
            let (Some(min), Some(max)) = (z.ints.min(), z.ints.max()) else {
                // Every cell NULL: no comparison holds.
                return false;
            };
            match op {
                CmpOp::Eq => *lit >= min && *lit <= max,
                // All non-null cells equal the literal ⇒ `!=` matches none.
                CmpOp::Ne => !(min == max && min == *lit),
                CmpOp::Lt => min < *lit,
                CmpOp::Le => min <= *lit,
                CmpOp::Gt => max > *lit,
                CmpOp::Ge => max >= *lit,
            }
        }
        // String shapes (and `NOT IN`/`NOT LIKE`, which NULL cells satisfy)
        // can only be refuted when the segment holds no eligible cell.
        ScanPred::CmpSym { col, .. }
        | ScanPred::CmpRaw { col, .. }
        | ScanPred::NotNull { col }
        | ScanPred::Like { col, negated: false, .. }
        | ScanPred::InSyms { col, negated: false, .. } => table.zone(*col, seg).non_null() > 0,
        ScanPred::InInts { col, extent, negated: false, .. } => {
            table.zone(*col, seg).ints.overlaps(extent.0, extent.1)
        }
        ScanPred::Like { negated: true, .. }
        | ScanPred::InSyms { negated: true, .. }
        | ScanPred::InInts { negated: true, .. } => true,
        ScanPred::CmpCols { .. } => true,
        ScanPred::Const(b) => *b,
        ScanPred::And(a, b) => zone_may_match(a, table, seg) && zone_may_match(b, table, seg),
        ScanPred::Or(a, b) => zone_may_match(a, table, seg) || zone_may_match(b, table, seg),
        // A refutation of `inner` says nothing about `NOT inner`'s rows.
        ScanPred::Not(_) => true,
    }
}

/// Tight-loop literal mask over one column slice: `f` per non-NULL cell,
/// `false` for NULL. The null branch vanishes on fully-dense columns.
#[inline]
fn lit_mask<T: Copy>(xs: &[T], nulls: Option<&[bool]>, f: impl Fn(T) -> bool) -> Vec<bool> {
    match nulls {
        None => xs.iter().map(|&v| f(v)).collect(),
        Some(ns) => xs.iter().zip(ns).map(|(&v, &n)| !n && f(v)).collect(),
    }
}

fn flip(mut mask: Vec<bool>) -> Vec<bool> {
    for b in &mut mask {
        *b = !*b;
    }
    mask
}

/// Evaluates `p` over the rows of `range` as a boolean mask (one lane per
/// row, in row order).
fn eval_mask(
    p: &ScanPred,
    table: &Table,
    range: &std::ops::Range<usize>,
    dict: &SharedDict,
) -> Vec<bool> {
    let n = range.len();
    let slice_nulls = |col: usize| -> Option<&[bool]> {
        table.col_has_nulls(col).then(|| &table.null_flags(col)[range.clone()])
    };
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            let xs = &table.int_cells(*col).expect("int column")[range.clone()];
            let ns = slice_nulls(*col);
            let lit = *lit;
            match op {
                CmpOp::Eq => lit_mask(xs, ns, |v| v == lit),
                CmpOp::Ne => lit_mask(xs, ns, |v| v != lit),
                CmpOp::Lt => lit_mask(xs, ns, |v| v < lit),
                CmpOp::Le => lit_mask(xs, ns, |v| v <= lit),
                CmpOp::Gt => lit_mask(xs, ns, |v| v > lit),
                CmpOp::Ge => lit_mask(xs, ns, |v| v >= lit),
            }
        }
        ScanPred::CmpSym { col, op, lit } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            match op {
                CmpOp::Eq => {
                    let lit = *lit;
                    lit_mask(xs, ns, |s| s == lit)
                }
                CmpOp::Ne => {
                    let lit = *lit;
                    lit_mask(xs, ns, |s| s != lit)
                }
                _ => {
                    let ls = dict.resolve(*lit);
                    lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(ls), *op))
                }
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            lit_mask(xs, ns, |s| ord_ok(dict.resolve(s).cmp(raw.as_ref()), *op))
        }
        ScanPred::NotNull { col } => match slice_nulls(*col) {
            None => vec![true; n],
            Some(ns) => ns.iter().map(|&b| !b).collect(),
        },
        ScanPred::Like { col, pattern, negated } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let ns = slice_nulls(*col);
            let m = lit_mask(xs, ns, |s| like_match(pattern, dict.resolve(s)));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::InInts { col, set, negated, .. } => {
            let xs = &table.int_cells(*col).expect("int column")[range.clone()];
            let m = lit_mask(xs, slice_nulls(*col), |v| set.contains(&v));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::InSyms { col, set, negated } => {
            let xs = &table.sym_cells(*col).expect("str column")[range.clone()];
            let m = lit_mask(xs, slice_nulls(*col), |s| set.contains(&s));
            if *negated {
                flip(m)
            } else {
                m
            }
        }
        ScanPred::CmpCols { left, op, right } => range
            .clone()
            .map(|i| {
                let a = table.cell(i as RowId, *left);
                let b = table.cell(i as RowId, *right);
                !a.is_null() && !b.is_null() && ord_ok(a.cmp_with(b, dict), *op)
            })
            .collect(),
        ScanPred::Const(b) => vec![*b; n],
        ScanPred::And(a, b) => {
            let mut m = eval_mask(a, table, range, dict);
            for (l, r) in m.iter_mut().zip(eval_mask(b, table, range, dict)) {
                *l = *l && r;
            }
            m
        }
        ScanPred::Or(a, b) => {
            let mut m = eval_mask(a, table, range, dict);
            for (l, r) in m.iter_mut().zip(eval_mask(b, table, range, dict)) {
                *l = *l || r;
            }
            m
        }
        ScanPred::Not(inner) => flip(eval_mask(inner, table, range, dict)),
    }
}

/// Evaluates `p` over one segment range, appending matching row ids (in
/// ascending row order) to the selection vector `out`.
fn segment_select(
    p: &ScanPred,
    table: &Table,
    range: std::ops::Range<usize>,
    dict: &SharedDict,
    out: &mut Vec<RowId>,
) {
    let start = range.start;
    let mask = eval_mask(p, table, &range, dict);
    for (i, &hit) in mask.iter().enumerate() {
        if hit {
            out.push((start + i) as RowId);
        }
    }
}

/// Row-at-a-time evaluation of a compiled scan predicate — the
/// index-candidate re-verification path, where rows arrive as scattered
/// candidate ids instead of contiguous segments. Same semantics as
/// [`eval_mask`], sharing the compiled `IN` hash sets.
fn test_row(p: &ScanPred, table: &Table, row: RowId, dict: &SharedDict) -> bool {
    let i = row as usize;
    let is_null = |col: usize| table.col_has_nulls(col) && table.null_flags(col)[i];
    match p {
        ScanPred::CmpInt { col, op, lit } => {
            !is_null(*col) && ord_ok(table.int_cells(*col).expect("int column")[i].cmp(lit), *op)
        }
        ScanPred::CmpSym { col, op, lit } => {
            if is_null(*col) {
                return false;
            }
            let s = table.sym_cells(*col).expect("str column")[i];
            match op {
                CmpOp::Eq => s == *lit,
                CmpOp::Ne => s != *lit,
                _ => ord_ok(dict.resolve(s).cmp(dict.resolve(*lit)), *op),
            }
        }
        ScanPred::CmpRaw { col, op, raw } => {
            !is_null(*col)
                && ord_ok(
                    dict.resolve(table.sym_cells(*col).expect("str column")[i]).cmp(raw.as_ref()),
                    *op,
                )
        }
        ScanPred::NotNull { col } => !is_null(*col),
        ScanPred::Like { col, pattern, negated } => {
            let m = !is_null(*col)
                && like_match(pattern, dict.resolve(table.sym_cells(*col).expect("str column")[i]));
            m != *negated
        }
        ScanPred::InInts { col, set, negated, .. } => {
            let m = !is_null(*col) && set.contains(&table.int_cells(*col).expect("int column")[i]);
            m != *negated
        }
        ScanPred::InSyms { col, set, negated } => {
            let m = !is_null(*col) && set.contains(&table.sym_cells(*col).expect("str column")[i]);
            m != *negated
        }
        ScanPred::CmpCols { left, op, right } => {
            let a = table.cell(row, *left);
            let b = table.cell(row, *right);
            !a.is_null() && !b.is_null() && ord_ok(a.cmp_with(b, dict), *op)
        }
        ScanPred::Const(b) => *b,
        ScanPred::And(a, b) => test_row(a, table, row, dict) && test_row(b, table, row, dict),
        ScanPred::Or(a, b) => test_row(a, table, row, dict) || test_row(b, table, row, dict),
        ScanPred::Not(inner) => !test_row(inner, table, row, dict),
    }
}

/// Chooses an index access path for one pushed-down conjunct, if possible.
/// Returns candidate row ids (a superset of matches among which the full
/// predicate is re-verified), or `None` if no index applies. `like` is the
/// conjunct's [`Database::like_symbols`].
fn access_path(
    db: &Database,
    scan: &ScanPlan,
    conjunct: &Expr,
    like: Option<&[Sym]>,
) -> Option<Vec<RowId>> {
    match conjunct {
        Expr::CmpLit { col, op: CmpOp::Eq, lit } => {
            let idx = db.hash_index(&scan.table, &col.column)?;
            let key = match lit {
                Literal::Int(i) => Value::Int(*i),
                // Typed requests arrive pre-interned: no dictionary lookup.
                Literal::Interned(sym) => Value::Str(*sym),
                // A string literal absent from the dictionary equals no row.
                Literal::Str(s) => match db.dict().get(s) {
                    Some(sym) => Value::Str(sym),
                    None => return Some(Vec::new()),
                },
            };
            Some(idx.get(key).to_vec())
        }
        Expr::InList { col, list, negated: false } => {
            let idx = db.hash_index(&scan.table, &col.column)?;
            let mut rows = Vec::new();
            for lit in list {
                let key = match lit {
                    Literal::Int(i) => Value::Int(*i),
                    Literal::Interned(sym) => Value::Str(*sym),
                    Literal::Str(s) => match db.dict().get(s) {
                        Some(sym) => Value::Str(sym),
                        None => continue,
                    },
                };
                rows.extend_from_slice(idx.get(key));
            }
            rows.sort_unstable();
            rows.dedup();
            Some(rows)
        }
        Expr::CmpLit { col, op, lit: Literal::Int(i) } => {
            let idx = db.btree_index(&scan.table, &col.column)?;
            let (lo, hi) = match op {
                CmpOp::Lt => (i64::MIN, i - 1),
                CmpOp::Le => (i64::MIN, *i),
                CmpOp::Gt => (i + 1, i64::MAX),
                CmpOp::Ge => (*i, i64::MAX),
                _ => return None,
            };
            Some(idx.range(lo, hi))
        }
        Expr::Like { col, negated: false, .. } => {
            // Fan the verified symbols out to rows (disjoint per symbol).
            let hash = db.hash_index(&scan.table, &col.column)?;
            let mut rows = Vec::new();
            for &sym in like? {
                rows.extend_from_slice(hash.get(Value::Str(sym)));
            }
            rows.sort_unstable();
            Some(rows)
        }
        _ => None,
    }
}

/// Estimated candidate-row count for one indexable conjunct, read from the
/// table's maintained statistics. `Some` exactly when an applicable index
/// exists for the conjunct's shape (mirrors [`access_path`]); the planner
/// materializes only the cheapest estimate instead of every path. `like`
/// is the conjunct's [`Database::like_symbols`].
fn conjunct_estimate(
    db: &Database,
    scan: &ScanPlan,
    ts: &raptor_storage::TableStats,
    conjunct: &Expr,
    like: Option<&[Sym]>,
) -> Option<f64> {
    let rows = ts.rows() as f64;
    // A column with no recorded non-null values matches no equality/range.
    let col_frac = |col: &ColRef, f: &dyn Fn(&raptor_storage::ColumnStats) -> f64| -> f64 {
        ts.column(&col.column).map_or(0.0, f)
    };
    // Equality fractions key the symbol-frequency maps directly; a parsed
    // literal does one dictionary lookup, a typed (pre-interned) one none.
    let eq_frac = |col: &ColRef, lit: &Literal| -> f64 {
        match lit {
            Literal::Int(i) => col_frac(col, &|c| c.eq_fraction_int(*i)),
            Literal::Interned(sym) => col_frac(col, &|c| c.eq_fraction_sym(*sym)),
            Literal::Str(s) => match db.dict().get(s) {
                Some(sym) => col_frac(col, &|c| c.eq_fraction_sym(sym)),
                None => 0.0,
            },
        }
    };
    match conjunct {
        Expr::CmpLit { col, op: CmpOp::Eq, lit } => {
            db.hash_index(&scan.table, &col.column)?;
            Some(eq_frac(col, lit) * rows)
        }
        Expr::InList { col, list, negated: false } => {
            db.hash_index(&scan.table, &col.column)?;
            let frac: f64 = list.iter().map(|lit| eq_frac(col, lit)).sum();
            Some(frac.min(1.0) * rows)
        }
        Expr::CmpLit { col, op, lit: Literal::Int(i) } => {
            if !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                return None;
            }
            db.btree_index(&scan.table, &col.column)?;
            Some(col_frac(col, &|c| c.cmp_fraction(storage_cmp(*op), *i)) * rows)
        }
        Expr::Like { col, negated: false, .. } => {
            let syms = like?;
            Some(col_frac(col, &|c| c.like_fraction_of(syms)) * rows)
        }
        _ => None,
    }
}

fn storage_cmp(op: CmpOp) -> raptor_storage::CmpOp {
    match op {
        CmpOp::Eq => raptor_storage::CmpOp::Eq,
        CmpOp::Ne => raptor_storage::CmpOp::Ne,
        CmpOp::Lt => raptor_storage::CmpOp::Lt,
        CmpOp::Le => raptor_storage::CmpOp::Le,
        CmpOp::Gt => raptor_storage::CmpOp::Gt,
        CmpOp::Ge => raptor_storage::CmpOp::Ge,
    }
}

/// Runs one scan: pick the most selective index path among the pushed-down
/// conjuncts, then re-verify the whole predicate.
///
/// Access-path choice is **statistics-driven**: per-conjunct candidate
/// counts are estimated from [`Database::store_stats`] and only the
/// cheapest path is materialized. (The seed behavior — materialize every
/// applicable path and keep the smallest — remains as the fallback when
/// stats carry no signal for the table.)
fn run_scan(db: &Database, scan: &ScanPlan, stats: &mut ExecStats) -> Result<Vec<RowId>> {
    let table = db
        .table(&scan.table)
        .ok_or_else(|| Error::storage(format!("unknown table `{}`", scan.table)))?;
    let tables = [table];
    let binder = Binder {
        slots: std::iter::once((scan.alias.as_str(), 0usize)).collect(),
        tables: &tables,
        dict: db.dict(),
    };

    let Some(pred) = &scan.predicate else {
        // Unfiltered scan: every segment is read, every row selected.
        stats.full_scans += 1;
        stats.segments_scanned += table.n_segments();
        stats.rows_scanned += table.len();
        return Ok((0..table.len() as RowId).collect());
    };

    // The predicate is compiled once per scan: hash-set `IN`s, handle-bound
    // string literals, constant-folded type mismatches — shared by both the
    // vectorized full scan and the index-candidate re-verification.
    let compiled = compile_scan_pred(&binder.bind(pred)?, table);
    let dict = db.dict();

    let conjuncts = pred.clone().conjuncts();
    // Each LIKE conjunct's verified symbol set, computed once: it prices
    // the conjunct and, if chosen, is its access path.
    let likes: Vec<Option<Vec<Sym>>> = conjuncts
        .iter()
        .map(|c| match c {
            Expr::Like { col, pattern, negated: false } => {
                db.like_symbols(&scan.table, &col.column, pattern)
            }
            _ => None,
        })
        .collect();
    let path = |i: usize| access_path(db, scan, &conjuncts[i], likes[i].as_deref());
    let cheapest = db.store_stats().table(&scan.table).and_then(|ts| {
        conjuncts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                conjunct_estimate(db, scan, ts, c, likes[i].as_deref()).map(|e| (i, e))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    });
    let best = match cheapest.and_then(|(i, _)| path(i)) {
        Some(rows) => Some(rows),
        None => {
            // Fallback: try every conjunct, keep the smallest set.
            let mut best: Option<Vec<RowId>> = None;
            for i in 0..conjuncts.len() {
                if let Some(rows) = path(i) {
                    if best.as_ref().is_none_or(|b| rows.len() < b.len()) {
                        best = Some(rows);
                    }
                }
            }
            best
        }
    };

    if let Some(candidates) = best {
        // Index path: re-verify the full predicate over the candidates,
        // partitioned over row-chunk ranges; concatenating the partitions
        // in order reproduces the sequential row order exactly.
        stats.index_scans += 1;
        stats.rows_scanned += candidates.len();
        let parts = db.pool().run_partitioned(candidates.len(), PAR_MIN_FILTER_ROWS, |r| {
            candidates[r]
                .iter()
                .copied()
                .filter(|&row| test_row(&compiled, table, row, dict))
                .collect::<Vec<RowId>>()
        });
        return Ok(parts.concat());
    }

    // Vectorized full scan, partitioned over *segment* ranges: each task
    // zone-tests its segments, evaluates survivors as mask loops over the
    // contiguous column slices, and emits an ascending selection vector.
    // Partitions (and their counters) concatenate in segment order, so the
    // result is byte-identical to the sequential walk at any thread count.
    stats.full_scans += 1;
    let seg_rows = table.segment_rows();
    let min_segs = (PAR_MIN_FILTER_ROWS / seg_rows.max(1)).max(1);
    let parts = db.pool().run_partitioned(table.n_segments(), min_segs, |segs| {
        let mut sel: Vec<RowId> = Vec::new();
        let (mut scanned, mut pruned, mut rows) = (0usize, 0usize, 0usize);
        for seg in segs {
            if !zone_may_match(&compiled, table, seg) {
                pruned += 1;
                continue;
            }
            let range = table.segment_range(seg);
            scanned += 1;
            rows += range.len();
            segment_select(&compiled, table, range, dict, &mut sel);
        }
        (sel, scanned, pruned, rows)
    });
    let mut out = Vec::new();
    for (sel, scanned, pruned, rows) in parts {
        out.extend_from_slice(&sel);
        stats.segments_scanned += scanned;
        stats.segments_pruned += pruned;
        stats.rows_scanned += rows;
    }
    Ok(out)
}

/// An equi-join key extracted from a residual conjunct.
struct EquiKey {
    bound: Slot,
    new: Slot,
}

/// Flat join-tuple buffer: `len()` tuples of `nslots` [`RowId`]s each,
/// stored contiguously with stride `nslots`. The columnar analogue for
/// intermediate join state — extending a tuple is a small in-place copy
/// and residual filtering is an in-place compaction, with **zero per-tuple
/// heap allocations** (the row-major `Vec<Vec<RowId>>` it replaced paid
/// one allocation plus a clone per tuple, which dominated multi-million
/// tuple joins).
struct Tuples {
    nslots: usize,
    data: Vec<RowId>,
}

impl Tuples {
    fn new(nslots: usize) -> Self {
        Tuples { nslots, data: Vec::new() }
    }

    fn len(&self) -> usize {
        self.data.len().checked_div(self.nslots).unwrap_or(0)
    }

    fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn get(&self, i: usize) -> &[RowId] {
        &self.data[i * self.nslots..(i + 1) * self.nslots]
    }

    fn iter(&self) -> impl Iterator<Item = &[RowId]> {
        self.data.chunks_exact(self.nslots)
    }

    /// Appends a copy of `t` with `slot` rebound to `r`.
    fn push_extended(&mut self, t: &[RowId], slot: usize, r: RowId) {
        self.data.extend_from_slice(t);
        let n = self.data.len();
        self.data[n - self.nslots + slot] = r;
    }

    /// In-place compaction keeping tuples satisfying `keep`, preserving
    /// order (the flat-buffer analogue of `Vec::retain`).
    fn retain(&mut self, mut keep: impl FnMut(&[RowId]) -> bool) {
        let (n, w) = (self.nslots, &mut 0usize);
        for i in 0..self.data.len() / n.max(1) {
            if keep(&self.data[i * n..(i + 1) * n]) {
                self.data.copy_within(i * n..(i + 1) * n, *w * n);
                *w += 1;
            }
        }
        self.data.truncate(*w * n);
    }
}

/// Probes a hash join build table with every current tuple, extending
/// matching tuples with the new slot's row. The probe side is partitioned
/// over tuple ranges through the pool; each partition emits a flat tuple
/// chunk and chunks concatenate in partition order, so output tuple order
/// is byte-identical to the sequential probe.
fn probe_join<K, F>(
    pool: raptor_common::pool::Pool,
    tuples: &Tuples,
    slot: usize,
    build: &FxHashMap<K, Vec<RowId>>,
    key_of: F,
) -> Tuples
where
    K: Eq + std::hash::Hash + Sync,
    F: Fn(&[RowId]) -> K + Sync,
{
    let nslots = tuples.nslots;
    let parts = pool.run_partitioned(tuples.len(), PAR_MIN_PROBE_TUPLES, |range| {
        let mut out: Vec<RowId> = Vec::with_capacity(range.len() * nslots);
        for i in range {
            let t = tuples.get(i);
            if let Some(matches) = build.get(&key_of(t)) {
                for &r in matches {
                    out.extend_from_slice(t);
                    let n = out.len();
                    out[n - nslots + slot] = r;
                }
            }
        }
        out
    });
    Tuples { nslots, data: parts.concat() }
}

/// Executes a plan, returning projected rows.
pub fn execute(db: &Database, plan: &QueryPlan) -> Result<(QueryResultCore, ExecStats)> {
    let mut stats = ExecStats::default();
    let tables: Vec<&Table> = plan
        .scans
        .iter()
        .map(|s| {
            db.table(&s.table).ok_or_else(|| Error::storage(format!("unknown table `{}`", s.table)))
        })
        .collect::<Result<Vec<_>>>()?;
    let binder = Binder {
        slots: plan.scans.iter().enumerate().map(|(i, s)| (s.alias.as_str(), i)).collect(),
        tables: &tables,
        dict: db.dict(),
    };

    // Bind residuals once; track which are already applied.
    let residual_bound: Vec<(BExpr, Vec<usize>)> = plan
        .residuals
        .iter()
        .map(|r| {
            let b = binder.bind(r)?;
            let mut cols = Vec::new();
            r.collect_cols(&mut cols);
            let mut slots: Vec<usize> =
                cols.iter().map(|c| binder.slots[c.qualifier.as_deref().unwrap()]).collect();
            slots.sort_unstable();
            slots.dedup();
            Ok((b, slots))
        })
        .collect::<Result<Vec<_>>>()?;
    let mut residual_done = vec![false; residual_bound.len()];

    // Left-deep pipeline. Tuples hold one RowId per bound alias, and a
    // sentinel for not-yet-bound aliases; they live in a flat stride-nslots
    // buffer (see [`Tuples`]) so the join pipeline never allocates per
    // tuple.
    const UNBOUND: RowId = RowId::MAX;
    let nslots = plan.scans.len();
    let mut tuples = Tuples::new(nslots);
    let mut bound_slots: Vec<usize> = Vec::new();

    for (slot, scan) in plan.scans.iter().enumerate() {
        // One scan span per table scan (partitioning inside `run_scan` is
        // invisible here, so span counts are thread-count invariant).
        let rows = {
            let mut sp = obs::span("relstore.scan");
            sp.label(&scan.alias);
            let before = stats;
            let rows = run_scan(db, scan, &mut stats)?;
            sp.attr("rows", rows.len() as u64);
            sp.attr("scanned", (stats.rows_scanned - before.rows_scanned) as u64);
            sp.attr("segments", (stats.segments_scanned - before.segments_scanned) as u64);
            sp.attr("pruned", (stats.segments_pruned - before.segments_pruned) as u64);
            rows
        };
        if slot == 0 {
            tuples.data.reserve(rows.len() * nslots);
            for r in rows {
                let n = tuples.data.len();
                tuples.data.resize(n + nslots, UNBOUND);
                tuples.data[n] = r;
            }
        } else {
            let mut sp = obs::span("relstore.join");
            sp.label(&scan.alias);
            sp.attr("probe", tuples.len() as u64);
            sp.attr("build", rows.len() as u64);
            // Find equi-join keys connecting `slot` to already-bound slots.
            let mut keys: Vec<EquiKey> = Vec::new();
            for (i, (b, slots)) in residual_bound.iter().enumerate() {
                if residual_done[i] {
                    continue;
                }
                if let BExpr::CmpCol { left, op: CmpOp::Eq, right } = b {
                    let connects =
                        |a: &Slot, b: &Slot| a.alias == slot && bound_slots.contains(&b.alias);
                    if connects(right, left) {
                        keys.push(EquiKey { bound: *left, new: *right });
                        residual_done[i] = true;
                    } else if connects(left, right) {
                        keys.push(EquiKey { bound: *right, new: *left });
                        residual_done[i] = true;
                    }
                }
                let _ = slots;
            }
            if keys.is_empty() {
                // Cartesian extension (rare: disconnected patterns).
                if let [r] = rows.as_slice() {
                    // One-row extension: bind the slot in place — no copy.
                    let (r, n) = (*r, nslots);
                    for i in 0..tuples.len() {
                        tuples.data[i * n + slot] = r;
                    }
                } else {
                    let mut next = Tuples::new(nslots);
                    next.data.reserve(tuples.data.len() * rows.len().max(1));
                    for t in tuples.iter() {
                        for &r in &rows {
                            next.push_extended(t, slot, r);
                        }
                    }
                    tuples = next;
                }
            } else if let [k] = keys.as_slice() {
                // Single-key hash join (the common case: one equi conjunct
                // links the new alias). When both sides are dense typed
                // columns, build and probe consume the raw column slices —
                // `i64`/`Sym` keys straight out of segment storage, no
                // `Value` construction or enum hashing on the probe's hot
                // path. Nullable or mixed-type keys fall back to `Value`.
                let (bt, nt) = (tables[k.bound.alias], tables[slot]);
                let dense = !bt.col_has_nulls(k.bound.col) && !nt.col_has_nulls(k.new.col);
                let int_cols = (bt.int_cells(k.bound.col), nt.int_cells(k.new.col));
                let sym_cols = (bt.sym_cells(k.bound.col), nt.sym_cells(k.new.col));
                tuples = if let (true, (Some(probe), Some(bkeys))) = (dense, int_cols) {
                    let mut build: FxHashMap<i64, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(bkeys[r as usize]).or_default().push(r);
                    }
                    probe_join(db.pool(), &tuples, slot, &build, |t| {
                        probe[t[k.bound.alias] as usize]
                    })
                } else if let (true, (Some(probe), Some(bkeys))) = (dense, sym_cols) {
                    let mut build: FxHashMap<Sym, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(bkeys[r as usize]).or_default().push(r);
                    }
                    probe_join(db.pool(), &tuples, slot, &build, |t| {
                        probe[t[k.bound.alias] as usize]
                    })
                } else {
                    let mut build: FxHashMap<Value, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        build.entry(nt.cell(r, k.new.col)).or_default().push(r);
                    }
                    probe_join(db.pool(), &tuples, slot, &build, |t| {
                        bt.cell(t[k.bound.alias], k.bound.col)
                    })
                };
            } else {
                // Hash join on a compound key: build on the new scan's rows.
                // When every component is a dense typed column with matching
                // types on both sides (and there are at most 4), components
                // pack into a fixed `[u64; 4]` key read straight off the
                // column slices — no per-row key vector or `Value`
                // construction on the probe's hot path. (Positions are typed
                // consistently on both sides, so raw-bit equality per
                // position is exactly `Value` equality.)
                enum KeyCol<'a> {
                    I(&'a [i64]),
                    S(&'a [Sym]),
                }
                impl KeyCol<'_> {
                    fn at(&self, r: RowId) -> u64 {
                        match self {
                            KeyCol::I(v) => v[r as usize] as u64,
                            KeyCol::S(v) => u64::from(v[r as usize].0),
                        }
                    }
                }
                let packed: Option<Vec<(KeyCol<'_>, KeyCol<'_>)>> = if keys.len() <= 4 {
                    keys.iter()
                        .map(|k| {
                            let (bt, nt) = (tables[k.bound.alias], tables[slot]);
                            if bt.col_has_nulls(k.bound.col) || nt.col_has_nulls(k.new.col) {
                                return None;
                            }
                            match (bt.int_cells(k.bound.col), nt.int_cells(k.new.col)) {
                                (Some(b), Some(n)) => Some((KeyCol::I(b), KeyCol::I(n))),
                                _ => match (bt.sym_cells(k.bound.col), nt.sym_cells(k.new.col)) {
                                    (Some(b), Some(n)) => Some((KeyCol::S(b), KeyCol::S(n))),
                                    _ => None,
                                },
                            }
                        })
                        .collect()
                } else {
                    None
                };
                tuples = if let Some(cols) = packed {
                    let mut build: FxHashMap<[u64; 4], Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        let mut key = [0u64; 4];
                        for (i, (_, n)) in cols.iter().enumerate() {
                            key[i] = n.at(r);
                        }
                        build.entry(key).or_default().push(r);
                    }
                    probe_join(db.pool(), &tuples, slot, &build, |t| {
                        let mut key = [0u64; 4];
                        for (i, ((b, _), k)) in cols.iter().zip(keys.iter()).enumerate() {
                            key[i] = b.at(t[k.bound.alias]);
                        }
                        key
                    })
                } else {
                    let mut build: FxHashMap<Vec<Value>, Vec<RowId>> =
                        FxHashMap::with_capacity_and_hasher(rows.len(), Default::default());
                    for &r in &rows {
                        let key: Vec<Value> =
                            keys.iter().map(|k| tables[slot].cell(r, k.new.col)).collect();
                        build.entry(key).or_default().push(r);
                    }
                    probe_join(db.pool(), &tuples, slot, &build, |t| {
                        keys.iter()
                            .map(|k| tables[k.bound.alias].cell(t[k.bound.alias], k.bound.col))
                            .collect::<Vec<Value>>()
                    })
                };
            }
            sp.attr("tuples", tuples.len() as u64);
        }
        bound_slots.push(slot);
        stats.tuples_built += tuples.len();

        // Apply any residual whose slots are now all bound.
        for (i, (b, slots)) in residual_bound.iter().enumerate() {
            if residual_done[i] {
                continue;
            }
            if slots.iter().all(|s| bound_slots.contains(s)) {
                tuples.retain(|t| eval(b, t, &tables, db.dict()));
                residual_done[i] = true;
            }
        }
        if tuples.is_empty() {
            // Early exit: nothing downstream can resurrect rows, but we must
            // keep slot bookkeeping consistent; simply continue (cheap).
        }
    }

    // Projection.
    let mut out_cols = Vec::new();
    let mut proj_slots: Vec<Option<Slot>> = Vec::new();
    for p in &plan.projections {
        match p {
            Projection::Col(c) => {
                out_cols.push(c.to_string());
                proj_slots.push(Some(binder.bind_col(c)?));
            }
            Projection::CountStar => {
                out_cols.push("count".to_string());
                proj_slots.push(None);
            }
        }
    }

    let count_star = plan.projections.iter().any(|p| matches!(p, Projection::CountStar));
    if count_star {
        let cols = vec![ValueColumn::Int(vec![tuples.len() as i64])];
        return Ok((QueryResultCore { columns: out_cols, cols }, stats));
    }

    if plan.distinct || !plan.order_by.is_empty() {
        // DISTINCT / ORDER BY need whole-row identity and row swaps, so this
        // path materializes row-major tuples, applies them, then transposes
        // back to columns ([`ValueColumn::from_values`] is an exact `Value`
        // round-trip, so per-cell results match the direct columnar path).
        let mut rows: Vec<Vec<Value>> = tuples
            .iter()
            .map(|t| {
                proj_slots
                    .iter()
                    .map(|s| {
                        let s = s.expect("CountStar handled above");
                        tables[s.alias].cell(t[s.alias], s.col)
                    })
                    .collect()
            })
            .collect();

        if plan.distinct {
            let mut seen: FxHashSet<Vec<Value>> = Default::default();
            rows.retain(|r| seen.insert(r.clone()));
        }

        if !plan.order_by.is_empty() {
            let order_slots: Vec<Slot> =
                plan.order_by.iter().map(|c| binder.bind_col(c)).collect::<Result<Vec<_>>>()?;
            // ORDER BY columns must appear in the projection for sorting of
            // projected rows; otherwise sort tuples first. For the audit
            // workloads ORDER BY is always on projected columns, so sort rows
            // by locating each order column among projections.
            let mut sort_keys = Vec::new();
            for os in &order_slots {
                let pos = proj_slots
                    .iter()
                    .position(|p| matches!(p, Some(s) if s.alias == os.alias && s.col == os.col))
                    .ok_or_else(|| {
                        Error::semantic("ORDER BY column must appear in the SELECT list")
                    })?;
                sort_keys.push(pos);
            }
            rows.sort_by(|a, b| {
                for &k in &sort_keys {
                    let ord = a[k].cmp_with(b[k], db.dict());
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        if let Some(n) = plan.limit {
            rows.truncate(n);
        }

        let ncols = proj_slots.len();
        let cols = (0..ncols)
            .map(|j| ValueColumn::from_values(rows.iter().map(|r| r[j]).collect()))
            .collect();
        return Ok((QueryResultCore { columns: out_cols, cols }, stats));
    }

    // Direct columnar projection: gather each projected column straight from
    // table storage through the surviving tuples — rows are never
    // materialized. Dense columns stay typed vectors (`Vec<i64>`/`Vec<Sym>`);
    // only nullable columns fall back to `Mixed`.
    let n = plan.limit.map_or(tuples.len(), |n| n.min(tuples.len()));
    let cols = proj_slots
        .iter()
        .map(|s| {
            let s = s.expect("CountStar handled above");
            let t = tables[s.alias];
            let picked = tuples.iter().take(n).map(|tu| tu[s.alias]);
            if t.col_has_nulls(s.col) {
                ValueColumn::Mixed(picked.map(|r| t.cell(r, s.col)).collect())
            } else if let Some(ints) = t.int_cells(s.col) {
                ValueColumn::Int(picked.map(|r| ints[r as usize]).collect())
            } else {
                let syms = t.sym_cells(s.col).expect("column is int or str");
                ValueColumn::Str(picked.map(|r| syms[r as usize]).collect())
            }
        })
        .collect();
    Ok((QueryResultCore { columns: out_cols, cols }, stats))
}

/// Columns + typed shared-plane result columns (wrapped by
/// [`crate::db::QueryResult`]). The result is **columnar** end-to-end: one
/// [`ValueColumn`] per projected column, feeding `ResultBatch` construction
/// at the engine seam without intermediate row materialization. No string is
/// materialized here — symbols resolve at the engine's edge.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResultCore {
    pub columns: Vec<String>,
    pub cols: Vec<ValueColumn>,
}

impl QueryResultCore {
    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, ValueColumn::len)
    }

    /// One row, materialized on demand (edge/debug paths only).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    /// All rows, materialized row-major (tests and compatibility shims).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.n_rows()).map(|i| self.row(i)).collect()
    }
}
