//! TBQL → SQL / Cypher compilation.
//!
//! Each *event pattern* compiles to a small SQL data query joining the two
//! entity tables with the events table; each *path pattern* compiles to a
//! Cypher data query using the graph store's path syntax. The whole query
//! can also be compiled into one *giant* SQL or Cypher statement — the
//! baselines of Table VIII and the comparison texts of Table X.
//!
//! Known restriction: the giant compiled forms support plain
//! `before`/`after` temporal relationships; `within` and `[lo-hi unit]`
//! gap ranges need arithmetic that the embedded SQL subset does not
//! expose, and are only handled by the scheduled execution path.

use std::fmt::Write as _;

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::SharedDict;
use raptor_common::like::{like_shape, LikeShape};
use raptor_common::time::Duration;
use raptor_tbql::analyze::{APattern, AnalyzedQuery};
use raptor_tbql::{
    AttrExpr, CmpOp, EntityType, OpExpr, PatternOp, RelClause, TemporalOp, Value, Window,
};

/// Compilation context.
pub struct CompileCtx<'a> {
    pub aq: &'a AnalyzedQuery,
    /// Reference time for `last N unit` windows (max event end in the db).
    pub now_ns: i64,
    /// The shared dictionary plane: TBQL string literals are interned here
    /// at compile time, so typed requests carry pre-interned symbols and
    /// backends never do per-request dictionary lookups.
    pub dict: SharedDict,
}

/// Entity ids propagated from already-executed patterns (scheduler state).
///
/// Candidate sets are kept **sorted and distinct**: the `MAX_IN_LIST` cap
/// then measures distinct ids, and compiled `IN` lists (text or typed) are
/// deterministic for a given result set.
#[derive(Clone, Default, Debug)]
pub struct Propagation {
    entity_ids: FxHashMap<String, Vec<i64>>,
}

impl Propagation {
    /// Replaces the candidate set for `var`. `ids` must already be sorted
    /// and distinct — the [`StorageBackend::entity_candidates`] contract —
    /// so canonicalization happens in exactly one place (the backend)
    /// instead of being repeated on every propagation step.
    ///
    /// [`StorageBackend::entity_candidates`]: raptor_storage::StorageBackend::entity_candidates
    pub fn set(&mut self, var: impl Into<String>, ids: Vec<i64>) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "candidate ids must arrive sorted-distinct"
        );
        self.entity_ids.insert(var.into(), ids);
    }

    /// Iterates the candidate sets (variable name → sorted-distinct ids).
    /// Iteration order is the hash map's — callers needing determinism
    /// (e.g. the durability plane's checkpoint codec) must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[i64])> {
        self.entity_ids.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Grows `var` by union with `ids`; sets it when absent. This is the
    /// *streaming* propagation rule: candidate sets derived from entity
    /// filters only ever gain members as new entities are ingested, so
    /// standing queries union per-epoch delta seeds instead of recomputing
    /// (or intersecting) them.
    ///
    /// Like [`Propagation::set`], `ids` must arrive sorted-distinct (the
    /// backend contract); the merge relies on it.
    pub fn union(&mut self, var: &str, ids: Vec<i64>) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "candidate ids must arrive sorted-distinct"
        );
        match self.entity_ids.get_mut(var) {
            Some(existing) => {
                // Linear merge of two sorted distinct lists — the existing
                // set is typically much larger than the per-epoch delta.
                let mut merged = Vec::with_capacity(existing.len() + ids.len());
                let (mut i, mut j) = (0, 0);
                while i < existing.len() && j < ids.len() {
                    match existing[i].cmp(&ids[j]) {
                        std::cmp::Ordering::Less => {
                            merged.push(existing[i]);
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push(ids[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push(existing[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&existing[i..]);
                merged.extend_from_slice(&ids[j..]);
                *existing = merged;
            }
            None => self.entity_ids.insert(var.into(), ids).map_or((), drop),
        }
    }

    /// Narrows `var` to the intersection with `ids`; sets it when absent.
    /// `ids` come straight from match rows, so (unlike [`Propagation::set`])
    /// they may be unsorted and duplicated.
    pub fn intersect(&mut self, var: &str, mut ids: Vec<i64>) {
        match self.entity_ids.get_mut(var) {
            Some(existing) => {
                let set: raptor_common::FxHashSet<i64> = ids.into_iter().collect();
                existing.retain(|x| set.contains(x));
            }
            None => {
                ids.sort_unstable();
                ids.dedup();
                self.set(var, ids);
            }
        }
    }

    /// The candidate set for `var`, if any (sorted, distinct).
    pub fn get(&self, var: &str) -> Option<&[i64]> {
        self.entity_ids.get(var).map(Vec::as_slice)
    }

    /// The candidate set for `var` when it is small enough to be worth an
    /// `IN` filter — beyond [`MAX_IN_LIST`] distinct ids the filter costs
    /// more than it prunes.
    pub fn in_list(&self, var: &str) -> Option<&[i64]> {
        self.get(var).filter(|ids| ids.len() <= MAX_IN_LIST)
    }
}

/// Caps the size of propagated `IN` lists (distinct ids); beyond this the
/// filter costs more than it prunes.
pub const MAX_IN_LIST: usize = 4096;

pub fn table_for_type(ty: EntityType) -> &'static str {
    match ty {
        EntityType::File => "files",
        EntityType::Proc => "processes",
        EntityType::Ip => "netconns",
    }
}

pub fn label_for_type(ty: EntityType) -> &'static str {
    match ty {
        EntityType::File => "File",
        EntityType::Proc => "Process",
        EntityType::Ip => "NetConn",
    }
}

fn event_kind_for(ty: EntityType) -> &'static str {
    match ty {
        EntityType::File => "file",
        EntityType::Proc => "process",
        EntityType::Ip => "network",
    }
}

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

// --- SQL fragments ---

fn attr_to_sql(alias: &str, e: &AttrExpr) -> String {
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let col = format!("{alias}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => {
                    format!("{col} LIKE {}", sql_str(s))
                }
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => {
                    format!("{col} NOT LIKE {}", sql_str(s))
                }
                (_, Value::Str(s)) => format!("{col} {} {}", op.as_str(), sql_str(s)),
                (_, Value::Int(i)) => format!("{col} {} {i}", op.as_str()),
            }
        }
        AttrExpr::InSet { attr, negated, set } => {
            let col = format!("{alias}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            let vals: Vec<String> = set
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => sql_str(s),
                })
                .collect();
            format!("{col} {}IN ({})", if *negated { "NOT " } else { "" }, vals.join(", "))
        }
        AttrExpr::And(a, b) => format!("({} AND {})", attr_to_sql(alias, a), attr_to_sql(alias, b)),
        AttrExpr::Or(a, b) => format!("({} OR {})", attr_to_sql(alias, a), attr_to_sql(alias, b)),
    }
}

fn op_to_sql(evt: &str, e: &OpExpr) -> String {
    match e {
        OpExpr::Op(name) => format!("{evt}.optype = {}", sql_str(name)),
        OpExpr::Not(inner) => format!("NOT {}", op_to_sql(evt, inner)),
        OpExpr::And(a, b) => format!("({} AND {})", op_to_sql(evt, a), op_to_sql(evt, b)),
        OpExpr::Or(a, b) => format!("({} OR {})", op_to_sql(evt, a), op_to_sql(evt, b)),
    }
}

fn window_to_sql(evt: &str, w: &Window, now_ns: i64) -> Result<String> {
    Ok(match w {
        Window::FromTo(a, b) => {
            format!("{evt}.starttime >= {} AND {evt}.starttime <= {}", a.0, b.0)
        }
        Window::At(t) => format!("{evt}.starttime <= {} AND {evt}.endtime >= {}", t.0, t.0),
        Window::Before(t) => format!("{evt}.starttime < {}", t.0),
        Window::After(t) => format!("{evt}.starttime > {}", t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            format!("{evt}.starttime >= {}", now_ns.saturating_sub(d.0))
        }
    })
}

fn in_list_sql(alias: &str, ids: &[i64]) -> String {
    format!("{alias}.id IN ({})", render_id_list(ids))
}

/// Renders an id list; an empty candidate set becomes the impossible id -1
/// so the emitted SQL/Cypher stays well-formed (and matches nothing).
fn render_id_list(ids: &[i64]) -> String {
    if ids.is_empty() {
        return "-1".to_string();
    }
    let list: Vec<String> = ids.iter().map(i64::to_string).collect();
    list.join(", ")
}

/// The entity-candidate resolution query the scheduler runs first for every
/// filtered entity (one small indexed lookup per entity).
pub fn entity_candidate_sql(id: &str, ty: EntityType, filter: &AttrExpr) -> String {
    format!("SELECT {id}.id FROM {} {id} WHERE {}", table_for_type(ty), attr_to_sql(id, filter))
}

/// Compiles one event pattern into a small SQL data query.
///
/// Projected columns (positional): subject id, object id, event id,
/// starttime, endtime.
pub fn sql_for_event_pattern(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
) -> Result<String> {
    let PatternOp::Event(op) = &p.op else {
        return Err(Error::semantic("path patterns compile to Cypher, not SQL"));
    };
    let subj = &ctx.aq.entities[&p.subject];
    let obj = &ctx.aq.entities[&p.object];
    let (s, o, e) = (&p.subject, &p.object, &p.id);
    let mut sql = format!(
        "SELECT {s}.id, {o}.id, {e}.id, {e}.starttime, {e}.endtime FROM {} {s}, events {e}, {} {o} WHERE {e}.subject = {s}.id AND {e}.object = {o}.id AND {e}.kind = {}",
        table_for_type(subj.ty),
        table_for_type(obj.ty),
        sql_str(event_kind_for(obj.ty)),
    );
    let mut push = |cond: String| {
        let _ = write!(sql, " AND {cond}");
    };
    push(op_to_sql(e, op));
    if let Some(f) = &subj.filter {
        push(attr_to_sql(s, f));
    }
    if let Some(f) = &obj.filter {
        push(attr_to_sql(o, f));
    }
    if let Some(f) = &p.event_filter {
        push(attr_to_sql(e, f));
    }
    if let Some(w) = &p.window {
        push(window_to_sql(e, w, ctx.now_ns)?);
    }
    for w in &ctx.aq.global_windows {
        push(window_to_sql(e, w, ctx.now_ns)?);
    }
    // Propagated entity ids constrain both the entity alias and — far more
    // importantly — the event columns, so the events scan runs through the
    // subject/object hash indexes instead of the (much larger) optype index.
    for (var, alias, evt_col) in [(s, s, "subject"), (o, o, "object")] {
        if let Some(ids) = prop.in_list(var.as_str()) {
            push(in_list_sql(alias, ids));
            push(format!("{e}.{evt_col} IN ({})", render_id_list(ids)));
        }
    }
    Ok(sql)
}

// --- Cypher fragments ---

fn cypher_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn attr_to_cypher(var: &str, e: &AttrExpr) -> String {
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let prop = format!("{var}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => str_pred_cypher(&prop, s, false),
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => str_pred_cypher(&prop, s, true),
                (_, Value::Str(s)) => {
                    let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                    format!("{prop} {} {}", op_str, cypher_str(s))
                }
                (_, Value::Int(i)) => {
                    let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                    format!("{prop} {op_str} {i}")
                }
            }
        }
        AttrExpr::InSet { attr, negated, set } => {
            let prop = format!("{var}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            let vals: Vec<String> = set
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => cypher_str(s),
                })
                .collect();
            let base = format!("{prop} IN [{}]", vals.join(", "));
            if *negated {
                format!("NOT ({base})")
            } else {
                base
            }
        }
        AttrExpr::And(a, b) => {
            format!("({} AND {})", attr_to_cypher(var, a), attr_to_cypher(var, b))
        }
        AttrExpr::Or(a, b) => {
            format!("({} OR {})", attr_to_cypher(var, a), attr_to_cypher(var, b))
        }
    }
}

/// `%lit%` → CONTAINS, `%lit` → ENDS WITH, `lit%` → STARTS WITH; every
/// other shape (`_`, several literal runs, no `%`) → the dialect's exact
/// `LIKE`.
fn str_pred_cypher(prop: &str, pattern: &str, negated: bool) -> String {
    let (op, needle) = match like_shape(pattern) {
        LikeShape::Contains(lit) => ("CONTAINS", lit),
        LikeShape::StartsWith(lit) => ("STARTS WITH", lit),
        LikeShape::EndsWith(lit) => ("ENDS WITH", lit),
        LikeShape::Pattern => ("LIKE", pattern),
    };
    let pred = format!("{prop} {op} {}", cypher_str(needle));
    if negated {
        format!("NOT ({pred})")
    } else {
        pred
    }
}

fn op_to_cypher(edge: &str, e: &OpExpr) -> String {
    match e {
        OpExpr::Op(name) => format!("{edge}.optype = {}", cypher_str(name)),
        OpExpr::Not(inner) => format!("NOT ({})", op_to_cypher(edge, inner)),
        OpExpr::And(a, b) => format!("({} AND {})", op_to_cypher(edge, a), op_to_cypher(edge, b)),
        OpExpr::Or(a, b) => format!("({} OR {})", op_to_cypher(edge, a), op_to_cypher(edge, b)),
    }
}

fn window_to_cypher(edge: &str, w: &Window, now_ns: i64) -> Result<String> {
    Ok(match w {
        Window::FromTo(a, b) => {
            format!("{edge}.starttime >= {} AND {edge}.starttime <= {}", a.0, b.0)
        }
        Window::At(t) => format!("{edge}.starttime <= {} AND {edge}.endtime >= {}", t.0, t.0),
        Window::Before(t) => format!("{edge}.starttime < {}", t.0),
        Window::After(t) => format!("{edge}.starttime > {}", t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            format!("{edge}.starttime >= {}", now_ns.saturating_sub(d.0))
        }
    })
}

/// Renders one pattern's MATCH fragment, collecting WHERE conditions.
/// Returns the path text. `edge_var` is the name bound to the final hop
/// (event patterns and final-hop-constrained paths).
fn cypher_pattern_fragment(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    conds: &mut Vec<String>,
) -> Result<String> {
    let subj = &ctx.aq.entities[&p.subject];
    let obj = &ctx.aq.entities[&p.object];
    if let Some(f) = &subj.filter {
        conds.push(attr_to_cypher(&p.subject, f));
    }
    if let Some(f) = &obj.filter {
        conds.push(attr_to_cypher(&p.object, f));
    }
    let s_node = format!("({}:{})", p.subject, label_for_type(subj.ty));
    let o_node = format!("({}:{})", p.object, label_for_type(obj.ty));
    let frag = match &p.op {
        PatternOp::Event(op) => {
            conds.push(op_to_cypher(&p.id, op));
            if let Some(f) = &p.event_filter {
                conds.push(attr_to_cypher(&p.id, f));
            }
            if let Some(w) = &p.window {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            for w in &ctx.aq.global_windows {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        PatternOp::Path { arrow, min, max, op } => {
            path_fragment(p, *arrow, *min, *max, op.as_ref(), &s_node, &o_node, conds)
        }
    };
    Ok(frag)
}

/// Shared path-fragment rendering. `->` means exactly one hop; `~>` renders
/// variable-length, splitting off the final hop when it carries an
/// operation constraint (TBQL's final-hop semantics).
#[allow(clippy::too_many_arguments)]
fn path_fragment(
    p: &APattern,
    arrow: raptor_tbql::Arrow,
    min: Option<u32>,
    max: Option<u32>,
    op: Option<&OpExpr>,
    s_node: &str,
    o_node: &str,
    conds: &mut Vec<String>,
) -> String {
    let (lo, hi) =
        if arrow == raptor_tbql::Arrow::Single { (1, Some(1)) } else { (min.unwrap_or(1), max) };
    let hi_text = hi.map(|m| m.to_string()).unwrap_or_default();
    match op {
        Some(op) if lo == 1 && hi == Some(1) => {
            conds.push(op_to_cypher(&p.id, op));
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        Some(op) => {
            conds.push(op_to_cypher(&p.id, op));
            let plo = lo.saturating_sub(1);
            let phi = hi.map(|m| (m.saturating_sub(1)).to_string()).unwrap_or_default();
            format!("{s_node}-[:EVENT*{plo}..{phi}]->(_m{})-[{}:EVENT]->{o_node}", p.index, p.id)
        }
        None if lo == 1 && hi == Some(1) => {
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        None => format!("{s_node}-[:EVENT*{lo}..{hi_text}]->{o_node}"),
    }
}

/// Compiles one path pattern into a Cypher data query. Projected columns
/// (positional): subject id, object id.
pub fn cypher_for_path_pattern(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
) -> Result<String> {
    if !matches!(p.op, PatternOp::Path { .. }) {
        return Err(Error::semantic("event patterns compile to SQL, not Cypher"));
    }
    let mut conds = Vec::new();
    let frag = cypher_pattern_fragment(ctx, p, &mut conds)?;
    for var in [&p.subject, &p.object] {
        if let Some(ids) = prop.in_list(var.as_str()) {
            conds.push(format!("{var}.id IN [{}]", render_id_list(ids)));
        }
    }
    let mut q = format!("MATCH {frag}");
    if !conds.is_empty() {
        let _ = write!(q, " WHERE {}", conds.join(" AND "));
    }
    if p.has_final_hop() {
        // Single-hop paths bind an event edge: expose its id and timestamps
        // so `with` temporal clauses work on the length-1 variant.
        let _ = write!(
            q,
            " RETURN DISTINCT {}.id, {}.id, {e}.id, {e}.starttime, {e}.endtime",
            p.subject,
            p.object,
            e = p.id
        );
    } else {
        let _ = write!(q, " RETURN DISTINCT {}.id, {}.id", p.subject, p.object);
    }
    Ok(q)
}

/// Compiles the whole query into one giant SQL statement (the paper's
/// baseline "(b)"). Only valid when every pattern is an event pattern.
pub fn giant_sql(ctx: &CompileCtx<'_>) -> Result<String> {
    let aq = ctx.aq;
    if aq.patterns.iter().any(|p| p.is_path()) {
        return Err(Error::semantic(
            "giant SQL requires event patterns only (paths need the graph backend)",
        ));
    }
    // SELECT: return items.
    let items: Vec<String> = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
    let mut sql =
        format!("SELECT {}{}", if aq.distinct { "DISTINCT " } else { "" }, items.join(", "));
    // FROM: each entity once, each pattern's event once.
    let mut from: Vec<String> = Vec::new();
    for id in &aq.entity_order {
        let e = &aq.entities[id];
        from.push(format!("{} {}", table_for_type(e.ty), id));
    }
    for p in &aq.patterns {
        from.push(format!("events {}", p.id));
    }
    let _ = write!(sql, " FROM {}", from.join(", "));
    // WHERE.
    let mut conds: Vec<String> = Vec::new();
    for p in &aq.patterns {
        let e = &p.id;
        let obj_ty = aq.entities[&p.object].ty;
        conds.push(format!("{e}.subject = {}.id", p.subject));
        conds.push(format!("{e}.object = {}.id", p.object));
        conds.push(format!("{e}.kind = {}", sql_str(event_kind_for(obj_ty))));
        match &p.op {
            PatternOp::Event(op) => conds.push(op_to_sql(e, op)),
            PatternOp::Path { .. } => unreachable!(),
        }
        if let Some(f) = &p.event_filter {
            conds.push(attr_to_sql(e, f));
        }
        if let Some(w) = &p.window {
            conds.push(window_to_sql(e, w, ctx.now_ns)?);
        }
        for w in &aq.global_windows {
            conds.push(window_to_sql(e, w, ctx.now_ns)?);
        }
    }
    for id in &aq.entity_order {
        if let Some(f) = &aq.entities[id].filter {
            conds.push(attr_to_sql(id, f));
        }
    }
    for rel in &aq.relations {
        match rel {
            RelClause::Temporal { left, op, range, right } => {
                if range.is_some() || *op == TemporalOp::Within {
                    return Err(Error::semantic(
                        "giant SQL supports plain before/after only (see module docs)",
                    ));
                }
                match op {
                    TemporalOp::Before => {
                        conds.push(format!("{left}.starttime < {right}.starttime"))
                    }
                    TemporalOp::After => {
                        conds.push(format!("{left}.starttime > {right}.starttime"))
                    }
                    TemporalOp::Within => unreachable!(),
                }
            }
            RelClause::Attr { left, op, right } => {
                conds.push(format!("{left} {} {right}", op.as_str()));
            }
        }
    }
    if !conds.is_empty() {
        let _ = write!(sql, " WHERE {}", conds.join(" AND "));
    }
    Ok(sql)
}

/// Compiles the whole query into one giant Cypher statement (baseline "(d)").
pub fn giant_cypher(ctx: &CompileCtx<'_>) -> Result<String> {
    let aq = ctx.aq;
    let mut conds: Vec<String> = Vec::new();
    let mut frags: Vec<String> = Vec::new();
    for p in &aq.patterns {
        // Entity filters are emitted once per entity below, so strip them
        // here by temporarily compiling with the pattern only.
        let frag = cypher_pattern_fragment_no_entity_filters(ctx, p, &mut conds)?;
        frags.push(frag);
    }
    for id in &aq.entity_order {
        if let Some(f) = &aq.entities[id].filter {
            conds.push(attr_to_cypher(id, f));
        }
    }
    for rel in &aq.relations {
        match rel {
            RelClause::Temporal { left, op, range, right } => {
                if range.is_some() || *op == TemporalOp::Within {
                    return Err(Error::semantic(
                        "giant Cypher supports plain before/after only (see module docs)",
                    ));
                }
                match op {
                    TemporalOp::Before => {
                        conds.push(format!("{left}.starttime < {right}.starttime"))
                    }
                    TemporalOp::After => {
                        conds.push(format!("{left}.starttime > {right}.starttime"))
                    }
                    TemporalOp::Within => unreachable!(),
                }
            }
            RelClause::Attr { left, op, right } => {
                let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                conds.push(format!("{left} {op_str} {right}"));
            }
        }
    }
    let mut q = format!("MATCH {}", frags.join(", "));
    if !conds.is_empty() {
        let _ = write!(q, " WHERE {}", conds.join(" AND "));
    }
    let items: Vec<String> = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
    let _ = write!(q, " RETURN {}{}", if aq.distinct { "DISTINCT " } else { "" }, items.join(", "));
    Ok(q)
}

// --- typed requests (the scheduled executor's parse-free path) ---

pub fn class_for_type(ty: EntityType) -> raptor_storage::EntityClass {
    match ty {
        EntityType::File => raptor_storage::EntityClass::File,
        EntityType::Proc => raptor_storage::EntityClass::Process,
        EntityType::Ip => raptor_storage::EntityClass::NetConn,
    }
}

fn storage_cmp_op(op: CmpOp) -> raptor_storage::CmpOp {
    match op {
        CmpOp::Eq => raptor_storage::CmpOp::Eq,
        CmpOp::Ne => raptor_storage::CmpOp::Ne,
        CmpOp::Lt => raptor_storage::CmpOp::Lt,
        CmpOp::Le => raptor_storage::CmpOp::Le,
        CmpOp::Gt => raptor_storage::CmpOp::Gt,
        CmpOp::Ge => raptor_storage::CmpOp::Ge,
    }
}

/// Interns a TBQL literal into the shared plane (parse-time interning: the
/// one place query strings become symbols).
fn storage_value(v: &Value, dict: &SharedDict) -> raptor_storage::Value {
    match v {
        Value::Int(i) => raptor_storage::Value::Int(*i),
        Value::Str(s) => raptor_storage::Value::Str(dict.intern(s)),
    }
}

/// Lowers a TBQL attribute expression to a typed predicate (same semantics
/// as the SQL lowering: `=`/`!=` against a `%` pattern means LIKE). String
/// literals are interned into `dict` here, so the emitted predicate carries
/// pre-interned symbols.
pub fn attr_pred(e: &AttrExpr, dict: &SharedDict) -> raptor_storage::Pred {
    use raptor_storage::Pred;
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let attr = attr.attr.as_deref().unwrap_or(&attr.base).to_string();
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => {
                    Pred::Like { attr, pattern: s.clone(), negated: false }
                }
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => {
                    Pred::Like { attr, pattern: s.clone(), negated: true }
                }
                _ => Pred::Cmp { attr, op: storage_cmp_op(*op), value: storage_value(value, dict) },
            }
        }
        AttrExpr::InSet { attr, negated, set } => Pred::InSet {
            attr: attr.attr.as_deref().unwrap_or(&attr.base).to_string(),
            negated: *negated,
            values: set.iter().map(|v| storage_value(v, dict)).collect(),
        },
        AttrExpr::And(a, b) => {
            Pred::And(Box::new(attr_pred(a, dict)), Box::new(attr_pred(b, dict)))
        }
        AttrExpr::Or(a, b) => Pred::Or(Box::new(attr_pred(a, dict)), Box::new(attr_pred(b, dict))),
    }
}

fn op_pred(e: &OpExpr, dict: &SharedDict) -> raptor_storage::Pred {
    use raptor_storage::Pred;
    match e {
        OpExpr::Op(name) => Pred::Cmp {
            attr: "optype".to_string(),
            op: raptor_storage::CmpOp::Eq,
            value: raptor_storage::Value::Str(dict.intern(name)),
        },
        OpExpr::Not(inner) => Pred::Not(Box::new(op_pred(inner, dict))),
        OpExpr::And(a, b) => Pred::And(Box::new(op_pred(a, dict)), Box::new(op_pred(b, dict))),
        OpExpr::Or(a, b) => Pred::Or(Box::new(op_pred(a, dict)), Box::new(op_pred(b, dict))),
    }
}

fn window_pred(w: &Window, now_ns: i64) -> Result<raptor_storage::Pred> {
    use raptor_storage::{CmpOp as SOp, Pred, Value as SVal};
    let cmp =
        |attr: &str, op: SOp, v: i64| Pred::Cmp { attr: attr.to_string(), op, value: SVal::Int(v) };
    Ok(match w {
        Window::FromTo(a, b) => Pred::And(
            Box::new(cmp("starttime", SOp::Ge, a.0)),
            Box::new(cmp("starttime", SOp::Le, b.0)),
        ),
        Window::At(t) => Pred::And(
            Box::new(cmp("starttime", SOp::Le, t.0)),
            Box::new(cmp("endtime", SOp::Ge, t.0)),
        ),
        Window::Before(t) => cmp("starttime", SOp::Lt, t.0),
        Window::After(t) => cmp("starttime", SOp::Gt, t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            cmp("starttime", SOp::Ge, now_ns.saturating_sub(d.0))
        }
    })
}

/// The typed form of [`entity_candidate_sql`].
pub fn entity_candidate_request(
    ty: EntityType,
    filter: &AttrExpr,
    dict: &SharedDict,
) -> (raptor_storage::EntityClass, raptor_storage::Pred) {
    (class_for_type(ty), attr_pred(filter, dict))
}

fn entity_sel(ctx: &CompileCtx<'_>, var: &str, prop: &Propagation) -> raptor_storage::EntitySel {
    let e = &ctx.aq.entities[var];
    raptor_storage::EntitySel {
        class: class_for_type(e.ty),
        filter: e.filter.as_ref().map(|f| attr_pred(f, &ctx.dict)),
        id_in: prop.in_list(var).map(<[i64]>::to_vec),
    }
}

/// Conjunction of the pattern's event-level predicates: operation, event
/// filter, per-pattern window, global windows.
fn event_conjuncts(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    op: Option<&OpExpr>,
) -> Result<Vec<raptor_storage::Pred>> {
    let mut preds = Vec::new();
    if let Some(op) = op {
        preds.push(op_pred(op, &ctx.dict));
    }
    if let Some(f) = &p.event_filter {
        preds.push(attr_pred(f, &ctx.dict));
    }
    if let Some(w) = &p.window {
        preds.push(window_pred(w, ctx.now_ns)?);
    }
    for w in &ctx.aq.global_windows {
        preds.push(window_pred(w, ctx.now_ns)?);
    }
    Ok(preds)
}

/// Builds the typed request for one event pattern — the parse-free
/// counterpart of [`sql_for_event_pattern`].
pub fn event_pattern_request(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
) -> Result<raptor_storage::EventPatternQuery> {
    let PatternOp::Event(op) = &p.op else {
        return Err(Error::semantic("path patterns build path requests, not event requests"));
    };
    Ok(raptor_storage::EventPatternQuery {
        subject: entity_sel(ctx, &p.subject, prop),
        object: entity_sel(ctx, &p.object, prop),
        event_pred: raptor_storage::Pred::and(event_conjuncts(ctx, p, Some(op))?),
        event_id_in: None,
        subject_is_object: p.subject == p.object,
    })
}

/// Builds the typed request for one path pattern — the parse-free
/// counterpart of [`cypher_for_path_pattern`].
pub fn path_pattern_request(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
    hop_cap: u32,
) -> Result<raptor_storage::PathPatternQuery> {
    let PatternOp::Path { arrow, min, max, op } = &p.op else {
        return Err(Error::semantic("event patterns build event requests, not path requests"));
    };
    let (min_hops, max_hops) =
        if *arrow == raptor_tbql::Arrow::Single { (1, Some(1)) } else { (min.unwrap_or(1), *max) };
    // Mirrors the text compiler: path patterns constrain only the final
    // hop's operation (event filters and windows apply to event patterns).
    let final_hop_pred = op.as_ref().map(|o| op_pred(o, &ctx.dict));
    Ok(raptor_storage::PathPatternQuery {
        subject: entity_sel(ctx, &p.subject, prop),
        object: entity_sel(ctx, &p.object, prop),
        min_hops,
        max_hops,
        hop_cap,
        final_hop_pred,
        final_event_id_in: None,
        want_event: p.has_final_hop(),
        subject_is_object: p.subject == p.object,
    })
}

fn cypher_pattern_fragment_no_entity_filters(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    conds: &mut Vec<String>,
) -> Result<String> {
    // Same as cypher_pattern_fragment but entity filters are handled by the
    // caller (to avoid duplicating them for reused entities).
    let subj = &ctx.aq.entities[&p.subject];
    let obj = &ctx.aq.entities[&p.object];
    let s_node = format!("({}:{})", p.subject, label_for_type(subj.ty));
    let o_node = format!("({}:{})", p.object, label_for_type(obj.ty));
    Ok(match &p.op {
        PatternOp::Event(op) => {
            conds.push(op_to_cypher(&p.id, op));
            if let Some(f) = &p.event_filter {
                conds.push(attr_to_cypher(&p.id, f));
            }
            if let Some(w) = &p.window {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            for w in &ctx.aq.global_windows {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        PatternOp::Path { arrow, min, max, op } => {
            path_fragment(p, *arrow, *min, *max, op.as_ref(), &s_node, &o_node, conds)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_tbql::{analyze, parse_tbql};

    #[test]
    fn like_shapes_lower_to_exact_cypher() {
        assert_eq!(str_pred_cypher("f.name", "%tar%", false), "f.name CONTAINS 'tar'");
        assert_eq!(str_pred_cypher("f.name", "/tmp/%", false), "f.name STARTS WITH '/tmp/'");
        assert_eq!(str_pred_cypher("f.name", "%.gz", false), "f.name ENDS WITH '.gz'");
        assert_eq!(str_pred_cypher("f.name", "%a_b%", false), "f.name LIKE '%a_b%'");
        assert_eq!(str_pred_cypher("f.name", "%tar%gz%", true), "NOT (f.name LIKE '%tar%gz%')");
    }

    fn ctx_for(text: &str) -> (AnalyzedQuery, i64) {
        let q = parse_tbql(text).unwrap();
        (analyze(&q).unwrap(), 1_000_000_000_000)
    }

    #[test]
    fn event_pattern_sql_shape() {
        let (aq, now) =
            ctx_for(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1 return p1, f1"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &Propagation::default()).unwrap();
        assert!(sql.contains("FROM processes p1, events evt1, files f1"), "{sql}");
        assert!(sql.contains("evt1.subject = p1.id"), "{sql}");
        assert!(sql.contains("evt1.optype = 'read'"), "{sql}");
        assert!(sql.contains("p1.exename LIKE '%/bin/tar%'"), "{sql}");
        assert!(sql.contains("f1.name LIKE '%/etc/passwd%'"), "{sql}");
        assert!(sql.contains("evt1.kind = 'file'"), "{sql}");
        // Compiled SQL parses in the relational engine's dialect.
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn propagation_adds_in_filters() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", vec![3, 5, 9]);
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &prop).unwrap();
        assert!(sql.contains("p.id IN (3, 5, 9)"), "{sql}");
    }

    #[test]
    fn oversized_in_list_skipped() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", (0..(MAX_IN_LIST as i64 + 1)).collect());
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &prop).unwrap();
        assert!(!sql.contains("IN ("), "{sql}");
    }

    #[test]
    fn union_merges_sorted_distinct() {
        let mut prop = Propagation::default();
        prop.union("p", vec![3, 5, 9]);
        assert_eq!(prop.get("p"), Some(&[3, 5, 9][..]));
        prop.union("p", vec![1, 4, 9]);
        assert_eq!(prop.get("p"), Some(&[1, 3, 4, 5, 9][..]));
        prop.union("p", vec![]);
        assert_eq!(prop.get("p"), Some(&[1, 3, 4, 5, 9][..]));
    }

    /// Candidates arrive sorted-distinct from the backend
    /// (`entity_candidates` is the one canonicalization point — see the
    /// `candidates_sorted_distinct` backend test); propagation stores and
    /// emits them verbatim instead of re-sorting on every step.
    #[test]
    fn propagated_ids_emitted_canonically() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", vec![3, 5, 9]);
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &prop).unwrap();
        assert!(sql.contains("p.id IN (3, 5, 9)"), "{sql}");
        // Rows from match results (unsorted, duplicated) still canonicalize
        // through `intersect`'s set-when-absent path.
        prop.intersect("f", vec![9, 3, 5, 3, 9, 9]);
        assert_eq!(prop.get("f"), Some(&[3, 5, 9][..]));
    }

    #[test]
    #[should_panic(expected = "sorted-distinct")]
    #[cfg(debug_assertions)]
    fn propagation_set_rejects_unsorted_in_debug() {
        let mut prop = Propagation::default();
        prop.set("p", vec![9, 3, 5]);
    }

    #[test]
    fn propagation_intersects() {
        let mut prop = Propagation::default();
        prop.set("p", vec![1, 2, 3, 4]);
        prop.intersect("p", vec![4, 2, 9]);
        assert_eq!(prop.get("p"), Some(&[2, 4][..]));
        prop.intersect("q", vec![5, 5, 1]);
        assert_eq!(prop.get("q"), Some(&[1, 5][..]));
    }

    #[test]
    fn typed_event_request_mirrors_sql() {
        let (aq, now) =
            ctx_for(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1 return p1, f1"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p1", vec![3, 5]);
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.class, raptor_storage::EntityClass::Process);
        assert_eq!(req.object.class, raptor_storage::EntityClass::File);
        assert_eq!(req.subject.id_in.as_deref(), Some(&[3, 5][..]));
        assert!(matches!(
            req.subject.filter,
            Some(raptor_storage::Pred::Like { ref pattern, negated: false, .. })
                if pattern == "%/bin/tar%"
        ));
        assert!(req.event_pred.is_some());
    }

    #[test]
    fn typed_path_request_shape() {
        let (aq, now) = ctx_for(r#"proc p["%tar%"] ~>(2~4)[read] file f as e1 return p, f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let req = path_pattern_request(&ctx, &aq.patterns[0], &Propagation::default(), 8).unwrap();
        assert_eq!((req.min_hops, req.max_hops, req.hop_cap), (2, Some(4), 8));
        assert!(!req.want_event, "variable-length paths bind no single event");
        assert!(req.final_hop_pred.is_some());
    }

    #[test]
    fn path_pattern_cypher_shape() {
        let (aq, now) = ctx_for(r#"proc p["%tar%"] ~>(2~4)[read] file f as e1 return p, f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = cypher_for_path_pattern(&ctx, &aq.patterns[0], &Propagation::default()).unwrap();
        assert!(cy.contains("(p:Process)-[:EVENT*1..3]->(_m0)-[e1:EVENT]->(f:File)"), "{cy}");
        assert!(cy.contains("e1.optype = 'read'"), "{cy}");
        assert!(cy.contains("p.exename CONTAINS 'tar'"), "{cy}");
        assert!(cy.contains("RETURN DISTINCT p.id, f.id"), "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn length_one_path_is_single_hop() {
        let (aq, now) = ctx_for("proc p ->[read] file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = cypher_for_path_pattern(&ctx, &aq.patterns[0], &Propagation::default()).unwrap();
        // `->` parses with no explicit bounds: compiled as open-ended from
        // the analyzer's perspective? No: Arrow::Single defaults min=max=1.
        assert!(cy.contains("-[") && cy.contains("EVENT"), "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn giant_sql_covers_everything() {
        let (aq, now) = ctx_for(raptor_tbql::parser::FIG2_QUERY);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = giant_sql(&ctx).unwrap();
        // 9 entities + 8 event aliases in FROM.
        assert_eq!(sql.matches("events evt").count(), 8, "{sql}");
        assert!(sql.contains("SELECT DISTINCT p1.exename"), "{sql}");
        assert!(sql.contains("evt1.starttime < evt2.starttime"), "{sql}");
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn giant_sql_rejects_paths_and_ranges() {
        let (aq, now) = ctx_for("proc p ~>[read] file f return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        assert!(giant_sql(&ctx).is_err());
        let (aq, now) = ctx_for(
            "proc p read file f as e1 proc p write file g as e2 with e1 before[0-5 min] e2 return f",
        );
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        assert!(giant_sql(&ctx).is_err());
    }

    #[test]
    fn giant_cypher_covers_everything() {
        let (aq, now) = ctx_for(raptor_tbql::parser::FIG2_QUERY);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = giant_cypher(&ctx).unwrap();
        assert_eq!(cy.matches(":EVENT]").count(), 8, "{cy}");
        assert!(cy.contains("RETURN DISTINCT p1.exename"), "{cy}");
        // Entity filter appears once even though p1 is used twice.
        assert_eq!(cy.matches("p1.exename CONTAINS '/bin/tar'").count(), 1, "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn windows_compile() {
        let (aq, _) = ctx_for("proc p read file f as e1 last 2 h return f");
        let ctx = CompileCtx { aq: &aq, now_ns: 10_000_000_000_000, dict: SharedDict::new() };
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &Propagation::default()).unwrap();
        let cutoff = 10_000_000_000_000i64 - 7200 * 1_000_000_000;
        assert!(sql.contains(&format!("e1.starttime >= {cutoff}")), "{sql}");
    }

    #[test]
    fn string_escaping() {
        let (aq, now) = ctx_for(r#"proc p["%o'brien%"] read file f return f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = sql_for_event_pattern(&ctx, &aq.patterns[0], &Propagation::default()).unwrap();
        assert!(sql.contains("'%o''brien%'"), "{sql}");
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }
}
