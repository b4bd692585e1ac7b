//! Cypher execution.
//!
//! Pipeline: for each path pattern (in MATCH order) — anchor the start node
//! (bound variable, indexed property lookup, label scan, or full scan), then
//! extend bindings along each relationship segment (fixed-length via
//! adjacency, variable-length via bounded DFS with edge-distinctness) —
//! applying WHERE conjuncts as soon as all their variables are bound,
//! then project RETURN items, DISTINCT, LIMIT.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};

use super::ast::*;
use crate::graph::{prop_of, EdgeId, Graph, NodeId, PropValue};

/// Default hop cap for unbounded variable-length patterns (`[*]`, `[*2..]`).
pub const DEFAULT_MAX_HOPS: u32 = 8;

/// A value projected out of a query. Strings stay interned — the engine
/// converts them straight to shared-plane `raptor_storage::Value`s with no
/// materialization; rendering resolves through the graph's dictionary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum GVal {
    Int(i64),
    Str(Sym),
    Null,
}

impl GVal {
    pub fn render(&self, dict: &SharedDict) -> String {
        match self {
            GVal::Int(i) => i.to_string(),
            GVal::Str(s) => dict.resolve(*s).to_string(),
            GVal::Null => String::new(),
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            GVal::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphQueryStats {
    pub nodes_scanned: usize,
    pub edges_traversed: usize,
    pub bindings_built: usize,
}

/// Query result: projected columns and rows.
#[derive(Clone, Debug)]
pub struct CypherResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<GVal>>,
    pub stats: GraphQueryStats,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BindVal {
    Unbound,
    Node(NodeId),
    Edge(EdgeId),
}

struct VarTable {
    slots: FxHashMap<String, usize>,
    count: usize,
}

impl VarTable {
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.count;
        self.slots.insert(name.to_string(), s);
        self.count += 1;
        s
    }

    fn lookup(&self, name: &str) -> Result<usize> {
        self.slots
            .get(name)
            .copied()
            .ok_or_else(|| Error::semantic(format!("unknown variable `{name}`")))
    }
}

fn lit_to_prop(g: &Graph, lit: &CLit) -> Option<PropValue> {
    match lit {
        CLit::Int(i) => Some(PropValue::Int(*i)),
        CLit::Str(s) => g.dict().get(s).map(PropValue::Str),
        CLit::Sym(s) => Some(PropValue::Str(*s)),
    }
}

/// Does `node` satisfy the pattern's label and property map?
fn node_matches(g: &Graph, id: NodeId, pat: &NodePattern) -> bool {
    let n = g.node(id);
    if let Some(label) = &pat.label {
        match g.dict().get(label) {
            Some(sym) if n.label == sym => {}
            _ => return false,
        }
    }
    props_match(g, &n.props, &pat.props)
}

fn edge_matches(g: &Graph, id: EdgeId, pat: &RelPattern) -> bool {
    let e = g.edge(id);
    if let Some(label) = &pat.label {
        match g.dict().get(label) {
            Some(sym) if e.label == sym => {}
            _ => return false,
        }
    }
    props_match(g, &e.props, &pat.props)
}

fn props_match(
    g: &Graph,
    actual: &[(raptor_common::Sym, PropValue)],
    wanted: &[(String, CLit)],
) -> bool {
    wanted.iter().all(|(k, lit)| {
        let Some(key) = g.dict().get(k) else { return false };
        let Some(want) = lit_to_prop(g, lit) else { return false };
        prop_of(actual, key) == Some(want)
    })
}

/// Candidate anchors for a path start: tightest available access path.
fn anchor_candidates(
    g: &Graph,
    pat: &NodePattern,
    extra: &[&CExpr],
    stats: &mut GraphQueryStats,
) -> Vec<NodeId> {
    // 1. Indexed property-map equality.
    if let Some(label) = &pat.label {
        for (k, lit) in &pat.props {
            if let Some(v) = lit_to_prop(g, lit) {
                if let Some(ids) = g.indexed_nodes(label, k, v) {
                    stats.nodes_scanned += ids.len();
                    return ids.to_vec();
                }
            }
        }
        // 2. Indexed WHERE conjuncts on this variable (= / CONTAINS /
        //    STARTS WITH / ENDS WITH / LIKE against the distinct-value
        //    dictionary).
        for e in extra {
            match e {
                CExpr::Cmp { left, op: COp::Eq, right: CmpRhs::Lit(lit) } => {
                    if let Some(v) = lit_to_prop(g, lit) {
                        if let Some(ids) = g.indexed_nodes(label, &left.prop, v) {
                            stats.nodes_scanned += ids.len();
                            return ids.to_vec();
                        }
                    } else {
                        // Literal string unseen in the graph: no node matches.
                        if g.indexed_values(label, &left.prop).is_some() {
                            return Vec::new();
                        }
                    }
                }
                CExpr::InList { left, list } => {
                    // `p.id IN [..]` — the scheduler's propagated filters.
                    let mut out = Vec::new();
                    let mut indexed = true;
                    for lit in list {
                        if let Some(v) = lit_to_prop(g, lit) {
                            match g.indexed_nodes(label, &left.prop, v) {
                                Some(ids) => out.extend_from_slice(ids),
                                None => {
                                    indexed = false;
                                    break;
                                }
                            }
                        }
                    }
                    if indexed {
                        stats.nodes_scanned += out.len();
                        return out;
                    }
                }
                CExpr::StrPred { left, kind, needle } => {
                    if let Some(values) = g.indexed_values(label, &left.prop) {
                        let mut out = Vec::new();
                        for (sym, ids) in values {
                            if kind.test(g.dict().resolve(sym), needle) {
                                out.extend_from_slice(ids);
                            }
                        }
                        stats.nodes_scanned += out.len();
                        return out;
                    }
                }
                _ => {}
            }
        }
        // 3. Label scan.
        let ids = g.nodes_with_label(label);
        stats.nodes_scanned += ids.len();
        return ids.to_vec();
    }
    // 4. Full scan.
    stats.nodes_scanned += g.node_count();
    g.node_ids().collect()
}

fn prop_value_of(g: &Graph, bind: BindVal, prop: &str) -> Option<PropValue> {
    match bind {
        BindVal::Node(n) => g.node_prop(n, prop),
        BindVal::Edge(e) => g.edge_prop(e, prop),
        BindVal::Unbound => None,
    }
}

fn eval_where(g: &Graph, e: &CExpr, binding: &[BindVal], vars: &VarTable) -> bool {
    match e {
        CExpr::Cmp { left, op, right } => {
            let Ok(ls) = vars.lookup(&left.var) else { return false };
            let Some(lv) = prop_value_of(g, binding[ls], &left.prop) else { return false };
            let rv = match right {
                CmpRhs::Lit(lit) => match lit {
                    CLit::Int(i) => PropValue::Int(*i),
                    CLit::Str(s) => match g.dict().get(s) {
                        Some(sym) => PropValue::Str(sym),
                        // Unseen string: only `<>` holds, and only for strings.
                        None => return matches!(op, COp::Ne) && matches!(lv, PropValue::Str(_)),
                    },
                    CLit::Sym(s) => PropValue::Str(*s),
                },
                CmpRhs::Prop(p) => {
                    let Ok(rs) = vars.lookup(&p.var) else { return false };
                    let Some(v) = prop_value_of(g, binding[rs], &p.prop) else { return false };
                    v
                }
            };
            use std::cmp::Ordering::*;
            let ord = match (lv, rv) {
                (PropValue::Int(a), PropValue::Int(b)) => a.cmp(&b),
                (PropValue::Str(a), PropValue::Str(b)) => {
                    if a == b {
                        Equal
                    } else {
                        g.dict().resolve(a).cmp(g.dict().resolve(b))
                    }
                }
                _ => return false,
            };
            match op {
                COp::Eq => ord == Equal,
                COp::Ne => ord != Equal,
                COp::Lt => ord == Less,
                COp::Le => ord != Greater,
                COp::Gt => ord == Greater,
                COp::Ge => ord != Less,
            }
        }
        CExpr::StrPred { left, kind, needle } => {
            let Ok(ls) = vars.lookup(&left.var) else { return false };
            let Some(PropValue::Str(sym)) = prop_value_of(g, binding[ls], &left.prop) else {
                return false;
            };
            kind.test(g.dict().resolve(sym), needle)
        }
        CExpr::InList { left, list } => {
            let Ok(ls) = vars.lookup(&left.var) else { return false };
            let Some(v) = prop_value_of(g, binding[ls], &left.prop) else { return false };
            list.iter().any(|lit| lit_to_prop(g, lit) == Some(v))
        }
        CExpr::And(a, b) => eval_where(g, a, binding, vars) && eval_where(g, b, binding, vars),
        CExpr::Or(a, b) => eval_where(g, a, binding, vars) || eval_where(g, b, binding, vars),
        CExpr::Not(inner) => !eval_where(g, inner, binding, vars),
    }
}

/// Evaluates a WHERE-style expression against a single bound node. This is
/// the frontier plane's hook for reusing the executor's predicate semantics
/// (string comparisons resolve through the dictionary, unseen literals only
/// satisfy `<>`, …) outside a full MATCH: `var` is the sole variable the
/// expression may reference.
pub(crate) fn eval_single_node(g: &Graph, e: &CExpr, var: &str, node: NodeId) -> bool {
    let mut vars = VarTable { slots: FxHashMap::default(), count: 0 };
    let slot = vars.slot(var);
    let mut binding = vec![BindVal::Unbound; vars.count];
    binding[slot] = BindVal::Node(node);
    eval_where(g, e, &binding, &vars)
}

/// Edge flavour of [`eval_single_node`].
pub(crate) fn eval_single_edge(g: &Graph, e: &CExpr, var: &str, edge: EdgeId) -> bool {
    let mut vars = VarTable { slots: FxHashMap::default(), count: 0 };
    let slot = vars.slot(var);
    let mut binding = vec![BindVal::Unbound; vars.count];
    binding[slot] = BindVal::Edge(edge);
    eval_where(g, e, &binding, &vars)
}

/// Runs a parsed query.
pub fn execute(g: &Graph, q: &CypherQuery, max_hops: u32) -> Result<CypherResult> {
    let mut stats = GraphQueryStats::default();
    let mut vars = VarTable { slots: FxHashMap::default(), count: 0 };

    // Pre-assign slots for all named pattern variables, in appearance order.
    for path in &q.paths {
        if let Some(v) = &path.start.var {
            vars.slot(v);
        }
        for (rel, node) in &path.segments {
            if let Some(v) = &rel.var {
                if rel.range.is_some() {
                    return Err(Error::semantic(format!(
                        "variable `{v}` binds a variable-length relationship; \
                         bind the final hop separately instead"
                    )));
                }
                vars.slot(v);
            }
            if let Some(v) = &node.var {
                vars.slot(v);
            }
        }
    }
    let nslots = vars.count;

    // Split WHERE into conjuncts; each applies once all its vars are bound.
    let conjuncts: Vec<CExpr> = q.where_clause.clone().map(|w| w.conjuncts()).unwrap_or_default();
    for c in &conjuncts {
        for v in c.vars() {
            vars.lookup(v)?; // fail fast on unknown vars
        }
    }
    let mut applied = vec![false; conjuncts.len()];
    let mut bound_names: Vec<String> = Vec::new();

    let mut bindings: Vec<Vec<BindVal>> = vec![vec![BindVal::Unbound; nslots]];

    for path in &q.paths {
        // --- anchor ---
        let start_slot = path.start.var.as_ref().map(|v| vars.slots[v.as_str()]);
        let already_bound = start_slot
            .map(|s| bindings.first().is_some_and(|b| b[s] != BindVal::Unbound))
            .unwrap_or(false);
        if already_bound {
            // Filter existing bindings by the start pattern.
            let slot = start_slot.unwrap();
            bindings.retain(|b| match b[slot] {
                BindVal::Node(n) => node_matches(g, n, &path.start),
                _ => false,
            });
        } else {
            // Anchor with WHERE conjuncts that reference only this new var.
            let var_name = path.start.var.clone();
            let extra: Vec<&CExpr> = conjuncts
                .iter()
                .filter(|c| {
                    if let Some(v) = &var_name {
                        let cv = c.vars();
                        cv.len() == 1 && cv[0] == v
                    } else {
                        false
                    }
                })
                .collect();
            let mut candidates = anchor_candidates(g, &path.start, &extra, &mut stats);
            candidates.retain(|&n| node_matches(g, n, &path.start));
            let mut next = Vec::with_capacity(bindings.len() * candidates.len().max(1));
            for b in &bindings {
                for &n in &candidates {
                    let mut nb = b.clone();
                    if let Some(s) = start_slot {
                        nb[s] = BindVal::Node(n);
                    } else {
                        // Anonymous start: tracked positionally below.
                    }
                    // Anonymous starts carry the node through `cursor`.
                    next.push((nb, n));
                }
            }
            // Re-pack: store cursor separately during extension.
            bindings = Vec::with_capacity(next.len());
            let mut cursors = Vec::with_capacity(next.len());
            for (nb, n) in next {
                bindings.push(nb);
                cursors.push(n);
            }
            extend_path(g, path, &mut bindings, cursors, &vars, max_hops, &mut stats)?;
            if let Some(v) = &path.start.var {
                if !bound_names.contains(v) {
                    bound_names.push(v.clone());
                }
            }
            for (rel, node) in &path.segments {
                for v in [&rel.var, &node.var].into_iter().flatten() {
                    if !bound_names.contains(v) {
                        bound_names.push(v.clone());
                    }
                }
            }
            apply_ready_conjuncts(g, &conjuncts, &mut applied, &bound_names, &mut bindings, &vars);
            stats.bindings_built += bindings.len();
            continue;
        }
        // Start var was already bound: cursors come from bindings.
        let slot = start_slot.expect("bound start must be named");
        let cursors: Vec<NodeId> = bindings
            .iter()
            .map(|b| match b[slot] {
                BindVal::Node(n) => n,
                _ => unreachable!("retained above"),
            })
            .collect();
        extend_path(g, path, &mut bindings, cursors, &vars, max_hops, &mut stats)?;
        for (rel, node) in &path.segments {
            for v in [&rel.var, &node.var].into_iter().flatten() {
                if !bound_names.contains(v) {
                    bound_names.push(v.clone());
                }
            }
        }
        apply_ready_conjuncts(g, &conjuncts, &mut applied, &bound_names, &mut bindings, &vars);
        stats.bindings_built += bindings.len();
    }

    // Any conjunct not yet applied references an unbound variable.
    if let Some(i) = applied.iter().position(|a| !a) {
        let c = &conjuncts[i];
        return Err(Error::semantic(format!(
            "WHERE references variable(s) {:?} never bound by MATCH",
            c.vars()
        )));
    }

    // --- projection ---
    let mut columns = Vec::new();
    let mut rows: Vec<Vec<GVal>> = Vec::with_capacity(bindings.len());
    for item in &q.return_items {
        columns.push(item.prop.to_string());
        vars.lookup(&item.prop.var)?;
    }
    for b in &bindings {
        let row: Vec<GVal> = q
            .return_items
            .iter()
            .map(|item| {
                let slot = vars.slots[item.prop.var.as_str()];
                match prop_value_of(g, b[slot], &item.prop.prop) {
                    Some(PropValue::Int(i)) => GVal::Int(i),
                    Some(PropValue::Str(s)) => GVal::Str(s),
                    None => GVal::Null,
                }
            })
            .collect();
        rows.push(row);
    }
    if q.distinct {
        let mut seen: raptor_common::FxHashSet<Vec<GVal>> = Default::default();
        rows.retain(|r| seen.insert(r.clone()));
    }
    if let Some(n) = q.limit {
        rows.truncate(n);
    }
    Ok(CypherResult { columns, rows, stats })
}

/// Bindings below which segment extension stays sequential — per-binding
/// work (adjacency walk or bounded DFS) dwarfs a filter row, so the bar for
/// fanning out over anchors is low.
const PAR_MIN_BINDINGS: usize = 16;

/// Extends one binding along one relationship segment, appending every
/// extension to `out_bindings`/`out_cursors` (in the deterministic
/// traversal order) and counting traversed edges into `edges`.
#[allow(clippy::too_many_arguments)]
fn extend_one(
    g: &Graph,
    rel: &RelPattern,
    node: &NodePattern,
    rel_slot: Option<usize>,
    node_slot: Option<usize>,
    max_hops: u32,
    b: &[BindVal],
    cur: NodeId,
    out_bindings: &mut Vec<Vec<BindVal>>,
    out_cursors: &mut Vec<NodeId>,
    edges: &mut usize,
) {
    match rel.range {
        None => {
            for &eid in g.out_edges(cur) {
                *edges += 1;
                if !edge_matches(g, eid, rel) {
                    continue;
                }
                let dst = g.edge(eid).dst;
                if !target_ok(g, b, node_slot, dst, node) {
                    continue;
                }
                let mut nb = b.to_vec();
                if let Some(s) = rel_slot {
                    nb[s] = BindVal::Edge(eid);
                }
                if let Some(s) = node_slot {
                    nb[s] = BindVal::Node(dst);
                }
                out_bindings.push(nb);
                out_cursors.push(dst);
            }
        }
        Some((min, max)) => {
            let min = min.unwrap_or(1);
            let max = max.unwrap_or(max_hops).min(max_hops);
            // Bounded DFS with edge-distinctness along the walk.
            // min = 0 allows the zero-hop match (start node itself),
            // which compiled `~>(1~n)` prefixes rely on.
            let mut stack: Vec<(NodeId, u32, Vec<EdgeId>)> = vec![(cur, 0, Vec::new())];
            while let Some((n, depth, used)) = stack.pop() {
                if depth >= min && (depth > 0 || min == 0) && target_ok(g, b, node_slot, n, node) {
                    let mut nb = b.to_vec();
                    if let Some(s) = node_slot {
                        nb[s] = BindVal::Node(n);
                    }
                    out_bindings.push(nb);
                    out_cursors.push(n);
                }
                if depth == max {
                    continue;
                }
                for &eid in g.out_edges(n) {
                    *edges += 1;
                    if used.contains(&eid) || !edge_matches(g, eid, rel) {
                        continue;
                    }
                    let mut used2 = used.clone();
                    used2.push(eid);
                    stack.push((g.edge(eid).dst, depth + 1, used2));
                }
            }
        }
    }
}

/// Extends `bindings` (with per-binding `cursors` at the current path
/// position) along every segment of `path`.
///
/// The per-binding extension — one adjacency walk or bounded DFS per anchor
/// — fans out over anchor ranges through the graph's pool. Partition
/// outputs (extensions plus edge counters) are absorbed in partition order,
/// so binding order and `edges_traversed` are byte-identical to the
/// sequential traversal at any thread count.
fn extend_path(
    g: &Graph,
    path: &PathPattern,
    bindings: &mut Vec<Vec<BindVal>>,
    mut cursors: Vec<NodeId>,
    vars: &VarTable,
    max_hops: u32,
    stats: &mut GraphQueryStats,
) -> Result<()> {
    for (rel, node) in &path.segments {
        let rel_slot = rel.var.as_ref().map(|v| vars.slots[v.as_str()]);
        let node_slot = node.var.as_ref().map(|v| vars.slots[v.as_str()]);
        let parts = g.pool().run_partitioned(bindings.len(), PAR_MIN_BINDINGS, |range| {
            let mut nb = Vec::new();
            let mut nc = Vec::new();
            let mut edges = 0usize;
            for (b, &cur) in bindings[range.clone()].iter().zip(&cursors[range]) {
                extend_one(
                    g, rel, node, rel_slot, node_slot, max_hops, b, cur, &mut nb, &mut nc,
                    &mut edges,
                );
            }
            (nb, nc, edges)
        });
        let total: usize = parts.iter().map(|(nb, _, _)| nb.len()).sum();
        let mut next_bindings = Vec::with_capacity(total);
        let mut next_cursors = Vec::with_capacity(total);
        for (nb, nc, edges) in parts {
            stats.edges_traversed += edges;
            next_bindings.extend(nb);
            next_cursors.extend(nc);
        }
        *bindings = next_bindings;
        cursors = next_cursors;
    }
    Ok(())
}

fn target_ok(
    g: &Graph,
    binding: &[BindVal],
    node_slot: Option<usize>,
    dst: NodeId,
    pat: &NodePattern,
) -> bool {
    if !node_matches(g, dst, pat) {
        return false;
    }
    // If the target variable is already bound, it must be the same node.
    if let Some(s) = node_slot {
        if let BindVal::Node(existing) = binding[s] {
            return existing == dst;
        }
        if let BindVal::Edge(_) = binding[s] {
            return false;
        }
    }
    true
}

fn apply_ready_conjuncts(
    g: &Graph,
    conjuncts: &[CExpr],
    applied: &mut [bool],
    bound: &[String],
    bindings: &mut Vec<Vec<BindVal>>,
    vars: &VarTable,
) {
    for (i, c) in conjuncts.iter().enumerate() {
        if applied[i] {
            continue;
        }
        if c.vars().iter().all(|v| bound.iter().any(|b| b == v)) {
            bindings.retain(|b| eval_where(g, c, b, vars));
            applied[i] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cypher::parse_cypher;
    use crate::graph::PropIns;

    /// The Figure 2 chain: tar→passwd, tar→upload.tar, bzip2→upload.tar,
    /// bzip2→upload.tar.bz2, gpg→..., curl→ip.
    fn fig2_graph() -> Graph {
        let mut g = Graph::new();
        let mk_proc = |g: &mut Graph, exe: &str, pid: i64| {
            g.add_node(
                "Process",
                &[
                    ("exename", PropIns::Str(exe)),
                    ("pid", PropIns::Int(pid)),
                    ("id", PropIns::Int(pid)),
                ],
            )
        };
        let mk_file = |g: &mut Graph, name: &str, id: i64| {
            g.add_node("File", &[("name", PropIns::Str(name)), ("id", PropIns::Int(id))])
        };
        let tar = mk_proc(&mut g, "/bin/tar", 100);
        let bzip = mk_proc(&mut g, "/bin/bzip2", 101);
        let gpg = mk_proc(&mut g, "/usr/bin/gpg", 102);
        let curl = mk_proc(&mut g, "/usr/bin/curl", 103);
        let passwd = mk_file(&mut g, "/etc/passwd", 200);
        let uptar = mk_file(&mut g, "/tmp/upload.tar", 201);
        let upbz2 = mk_file(&mut g, "/tmp/upload.tar.bz2", 202);
        let upload = mk_file(&mut g, "/tmp/upload", 203);
        let ip = g.add_node(
            "NetConn",
            &[("dstip", PropIns::Str("192.168.29.128")), ("id", PropIns::Int(300))],
        );
        let mut t = 0;
        let mut ev = |g: &mut Graph, s, d, op: &str| {
            t += 100;
            g.add_edge(
                s,
                d,
                "EVENT",
                &[("optype", PropIns::Str(op)), ("starttime", PropIns::Int(t))],
            )
            .unwrap();
        };
        ev(&mut g, tar, passwd, "read");
        ev(&mut g, tar, uptar, "write");
        ev(&mut g, bzip, uptar, "read");
        ev(&mut g, bzip, upbz2, "write");
        ev(&mut g, gpg, upbz2, "read");
        ev(&mut g, gpg, upload, "write");
        ev(&mut g, curl, upload, "read");
        ev(&mut g, curl, ip, "connect");
        g.create_node_index("Process", "exename");
        g.create_node_index("File", "name");
        g
    }

    fn run(g: &Graph, q: &str) -> Vec<Vec<String>> {
        let parsed = parse_cypher(q).unwrap();
        let r = execute(g, &parsed, DEFAULT_MAX_HOPS).unwrap();
        r.rows.iter().map(|row| row.iter().map(|v| v.render(g.dict())).collect()).collect()
    }

    #[test]
    fn single_pattern_with_contains() {
        let g = fig2_graph();
        let rows = run(
            &g,
            "MATCH (p:Process)-[e:EVENT {optype: 'read'}]->(f:File) \
             WHERE p.exename CONTAINS '/bin/tar' AND f.name CONTAINS '/etc/passwd' \
             RETURN DISTINCT p.exename, f.name",
        );
        assert_eq!(rows, vec![vec!["/bin/tar".to_string(), "/etc/passwd".to_string()]]);
    }

    #[test]
    fn shared_variable_joins_patterns() {
        let g = fig2_graph();
        // bzip2 reads upload.tar which tar wrote.
        let rows = run(
            &g,
            "MATCH (p1:Process)-[:EVENT {optype: 'write'}]->(f:File), \
                   (p2:Process)-[:EVENT {optype: 'read'}]->(f) \
             WHERE p1.exename CONTAINS 'tar' AND p2.exename CONTAINS 'bzip2' \
             RETURN p1.exename, p2.exename, f.name",
        );
        assert_eq!(
            rows,
            vec![vec![
                "/bin/tar".to_string(),
                "/bin/bzip2".to_string(),
                "/tmp/upload.tar".to_string()
            ]]
        );
    }

    #[test]
    fn temporal_where_between_edges() {
        let g = fig2_graph();
        let rows = run(
            &g,
            "MATCH (p:Process)-[e1:EVENT {optype:'read'}]->(f1:File), \
                   (p)-[e2:EVENT {optype:'write'}]->(f2:File) \
             WHERE e1.starttime < e2.starttime \
             RETURN p.exename, f1.name, f2.name",
        );
        // tar, bzip2, gpg each read-then-write.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn var_length_path_reaches_transitively() {
        let g = fig2_graph();
        // passwd flows to upload in 6 hops through alternating file/proc?
        // Our edges all point proc→file, so walk from a file needs in-edges;
        // instead check proc→file 1-hop vs 2-hop caps.
        let rows = run(
            &g,
            "MATCH (p:Process)-[:EVENT*1..2]->(f:File) \
             WHERE p.exename CONTAINS 'tar' RETURN DISTINCT f.name",
        );
        // From /bin/tar: passwd and upload.tar at depth 1; no deeper edges
        // from files (graph is bipartite proc→{file,net}).
        let mut got: Vec<String> = rows.into_iter().map(|mut r| r.remove(0)).collect();
        got.sort();
        assert_eq!(got, vec!["/etc/passwd".to_string(), "/tmp/upload.tar".to_string()]);
    }

    #[test]
    fn var_length_respects_min() {
        let mut g = Graph::new();
        let a = g.add_node("N", &[("name", PropIns::Str("a"))]);
        let b = g.add_node("N", &[("name", PropIns::Str("b"))]);
        let c = g.add_node("N", &[("name", PropIns::Str("c"))]);
        let d = g.add_node("N", &[("name", PropIns::Str("d"))]);
        g.add_edge(a, b, "E", &[]).unwrap();
        g.add_edge(b, c, "E", &[]).unwrap();
        g.add_edge(c, d, "E", &[]).unwrap();
        let rows = run(&g, "MATCH (x {name:'a'})-[:E*2..3]->(y) RETURN y.name");
        let mut got: Vec<String> = rows.into_iter().map(|mut r| r.remove(0)).collect();
        got.sort();
        assert_eq!(got, vec!["c".to_string(), "d".to_string()]);
    }

    #[test]
    fn var_length_cycle_terminates() {
        let mut g = Graph::new();
        let a = g.add_node("N", &[("name", PropIns::Str("a"))]);
        let b = g.add_node("N", &[("name", PropIns::Str("b"))]);
        g.add_edge(a, b, "E", &[]).unwrap();
        g.add_edge(b, a, "E", &[]).unwrap();
        // Unbounded: must not loop forever; edge-distinctness caps at 2 hops.
        let rows = run(&g, "MATCH (x {name:'a'})-[:E*]->(y) RETURN y.name");
        assert_eq!(rows.len(), 2); // b (1 hop), a (2 hops)
    }

    #[test]
    fn connect_pattern_to_netconn() {
        let g = fig2_graph();
        let rows = run(
            &g,
            "MATCH (p:Process)-[:EVENT {optype:'connect'}]->(i:NetConn) \
             WHERE i.dstip = '192.168.29.128' RETURN p.exename",
        );
        assert_eq!(rows, vec![vec!["/usr/bin/curl".to_string()]]);
    }

    #[test]
    fn unknown_literal_string_matches_nothing() {
        let g = fig2_graph();
        let rows = run(
            &g,
            "MATCH (p:Process)-[:EVENT]->(f:File) WHERE p.exename = '/bin/absent' RETURN f.name",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn where_on_unbound_var_is_error() {
        let g = fig2_graph();
        let q = parse_cypher("MATCH (p:Process) WHERE z.name = 'x' RETURN p.exename").unwrap();
        assert!(execute(&g, &q, DEFAULT_MAX_HOPS).is_err());
    }

    #[test]
    fn varlen_rel_binding_rejected() {
        let g = fig2_graph();
        let q =
            parse_cypher("MATCH (p:Process)-[e:EVENT*1..2]->(f:File) RETURN p.exename").unwrap();
        let err = execute(&g, &q, DEFAULT_MAX_HOPS).unwrap_err();
        assert!(err.to_string().contains("variable-length"));
    }

    #[test]
    fn limit_and_distinct() {
        let g = fig2_graph();
        let rows =
            run(&g, "MATCH (p:Process)-[:EVENT]->(f:File) RETURN DISTINCT p.exename LIMIT 2");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn in_list_where() {
        let g = fig2_graph();
        let rows = run(
            &g,
            "MATCH (p:Process)-[:EVENT]->(f:File) \
             WHERE p.exename IN ['/bin/tar', '/usr/bin/gpg'] RETURN DISTINCT p.exename",
        );
        assert_eq!(rows.len(), 2);
    }
}
