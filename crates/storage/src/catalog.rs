//! The path cardinality catalog: exact bounded-length walk counts
//! maintained incrementally below the [`crate::MutableBackend`] write seam.
//!
//! A degree-power path estimate assumes every hop fans out by the
//! store-wide mean degree, which wildly overestimates stores whose
//! adjacency is *directional* (processes write files, files rarely point
//! anywhere). This module replaces assumption with measurement, à la
//! Pathce's pattern catalogs — `raptor-engine::estimate` costs every path
//! pattern against it:
//!
//! * `walks(k, c, d)` — the **exact** number of length-`k` event-edge walks
//!   from a class-`c` node to a class-`d` node, for `k ≤ `[`CATALOG_K`]
//!   (intermediate nodes unconstrained, mirroring TBQL path semantics),
//! * `op_pairs` — per `(src-class, optype, dst-class)` edge counts, the
//!   final-hop operation selectivities path patterns end on,
//! * bounded k-hop **frontier summaries** (`ends2`/`starts2`): per node, how
//!   many length-2 walks end/start there keyed by the far endpoint's class —
//!   both the O(degree) maintenance trick below and the seed data for
//!   frontier-cache estimation,
//! * `reachable_pairs(c, d)` — `|{c-nodes with out-edges}| × |{d-nodes with
//!   in-edges}|`, the hard upper bound on distinct path endpoints any
//!   estimate is clamped to.
//!
//! **Maintenance is exact and insertion-order independent.** Walk counts
//! count *walks* (edges may repeat), so inserting edge `e = u→v` adds
//! exactly the walks that use `e` at least once, all computable from the
//! pre-insert state: `e` as first edge (`starts2[v]`), middle edge
//! (in-neighbours of `u` × out-neighbours of `v`, aggregated by class),
//! last edge (`ends2[u]`), plus the `u→v→u→v` double-use correction (one
//! per pre-existing `v→u` edge). Cost per insert is
//! `O(in_deg(u) + out_deg(v))`. Self-loop edges are counted at length 1 and
//! in `op_pairs` but excluded from multi-hop walks: a self-loop makes walk
//! counts diverge from anything a bounded path matcher returns, and
//! excluding them keeps every update expressible from pre-insert state.
//!
//! The catalog rides [`crate::StoreStats`] — the relational store's, the
//! only statistics bundle the system keeps — so bulk load, streaming
//! ingest, raw inserts and checkpoint replay produce identical catalogs by
//! construction.

use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};

use crate::request::EntityClass;

/// Maximum walk length cataloged exactly; longer paths extrapolate from the
/// `walks(K)/walks(K-1)` ratio.
pub const CATALOG_K: u32 = 3;

type ClassCounts = FxHashMap<EntityClass, u64>;

/// The incrementally-maintained path cardinality catalog. See the module
/// docs for the exact quantities and the maintenance argument.
#[derive(Debug, Clone, Default)]
pub struct PathCatalog {
    /// Non-self-loop event edges, as (neighbour, neighbour-class) multisets.
    out_adj: FxHashMap<i64, Vec<(i64, EntityClass)>>,
    in_adj: FxHashMap<i64, Vec<(i64, EntityClass)>>,
    /// `walks[k-1][(c, d)]`: exact length-`k` walk counts, `k ∈ 1..=CATALOG_K`.
    walks: [FxHashMap<(EntityClass, EntityClass), u64>; CATALOG_K as usize],
    /// Length-2 walks ending at a node, keyed by the walk's start class.
    ends2: FxHashMap<i64, ClassCounts>,
    /// Length-2 walks starting at a node, keyed by the walk's end class.
    starts2: FxHashMap<i64, ClassCounts>,
    /// Edge counts per (src-class, optype, dst-class), self-loops included.
    op_pairs: FxHashMap<(EntityClass, Sym, EntityClass), u64>,
    /// Nodes with ≥1 out-edge / ≥1 in-edge, per class (self-loops count).
    distinct_src: ClassCounts,
    distinct_dst: ClassCounts,
    has_out: raptor_common::hash::FxHashSet<i64>,
    has_in: raptor_common::hash::FxHashSet<i64>,
    edges: u64,
}

impl PathCatalog {
    /// Exact number of length-`k` walks from class `c` to class `d`
    /// (`0` for `k == 0` or `k > CATALOG_K`).
    pub fn walks(&self, k: u32, c: EntityClass, d: EntityClass) -> u64 {
        if k == 0 || k > CATALOG_K {
            return 0;
        }
        self.walks[(k - 1) as usize].get(&(c, d)).copied().unwrap_or(0)
    }

    /// Edges with operation `op` from class `c` to class `d`.
    pub fn op_pair_count(&self, c: EntityClass, op: Sym, d: EntityClass) -> u64 {
        self.op_pairs.get(&(c, op, d)).copied().unwrap_or(0)
    }

    /// Edges with operation `op` landing on class `d`, any source class.
    pub fn op_into_class(&self, op: Sym, d: EntityClass) -> u64 {
        self.op_pairs.iter().filter(|((_, o, dd), _)| *o == op && *dd == d).map(|(_, n)| n).sum()
    }

    /// All edges landing on class `d`.
    pub fn edges_into_class(&self, d: EntityClass) -> u64 {
        self.op_pairs.iter().filter(|((_, _, dd), _)| *dd == d).map(|(_, n)| n).sum()
    }

    /// Upper bound on distinct (subject, object) path endpoints: sources
    /// with any out-edge times destinations with any in-edge.
    pub fn reachable_pairs(&self, c: EntityClass, d: EntityClass) -> u64 {
        self.distinct_src.get(&c).copied().unwrap_or(0)
            * self.distinct_dst.get(&d).copied().unwrap_or(0)
    }

    /// Registers one event edge `u → v` with operation `op`. `cu`/`cv` are
    /// the endpoints' entity classes (callers resolve them from the stats
    /// plane's node registry; edges whose endpoints were never registered
    /// are invisible to the catalog, matching the degree summaries).
    pub fn record_edge(&mut self, u: i64, v: i64, cu: EntityClass, cv: EntityClass, op: Sym) {
        self.edges += 1;
        *self.op_pairs.entry((cu, op, cv)).or_insert(0) += 1;
        *self.walks[0].entry((cu, cv)).or_insert(0) += 1;
        if self.has_out.insert(u) {
            *self.distinct_src.entry(cu).or_insert(0) += 1;
        }
        if self.has_in.insert(v) {
            *self.distinct_dst.entry(cv).or_insert(0) += 1;
        }
        if u == v {
            // Self-loops are excluded from multi-hop walks (module docs).
            return;
        }

        // Everything below reads *pre-insert* state: aggregate the
        // neighbourhoods by class, note pre-existing back edges `v → u`.
        let mut in_by_class = ClassCounts::default();
        for &(_, cw) in self.in_adj.get(&u).into_iter().flatten() {
            *in_by_class.entry(cw).or_insert(0) += 1;
        }
        let mut out_by_class = ClassCounts::default();
        let mut back_edges = 0u64;
        for &(x, cx) in self.out_adj.get(&v).into_iter().flatten() {
            *out_by_class.entry(cx).or_insert(0) += 1;
            if x == u {
                back_edges += 1;
            }
        }

        // Length 2: `w→u→v` and `u→v→x`.
        for (&cw, &n) in &in_by_class {
            *self.walks[1].entry((cw, cv)).or_insert(0) += n;
        }
        for (&cx, &n) in &out_by_class {
            *self.walks[1].entry((cu, cx)).or_insert(0) += n;
        }

        // Length 3: the new edge as last / first / middle edge, plus the
        // `u→v→u→v` double-use walks (one per pre-existing back edge).
        if let Some(ends) = self.ends2.get(&u) {
            for (&c, &n) in ends {
                *self.walks[2].entry((c, cv)).or_insert(0) += n;
            }
        }
        if let Some(starts) = self.starts2.get(&v) {
            for (&d, &n) in starts {
                *self.walks[2].entry((cu, d)).or_insert(0) += n;
            }
        }
        for (&cw, &a) in &in_by_class {
            for (&cx, &b) in &out_by_class {
                *self.walks[2].entry((cw, cx)).or_insert(0) += a * b;
            }
        }
        if back_edges > 0 {
            *self.walks[2].entry((cu, cv)).or_insert(0) += back_edges;
        }

        // Frontier summaries gain the new length-2 walks.
        {
            let ends_v = self.ends2.entry(v).or_default();
            for (&cw, &n) in &in_by_class {
                *ends_v.entry(cw).or_insert(0) += n;
            }
        }
        {
            let starts_u = self.starts2.entry(u).or_default();
            for (&cx, &n) in &out_by_class {
                *starts_u.entry(cx).or_insert(0) += n;
            }
        }
        // Per-node fan-out of the new walks needs the concrete neighbours.
        let far_out: Vec<i64> =
            self.out_adj.get(&v).into_iter().flatten().map(|&(x, _)| x).collect();
        for x in far_out {
            *self.ends2.entry(x).or_default().entry(cu).or_insert(0) += 1;
        }
        let far_in: Vec<i64> = self.in_adj.get(&u).into_iter().flatten().map(|&(w, _)| w).collect();
        for w in far_in {
            *self.starts2.entry(w).or_default().entry(cv).or_insert(0) += 1;
        }

        self.out_adj.entry(u).or_default().push((v, cv));
        self.in_adj.entry(v).or_default().push((u, cu));
    }

    /// Dictionary-independent, deterministically-ordered view for
    /// equality assertions across independently grown stores (bulk load vs
    /// streaming ingest). Adjacency working state is excluded — it is
    /// implied by the counts.
    pub fn canonical(&self, dict: &SharedDict) -> CanonicalCatalog {
        use std::collections::BTreeMap;
        let name = |c: EntityClass| c.table_name().to_string();
        let mut walks: [BTreeMap<(String, String), u64>; CATALOG_K as usize] = Default::default();
        for (k, m) in self.walks.iter().enumerate() {
            walks[k] = m.iter().map(|(&(c, d), &n)| ((name(c), name(d)), n)).collect();
        }
        CanonicalCatalog {
            edges: self.edges,
            walks,
            op_pairs: self
                .op_pairs
                .iter()
                .map(|(&(c, op, d), &n)| ((name(c), dict.resolve(op).to_string(), name(d)), n))
                .collect(),
            ends2: self
                .ends2
                .iter()
                .filter(|(_, m)| !m.is_empty())
                .map(|(&id, m)| (id, m.iter().map(|(&c, &n)| (name(c), n)).collect()))
                .collect(),
            starts2: self
                .starts2
                .iter()
                .filter(|(_, m)| !m.is_empty())
                .map(|(&id, m)| (id, m.iter().map(|(&c, &n)| (name(c), n)).collect()))
                .collect(),
            distinct_src: self.distinct_src.iter().map(|(&c, &n)| (name(c), n)).collect(),
            distinct_dst: self.distinct_dst.iter().map(|(&c, &n)| (name(c), n)).collect(),
        }
    }
}

/// See [`PathCatalog::canonical`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalCatalog {
    pub edges: u64,
    pub walks: [std::collections::BTreeMap<(String, String), u64>; CATALOG_K as usize],
    pub op_pairs: std::collections::BTreeMap<(String, String, String), u64>,
    pub ends2: std::collections::BTreeMap<i64, std::collections::BTreeMap<String, u64>>,
    pub starts2: std::collections::BTreeMap<i64, std::collections::BTreeMap<String, u64>>,
    pub distinct_src: std::collections::BTreeMap<String, u64>,
    pub distinct_dst: std::collections::BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: EntityClass = EntityClass::Process;
    const F: EntityClass = EntityClass::File;

    fn cat() -> (PathCatalog, Sym, SharedDict) {
        let dict = SharedDict::new();
        let op = dict.intern("read");
        (PathCatalog::default(), op, dict)
    }

    /// Chain 0→1→2→3 (process→process→process→file): one walk per length.
    #[test]
    fn chain_counts_every_length() {
        let (mut c, op, _) = cat();
        c.record_edge(0, 1, P, P, op);
        c.record_edge(1, 2, P, P, op);
        c.record_edge(2, 3, P, F, op);
        assert_eq!(c.walks(1, P, P), 2);
        assert_eq!(c.walks(1, P, F), 1);
        assert_eq!(c.walks(2, P, P), 1); // 0→1→2
        assert_eq!(c.walks(2, P, F), 1); // 1→2→3
        assert_eq!(c.walks(3, P, F), 1); // 0→1→2→3
        assert_eq!(c.walks(3, P, P), 0);
        assert_eq!(c.reachable_pairs(P, F), 3); // {0,1,2} × {3}
        assert_eq!(c.op_pair_count(P, op, F), 1);
        assert_eq!(c.op_into_class(op, F), 1);
        assert_eq!(c.edges_into_class(P), 2);
    }

    /// Walk counts are a pure function of the edge multiset: every
    /// insertion order of a cyclic, multi-edge graph converges to the same
    /// canonical catalog (the double-use `u→v→u→v` correction included).
    #[test]
    fn order_independent_with_cycles() {
        let dict = SharedDict::new();
        let op = dict.intern("fork");
        // 2-cycle with a parallel edge and a tail: 0⇄1 (0→1 twice), 1→2.
        let edges = [(0i64, 1i64), (0, 1), (1, 0), (1, 2)];
        let classes = |id: i64| if id == 2 { F } else { P };
        let mut perms: Vec<Vec<usize>> = Vec::new();
        // All 4! orders via Heap's algorithm would be overkill; a sample of
        // structurally distinct orders exercises every maintenance branch.
        for perm in
            [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2], [2, 3, 0, 1], [0, 2, 1, 3]]
        {
            perms.push(perm.to_vec());
        }
        let build = |order: &[usize]| {
            let mut c = PathCatalog::default();
            for &i in order {
                let (u, v) = edges[i];
                c.record_edge(u, v, classes(u), classes(v), op);
            }
            c.canonical(&dict)
        };
        let reference = build(&perms[0]);
        // Ground truth by enumeration over the final graph.
        // Length 2 P→P: 0→1→0 (×2), 1→0→1 (×2); P→F: 0→1→2 (×2).
        // Length 3 P→P: 0→1→0→1 (×2·1·2), 1→0→1→0 (×1·2·1);
        //          P→F: 1→0→1→2 (×1·2·1).
        assert_eq!(reference.walks[1][&("processes".into(), "processes".into())], 4);
        assert_eq!(reference.walks[1][&("processes".into(), "files".into())], 2);
        assert_eq!(reference.walks[2][&("processes".into(), "processes".into())], 6);
        assert_eq!(reference.walks[2][&("processes".into(), "files".into())], 2);
        for p in &perms[1..] {
            assert_eq!(build(p), reference, "order {p:?}");
        }
    }

    /// Self-loops count at length 1 and in op pairs but never in
    /// multi-hop walks, regardless of surrounding edges.
    #[test]
    fn self_loops_stay_single_hop() {
        let (mut c, op, _) = cat();
        c.record_edge(0, 0, P, P, op);
        c.record_edge(0, 1, P, F, op);
        c.record_edge(0, 0, P, P, op);
        assert_eq!(c.walks(1, P, P), 2);
        assert_eq!(c.walks(1, P, F), 1);
        assert_eq!(c.walks(2, P, P), 0);
        assert_eq!(c.walks(2, P, F), 0);
        assert_eq!(c.op_pair_count(P, op, P), 2);
        // The loop still proves node 0 reaches and is reached.
        assert_eq!(c.reachable_pairs(P, P), 1);
    }
}
