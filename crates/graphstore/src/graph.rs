//! Property graph storage.
//!
//! Nodes carry a label (`Process` / `File` / `NetConn` for audit data) and a
//! property map; edges carry a label (`EVENT`) plus properties and connect
//! two nodes. Adjacency lists give index-free traversal in both directions.
//! A per-(label, property) value index accelerates anchor-node lookup by
//! property equality, and its key set doubles as the distinct-value
//! dictionary that `CONTAINS` predicates scan.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::pool::Pool;

/// Node id (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Edge id (arena index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// A property value. Strings are interned in the graph's dictionary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PropValue {
    Int(i64),
    Str(Sym),
}

#[derive(Debug)]
pub struct Node {
    pub label: Sym,
    pub props: Vec<(Sym, PropValue)>,
}

#[derive(Debug)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub label: Sym,
    pub props: Vec<(Sym, PropValue)>,
}

/// The property graph.
pub struct Graph {
    dict: SharedDict,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    inn: Vec<Vec<EdgeId>>,
    /// label → node ids.
    label_nodes: FxHashMap<Sym, Vec<NodeId>>,
    /// (node label, prop key) → string prop value → node ids. Built lazily
    /// via [`Graph::create_node_index`].
    value_index: FxHashMap<(Sym, Sym), FxHashMap<PropValue, Vec<NodeId>>>,
    /// Worker pool for fanning path search out per anchor node (see
    /// `cypher::exec`). One thread ⇒ the exact sequential code paths.
    pool: Pool,
}

/// A property being written (strings interned on the way in).
#[derive(Clone, Copy, Debug)]
pub enum PropIns<'a> {
    Int(i64),
    Str(&'a str),
}

impl Default for Graph {
    fn default() -> Self {
        Self::with_dict(SharedDict::new())
    }
}

impl Graph {
    /// A graph over its own private dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// A graph interning into `dict` — the shared dictionary plane. The
    /// engine hands one dictionary to both backends at `empty()`/`load()`
    /// time so equal strings compare as equal symbols across stores.
    pub fn with_dict(dict: SharedDict) -> Self {
        Graph {
            dict,
            nodes: Vec::new(),
            edges: Vec::new(),
            out: Vec::new(),
            inn: Vec::new(),
            label_nodes: FxHashMap::default(),
            value_index: FxHashMap::default(),
            pool: Pool::default(),
        }
    }

    pub fn dict(&self) -> &SharedDict {
        &self.dict
    }

    /// The worker pool path search fans out on. Defaults to
    /// `RAPTOR_THREADS` / available parallelism; see [`Graph::set_threads`].
    pub fn pool(&self) -> Pool {
        self.pool
    }

    /// Pins the traversal worker count (1 ⇒ strictly sequential).
    pub fn set_threads(&mut self, threads: usize) {
        self.pool = Pool::with_threads(threads);
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    pub fn out_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.out[id.0 as usize]
    }

    pub fn in_edges(&self, id: NodeId) -> &[EdgeId] {
        &self.inn[id.0 as usize]
    }

    /// All nodes with a label.
    pub fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        self.dict
            .get(label)
            .and_then(|sym| self.label_nodes.get(&sym))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterates node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Interns a label and property list into the shared plane — the
    /// shared prefix of [`Graph::add_node`] / [`Graph::add_edge`].
    fn intern(&self, label: &str, props: &[(&str, PropIns<'_>)]) -> (Sym, Vec<(Sym, PropValue)>) {
        let label = self.dict.intern(label);
        let interned = props
            .iter()
            .map(|(k, v)| {
                let key = self.dict.intern(k);
                let val = match v {
                    PropIns::Int(i) => PropValue::Int(*i),
                    PropIns::Str(s) => PropValue::Str(self.dict.intern(s)),
                };
                (key, val)
            })
            .collect();
        (label, interned)
    }

    pub fn add_node(&mut self, label: &str, props: &[(&str, PropIns<'_>)]) -> NodeId {
        let (label, props) = self.intern(label, props);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { label, props });
        self.out.push(Vec::new());
        self.inn.push(Vec::new());
        self.label_nodes.entry(label).or_default().push(id);
        // Maintain any existing value indexes covering this label.
        let node = self.nodes.last().unwrap();
        for &(key, val) in &node.props {
            if let Some(ix) = self.value_index.get_mut(&(label, key)) {
                ix.entry(val).or_default().push(id);
            }
        }
        id
    }

    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        label: &str,
        props: &[(&str, PropIns<'_>)],
    ) -> Result<EdgeId> {
        if src.0 as usize >= self.nodes.len() || dst.0 as usize >= self.nodes.len() {
            return Err(Error::storage("edge endpoint does not exist"));
        }
        let (label, props) = self.intern(label, props);
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { src, dst, label, props });
        self.out[src.0 as usize].push(id);
        self.inn[dst.0 as usize].push(id);
        Ok(id)
    }

    /// Builds (or rebuilds) the value index for `(label, key)`.
    pub fn create_node_index(&mut self, label: &str, key: &str) {
        let label = self.dict.intern(label);
        let key = self.dict.intern(key);
        let mut ix: FxHashMap<PropValue, Vec<NodeId>> = FxHashMap::default();
        if let Some(ids) = self.label_nodes.get(&label) {
            for &id in ids {
                if let Some(v) = prop_of(&self.nodes[id.0 as usize].props, key) {
                    ix.entry(v).or_default().push(id);
                }
            }
        }
        self.value_index.insert((label, key), ix);
    }

    /// Point lookup through the value index, if one exists.
    pub fn indexed_nodes(&self, label: &str, key: &str, value: PropValue) -> Option<&[NodeId]> {
        let label = self.dict.get(label)?;
        let key = self.dict.get(key)?;
        let ix = self.value_index.get(&(label, key))?;
        Some(ix.get(&value).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Distinct string values of an indexed (label, key), for CONTAINS scans.
    pub fn indexed_values(&self, label: &str, key: &str) -> Option<Vec<(Sym, &[NodeId])>> {
        let label = self.dict.get(label)?;
        let key = self.dict.get(key)?;
        let ix = self.value_index.get(&(label, key))?;
        let mut out = Vec::with_capacity(ix.len());
        for (v, ids) in ix {
            if let PropValue::Str(s) = v {
                out.push((*s, ids.as_slice()));
            }
        }
        Some(out)
    }

    /// Property of a node by key name.
    pub fn node_prop(&self, id: NodeId, key: &str) -> Option<PropValue> {
        let key = self.dict.get(key)?;
        prop_of(&self.nodes[id.0 as usize].props, key)
    }

    /// Property of an edge by key name.
    pub fn edge_prop(&self, id: EdgeId, key: &str) -> Option<PropValue> {
        let key = self.dict.get(key)?;
        prop_of(&self.edges[id.0 as usize].props, key)
    }

    /// Renders a property value for display.
    pub fn render(&self, v: PropValue) -> String {
        match v {
            PropValue::Int(i) => i.to_string(),
            PropValue::Str(s) => self.dict.resolve(s).to_string(),
        }
    }
}

pub(crate) fn prop_of(props: &[(Sym, PropValue)], key: Sym) -> Option<PropValue> {
    props.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let p = g.add_node(
            "Process",
            &[("exename", PropIns::Str("/bin/tar")), ("pid", PropIns::Int(100))],
        );
        let f = g.add_node("File", &[("name", PropIns::Str("/etc/passwd"))]);
        let f2 = g.add_node("File", &[("name", PropIns::Str("/tmp/upload.tar"))]);
        g.add_edge(
            p,
            f,
            "EVENT",
            &[("optype", PropIns::Str("read")), ("starttime", PropIns::Int(100))],
        )
        .unwrap();
        g.add_edge(
            p,
            f2,
            "EVENT",
            &[("optype", PropIns::Str("write")), ("starttime", PropIns::Int(200))],
        )
        .unwrap();
        (g, p, f, f2)
    }

    #[test]
    fn adjacency() {
        let (g, p, f, f2) = tiny();
        assert_eq!(g.out_edges(p).len(), 2);
        assert_eq!(g.in_edges(f), &[EdgeId(0)]);
        assert_eq!(g.in_edges(f2), &[EdgeId(1)]);
        assert_eq!(g.edge(EdgeId(0)).dst, f);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn labels_partition_nodes() {
        let (g, p, ..) = tiny();
        assert_eq!(g.nodes_with_label("Process"), &[p]);
        assert_eq!(g.nodes_with_label("File").len(), 2);
        assert!(g.nodes_with_label("NetConn").is_empty());
    }

    #[test]
    fn props_accessible() {
        let (g, p, f, _) = tiny();
        assert_eq!(g.node_prop(p, "pid"), Some(PropValue::Int(100)));
        assert_eq!(g.render(g.node_prop(f, "name").unwrap()), "/etc/passwd");
        assert_eq!(g.node_prop(p, "missing"), None);
        assert_eq!(g.render(g.edge_prop(EdgeId(0), "optype").unwrap()), "read");
    }

    #[test]
    fn value_index_point_and_scan() {
        let (mut g, p, ..) = tiny();
        g.create_node_index("Process", "exename");
        let sym = g.dict().get("/bin/tar").unwrap();
        assert_eq!(g.indexed_nodes("Process", "exename", PropValue::Str(sym)).unwrap(), &[p]);
        // Unknown value: empty slice, not None.
        let other = PropValue::Int(42);
        assert_eq!(g.indexed_nodes("Process", "exename", other).unwrap(), &[] as &[NodeId]);
        // Distinct values enumerable.
        let vals = g.indexed_values("Process", "exename").unwrap();
        assert_eq!(vals.len(), 1);
        // No index ⇒ None.
        assert!(g.indexed_nodes("File", "name", other).is_none());
    }

    #[test]
    fn index_maintained_on_insert() {
        let (mut g, ..) = tiny();
        g.create_node_index("File", "name");
        let f3 = g.add_node("File", &[("name", PropIns::Str("/tmp/new"))]);
        let sym = g.dict().get("/tmp/new").unwrap();
        assert_eq!(g.indexed_nodes("File", "name", PropValue::Str(sym)).unwrap(), &[f3]);
    }

    #[test]
    fn bad_edge_rejected() {
        let mut g = Graph::new();
        let n = g.add_node("X", &[]);
        assert!(g.add_edge(n, NodeId(99), "E", &[]).is_err());
    }
}
