//! The generator's model of each store: what was put in, by id, so every
//! reply can be checked against it. Bodies are kept as hashes except where
//! the next edit needs the previous version.

use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT,
};
use neptune_ham::{ShardedHam, Value};
use neptune_storage::vfs::Vfs;
use std::path::Path;
use std::sync::Arc;

use crate::gen::{edit_lines, fnv, text, LINE};

/// Shards behind every benchmark server.
pub const SHARDS: usize = 8;
/// Sections per document, and paragraphs under each section.
const SECTIONS: [usize; 6] = [6, 6, 6, 5, 5, 5];
/// Nodes of one document subtree: the document, its sections, their
/// paragraphs. This is what one `linearize_graph` returns.
pub const DOC_NODES: usize = 1 + 6 + 33;
/// Import links leaving each document.
const IMPORTS_PER_DOC: usize = 4;
/// Distinct `codeType` values: one value selects 1 % of the static graph.
pub const CODE_TYPES: usize = 100;
/// Body of a static, editable or scratch node.
pub const BODY: usize = 2048;
/// Body of a node with deep history.
pub const HIST_BODY: usize = 4096;
/// Nodes each writer owns.
pub const PARTITION: usize = 64;
/// Nodes touched by the small change before each measured checkpoint.
pub const SCRATCH: usize = 50;
/// Build operations per explicit transaction: one fsync per batch.
const BATCH: usize = 512;

/// What a store holds besides the scratch nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSpec {
    /// Documents in the static graph (0: no static graph). 50 documents
    /// are 2 001 nodes.
    pub docs: usize,
    /// Writers, each owning [`PARTITION`] editable nodes.
    pub writers: usize,
    /// `(nodes, versions)` of deep history.
    pub history: Option<(usize, usize)>,
}

/// The attribute indices the workloads name.
#[derive(Debug, Clone, Copy)]
pub struct Attrs {
    pub content_type: AttributeIndex,
    pub code_type: AttributeIndex,
    pub relation: AttributeIndex,
}

/// One link of the static graph, by position of its ends in `ids`.
#[derive(Debug, Clone, Copy)]
pub struct StaticLink {
    pub id: LinkIndex,
    pub from: usize,
    pub to: usize,
    pub imports: bool,
}

/// The document graph: a root, documents of [`DOC_NODES`] nodes each joined
/// by `isPartOf` links, and `imports` links between documents.
#[derive(Debug, Clone, Default)]
pub struct StaticGraph {
    pub ids: Vec<NodeIndex>,
    pub body_hash: Vec<u64>,
    pub links: Vec<StaticLink>,
}

impl StaticGraph {
    /// Position in `ids` of document `d`'s own node.
    pub fn doc(d: usize) -> usize {
        1 + d * DOC_NODES
    }

    pub fn content_type(i: usize) -> &'static str {
        if i == 0 {
            "root"
        } else if (i - 1).is_multiple_of(DOC_NODES) {
            "document"
        } else {
            "text"
        }
    }

    pub fn code_type(i: usize) -> String {
        format!("k{:02}", i % CODE_TYPES)
    }

    /// Document `d` in traversal order: depth first, children by offset.
    pub fn doc_preorder(&self, d: usize) -> Vec<NodeIndex> {
        let base = Self::doc(d);
        let mut order = vec![self.ids[base]];
        let mut para = base + 1 + SECTIONS.len();
        for (s, &paras) in SECTIONS.iter().enumerate() {
            order.push(self.ids[base + 1 + s]);
            for _ in 0..paras {
                order.push(self.ids[para]);
                para += 1;
            }
        }
        order
    }

    /// Nodes carrying `codeType = k<kind>`, in index order.
    pub fn nodes_of_kind(&self, kind: usize) -> Vec<NodeIndex> {
        (kind..self.ids.len())
            .step_by(CODE_TYPES)
            .map(|i| self.ids[i])
            .collect()
    }

    /// `imports` links with both ends carrying `codeType = k<kind>`.
    pub fn import_links_within_kind(&self, kind: usize) -> Vec<LinkIndex> {
        self.links
            .iter()
            .filter(|l| l.imports && l.from % CODE_TYPES == kind && l.to % CODE_TYPES == kind)
            .map(|l| l.id)
            .collect()
    }
}

/// A node some client edits: the model keeps its current body (the next
/// edit starts from it) and version time.
#[derive(Debug, Clone)]
pub struct EditNode {
    pub id: NodeIndex,
    pub body: Vec<u8>,
    pub time: Time,
    /// Value last set by `set_node_attribute_value`, if any.
    pub code_type: Option<String>,
}

/// A node with deep history: time and content hash of every version.
#[derive(Debug, Clone)]
pub struct HistNode {
    pub id: NodeIndex,
    pub times: Vec<Time>,
    pub hashes: Vec<u64>,
}

/// Everything the generator knows about a store.
#[derive(Debug, Clone)]
pub struct Model {
    pub attrs: Attrs,
    pub graph: StaticGraph,
    pub partitions: Vec<Vec<EditNode>>,
    pub scratch: Vec<EditNode>,
    pub history: Vec<HistNode>,
    /// Bytes of node content and attribute values submitted so far.
    pub user_bytes: u64,
}

/// Issues build operations against MAIN, one explicit transaction per
/// [`BATCH`] of them.
struct Builder<'a> {
    ham: &'a ShardedHam,
    in_batch: usize,
    user_bytes: u64,
}

type Built<T> = Result<T, String>;

fn es<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

impl Builder<'_> {
    fn step(&mut self) -> Built<()> {
        if self.in_batch == 0 {
            self.ham.begin_transaction().map_err(es)?;
        }
        self.in_batch += 1;
        if self.in_batch == BATCH {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> Built<()> {
        if self.in_batch > 0 {
            self.ham.commit_transaction().map_err(es)?;
            self.in_batch = 0;
        }
        Ok(())
    }

    fn node(&mut self, body: &[u8]) -> Built<(NodeIndex, Time)> {
        self.step()?;
        let mut g = self.ham.lock_home(MAIN_CONTEXT).map_err(es)?;
        let (id, t0) = g.add_node(MAIN_CONTEXT, true).map_err(es)?;
        let t = g.modify_node(MAIN_CONTEXT, id, t0, body, &[]).map_err(es)?;
        self.user_bytes += body.len() as u64;
        Ok((id, t))
    }

    fn modify(&mut self, id: NodeIndex, time: Time, body: &[u8]) -> Built<Time> {
        self.step()?;
        let mut g = self.ham.lock_home(MAIN_CONTEXT).map_err(es)?;
        self.user_bytes += body.len() as u64;
        g.modify_node(MAIN_CONTEXT, id, time, body, &[]).map_err(es)
    }

    fn node_attr(&mut self, id: NodeIndex, attr: AttributeIndex, value: &str) -> Built<()> {
        self.step()?;
        let mut g = self.ham.lock_home(MAIN_CONTEXT).map_err(es)?;
        self.user_bytes += value.len() as u64;
        g.set_node_attribute_value(MAIN_CONTEXT, id, attr, Value::str(value))
            .map_err(es)
    }

    fn link(
        &mut self,
        from: LinkPt,
        to: LinkPt,
        relation: AttributeIndex,
        value: &str,
    ) -> Built<LinkIndex> {
        self.step()?;
        let mut g = self.ham.lock_home(MAIN_CONTEXT).map_err(es)?;
        let (id, _) = g.add_link(MAIN_CONTEXT, from, to).map_err(es)?;
        self.user_bytes += value.len() as u64;
        g.set_link_attribute_value(MAIN_CONTEXT, id, relation, Value::str(value))
            .map_err(es)?;
        Ok(id)
    }
}

fn build_static(b: &mut Builder<'_>, attrs: Attrs, docs: usize, seed: u64) -> Built<StaticGraph> {
    let mut graph = StaticGraph::default();
    for i in 0..1 + docs * DOC_NODES {
        let body = text(BODY, seed.wrapping_add(i as u64));
        let (id, _) = b.node(&body)?;
        b.node_attr(id, attrs.content_type, StaticGraph::content_type(i))?;
        b.node_attr(id, attrs.code_type, &StaticGraph::code_type(i))?;
        graph.ids.push(id);
        graph.body_hash.push(fnv(&body));
    }
    // Children attach eight bytes apart, so traversal order (by offset) is
    // creation order and every offset lies inside the body.
    let tree = |b: &mut Builder<'_>, g: &mut StaticGraph, from: usize, ord: usize, to: usize| {
        let id = b.link(
            LinkPt::current(g.ids[from], (ord * 8) as u64),
            LinkPt::current(g.ids[to], 0),
            attrs.relation,
            "isPartOf",
        )?;
        g.links.push(StaticLink {
            id,
            from,
            to,
            imports: false,
        });
        Ok::<(), String>(())
    };
    for d in 0..docs {
        let base = StaticGraph::doc(d);
        tree(b, &mut graph, 0, d, base)?;
        let mut para = base + 1 + SECTIONS.len();
        for (s, &paras) in SECTIONS.iter().enumerate() {
            tree(b, &mut graph, base, s, base + 1 + s)?;
            for p in 0..paras {
                tree(b, &mut graph, base + 1 + s, p, para)?;
                para += 1;
            }
        }
    }
    // Imports leave a document's last paragraphs for other documents; the
    // targets are fixed by position, not by seed, so the shape of the graph
    // (and what it costs to store) is the same for every seed.
    for d in 0..docs {
        for k in 0..IMPORTS_PER_DOC {
            let from = StaticGraph::doc(d) + DOC_NODES - 1 - k;
            let to = StaticGraph::doc((d + 1 + 7 * k) % docs);
            let id = b.link(
                LinkPt::current(graph.ids[from], LINE as u64),
                LinkPt::current(graph.ids[to], 0),
                attrs.relation,
                "imports",
            )?;
            graph.links.push(StaticLink {
                id,
                from,
                to,
                imports: true,
            });
        }
    }
    Ok(graph)
}

fn build_edit_nodes(
    b: &mut Builder<'_>,
    attrs: Attrs,
    n: usize,
    seed: u64,
) -> Built<Vec<EditNode>> {
    let mut nodes = Vec::with_capacity(n);
    for i in 0..n {
        let body = text(BODY, seed.wrapping_add(i as u64));
        let (id, time) = b.node(&body)?;
        b.node_attr(id, attrs.content_type, "code")?;
        nodes.push(EditNode {
            id,
            body,
            time,
            code_type: None,
        });
    }
    Ok(nodes)
}

/// The version stream of deep-history node `n`: each version is a two-line
/// edit of the one before.
pub struct VersionChain {
    body: Vec<u8>,
    seed: u64,
    version: u64,
}

impl VersionChain {
    pub fn new(seed: u64, n: usize) -> VersionChain {
        let seed = (seed ^ 0x4849_5354).wrapping_add((n as u64) << 32);
        VersionChain {
            body: text(HIST_BODY, seed),
            seed,
            version: 0,
        }
    }

    pub fn body(&self) -> &[u8] {
        &self.body
    }

    pub fn advance(&mut self) -> &[u8] {
        self.version += 1;
        edit_lines(&mut self.body, 2, self.seed.wrapping_add(self.version));
        &self.body
    }
}

fn build_history(
    b: &mut Builder<'_>,
    nodes: usize,
    versions: usize,
    seed: u64,
) -> Built<Vec<HistNode>> {
    let mut out = Vec::with_capacity(nodes);
    for n in 0..nodes {
        let mut chain = VersionChain::new(seed, n);
        let (id, mut time) = b.node(chain.body())?;
        let mut h = HistNode {
            id,
            times: vec![time],
            hashes: vec![fnv(chain.body())],
        };
        for _ in 1..versions {
            time = b.modify(id, time, chain.advance())?;
            h.times.push(time);
            h.hashes.push(fnv(chain.body()));
        }
        out.push(h);
    }
    Ok(out)
}

/// Create the store for `spec` under `dir` through `vfs`, populate it in
/// process, and leave it open.
pub fn build_store(
    vfs: Arc<dyn Vfs>,
    dir: &Path,
    spec: StoreSpec,
    seed: u64,
) -> Built<(ShardedHam, Model)> {
    let (ham, _, _) =
        ShardedHam::create_with(vfs, dir, Protections::DEFAULT, SHARDS).map_err(es)?;
    let attrs = {
        let mut g = ham.lock_home(MAIN_CONTEXT).map_err(es)?;
        let mut index = |name: &str| g.get_attribute_index(MAIN_CONTEXT, name).map_err(es);
        Attrs {
            content_type: index("contentType")?,
            code_type: index("codeType")?,
            relation: index("relation")?,
        }
    };
    let mut b = Builder {
        ham: &ham,
        in_batch: 0,
        user_bytes: 0,
    };
    let graph = if spec.docs > 0 {
        build_static(&mut b, attrs, spec.docs, seed ^ 0x5747_4154)?
    } else {
        StaticGraph::default()
    };
    let mut partitions = Vec::with_capacity(spec.writers);
    for w in 0..spec.writers {
        let lane = seed ^ 0x5041_5254 ^ ((w as u64 + 1) << 40);
        partitions.push(build_edit_nodes(&mut b, attrs, PARTITION, lane)?);
    }
    let scratch = build_edit_nodes(&mut b, attrs, SCRATCH, seed ^ 0x5343_5241)?;
    let history = match spec.history {
        Some((nodes, versions)) => build_history(&mut b, nodes, versions, seed)?,
        None => Vec::new(),
    };
    b.flush()?;
    let user_bytes = b.user_bytes;
    Ok((
        ham,
        Model {
            attrs,
            graph,
            partitions,
            scratch,
            history,
            user_bytes,
        },
    ))
}

/// The context every store starts with.
pub const MAIN: ContextId = MAIN_CONTEXT;
