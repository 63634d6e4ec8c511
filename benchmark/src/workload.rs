//! The four workloads: their seeded op scripts, and the session that turns
//! a script into requests, times each one and checks each reply against
//! the model.
//!
//! A script names things by position in the model (static node 17, own
//! slot 3, version 200 of history node 5), never by id or time, so the same
//! seed gives the same script whatever ids and times the program hands out.
//! The session fills those in from the model and from earlier replies: the
//! program only ever sees generated requests.

use std::collections::VecDeque;
use std::sync::Arc;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{ContextId, LinkPt, NodeIndex, Time};
use neptune_ham::Value;
use neptune_server::{Client, Request, Response};

use crate::gen::{edit_lines, fnv, text, Rng};
use crate::model::{
    EditNode, Model, StaticGraph, StoreSpec, BODY, CODE_TYPES, DOC_NODES, MAIN, PARTITION,
};
use crate::probe_vfs::now_ns;

/// Versions of each deep-history node, and how many such nodes there are.
/// 32 x 512 = 16 384 (node, time) keys against a 256-entry version cache,
/// and 512 x 4 KiB = 2 MiB per node against a 256 KiB anchor budget.
pub const HIST_NODES: usize = 32;
pub const HIST_VERSIONS: usize = 512;
/// Documents in `browse_read`'s static graph: 2 001 nodes.
const BROWSE_DOCS: usize = 50;
/// Documents in `case_mixed`'s: 401 nodes. A fork onto another shard copies
/// the whole graph, so its size sets the cost of a round; this one keeps a
/// run inside its time budget.
const CASE_DOCS: usize = 10;
/// Live kept contexts per `case_mixed` client before the oldest is
/// destroyed: checkpoint cost grows with live contexts, and the run must
/// stay inside its time budget.
const KEPT_CONTEXTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseRead,
    EditCommit,
    HistoryRead,
    CaseMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BrowseRead,
        Workload::EditCommit,
        Workload::HistoryRead,
        Workload::CaseMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseRead => "browse_read",
            Workload::EditCommit => "edit_commit",
            Workload::HistoryRead => "history_read",
            Workload::CaseMixed => "case_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured phase issues no write.
    pub fn read_only(self) -> bool {
        matches!(self, Workload::BrowseRead | Workload::HistoryRead)
    }

    pub fn spec(self, clients: usize) -> StoreSpec {
        match self {
            Workload::BrowseRead => StoreSpec {
                docs: BROWSE_DOCS,
                writers: 0,
                history: None,
            },
            Workload::EditCommit => StoreSpec {
                docs: 0,
                writers: clients,
                history: None,
            },
            Workload::HistoryRead => StoreSpec {
                docs: 0,
                writers: 0,
                history: Some((HIST_NODES, HIST_VERSIONS)),
            },
            Workload::CaseMixed => StoreSpec {
                docs: CASE_DOCS,
                writers: clients,
                history: None,
            },
        }
    }

    /// Script units each client runs, untimed, before anything is measured.
    /// A fixed count, so the store the durability phase sees is the same on
    /// every run of a seed.
    pub fn warmup_units(self) -> usize {
        match self {
            Workload::BrowseRead | Workload::HistoryRead => 2000,
            Workload::EditCommit => 300,
            Workload::CaseMixed => 8,
        }
    }
}

/// What the load thread timed. The first twelve are the per-layer
/// `client.<op>` rows; `ForkMerge` is fork + merge of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OpenNode,
    OpenNodeHist,
    GetNodeAttributes,
    LinearizeGraph,
    GetGraphQuery,
    GetNodeDifferences,
    ModifyNode,
    SetNodeAttributeValue,
    CreateContext,
    MergeContext,
    DestroyContext,
    Txn,
    LinkEnd,
    GetNodeVersions,
    ForkMerge,
}

pub const KINDS: usize = 15;

impl Kind {
    pub const ALL: [Kind; KINDS] = [
        Kind::OpenNode,
        Kind::OpenNodeHist,
        Kind::GetNodeAttributes,
        Kind::LinearizeGraph,
        Kind::GetGraphQuery,
        Kind::GetNodeDifferences,
        Kind::ModifyNode,
        Kind::SetNodeAttributeValue,
        Kind::CreateContext,
        Kind::MergeContext,
        Kind::DestroyContext,
        Kind::Txn,
        Kind::LinkEnd,
        Kind::GetNodeVersions,
        Kind::ForkMerge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenNode => "open_node",
            Kind::OpenNodeHist => "open_node_hist",
            Kind::GetNodeAttributes => "get_node_attributes",
            Kind::LinearizeGraph => "linearize_graph",
            Kind::GetGraphQuery => "get_graph_query",
            Kind::GetNodeDifferences => "get_node_differences",
            Kind::ModifyNode => "modify_node",
            Kind::SetNodeAttributeValue => "set_node_attribute_value",
            Kind::CreateContext => "create_context",
            Kind::MergeContext => "merge_context",
            Kind::DestroyContext => "destroy_context",
            Kind::Txn => "txn",
            Kind::LinkEnd => "link_end",
            Kind::GetNodeVersions => "get_node_versions",
            Kind::ForkMerge => "fork_merge",
        }
    }

    /// A read-only request: one round trip, no commit.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::OpenNode
                | Kind::OpenNodeHist
                | Kind::GetNodeAttributes
                | Kind::LinearizeGraph
                | Kind::GetGraphQuery
                | Kind::GetNodeDifferences
                | Kind::LinkEnd
                | Kind::GetNodeVersions
        )
    }

    /// A write that is one durable commit of its own.
    pub fn is_commit(self) -> bool {
        matches!(self, Kind::ModifyNode | Kind::SetNodeAttributeValue)
    }
}

/// Latency samples in nanoseconds, one full vector per [`Kind`].
#[derive(Debug, Clone, Default)]
pub struct Samples {
    by_kind: [Vec<u64>; KINDS],
}

impl Samples {
    pub fn push(&mut self, kind: Kind, ns: u64) {
        self.by_kind[kind as usize].push(ns);
    }

    pub fn of(&self, kind: Kind) -> &[u64] {
        &self.by_kind[kind as usize]
    }

    pub fn absorb(&mut self, other: &Samples) {
        for (mine, theirs) in self.by_kind.iter_mut().zip(&other.by_kind) {
            mine.extend_from_slice(theirs);
        }
    }

    /// All samples of the kinds `pick` accepts.
    pub fn collect(&self, pick: impl Fn(Kind) -> bool) -> Vec<u64> {
        Kind::ALL
            .into_iter()
            .filter(|k| pick(*k))
            .flat_map(|k| self.of(k).iter().copied())
            .collect()
    }
}

/// One step of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `open_node`, current version, of static node `i`.
    OpenStatic(usize),
    AttrsStatic(usize),
    LinkTo(usize),
    LinkFrom(usize),
    /// `linearize_graph` from document `d`.
    Linearize(usize),
    /// `get_graph_query` for `codeType = k<kind>`.
    Query(usize),
    OpenHist {
        node: usize,
        version: usize,
    },
    Diff {
        node: usize,
        v1: usize,
        v2: usize,
    },
    Versions(usize),
    OpenHistCurrent(usize),
    /// Two-line edit of own slot's previous version.
    Modify {
        slot: usize,
        edit: u64,
    },
    SetAttr {
        slot: usize,
        value: u64,
    },
    Fork,
    /// Open own slot in the private world: content check, and the version
    /// time the next `Modify` of it must quote.
    OpenOwn(usize),
    /// Open own slot as it was at fork time, after modifying it.
    HistOwn(usize),
    /// `begin; add_node; add_link` to static node `target`; `modify_node;
    /// commit`.
    Txn {
        body: u64,
        target: usize,
    },
    Merge,
    Destroy,
    Keep,
}

/// The seeded op stream of one client.
#[derive(Debug, Clone)]
pub struct Script {
    workload: Workload,
    rng: Rng,
    /// Units issued so far.
    round: u64,
}

impl Script {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Script {
        Script {
            workload,
            rng: Rng::lane(seed, 1 + client as u64),
            round: 0,
        }
    }

    fn browse_op(&mut self, nodes: usize, links: usize) -> Op {
        let r = self.rng.below(100);
        match r {
            0..=49 => Op::OpenStatic(self.rng.index(nodes)),
            50..=69 => Op::AttrsStatic(self.rng.index(nodes)),
            70..=74 => Op::LinkTo(self.rng.index(links)),
            75..=79 => Op::LinkFrom(self.rng.index(links)),
            80..=89 => Op::Linearize(self.rng.index(nodes.saturating_sub(1) / DOC_NODES)),
            _ => Op::Query(self.rng.index(CODE_TYPES)),
        }
    }

    /// 80 % of picks fall on the first fifth of the nodes.
    fn hot_node(&mut self) -> usize {
        let hot = HIST_NODES / 5;
        if self.rng.below(100) < 80 {
            self.rng.index(hot)
        } else {
            hot + self.rng.index(HIST_NODES - hot)
        }
    }

    fn history_op(&mut self) -> Op {
        let r = self.rng.below(100);
        let node = self.hot_node();
        match r {
            0..=79 => Op::OpenHist {
                node,
                version: self.rng.index(HIST_VERSIONS - 1),
            },
            80..=89 => {
                let v1 = self.rng.index(HIST_VERSIONS - 17);
                Op::Diff {
                    node,
                    v1,
                    v2: v1 + 1 + self.rng.index(16),
                }
            }
            90..=94 => Op::Versions(node),
            _ => Op::OpenHistCurrent(node),
        }
    }

    /// Nine `modify_node`, then one `set_node_attribute_value`: a fixed
    /// pattern, so that the content bytes a fixed number of ops submit do
    /// not depend on the seed.
    fn edit_op(&mut self) -> Op {
        let slot = self.rng.index(PARTITION);
        self.round += 1;
        if !self.round.is_multiple_of(10) {
            Op::Modify {
                slot,
                edit: self.rng.next(),
            }
        } else {
            Op::SetAttr {
                slot,
                value: self.rng.below(1000),
            }
        }
    }

    /// One `case_mixed` round: fork, 40 operations in the private world
    /// (28 reads, 8 `modify_node`, 2 `set_node_attribute_value`, 1 read at
    /// fork time, 1 explicit transaction), merge, destroy or keep.
    fn case_round(&mut self, nodes: usize, links: usize, out: &mut Vec<Op>) {
        let mut slots = Vec::with_capacity(8);
        while slots.len() < 8 {
            let s = self.rng.index(PARTITION);
            if !slots.contains(&s) {
                slots.push(s);
            }
        }
        out.push(Op::Fork);
        for (k, &slot) in slots.iter().enumerate() {
            // 8 of the 28 reads open the node about to be edited; the
            // other 20 browse the static graph.
            for _ in 0..if k % 2 == 0 { 3 } else { 2 } {
                out.push(self.browse_op(nodes, links));
            }
            out.push(Op::OpenOwn(slot));
            out.push(Op::Modify {
                slot,
                edit: self.rng.next(),
            });
        }
        for &slot in &slots[..2] {
            out.push(Op::SetAttr {
                slot,
                value: self.rng.below(1000),
            });
        }
        out.push(Op::HistOwn(slots[0]));
        out.push(Op::Txn {
            body: self.rng.next(),
            target: self.rng.index(nodes),
        });
        out.push(Op::Merge);
        self.round += 1;
        out.push(if self.round.is_multiple_of(4) {
            Op::Keep
        } else {
            Op::Destroy
        });
    }

    /// Append the next unit to `out`: one op, or one whole `case_mixed`
    /// round. `nodes` and `links` are the sizes of the static graph.
    pub fn next_unit(&mut self, nodes: usize, links: usize, out: &mut Vec<Op>) {
        match self.workload {
            Workload::BrowseRead => out.push(self.browse_op(nodes, links)),
            Workload::EditCommit => out.push(self.edit_op()),
            Workload::HistoryRead => out.push(self.history_op()),
            Workload::CaseMixed => self.case_round(nodes, links, out),
        }
    }

    /// Hash of the first `units` units: what the determinism tests compare.
    #[cfg(test)]
    pub fn fingerprint(workload: Workload, seed: u64, client: usize, units: usize) -> u64 {
        let mut script = Script::new(workload, seed, client);
        let mut ops = Vec::new();
        for _ in 0..units {
            script.next_unit(2001, 2200, &mut ops);
        }
        ops.iter().fold(fnv(b"script"), |h, op| {
            crate::gen::fnv_extend(h, format!("{op:?};").as_bytes())
        })
    }
}

/// Something that answers requests: the server over the wire, or the
/// layers called in process.
pub trait Backend: Send {
    fn call(&mut self, request: Request) -> Response;
}

impl Backend for Client {
    fn call(&mut self, request: Request) -> Response {
        match Client::call(self, request) {
            Ok(response) => response,
            Err(e) => Response::Error(format!("client: {e}")),
        }
    }
}

/// One timed client operation, for the trace file.
#[derive(Debug, Clone)]
pub struct OpSpan {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a traced session keeps besides latencies.
#[derive(Debug, Default)]
pub struct Recording {
    pub exchanges: Vec<(Request, Response)>,
    pub spans: Vec<OpSpan>,
}

/// Most exchanges one session records: enough for stable means, bounded
/// so a fast workload cannot fill memory.
const MAX_RECORDED: usize = 20_000;

#[derive(Debug, Default)]
struct Round {
    ctx: Option<ContextId>,
    fork_ns: u64,
    /// Per slot opened this round: version time in the private world and
    /// content hash at fork time.
    opened: Vec<(usize, Time, u64)>,
    modified: usize,
}

/// One client: a backend, a script, the slice of the model it owns, and
/// everything it measured.
pub struct Session {
    backend: Box<dyn Backend>,
    script: Script,
    model: Arc<Model>,
    /// Nodes only this session writes.
    pub own: Vec<EditNode>,
    /// Context each own slot is written in (MAIN unless the durability
    /// phase spreads its small change over kept contexts).
    pub slot_ctx: Vec<ContextId>,
    round: Round,
    pub kept: VecDeque<ContextId>,
    unit: Vec<Op>,
    pub samples: Samples,
    /// Requests answered (right or wrong).
    pub attempted: u64,
    /// Requests that errored or returned something the model contradicts.
    pub failed: u64,
    pub first_errors: Vec<String>,
    /// Acknowledged requests that made a commit of their own durable.
    pub commits: u64,
    /// Content and attribute bytes acknowledged.
    pub user_bytes: u64,
    pub recording: Option<Recording>,
}

impl Session {
    pub fn new(
        backend: Box<dyn Backend>,
        script: Script,
        model: Arc<Model>,
        own: Vec<EditNode>,
    ) -> Session {
        Session {
            backend,
            script,
            model,
            slot_ctx: vec![MAIN; own.len()],
            own,
            round: Round::default(),
            kept: VecDeque::new(),
            unit: Vec::new(),
            samples: Samples::default(),
            attempted: 0,
            failed: 0,
            first_errors: Vec::new(),
            commits: 0,
            user_bytes: 0,
            recording: None,
        }
    }

    /// The script from where it stands: a second session given this clone
    /// issues the units this one is about to.
    pub fn script(&self) -> Script {
        self.script.clone()
    }

    /// Run the script's next unit.
    pub fn run_unit(&mut self) {
        let mut unit = std::mem::take(&mut self.unit);
        unit.clear();
        self.script.next_unit(
            self.model.graph.ids.len(),
            self.model.graph.links.len(),
            &mut unit,
        );
        for op in &unit {
            self.run_op(op);
        }
        self.unit = unit;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.first_errors.len() < 5 {
            self.first_errors.push(what);
        }
    }

    /// One request: timed, recorded if tracing, counted, and its reply
    /// handed to `check`.
    fn request(
        &mut self,
        kind: Option<Kind>,
        request: Request,
        check: impl FnOnce(&mut Session, &Response) -> Result<(), String>,
    ) -> (u64, bool) {
        let keep = self
            .recording
            .as_ref()
            .is_some_and(|r| r.exchanges.len() < MAX_RECORDED)
            .then(|| request.clone());
        let name = request.name();
        let start = now_ns();
        let response = self.backend.call(request);
        let end = now_ns();
        self.attempted += 1;
        if let Some(kind) = kind {
            self.samples.push(kind, end - start);
            if let Some(rec) = &mut self.recording {
                if rec.spans.len() < MAX_RECORDED {
                    rec.spans.push(OpSpan {
                        kind,
                        start_ns: start,
                        end_ns: end,
                    });
                }
            }
        }
        let verdict = match &response {
            Response::Error(msg) => Err(format!("{name}: {msg}")),
            other => check(self, other).map_err(|e| format!("{name}: {e}")),
        };
        let ok = verdict.is_ok();
        if let Err(e) = verdict {
            self.fail(e);
        }
        if let (Some(request), Some(rec)) = (keep, &mut self.recording) {
            rec.exchanges.push((request, response));
        }
        (end - start, ok)
    }

    /// The context reads and writes of the current unit go to.
    fn ctx(&self) -> ContextId {
        self.round.ctx.unwrap_or(MAIN)
    }

    fn open_static(&mut self, i: usize) {
        let g = &self.model.graph;
        let request = Request::OpenNode {
            context: self.ctx(),
            node: g.ids[i],
            time: Time::CURRENT,
            attrs: vec![self.model.attrs.code_type],
        };
        self.request(Some(Kind::OpenNode), request, |s, r| match r {
            Response::Opened {
                contents, values, ..
            } => {
                expect_eq("contents hash", fnv(contents), s.model.graph.body_hash[i])?;
                expect_eq(
                    "codeType",
                    values.first().cloned().flatten(),
                    Some(Value::str(StaticGraph::code_type(i))),
                )
            }
            other => Err(unexpected(other)),
        });
    }

    fn attrs_static(&mut self, i: usize) {
        let request = Request::GetNodeAttributes {
            context: self.ctx(),
            node: self.model.graph.ids[i],
            time: Time::CURRENT,
        };
        self.request(Some(Kind::GetNodeAttributes), request, |_, r| match r {
            Response::AttrTriples(items) => {
                let mut got: Vec<(String, Value)> = items
                    .iter()
                    .map(|(n, _, v)| (n.clone(), v.clone()))
                    .collect();
                got.sort_by(|a, b| a.0.cmp(&b.0));
                let want = vec![
                    (
                        "codeType".to_string(),
                        Value::str(StaticGraph::code_type(i)),
                    ),
                    (
                        "contentType".to_string(),
                        Value::str(StaticGraph::content_type(i)),
                    ),
                ];
                expect_eq("attributes", got, want)
            }
            other => Err(unexpected(other)),
        });
    }

    fn link_end(&mut self, l: usize, to: bool) {
        let link = self.model.graph.links[l];
        let (context, time) = (self.ctx(), Time::CURRENT);
        let request = if to {
            Request::GetToNode {
                context,
                link: link.id,
                time,
            }
        } else {
            Request::GetFromNode {
                context,
                link: link.id,
                time,
            }
        };
        let end = if to { link.to } else { link.from };
        self.request(Some(Kind::LinkEnd), request, |s, r| match r {
            Response::NodeAt(n, _) => expect_eq("link end", *n, s.model.graph.ids[end]),
            other => Err(unexpected(other)),
        });
    }

    fn linearize(&mut self, d: usize) {
        let request = Request::LinearizeGraph {
            context: self.ctx(),
            start: self.model.graph.ids[StaticGraph::doc(d)],
            time: Time::CURRENT,
            node_pred: "true".into(),
            link_pred: "relation = isPartOf".into(),
            node_attrs: vec![self.model.attrs.content_type],
            link_attrs: Vec::new(),
        };
        self.request(Some(Kind::LinearizeGraph), request, |s, r| match r {
            Response::SubGraph(sg) => {
                let want = s.model.graph.doc_preorder(d);
                expect_eq("links", sg.links.len(), want.len() - 1)?;
                expect_eq("traversal", sg.node_ids(), want)
            }
            other => Err(unexpected(other)),
        });
    }

    fn query(&mut self, kind: usize) {
        let request = Request::GetGraphQuery {
            context: self.ctx(),
            time: Time::CURRENT,
            node_pred: format!("codeType = k{kind:02}"),
            link_pred: "relation = imports".into(),
            node_attrs: vec![self.model.attrs.code_type],
            link_attrs: Vec::new(),
        };
        self.request(Some(Kind::GetGraphQuery), request, |s, r| match r {
            Response::SubGraph(sg) => {
                let mut links = sg.link_ids();
                links.sort_unstable();
                expect_eq("links", links, s.model.graph.import_links_within_kind(kind))?;
                expect_eq("nodes", sg.node_ids(), s.model.graph.nodes_of_kind(kind))
            }
            other => Err(unexpected(other)),
        });
    }

    fn open_hist(&mut self, node: usize, version: Option<usize>) {
        let h = &self.model.history[node];
        let version_or_last = version.unwrap_or(h.times.len() - 1);
        let request = Request::OpenNode {
            context: MAIN,
            node: h.id,
            time: version.map_or(Time::CURRENT, |v| h.times[v]),
            attrs: Vec::new(),
        };
        let kind = if version.is_some() {
            Kind::OpenNodeHist
        } else {
            Kind::OpenNode
        };
        self.request(Some(kind), request, |s, r| match r {
            Response::Opened { contents, .. } => expect_eq(
                "contents hash",
                fnv(contents),
                s.model.history[node].hashes[version_or_last],
            ),
            other => Err(unexpected(other)),
        });
    }

    fn diff(&mut self, node: usize, v1: usize, v2: usize) {
        let h = &self.model.history[node];
        let request = Request::GetNodeDifferences {
            context: MAIN,
            node: h.id,
            time1: h.times[v1],
            time2: h.times[v2],
        };
        self.request(Some(Kind::GetNodeDifferences), request, |_, r| match r {
            // Each version edits two lines of the one before.
            Response::Differences(ds) if (1..=2 * (v2 - v1)).contains(&ds.len()) => Ok(()),
            Response::Differences(ds) => Err(format!(
                "{} differences between versions {v1} and {v2}",
                ds.len()
            )),
            other => Err(unexpected(other)),
        });
    }

    fn versions(&mut self, node: usize) {
        let request = Request::GetNodeVersions {
            context: MAIN,
            node: self.model.history[node].id,
        };
        self.request(Some(Kind::GetNodeVersions), request, |s, r| match r {
            // The creation plus one major version per check-in.
            Response::Versions(major, _) => expect_eq(
                "major versions",
                major.len(),
                s.model.history[node].times.len() + 1,
            ),
            other => Err(unexpected(other)),
        });
    }

    /// `modify_node` of own slot `slot`: a two-line edit of its previous
    /// version, quoting the version time the model holds.
    pub fn modify_slot(&mut self, slot: usize, edit: u64) {
        let context = self.round.ctx.unwrap_or(self.slot_ctx[slot]);
        let time = match self.round.ctx {
            // In a private world the time to quote came with `OpenOwn`.
            Some(_) => self
                .round
                .opened
                .iter()
                .find(|(s, ..)| *s == slot)
                .map_or(Time::CURRENT, |(_, t, _)| *t),
            None => self.own[slot].time,
        };
        let mut body = self.own[slot].body.clone();
        edit_lines(&mut body, 2, edit);
        let request = Request::ModifyNode {
            context,
            node: self.own[slot].id,
            time,
            contents: body.clone(),
            link_pts: Vec::new(),
        };
        self.request(Some(Kind::ModifyNode), request, |s, r| match r {
            Response::Time(t) => {
                s.own[slot].time = *t;
                s.user_bytes += body.len() as u64;
                s.own[slot].body = body;
                s.commits += 1;
                s.round.modified += 1;
                Ok(())
            }
            other => Err(unexpected(other)),
        });
    }

    fn set_attr(&mut self, slot: usize, value: u64) {
        // Never a `k..` value: the static graph's query results stay fixed.
        let value = format!("m{value:03}");
        let request = Request::SetNodeAttributeValue {
            context: self.round.ctx.unwrap_or(self.slot_ctx[slot]),
            node: self.own[slot].id,
            attr: self.model.attrs.code_type,
            value: Value::str(value.clone()),
        };
        self.request(Some(Kind::SetNodeAttributeValue), request, |s, r| match r {
            Response::Ok => {
                s.user_bytes += value.len() as u64;
                s.own[slot].code_type = Some(value);
                s.commits += 1;
                Ok(())
            }
            other => Err(unexpected(other)),
        });
    }

    /// Read own slot `slot` in `context`, current version, and check it
    /// against the model. Returns the version time the reply quoted.
    fn open_own(&mut self, slot: usize, context: ContextId) -> Time {
        let request = Request::OpenNode {
            context,
            node: self.own[slot].id,
            time: Time::CURRENT,
            attrs: vec![self.model.attrs.code_type],
        };
        let mut quoted = Time::CURRENT;
        self.request(Some(Kind::OpenNode), request, |s, r| match r {
            Response::Opened {
                contents,
                values,
                current_time,
                ..
            } => {
                quoted = *current_time;
                expect_eq("contents hash", fnv(contents), fnv(&s.own[slot].body))?;
                expect_eq(
                    "codeType",
                    values.first().cloned().flatten(),
                    s.own[slot].code_type.clone().map(Value::str),
                )
            }
            other => Err(unexpected(other)),
        });
        quoted
    }

    fn hist_own(&mut self, slot: usize) {
        let Some(&(_, time, hash)) = self.round.opened.iter().find(|(s, ..)| *s == slot) else {
            return self.fail(format!("script: slot {slot} not opened this round"));
        };
        let request = Request::OpenNode {
            context: self.ctx(),
            node: self.own[slot].id,
            time,
            attrs: Vec::new(),
        };
        self.request(Some(Kind::OpenNodeHist), request, |_, r| match r {
            Response::Opened { contents, .. } => expect_eq("contents hash", fnv(contents), hash),
            other => Err(unexpected(other)),
        });
    }

    fn txn(&mut self, body_seed: u64, target: usize) {
        let context = self.ctx();
        let start = now_ns();
        self.request(None, Request::BeginTransaction, |_, r| match r {
            Response::TxnStarted(_) => Ok(()),
            other => Err(unexpected(other)),
        });
        let mut created: Option<(NodeIndex, Time)> = None;
        let add = Request::AddNode {
            context,
            keep_history: true,
        };
        self.request(None, add, |_, r| match r {
            Response::NodeCreated(id, t) => {
                created = Some((*id, *t));
                Ok(())
            }
            other => Err(unexpected(other)),
        });
        if let Some((node, time)) = created {
            let link = Request::AddLink {
                context,
                from: LinkPt::current(node, 0),
                to: LinkPt::current(self.model.graph.ids[target], 0),
            };
            self.request(None, link, |_, r| match r {
                Response::LinkCreated(..) => Ok(()),
                other => Err(unexpected(other)),
            });
            let body = text(BODY, body_seed);
            let modify = Request::ModifyNode {
                context,
                node,
                time,
                contents: body,
                link_pts: vec![LinkPt::current(node, 0)],
            };
            self.request(None, modify, |s, r| match r {
                Response::Time(_) => {
                    s.user_bytes += BODY as u64;
                    Ok(())
                }
                other => Err(unexpected(other)),
            });
        }
        self.request(None, Request::CommitTransaction, |s, r| match r {
            Response::Ok => {
                s.commits += 1;
                Ok(())
            }
            other => Err(unexpected(other)),
        });
        self.samples.push(Kind::Txn, now_ns() - start);
    }

    fn fork(&mut self) {
        self.round = Round::default();
        let request = Request::CreateContext { from: MAIN };
        let mut ctx = None;
        let (ns, _) = self.request(Some(Kind::CreateContext), request, |s, r| match r {
            Response::Context(id) => {
                ctx = Some(*id);
                s.commits += 1;
                Ok(())
            }
            other => Err(unexpected(other)),
        });
        self.round.ctx = ctx;
        self.round.fork_ns = ns;
    }

    fn merge(&mut self) {
        let Some(child) = self.round.ctx else {
            return self.fail("script: merge without a fork".into());
        };
        let request = Request::MergeContext {
            child,
            policy: ConflictPolicy::Fail,
        };
        let modified = self.round.modified;
        let (ns, ok) = self.request(Some(Kind::MergeContext), request, |s, r| match r {
            Response::Merged(report) => {
                s.commits += 1;
                expect_eq("conflicts", report.conflicts.len(), 0)?;
                expect_eq("nodes added", report.nodes_added.len(), 1)?;
                expect_eq("nodes modified", report.nodes_modified.len(), modified)
            }
            other => Err(unexpected(other)),
        });
        if ok {
            self.samples.push(Kind::ForkMerge, self.round.fork_ns + ns);
        }
    }

    fn destroy(&mut self, id: ContextId) {
        let request = Request::DestroyContext { id };
        self.request(Some(Kind::DestroyContext), request, |s, r| match r {
            Response::Ok => {
                s.commits += 1;
                Ok(())
            }
            other => Err(unexpected(other)),
        });
    }

    fn run_op(&mut self, op: &Op) {
        match *op {
            Op::OpenStatic(i) => self.open_static(i),
            Op::AttrsStatic(i) => self.attrs_static(i),
            Op::LinkTo(l) => self.link_end(l, true),
            Op::LinkFrom(l) => self.link_end(l, false),
            Op::Linearize(d) => self.linearize(d),
            Op::Query(kind) => self.query(kind),
            Op::OpenHist { node, version } => self.open_hist(node, Some(version)),
            Op::Diff { node, v1, v2 } => self.diff(node, v1, v2),
            Op::Versions(node) => self.versions(node),
            Op::OpenHistCurrent(node) => self.open_hist(node, None),
            Op::Modify { slot, edit } => self.modify_slot(slot, edit),
            Op::SetAttr { slot, value } => self.set_attr(slot, value),
            Op::Fork => self.fork(),
            Op::OpenOwn(slot) => {
                let hash = fnv(&self.own[slot].body);
                let time = self.open_own(slot, self.ctx());
                self.round.opened.push((slot, time, hash));
            }
            Op::HistOwn(slot) => self.hist_own(slot),
            Op::Txn { body, target } => self.txn(body, target),
            Op::Merge => self.merge(),
            Op::Destroy => {
                if let Some(ctx) = self.round.ctx.take() {
                    self.destroy(ctx);
                }
            }
            Op::Keep => {
                if let Some(ctx) = self.round.ctx.take() {
                    self.kept.push_back(ctx);
                }
                if self.kept.len() > KEPT_CONTEXTS {
                    let oldest = self.kept.pop_front().expect("kept is not empty");
                    self.destroy(oldest);
                }
            }
        }
    }

    /// Read every own slot back from where it was last written and check
    /// it against the model: no acknowledged write may be missing.
    pub fn read_back_own(&mut self) {
        for slot in 0..self.own.len() {
            self.open_own(slot, self.slot_ctx[slot]);
        }
    }

    /// A direct call outside any script (`checkpoint`, `verify`, ...).
    pub fn control(&mut self, request: Request) -> Response {
        self.backend.call(request)
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let (got, want) = (format!("{got:?}"), format!("{want:?}"));
        let clip = |s: &str| s.chars().take(120).collect::<String>();
        Err(format!(
            "{what}: got {}, model says {}",
            clip(&got),
            clip(&want)
        ))
    }
}

fn unexpected(response: &Response) -> String {
    let text = format!("{response:?}");
    format!(
        "unexpected reply {}",
        text.chars().take(80).collect::<String>()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_script_for_every_workload() {
        for w in Workload::ALL {
            for client in 0..4 {
                assert_eq!(
                    Script::fingerprint(w, 42, client, 300),
                    Script::fingerprint(w, 42, client, 300),
                    "{} client {client}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn different_seed_or_client_different_script() {
        for w in Workload::ALL {
            let base = Script::fingerprint(w, 42, 0, 300);
            assert_ne!(base, Script::fingerprint(w, 43, 0, 300), "{}", w.name());
            assert_ne!(base, Script::fingerprint(w, 42, 1, 300), "{}", w.name());
        }
    }

    #[test]
    fn case_round_has_the_stated_shape() {
        let mut script = Script::new(Workload::CaseMixed, 7, 0);
        for round in 1..=8 {
            let mut ops = Vec::new();
            script.next_unit(2001, 2200, &mut ops);
            assert_eq!(ops.first(), Some(&Op::Fork));
            assert_eq!(ops[ops.len() - 2], Op::Merge);
            let last = if round % 4 == 0 {
                Op::Keep
            } else {
                Op::Destroy
            };
            assert_eq!(ops.last(), Some(&last));
            let inner = &ops[1..ops.len() - 2];
            assert_eq!(inner.len(), 40);
            let count = |f: fn(&Op) -> bool| inner.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, Op::Modify { .. })), 8);
            assert_eq!(count(|o| matches!(o, Op::SetAttr { .. })), 2);
            assert_eq!(count(|o| matches!(o, Op::HistOwn(_))), 1);
            assert_eq!(count(|o| matches!(o, Op::Txn { .. })), 1);
            assert_eq!(count(|o| matches!(o, Op::OpenOwn(_))), 8);
        }
    }

    #[test]
    fn history_ops_stay_inside_the_history() {
        let mut script = Script::new(Workload::HistoryRead, 3, 0);
        let mut ops = Vec::new();
        for _ in 0..5000 {
            script.next_unit(0, 0, &mut ops);
        }
        let mut hot = 0;
        for op in &ops {
            match *op {
                Op::OpenHist { node, version } => {
                    assert!(node < HIST_NODES && version < HIST_VERSIONS - 1);
                    hot += usize::from(node < HIST_NODES / 5);
                }
                Op::Diff { node, v1, v2 } => {
                    assert!(node < HIST_NODES && v1 < v2 && v2 - v1 <= 16 && v2 < HIST_VERSIONS);
                }
                Op::Versions(n) | Op::OpenHistCurrent(n) => assert!(n < HIST_NODES),
                ref other => panic!("{other:?} in a history script"),
            }
        }
        let opens = ops
            .iter()
            .filter(|o| matches!(o, Op::OpenHist { .. }))
            .count();
        let share = hot as f64 / opens as f64;
        assert!((0.75..0.85).contains(&share), "hot share {share}");
    }
}
