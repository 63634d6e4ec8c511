//! Blocking RPC client for the Neptune server.
//!
//! Mirrors the HAM operations over the wire — the role of the Smalltalk
//! user interface process's RPC stubs in the paper (§4.1). One `Client`
//! holds one connection; an explicit transaction gives that connection
//! exclusive write access on the server until commit/abort.

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};

use neptune_ham::context::{ConflictPolicy, MergeReport};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::ham::OpenedNode;
use neptune_ham::query::SubGraph;
use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time, Version,
};
use neptune_ham::value::Value;
use neptune_storage::diff::Difference;

use crate::frame::FrameBuf;
use crate::proto::{ObsSetting, Request, Response, TracedRequest};

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Transport(neptune_storage::StorageError),
    /// The server reported an operation failure.
    Server(String),
    /// The server answered with an unexpected response shape.
    Protocol {
        /// What the client expected.
        expected: &'static str,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol { expected } => {
                write!(f, "protocol error: expected {expected}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<neptune_storage::StorageError> for ClientError {
    fn from(e: neptune_storage::StorageError) -> Self {
        ClientError::Transport(e)
    }
}

/// Result alias for client calls.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A connection to a Neptune server.
///
/// The socket is split into a read half and a buffered write half so
/// requests can be pipelined: [`Client::pipeline`] queues N frames, flushes
/// once, then drains N responses — amortizing syscall and round-trip cost.
/// [`Client::batch`] goes further and ships the N requests as one
/// `Request::Batch` frame the server executes under a single lock
/// acquisition.
pub struct Client {
    reader: TcpStream,
    writer: std::io::BufWriter<TcpStream>,
    frames: FrameBuf,
}

/// Maximum requests in flight during [`Client::pipeline`]: enough depth
/// that round-trip latency is fully amortized, small enough that the
/// worst-case response backlog (window × max node contents) stays well
/// inside a default TCP receive buffer — see `pipeline` for the stall
/// this bounds.
pub const PIPELINE_WINDOW: usize = 4;

macro_rules! expect {
    ($self:expr, $req:expr, $pat:pat => $out:expr, $name:literal) => {{
        match $self.call($req)? {
            $pat => Ok($out),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Protocol { expected: $name }),
        }
    }};
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = std::io::BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: stream,
            writer,
            frames: FrameBuf::new(),
        })
    }

    /// Send a raw request and wait for the response.
    ///
    /// Every call opens a `client.call` trace scope: if a trace is active
    /// on this thread (a shell command, a test root) the request joins it,
    /// otherwise the call originates its own. The scope's context rides
    /// the wire as the [`TracedRequest`] extension so the server's spans
    /// parent under this client span.
    pub fn call(&mut self, request: Request) -> Result<Response> {
        let mut scope = neptune_obs::wire_scope("client.call", request.name());
        let traced = TracedRequest {
            context: scope.context(),
            request,
        };
        self.frames.write_frame(&mut self.writer, &traced)?;
        let response: Response = self.frames.read_frame(&mut self.reader)?;
        if matches!(response, Response::Error(_)) {
            scope.tag_error();
        }
        Ok(response)
    }

    /// Send several requests as one `Request::Batch` frame.
    ///
    /// The server executes the whole batch under a single gate check and
    /// one HAM lock acquisition, returning per-element results in order
    /// (a failing element yields `Response::Error` in its slot; the rest
    /// still run). The batch takes the shared read path iff every element
    /// is read-only.
    pub fn batch(&mut self, requests: Vec<Request>) -> Result<Vec<Response>> {
        match self.call(Request::Batch(requests))? {
            Response::Batch(responses) => Ok(responses),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Protocol { expected: "Batch" }),
        }
    }

    /// Pipelined mode: keep up to [`PIPELINE_WINDOW`] requests in flight,
    /// draining responses in order and topping the window back up in
    /// half-window chunks (so request writes stay batched).
    ///
    /// Unlike [`Client::batch`], each request is still a separate server
    /// round of gate/lock work — pipelining only removes the
    /// write→wait→read lockstep, keeping requests in flight on the wire.
    ///
    /// The window is bounded because writing *every* request before
    /// reading any response lets the response backlog grow as N × response
    /// size. Once that overruns the client's receive buffer, TCP closes
    /// the window, and reopening it occasionally loses a kernel race and
    /// waits out the ~200ms zero-window persist probe — observed as
    /// intermittent 10x stalls of whole `pipelined/N` bench flights
    /// (EXPERIMENTS.md E11, diagnosed with a causal trace: the server's
    /// `server.rpc` span completes in microseconds mid-flight while
    /// `client.call` waits 200ms+ for the response bytes). Four requests
    /// in flight is empirically stall-free with 16KiB responses (windows
    /// of 8 and 16 were not) and already amortizes the loopback round
    /// trip completely — the bandwidth-delay product here is tiny.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        // One trace scope per in-flight request (scopes never occupy the
        // thread-local span stack, so several may be open at once); scope
        // i closes — recording the client span and finalizing its trace —
        // as soon as response i is read.
        let mut scopes = std::collections::VecDeque::with_capacity(PIPELINE_WINDOW);
        let mut responses = Vec::with_capacity(requests.len());
        let mut pending = requests.iter();
        loop {
            if scopes.len() <= PIPELINE_WINDOW / 2 {
                let mut queued = false;
                while scopes.len() < PIPELINE_WINDOW {
                    let Some(request) = pending.next() else { break };
                    let scope = neptune_obs::wire_scope("client.call", request.name());
                    let traced = TracedRequest {
                        context: scope.context(),
                        request: request.clone(),
                    };
                    self.frames.queue_frame(&mut self.writer, &traced)?;
                    scopes.push_back(scope);
                    queued = true;
                }
                if queued {
                    std::io::Write::flush(&mut self.writer)
                        .map_err(neptune_storage::StorageError::from)?;
                }
            }
            let Some(mut scope) = scopes.pop_front() else {
                break;
            };
            let response: Response = self.frames.read_frame(&mut self.reader)?;
            if matches!(response, Response::Error(_)) {
                scope.tag_error();
            }
            drop(scope);
            responses.push(response);
        }
        Ok(responses)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        expect!(self, Request::Ping, Response::Ok => (), "Ok")
    }

    /// `addNode`.
    pub fn add_node(
        &mut self,
        context: ContextId,
        keep_history: bool,
    ) -> Result<(NodeIndex, Time)> {
        expect!(self, Request::AddNode { context, keep_history },
            Response::NodeCreated(id, t) => (id, t), "NodeCreated")
    }

    /// `deleteNode`.
    pub fn delete_node(&mut self, context: ContextId, node: NodeIndex) -> Result<()> {
        expect!(self, Request::DeleteNode { context, node }, Response::Ok => (), "Ok")
    }

    /// `addLink`.
    pub fn add_link(
        &mut self,
        context: ContextId,
        from: LinkPt,
        to: LinkPt,
    ) -> Result<(LinkIndex, Time)> {
        expect!(self, Request::AddLink { context, from, to },
            Response::LinkCreated(id, t) => (id, t), "LinkCreated")
    }

    /// `copyLink`.
    pub fn copy_link(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
        keep_source: bool,
        pt: LinkPt,
    ) -> Result<(LinkIndex, Time)> {
        expect!(self, Request::CopyLink { context, link, time, keep_source, pt },
            Response::LinkCreated(id, t) => (id, t), "LinkCreated")
    }

    /// `deleteLink`.
    pub fn delete_link(&mut self, context: ContextId, link: LinkIndex) -> Result<()> {
        expect!(self, Request::DeleteLink { context, link }, Response::Ok => (), "Ok")
    }

    /// `linearizeGraph` with predicate source text.
    #[allow(clippy::too_many_arguments)]
    pub fn linearize_graph(
        &mut self,
        context: ContextId,
        start: NodeIndex,
        time: Time,
        node_pred: &str,
        link_pred: &str,
        node_attrs: Vec<AttributeIndex>,
        link_attrs: Vec<AttributeIndex>,
    ) -> Result<SubGraph> {
        expect!(self, Request::LinearizeGraph {
                context, start, time,
                node_pred: node_pred.to_string(),
                link_pred: link_pred.to_string(),
                node_attrs, link_attrs,
            },
            Response::SubGraph(sg) => sg, "SubGraph")
    }

    /// `getGraphQuery` with predicate source text.
    pub fn get_graph_query(
        &mut self,
        context: ContextId,
        time: Time,
        node_pred: &str,
        link_pred: &str,
        node_attrs: Vec<AttributeIndex>,
        link_attrs: Vec<AttributeIndex>,
    ) -> Result<SubGraph> {
        expect!(self, Request::GetGraphQuery {
                context, time,
                node_pred: node_pred.to_string(),
                link_pred: link_pred.to_string(),
                node_attrs, link_attrs,
            },
            Response::SubGraph(sg) => sg, "SubGraph")
    }

    /// `openNode`.
    pub fn open_node(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: Vec<AttributeIndex>,
    ) -> Result<OpenedNode> {
        expect!(self, Request::OpenNode { context, node, time, attrs },
            Response::Opened { contents, link_pts, values, current_time } =>
                OpenedNode { contents, link_pts, values, current_time },
            "Opened")
    }

    /// `modifyNode`.
    pub fn modify_node(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        contents: Vec<u8>,
        link_pts: Vec<LinkPt>,
    ) -> Result<Time> {
        expect!(self, Request::ModifyNode { context, node, time, contents, link_pts },
            Response::Time(t) => t, "Time")
    }

    /// `getNodeTimeStamp`.
    pub fn get_node_time_stamp(&mut self, context: ContextId, node: NodeIndex) -> Result<Time> {
        expect!(self, Request::GetNodeTimeStamp { context, node }, Response::Time(t) => t, "Time")
    }

    /// `changeNodeProtection`.
    pub fn change_node_protection(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        protections: Protections,
    ) -> Result<()> {
        expect!(self, Request::ChangeNodeProtection { context, node, protections },
            Response::Ok => (), "Ok")
    }

    /// `getNodeVersions`.
    pub fn get_node_versions(
        &mut self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        expect!(self, Request::GetNodeVersions { context, node },
            Response::Versions(major, minor) => (major, minor), "Versions")
    }

    /// `getNodeDifferences`.
    pub fn get_node_differences(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        expect!(self, Request::GetNodeDifferences { context, node, time1, time2 },
            Response::Differences(ds) => ds, "Differences")
    }

    /// `getToNode`.
    pub fn get_to_node(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<(NodeIndex, Time)> {
        expect!(self, Request::GetToNode { context, link, time },
            Response::NodeAt(n, t) => (n, t), "NodeAt")
    }

    /// `getFromNode`.
    pub fn get_from_node(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<(NodeIndex, Time)> {
        expect!(self, Request::GetFromNode { context, link, time },
            Response::NodeAt(n, t) => (n, t), "NodeAt")
    }

    /// `getAttributes`.
    pub fn get_attributes(
        &mut self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        expect!(self, Request::GetAttributes { context, time },
            Response::Attributes(items) => items, "Attributes")
    }

    /// `getAttributeValues`.
    pub fn get_attribute_values(
        &mut self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        expect!(self, Request::GetAttributeValues { context, attr, time },
            Response::Values(vs) => vs, "Values")
    }

    /// `getAttributeIndex`.
    pub fn get_attribute_index(
        &mut self,
        context: ContextId,
        name: &str,
    ) -> Result<AttributeIndex> {
        expect!(self, Request::GetAttributeIndex { context, name: name.to_string() },
            Response::AttrIndex(idx) => idx, "AttrIndex")
    }

    /// `setNodeAttributeValue`.
    pub fn set_node_attribute_value(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        value: Value,
    ) -> Result<()> {
        expect!(self, Request::SetNodeAttributeValue { context, node, attr, value },
            Response::Ok => (), "Ok")
    }

    /// `deleteNodeAttribute`.
    pub fn delete_node_attribute(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
    ) -> Result<()> {
        expect!(self, Request::DeleteNodeAttribute { context, node, attr },
            Response::Ok => (), "Ok")
    }

    /// `getNodeAttributeValue`.
    pub fn get_node_attribute_value(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        expect!(self, Request::GetNodeAttributeValue { context, node, attr, time },
            Response::Value(v) => v, "Value")
    }

    /// `getNodeAttributes`.
    pub fn get_node_attributes(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        expect!(self, Request::GetNodeAttributes { context, node, time },
            Response::AttrTriples(items) => items, "AttrTriples")
    }

    /// `setLinkAttributeValue`.
    pub fn set_link_attribute_value(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        value: Value,
    ) -> Result<()> {
        expect!(self, Request::SetLinkAttributeValue { context, link, attr, value },
            Response::Ok => (), "Ok")
    }

    /// `deleteLinkAttribute`.
    pub fn delete_link_attribute(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
    ) -> Result<()> {
        expect!(self, Request::DeleteLinkAttribute { context, link, attr },
            Response::Ok => (), "Ok")
    }

    /// `getLinkAttributeValue`.
    pub fn get_link_attribute_value(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        expect!(self, Request::GetLinkAttributeValue { context, link, attr, time },
            Response::Value(v) => v, "Value")
    }

    /// `getLinkAttributes`.
    pub fn get_link_attributes(
        &mut self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        expect!(self, Request::GetLinkAttributes { context, link, time },
            Response::AttrTriples(items) => items, "AttrTriples")
    }

    /// `setGraphDemonValue`.
    pub fn set_graph_demon_value(
        &mut self,
        context: ContextId,
        event: Event,
        demon: Option<DemonSpec>,
    ) -> Result<()> {
        expect!(self, Request::SetGraphDemonValue { context, event, demon },
            Response::Ok => (), "Ok")
    }

    /// `getGraphDemons`.
    pub fn get_graph_demons(
        &mut self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        expect!(self, Request::GetGraphDemons { context, time },
            Response::Demons(items) => items, "Demons")
    }

    /// `setNodeDemon`.
    pub fn set_node_demon(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        event: Event,
        demon: Option<DemonSpec>,
    ) -> Result<()> {
        expect!(self, Request::SetNodeDemon { context, node, event, demon },
            Response::Ok => (), "Ok")
    }

    /// `getNodeDemons`.
    pub fn get_node_demons(
        &mut self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        expect!(self, Request::GetNodeDemons { context, node, time },
            Response::Demons(items) => items, "Demons")
    }

    /// Begin an explicit transaction (exclusive write access until
    /// commit/abort).
    pub fn begin_transaction(&mut self) -> Result<u64> {
        expect!(self, Request::BeginTransaction, Response::TxnStarted(id) => id, "TxnStarted")
    }

    /// Commit this connection's transaction.
    pub fn commit_transaction(&mut self) -> Result<()> {
        expect!(self, Request::CommitTransaction, Response::Ok => (), "Ok")
    }

    /// Abort this connection's transaction.
    pub fn abort_transaction(&mut self) -> Result<()> {
        expect!(self, Request::AbortTransaction, Response::Ok => (), "Ok")
    }

    /// Fork a context.
    pub fn create_context(&mut self, from: ContextId) -> Result<ContextId> {
        expect!(self, Request::CreateContext { from }, Response::Context(id) => id, "Context")
    }

    /// Merge a context into its parent.
    pub fn merge_context(
        &mut self,
        child: ContextId,
        policy: ConflictPolicy,
    ) -> Result<MergeReport> {
        expect!(self, Request::MergeContext { child, policy },
            Response::Merged(m) => m, "Merged")
    }

    /// Discard a context.
    pub fn destroy_context(&mut self, id: ContextId) -> Result<()> {
        expect!(self, Request::DestroyContext { id }, Response::Ok => (), "Ok")
    }

    /// List live contexts.
    pub fn list_contexts(&mut self) -> Result<Vec<ContextId>> {
        expect!(self, Request::ListContexts, Response::Contexts(ids) => ids, "Contexts")
    }

    /// Force a checkpoint on the server.
    pub fn checkpoint(&mut self) -> Result<()> {
        expect!(self, Request::Checkpoint, Response::Ok => (), "Ok")
    }

    /// Run the integrity verifier over the server's store. An empty vector
    /// means the store is clean.
    pub fn verify(&mut self) -> Result<Vec<neptune_check::Finding>> {
        expect!(self, Request::Verify, Response::Findings(fs) => fs, "Findings")
    }

    /// Fetch the server's full metrics registry in Prometheus text
    /// exposition format. [`Client::cache_stats`] remains as a narrower
    /// compatibility call.
    pub fn metrics(&mut self) -> Result<String> {
        expect!(self, Request::Metrics, Response::Metrics(text) => text, "Metrics")
    }

    /// Read the server's anchor-cache counters as `(hits, misses, entries,
    /// bytes)`: exact-anchor checkouts, checkouts that replayed deltas, and
    /// anchor occupancy.
    pub fn cache_stats(&mut self) -> Result<(u64, u64, u64, u64)> {
        expect!(self, Request::CacheStats,
            Response::CacheStats { hits, misses, entries, bytes } =>
                (hits, misses, entries, bytes),
            "CacheStats")
    }

    /// Snapshot the server's flight recorder: every retained trace
    /// (recent tail plus slow/error traces), oldest first.
    pub fn trace_dump(&mut self) -> Result<Vec<neptune_obs::TraceRecord>> {
        expect!(self, Request::FlightDump, Response::Traces(ts) => ts, "Traces")
    }

    /// Fetch one retained trace from the server by id; `None` once it has
    /// aged out of both recorder rings.
    pub fn trace(&mut self, trace_id: u64) -> Result<Option<neptune_obs::TraceRecord>> {
        expect!(self, Request::Trace { trace_id },
            Response::Traces(ts) => ts.into_iter().next(), "Traces")
    }

    /// Adjust a server observability setting at runtime (slow-op
    /// threshold, instrumentation kill-switch).
    pub fn obs_control(&mut self, setting: ObsSetting) -> Result<()> {
        expect!(self, Request::ObsControl { setting }, Response::Ok => (), "Ok")
    }
}
