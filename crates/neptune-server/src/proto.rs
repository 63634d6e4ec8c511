//! The Neptune wire protocol.
//!
//! Paper §4.1: *"The user interface process communicates with the HAM using
//! a remote procedure call mechanism; the HAM runs as a separate process,
//! typically on a machine accessed over a network."* Each HAM operation is
//! one [`Request`] variant; the server answers with one [`Response`].
//! Messages are encoded with the storage codec and framed by
//! [`crate::frame`].
//!
//! Every request is one row of the `requests!` table below: its docs,
//! fields and wire tag, the class its table section gives it, and the one
//! HAM or view call that serves it, and the client method that sends it.
//! This module generates the enum, its codec, [`Request::name`],
//! [`Request::is_read_only`] and [`Request::context_id`] from the table;
//! the server generates its dispatchers, and the client its typed methods,
//! from the same rows. A field's wire form follows from its type alone
//! (the `Wire` impls below), so a type with its own encoding is spelled out
//! once, not at every message that carries it.

use neptune_check::Finding;
use neptune_ham::context::{ConflictPolicy, MergeReport};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::query::SubGraph;
use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time, Version,
};
use neptune_ham::value::Value;
use neptune_obs::{SpanRecord, TraceContext, TraceRecord};
use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::diff::Difference;
use neptune_storage::error::{Result as StorageResult, StorageError};
use std::sync::Arc;

/// Tag prefixing a request frame that carries the trace-context extension
/// (see [`TracedRequest`]). Deliberately *outside* the [`Request`] tag
/// space: an old client never sends it (its frames start with a plain
/// request tag and decode with no context), and an old server rejects it
/// as an unknown tag rather than misparsing the payload.
pub const TRACE_EXT_TAG: u8 = 43;

/// How one message field travels on the wire.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> StorageResult<Self>;
}

/// Types whose wire form is their storage-codec form.
macro_rules! wire_via_codec {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut Writer) {
                self.encode(w);
            }
            fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
                <$t>::decode(r)
            }
        }
    )*};
}

wire_via_codec! {
    bool, u64, String, Vec<u8>, Arc<[u8]>, ContextId, NodeIndex, LinkIndex, AttributeIndex, Time,
    LinkPt, Protections, Value, DemonSpec, Version, Difference, Finding,
}

/// A sequence: its length, then each element.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        let count = r.get_u64()? as usize;
        // A hostile count never pre-allocates past what the input holds.
        let mut items = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.put(w);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(StorageError::InvalidTag {
                context: "Option",
                tag: tag as u64,
            }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl Wire for Event {
    fn put(&self, w: &mut Writer) {
        // Tags are positions in Event::ALL (`get` indexes into it); an
        // explicit match keeps the encoder panic-free and forces this list
        // to grow with the enum.
        w.put_u8(match self {
            Event::GraphOpened => 0,
            Event::NodeAdded => 1,
            Event::NodeDeleted => 2,
            Event::NodeOpened => 3,
            Event::NodeModified => 4,
            Event::LinkAdded => 5,
            Event::LinkDeleted => 6,
            Event::AttributeChanged => 7,
        });
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        let tag = r.get_u8()?;
        Event::ALL
            .get(tag as usize)
            .copied()
            .ok_or(StorageError::InvalidTag {
                context: "Event",
                tag: tag as u64,
            })
    }
}

impl Wire for ConflictPolicy {
    fn put(&self, w: &mut Writer) {
        w.put_u8(match self {
            ConflictPolicy::Fail => 0,
            ConflictPolicy::PreferChild => 1,
            ConflictPolicy::PreferParent => 2,
        });
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(match r.get_u8()? {
            0 => ConflictPolicy::Fail,
            1 => ConflictPolicy::PreferChild,
            2 => ConflictPolicy::PreferParent,
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "ConflictPolicy",
                    tag: tag as u64,
                })
            }
        })
    }
}

/// A runtime-adjustable observability setting ([`Request::ObsControl`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsSetting {
    /// Set the slow-op threshold in milliseconds; `None` disables both the
    /// slow-op log and latency-based flight-recorder retention.
    SlowOpMs(Option<u64>),
    /// The instrumentation kill-switch: `false` turns every metric,
    /// span, and trace site into a single relaxed atomic load.
    Enabled(bool),
}

impl Wire for ObsSetting {
    fn put(&self, w: &mut Writer) {
        match *self {
            ObsSetting::SlowOpMs(ms) => {
                w.put_u8(0);
                w.put_bool(ms.is_some());
                if let Some(ms) = ms {
                    w.put_u64(ms);
                }
            }
            ObsSetting::Enabled(on) => {
                w.put_u8(1);
                w.put_bool(on);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(match r.get_u8()? {
            0 => ObsSetting::SlowOpMs(if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            }),
            1 => ObsSetting::Enabled(r.get_bool()?),
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "ObsSetting",
                    tag: tag as u64,
                })
            }
        })
    }
}

impl Wire for SubGraph {
    fn put(&self, w: &mut Writer) {
        self.nodes.put(w);
        self.links.put(w);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(SubGraph {
            nodes: Wire::get(r)?,
            links: Wire::get(r)?,
        })
    }
}

impl Wire for MergeReport {
    fn put(&self, w: &mut Writer) {
        self.nodes_added.put(w);
        self.links_added.put(w);
        self.nodes_modified.put(w);
        w.put_u64(self.attrs_changed as u64);
        self.nodes_deleted.put(w);
        self.links_deleted.put(w);
        self.conflicts.put(w);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(MergeReport {
            nodes_added: Wire::get(r)?,
            links_added: Wire::get(r)?,
            nodes_modified: Wire::get(r)?,
            attrs_changed: r.get_u64()? as usize,
            nodes_deleted: Wire::get(r)?,
            links_deleted: Wire::get(r)?,
            conflicts: Wire::get(r)?,
        })
    }
}

// TraceRecord/SpanRecord live in neptune-obs, which knows nothing of the
// storage codec, so their wire form is spelled out here.
impl Wire for SpanRecord {
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.span_id);
        w.put_bool(self.parent.is_some());
        if let Some(p) = self.parent {
            w.put_u64(p);
        }
        w.put_str(&self.name);
        w.put_str(&self.detail);
        w.put_u64(self.start_ns);
        w.put_u64(self.duration_ns);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(SpanRecord {
            span_id: r.get_u64()?,
            parent: if r.get_bool()? {
                Some(r.get_u64()?)
            } else {
                None
            },
            name: r.get_str()?.to_owned().into(),
            detail: r.get_str()?.to_owned().into(),
            start_ns: r.get_u64()?,
            duration_ns: r.get_u64()?,
        })
    }
}

impl Wire for TraceRecord {
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.trace_id);
        w.put_str(&self.root_name);
        w.put_str(&self.root_detail);
        w.put_u64(self.total_ns);
        w.put_bool(self.error);
        w.put_u64(self.dropped_spans);
        w.put_u64(self.seq);
        self.spans.put(w);
    }
    fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
        Ok(TraceRecord {
            trace_id: r.get_u64()?,
            root_name: r.get_str()?.to_owned().into(),
            root_detail: r.get_str()?.to_owned().into(),
            total_ns: r.get_u64()?,
            error: r.get_bool()?,
            dropped_spans: r.get_u64()?,
            seq: r.get_u64()?,
            spans: Wire::get(r)?,
        })
    }
}

/// A tagged message enum and its codec: each variant is its tag byte and
/// then its fields in order. The `batch` variant carries a sequence of the
/// enum itself and is refused inside another batch while decoding, which
/// bounds recursion against hostile nested payloads.
macro_rules! wire_enum {
    (
        $(#[$attr:meta])*
        pub enum $name:ident {
            $(#[$batch_doc:meta])*
            batch $batch:ident = $batch_tag:literal,
            $(
                $(#[$doc:meta])*
                $variant:ident
                $( ( $( $tuple_field:ident : $tuple_type:ty ),* ) )?
                $( { $( $(#[$field_doc:meta])* $field:ident : $field_type:ty ),* $(,)? } )?
                = $tag:literal,
            )*
        }
    ) => {
        $(#[$attr])*
        pub enum $name {
            $(#[$batch_doc])*
            $batch(Vec<$name>),
            $(
                $(#[$doc])*
                $variant
                $( ( $( $tuple_type ),* ) )?
                $( { $( $(#[$field_doc])* $field: $field_type ),* } )?,
            )*
        }

        /// As an element of a batch: never itself a batch.
        impl Wire for $name {
            fn put(&self, w: &mut Writer) {
                match self {
                    $name::$batch(elements) => {
                        w.put_u8($batch_tag);
                        elements.put(w);
                    }
                    $(
                        $name::$variant
                        $( ( $( $tuple_field ),* ) )?
                        $( { $( $field ),* } )? => {
                            w.put_u8($tag);
                            $( $( $tuple_field.put(w); )* )?
                            $( $( $field.put(w); )* )?
                        }
                    )*
                }
            }
            fn get(r: &mut Reader<'_>) -> StorageResult<Self> {
                let tag = r.get_u8()?;
                $name::decode_tag(r, tag, true)
            }
        }

        impl Encode for $name {
            fn encode(&self, w: &mut Writer) {
                self.put(w);
            }
        }

        impl Decode for $name {
            fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
                let tag = r.get_u8()?;
                $name::decode_tag(r, tag, false)
            }
        }

        impl $name {
            /// Decode a message whose tag byte has already been consumed.
            fn decode_tag(r: &mut Reader<'_>, tag: u8, nested: bool) -> StorageResult<Self> {
                Ok(match tag {
                    $batch_tag if !nested => $name::$batch(Wire::get(r)?),
                    $(
                        $tag => $name::$variant
                            $( ( $( <$tuple_type as Wire>::get(r)? ),* ) )?
                            $( { $( $field: <$field_type as Wire>::get(r)? ),* } )?,
                    )*
                    tag => {
                        return Err(StorageError::InvalidTag {
                            context: stringify!($name),
                            tag: tag as u64,
                        })
                    }
                })
            }
        }
    };
}

/// The request table: every request the server answers, each written once.
///
/// A row gives the variant's docs, fields and wire tag, then the call that
/// serves it, then the `Client` method that sends it: `fn`, the method's
/// name and return type, and the reply that carries the value, as a match
/// arm on a `Response` variant (named without its `Response::` prefix).
/// Every row but `Batch` has one. The section gives its class:
///
/// - `read`: observes one context and is served lock-free from the
///   context's published view (`|view|`), or on the exclusive path from
///   the home shard's machine (the same call, or a second one when the
///   machine must do more, as `openNode` fires its demon);
/// - `global`: observes the whole store or only process-wide observability
///   state, never one context, and is served from the server's `Global`
///   source (`|s|`);
/// - `write`: mutates one context on its home shard (`|ham|`);
/// - `machine`: mutates the sharded store as a whole (`|s|`), routed by
///   the field after `@` if it has one;
/// - `txn`: transaction control, run by the server itself;
/// - `batch`: the one batch variant.
///
/// A `read` or `write` row is routed by its `context` field. Fields reach
/// a `read`, `global` or `machine` call by reference and a `write` call by
/// value. Invoke as `requests!(generator)`: the table is handed to the
/// `generator` macro, which matches the same grammar.
macro_rules! requests {
    ($generate:ident) => {
        $generate! {
            read {
                /// `linearizeGraph` (predicates as source text).
                LinearizeGraph {
                    /// Target context.
                    context: ContextId,
                    /// Traversal root.
                    start: NodeIndex,
                    /// Time of the traversal.
                    time: Time,
                    /// Node visibility predicate.
                    node_pred: String,
                    /// Link visibility predicate.
                    link_pred: String,
                    /// Attributes to return per node.
                    node_attrs: Vec<AttributeIndex>,
                    /// Attributes to return per link.
                    link_attrs: Vec<AttributeIndex>,
                } = 5 => |m| {
                    let (nodes, links) = (parse_pred(node_pred)?, parse_pred(link_pred)?);
                    Response::SubGraph(m.linearize_graph(
                        *context, *start, *time, &nodes, &links, node_attrs, link_attrs,
                    )?)
                } => fn linearize_graph -> SubGraph { SubGraph(graph) => graph };
                /// `getGraphQuery` (predicates as source text).
                GetGraphQuery {
                    /// Target context.
                    context: ContextId,
                    /// Time of the query.
                    time: Time,
                    /// Node visibility predicate.
                    node_pred: String,
                    /// Link visibility predicate.
                    link_pred: String,
                    /// Attributes to return per node.
                    node_attrs: Vec<AttributeIndex>,
                    /// Attributes to return per link.
                    link_attrs: Vec<AttributeIndex>,
                } = 6 => |m| {
                    let (nodes, links) = (parse_pred(node_pred)?, parse_pred(link_pred)?);
                    Response::SubGraph(
                        m.get_graph_query(*context, *time, &nodes, &links, node_attrs, link_attrs)?,
                    )
                } => fn get_graph_query -> SubGraph { SubGraph(graph) => graph };
                /// `openNode`.
                OpenNode {
                    /// Target context.
                    context: ContextId,
                    /// Node to open.
                    node: NodeIndex,
                    /// Version time (zero = current).
                    time: Time,
                    /// Attributes to return.
                    attrs: Vec<AttributeIndex>,
                } = 7 => |view| opened(view.read_node(*context, *node, *time, attrs)?),
                    |ham| opened(ham.open_node(*context, *node, *time, attrs)?)
                    => fn open_node -> OpenedNode {
                        Opened { contents, link_pts, values, current_time } => OpenedNode {
                            contents, link_pts, values, current_time,
                        }
                    };
                /// `getNodeTimeStamp`.
                GetNodeTimeStamp {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                } = 9 => |m| Response::Time(m.get_node_time_stamp(*context, *node)?)
                    => fn get_node_time_stamp -> Time { Time(time) => time };
                /// `getNodeVersions`.
                GetNodeVersions {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                } = 11 => |m| {
                    let (major, minor) = m.get_node_versions(*context, *node)?;
                    Response::Versions(major, minor)
                } => fn get_node_versions -> (Vec<Version>, Vec<Version>) {
                    Versions(major, minor) => (major, minor)
                };
                /// `getNodeDifferences`.
                GetNodeDifferences {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                    /// Old version time.
                    time1: Time,
                    /// New version time.
                    time2: Time,
                } = 12 => |m| {
                    Response::Differences(m.get_node_differences(*context, *node, *time1, *time2)?)
                } => fn get_node_differences -> Vec<Difference> { Differences(ds) => ds };
                /// `getToNode`.
                GetToNode {
                    /// Target context.
                    context: ContextId,
                    /// Link queried.
                    link: LinkIndex,
                    /// Time of the query.
                    time: Time,
                } = 13 => |m| {
                    let (node, at) = m.get_to_node(*context, *link, *time)?;
                    Response::NodeAt(node, at)
                } => fn get_to_node -> (NodeIndex, Time) { NodeAt(node, at) => (node, at) };
                /// `getFromNode`.
                GetFromNode {
                    /// Target context.
                    context: ContextId,
                    /// Link queried.
                    link: LinkIndex,
                    /// Time of the query.
                    time: Time,
                } = 14 => |m| {
                    let (node, at) = m.get_from_node(*context, *link, *time)?;
                    Response::NodeAt(node, at)
                } => fn get_from_node -> (NodeIndex, Time) { NodeAt(node, at) => (node, at) };
                /// `getAttributes`.
                GetAttributes {
                    /// Target context.
                    context: ContextId,
                    /// Time of the query.
                    time: Time,
                } = 15 => |m| Response::Attributes(m.get_attributes(*context, *time)?)
                    => fn get_attributes -> Vec<(String, AttributeIndex)> {
                        Attributes(items) => items
                    };
                /// `getAttributeValues`.
                GetAttributeValues {
                    /// Target context.
                    context: ContextId,
                    /// Attribute queried.
                    attr: AttributeIndex,
                    /// Time of the query.
                    time: Time,
                } = 16 => |m| Response::Values(m.get_attribute_values(*context, *attr, *time)?)
                    => fn get_attribute_values -> Vec<Value> { Values(values) => values };
                /// `getNodeAttributeValue`.
                GetNodeAttributeValue {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                    /// Attribute queried.
                    attr: AttributeIndex,
                    /// Time of the query.
                    time: Time,
                } = 20 => |m| {
                    Response::Value(m.get_node_attribute_value(*context, *node, *attr, *time)?)
                } => fn get_node_attribute_value -> Value { Value(value) => value };
                /// `getNodeAttributes`.
                GetNodeAttributes {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                    /// Time of the query.
                    time: Time,
                } = 21 => |m| Response::AttrTriples(m.get_node_attributes(*context, *node, *time)?)
                    => fn get_node_attributes -> Vec<(String, AttributeIndex, Value)> {
                        AttrTriples(items) => items
                    };
                /// `getLinkAttributeValue`.
                GetLinkAttributeValue {
                    /// Target context.
                    context: ContextId,
                    /// Link queried.
                    link: LinkIndex,
                    /// Attribute queried.
                    attr: AttributeIndex,
                    /// Time of the query.
                    time: Time,
                } = 24 => |m| {
                    Response::Value(m.get_link_attribute_value(*context, *link, *attr, *time)?)
                } => fn get_link_attribute_value -> Value { Value(value) => value };
                /// `getLinkAttributes`.
                GetLinkAttributes {
                    /// Target context.
                    context: ContextId,
                    /// Link queried.
                    link: LinkIndex,
                    /// Time of the query.
                    time: Time,
                } = 25 => |m| Response::AttrTriples(m.get_link_attributes(*context, *link, *time)?)
                    => fn get_link_attributes -> Vec<(String, AttributeIndex, Value)> {
                        AttrTriples(items) => items
                    };
                /// `getGraphDemons`.
                GetGraphDemons {
                    /// Target context.
                    context: ContextId,
                    /// Time of the query.
                    time: Time,
                } = 27 => |m| Response::Demons(m.get_graph_demons(*context, *time)?)
                    => fn get_graph_demons -> Vec<(Event, DemonSpec)> { Demons(items) => items };
                /// `getNodeDemons`.
                GetNodeDemons {
                    /// Target context.
                    context: ContextId,
                    /// Node queried.
                    node: NodeIndex,
                    /// Time of the query.
                    time: Time,
                } = 29 => |m| Response::Demons(m.get_node_demons(*context, *node, *time)?)
                    => fn get_node_demons -> Vec<(Event, DemonSpec)> { Demons(items) => items };
            }
            global {
                /// List live contexts.
                ListContexts = 36 => |s| Response::Contexts(s.contexts())
                    => fn list_contexts -> Vec<ContextId> { Contexts(ids) => ids };
                /// Liveness probe.
                Ping = 38 => |_| Response::Ok => fn ping -> () { Ok => () };
                /// Run the integrity verifier (`neptune-check`) over the
                /// server's store: file scan plus every in-memory invariant.
                /// It takes each shard's lock in turn for the file scan, the
                /// one global read that is not lock-free. No findings means
                /// the store is clean.
                Verify = 39 => |s| Response::Findings(neptune_check::verify_sharded(s.ham))
                    => fn verify -> Vec<Finding> { Findings(findings) => findings };
                /// Read the version cache's counters — since the archives'
                /// anchor caches became the only version cache, theirs:
                /// hits (exact-anchor checkouts), misses (checkouts that
                /// replayed deltas), and the anchors' entries and bytes.
                ///
                /// Compatibility alias: everything it reports (and much more)
                /// is in [`Request::Metrics`].
                CacheStats = 40 => |_| cache_stats_response()
                    => fn cache_stats -> (u64, u64, u64, u64) {
                        CacheStats { hits, misses, entries, bytes } =>
                            (hits, misses, entries, bytes)
                    };
                /// Read the full metrics registry as Prometheus-style text
                /// exposition: per-RPC latency histograms, HAM operation
                /// timings and transaction counters, WAL/replay/cache
                /// instrumentation.
                Metrics = 41 => |s| metrics_response(s.snapshot_age())
                    => fn metrics -> String { Metrics(text) => text };
                /// Snapshot the server's flight recorder: every retained
                /// trace (recent tail plus slow/error traces), oldest first.
                FlightDump = 44 => |_| flight_dump_response()
                    => fn trace_dump -> Vec<TraceRecord> { Traces(traces) => traces };
                /// Fetch one retained trace by id; answered with an empty
                /// [`Response::Traces`] once the trace has aged out of both
                /// rings.
                Trace {
                    /// The trace id to look up.
                    trace_id: u64,
                } = 45 => |_| trace_response(*trace_id)
                    => fn trace -> Option<TraceRecord> {
                        Traces(traces) => traces.into_iter().next()
                    };
                /// Adjust an observability knob at runtime (slow-op
                /// threshold, instrumentation kill-switch).
                ObsControl {
                    /// The setting to change.
                    setting: ObsSetting,
                } = 46 => |_| obs_control_response(*setting) => fn obs_control -> () { Ok => () };
            }
            write {
                /// `addNode`.
                AddNode {
                    /// Target context.
                    context: ContextId,
                    /// Archive (true) or file (false).
                    keep_history: bool,
                } = 0 => |ham| {
                    let (node, at) = ham.add_node(context, keep_history)?;
                    Response::NodeCreated(node, at)
                } => fn add_node -> (NodeIndex, Time) { NodeCreated(node, at) => (node, at) };
                /// `deleteNode`.
                DeleteNode {
                    /// Target context.
                    context: ContextId,
                    /// Node to delete.
                    node: NodeIndex,
                } = 1 => |ham| done(ham.delete_node(context, node)?)
                    => fn delete_node -> () { Ok => () };
                /// `addLink`.
                AddLink {
                    /// Target context.
                    context: ContextId,
                    /// Source end.
                    from: LinkPt,
                    /// Destination end.
                    to: LinkPt,
                } = 2 => |ham| {
                    let (link, at) = ham.add_link(context, from, to)?;
                    Response::LinkCreated(link, at)
                } => fn add_link -> (LinkIndex, Time) { LinkCreated(link, at) => (link, at) };
                /// `copyLink`.
                CopyLink {
                    /// Target context.
                    context: ContextId,
                    /// Link to copy an end from.
                    link: LinkIndex,
                    /// Time at which to read the shared end.
                    time: Time,
                    /// Keep the source end (true) or the destination end (false).
                    keep_source: bool,
                    /// The other end.
                    pt: LinkPt,
                } = 3 => |ham| {
                    let (link, at) = ham.copy_link(context, link, time, keep_source, pt)?;
                    Response::LinkCreated(link, at)
                } => fn copy_link -> (LinkIndex, Time) { LinkCreated(link, at) => (link, at) };
                /// `deleteLink`.
                DeleteLink {
                    /// Target context.
                    context: ContextId,
                    /// Link to delete.
                    link: LinkIndex,
                } = 4 => |ham| done(ham.delete_link(context, link)?)
                    => fn delete_link -> () { Ok => () };
                /// `modifyNode`.
                ModifyNode {
                    /// Target context.
                    context: ContextId,
                    /// Node to modify.
                    node: NodeIndex,
                    /// Expected current version time.
                    time: Time,
                    /// New contents.
                    contents: Vec<u8>,
                    /// Attachment points (canonical order).
                    link_pts: Vec<LinkPt>,
                } = 8 => |ham| {
                    Response::Time(ham.modify_node(context, node, time, contents, &link_pts)?)
                } => fn modify_node -> Time { Time(time) => time };
                /// `changeNodeProtection`.
                ChangeNodeProtection {
                    /// Target context.
                    context: ContextId,
                    /// Node affected.
                    node: NodeIndex,
                    /// New protections.
                    protections: Protections,
                } = 10 => |ham| done(ham.change_node_protection(context, node, protections)?)
                    => fn change_node_protection -> () { Ok => () };
                /// `getAttributeIndex`: a write, because it interns a name it
                /// has not seen.
                GetAttributeIndex {
                    /// Target context.
                    context: ContextId,
                    /// Attribute name to intern.
                    name: String,
                } = 17 => |ham| Response::AttrIndex(ham.get_attribute_index(context, &name)?)
                    => fn get_attribute_index -> AttributeIndex { AttrIndex(attr) => attr };
                /// `setNodeAttributeValue`.
                SetNodeAttributeValue {
                    /// Target context.
                    context: ContextId,
                    /// Node affected.
                    node: NodeIndex,
                    /// Attribute set.
                    attr: AttributeIndex,
                    /// New value.
                    value: Value,
                } = 18 => |ham| done(ham.set_node_attribute_value(context, node, attr, value)?)
                    => fn set_node_attribute_value -> () { Ok => () };
                /// `deleteNodeAttribute`.
                DeleteNodeAttribute {
                    /// Target context.
                    context: ContextId,
                    /// Node affected.
                    node: NodeIndex,
                    /// Attribute deleted.
                    attr: AttributeIndex,
                } = 19 => |ham| done(ham.delete_node_attribute(context, node, attr)?)
                    => fn delete_node_attribute -> () { Ok => () };
                /// `setLinkAttributeValue`.
                SetLinkAttributeValue {
                    /// Target context.
                    context: ContextId,
                    /// Link affected.
                    link: LinkIndex,
                    /// Attribute set.
                    attr: AttributeIndex,
                    /// New value.
                    value: Value,
                } = 22 => |ham| done(ham.set_link_attribute_value(context, link, attr, value)?)
                    => fn set_link_attribute_value -> () { Ok => () };
                /// `deleteLinkAttribute`.
                DeleteLinkAttribute {
                    /// Target context.
                    context: ContextId,
                    /// Link affected.
                    link: LinkIndex,
                    /// Attribute deleted.
                    attr: AttributeIndex,
                } = 23 => |ham| done(ham.delete_link_attribute(context, link, attr)?)
                    => fn delete_link_attribute -> () { Ok => () };
                /// `setGraphDemonValue`.
                SetGraphDemonValue {
                    /// Target context.
                    context: ContextId,
                    /// Triggering event.
                    event: Event,
                    /// Demon (None disables).
                    demon: Option<DemonSpec>,
                } = 26 => |ham| done(ham.set_graph_demon_value(context, event, demon)?)
                    => fn set_graph_demon_value -> () { Ok => () };
                /// `setNodeDemon`.
                SetNodeDemon {
                    /// Target context.
                    context: ContextId,
                    /// Node affected.
                    node: NodeIndex,
                    /// Triggering event.
                    event: Event,
                    /// Demon (None disables).
                    demon: Option<DemonSpec>,
                } = 28 => |ham| done(ham.set_node_demon(context, node, event, demon)?)
                    => fn set_node_demon -> () { Ok => () };
            }
            machine {
                /// Fork a context.
                CreateContext {
                    /// Parent context.
                    from: ContextId,
                } = 33 @from => |s| Response::Context(s.ham.create_context(*from)?)
                    => fn create_context -> ContextId { Context(id) => id };
                /// Merge a context back into its parent, which may live on
                /// another shard: the sharded merge finds it.
                MergeContext {
                    /// Child to merge.
                    child: ContextId,
                    /// Conflict policy.
                    policy: ConflictPolicy,
                } = 34 @child => |s| Response::Merged(s.ham.merge_context(*child, *policy)?)
                    => fn merge_context -> MergeReport { Merged(report) => report };
                /// Discard a context.
                DestroyContext {
                    /// Context to discard.
                    id: ContextId,
                } = 35 @id => |s| done(s.ham.destroy_context(*id)?)
                    => fn destroy_context -> () { Ok => () };
                /// Force a checkpoint.
                Checkpoint = 37 => |s| done(s.ham.checkpoint()?)
                    => fn checkpoint -> () { Ok => () };
            }
            txn {
                /// Begin an explicit transaction owned by this connection.
                BeginTransaction = 30 => fn begin_transaction -> u64 { TxnStarted(id) => id };
                /// Commit this connection's transaction.
                CommitTransaction = 31 => fn commit_transaction -> () { Ok => () };
                /// Abort this connection's transaction.
                AbortTransaction = 32 => fn abort_transaction -> () { Ok => () };
            }
            batch {
                /// Several requests executed back-to-back under one gate
                /// check and one HAM lock acquisition; answered by
                /// [`Response::Batch`] with one element per request, in
                /// order (per-element errors do not abort the rest).
                /// Transaction control and nested batches are rejected.
                Batch = 42;
            }
        }
    };
}
pub(crate) use requests;

/// Generate [`Request`], its codec and its classification from the table
/// (a row's client method is the client's).
///
/// Metavariables are named by section (`r`ead, `g`lobal, `w`rite,
/// `m`achine, `t`xn, `b`atch) and part: `v` variant, `d` docs, `f` field,
/// `fd` field docs, `t` field type, `tag`, the call (`c`) with its bound
/// source (`m`, `s`, `h`; `x`/`xc` for a read's exclusive call), and the
/// client method's name (`n`), return type (`r`) and `reply`.
macro_rules! protocol {
    (
        read { $(
            $(#[$rd:meta])*
            $rv:ident { $( $(#[$rfd:meta])* $rf:ident : $rt:ty ),* $(,)? }
            = $rtag:literal => |$rm:pat_param| $rc:expr $(, |$rx:pat_param| $rxc:expr)?
            => fn $rn:ident -> $rr:ty { $($rreply:tt)* };
        )* }
        global { $(
            $(#[$gd:meta])*
            $gv:ident $({ $( $(#[$gfd:meta])* $gf:ident : $gt:ty ),* $(,)? })?
            = $gtag:literal => |$gs:pat_param| $gc:expr
            => fn $gn:ident -> $gr:ty { $($greply:tt)* };
        )* }
        write { $(
            $(#[$wd:meta])*
            $wv:ident { $( $(#[$wfd:meta])* $wf:ident : $wt:ty ),* $(,)? }
            = $wtag:literal => |$wh:pat_param| $wc:expr
            => fn $wn:ident -> $wr:ty { $($wreply:tt)* };
        )* }
        machine { $(
            $(#[$md:meta])*
            $mv:ident $({ $( $(#[$mfd:meta])* $mf:ident : $mt:ty ),* $(,)? })?
            = $mtag:literal $(@$route:ident)? => |$ms:pat_param| $mc:expr
            => fn $mn:ident -> $mr:ty { $($mreply:tt)* };
        )* }
        txn { $(
            $(#[$td:meta])*
            $tv:ident = $ttag:literal => fn $tn:ident -> $tr:ty { $($treply:tt)* };
        )* }
        batch { $(#[$bd:meta])* $bv:ident = $btag:literal; }
    ) => {
        wire_enum! {
            /// A client request: one HAM operation (or transaction control).
            #[derive(Debug, Clone, PartialEq)]
            pub enum Request {
                $(#[$bd])*
                batch $bv = $btag,
                $(
                    $(#[$rd])*
                    $rv { $( $(#[$rfd])* $rf: $rt ),* } = $rtag,
                )*
                $(
                    $(#[$gd])*
                    $gv $({ $( $(#[$gfd])* $gf: $gt ),* })? = $gtag,
                )*
                $(
                    $(#[$wd])*
                    $wv { $( $(#[$wfd])* $wf: $wt ),* } = $wtag,
                )*
                $(
                    $(#[$md])*
                    $mv $({ $( $(#[$mfd])* $mf: $mt ),* })? = $mtag,
                )*
                $(
                    $(#[$td])*
                    $tv = $ttag,
                )*
            }
        }

        impl Request {
            /// Whether this request only observes the HAM: the table's
            /// `read` and `global` sections.
            ///
            /// The server serves read-only requests lock-free from the
            /// published committed views, so any number of them proceed
            /// concurrently; every other request takes the exclusive path.
            /// A request belongs here only if the call serving it takes
            /// `&self` (`GetAttributeIndex` interns names and `Checkpoint`
            /// rewrites files, so neither qualifies). `OpenNode` is
            /// read-only with one exception — a registered `nodeOpened`
            /// demon — which the server detects and routes back through
            /// the exclusive path. A batch is read-only iff every element
            /// is: one write demotes the whole batch to the exclusive path.
            pub fn is_read_only(&self) -> bool {
                match self {
                    Request::$bv(elements) => elements.iter().all(Request::is_read_only),
                    $( Request::$rv { .. } => true, )*
                    $( Request::$gv { .. } => true, )*
                    $( Request::$wv { .. } => false, )*
                    $( Request::$mv { .. } => false, )*
                    $( Request::$tv => false, )*
                }
            }

            /// The context this request is scoped to, if any — the sharded
            /// server's routing key: context-scoped requests go to the
            /// context's home shard, `None` means machine-global (served
            /// from a multi-shard view when read-only, or under the gate
            /// when not).
            ///
            /// `MergeContext` reports the *child* context: the server
            /// routes to the sharded merge which discovers the parent
            /// (possibly on another shard) itself. A `Batch` is global —
            /// the server classifies its elements individually.
            pub fn context_id(&self) -> Option<ContextId> {
                match self {
                    $( Request::$rv { context, .. } => Some(*context), )*
                    $( Request::$wv { context, .. } => Some(*context), )*
                    $( Request::$mv { $($route,)? .. } => protocol!(@route $($route)?), )*
                    $( Request::$gv { .. } => None, )*
                    $( Request::$tv => None, )*
                    Request::$bv(..) => None,
                }
            }

            /// The variant's name, used as the `op` label of the server's
            /// per-request latency histograms (`neptune_server_rpc_ns{op=...}`).
            pub fn name(&self) -> &'static str {
                match self {
                    Request::$bv(..) => stringify!($bv),
                    $( Request::$rv { .. } => stringify!($rv), )*
                    $( Request::$gv { .. } => stringify!($gv), )*
                    $( Request::$wv { .. } => stringify!($wv), )*
                    $( Request::$mv { .. } => stringify!($mv), )*
                    $( Request::$tv => stringify!($tv), )*
                }
            }
        }
    };
    (@route) => { None };
    (@route $route:ident) => { Some(*$route) };
}

requests!(protocol);

wire_enum! {
    /// The server's answer to a [`Request`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// Answers [`Request::Batch`]: one response per element, in order.
        batch Batch = 23,
        /// Operation succeeded with no payload.
        Ok = 0,
        /// `(NodeIndex, Time)` — addNode.
        NodeCreated(node: NodeIndex, time: Time) = 1,
        /// `(LinkIndex, Time)` — addLink / copyLink.
        LinkCreated(link: LinkIndex, time: Time) = 2,
        /// A query result.
        SubGraph(graph: SubGraph) = 3,
        /// openNode's result.
        Opened {
            /// Contents at the requested time, shared with the HAM's version
            /// store/cache — encoding splices this buffer by reference.
            contents: Arc<[u8]>,
            /// Link attachments of that version.
            link_pts: Vec<LinkPt>,
            /// Requested attribute values.
            values: Vec<Option<Value>>,
            /// Current version time.
            current_time: Time,
        } = 4,
        /// A single time (timestamps, modify results).
        Time(time: Time) = 5,
        /// Version histories (major, minor).
        Versions(major: Vec<Version>, minor: Vec<Version>) = 6,
        /// Differences between versions.
        Differences(differences: Vec<Difference>) = 7,
        /// A node and the version of it a link end refers to.
        NodeAt(node: NodeIndex, time: Time) = 8,
        /// Attribute names and indices.
        Attributes(attributes: Vec<(String, AttributeIndex)>) = 9,
        /// A set of values.
        Values(values: Vec<Value>) = 10,
        /// An attribute index.
        AttrIndex(attr: AttributeIndex) = 11,
        /// A single value.
        Value(value: Value) = 12,
        /// Attribute triples.
        AttrTriples(triples: Vec<(String, AttributeIndex, Value)>) = 13,
        /// Demon table entries.
        Demons(demons: Vec<(Event, DemonSpec)>) = 14,
        /// A transaction id.
        TxnStarted(id: u64) = 15,
        /// A created context.
        Context(id: ContextId) = 16,
        /// A merge report.
        Merged(report: MergeReport) = 17,
        /// Live contexts.
        Contexts(ids: Vec<ContextId>) = 18,
        /// The operation failed; human-readable reason.
        Error(message: String) = 19,
        /// Integrity-verifier results (empty = clean store).
        Findings(findings: Vec<Finding>) = 20,
        /// Anchor-cache counters, summed over every archive in the process.
        CacheStats {
            /// Historical checkouts served by an exact anchor (zero deltas).
            hits: u64,
            /// Historical checkouts that applied at least one delta.
            misses: u64,
            /// Anchors currently held.
            entries: u64,
            /// Total bytes of the anchors currently held.
            bytes: u64,
        } = 21,
        /// The metrics registry in Prometheus text exposition format.
        Metrics(text: String) = 22,
        /// Retained traces from the flight recorder — the whole dump for
        /// [`Request::FlightDump`], zero or one for [`Request::Trace`].
        Traces(traces: Vec<TraceRecord>) = 24,
    }
}

/// A [`Request`] plus the optional trace-context extension the server's
/// connection loop decodes.
///
/// Wire compatibility is by construction: an old client's frame starts
/// directly with a `Request` tag and decodes here with `context: None` —
/// the server then originates the trace itself. A new client prefixes the
/// frame with [`TRACE_EXT_TAG`] followed by the context's `(trace_id,
/// span_id)` pair, and the ordinary request after it.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRequest {
    /// The caller's trace context, when the frame carried one.
    pub context: Option<TraceContext>,
    /// The request itself.
    pub request: Request,
}

impl From<Request> for TracedRequest {
    fn from(request: Request) -> TracedRequest {
        TracedRequest {
            context: None,
            request,
        }
    }
}

impl Encode for TracedRequest {
    fn encode(&self, w: &mut Writer) {
        if let Some(ctx) = &self.context {
            w.put_u8(TRACE_EXT_TAG);
            w.put_u64(ctx.trace_id);
            w.put_u64(ctx.span_id);
        }
        self.request.encode(w);
    }
}

impl Decode for TracedRequest {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let mut tag = r.get_u8()?;
        let mut context = None;
        if tag == TRACE_EXT_TAG {
            context = Some(TraceContext {
                trace_id: r.get_u64()?,
                span_id: r.get_u64()?,
                parent: None,
            });
            tag = r.get_u8()?;
        }
        Ok(TracedRequest {
            context,
            request: Request::decode_tag(r, tag, false)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let requests = vec![
            Request::AddNode {
                context: ContextId(0),
                keep_history: true,
            },
            Request::DeleteNode {
                context: ContextId(0),
                node: NodeIndex(3),
            },
            Request::AddLink {
                context: ContextId(1),
                from: LinkPt::current(NodeIndex(1), 5),
                to: LinkPt::pinned(NodeIndex(2), 0, Time(3)),
            },
            Request::LinearizeGraph {
                context: ContextId(0),
                start: NodeIndex(1),
                time: Time(0),
                node_pred: "document = spec".into(),
                link_pred: "true".into(),
                node_attrs: vec![AttributeIndex(0)],
                link_attrs: vec![],
            },
            Request::OpenNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(7),
                attrs: vec![AttributeIndex(1), AttributeIndex(2)],
            },
            Request::ModifyNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(7),
                contents: b"body".to_vec(),
                link_pts: vec![LinkPt::current(NodeIndex(1), 3)],
            },
            Request::SetNodeAttributeValue {
                context: ContextId(0),
                node: NodeIndex(1),
                attr: AttributeIndex(0),
                value: Value::str("requirements"),
            },
            Request::SetGraphDemonValue {
                context: ContextId(0),
                event: Event::NodeModified,
                demon: Some(DemonSpec::notify("d", "m")),
            },
            Request::BeginTransaction,
            Request::MergeContext {
                child: ContextId(2),
                policy: ConflictPolicy::PreferChild,
            },
            Request::Ping,
            Request::Verify,
            Request::CacheStats,
            Request::Metrics,
        ];
        for req in requests {
            let decoded = Request::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn response_roundtrips() {
        let responses = vec![
            Response::Ok,
            Response::NodeCreated(NodeIndex(4), Time(9)),
            Response::SubGraph(SubGraph {
                nodes: vec![(NodeIndex(1), vec![Some(Value::str("x")), None])],
                links: vec![(LinkIndex(2), vec![])],
            }),
            Response::Opened {
                contents: b"text"[..].into(),
                link_pts: vec![LinkPt::current(NodeIndex(1), 0)],
                values: vec![None, Some(Value::Int(3))],
                current_time: Time(12),
            },
            Response::Versions(
                vec![Version::new(Time(1), "created")],
                vec![Version::new(Time(2), "attr")],
            ),
            Response::Differences(vec![Difference::Insertion {
                at: 0,
                new_lines: vec![b"x\n".to_vec()],
            }]),
            Response::Attributes(vec![("doc".into(), AttributeIndex(0))]),
            Response::AttrTriples(vec![("doc".into(), AttributeIndex(0), Value::str("v"))]),
            Response::Demons(vec![(Event::NodeAdded, DemonSpec::notify("n", "m"))]),
            Response::Merged(MergeReport {
                nodes_added: vec![(NodeIndex(5), NodeIndex(9))],
                conflicts: vec!["x".into()],
                attrs_changed: 2,
                ..Default::default()
            }),
            Response::Contexts(vec![ContextId(0), ContextId(3)]),
            Response::Error("boom".into()),
            Response::Findings(vec![Finding::new(
                neptune_check::Severity::Error,
                neptune_check::RULE_DELTA_CHAIN,
                "context 0 node 3",
                "delta at time 4 replays to 65 bytes, head holds 64",
            )]),
            Response::Metrics("# TYPE neptune_server_rpc_ns histogram\n".into()),
        ];
        for resp in responses {
            let decoded = Response::from_bytes(&resp.to_bytes()).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn cache_stats_response_roundtrips() {
        let resp = Response::CacheStats {
            hits: 10,
            misses: 3,
            entries: 7,
            bytes: 4096,
        };
        assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        // Golden bytes: the benchmark and old clients speak exactly this,
        // whichever cache the numbers come from.
        assert_eq!(Request::CacheStats.to_bytes(), [40]);
        assert_eq!(resp.to_bytes(), [21, 10, 3, 7, 0x80, 0x20]);
    }

    #[test]
    fn read_only_classification_spot_checks() {
        assert!(Request::Ping.is_read_only());
        assert!(Request::ListContexts.is_read_only());
        assert!(Request::Verify.is_read_only());
        assert!(Request::CacheStats.is_read_only());
        assert!(Request::Metrics.is_read_only());
        assert!(Request::OpenNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(0),
            attrs: vec![],
        }
        .is_read_only());
        assert!(!Request::BeginTransaction.is_read_only());
        assert!(!Request::Checkpoint.is_read_only());
        // Interns the attribute name on first use: mutating.
        assert!(!Request::GetAttributeIndex {
            context: ContextId(0),
            name: "document".into(),
        }
        .is_read_only());
        assert!(!Request::ModifyNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(1),
            contents: vec![],
            link_pts: vec![],
        }
        .is_read_only());
    }

    #[test]
    fn batch_roundtrips_and_classifies() {
        let read_batch = Request::Batch(vec![
            Request::Ping,
            Request::OpenNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(0),
                attrs: vec![AttributeIndex(2)],
            },
            Request::CacheStats,
        ]);
        assert_eq!(
            Request::from_bytes(&read_batch.to_bytes()).unwrap(),
            read_batch
        );
        // A batch is read-only iff every element is.
        assert!(read_batch.is_read_only());
        let write_batch = Request::Batch(vec![
            Request::Ping,
            Request::ModifyNode {
                context: ContextId(0),
                node: NodeIndex(1),
                time: Time(1),
                contents: b"x".to_vec(),
                link_pts: vec![],
            },
        ]);
        assert!(!write_batch.is_read_only());
        assert_eq!(
            Request::from_bytes(&write_batch.to_bytes()).unwrap(),
            write_batch
        );
        assert!(Request::Batch(vec![]).is_read_only());

        let response = Response::Batch(vec![
            Response::Ok,
            Response::Error("nope".into()),
            Response::Time(Time(9)),
        ]);
        assert_eq!(
            Response::from_bytes(&response.to_bytes()).unwrap(),
            response
        );
    }

    #[test]
    fn nested_batches_are_rejected_at_decode() {
        // A nested batch would let a hostile frame drive unbounded decode
        // recursion, so the inner tag is refused while decoding.
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]);
        assert!(matches!(
            Request::from_bytes(&nested.to_bytes()),
            Err(neptune_storage::StorageError::InvalidTag { .. })
        ));
        let nested = Response::Batch(vec![Response::Batch(vec![Response::Ok])]);
        assert!(matches!(
            Response::from_bytes(&nested.to_bytes()),
            Err(neptune_storage::StorageError::InvalidTag { .. })
        ));
    }

    #[test]
    fn request_names_are_unique() {
        let requests = [
            Request::Ping,
            Request::Metrics,
            Request::CacheStats,
            Request::BeginTransaction,
            Request::AddNode {
                context: ContextId(0),
                keep_history: true,
            },
        ];
        let names: std::collections::BTreeSet<&str> = requests.iter().map(|r| r.name()).collect();
        assert_eq!(names.len(), requests.len());
        assert_eq!(Request::Metrics.name(), "Metrics");
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(Request::from_bytes(&[99]).is_err());
        assert!(Response::from_bytes(&[99]).is_err());
        // The trace-extension tag is not a Request tag: a plain decoder
        // (an old server) rejects a prefixed frame rather than misparsing.
        assert!(Request::from_bytes(&[TRACE_EXT_TAG]).is_err());
    }

    #[test]
    fn obs_requests_roundtrip_and_classify() {
        let requests = vec![
            Request::FlightDump,
            Request::Trace { trace_id: 0xdead },
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(Some(25)),
            },
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(None),
            },
            Request::ObsControl {
                setting: ObsSetting::Enabled(false),
            },
        ];
        for req in requests {
            let decoded = Request::from_bytes(&req.to_bytes()).unwrap();
            assert_eq!(decoded, req);
            assert!(
                req.is_read_only(),
                "{} must take the shared path",
                req.name()
            );
        }
        assert_eq!(Request::FlightDump.name(), "FlightDump");
        assert_eq!(Request::Trace { trace_id: 1 }.name(), "Trace");
        assert_eq!(
            Request::ObsControl {
                setting: ObsSetting::Enabled(true)
            }
            .name(),
            "ObsControl"
        );
    }

    #[test]
    fn traces_response_roundtrips() {
        let resp = Response::Traces(vec![TraceRecord {
            trace_id: 0xfeed,
            root_name: "server.rpc".into(),
            root_detail: "OpenNode".into(),
            total_ns: 1_234_567,
            error: true,
            dropped_spans: 2,
            seq: 9,
            spans: vec![
                SpanRecord {
                    span_id: 11,
                    parent: None,
                    name: "server.rpc".into(),
                    detail: "OpenNode".into(),
                    start_ns: 0,
                    duration_ns: 1_234_567,
                },
                SpanRecord {
                    span_id: 12,
                    parent: Some(11),
                    name: "view.read_node".into(),
                    detail: "ctx0 node3".into(),
                    start_ns: 400,
                    duration_ns: 1_000_000,
                },
            ],
        }]);
        assert_eq!(Response::from_bytes(&resp.to_bytes()).unwrap(), resp);
        let empty = Response::Traces(vec![]);
        assert_eq!(Response::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn traced_request_roundtrips_and_accepts_legacy_frames() {
        // With a context: the extension prefix rides ahead of the request.
        let traced = TracedRequest {
            context: Some(TraceContext {
                trace_id: 0xaaaa,
                span_id: 0xbbbb,
                parent: None,
            }),
            request: Request::Ping,
        };
        let decoded = TracedRequest::from_bytes(&traced.to_bytes()).unwrap();
        assert_eq!(decoded, traced);

        // Without a context the wire form IS the plain request encoding —
        // byte-identical, so old servers keep accepting new no-context
        // clients too.
        let bare = TracedRequest::from(Request::Metrics);
        assert_eq!(bare.to_bytes(), Request::Metrics.to_bytes());

        // An old client's plain frame decodes with context: None.
        let legacy = Request::OpenNode {
            context: ContextId(0),
            node: NodeIndex(1),
            time: Time(0),
            attrs: vec![],
        };
        let decoded = TracedRequest::from_bytes(&legacy.to_bytes()).unwrap();
        assert_eq!(decoded.context, None);
        assert_eq!(decoded.request, legacy);

        // Batches decode through the traced path as well.
        let traced_batch = TracedRequest {
            context: Some(TraceContext {
                trace_id: 7,
                span_id: 8,
                parent: None,
            }),
            request: Request::Batch(vec![Request::Ping, Request::CacheStats]),
        };
        assert_eq!(
            TracedRequest::from_bytes(&traced_batch.to_bytes()).unwrap(),
            traced_batch
        );
    }
}
