//! Golden wire bytes for every request and response.
//!
//! `tests/wire_frames.rs` pins one `OpenNode` frame pair over a socket;
//! this file pins the payload encoding of every `Request` variant
//! (a `Batch` included), every `Response` variant, one traced request and
//! the `InvalidTag` errors a decoder returns for tags no variant owns. A
//! change to any codec, tag or field order fails here, so old clients and
//! the benchmark keep speaking to new servers. Each case also decodes its
//! pinned bytes back to the value it was built from.

use std::fmt::Debug;

use neptune::check::{Finding, Severity, RULE_DELTA_CHAIN};
use neptune::ham::context::{ConflictPolicy, MergeReport};
use neptune::ham::query::SubGraph;
use neptune::ham::types::Version;
use neptune::obs::{SpanRecord, TraceContext, TraceRecord};
use neptune::prelude::*;
use neptune::server::{ObsSetting, Request, Response, TracedRequest};
use neptune::storage::{Decode, Difference, Encode, StorageError};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// Encode every case, compare with its pinned hex, decode the pinned bytes
/// back, and report every mismatch at once.
fn check_pins<T: Encode + Decode + PartialEq + Debug>(cases: &[(T, &str)]) {
    let mut moved = Vec::new();
    for (value, pinned) in cases {
        let actual = hex(&value.to_bytes());
        if actual != *pinned {
            moved.push(format!("{value:?}\n  pinned {pinned}\n  actual {actual}"));
            continue;
        }
        let decoded = T::from_bytes(&unhex(pinned))
            .unwrap_or_else(|e| panic!("pinned bytes of {value:?} no longer decode: {e}"));
        assert_eq!(&decoded, value, "pinned bytes decode to another value");
    }
    assert!(moved.is_empty(), "wire bytes moved:\n{}", moved.join("\n"));
}

fn pt(node: u64, offset: u64) -> LinkPt {
    LinkPt::current(NodeIndex(node), offset)
}

/// One request of every variant (and every codec branch of the fields
/// with their own encoding), with the hex of its payload.
fn requests() -> Vec<(Request, &'static str)> {
    let c = ContextId(2);
    vec![
        (
            Request::AddNode {
                context: c,
                keep_history: true,
            },
            "000201",
        ),
        (
            Request::DeleteNode {
                context: c,
                node: NodeIndex(3),
            },
            "010203",
        ),
        (
            Request::AddLink {
                context: c,
                from: pt(1, 5),
                to: LinkPt::pinned(NodeIndex(2), 0, Time(3)),
            },
            "02020105000102000300",
        ),
        (
            Request::CopyLink {
                context: c,
                link: LinkIndex(4),
                time: Time(6),
                keep_source: false,
                pt: pt(7, 1),
            },
            "030204060007010001",
        ),
        (
            Request::DeleteLink {
                context: c,
                link: LinkIndex(4),
            },
            "040204",
        ),
        (
            Request::LinearizeGraph {
                context: c,
                start: NodeIndex(1),
                time: Time(9),
                node_pred: "document = spec".into(),
                link_pred: "true".into(),
                node_attrs: vec![AttributeIndex(0), AttributeIndex(3)],
                link_attrs: vec![AttributeIndex(1)],
            },
            "050201090f646f63756d656e74203d207370656304747275650200030101",
        ),
        (
            Request::GetGraphQuery {
                context: c,
                time: Time::CURRENT,
                node_pred: "kind = module".into(),
                link_pred: "".into(),
                node_attrs: vec![],
                link_attrs: vec![AttributeIndex(2)],
            },
            "0602000d6b696e64203d206d6f64756c6500000102",
        ),
        (
            Request::OpenNode {
                context: c,
                node: NodeIndex(1),
                time: Time(7),
                attrs: vec![AttributeIndex(1), AttributeIndex(200)],
            },
            "070201070201c801",
        ),
        (
            Request::ModifyNode {
                context: c,
                node: NodeIndex(1),
                time: Time(7),
                contents: b"body\n".to_vec(),
                link_pts: vec![pt(1, 3), LinkPt::pinned(NodeIndex(5), 2, Time(4))],
            },
            "0802010705626f64790a020103000105020400",
        ),
        (
            Request::GetNodeTimeStamp {
                context: c,
                node: NodeIndex(300),
            },
            "0902ac02",
        ),
        (
            Request::ChangeNodeProtection {
                context: c,
                node: NodeIndex(1),
                protections: Protections::READ_ONLY,
            },
            "0a0201a402",
        ),
        (
            Request::GetNodeVersions {
                context: c,
                node: NodeIndex(1),
            },
            "0b0201",
        ),
        (
            Request::GetNodeDifferences {
                context: c,
                node: NodeIndex(1),
                time1: Time(2),
                time2: Time(8),
            },
            "0c02010208",
        ),
        (
            Request::GetToNode {
                context: c,
                link: LinkIndex(4),
                time: Time(5),
            },
            "0d020405",
        ),
        (
            Request::GetFromNode {
                context: c,
                link: LinkIndex(4),
                time: Time(5),
            },
            "0e020405",
        ),
        (
            Request::GetAttributes {
                context: c,
                time: Time(5),
            },
            "0f0205",
        ),
        (
            Request::GetAttributeValues {
                context: c,
                attr: AttributeIndex(1),
                time: Time(5),
            },
            "10020105",
        ),
        (
            Request::GetAttributeIndex {
                context: c,
                name: "document".into(),
            },
            "110208646f63756d656e74",
        ),
        (
            Request::SetNodeAttributeValue {
                context: c,
                node: NodeIndex(1),
                attr: AttributeIndex(0),
                value: Value::str("spec"),
            },
            "12020100000473706563",
        ),
        (
            Request::DeleteNodeAttribute {
                context: c,
                node: NodeIndex(1),
                attr: AttributeIndex(0),
            },
            "13020100",
        ),
        (
            Request::GetNodeAttributeValue {
                context: c,
                node: NodeIndex(1),
                attr: AttributeIndex(0),
                time: Time(5),
            },
            "1402010005",
        ),
        (
            Request::GetNodeAttributes {
                context: c,
                node: NodeIndex(1),
                time: Time(5),
            },
            "15020105",
        ),
        (
            Request::SetLinkAttributeValue {
                context: c,
                link: LinkIndex(4),
                attr: AttributeIndex(1),
                value: Value::Int(-3),
            },
            "160204010105",
        ),
        (
            Request::DeleteLinkAttribute {
                context: c,
                link: LinkIndex(4),
                attr: AttributeIndex(1),
            },
            "17020401",
        ),
        (
            Request::GetLinkAttributeValue {
                context: c,
                link: LinkIndex(4),
                attr: AttributeIndex(1),
                time: Time(5),
            },
            "1802040105",
        ),
        (
            Request::GetLinkAttributes {
                context: c,
                link: LinkIndex(4),
                time: Time(5),
            },
            "19020405",
        ),
        (
            Request::SetGraphDemonValue {
                context: c,
                event: Event::NodeAdded,
                demon: Some(DemonSpec::notify("d", "m")),
            },
            "1a020101016400016d",
        ),
        (
            Request::SetGraphDemonValue {
                context: c,
                event: Event::AttributeChanged,
                demon: None,
            },
            "1a020700",
        ),
        (
            Request::GetGraphDemons {
                context: c,
                time: Time(5),
            },
            "1b0205",
        ),
        (
            Request::SetNodeDemon {
                context: c,
                node: NodeIndex(1),
                event: Event::NodeOpened,
                demon: Some(DemonSpec::call("c", "cb")),
            },
            "1c02010301016302026362",
        ),
        (
            Request::GetNodeDemons {
                context: c,
                node: NodeIndex(1),
                time: Time(5),
            },
            "1d020105",
        ),
        (Request::BeginTransaction, "1e"),
        (Request::CommitTransaction, "1f"),
        (Request::AbortTransaction, "20"),
        (Request::CreateContext { from: MAIN_CONTEXT }, "2100"),
        (
            Request::MergeContext {
                child: c,
                policy: ConflictPolicy::Fail,
            },
            "220200",
        ),
        (
            Request::MergeContext {
                child: c,
                policy: ConflictPolicy::PreferChild,
            },
            "220201",
        ),
        (
            Request::MergeContext {
                child: c,
                policy: ConflictPolicy::PreferParent,
            },
            "220202",
        ),
        (Request::DestroyContext { id: c }, "2302"),
        (Request::ListContexts, "24"),
        (Request::Checkpoint, "25"),
        (Request::Ping, "26"),
        (Request::Verify, "27"),
        (Request::CacheStats, "28"),
        (Request::Metrics, "29"),
        (
            Request::Batch(vec![
                Request::Ping,
                Request::GetNodeTimeStamp {
                    context: c,
                    node: NodeIndex(1),
                },
                Request::ModifyNode {
                    context: c,
                    node: NodeIndex(1),
                    time: Time(2),
                    contents: b"x".to_vec(),
                    link_pts: vec![],
                },
            ]),
            "2a032609020108020102017800",
        ),
        (Request::Batch(vec![]), "2a00"),
        (Request::FlightDump, "2c"),
        (
            Request::Trace {
                trace_id: 0xdead_beef,
            },
            "2deffdb6f50d",
        ),
        (
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(Some(25)),
            },
            "2e000119",
        ),
        (
            Request::ObsControl {
                setting: ObsSetting::SlowOpMs(None),
            },
            "2e0000",
        ),
        (
            Request::ObsControl {
                setting: ObsSetting::Enabled(false),
            },
            "2e0100",
        ),
    ]
}

fn trace_record() -> TraceRecord {
    TraceRecord {
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
    }
}

/// One response of every variant, with the hex of its payload.
fn responses() -> Vec<(Response, &'static str)> {
    vec![
        (Response::Ok, "00"),
        (Response::NodeCreated(NodeIndex(4), Time(9)), "010409"),
        (Response::LinkCreated(LinkIndex(2), Time(10)), "02020a"),
        (
            Response::SubGraph(SubGraph {
                nodes: vec![(NodeIndex(1), vec![Some(Value::str("x")), None]), (NodeIndex(2), vec![])],
                links: vec![(LinkIndex(2), vec![Some(Value::Bool(true))])],
            }),
            "0302010201000178000200010201010201",
        ),
        (
            Response::Opened {
                contents: b"text"[..].into(),
                link_pts: vec![pt(1, 0)],
                values: vec![None, Some(Value::Int(3)), Some(Value::Float(0.5))],
                current_time: Time(12),
            },
            "040474657874010100000103000101060103000000000000e03f0c",
        ),
        (Response::Time(Time(130)), "058201"),
        (Response::Versions(vec![Version::new(Time(1), "created")], vec![Version::new(Time(2), "attr")]), "060101076372656174656401020461747472"),
        (
            Response::Differences(vec![
                Difference::Insertion { at: 0, new_lines: vec![b"x\n".to_vec()] },
                Difference::Deletion { at: 3, old_lines: vec![b"y\n".to_vec(), b"z\n".to_vec()] },
            ]),
            "070201000102780a00030202790a027a0a",
        ),
        (Response::NodeAt(NodeIndex(3), Time(4)), "080304"),
        (Response::Attributes(vec![("doc".into(), AttributeIndex(0)), ("kind".into(), AttributeIndex(1))]), "090203646f6300046b696e6401"),
        (Response::Values(vec![Value::str("a"), Value::Int(7)]), "0a02000161010e"),
        (Response::AttrIndex(AttributeIndex(5)), "0b05"),
        (Response::Value(Value::str("v")), "0c000176"),
        (Response::AttrTriples(vec![("doc".into(), AttributeIndex(0), Value::str("v"))]), "0d0103646f6300000176"),
        (
            Response::Demons(vec![
                (Event::NodeAdded, DemonSpec::notify("n", "m")),
                (Event::GraphOpened, DemonSpec::call("g", "cb")),
            ]),
            "0e0201016e00016d00016702026362",
        ),
        (Response::TxnStarted(77), "0f4d"),
        (Response::Context(ContextId(3)), "1003"),
        (
            Response::Merged(MergeReport {
                nodes_added: vec![(NodeIndex(5), NodeIndex(9))],
                links_added: vec![(LinkIndex(1), LinkIndex(2))],
                nodes_modified: vec![NodeIndex(3)],
                attrs_changed: 2,
                nodes_deleted: vec![NodeIndex(4)],
                links_deleted: vec![LinkIndex(6)],
                conflicts: vec!["x".into()],
            }),
            "1101050901010201030201040106010178",
        ),
        (Response::Contexts(vec![MAIN_CONTEXT, ContextId(3)]), "12020003"),
        (Response::Error("boom".into()), "1304626f6f6d"),
        (
            Response::Findings(vec![Finding::new(
                Severity::Error,
                RULE_DELTA_CHAIN,
                "context 0 node 3",
                "delta at time 4 replays to 65 bytes, head holds 64",
            )]),
            "1401010b64656c74612d636861696e10636f6e746578742030206e6f646520333264656c74612061742074696d652034207265706c61797320746f2036352062797465732c206865616420686f6c6473203634",
        ),
        (Response::CacheStats { hits: 10, misses: 3, entries: 7, bytes: 4096 }, "150a03078020"),
        (Response::Metrics("# TYPE neptune_server_rpc_ns histogram\n".into()), "1627232054595045206e657074756e655f7365727665725f7270635f6e7320686973746f6772616d0a"),
        (Response::Batch(vec![Response::Ok, Response::Error("nope".into()), Response::Time(Time(9))]), "17030013046e6f70650509"),
        (Response::Traces(vec![trace_record()]), "1801edfd030a7365727665722e727063084f70656e4e6f646587ad4b010209020b000a7365727665722e727063084f70656e4e6f64650087ad4b0c010b0e766965772e726561645f6e6f64650a63747830206e6f6465339003c0843d"),
        (Response::Traces(vec![]), "1800"),
    ]
}

#[test]
fn every_request_is_pinned() {
    check_pins(&requests());
}

#[test]
fn every_response_is_pinned() {
    check_pins(&responses());
}

#[test]
fn a_traced_request_is_pinned() {
    let traced = TracedRequest {
        context: Some(TraceContext {
            trace_id: 0xaaaa,
            span_id: 0xbbbb,
            parent: None,
        }),
        request: Request::OpenNode {
            context: MAIN_CONTEXT,
            node: NodeIndex(1),
            time: Time::CURRENT,
            attrs: vec![],
        },
    };
    check_pins(&[(traced, "2baad502bbf7020700010000")]);
    // Without a context the wire form is the plain request's.
    let bare = TracedRequest::from(Request::Ping);
    check_pins(&[(bare, "26")]);
}

fn invalid_tag(result: Result<impl Debug, StorageError>) -> (&'static str, u64) {
    match result {
        Err(StorageError::InvalidTag { context, tag }) => (context, tag),
        other => panic!("want InvalidTag, got {other:?}"),
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // 43 is the trace-extension prefix, never a request; 47 is the first
    // tag past the last variant.
    for tag in [43u8, 47, 255] {
        assert_eq!(
            invalid_tag(Request::from_bytes(&[tag])),
            ("Request", tag as u64)
        );
    }
    for tag in [25u8, 255] {
        assert_eq!(
            invalid_tag(Response::from_bytes(&[tag])),
            ("Response", tag as u64)
        );
    }
    // A batch inside a batch is refused at its tag while decoding.
    assert_eq!(
        invalid_tag(Request::from_bytes(&[42, 1, 42, 0])),
        ("Request", 42)
    );
    assert_eq!(
        invalid_tag(Response::from_bytes(&[23, 1, 23, 0])),
        ("Response", 23)
    );
    // The same holds after a trace prefix.
    assert_eq!(
        invalid_tag(TracedRequest::from_bytes(&[43, 1, 2, 47])),
        ("Request", 47)
    );
    assert_eq!(
        invalid_tag(TracedRequest::from_bytes(&[43, 1, 2, 42, 1, 42, 0])),
        ("Request", 42)
    );
}

/// The `op` label of `neptune_server_rpc_ns` is the variant's own name, so
/// a histogram can never be filed under another request's name.
#[test]
fn request_names_are_variant_names() {
    for (request, _) in requests() {
        let debug = format!("{request:?}");
        let variant = debug.split([' ', '(', '{']).next().unwrap();
        assert_eq!(request.name(), variant, "{debug}");
    }
}
