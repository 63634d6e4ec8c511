//! Framing over a real socket.
//!
//! The server polls for shutdown with a short read timeout, so a request
//! whose bytes arrive in pieces separated by a longer pause (a TCP
//! retransmit, a slow link, a client writing header and payload
//! separately) crosses at least one timeout mid-frame. Such a request must
//! still be answered: the frame reader keeps its progress across the
//! timeout instead of dropping the bytes it already read. The last test
//! pins the bytes of one untraced `OpenNode` request frame and of its
//! `Opened` response frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use neptune::prelude::*;
use neptune::server::frame;
use neptune::server::{Request, Response, TracedRequest};

/// Longer than the server's 100 ms shutdown poll, so every pause spans at
/// least one read timeout on the connection thread.
const PAUSE: Duration = Duration::from_millis(350);

/// How long a raw client waits for the reply before the test fails (a
/// `Client` has no read timeout and would hang instead).
const REPLY_DEADLINE: Duration = Duration::from_secs(3);

/// The contents of the one node every test serves.
const CONTENTS: &[u8] = b"a node split across the wire";

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neptune-wire-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh store holding one node with [`CONTENTS`], served on an
/// ephemeral port.
fn server_with_node(name: &str) -> (neptune::server::ServerHandle, NodeIndex, PathBuf) {
    let dir = tmpdir(name);
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, false).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, CONTENTS.to_vec(), &[])
        .unwrap();
    (serve(ham, "127.0.0.1:0").unwrap(), node, dir)
}

fn open_node(node: NodeIndex) -> Request {
    Request::OpenNode {
        context: MAIN_CONTEXT,
        node,
        time: Time::CURRENT,
        attrs: vec![],
    }
}

/// The wire bytes of `request` as a client without an active trace sends
/// it: no trace-context extension, one frame.
fn frame_bytes(request: Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    frame::write_frame(
        &mut bytes,
        &TracedRequest {
            context: None,
            request,
        },
    )
    .unwrap();
    bytes
}

fn connect(server: &neptune::server::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(REPLY_DEADLINE)).unwrap();
    stream
}

/// Send `request` as two writes cut at byte `cut` of its frame, with
/// [`PAUSE`] between them, and return the reply.
fn send_split(name: &str, request: impl Fn(NodeIndex) -> Request, cut: usize) -> Response {
    let (server, node, dir) = server_with_node(name);
    let mut stream = connect(&server);
    let bytes = frame_bytes(request(node));
    assert!(
        cut < bytes.len(),
        "the cut must leave bytes for the second write"
    );
    stream.write_all(&bytes[..cut]).unwrap();
    std::thread::sleep(PAUSE);
    stream.write_all(&bytes[cut..]).unwrap();
    let reply = frame::read_frame::<_, Response>(&mut stream);
    drop(stream);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    reply.unwrap_or_else(|e| panic!("a request cut at byte {cut} was not answered: {e}"))
}

#[test]
fn a_pause_after_the_header_still_gets_a_reply() {
    let reply = send_split("after-header", |_| Request::ListContexts, 8);
    assert!(
        matches!(&reply, Response::Contexts(ids) if ids == &[MAIN_CONTEXT]),
        "{reply:?}"
    );
}

#[test]
fn a_pause_inside_the_header_still_gets_a_reply() {
    let reply = send_split("inside-header", |_| Request::ListContexts, 3);
    assert!(
        matches!(&reply, Response::Contexts(ids) if ids == &[MAIN_CONTEXT]),
        "{reply:?}"
    );
}

#[test]
fn a_pause_inside_the_payload_still_gets_a_reply() {
    let payload_len = frame_bytes(open_node(NodeIndex(1))).len() - 8;
    assert!(payload_len >= 4, "OpenNode must have a payload to cut");
    let reply = send_split("inside-payload", open_node, 8 + payload_len / 2);
    match reply {
        Response::Opened { contents, .. } => assert_eq!(&contents[..], CONTENTS),
        other => panic!("want Opened, got {other:?}"),
    }
}

/// Hex of the untraced `OpenNode` request frame for node 1 of a fresh
/// store, header included.
const OPEN_NODE_FRAME: &str = "050000003a41c0750700010000";

/// Hex of the `Opened` response frame the server sends back for it.
const OPENED_FRAME: &str =
    "2100000067b241f1041c61206e6f64652073706c6974206163726f7373207468652077697265000003";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn open_node_frames_are_pinned() {
    let (server, node, dir) = server_with_node("pinned");
    let request = frame_bytes(open_node(node));
    let mut stream = connect(&server);
    stream.write_all(&request).unwrap();
    let mut header = [0u8; 8];
    stream.read_exact(&mut header).unwrap();
    let [l0, l1, l2, l3, ..] = header;
    let mut response = header.to_vec();
    response.resize(8 + u32::from_le_bytes([l0, l1, l2, l3]) as usize, 0);
    stream.read_exact(&mut response[8..]).unwrap();
    drop(stream);
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&request), OPEN_NODE_FRAME, "request frame bytes moved");
    assert_eq!(hex(&response), OPENED_FRAME, "response frame bytes moved");
}
