//! How `Client`'s typed methods map a reply: the expected variant gives
//! the value, `Response::Error` gives `ClientError::Server`, and any other
//! variant gives `ClientError::Protocol` naming the expected one.
//!
//! Each case runs against a scripted one-connection server that reads one
//! request frame and answers with a chosen `Response`, so a reply the real
//! server never sends can be put in front of the client.

use std::net::TcpListener;

use neptune_ham::types::{AttributeIndex, NodeIndex, Time, MAIN_CONTEXT as MAIN};
use neptune_server::frame::FrameBuf;
use neptune_server::{Client, ClientError, Request, Response, TracedRequest};

/// Run `method` on a client of a scripted one-connection server that reads
/// one request and answers `reply`; returns the method's result and the
/// request the server read.
fn exchange<T>(
    reply: Response,
    method: impl FnOnce(&mut Client) -> neptune_server::client::Result<T>,
) -> (neptune_server::client::Result<T>, Request) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut frames = FrameBuf::new();
        let traced: TracedRequest = frames.read_frame(&mut stream).unwrap();
        frames.write_frame(&mut stream, &reply).unwrap();
        traced.request
    });
    let mut client = Client::connect(addr).unwrap();
    let result = method(&mut client);
    (result, server.join().unwrap())
}

#[test]
fn the_expected_variant_gives_the_value() {
    let (node, at) = (NodeIndex(7), Time(42));
    let (result, sent) = exchange(Response::NodeCreated(node, at), |c| c.add_node(MAIN, true));
    assert_eq!(result.unwrap(), (node, at));
    assert_eq!(
        sent,
        Request::AddNode {
            context: MAIN,
            keep_history: true
        }
    );
    // A `&str` argument travels as the row's `String` field.
    let (result, sent) = exchange(Response::AttrIndex(AttributeIndex(3)), |c| {
        c.get_attribute_index(MAIN, "status")
    });
    assert_eq!(result.unwrap(), AttributeIndex(3));
    assert_eq!(
        sent,
        Request::GetAttributeIndex {
            context: MAIN,
            name: "status".to_string()
        }
    );
}

#[test]
fn another_variant_is_a_protocol_error_naming_the_expected_one() {
    let (result, _) = exchange(Response::Ok, |c| c.add_node(MAIN, false));
    assert!(
        matches!(
            result,
            Err(ClientError::Protocol {
                expected: "NodeCreated"
            })
        ),
        "{result:?}"
    );
    let (result, sent) = exchange(Response::Ok, |c| {
        c.open_node(MAIN, NodeIndex(1), Time::CURRENT, vec![])
    });
    assert!(
        matches!(result, Err(ClientError::Protocol { expected: "Opened" })),
        "{result:?}"
    );
    assert_eq!(
        sent,
        Request::OpenNode {
            context: MAIN,
            node: NodeIndex(1),
            time: Time::CURRENT,
            attrs: vec![]
        }
    );
}

#[test]
fn an_error_reply_is_a_server_error_for_any_method() {
    fn server_error<T: std::fmt::Debug>(result: neptune_server::client::Result<T>) -> String {
        match result {
            Err(ClientError::Server(msg)) => msg,
            other => panic!("expected a server error, got {other:?}"),
        }
    }
    let error = || Response::Error("x".to_string());
    assert_eq!(server_error(exchange(error(), |c| c.ping()).0), "x");
    assert_eq!(
        server_error(exchange(error(), |c| c.add_node(MAIN, true)).0),
        "x"
    );
    assert_eq!(
        server_error(exchange(error(), |c| c.begin_transaction()).0),
        "x"
    );
    assert_eq!(
        server_error(exchange(error(), |c| c.get_node_versions(MAIN, NodeIndex(1))).0),
        "x"
    );
    assert_eq!(server_error(exchange(error(), |c| c.trace(9_u64)).0), "x");
}
