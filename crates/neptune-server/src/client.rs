//! Blocking RPC client for the Neptune server.
//!
//! Mirrors the HAM operations over the wire — the role of the Smalltalk
//! user interface process's RPC stubs in the paper (§4.1). One `Client`
//! holds one connection; an explicit transaction gives that connection
//! exclusive write access on the server until commit/abort.

use std::fmt;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};

use neptune_check::Finding;
use neptune_ham::context::{ConflictPolicy, MergeReport};
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::ham::OpenedNode;
use neptune_ham::query::SubGraph;
use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time, Version,
};
use neptune_ham::value::Value;
use neptune_obs::TraceRecord;
use neptune_storage::diff::Difference;

use crate::frame::{self, FrameBuf};
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
/// The socket is split into a buffered read half (a small response costs
/// one `recv`) and a buffered write half so requests can be pipelined:
/// [`Client::pipeline`] queues N frames, flushes once, then drains N
/// responses — amortizing syscall and round-trip cost.
/// [`Client::batch`] goes further and ships the N requests as one
/// `Request::Batch` frame the server executes under a single lock
/// acquisition.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: std::io::BufWriter<TcpStream>,
    frames: FrameBuf,
}

/// Maximum requests in flight during [`Client::pipeline`]: enough depth
/// that round-trip latency is fully amortized, small enough that the
/// worst-case response backlog (window × max node contents) stays well
/// inside a default TCP receive buffer — see `pipeline` for the stall
/// this bounds.
pub const PIPELINE_WINDOW: usize = 4;

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = std::io::BufWriter::new(stream.try_clone()?);
        Ok(Client {
            reader: BufReader::with_capacity(frame::READ_BUFFER, stream),
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
}

/// Generate one [`Client`] method per row of the request table
/// (`crate::proto::requests!`, which documents the grammar; metavariables
/// are named as in `proto::protocol!`), carrying the row's docs. A method
/// takes the row's fields in order, each as anything that converts into
/// the field's type, sends the request with [`Client::call`], and maps the
/// answer: the row's reply gives the value, `Response::Error` gives
/// [`ClientError::Server`], and any other variant gives
/// [`ClientError::Protocol`] naming the reply variant. `Batch` has no
/// method here: [`Client::batch`] is written out above.
macro_rules! client_methods {
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
        impl Client {
            $(client_methods! {
                @method $(#[$rd])* $rn $rv { $($rf: $rt),* } -> $rr { $($rreply)* }
            })*
            $(client_methods! {
                @method $(#[$gd])* $gn $gv { $($($gf: $gt),*)? } -> $gr { $($greply)* }
            })*
            $(client_methods! {
                @method $(#[$wd])* $wn $wv { $($wf: $wt),* } -> $wr { $($wreply)* }
            })*
            $(client_methods! {
                @method $(#[$md])* $mn $mv { $($($mf: $mt),*)? } -> $mr { $($mreply)* }
            })*
            $(client_methods! {
                @method $(#[$td])* $tn $tv {} -> $tr { $($treply)* }
            })*
        }
    };
    (@method
        $(#[$d:meta])* $n:ident $v:ident { $($f:ident : $t:ty),* } -> $r:ty { $($reply:tt)* }
    ) => {
        $(#[$d])*
        #[allow(clippy::too_many_arguments)]
        pub fn $n(&mut self, $($f: impl Into<$t>),*) -> Result<$r> {
            let response = self.call(Request::$v { $($f: $f.into()),* })?;
            client_methods!(@reply response, $($reply)*)
        }
    };
    // A reply variant without fields matches as `Variant {}`.
    (@reply $response:ident, $reply:ident => $value:expr) => {
        client_methods!(@reply $response, $reply {} => $value)
    };
    (@reply $response:ident, $reply:ident $fields:tt => $value:expr) => {
        match $response {
            Response::$reply $fields => Ok($value),
            Response::Error(msg) => Err(ClientError::Server(msg)),
            _ => Err(ClientError::Protocol {
                expected: stringify!($reply),
            }),
        }
    };
}

crate::proto::requests!(client_methods);
