//! Delayed-ACK regression tests: small request/response exchanges over
//! real TCP must not wait for a delayed-ACK timer, on either end.
//!
//! Nagle's algorithm holds a small segment while an earlier one is
//! unacknowledged, and a peer with nothing to send delays its ACK by up
//! to 40 ms. Together they stall any exchange in which one side writes
//! twice before the other writes back. Both ends therefore set
//! `TCP_NODELAY`: `serve_connection` on accept and `TcpClient::connect`
//! on connect.
//!
//! * Server end: a job answers with two frames, `Accepted` then `Done`.
//!   With Nagle on, `Done` waits for the client's ACK of `Accepted`, so
//!   a cache hit costs the ACK timer instead of a dispatch.
//! * Client end: a client that pipelines two requests to a peer that
//!   answers only once both have arrived has its second frame held until
//!   the peer's delayed ACK of the first.
//!
//! Both tests time a median of 20 exchanges against a 10 ms bound, a
//! quarter of the ACK timer; neither does enough work to be slowed by the
//! other running beside it.

use orinoco_server::protocol::{decode_frame, encode_frame};
use orinoco_server::{
    ConfigSpec, JobResult, JobSpec, Request, Response, Server, SimSpec, TcpClient, TcpFront,
};
use orinoco_workloads::Workload;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

const ROUNDS: usize = 20;
const BOUND: Duration = Duration::from_millis(10);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Sends `spec` and waits for `Done`; returns the round trip and whether
/// the server answered from its cache.
fn round_trip(client: &mut TcpClient, spec: SimSpec) -> (Duration, bool) {
    let t = Instant::now();
    client.send(&Request::Submit { queue: 1, spec: JobSpec::Sim(spec) }).expect("send");
    let mut cached = false;
    loop {
        match client.recv().expect("receive").expect("server hung up") {
            Response::Accepted { cached: c, .. } => cached = c,
            Response::Done { result: JobResult::Sim(_), .. } => return (t.elapsed(), cached),
            other => panic!("unexpected response {other:?}"),
        }
    }
}

#[test]
fn cache_hit_round_trip_does_not_wait_for_a_delayed_ack() {
    let server = Server::new(2);
    let front = TcpFront::spawn(&server, "127.0.0.1:0").expect("bind");
    let mut client = TcpClient::connect(front.addr()).expect("connect");
    let spec = SimSpec {
        config: ConfigSpec::orinoco_base(),
        workload: Workload::GemmLike,
        scale: 1,
        seed: 3,
        max_instrs: 2_000,
        max_cycles: 0,
        progress_cycles: 0,
    };
    let (_, cached) = round_trip(&mut client, spec);
    assert!(!cached, "the first submission must compute");

    let hits: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let (rtt, cached) = round_trip(&mut client, spec);
            assert!(cached, "a resubmission must be a cache hit");
            rtt
        })
        .collect();
    let median = median(hits.clone());
    assert!(
        median < BOUND,
        "median cache-hit round trip {median:?} (all: {hits:?}); \
         a delayed-ACK stall means TCP_NODELAY is off on the server end"
    );
    drop(client);
    front.stop();
}

#[test]
fn pipelined_client_requests_are_not_held_for_an_ack() {
    // A bare peer that answers each pair of pings with one pong, only
    // after reading both: the write-write-read pattern Nagle stalls.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let ping_frame = encode_frame(&Request::Ping.encode());
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut pair = vec![0u8; 2 * ping_frame.len()];
        let pong = encode_frame(&Response::Pong.encode());
        for _ in 0..ROUNDS {
            stream.read_exact(&mut pair).expect("read two pings");
            for frame in pair.chunks(ping_frame.len()) {
                let (payload, _) = decode_frame(frame).expect("a whole ping frame");
                assert_eq!(Request::decode(payload), Ok(Request::Ping));
            }
            stream.write_all(&pong).expect("write pong");
        }
    });

    let mut client = TcpClient::connect(addr).expect("connect");
    let rounds: Vec<Duration> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            client.send(&Request::Ping).expect("first ping");
            client.send(&Request::Ping).expect("second ping");
            assert_eq!(client.recv().expect("receive"), Some(Response::Pong));
            t.elapsed()
        })
        .collect();
    peer.join().expect("peer thread");
    let median = median(rounds.clone());
    assert!(
        median < BOUND,
        "median pipelined round trip {median:?} (all: {rounds:?}); \
         a delayed-ACK stall means TCP_NODELAY is off on the client end"
    );
}
