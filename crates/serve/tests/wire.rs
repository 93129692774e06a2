//! End-to-end wire-protocol tests: a real `WireServer` on an ephemeral
//! port, driven by the [`Client`] over real sockets — lifecycle, typed
//! shedding on both admission gates, and protocol robustness.

use dna_block_store::service::{ServerConfig, StoreServer};
use dna_block_store::{BlockStore, BLOCK_SIZE};
use dna_serve::client::{CallError, JobPoll};
use dna_serve::{Client, ServeConfig, WireServer};
use std::io::{Read, Write};

fn boot(cfg: ServeConfig) -> WireServer {
    let store = StoreServer::new(BlockStore::new(42), ServerConfig::paper_default());
    WireServer::start(store, cfg, "127.0.0.1:0").expect("bind ephemeral")
}

#[test]
fn full_lifecycle_over_the_wire() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let pid = client.create_partition(7).expect("create partition");
    let data = dna_block_store::workload::deterministic_text(2 * BLOCK_SIZE, 0xD1);
    assert_eq!(client.write_file(pid, &data).expect("write file"), 2);

    // Inline read: cold then cached.
    let (bytes, from_cache) = client.read_block(pid, 0).expect("inline read");
    assert_eq!(bytes, &data[..BLOCK_SIZE]);
    assert!(!from_cache);
    let (bytes, from_cache) = client.read_block(pid, 0).expect("warm read");
    assert_eq!(bytes, &data[..BLOCK_SIZE]);
    assert!(from_cache);

    // Job lifecycle: read.
    let job = client.submit_read(pid, 1).expect("submit read");
    match client.wait(job).expect("job result") {
        JobPoll::Block { data: got, .. } => assert_eq!(got, &data[BLOCK_SIZE..]),
        other => panic!("expected block, got {other:?}"),
    }
    // A terminal fetch consumed the job: polling again is 404.
    match client.poll(job) {
        Err(CallError::Server { status: 404, .. }) => {}
        other => panic!("expected 404 for consumed job, got {other:?}"),
    }

    // Job lifecycle: update, then verify the new bytes serve.
    let mut updated = data[..BLOCK_SIZE].to_vec();
    updated[..6].copy_from_slice(b"EDITED");
    let job = client
        .submit_update(pid, 0, &updated)
        .expect("submit update");
    assert_eq!(client.wait(job).expect("update result"), JobPoll::Updated);
    let (bytes, _) = client.read_block(pid, 0).expect("read after update");
    assert_eq!(bytes, updated);

    // Maintenance job goes through the same lifecycle.
    let job = client.submit_maintenance().expect("submit maintenance");
    assert!(matches!(
        client.wait(job).expect("maintenance result"),
        JobPoll::Maintained { .. }
    ));

    // Stats export: core counters and serve counters in one flat object.
    let stats = client.stats().expect("stats");
    assert_eq!(stats["stale_serves"], 0);
    assert_eq!(
        stats["reads_served"],
        stats["cache_hits"] + stats["cache_misses"]
    );
    assert_eq!(stats["serve_jobs_submitted"], 3);
    assert_eq!(stats["serve_jobs_completed"], 3);
    assert_eq!(stats["serve_inline_reads"], 3);
    assert!(stats["serve_http_requests"] >= 10);
    assert_eq!(stats["serve_live_jobs"], 0, "all results were consumed");

    // Checkpoint answers over the wire too.
    // (The store has no durable dir here, so it must *fail typed*, not hang.)
    match client.checkpoint() {
        Err(CallError::Server { status: 409, .. }) => {}
        other => panic!("expected typed persistence error, got {other:?}"),
    }
    server.stop();
}

#[test]
fn queue_full_sheds_typed_and_recovers() {
    // depth 1: a submitted job occupies its slot until its result is
    // fetched, so a second submit must shed deterministically no matter
    // how fast the worker is.
    let server = boot(ServeConfig {
        queue_depth: 1,
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let first = client.submit_maintenance().expect("first job admitted");
    match client.submit_maintenance() {
        Err(CallError::Overloaded {
            reason,
            retry_after_ms,
        }) => {
            assert_eq!(reason, "queue_full");
            assert!(retry_after_ms >= 1);
        }
        other => panic!("expected queue_full shed, got {other:?}"),
    }
    // Consuming the first result frees the slot; admission recovers.
    client.wait(first).expect("first job result");
    client
        .submit_maintenance()
        .expect("slot freed after terminal fetch");
    let stats = client.stats().expect("stats");
    assert_eq!(stats["serve_sheds_queue_full"], 1);
    server.stop();
}

#[test]
fn tenant_quota_sheds_typed_and_isolates_tenants() {
    let server = boot(ServeConfig {
        quota_rate: 1,
        quota_burst: 3,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.set_tenant("alpha");

    // 5 rapid submits against burst 3 at 1/s: at least one typed shed
    // (refill can forgive at most ~1 during a fast test run).
    let mut sheds = 0;
    let mut admitted = Vec::new();
    for _ in 0..5 {
        match client.submit_maintenance() {
            Ok(job) => admitted.push(job),
            Err(CallError::Overloaded {
                reason,
                retry_after_ms,
            }) => {
                assert_eq!(reason, "quota");
                assert!(retry_after_ms >= 1);
                sheds += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(sheds >= 1, "burst 3 cannot admit 5 rapid requests");

    // Another tenant is untouched by alpha's empty bucket.
    let mut other = Client::connect(server.local_addr()).expect("connect");
    other.set_tenant("beta");
    let job = other.submit_maintenance().expect("beta has its own bucket");
    other.wait(job).expect("beta job");
    for job in admitted {
        client.wait(job).expect("alpha job");
    }
    let stats = client.stats().expect("stats");
    assert!(stats["serve_sheds_quota"] >= 1);
    server.stop();
}

#[test]
fn malformed_and_unknown_requests_answer_typed_errors() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Unknown route.
    match client.read_block(99, 0) {
        Err(CallError::Server {
            status: 404,
            message,
        }) => {
            assert!(message.contains("unknown partition"), "{message}");
        }
        other => panic!("expected 404, got {other:?}"),
    }
    // Unknown job id.
    match client.poll(dna_serve::JobId(12345)) {
        Err(CallError::Server { status: 404, .. }) => {}
        other => panic!("expected 404, got {other:?}"),
    }

    // Raw garbage gets a 400 and a clean close, not a hang or a panic.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    raw.write_all(b"NONSENSE\r\n\r\n").expect("write garbage");
    let mut response = String::new();
    raw.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    // A request line that never ends is cut off at the head cap with a 400,
    // not buffered without bound. The server closes with unread input, so
    // the read may end in a reset after the response; only the bytes count.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    raw.write_all(&[b'A'; 64 * 1024])
        .expect("write unterminated line");
    let mut response = String::new();
    let _ = raw.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");

    // Bodies framed by anything but one agreed `Content-Length` get a 400
    // and act on nothing: a chunked body is not read as an empty body
    // followed by a second request made of chunk bytes, and of two
    // disagreeing lengths neither wins.
    let pid = client.create_partition(7).expect("create partition");
    // A never-written block of a fresh partition is a 404, not a dead
    // connection thread: the writes below reuse this connection.
    match client.read_block(pid, 0) {
        Err(CallError::Server {
            status: 404,
            message,
        }) => {
            assert!(message.contains("never been written"), "{message}");
        }
        other => panic!("expected 404, got {other:?}"),
    }
    let data = String::from_utf8(dna_block_store::workload::deterministic_text(BLOCK_SIZE, 5))
        .expect("deterministic text is ASCII");
    let chunked = |head: &str| {
        format!(
            "{head}\r\ntransfer-encoding: chunked\r\n\r\n{:x}\r\n{data}\r\n0\r\n\r\n",
            data.len()
        )
    };
    let conflicting = |head: &str| {
        format!(
            "{head}\r\ncontent-length: 10\r\ncontent-length: {}\r\n\r\n{data}",
            data.len()
        )
    };
    let files = format!("PUT /v1/files/{pid} HTTP/1.1");
    // RFC 9110 §8.6: a length is digits only, so a signed one is refused.
    let signed = format!("{files}\r\ncontent-length: +{}\r\n\r\n{data}", data.len());
    for request in [
        chunked("POST /v1/partitions HTTP/1.1"),
        chunked(&files),
        conflicting("POST /v1/partitions HTTP/1.1"),
        conflicting(&files),
        signed,
    ] {
        let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
        raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("read timeout");
        raw.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        let _ = raw.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");
    }
    // Block 0 is still unwritten: a second write there would be refused.
    assert_eq!(
        client
            .write_file(pid, data.as_bytes())
            .expect("a refused body wrote a file"),
        1
    );
    assert_eq!(
        client.create_partition(8).expect("create partition"),
        pid + 1,
        "a refused request created a partition"
    );

    // The server is still healthy afterwards.
    let stats = client.stats().expect("stats after garbage");
    assert!(stats["serve_protocol_errors"] >= 6);
    server.stop();
}

#[test]
fn refused_oversized_put_leaves_the_partition_writable() {
    let server = boot(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pid = client.create_partition(9).expect("create partition");

    // 1024 blocks fit the body cap but not the partition: its top leaf is
    // the first overflow leaf, so only 1023 are available.
    let oversized = dna_block_store::workload::deterministic_text(1024 * BLOCK_SIZE, 0xD2);
    match client.write_file(pid, &oversized) {
        Err(CallError::Server {
            status: 409,
            message,
        }) => assert!(message.contains("1023 available"), "{message}"),
        other => panic!("expected 409, got {other:?}"),
    }
    // The refusal recorded nothing: a fitting file still lands at block 0
    // and reads back through the wetlab.
    let data = &oversized[..2 * BLOCK_SIZE];
    assert_eq!(client.write_file(pid, data).expect("fitting write"), 2);
    for b in 0..2 {
        let (bytes, _) = client.read_block(pid, b as u64).expect("read back");
        assert_eq!(
            bytes,
            &data[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE],
            "block {b}"
        );
    }
    server.stop();
}
