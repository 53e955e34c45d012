//! Black-box protocol suite: spawns the real `hsconas serve` binary on an
//! ephemeral port and speaks the wire protocol over raw sockets. Nothing
//! here reaches into server internals — every assertion is about bytes on
//! the wire, which is exactly the contract a client programs against.

#[path = "serve_harness.rs"]
mod harness;

use harness::{raw_call, widest_arch_encoding, ServerGuard};
use hsconas_serve::proto::{Response, CODE_BAD_REQUEST, CODE_FRAME_TOO_LARGE, CODE_UNKNOWN_DEVICE};
use hsconas_serve::Json;
use std::io::Write;
use std::time::Duration;

#[test]
fn happy_path_round_trips() {
    let server = ServerGuard::spawn(&["--devices", "edge"]);
    let mut client = server.client();

    // status: well-formed, sane queue metadata.
    let status = client.status().expect("status");
    assert!(status.is_ok(), "{status:?}");
    let result = status.result.expect("status result");
    assert_eq!(
        result
            .get("queue")
            .and_then(|q| q.get("depth"))
            .and_then(Json::as_u64),
        Some(0)
    );
    assert!(result
        .get("devices")
        .and_then(|d| d.get("edge-xavier"))
        .is_some());
    // kernel block: the selected GEMM variant is one of the known names
    // and the per-variant dispatch counters are present.
    let kernel = result.get("kernel").expect("kernel block");
    let variant = kernel
        .get("variant")
        .and_then(Json::as_str)
        .expect("kernel.variant");
    assert!(
        ["direct", "scalar", "avx2"].contains(&variant),
        "unknown kernel variant {variant:?}"
    );
    for key in ["direct", "scalar", "avx2", "depthwise"] {
        assert!(
            kernel
                .get("dispatch")
                .and_then(|d| d.get(key))
                .and_then(Json::as_u64)
                .is_some(),
            "missing kernel.dispatch.{key}"
        );
    }
    // Band-split and packed-weight-cache observability ride along.
    for key in ["serial", "parallel"] {
        assert!(
            kernel
                .get("bands")
                .and_then(|b| b.get(key))
                .and_then(Json::as_u64)
                .is_some(),
            "missing kernel.bands.{key}"
        );
    }
    for key in [
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "entries",
        "bytes",
    ] {
        assert!(
            kernel
                .get("pack_cache")
                .and_then(|p| p.get(key))
                .and_then(Json::as_u64)
                .is_some(),
            "missing kernel.pack_cache.{key}"
        );
    }
    assert!(
        kernel
            .get("pack_cache")
            .and_then(|p| p.get("hit_rate"))
            .and_then(Json::as_f64)
            .is_some(),
        "missing kernel.pack_cache.hit_rate"
    );

    // predict_latency: positive latency, device echoed canonically.
    let arch = widest_arch_encoding();
    let predict = client.predict_latency("edge", &arch).expect("predict");
    assert!(predict.is_ok(), "{predict:?}");
    let result = predict.result.expect("predict result");
    assert_eq!(
        result.get("device").and_then(Json::as_str),
        Some("edge-xavier")
    );
    let latency_ms = result
        .get("latency_ms")
        .and_then(Json::as_f64)
        .expect("latency_ms");
    assert!(latency_ms > 0.0);

    // score: Eq. 1 relation F = ACC + beta * |LAT/T - 1| holds on the wire.
    let target_ms = 34.0;
    let score = client.score("edge", target_ms, &arch).expect("score");
    assert!(score.is_ok(), "{score:?}");
    let result = score.result.expect("score result");
    let f = result.get("score").and_then(Json::as_f64).expect("score");
    let acc = result
        .get("accuracy")
        .and_then(Json::as_f64)
        .expect("accuracy");
    let lat = result
        .get("latency_ms")
        .and_then(Json::as_f64)
        .expect("latency_ms");
    assert!((f - (acc + -20.0 * (lat / target_ms - 1.0).abs())).abs() < 1e-9);
    assert!(
        (lat - latency_ms).abs() < 1e-12,
        "score and predict must agree on Eq. 2"
    );

    // search: a valid in-space architecture plus its evaluation.
    let search = client.search("edge", target_ms, 7).expect("search");
    assert!(search.is_ok(), "{search:?}");
    let result = search.result.expect("search result");
    let genome = result.get("arch").and_then(Json::as_arr).expect("arch");
    assert_eq!(genome.len(), 40, "20 layers x (op, scale)");
    assert!(result.get("arch_str").and_then(Json::as_str).is_some());
    assert!(result.get("score").and_then(Json::as_f64).is_some());

    // status again: the served counters reflect exactly what we did.
    let status = client.status().expect("status 2").result.expect("result");
    let served = status.get("served").expect("served");
    assert_eq!(
        served.get("predict_latency").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(served.get("score").and_then(Json::as_u64), Some(1));
    assert_eq!(served.get("search").and_then(Json::as_u64), Some(1));

    server.shutdown_and_wait(Duration::from_secs(10));
}

#[test]
fn malformed_frames_are_rejected_without_wedging() {
    let server = ServerGuard::spawn(&[]);
    let mut stream = server.connect();

    // Each bad frame gets a 400 with a reason, and the SAME connection
    // keeps working afterwards.
    let cases: &[(&str, &str)] = &[
        ("this is not json", "at byte"),
        ("[1,2,3]", "object"),
        (r#"{"id":"x","cmd":"warp"}"#, "unknown cmd"),
        (r#"{"v":9,"id":"x","cmd":"status"}"#, "version"),
        (
            r#"{"id":"x","cmd":"score","device":"edge","arch":[0]}"#,
            "target_ms",
        ),
        (
            r#"{"id":"x","cmd":"score","device":"edge","target_ms":0,"arch":[0]}"#,
            "positive",
        ),
        (
            r#"{"id":"x","cmd":"search","device":"edge","target_ms":34,"seed":-1}"#,
            "seed",
        ),
        (
            r#"{"id":"x","cmd":"predict_latency","device":"edge","arch":[0,9,1]}"#,
            "odd",
        ),
        (
            r#"{"id":"x","cmd":"predict_latency","device":"edge","arch":[0,9]}"#,
            "layers",
        ),
    ];
    for (frame, needle) in cases {
        let reply = raw_call(&mut stream, frame);
        let response = Response::decode(reply.as_bytes()).expect("decodable error reply");
        assert_eq!(
            response.code, CODE_BAD_REQUEST,
            "frame {frame:?} -> {reply}"
        );
        let error = response.error.expect("error text");
        assert!(
            error.contains(needle),
            "frame {frame:?}: error {error:?} should mention {needle:?}"
        );
    }

    // Unknown device is its own code, with the id still echoed.
    let reply = raw_call(
        &mut stream,
        r#"{"id":"d1","cmd":"search","device":"tpu","target_ms":5}"#,
    );
    let response = Response::decode(reply.as_bytes()).expect("decodable");
    assert_eq!(response.code, CODE_UNKNOWN_DEVICE);
    assert_eq!(response.id, "d1");

    // After all that abuse, a valid request on the same connection works.
    let reply = raw_call(&mut stream, r#"{"v":1,"id":"ok","cmd":"status"}"#);
    let response = Response::decode(reply.as_bytes()).expect("decodable");
    assert!(response.is_ok(), "{reply}");
    assert_eq!(response.id, "ok");

    server.shutdown_and_wait(Duration::from_secs(10));
}

#[test]
fn oversized_and_truncated_frames_fail_loudly_not_silently() {
    let mut server = ServerGuard::spawn(&[]);

    // Oversized: a frame past the 64 KiB cap is answered with 413 and the
    // connection is resynchronized at the next newline.
    let mut stream = server.connect();
    let huge = "x".repeat(80 * 1024);
    let reply = raw_call(&mut stream, &huge);
    let response = Response::decode(reply.as_bytes()).expect("decodable");
    assert_eq!(response.code, CODE_FRAME_TOO_LARGE);
    assert!(response.error.unwrap_or_default().contains("65536"));
    let reply = raw_call(&mut stream, r#"{"id":"after","cmd":"status"}"#);
    assert!(Response::decode(reply.as_bytes())
        .expect("decodable")
        .is_ok());

    // Truncated: a half-written frame with the connection dropped mid-line
    // must not wedge or kill the server.
    let mut stream = server.connect();
    stream
        .write_all(br#"{"id":"t","cmd":"sta"#)
        .expect("write partial");
    stream.flush().expect("flush");
    drop(stream);

    // And a half-written line left dangling (no newline, connection open)
    // must not block other clients.
    let mut dangling = server.connect();
    dangling.write_all(b"{\"id\":").expect("write dangling");
    dangling.flush().expect("flush");

    let mut client = server.client();
    let status = client.status().expect("status while dangling");
    assert!(status.is_ok());
    assert!(server.is_running(), "server must survive truncated frames");

    server.shutdown_and_wait(Duration::from_secs(10));
}

/// The determinism contract: concurrent identical `search` requests get
/// bit-identical response lines, whether 1 client or 8 are hammering.
#[test]
fn concurrent_identical_searches_are_bit_identical() {
    let server = ServerGuard::spawn(&[
        "--devices",
        "edge",
        "--eval-workers",
        "3",
        "--batch-max",
        "8",
    ]);
    let request = r#"{"v":1,"id":"det","cmd":"search","device":"edge","target_ms":34,"seed":11}"#;

    let mut replies: Vec<String> = Vec::new();
    for threads in [1usize, 8] {
        let round: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut stream = server.connect();
                        raw_call(&mut stream, request)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        replies.extend(round);
    }

    assert_eq!(replies.len(), 9);
    let first = &replies[0];
    assert!(
        Response::decode(first.as_bytes())
            .expect("decodable")
            .is_ok(),
        "{first}"
    );
    for reply in &replies {
        assert_eq!(
            reply, first,
            "all identical searches must serve identical bytes"
        );
    }

    server.shutdown_and_wait(Duration::from_secs(10));
}
