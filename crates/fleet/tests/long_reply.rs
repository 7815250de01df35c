//! A replica's reply comes through the router whatever its length. The
//! router's line limit bounds client requests; a reply's length follows
//! from a request the replica accepted, so limiting replies would fail
//! healthy replicas on large sweeps.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use hmdiv_fleet::{Router, RouterConfig};
use hmdiv_serve::{json, Client, Json, Server, ServerConfig};

/// Sends one line and reads one reply line, byte for byte.
fn exchange(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(line.as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .expect("a reply line");
    reply
}

#[test]
fn a_reply_longer_than_the_request_limit_comes_through_unchanged() {
    let server = Server::start(ServerConfig {
        threads: 1,
        poller_threads: 1,
        // 60,000 scenarios cost 60,000 evaluations.
        queue_capacity: 1_000_000,
        ..ServerConfig::default()
    })
    .expect("replica start");
    let router = Router::start(RouterConfig {
        backends: vec![server.addr()],
        // No probe runs during the test, so nothing resets the
        // backend's failure count.
        probe_interval: Duration::from_secs(600),
        ..RouterConfig::default()
    })
    .expect("router start");

    let loaded = Client::connect(server.addr())
        .expect("connect replica")
        .request(
            "load",
            vec![(
                "classes".to_owned(),
                json::parse(
                    r#"{"easy":{"p_mf":0.07,"p_hf_given_ms":0.14,"p_hf_given_mf":0.18},
                        "difficult":{"p_mf":0.41,"p_hf_given_ms":0.40,"p_hf_given_mf":0.90}}"#,
                )
                .expect("static JSON"),
            )],
        )
        .expect("load");
    let model = loaded
        .get("model_id")
        .and_then(Json::as_str)
        .expect("model id");
    let scenarios = vec!["[]"; 60_000].join(",");
    let line = format!(
        "{{\"id\":7,\"verb\":\"scenarios\",\"model\":\"{model}\",\
         \"profile\":{{\"easy\":0.9,\"difficult\":0.1}},\"scenarios\":[{scenarios}]}}\n"
    );
    let limit = RouterConfig::default().max_line_bytes;
    assert!(line.len() < limit, "the request is within the limit");

    let direct = exchange(server.addr(), &line);
    assert!(
        direct.len() > limit,
        "the reply ({} bytes) outgrows the request limit",
        direct.len()
    );
    assert!(direct.contains("\"ok\":true"), "{}", &direct[..120]);
    let routed = exchange(router.addr(), &line);
    assert!(
        routed == direct,
        "the routed reply differs: {}",
        &routed[..routed.len().min(200)]
    );
    let backend = router.fleet().snapshot(0);
    assert!(backend.healthy);
    assert_eq!(backend.consecutive_failures, 0);

    router.shutdown();
    server.shutdown();
}
