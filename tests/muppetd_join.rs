//! Elastic scale-out, end to end: a 3-node loopback cluster of real
//! `muppetd` OS processes (store service on node 0) accepts a 4th node
//! via `--join` *while events are flowing*. The joiner reserves an id at
//! the master's HTTP `/join`, starts with its listener live, announces
//! itself on the wire, and the master's epoch-stamped membership update
//! installs it everywhere — with the moved slates handed off through the
//! slate store. Zero events may be lost to the handoff: the only
//! permitted losses remain the documented §4.3 failure counters, and no
//! machine failed here.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use muppet::slatestore::util::TempDir;

struct Cluster {
    children: Vec<Option<Child>>,
    http_ports: Vec<u16>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn http(method: &str, port: u16, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    std::io::Read::read_exact(&mut reader, &mut body)?;
    Ok((code, body))
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    true
}

/// Extract `"field":<number>` from a compact JSON body.
fn json_u64(body: &str, field: &str) -> Option<u64> {
    let at = body.find(&format!("\"{field}\":"))?;
    let rest = &body[at + field.len() + 3..];
    let end = rest.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(rest.len());
    rest[..end].split('.').next()?.parse().ok()
}

fn status_field(port: u16, field: &str) -> Option<u64> {
    match http("GET", port, "/status", b"") {
        Ok((200, body)) => json_u64(&String::from_utf8_lossy(&body), field),
        _ => None,
    }
}

fn start_cluster(store_dir: &str) -> Cluster {
    const ATTEMPTS: usize = 3;
    for attempt in 1..=ATTEMPTS {
        match try_start_cluster(store_dir, attempt) {
            Ok(cluster) => return cluster,
            Err(e) if attempt < ATTEMPTS => {
                eprintln!("cluster start attempt {attempt} failed ({e}); retrying on fresh ports");
            }
            Err(e) => panic!("cluster never became ready after {ATTEMPTS} attempts: {e}"),
        }
    }
    unreachable!()
}

fn try_start_cluster(store_dir: &str, attempt: usize) -> Result<Cluster, String> {
    let topology = muppet::net::Topology::loopback_ephemeral(3, true)
        .map_err(|e| format!("cannot probe free ports: {e}"))?;
    let http_ports: Vec<u16> = topology.nodes.iter().map(|n| n.http_port).collect();
    let peers = topology
        .nodes
        .iter()
        .map(|n| format!("{}:{}:{}", n.host, n.port, n.http_port))
        .collect::<Vec<_>>()
        .join(",");
    let children = (0..3)
        .map(|node| {
            Some(
                Command::new(env!("CARGO_BIN_EXE_muppetd"))
                    .args([
                        "--peers",
                        &peers,
                        "--node",
                        &node.to_string(),
                        "--app",
                        "hot_topics",
                        "--store-host",
                        "0",
                        "--data-dir",
                        &format!("{store_dir}/attempt-{attempt}"),
                    ])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn muppetd"),
            )
        })
        .collect();
    let mut cluster = Cluster { children, http_ports };
    for node in 0..3 {
        let port = cluster.http_ports[node];
        let ready = wait_until(Duration::from_secs(20), || {
            if let Some(child) = cluster.children[node].as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    eprintln!("muppetd node {node} exited early: {status}");
                    return true; // break the wait; the http check below fails
                }
            }
            matches!(http("GET", port, "/status", b""), Ok((200, _)))
        });
        if !ready || !matches!(http("GET", port, "/status", b""), Ok((200, _))) {
            return Err(format!("node {node} on http port {port} never became ready"));
        }
    }
    Ok(cluster)
}

#[test]
fn fourth_muppetd_joins_a_running_cluster_with_zero_handoff_loss() {
    let store_dir = TempDir::new("muppetd-join-store").unwrap();
    let mut cluster = start_cluster(&store_dir.path().display().to_string());
    let [a, _b, c] = [cluster.http_ports[0], cluster.http_ports[1], cluster.http_ports[2]];

    const TOPICS: usize = 24;
    let mut submitted = 0u64;
    let mut ingest = |port: u16, n: usize| {
        for _ in 0..n {
            let topic = format!("t{}", submitted as usize % TOPICS);
            let tweet = format!(r#"{{"topics":["{topic}"]}}"#);
            let (code, body) =
                http("POST", port, &format!("/submit/S1/tw-{submitted}"), tweet.as_bytes())
                    .unwrap();
            assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
            submitted += 1;
        }
    };

    // Pre-join traffic: every machine owns some ⟨topic, minute⟩ arcs.
    ingest(a, 72);
    assert!(
        wait_until(Duration::from_secs(20), || {
            status_field(a, "epoch") == Some(0)
                && (0..3)
                    .map(|n| status_field(cluster.http_ports[n], "processed").unwrap_or(0))
                    .sum::<u64>()
                    >= 72
        }),
        "pre-join traffic never processed"
    );

    // Grow the cluster: reserve ports for node 3 and start it with
    // --join while traffic keeps flowing (events are in flight during
    // the reserve → announce → prepare → commit window).
    let (d_port, d_http) = {
        let hold_a = TcpListener::bind("127.0.0.1:0").unwrap();
        let hold_b = TcpListener::bind("127.0.0.1:0").unwrap();
        (hold_a.local_addr().unwrap().port(), hold_b.local_addr().unwrap().port())
    };
    let joiner = Command::new(env!("CARGO_BIN_EXE_muppetd"))
        .args([
            "--join",
            &format!("127.0.0.1:{a}"),
            "--listen",
            &format!("127.0.0.1:{d_port}:{d_http}"),
            "--app",
            "hot_topics",
            "--store-host",
            "0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn joining muppetd");
    cluster.children.push(Some(joiner));
    cluster.http_ports.push(d_http);

    // Keep ingesting through the join window.
    let joined = wait_until(Duration::from_secs(30), || {
        ingest(a, 8);
        let epoch_everywhere = [a, c, d_http]
            .iter()
            .all(|&p| status_field(p, "epoch").map(|e| e >= 1).unwrap_or(false));
        epoch_everywhere && status_field(a, "machines") == Some(4)
    });
    assert!(joined, "epoch 1 never installed on master, survivor, and joiner");

    // Post-join traffic — some of it now lands on the new machine.
    ingest(a, 72);
    let all_processed = wait_until(Duration::from_secs(30), || {
        (0..4).map(|n| status_field(cluster.http_ports[n], "processed").unwrap_or(0)).sum::<u64>()
            >= submitted * 3 // mapper + minute-counter + hot-detector per tweet
    });
    assert!(all_processed, "cluster never processed all {submitted} tweets");

    // The joiner is doing real work: it processed events (forwarded or
    // routed directly once senders installed the epoch).
    assert!(
        wait_until(Duration::from_secs(10), || status_field(d_http, "processed").unwrap_or(0) > 0),
        "the joined machine never processed an event"
    );

    // Zero loss: sum the per-⟨topic, minute⟩ counts over every node's
    // view (reads for moved keys fall back to the store if the new owner
    // has not faulted them in yet). Counts must equal submissions.
    let mut total = 0u64;
    for t in 0..TOPICS {
        let mut per_topic = 0u64;
        for minute in 0..5u32 {
            if let Ok((200, body)) =
                http("GET", c, &format!("/slate/minute-counter/t{t}%20{minute}"), b"")
            {
                per_topic += json_u64(&String::from_utf8_lossy(&body), "count").unwrap_or(0);
            }
        }
        total += per_topic;
    }
    assert_eq!(total, submitted, "per-topic counts must sum to every submitted tweet");

    // The only permitted losses are the §4.3 failure counters — and no
    // machine failed, so every loss counter must be zero, on every node.
    for (n, &port) in cluster.http_ports.iter().enumerate() {
        assert_eq!(status_field(port, "lost_machine_failure"), Some(0), "node {n}");
        assert_eq!(status_field(port, "lost_in_queues"), Some(0), "node {n}");
        assert_eq!(status_field(port, "dropped_overflow"), Some(0), "node {n}");
        let (code, body) = http("GET", port, "/status", b"").unwrap();
        assert_eq!(code, 200);
        assert!(
            String::from_utf8_lossy(&body).contains("\"failed_machines\":[]"),
            "node {n}: no machine may be marked failed by a clean join"
        );
    }

    // /membership reflects the grown cluster everywhere.
    let (code, body) = http("GET", c, "/membership", b"").unwrap();
    assert_eq!(code, 200);
    let body = String::from_utf8_lossy(&body).to_string();
    assert!(json_u64(&body, "epoch").unwrap_or(0) >= 1, "{body}");
    assert_eq!(body.matches("\"id\":").count(), 4, "{body}");
    assert!(
        body.contains("\"members\":[0,1,2,3]") && body.contains("\"staged_epoch\":null"),
        "{body}"
    );
}
