//! End-to-end: a 3-node loopback cluster of real `muppetd` OS processes
//! running the hot_topics app. Events ingested over HTTP on node A produce
//! slates readable over HTTP from node C; killing node B (SIGKILL)
//! triggers the §4.3 path — surviving nodes report, the master broadcasts,
//! and `/membership` shows the failed machine everywhere. Also: what a
//! node's command line and cluster document configure.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
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

/// Spawn a 3-node cluster on probed-free ports. Ports are reserved by
/// binding port 0 immediately before each spawn attempt
/// (`loopback_ephemeral`), which is inherently racy against other
/// processes on the machine — so a node that dies or never answers
/// `/membership` (its port was stolen between probe and bind) aborts the
/// attempt and the whole cluster retries on a fresh port set instead of
/// failing the test on a stale collision.
fn start_cluster() -> Cluster {
    const ATTEMPTS: usize = 3;
    for attempt in 1..=ATTEMPTS {
        match try_start_cluster() {
            Ok(cluster) => return cluster,
            Err(e) if attempt < ATTEMPTS => {
                eprintln!("cluster start attempt {attempt} failed ({e}); retrying on fresh ports");
            }
            Err(e) => panic!("cluster never became ready after {ATTEMPTS} attempts: {e}"),
        }
    }
    unreachable!()
}

fn try_start_cluster() -> Result<Cluster, String> {
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
                    .args(["--peers", &peers, "--node", &node.to_string(), "--app", "hot_topics"])
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .expect("spawn muppetd"),
            )
        })
        .collect();
    // Cluster's Drop kills the children if any readiness check fails.
    let mut cluster = Cluster { children, http_ports };
    for node in 0..3 {
        let port = cluster.http_ports[node];
        let ready = wait_until(Duration::from_secs(20), || {
            // A child that exited (e.g. "cannot bind": the probed port
            // was stolen) will never answer; fail the attempt fast.
            if let Some(child) = cluster.children[node].as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    eprintln!("muppetd node {node} exited early: {status}");
                    return true; // break the wait; the http check below fails
                }
            }
            matches!(http("GET", port, "/membership", b""), Ok((200, _)))
        });
        if !ready || !matches!(http("GET", port, "/membership", b""), Ok((200, _))) {
            return Err(format!("node {node} on http port {port} never became ready"));
        }
    }
    Ok(cluster)
}

#[test]
fn three_muppetd_processes_run_hot_topics_and_survive_a_kill() {
    let mut cluster = start_cluster();
    let [a, _b, c] = [cluster.http_ports[0], cluster.http_ports[1], cluster.http_ports[2]];

    // Ingest tweets on node A.
    let tweet = br#"{"topics":["sports"]}"#;
    for i in 0..60 {
        let (code, body) = http("POST", a, &format!("/submit/S1/tweet-{i}"), tweet).unwrap();
        assert_eq!(code, 200, "{}", String::from_utf8_lossy(&body));
    }

    // The per-⟨topic, minute⟩ slate becomes readable over HTTP from node C
    // (whichever machine owns it serves the read across the wire).
    assert!(
        wait_until(Duration::from_secs(20), || matches!(
            http("GET", c, "/slate/minute-counter/sports%200", b""),
            Ok((200, body)) if String::from_utf8_lossy(&body).contains("\"count\":60")
        )),
        "node C never served the cluster-wide slate read"
    );

    // The operator's view of why frames left: one-at-a-time ingest on a
    // quiet node is flushed on demand, and /metrics says so.
    let (_, metrics) = http("GET", a, "/metrics", b"").unwrap();
    let metrics = String::from_utf8_lossy(&metrics).into_owned();
    let demand = metrics
        .lines()
        .find_map(|l| l.strip_prefix("muppet_net_flushes_total{reason=\"demand\"} "))
        .and_then(|v| v.trim().parse::<u64>().ok());
    assert!(matches!(demand, Some(n) if n > 0), "no demand flushes on /metrics:\n{metrics}");
    for reason in ["size", "age", "stop"] {
        assert!(metrics.contains(&format!("muppet_net_flushes_total{{reason=\"{reason}\"}} ")));
    }

    // Kill node B abruptly.
    let mut b_child = cluster.children[1].take().unwrap();
    b_child.kill().unwrap();
    b_child.wait().unwrap();

    // Keep ingesting on A until the §4.3 protocol has run: some sender
    // trips on B's corpse, reports to the master (node 0), and the
    // broadcast lands `1` in every survivor's failed set.
    let mut i = 60;
    let detected = wait_until(Duration::from_secs(30), || {
        for _ in 0..10 {
            let _ = http("POST", a, &format!("/submit/S1/tweet-{i}"), tweet);
            i += 1;
        }
        let failed_on = |port| match http("GET", port, "/membership", b"") {
            Ok((200, body)) => String::from_utf8_lossy(&body).contains("\"failed\":[1]"),
            _ => false,
        };
        failed_on(a) && failed_on(c)
    });
    assert!(detected, "failed:[1] never appeared on both survivors' /membership");

    // The survivors still serve reads and accept events.
    let (code, _) = http("GET", c, "/keys/minute-counter", b"").unwrap();
    assert_eq!(code, 200);
    let (code, _) = http("POST", c, "/submit/S1/late-tweet", tweet).unwrap();
    assert_eq!(code, 200);
}

/// One loopback node on probed-free ports, and its `--peers` list.
fn one_node() -> (muppet::net::NodeSpec, String) {
    let topology = muppet::net::Topology::loopback_ephemeral(1, true).expect("probe free ports");
    let n = topology.nodes[0].clone();
    let peers = format!("{}:{}:{}", n.host, n.port, n.http_port);
    (n, peers)
}

#[test]
fn malformed_or_retired_flags_exit_2_naming_the_flag() {
    let (_, peers) = one_node();
    for (extra, names) in [
        (["--store-host", "zero"], ["--store-host", "zero"]),
        (["--master", "x"], ["--master", "\"x\""]),
        (["--workers", "x"], ["--workers", "\"x\""]),
        (["--node", "x"], ["--node", "\"x\""]),
        (["--store-host", "7"], ["--store-host", "7"]),
        (["--ingest-sync", "group"], ["unknown flag", "--ingest-sync"]),
        (["--latency-sample-n", "1"], ["unknown flag", "--latency-sample-n"]),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_muppetd"))
            .args(["--peers", &peers, "--node", "0"])
            .args(extra)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn muppetd");
        let mut status = None;
        wait_until(Duration::from_secs(10), || {
            status = child.try_wait().unwrap();
            status.is_some()
        });
        let Some(status) = status else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("muppetd {extra:?} was still running after 10 s");
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(2), "{extra:?}: {stderr}");
        for name in names {
            assert!(stderr.contains(name), "{extra:?}: stderr does not name {name}: {stderr}");
        }
    }
}

#[test]
fn a_cluster_document_names_the_store_host() {
    let (n, _) = one_node();
    let http_port = n.http_port;
    let dir = TempDir::new("muppetd-config").unwrap();
    let doc = dir.path().join("cluster.json");
    let node =
        format!(r#"{{"id":0,"host":"{}","port":{},"http_port":{http_port}}}"#, n.host, n.port);
    std::fs::write(&doc, format!(r#"{{"nodes":[{node}],"store_host":0}}"#)).unwrap();
    let data = dir.path().join("store");
    let child = Command::new(env!("CARGO_BIN_EXE_muppetd"))
        .args(["--config", doc.to_str().unwrap(), "--node", "0"])
        .args(["--data-dir", data.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn muppetd");
    let _cluster = Cluster { children: vec![Some(child)], http_ports: vec![http_port] };
    let mut membership = String::new();
    let ready =
        wait_until(Duration::from_secs(20), || match http("GET", http_port, "/membership", b"") {
            Ok((200, body)) => {
                membership = String::from_utf8_lossy(&body).into_owned();
                true
            }
            _ => false,
        });
    assert!(ready, "the node never answered /membership");
    assert!(membership.contains("\"store_host\":0"), "{membership}");
    // The node opened the store in its data directory: it hosts it.
    let files = std::fs::read_dir(&data).map(|d| d.count()).unwrap_or(0);
    assert!(files > 0, "no store under {}", data.display());
}
