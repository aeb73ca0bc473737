//! The HTTP slate-read service (§4.4).
//!
//! "Muppet provides a small HTTP server on each node for slate fetches.
//! The URI of a slate fetch includes the name of the updater and the key of
//! the slate ... The fetch retrieves the slate from Muppet's slate cache
//! ... rather than from the durable key-value store to ensure an up-to-date
//! reply." It also serves "basic status information (such as the event
//! count of the largest event queues)" (§4.5).
//!
//! Endpoints:
//! * `GET /slate/<updater>/<percent-encoded key>` → slate bytes or 404;
//! * `GET /status` → JSON engine statistics.
//!
//! Minimal HTTP/1.1: request-line parsing, `Connection: close`, explicit
//! `Content-Length`. No external dependencies.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use muppet_core::event::Key;
use muppet_core::Error;
use muppet_net::FlushReason;

/// What the server needs from its host engine. `Engine` implements this;
/// tests can substitute a stub.
pub trait SlateReader: Send + Sync + 'static {
    /// Current bytes of ⟨updater, key⟩'s slate, from the cache.
    fn fetch_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>>;
    /// A JSON status document.
    fn status_json(&self) -> String;
    /// The currently-cached keys of one updater (the `/keys/<updater>`
    /// endpoint) — §5's bulk-read pain point was that "the query agent
    /// must know all the slate keys in advance to enumerate the slate
    /// requests"; this endpoint removes that requirement.
    fn list_keys(&self, _updater: &str) -> Vec<Key> {
        Vec::new()
    }

    /// Ingest one external event (`POST /submit/<stream>/<key>`, body =
    /// value). How `muppetd` nodes receive traffic; the engine routes the
    /// event to its owning machine over the cluster wire. Default:
    /// unsupported. [`Error::IngestLog`] (the ingest WAL failed; the node
    /// refuses ingest) is answered 503, every other error 400.
    fn submit_event(&self, _stream: &str, _key: Key, _value: Vec<u8>) -> muppet_core::Result<()> {
        Err(Error::Config("ingest not supported".to_string()))
    }

    /// Reserve a cluster id for a joining node (`POST /join`, body =
    /// `host:port:http_port`). Returns the grant document the joiner
    /// parses (id/epoch/base/failed header + the topology TOML). Master
    /// nodes only; default: unsupported.
    fn reserve_join(&self, _spec: &str) -> Result<String, String> {
        Err("join not supported".to_string())
    }

    /// The node's membership view (`GET /membership`): epoch, staged
    /// epoch, ring members, node list, failed machines, as JSON.
    fn membership_json(&self) -> String {
        "{}".to_string()
    }

    /// The Prometheus text exposition (`GET /metrics`). `None` means the
    /// host has no metrics registry and the endpoint serves 404.
    fn metrics_text(&self) -> Option<String> {
        None
    }

    /// The dead-letter queue contents (`GET /dlq`), newest last, as a
    /// JSON array. Default: empty (no DLQ attached).
    fn dlq_json(&self) -> String {
        "[]".to_string()
    }

    /// Re-inject every dead-lettered event (`POST /dlq/retry`). Returns
    /// how many events went back into the pipeline. Default: unsupported.
    fn dlq_retry(&self) -> Result<usize, String> {
        Err("dlq not supported".to_string())
    }
}

impl SlateReader for crate::engine::Engine {
    fn fetch_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
        self.read_slate(updater, key)
    }

    fn list_keys(&self, updater: &str) -> Vec<Key> {
        self.cached_keys(updater)
    }

    fn metrics_text(&self) -> Option<String> {
        Some(self.metrics_text())
    }

    fn dlq_json(&self) -> String {
        self.dlq_json()
    }

    fn dlq_retry(&self) -> Result<usize, String> {
        Ok(self.dlq_retry())
    }

    fn status_json(&self) -> String {
        use muppet_core::json::Json;
        let s = self.stats();
        let wal = self.ingest_wal();
        // Ingest-WAL fields are null on a node without one.
        let wal_num = |v: Option<u64>| v.map_or(Json::Null, |v| Json::num(v as f64));
        Json::obj([
            ("uptime_s", Json::num(self.uptime_s() as f64)),
            (
                "machine_id",
                match self.local_machine() {
                    Some(id) => Json::num(id as f64),
                    None => Json::Null,
                },
            ),
            ("protocol_version", Json::num(muppet_net::frame::PROTOCOL_VERSION as f64)),
            ("submitted", Json::num(s.submitted as f64)),
            ("processed", Json::num(s.processed as f64)),
            ("emitted", Json::num(s.emitted as f64)),
            ("dropped_overflow", Json::num(s.dropped_overflow as f64)),
            ("lost_machine_failure", Json::num(s.lost_machine_failure as f64)),
            ("lost_in_queues", Json::num(s.lost_in_queues as f64)),
            ("forwarded", Json::num(s.forwarded as f64)),
            ("combined_events_total", Json::num(s.combined_events as f64)),
            ("split_keys_active", Json::num(s.split_keys_active as f64)),
            ("split_merge_reads_total", Json::num(s.split_merge_reads as f64)),
            ("epoch", Json::num(s.epoch as f64)),
            ("machines", Json::num(self.machine_count() as f64)),
            ("max_queue_high_water", Json::num(self.max_queue_high_water() as f64)),
            ("cache_entries", Json::num(s.cache.entries as f64)),
            ("cache_hits", Json::num(s.cache.hits as f64)),
            ("cache_misses", Json::num(s.cache.misses as f64)),
            // Per-machine shard count — the length of cache_shard_hits
            // below (EngineStats::cache.shards is the cross-machine sum).
            ("cache_shards", Json::num(self.cache_shard_stats().len() as f64)),
            ("drain_batches", Json::num(s.drain.drains as f64)),
            ("drain_batch_mean", Json::num(s.drain.mean as f64)),
            ("drain_batch_p50", Json::num(s.drain.p50 as f64)),
            ("drain_batch_p99", Json::num(s.drain.p99 as f64)),
            ("drain_batch_max", Json::num(s.drain.max as f64)),
            (
                "cache_shard_hits",
                Json::Arr(
                    self.cache_shard_stats()
                        .into_iter()
                        .map(|sh| Json::num(sh.hits as f64))
                        .collect(),
                ),
            ),
            ("p99_latency_us", Json::num(s.latency.p99_us as f64)),
            // The write-behind store pipeline (DESIGN.md §9).
            ("store_flush_batches", Json::num(s.store.flush_batches as f64)),
            ("store_flush_batch_p50", Json::num(s.store.flush_batch_p50 as f64)),
            ("store_flush_batch_largest", Json::num(s.store.flush_batch_largest as f64)),
            ("store_round_trips", Json::num(s.store.store_round_trips as f64)),
            ("store_miss_coalesced", Json::num(s.store.miss_coalesced as f64)),
            // Eviction victims chosen, not yet written back.
            ("evict_backlog", Json::num(s.cache.evict_backlog as f64)),
            // Crash recovery (DESIGN.md §11): ingest WAL + DLQ state.
            ("recovered_replayed", Json::num(self.recovered_replayed() as f64)),
            ("ingest_wal_syncs", wal_num(wal.map(|w| w.syncs))),
            ("ingest_wal_bytes", wal_num(wal.map(|w| w.bytes))),
            ("ingest_wal_frames", wal_num(wal.map(|w| w.frames))),
            // written − durable = the un-acked fsync window.
            ("ingest_wal_written", wal_num(wal.map(|w| w.written))),
            ("ingest_wal_durable", wal_num(wal.map(|w| w.durable))),
            ("ingest_wal_failed", wal.map_or(Json::Null, |w| Json::Bool(w.failed))),
            ("dlq_depth", Json::num(self.dlq().depth() as f64)),
            ("dlq_added", Json::num(self.dlq().added() as f64)),
            ("dlq_dropped", Json::num(self.dlq().dropped() as f64)),
            ("dlq_retried", Json::num(self.dlq().retried() as f64)),
            ("net_frames_sent", Json::num(s.net.frames_sent as f64)),
            ("net_batches_sent", Json::num(s.net.batches_sent as f64)),
            ("net_outbound_backlog", Json::num(s.net.outbound_backlog as f64)),
            ("net_flushes_size", Json::num(s.net.flushes[FlushReason::Size as usize] as f64)),
            ("net_flushes_demand", Json::num(s.net.flushes[FlushReason::Demand as usize] as f64)),
            ("net_flushes_age", Json::num(s.net.flushes[FlushReason::Age as usize] as f64)),
            ("net_flushes_stop", Json::num(s.net.flushes[FlushReason::Stop as usize] as f64)),
            (
                "failed_machines",
                Json::Arr(
                    self.failed_machines().into_iter().map(|m| Json::num(m as f64)).collect(),
                ),
            ),
        ])
        .to_compact()
    }

    fn submit_event(&self, stream: &str, key: Key, value: Vec<u8>) -> muppet_core::Result<()> {
        self.submit_kv(stream, key, value)
    }

    fn reserve_join(&self, spec: &str) -> Result<String, String> {
        let fields: Vec<&str> = spec.trim().split(':').collect();
        if fields.len() != 3 {
            return Err("join body must be host:port:http_port".to_string());
        }
        let port: u16 = fields[1].parse().map_err(|_| "bad port".to_string())?;
        let http_port: u16 = fields[2].parse().map_err(|_| "bad http_port".to_string())?;
        let grant =
            self.admin_reserve_join(fields[0], port, http_port).map_err(|e| e.to_string())?;
        // Grant document: a one-line header the joiner parses by hand,
        // then the topology in the TOML subset `muppetd --config` already
        // understands.
        let list = |ids: &[usize]| ids.iter().map(|m| m.to_string()).collect::<Vec<_>>().join(",");
        let store_host = grant.store_host.map(|h| format!(" store_host={h}")).unwrap_or_default();
        Ok(format!(
            "id={} epoch={} base={} failed={} members={}{}\n{}",
            grant.id,
            grant.view.epoch,
            grant.view.base,
            list(&grant.view.failed),
            list(&grant.view.members),
            store_host,
            grant.topology.to_toml()
        ))
    }

    fn membership_json(&self) -> String {
        use muppet_core::json::Json;
        let view = self.membership_view();
        let ids =
            |ids: Vec<usize>| Json::Arr(ids.into_iter().map(|m| Json::num(m as f64)).collect());
        Json::obj([
            ("epoch", Json::num(view.epoch as f64)),
            ("staged_epoch", view.staged_epoch.map_or(Json::Null, |e| Json::num(e as f64))),
            ("members", ids(view.members)),
            ("failed", ids(view.failed)),
            (
                "nodes",
                Json::Arr(
                    view.nodes
                        .into_iter()
                        .map(|n| {
                            Json::obj([
                                ("id", Json::num(n.id as f64)),
                                ("host", Json::str(&n.host)),
                                ("port", Json::num(n.port as f64)),
                                ("http_port", Json::num(n.http_port as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_compact()
    }
}

/// A running slate-read HTTP server; dropping it stops the accept loop.
pub struct HttpSlateServer {
    listener: muppet_net::TcpListenerHandle,
}

impl HttpSlateServer {
    /// Bind to an ephemeral port on localhost and serve `reader`.
    pub fn serve(reader: Arc<dyn SlateReader>) -> std::io::Result<HttpSlateServer> {
        HttpSlateServer::serve_on(reader, "127.0.0.1:0")
    }

    /// Bind to an explicit address (`muppetd` nodes publish a fixed port
    /// from the cluster topology).
    pub fn serve_on(reader: Arc<dyn SlateReader>, addr: &str) -> std::io::Result<HttpSlateServer> {
        let listener = muppet_net::TcpListenerHandle::spawn(
            "muppet-http".into(),
            TcpListener::bind(addr)?,
            move |stream, _stop| {
                let reader = Arc::clone(&reader);
                // One thread per connection: slate reads are short-lived;
                // no pool needed at test scale.
                std::thread::spawn(move || {
                    let _ = handle_connection(stream, &*reader);
                });
            },
        )?;
        Ok(HttpSlateServer { listener })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.port()
    }

    /// Base URL for clients.
    pub fn base_url(&self) -> String {
        format!("http://127.0.0.1:{}", self.port())
    }
}

fn handle_connection(stream: TcpStream, reader: &dyn SlateReader) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut buf = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    buf.read_line(&mut request_line)?;
    // Drain headers, keeping Content-Length (POST ingest bodies).
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if buf.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut out = stream;
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut out, 400, "text/plain", b"bad request"),
    };
    if method == "POST" && path.starts_with("/submit/") {
        // POST /submit/<stream>/<percent-encoded key>, body = event value.
        let Some(rest) = path.strip_prefix("/submit/") else {
            return respond(&mut out, 400, "text/plain", b"expected /submit/<stream>/<key>");
        };
        let Some((stream_name, key_enc)) = rest.split_once('/') else {
            return respond(&mut out, 400, "text/plain", b"expected /submit/<stream>/<key>");
        };
        let Some(key_bytes) = percent_decode(key_enc) else {
            return respond(&mut out, 400, "text/plain", b"bad key encoding");
        };
        if content_length > 16 << 20 {
            return respond(&mut out, 400, "text/plain", b"body too large");
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut buf, &mut body)?;
        return match reader.submit_event(stream_name, Key::from(key_bytes), body) {
            Ok(()) => respond(&mut out, 200, "text/plain", b"ok"),
            Err(e) => {
                let code = if matches!(e, Error::IngestLog(_)) { 503 } else { 400 };
                respond(&mut out, code, "text/plain", e.to_string().as_bytes())
            }
        };
    }
    if method == "POST" && path == "/join" {
        // POST /join, body = host:port:http_port → the join grant
        // (admin; master node only).
        if content_length > 4096 {
            return respond(&mut out, 400, "text/plain", b"body too large");
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut buf, &mut body)?;
        let Ok(spec) = String::from_utf8(body) else {
            return respond(&mut out, 400, "text/plain", b"body must be utf-8");
        };
        return match reader.reserve_join(&spec) {
            Ok(grant) => respond(&mut out, 200, "text/plain", grant.as_bytes()),
            Err(msg) => respond(&mut out, 400, "text/plain", msg.as_bytes()),
        };
    }
    if method == "POST" && path == "/dlq/retry" {
        return match reader.dlq_retry() {
            Ok(n) => respond(
                &mut out,
                200,
                "application/json",
                format!("{{\"retried\":{n}}}").as_bytes(),
            ),
            Err(msg) => respond(&mut out, 400, "text/plain", msg.as_bytes()),
        };
    }
    if method != "GET" {
        return respond(&mut out, 405, "text/plain", b"method not allowed");
    }
    if path == "/dlq" {
        let body = reader.dlq_json();
        return respond(&mut out, 200, "application/json", body.as_bytes());
    }
    if path == "/status" {
        let body = reader.status_json();
        return respond(&mut out, 200, "application/json", body.as_bytes());
    }
    if path == "/membership" {
        let body = reader.membership_json();
        return respond(&mut out, 200, "application/json", body.as_bytes());
    }
    if path == "/metrics" {
        return match reader.metrics_text() {
            Some(body) => respond(&mut out, 200, "text/plain; version=0.0.4", body.as_bytes()),
            None => respond(&mut out, 404, "text/plain", b"no metrics registry"),
        };
    }
    if let Some(updater) = path.strip_prefix("/keys/") {
        // Newline-separated percent-encoded keys of one updater.
        let mut body = String::new();
        for key in reader.list_keys(updater) {
            body.push_str(&percent_encode(key.as_bytes()));
            body.push('\n');
        }
        return respond(&mut out, 200, "text/plain", body.as_bytes());
    }
    if let Some(rest) = path.strip_prefix("/slate/") {
        // /slate/<updater>/<key>; the key may itself contain encoded '/'.
        if let Some((updater, key_enc)) = rest.split_once('/') {
            let Some(key_bytes) = percent_decode(key_enc) else {
                return respond(&mut out, 400, "text/plain", b"bad key encoding");
            };
            let key = Key::from(key_bytes);
            return match reader.fetch_slate(updater, &key) {
                Some(bytes) => respond(&mut out, 200, "application/octet-stream", &bytes),
                None => respond(&mut out, 404, "text/plain", b"no such slate"),
            };
        }
        return respond(&mut out, 400, "text/plain", b"expected /slate/<updater>/<key>");
    }
    respond(&mut out, 404, "text/plain", b"not found")
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Decode `%xx` escapes and `+` (as space). Returns `None` on malformed
/// escapes.
pub fn percent_decode(input: &str) -> Option<Vec<u8>> {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = (*bytes.get(i + 1)? as char).to_digit(16)?;
                let lo = (*bytes.get(i + 2)? as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    Some(out)
}

/// Encode bytes for use in a slate-fetch URL path segment.
pub fn percent_encode(input: &[u8]) -> String {
    let mut out = String::with_capacity(input.len());
    for &b in input {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A tiny blocking HTTP GET for tests and experiment harnesses.
/// Returns (status code, body).
pub fn http_get(url: &str) -> std::io::Result<(u16, Vec<u8>)> {
    http_request("GET", url, &[])
}

/// A tiny blocking HTTP POST (event ingest). Returns (status code, body).
pub fn http_post(url: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    http_request("POST", url, body)
}

fn http_request(method: &str, url: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "http:// only"))?;
    let (host, path) =
        rest.split_once('/').map(|(h, p)| (h, format!("/{p}"))).unwrap_or((rest, "/".into()));
    let mut stream = TcpStream::connect(host)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 =
        status_line.split_whitespace().nth(1).and_then(|c| c.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
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

#[cfg(test)]
mod tests {
    use super::*;

    struct StubReader;

    impl SlateReader for StubReader {
        fn fetch_slate(&self, updater: &str, key: &Key) -> Option<Vec<u8>> {
            if updater == "U1" && key.as_str() == Some("walmart") {
                Some(b"42".to_vec())
            } else if updater == "U1" && key.as_str() == Some("with space/slash") {
                Some(b"tricky".to_vec())
            } else {
                None
            }
        }
        fn status_json(&self) -> String {
            r#"{"ok":true}"#.to_string()
        }
        fn dlq_json(&self) -> String {
            r#"[{"op":"U1","reason":"boom"}]"#.to_string()
        }
        fn dlq_retry(&self) -> Result<usize, String> {
            Ok(3)
        }
    }

    fn server() -> HttpSlateServer {
        HttpSlateServer::serve(Arc::new(StubReader)).unwrap()
    }

    #[test]
    fn fetches_existing_slate() {
        let srv = server();
        let (code, body) = http_get(&format!("{}/slate/U1/walmart", srv.base_url())).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, b"42");
    }

    #[test]
    fn missing_slate_is_404() {
        let srv = server();
        let (code, _) = http_get(&format!("{}/slate/U1/nothere", srv.base_url())).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_get(&format!("{}/slate/U9/walmart", srv.base_url())).unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn status_endpoint_returns_json() {
        let srv = server();
        let (code, body) = http_get(&format!("{}/status", srv.base_url())).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, br#"{"ok":true}"#);
    }

    #[test]
    fn percent_encoding_roundtrip() {
        let original = b"with space/slash";
        let encoded = percent_encode(original);
        assert!(!encoded.contains(' ') && !encoded.contains('/'), "{encoded}");
        assert_eq!(percent_decode(&encoded).unwrap(), original);
        // Keys with encoded separators fetch correctly.
        let srv = server();
        let (code, body) = http_get(&format!("{}/slate/U1/{encoded}", srv.base_url())).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, b"tricky");
    }

    #[test]
    fn percent_decode_rejects_malformed() {
        assert_eq!(percent_decode("%zz"), None);
        assert_eq!(percent_decode("%4"), None);
        assert_eq!(percent_decode("ok%20fine"), Some(b"ok fine".to_vec()));
        assert_eq!(percent_decode("a+b"), Some(b"a b".to_vec()));
    }

    #[test]
    fn unknown_paths_and_methods_rejected() {
        let srv = server();
        let (code, _) = http_get(&format!("{}/bogus", srv.base_url())).unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_get(&format!("{}/slate/onlyupdater", srv.base_url())).unwrap();
        assert_eq!(code, 400);
        // Raw POST.
        let mut stream = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        write!(stream, "POST /slate/U1/k HTTP/1.1\r\n\r\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("405"), "{line}");
    }

    #[test]
    fn dlq_endpoints_roundtrip() {
        let srv = server();
        let (code, body) = http_get(&format!("{}/dlq", srv.base_url())).unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, br#"[{"op":"U1","reason":"boom"}]"#);
        let (code, body) = http_post(&format!("{}/dlq/retry", srv.base_url()), b"").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, br#"{"retried":3}"#);
    }

    #[test]
    fn concurrent_fetches() {
        let srv = server();
        let url = format!("{}/slate/U1/walmart", srv.base_url());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let url = url.clone();
                std::thread::spawn(move || http_get(&url).unwrap())
            })
            .collect();
        for h in handles {
            let (code, body) = h.join().unwrap();
            assert_eq!(code, 200);
            assert_eq!(body, b"42");
        }
    }
}
