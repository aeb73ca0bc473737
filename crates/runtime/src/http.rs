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

use crate::ingestlog::IngestWalView;

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
        Some(self.registry().render())
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
        let shards = self.cache_shard_stats();
        let num = |v: u64| Json::num(v as f64);
        // Ingest-WAL fields are null on a node without one.
        let wal_num =
            |f: fn(&IngestWalView) -> u64| s.ingest_wal.map_or(Json::Null, |w| num(f(&w)));
        Json::obj([
            ("uptime_s", num(s.uptime_s)),
            ("machine_id", s.machine_id.map_or(Json::Null, |id| num(id as u64))),
            ("protocol_version", num(muppet_net::frame::PROTOCOL_VERSION)),
            ("submitted", num(s.submitted)),
            ("processed", num(s.processed)),
            ("emitted", num(s.emitted)),
            ("dropped_overflow", num(s.dropped_overflow)),
            ("lost_machine_failure", num(s.lost_machine_failure)),
            ("lost_in_queues", num(s.lost_in_queues)),
            ("forwarded", num(s.forwarded)),
            ("combined_events_total", num(s.combined_events)),
            ("split_keys_active", num(s.split_keys_active)),
            ("split_merge_reads_total", num(s.split_merge_reads)),
            ("epoch", num(s.epoch)),
            ("machines", num(self.machine_count() as u64)),
            ("max_queue_high_water", num(self.max_queue_high_water() as u64)),
            ("cache_entries", num(s.cache.entries)),
            ("cache_hits", num(s.cache.hits)),
            ("cache_misses", num(s.cache.misses)),
            // Per-machine shard count — the length of cache_shard_hits
            // below (EngineStats::cache.shards is the cross-machine sum).
            ("cache_shards", num(shards.len() as u64)),
            ("drain_batches", num(s.drain.drains)),
            ("drain_batch_mean", num(s.drain.mean)),
            ("drain_batch_p50", num(s.drain.p50)),
            ("drain_batch_p99", num(s.drain.p99)),
            ("drain_batch_max", num(s.drain.max)),
            ("cache_shard_hits", Json::Arr(shards.iter().map(|shard| num(shard.hits)).collect())),
            ("p99_latency_us", num(s.latency.p99_us)),
            // The write-behind store pipeline (DESIGN.md §9).
            ("store_flush_batches", num(s.cache.flush_batches)),
            ("store_flush_batch_p50", num(s.cache.flush_batch_p50)),
            ("store_flush_batch_largest", num(s.cache.flush_batch_largest)),
            ("store_round_trips", num(s.cache.store_round_trips)),
            ("store_miss_coalesced", num(s.cache.miss_coalesced)),
            // Eviction victims chosen, not yet written back.
            ("evict_backlog", num(s.cache.evict_backlog)),
            // Crash recovery (DESIGN.md §11): ingest WAL + DLQ state.
            ("recovered_replayed", num(s.recovered_replayed)),
            ("ingest_wal_syncs", wal_num(|w| w.syncs)),
            ("ingest_wal_bytes", wal_num(|w| w.bytes)),
            ("ingest_wal_frames", wal_num(|w| w.frames)),
            // written − durable = the un-acked fsync window.
            ("ingest_wal_written", wal_num(|w| w.written)),
            ("ingest_wal_durable", wal_num(|w| w.durable)),
            ("ingest_wal_failed", s.ingest_wal.map_or(Json::Null, |w| Json::Bool(w.failed))),
            ("dlq_depth", num(s.dlq_depth)),
            ("dlq_added", num(s.dead_lettered)),
            ("dlq_dropped", num(s.dlq_evicted)),
            ("dlq_retried", num(s.dlq_retried)),
            ("net_frames_sent", num(s.net.frames_sent)),
            ("net_batches_sent", num(s.net.batches_sent)),
            ("net_outbound_backlog", num(s.net.outbound_backlog)),
            ("net_flushes_size", num(s.net.flushes[FlushReason::Size as usize])),
            ("net_flushes_demand", num(s.net.flushes[FlushReason::Demand as usize])),
            ("net_flushes_age", num(s.net.flushes[FlushReason::Age as usize])),
            ("net_flushes_stop", num(s.net.flushes[FlushReason::Stop as usize])),
            (
                "failed_machines",
                Json::Arr(self.failed_machines().into_iter().map(|m| num(m as u64)).collect()),
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

/// Bytes of request line and headers together a connection may send; past
/// them it is answered 431 and closed.
const MAX_HEAD: u64 = 16 << 10;

fn handle_connection(stream: TcpStream, reader: &dyn SlateReader) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    let mut buf = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    let Some(head) = read_head(&mut buf)? else {
        return respond(&mut out, 431, "text/plain", b"request head too large");
    };
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    // Content-Length sizes POST bodies; one that does not parse is refused,
    // not read as an empty body.
    let mut content_length = Some(0usize);
    for line in lines {
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().ok();
        }
    }
    let Some(content_length) = content_length else {
        return respond(&mut out, 400, "text/plain", b"bad content-length");
    };
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

/// The request line and headers, up to the blank line that ends them:
/// `None` when they do not end within [`MAX_HEAD`] bytes. A stream that
/// ends first yields what it sent.
fn read_head(buf: impl BufRead) -> std::io::Result<Option<String>> {
    let mut head = String::new();
    let mut capped = buf.take(MAX_HEAD);
    loop {
        let start = head.len();
        capped.read_line(&mut head)?;
        let line = &head[start..];
        if !line.ends_with('\n') {
            // End of stream, or of the cap.
            return Ok((capped.limit() > 0).then_some(head));
        }
        if start > 0 && (line == "\r\n" || line == "\n") {
            return Ok(Some(head));
        }
    }
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
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    // One write: a connection closed with its request unread is reset, and
    // a reset drops whatever the response still had queued.
    let mut msg = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    stream.write_all(&msg)
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
        fn submit_event(&self, _: &str, _: Key, _: Vec<u8>) -> muppet_core::Result<()> {
            Ok(())
        }
    }

    /// The status line the server answers a raw `request` with.
    fn raw_status(srv: &HttpSlateServer, request: &[u8]) -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", srv.port())).unwrap();
        // The server stops reading at its cap and closes; the rest of an
        // oversized request may not be written.
        let _ = stream.write_all(request);
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn an_oversized_request_head_is_refused_and_the_server_keeps_serving() {
        let srv = server();
        let request = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(1 << 20));
        let line = raw_status(&srv, request.as_bytes());
        assert!(line.starts_with("HTTP/1.1 431 "), "{line}");
        let headers =
            format!("GET /status HTTP/1.1\r\n{}\r\n", "X-Pad: 0123456789\r\n".repeat(1000));
        assert!(raw_status(&srv, headers.as_bytes()).starts_with("HTTP/1.1 431 "));
        let (code, body) = http_get(&format!("{}/status", srv.base_url())).unwrap();
        assert_eq!((code, body.as_slice()), (200, br#"{"ok":true}"#.as_slice()));
    }

    #[test]
    fn a_malformed_content_length_is_refused() {
        let srv = server();
        let request = b"POST /submit/S1/k HTTP/1.1\r\nContent-Length: 12x\r\n\r\n";
        assert!(raw_status(&srv, request).starts_with("HTTP/1.1 400 "));
        let (code, _) = http_post(&format!("{}/submit/S1/k", srv.base_url()), b"v").unwrap();
        assert_eq!(code, 200, "a well-formed submit is accepted");
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
