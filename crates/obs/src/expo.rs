//! Prometheus text-format exposition and the zero-dependency `/metrics`
//! HTTP endpoint.
//!
//! [`render_prometheus`] turns a [`Snapshot`] into the [Prometheus text
//! exposition format] (version 0.0.4): every metric name is sanitized
//! into the `[a-zA-Z_:][a-zA-Z0-9_:]*` charset and prefixed `hic_`,
//! counters map to `counter`, gauges to a `gauge` pair (`…` and
//! `…_max`), and histograms to `summary` rows (`quantile` labels plus
//! `_sum`/`_count`). Output ordering is the registry's own `BTreeMap`
//! order — deterministic and stable across scrapes, which the property
//! tests rely on.
//!
//! [`MetricsServer`] is a deliberately tiny HTTP/1.1 responder on
//! [`std::net::TcpListener`] — no dependency, one thread, connection per
//! request — because its job is a localhost scrape target for
//! `hic batch --serve-metrics` / `hic serve --metrics-port`, not a web
//! server.
//! When the server also holds a [`SeriesStore`], the exposition appends
//! `hic_rate_per_sec{series="…"}` gauges derived from the sampler's
//! sliding window, so a scraper sees live rates without computing them.
//!
//! [Prometheus text exposition format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::registry::Registry;
use crate::snapshot::Snapshot;
use crate::timeseries::SeriesStore;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Content-Type of the exposition body.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Window the `/metrics` endpoint derives `hic_rate_per_sec` over.
pub const RATE_WINDOW_MS: u64 = 5_000;

/// Sanitize a registry metric name into the Prometheus charset: the
/// result starts with `[a-zA-Z_:]`, continues with `[a-zA-Z0-9_:]`,
/// and carries the `hic_` namespace prefix (which also fixes names
/// that would otherwise start with a digit).
pub fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("hic_");
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Escape a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a snapshot in Prometheus text format. See the module docs for
/// the mapping; ordering is stable (counters, then gauges, then
/// histograms, each in name order).
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("# HELP hic_up 1 while this process exposes metrics\n");
    out.push_str("# TYPE hic_up gauge\nhic_up 1\n");
    let b = crate::build_info();
    out.push_str("# HELP hic_build_info build provenance of this binary\n");
    out.push_str("# TYPE hic_build_info gauge\n");
    writeln!(
        out,
        "hic_build_info{{version=\"{}\",git_sha=\"{}\",profile=\"{}\"}} 1",
        escape_label(b.version),
        escape_label(b.git_sha),
        escape_label(b.profile)
    )
    .unwrap();
    for (name, v) in &snap.counters {
        let m = metric_name(name);
        writeln!(out, "# TYPE {m} counter").unwrap();
        writeln!(out, "{m} {v}").unwrap();
    }
    for (name, g) in &snap.gauges {
        let m = metric_name(name);
        writeln!(out, "# TYPE {m} gauge").unwrap();
        writeln!(out, "{m} {}", g.last).unwrap();
        writeln!(out, "# TYPE {m}_max gauge").unwrap();
        writeln!(out, "{m}_max {}", g.max).unwrap();
    }
    for (name, h) in &snap.histograms {
        let m = metric_name(name);
        writeln!(out, "# TYPE {m} summary").unwrap();
        for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
            writeln!(out, "{m}{{quantile=\"{q}\"}} {v}").unwrap();
        }
        writeln!(out, "{m}_sum {}", h.sum).unwrap();
        writeln!(out, "{m}_count {}", h.count).unwrap();
    }
    out
}

/// [`render_prometheus`] plus sampler-derived sliding-window rates: one
/// `hic_rate_per_sec{series="<name>"}` gauge per store series that has
/// a defined rate over the trailing [`RATE_WINDOW_MS`].
pub fn render_prometheus_with_rates(snap: &Snapshot, store: Option<&SeriesStore>) -> String {
    render_prometheus_full(snap, store, None)
}

/// [`render_prometheus_with_rates`] plus the labeled-gauge store: one
/// `hic_<name>{label="…",…} value` row per published [`LabeledRow`].
pub fn render_prometheus_full(
    snap: &Snapshot,
    store: Option<&SeriesStore>,
    labeled: Option<&LabeledStore>,
) -> String {
    let mut out = render_prometheus(snap);
    if let Some(store) = store {
        let mut wrote_type = false;
        for name in store.names() {
            if let Some(rate) = store.rate_per_sec(&name, RATE_WINDOW_MS) {
                if !wrote_type {
                    out.push_str("# TYPE hic_rate_per_sec gauge\n");
                    wrote_type = true;
                }
                writeln!(
                    out,
                    "hic_rate_per_sec{{series=\"{}\"}} {rate}",
                    escape_label(&name)
                )
                .unwrap();
            }
        }
    }
    if let Some(labeled) = labeled {
        labeled.render_into(&mut out);
    }
    out
}

/// One row of a labeled gauge series: a label set and its value.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledRow {
    /// Label key/value pairs, rendered in the given order.
    pub labels: Vec<(String, String)>,
    /// The gauge value.
    pub value: f64,
}

impl LabeledRow {
    /// Build a row from `(key, value)` pairs.
    pub fn new<K: Into<String>, V: Into<String>>(labels: Vec<(K, V)>, value: f64) -> LabeledRow {
        LabeledRow {
            labels: labels
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
            value,
        }
    }
}

/// A shared store of labeled gauge series for the `/metrics` endpoint.
///
/// The scalar [`Registry`] cannot carry per-label dimensions (its keys
/// are flat names); this store holds the few series that need labels —
/// e.g. the top-N hottest NoC links as
/// `hic_noc_link_util{x="2",y="1",port="east"}` — and renders them after
/// the registry-derived body. Series are keyed by metric name in a
/// `BTreeMap`, and a series' rows keep their published order, so the
/// exposition is deterministic: same store contents, same bytes.
#[derive(Debug, Clone, Default)]
pub struct LabeledStore {
    series: Arc<std::sync::Mutex<std::collections::BTreeMap<String, Vec<LabeledRow>>>>,
}

impl LabeledStore {
    /// An empty store.
    pub fn new() -> LabeledStore {
        LabeledStore::default()
    }

    /// Replace the rows of series `name` (a registry-style dotted name;
    /// it is sanitized through [`metric_name`] at render time).
    pub fn set(&self, name: &str, rows: Vec<LabeledRow>) {
        let mut map = self.series.lock().expect("labeled store lock");
        if rows.is_empty() {
            map.remove(name);
        } else {
            map.insert(name.to_string(), rows);
        }
    }

    /// Remove series `name`.
    pub fn clear(&self, name: &str) {
        self.series.lock().expect("labeled store lock").remove(name);
    }

    /// Names of the stored series, in exposition order.
    pub fn names(&self) -> Vec<String> {
        self.series
            .lock()
            .expect("labeled store lock")
            .keys()
            .cloned()
            .collect()
    }

    /// The rows of series `name`, if present.
    pub fn get(&self, name: &str) -> Option<Vec<LabeledRow>> {
        self.series
            .lock()
            .expect("labeled store lock")
            .get(name)
            .cloned()
    }

    /// Append the store's series to an exposition document.
    pub fn render_into(&self, out: &mut String) {
        let map = self.series.lock().expect("labeled store lock");
        for (name, rows) in map.iter() {
            let m = metric_name(name);
            writeln!(out, "# TYPE {m} gauge").unwrap();
            for row in rows {
                out.push_str(&m);
                if !row.labels.is_empty() {
                    out.push('{');
                    for (i, (k, v)) in row.labels.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write!(out, "{}=\"{}\"", label_key(k), escape_label(v)).unwrap();
                    }
                    out.push('}');
                }
                writeln!(out, " {}", row.value).unwrap();
            }
        }
    }
}

/// Sanitize a label key into `[a-zA-Z_][a-zA-Z0-9_]*`.
fn label_key(k: &str) -> String {
    let mut out = String::with_capacity(k.len());
    for (i, c) in k.chars().enumerate() {
        match c {
            'a'..='z' | 'A'..='Z' | '_' => out.push(c),
            '0'..='9' if i > 0 => out.push(c),
            _ => out.push('_'),
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// What a process plugs into the metrics server to answer `/healthz`
/// and `/statusz` — the serve daemon implements this; simple commands
/// run without one and get liveness-only defaults.
pub trait StatusSource: Send + Sync {
    /// Liveness: `Ok(())` → `200 ok`; `Err(state)` → `503` with the
    /// state word as the body (e.g. `draining`). A process that can
    /// still answer at all is alive; the error form is for "up but
    /// winding down — stop sending traffic".
    fn healthz(&self) -> Result<(), &'static str>;

    /// The `/statusz` body: a JSON object (build info, uptime, queue
    /// and worker snapshot, recent jobs — whatever the process knows).
    fn statusz(&self) -> String;
}

/// A minimal single-threaded HTTP responder serving the registry (and
/// optional sampler store) at `GET /metrics`, plus `/healthz` and
/// `/statusz`. Binds on localhost only.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `127.0.0.1:port` (`port` 0 = ephemeral; see
    /// [`MetricsServer::port`]) and serve until stopped or dropped.
    pub fn start(
        reg: Registry,
        store: Option<SeriesStore>,
        port: u16,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::start_full(reg, store, port, None, None)
    }

    /// [`MetricsServer::start`] with a [`StatusSource`] answering
    /// `/healthz` and `/statusz`. Without one, `/healthz` is always
    /// `200 ok` (process liveness) and `/statusz` reports build info
    /// only.
    pub fn start_with_status(
        reg: Registry,
        store: Option<SeriesStore>,
        port: u16,
        status: Option<Arc<dyn StatusSource>>,
    ) -> std::io::Result<MetricsServer> {
        MetricsServer::start_full(reg, store, port, status, None)
    }

    /// The full constructor: registry, sampler store, status source,
    /// and a [`LabeledStore`] whose series (e.g. the top-N hottest NoC
    /// links) are appended to every `/metrics` scrape.
    pub fn start_full(
        reg: Registry,
        store: Option<SeriesStore>,
        port: u16,
        status: Option<Arc<dyn StatusSource>>,
        labeled: Option<LabeledStore>,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("hic-obs-metrics".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                // Serve inline: one scrape at a time is
                                // the whole design point.
                                let _ = respond(
                                    stream,
                                    &reg,
                                    store.as_ref(),
                                    status.as_deref(),
                                    labeled.as_ref(),
                                );
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(10)),
                        }
                    }
                })
                .expect("spawn metrics server thread")
        };
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound port (useful with ephemeral binding).
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// The bound socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Longest request head the endpoint reads; a longer one gets a 400.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Time a client has to deliver its whole request head.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Read a request head up to and including its blank line, however many
/// writes the client split it into. Stops early at end of stream, on a
/// read error or at [`HEAD_DEADLINE`] and returns what arrived; returns
/// `None` once more than [`MAX_HEAD_BYTES`] arrive without a blank line.
fn read_head(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let deadline = std::time::Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            return Ok(Some(head));
        }
        stream.set_read_timeout(Some(left))?;
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => return Ok(Some(head)),
            Ok(n) => n,
        };
        // The terminator may straddle the previous read.
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&buf[..n]);
        if head[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(Some(head));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Ok(None);
        }
    }
}

/// The method and path of a request head: the first two
/// whitespace-separated words of its first line, lossily decoded as
/// UTF-8. A missing word is empty, which [`MetricsServer`] answers with
/// a 400; it never fails on any bytes.
pub fn parse_request_line(head: &[u8]) -> (String, String) {
    let head = String::from_utf8_lossy(head);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let mut word = || parts.next().unwrap_or("").to_string();
    (word(), word())
}

/// Read one request, write one response, close. Tolerates partial or
/// garbage requests (responds 400) — a scrape target must never wedge
/// on a bad client.
fn respond(
    mut stream: TcpStream,
    reg: &Registry,
    store: Option<&SeriesStore>,
    status_src: Option<&dyn StatusSource>,
    labeled: Option<&LabeledStore>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // An oversized head parses as an empty request line, which is a 400.
    let head = read_head(&mut stream)?.unwrap_or_default();
    let (method, path) = parse_request_line(&head);
    // HEAD is GET minus the body: same status, same headers (including
    // Content-Length of the body we did not send).
    let body_suppressed = method == "HEAD";
    let lookup = if body_suppressed { "GET" } else { &method };
    let (status, ctype, body) = match (lookup, path.as_str()) {
        ("GET", "/metrics") => {
            let body = render_prometheus_full(&reg.snapshot(), store, labeled);
            ("200 OK", PROMETHEUS_CONTENT_TYPE, body)
        }
        ("GET", "/healthz") => match status_src.map_or(Ok(()), |s| s.healthz()) {
            Ok(()) => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            Err(state) => (
                "503 Service Unavailable",
                "text/plain; charset=utf-8",
                format!("{state}\n"),
            ),
        },
        ("GET", "/statusz") => {
            let body = match status_src {
                Some(s) => s.statusz(),
                None => default_statusz(),
            };
            ("200 OK", "application/json; charset=utf-8", body)
        }
        ("GET", "/") => (
            "200 OK",
            "text/plain; charset=utf-8",
            "hic metrics endpoint — /metrics /healthz /statusz\n".to_string(),
        ),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
        _ => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad request\n".into(),
        ),
    };
    let mut resp = String::with_capacity(if body_suppressed {
        128
    } else {
        body.len() + 128
    });
    write!(
        resp,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    if !body_suppressed {
        resp.push_str(&body);
    }
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

/// The `/statusz` body when no [`StatusSource`] is plugged in: build
/// provenance only.
fn default_statusz() -> String {
    let b = crate::build_info();
    let mut out = String::with_capacity(128);
    out.push_str("{\"schema\":\"hic-statusz/v1\",\"version\":");
    crate::snapshot::push_json_str(&mut out, b.version);
    out.push_str(",\"git_sha\":");
    crate::snapshot::push_json_str(&mut out, b.git_sha);
    out.push_str(",\"profile\":");
    crate::snapshot::push_json_str(&mut out, b.profile);
    out.push_str("}\n");
    out
}

/// Fetch `path` from a local [`MetricsServer`] over one blocking
/// connection — the scrape client used by tests and `hic top`'s
/// self-checks; returns the response body.
pub fn http_get_local(port: u16, path: &str) -> std::io::Result<String> {
    let raw = http_request_local(port, "GET", path)?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Ok(raw),
    }
}

/// Issue one `method path` request against a local server and return
/// the **raw** response — status line, headers and body — for callers
/// that care about the status code or headers (`HEAD`, `/healthz`).
pub fn http_request_local(port: u16, method: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // One buffer, one `write_all`: `write!` on the stream may issue a
    // syscall per format piece.
    let request =
        format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut out = String::new();
    stream.read_to_string(&mut out)?;
    Ok(out)
}

/// Validate one exposition document line-by-line: every line must be a
/// comment (`# …`) or `name[{labels}] value` with a sanitized name and
/// a parseable finite value. Returns the first offending line. Used by
/// the property tests and the CI metrics-smoke job's local twin.
pub fn validate_exposition(body: &str) -> Result<(), String> {
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return Err(format!("line {}: no value: {line:?}", i + 1)),
        };
        let name = match name_part.split_once('{') {
            Some((n, rest)) => {
                if !rest.ends_with('}') {
                    return Err(format!("line {}: unterminated labels: {line:?}", i + 1));
                }
                n
            }
            None => name_part,
        };
        let valid_start = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
        let valid_rest = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if name.is_empty() || !valid_start || !valid_rest {
            return Err(format!("line {}: bad metric name {name:?}", i + 1));
        }
        match value_part.parse::<f64>() {
            Ok(v) if v.is_finite() => {}
            _ => return Err(format!("line {}: bad value {value_part:?}", i + 1)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("noc.flits.forwarded").add(17);
        r.gauge("pipeline.queue.depth").set(3);
        r.histogram("design.total.ns").record(1_000_000);
        r
    }

    #[test]
    fn names_are_sanitized_into_the_prometheus_charset() {
        assert_eq!(
            metric_name("noc.flits.forwarded"),
            "hic_noc_flits_forwarded"
        );
        assert_eq!(metric_name("weird name-2"), "hic_weird_name_2");
        assert_eq!(metric_name("0starts.bad"), "hic_0starts_bad");
    }

    #[test]
    fn exposition_covers_every_kind_and_validates() {
        let body = render_prometheus(&sample_registry().snapshot());
        assert!(body.contains("hic_up 1\n"));
        assert!(body.contains("# TYPE hic_noc_flits_forwarded counter"));
        assert!(body.contains("hic_noc_flits_forwarded 17"));
        assert!(body.contains("hic_pipeline_queue_depth 3"));
        assert!(body.contains("hic_pipeline_queue_depth_max 3"));
        assert!(body.contains("hic_design_total_ns_count 1"));
        assert!(body.contains("quantile=\"0.5\""));
        validate_exposition(&body).unwrap();
    }

    #[test]
    fn rates_appear_once_the_store_has_a_window() {
        let reg = sample_registry();
        let store = SeriesStore::new(32);
        store.record_at("noc.flits.forwarded", 0, 0.0);
        store.record_at("noc.flits.forwarded", 1000, 500.0);
        let body = render_prometheus_with_rates(&reg.snapshot(), Some(&store));
        assert!(
            body.contains("hic_rate_per_sec{series=\"noc.flits.forwarded\"} 500"),
            "{body}"
        );
        validate_exposition(&body).unwrap();
    }

    #[test]
    fn labeled_series_round_trip_through_the_exposition_format() {
        let store = LabeledStore::new();
        // Published hottest-first; the renderer must preserve row order
        // and sanitize names/labels without altering values.
        let rows = vec![
            LabeledRow::new(vec![("x", "2"), ("y", "1"), ("port", "east")], 930.0),
            LabeledRow::new(vec![("x", "2"), ("y", "0"), ("port", "south")], 715.0),
            LabeledRow::new(vec![("x", "0"), ("y", "1"), ("port", "east")], 402.5),
        ];
        store.set("noc.link.util", rows.clone());
        store.set(
            "noc.link.flits",
            vec![LabeledRow::new(vec![("x", "2")], 640.0)],
        );

        let body = render_prometheus_full(&sample_registry().snapshot(), None, Some(&store));
        validate_exposition(&body).unwrap();

        // Parse every labeled row back out of the document.
        let mut parsed: Vec<(String, LabeledRow)> = Vec::new();
        for line in body.lines() {
            if line.starts_with('#') || !line.contains('{') || line.contains("build_info") {
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').unwrap();
            let (name, labels) = name_labels.split_once('{').unwrap();
            if line.contains("quantile") {
                continue;
            }
            let labels: Vec<(String, String)> = labels
                .trim_end_matches('}')
                .split(',')
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap();
                    (k.to_string(), v.trim_matches('"').to_string())
                })
                .collect();
            parsed.push((
                name.to_string(),
                LabeledRow {
                    labels,
                    value: value.parse().unwrap(),
                },
            ));
        }
        // Series render in BTreeMap (name) order: flits before util.
        let flits: Vec<_> = parsed
            .iter()
            .filter(|(n, _)| n == "hic_noc_link_flits")
            .collect();
        let util: Vec<_> = parsed
            .iter()
            .filter(|(n, _)| n == "hic_noc_link_util")
            .collect();
        assert_eq!(flits.len(), 1);
        assert_eq!(util.len(), 3);
        for (got, want) in util.iter().zip(&rows) {
            assert_eq!(&got.1, want);
        }
        // Two renders of the same store are byte-identical.
        let again = render_prometheus_full(&sample_registry().snapshot(), None, Some(&store));
        assert_eq!(body, again);

        // Empty replacement removes the series.
        store.set("noc.link.flits", vec![]);
        assert_eq!(store.names(), vec!["noc.link.util".to_string()]);
    }

    #[test]
    fn labeled_store_serves_through_the_http_endpoint() {
        let store = LabeledStore::new();
        store.set(
            "noc.link.util",
            vec![LabeledRow::new(
                vec![("x", "1"), ("y", "0"), ("port", "east")],
                1000.0,
            )],
        );
        let mut srv =
            MetricsServer::start_full(sample_registry(), None, 0, None, Some(store.clone()))
                .unwrap();
        let body = http_get_local(srv.port(), "/metrics").unwrap();
        assert!(
            body.contains("hic_noc_link_util{x=\"1\",y=\"0\",port=\"east\"} 1000"),
            "{body}"
        );
        validate_exposition(&body).unwrap();
        srv.stop();
    }

    #[test]
    fn label_keys_are_sanitized() {
        assert_eq!(label_key("port"), "port");
        assert_eq!(label_key("2bad"), "_bad");
        assert_eq!(label_key("a-b.c"), "a_b_c");
        assert_eq!(label_key(""), "_");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("no_value_here").is_err());
        assert!(validate_exposition("bad-name 1").is_err());
        assert!(validate_exposition("name nan").is_err());
        assert!(validate_exposition("name{unterminated 1").is_err());
        validate_exposition("# a comment\nok_name 1.5\nok{l=\"x\"} 2").unwrap();
    }

    #[test]
    fn server_serves_metrics_and_404s() {
        let reg = sample_registry();
        let mut srv = MetricsServer::start(reg, None, 0).unwrap();
        let body = http_get_local(srv.port(), "/metrics").unwrap();
        assert!(body.contains("hic_noc_flits_forwarded 17"), "{body}");
        validate_exposition(&body).unwrap();
        let index = http_get_local(srv.port(), "/").unwrap();
        assert!(index.contains("/metrics"));
        let raw = http_request_local(srv.port(), "GET", "/nope").unwrap();
        assert!(raw.starts_with("HTTP/1.1 404"), "{raw}");
        assert!(raw.contains("not found"));
        srv.stop();
        // After stop, connecting fails (listener closed) or is refused.
        assert!(TcpStream::connect(("127.0.0.1", srv.port())).is_err());
    }

    /// Send `parts` as separate writes with a pause after each but the
    /// last, then return the raw response.
    fn split_request(port: u16, parts: &[&[u8]]) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for (i, part) in parts.iter().enumerate() {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(100));
            }
            s.write_all(part).unwrap();
        }
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        raw
    }

    #[test]
    fn request_head_split_across_writes_is_read_whole() {
        let mut srv = MetricsServer::start(sample_registry(), None, 0).unwrap();
        let raw = split_request(
            srv.port(),
            &[b"GET /met", b"rics HTTP/1.1\r\nHost: localhost\r\n\r\n"],
        );
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(raw.contains("hic_noc_flits_forwarded 17"), "{raw}");
        srv.stop();
    }

    #[test]
    fn oversized_request_head_is_a_400() {
        let mut srv = MetricsServer::start(sample_registry(), None, 0).unwrap();
        let head = format!("GET /{} HTTP/1.1", "a".repeat(MAX_HEAD_BYTES));
        let raw = split_request(srv.port(), &[head.as_bytes()]);
        assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
        srv.stop();
    }

    #[test]
    fn exposition_carries_build_info_labels() {
        let body = render_prometheus(&sample_registry().snapshot());
        let b = crate::build_info();
        assert!(
            body.contains(&format!(
                "hic_build_info{{version=\"{}\",git_sha=\"{}\",profile=\"{}\"}} 1",
                b.version, b.git_sha, b.profile
            )),
            "{body}"
        );
        validate_exposition(&body).unwrap();
    }

    #[test]
    fn head_metrics_sends_headers_and_length_but_no_body() {
        let mut srv = MetricsServer::start(sample_registry(), None, 0).unwrap();
        let raw = http_request_local(srv.port(), "HEAD", "/metrics").unwrap();
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
        assert_eq!(body, "", "HEAD must not carry a body: {raw:?}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .parse()
            .unwrap();
        assert!(len > 0, "advertises the GET body length");
        // HEAD of an unknown path is still a 404.
        let missing = http_request_local(srv.port(), "HEAD", "/nope").unwrap();
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        srv.stop();
    }

    #[test]
    fn healthz_and_statusz_without_a_source_are_liveness_only() {
        let mut srv = MetricsServer::start(sample_registry(), None, 0).unwrap();
        let health = http_request_local(srv.port(), "GET", "/healthz").unwrap();
        assert!(health.starts_with("HTTP/1.1 200"), "{health}");
        assert!(health.ends_with("ok\n"));
        let statusz = http_get_local(srv.port(), "/statusz").unwrap();
        assert!(statusz.contains("hic-statusz/v1"), "{statusz}");
        assert!(statusz.contains("git_sha"), "{statusz}");
        srv.stop();
    }

    #[test]
    fn healthz_reports_draining_from_the_status_source() {
        struct Src(std::sync::atomic::AtomicBool);
        impl StatusSource for Src {
            fn healthz(&self) -> Result<(), &'static str> {
                if self.0.load(Ordering::Relaxed) {
                    Err("draining")
                } else {
                    Ok(())
                }
            }
            fn statusz(&self) -> String {
                "{\"schema\":\"hic-statusz/v1\",\"custom\":true}".to_string()
            }
        }
        let src = Arc::new(Src(AtomicBool::new(false)));
        let mut srv = MetricsServer::start_with_status(
            sample_registry(),
            None,
            0,
            Some(Arc::clone(&src) as Arc<dyn StatusSource>),
        )
        .unwrap();
        let up = http_request_local(srv.port(), "GET", "/healthz").unwrap();
        assert!(up.starts_with("HTTP/1.1 200"), "{up}");
        src.0.store(true, Ordering::Relaxed);
        let drain = http_request_local(srv.port(), "GET", "/healthz").unwrap();
        assert!(drain.starts_with("HTTP/1.1 503"), "{drain}");
        assert!(drain.ends_with("draining\n"), "{drain}");
        let statusz = http_get_local(srv.port(), "/statusz").unwrap();
        assert!(statusz.contains("\"custom\":true"), "{statusz}");
        srv.stop();
    }
}
