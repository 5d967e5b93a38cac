//! A minimal HTTP scrape endpoint: `std::net::TcpListener`, one accept
//! thread, no async runtime.
//!
//! [`serve_with_router`] binds an address (port `0` picks an ephemeral
//! port — see [`MetricsServer::local_addr`]) and answers three `GET`
//! routes:
//!
//! - `/metrics` — Prometheus text exposition of the [`Registry`]
//!   (histogram families plus their `_quantile` companion gauges);
//! - `/healthz` — `ok`, for liveness probes;
//! - `/snapshot` — one JSON object: the registry snapshot plus the
//!   flight recorder's recent tail.
//!
//! It also dispatches to caller-registered [`Router`] routes, which is
//! how a daemon exposes `show`-style admin endpoints (`/show/fib`,
//! `/events`, `/shutdown`) next to the scrape routes without this crate
//! knowing anything about FIBs; a lab run passes an empty router.
//! Registered routes may accept `POST`. A request is dispatched only
//! whole: one larger than a small cap is refused with `413`, and a body
//! shorter than its `Content-Length` with `400`.
//!
//! Requests are served inline on the accept thread: a scrape is a small
//! snapshot read, and serializing them keeps the server from ever
//! holding more than one registry lock at a time. Slow or stuck clients
//! are cut off by read/write timeouts rather than threads piling up.
//! The server observes and never perturbs: a run with `--listen` is
//! byte-identical to one without.

use crate::flight::FlightRecorder;
use crate::json::JsonObject;
use crate::registry::Registry;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How many flight-recorder events `/snapshot` includes.
const SNAPSHOT_TAIL: usize = 256;

/// Per-connection socket timeout; a scrape that cannot complete in this
/// window is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request (head + body) the server reads. Admin bodies are
/// event specs — a few hundred bytes; anything bigger is a client bug,
/// not a use case, and is refused with `413` rather than cut short.
const MAX_REQUEST: usize = 64 * 1024;

/// Most input read and dropped after a refusal (see `handle_request`).
const DRAIN_LIMIT: u64 = 16 * MAX_REQUEST as u64;

/// A parsed request handed to a registered [`Router`] handler.
#[derive(Clone, Debug)]
pub struct AdminRequest {
    /// HTTP method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Request body (empty for GET).
    pub body: String,
}

/// What a registered route handler returns.
#[derive(Clone, Debug)]
pub struct AdminResponse {
    /// Status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl AdminResponse {
    /// `200 OK` with a plain-text body.
    pub fn text(body: impl Into<String>) -> AdminResponse {
        AdminResponse {
            status: "200 OK",
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
        }
    }

    /// `200 OK` with a JSON body.
    pub fn json(body: impl Into<String>) -> AdminResponse {
        AdminResponse {
            status: "200 OK",
            content_type: "application/json; charset=utf-8",
            body: body.into(),
        }
    }

    /// `400 Bad Request` with a plain-text reason.
    pub fn bad_request(reason: impl Into<String>) -> AdminResponse {
        AdminResponse {
            status: "400 Bad Request",
            content_type: "text/plain; charset=utf-8",
            body: reason.into(),
        }
    }
}

/// A route handler: pure function of the request, shareable across the
/// accept thread's lifetime.
pub type AdminHandler = Arc<dyn Fn(&AdminRequest) -> AdminResponse + Send + Sync>;

/// Caller-registered admin routes served next to the built-in scrape
/// endpoints. Built-ins win on a path collision, so a router can never
/// shadow `/metrics`, `/healthz`, or `/snapshot`.
#[derive(Clone, Default)]
pub struct Router {
    routes: Vec<(String, String, AdminHandler)>,
}

impl Router {
    /// An empty router: the scrape endpoints only.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register `handler` for exact matches of `method` + `path`.
    pub fn route(
        mut self,
        method: &str,
        path: &str,
        handler: impl Fn(&AdminRequest) -> AdminResponse + Send + Sync + 'static,
    ) -> Router {
        self.routes
            .push((method.to_string(), path.to_string(), Arc::new(handler)));
        self
    }

    fn dispatch(&self, req: &AdminRequest) -> Option<AdminResponse> {
        self.routes
            .iter()
            .find(|(m, p, _)| *m == req.method && *p == req.path)
            .map(|(_, _, h)| h(req))
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let paths: Vec<String> = self
            .routes
            .iter()
            .map(|(m, p, _)| format!("{m} {p}"))
            .collect();
        f.debug_struct("Router").field("routes", &paths).finish()
    }
}

/// A running scrape endpoint. Shuts down when dropped or via
/// [`MetricsServer::shutdown`].
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Bind `addr` (e.g. `"127.0.0.1:9090"`, or port `0` for an ephemeral
/// port) and serve `/metrics`, `/healthz`, `/snapshot` and `router`'s
/// routes from a background thread until the returned server is shut
/// down or dropped. Registered routes are consulted after the built-in
/// scrape endpoints miss, and are the only way a non-`GET` request is
/// ever accepted.
pub fn serve_with_router(
    addr: &str,
    registry: Registry,
    flight: Option<FlightRecorder>,
    router: Router,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("splice-observe".into())
        .spawn(move || accept_loop(listener, registry, flight, router, accept_stop))?;
    Ok(MetricsServer {
        addr: local,
        stop,
        handle: Some(handle),
    })
}

impl MetricsServer {
    /// The address actually bound — the one to scrape when the caller
    /// asked for port `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in `accept`; a throwaway connection
        // wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .field("running", &self.handle.is_some())
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    registry: Registry,
    flight: Option<FlightRecorder>,
    router: Router,
    stop: Arc<AtomicBool>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // Best-effort: a dead client must not take down the run being
        // observed.
        let _ = handle_request(&mut stream, &registry, flight.as_ref(), &router);
    }
}

/// Read one request: the head, then the body its `Content-Length`
/// declares. `Err` is the refusal to send instead of dispatching: `413`
/// when the head or the declared body would pass [`MAX_REQUEST`], `400`
/// when the body ends short of its `Content-Length` or that header does
/// not parse. A head cut off by the client closing is served as a bare
/// request line.
fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<AdminRequest, AdminResponse>> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break Some(pos + 4);
        }
        if buf.len() > MAX_REQUEST {
            return Ok(Err(too_large()));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end.unwrap_or(buf.len())]).into_owned();
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("").to_string();
    let Some(head_end) = head_end else {
        let body = String::new();
        return Ok(Ok(AdminRequest { method, path, body }));
    };
    let declared = head.lines().find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("content-length")
            .then(|| value.trim().parse::<usize>())
    });
    let content_length = match declared {
        None => 0,
        Some(Ok(n)) => n,
        Some(Err(_)) => return Ok(Err(AdminResponse::bad_request("bad Content-Length\n"))),
    };
    let end = head_end.saturating_add(content_length);
    if end > MAX_REQUEST {
        return Ok(Err(too_large()));
    }
    while buf.len() < end {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(Err(AdminResponse::bad_request(
                "body shorter than its Content-Length\n",
            )));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8_lossy(&buf[head_end..end]).into_owned();
    Ok(Ok(AdminRequest { method, path, body }))
}

fn too_large() -> AdminResponse {
    AdminResponse {
        status: "413 Payload Too Large",
        content_type: "text/plain; charset=utf-8",
        body: format!("request larger than {MAX_REQUEST} bytes\n"),
    }
}

fn handle_request(
    stream: &mut TcpStream,
    registry: &Registry,
    flight: Option<&FlightRecorder>,
    router: &Router,
) -> std::io::Result<()> {
    let req = match read_request(stream)? {
        Ok(req) => req,
        Err(refusal) => {
            respond(stream, &refusal)?;
            // Drop (a bounded amount of) what the client is still
            // sending, so closing with unread input does not reset the
            // connection before the client reads the refusal.
            stream.shutdown(Shutdown::Write)?;
            let _ = std::io::copy(&mut (&*stream).take(DRAIN_LIMIT), &mut std::io::sink());
            return Ok(());
        }
    };
    let built_in = |content_type, body| AdminResponse {
        status: "200 OK",
        content_type,
        body,
    };
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => built_in(
            "text/plain; version=0.0.4; charset=utf-8",
            registry.render_prometheus(),
        ),
        ("GET", "/healthz") => built_in("text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", "/snapshot") => built_in(
            "application/json; charset=utf-8",
            snapshot_json(registry, flight),
        ),
        _ => match router.dispatch(&req) {
            Some(resp) => resp,
            None if req.method != "GET" => AdminResponse {
                status: "405 Method Not Allowed",
                content_type: "text/plain; charset=utf-8",
                body: "method not served on this route\n".to_string(),
            },
            None => AdminResponse {
                status: "404 Not Found",
                content_type: "text/plain; charset=utf-8",
                body: format!("no route for {}\n", req.path),
            },
        },
    };
    respond(stream, &resp)
}

fn respond(stream: &mut TcpStream, resp: &AdminResponse) -> std::io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        resp.content_type,
        resp.body.len()
    )?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// The `/snapshot` body: registry metrics plus the flight tail.
fn snapshot_json(registry: &Registry, flight: Option<&FlightRecorder>) -> String {
    let mut obj = JsonObject::new().field_raw("metrics", &registry.render_json());
    if let Some(rec) = flight {
        let mut events = crate::json::JsonArray::new();
        for ev in rec.tail(SNAPSHOT_TAIL) {
            events = events.push_raw(&ev.to_json());
        }
        obj = obj
            .field_u64("flight_recorded", rec.recorded())
            .field_u64("flight_dropped", rec.dropped())
            .field_raw("flight", &events.finish());
    }
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightEvent;
    use crate::series;

    /// A bare-hands HTTP GET, returning (status line, body).
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to test server");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status = response.lines().next().unwrap_or("").to_string();
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn test_server() -> (MetricsServer, Registry, FlightRecorder) {
        let registry = Registry::new();
        let flight = FlightRecorder::new(16);
        let server = serve_with_router(
            "127.0.0.1:0",
            registry.clone(),
            Some(flight.clone()),
            Router::new(),
        )
        .expect("bind an ephemeral port");
        (server, registry, flight)
    }

    #[test]
    fn metrics_route_serves_the_live_registry() {
        let (server, registry, _flight) = test_server();
        registry.counter(&series::PACKETS_FORWARDED, None).add(3);
        let (status, body) = get(server.local_addr(), "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains("splice_packets_forwarded_total 3"));
        registry.counter(&series::PACKETS_FORWARDED, None).inc();
        let (_, body) = get(server.local_addr(), "/metrics");
        assert!(
            body.contains("splice_packets_forwarded_total 4"),
            "scrapes are live"
        );
        server.shutdown();
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (server, _registry, _flight) = test_server();
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, "ok\n");
        let (status, _) = get(server.local_addr(), "/nope");
        assert_eq!(status, "HTTP/1.1 404 Not Found");
        server.shutdown();
    }

    #[test]
    fn snapshot_includes_metrics_and_flight_tail() {
        let (server, registry, flight) = test_server();
        registry.counter(&series::DEFLECTIONS, None).inc();
        flight.record(FlightEvent::new("repair", "link_failure").field("frontier", 5));
        let (status, body) = get(server.local_addr(), "/snapshot");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(body.contains(r#""name":"splice_deflections_total""#));
        assert!(body.contains(r#""kind":"repair""#));
        assert!(body.contains(r#""frontier":5"#));
        assert!(body.contains(r#""flight_recorded":1"#));
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let (server, _registry, _flight) = test_server();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }

    /// Send `request` raw (half-closing after it when `half_close`) and
    /// return the whole response.
    fn exchange(addr: SocketAddr, request: &[u8], half_close: bool) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request).unwrap();
        if half_close {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    /// A request that is too large or cut short never reaches a
    /// registered route: it is refused whole, not dispatched truncated.
    #[test]
    fn oversized_or_short_requests_are_refused_undispatched() {
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let router = Router::new().route("POST", "/events", move |_req| {
            counted.fetch_add(1, Ordering::SeqCst);
            AdminResponse::text("accepted\n")
        });
        let server = serve_with_router("127.0.0.1:0", Registry::new(), None, router)
            .expect("bind ephemeral");
        let addr = server.local_addr();
        let post = |len: usize| format!("POST /events HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");

        let body = "f1+".repeat(MAX_REQUEST / 3) + "f12";
        assert!(body.len() > MAX_REQUEST);
        let sent_in_full = post(body.len()) + &body;
        let declared_only = post(10 * MAX_REQUEST);
        let endless_head = format!(
            "POST /events HTTP/1.1\r\nX-Pad: {}",
            "a".repeat(MAX_REQUEST)
        );
        for request in [sent_in_full, declared_only, endless_head] {
            let response = exchange(addr, request.as_bytes(), false);
            assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        }
        let short = post(100) + "f1+f2";
        let response = exchange(addr, short.as_bytes(), true);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        let bad_length = "POST /events HTTP/1.1\r\nContent-Length: ten\r\n\r\nf1";
        let response = exchange(addr, bad_length.as_bytes(), false);
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        assert_eq!(calls.load(Ordering::SeqCst), 0, "no refused request ran");

        let whole = post(5) + "f1+f2";
        let response = exchange(addr, whole.as_bytes(), false);
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn registered_routes_serve_get_and_post_with_body() {
        let registry = Registry::new();
        let hits = Arc::new(std::sync::Mutex::new(Vec::<String>::new()));
        let record = Arc::clone(&hits);
        let router = Router::new()
            .route("GET", "/show/fib", |_req| {
                AdminResponse::json(r#"{"epoch":7}"#)
            })
            .route("POST", "/events", move |req| {
                record.lock().unwrap().push(req.body.clone());
                AdminResponse::text("accepted\n")
            });
        let server =
            serve_with_router("127.0.0.1:0", registry, None, router).expect("bind ephemeral");
        let (status, body) = get(server.local_addr(), "/show/fib");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert_eq!(body, r#"{"epoch":7}"#);

        // POST with a body lands in the handler.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let payload = "f3+w1.2.1500";
        write!(
            stream,
            "POST /events HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.ends_with("accepted\n"));
        assert_eq!(hits.lock().unwrap().as_slice(), &[payload.to_string()]);

        // Wrong method on a known path is 405, not a handler call.
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /show/fib HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"));
        server.shutdown();
    }

    #[test]
    fn built_in_routes_cannot_be_shadowed() {
        let registry = Registry::new();
        registry.counter(&series::DEFLECTIONS, None).inc();
        let router =
            Router::new().route("GET", "/metrics", |_req| AdminResponse::text("shadowed!\n"));
        let server =
            serve_with_router("127.0.0.1:0", registry, None, router).expect("bind ephemeral");
        let (status, body) = get(server.local_addr(), "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(
            body.contains("splice_deflections_total 1"),
            "built-in wins: {body}"
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_and_stops_serving() {
        let (server, _registry, _flight) = test_server();
        let addr = server.local_addr();
        let (status, _) = get(addr, "/healthz");
        assert_eq!(status, "HTTP/1.1 200 OK");
        server.shutdown();
        // The listener is gone: either the connect fails outright or the
        // connection is never answered.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut stream) => {
                let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                let mut out = String::new();
                assert!(
                    stream.read_to_string(&mut out).is_err() || out.is_empty(),
                    "no response after shutdown"
                );
            }
        }
    }
}
