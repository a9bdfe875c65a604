//! A dependency-free metrics listener for the real-time runtime.
//!
//! [`MetricsServer`] binds a `std::net::TcpListener` and serves two
//! plain-HTTP endpoints from an [`RtNetwork`]'s instruments:
//!
//! * `GET /metrics` — the full metric snapshot rendered in the Prometheus
//!   text exposition format ([`render_prometheus`]), pool gauges refreshed.
//! * `GET /health` — the health report of the network's event log as JSON
//!   (`200` while every scored peer is healthy, `503` otherwise), folded
//!   from the log on each request by [`replay`]; empty when the network
//!   records no events.
//!
//! One accept loop on one thread, non-blocking with a short sleep, one
//! request per connection: deliberately minimal, enough for a scraper or a
//! `curl`, with no HTTP library and no event-loop machinery.

use super::transport::RtNetwork;
use asymshare_obs::export::render_prometheus;
use asymshare_obs::health::replay;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A background thread serving `/metrics` and `/health` over HTTP.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `network`'s snapshot and health report.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn spawn(network: &RtNetwork, bind: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let net = network.clone();
        let handle = std::thread::Builder::new()
            .name("asymshare-metrics".to_owned())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = serve_one(stream, &net);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves the ephemeral port of `":0"` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Reads one request line, writes one response, closes the connection.
fn serve_one(mut stream: TcpStream, net: &RtNetwork) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            render_prometheus(&net.metrics_snapshot()),
        ),
        "/health" => {
            let report = replay(&net.events().events());
            let status = if report.all_healthy() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            (status, "application/json", report.to_json())
        }
        _ => ("404 Not Found", "text/plain", String::from("not found\n")),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asymshare_obs::{EventSink, Registry};

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        // One write: the server answers after a single read, and closes.
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("has body");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_metrics_and_health() {
        let net = RtNetwork::with_observability(Registry::new(), EventSink::new());
        net.metrics().counter("rt.transport.sends").add(7);
        let server = MetricsServer::spawn(&net, "127.0.0.1:0").expect("bind");
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"), "{head}");
        assert!(body.contains("asymshare_rt_transport_sends 7\n"), "{body}");

        // The report is the fold of the log: one heartbeat, one window.
        net.events().emit("health", "window", &[]);
        let (head, body) = http_get(addr, "/health");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"status\": \"ok\""), "{body}");
        assert!(body.contains("\"windows\": 1"), "{body}");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.shutdown();
    }
}
