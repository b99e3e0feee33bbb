//! A minimal blocking client for the NDJSON protocol, plus the retrying
//! wrapper the CLI uses.
//!
//! Retries are safe by construction: jobs are content-addressed, so
//! replaying a request can only return the same bytes (from the store or a
//! recomputation) — never a duplicated side effect. [`call_with_retry`]
//! therefore retries on transport faults (refused/reset/EOF — the daemon
//! may have dropped the connection mid-exchange) and on the server's
//! structured `retry_after` shed response, with jittered exponential
//! backoff; it gives up immediately on any other structured error.

use crate::json::Json;
use cme_poly::rng::mix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a `cme serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the daemon, with Nagle's algorithm off: a request is one
    /// small write that must not wait for the previous answer's ACK.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request object, returns the parsed response.
    pub fn request(&mut self, req: &Json) -> std::io::Result<Json> {
        let line = self.request_line(&req.render())?;
        Json::parse(&line).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("malformed response: {e}"),
            )
        })
    }

    /// Sends one raw request line (in a single write), returns the raw
    /// response line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// How [`call_with_retry`] paces itself.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub attempts: u32,
    /// Backoff before attempt `k+1` is `base << k` plus jitter...
    pub base: Duration,
    /// ...capped here. A server-supplied `retry_after_ms` overrides the
    /// exponential term (still jittered, still capped).
    pub cap: Duration,
    /// Jitter seed, so tests can replay a pacing schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl RetryPolicy {
    /// A policy making `1 + retries` attempts.
    pub fn with_retries(retries: u32) -> RetryPolicy {
        RetryPolicy {
            attempts: retries.saturating_add(1),
            ..RetryPolicy::default()
        }
    }

    /// The pause before attempt `attempt + 1` (0-based), given an optional
    /// server-requested floor: exponential in the attempt index, with up to
    /// 50% deterministic jitter, capped.
    fn backoff(&self, attempt: u32, retry_after_ms: Option<u64>) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .as_millis() as u64;
        let ms = retry_after_ms.unwrap_or(exp).max(1);
        let jitter = mix64(self.seed ^ mix64(attempt as u64 + 1)) % (ms / 2 + 1);
        Duration::from_millis(ms + jitter).min(self.cap)
    }
}

/// Whether a transport error is worth a reconnect: the daemon may be
/// restarting, shedding, or have dropped this one connection.
fn transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::NotConnected
    )
}

/// Whether a parsed response is the server's shed signal, and the pause it
/// asked for.
fn shed_retry_after(response: &Json) -> Option<u64> {
    if response.get("ok").and_then(Json::as_bool) == Some(false)
        && response.get("kind").and_then(Json::as_str) == Some("retry_after")
    {
        Some(
            response
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        )
    } else {
        None
    }
}

/// Sends `line` to `addr` on a fresh connection per attempt, retrying
/// transient transport errors and `retry_after` sheds per `policy`.
/// Returns the raw response line of the first conclusive exchange.
pub fn call_with_retry<A: ToSocketAddrs>(
    addr: A,
    line: &str,
    policy: &RetryPolicy,
) -> std::io::Result<String> {
    let attempts = policy.attempts.max(1);
    let mut last_err: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        let outcome = Client::connect(&addr).and_then(|mut c| c.request_line(line));
        match outcome {
            Ok(response) => {
                let retry_after = Json::parse(&response)
                    .ok()
                    .as_ref()
                    .and_then(shed_retry_after);
                match retry_after {
                    Some(ms) if attempt + 1 < attempts => {
                        std::thread::sleep(policy.backoff(attempt, Some(ms)));
                        last_err = Some(std::io::Error::new(
                            std::io::ErrorKind::WouldBlock,
                            "server shed the request (retry_after)",
                        ));
                    }
                    // A shed on the last attempt is still a structured
                    // response — hand it to the caller verbatim.
                    _ => return Ok(response),
                }
            }
            Err(e) if transient(&e) && attempt + 1 < attempts => {
                std::thread::sleep(policy.backoff(attempt, None));
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| std::io::Error::other("retry loop exhausted without an attempt")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_jittered_and_capped() {
        let p = RetryPolicy::with_retries(5);
        let b0 = p.backoff(0, None);
        let b3 = p.backoff(3, None);
        assert!(b0 >= Duration::from_millis(50));
        assert!(b3 > b0, "exponential growth");
        assert!(p.backoff(12, None) <= p.cap, "capped");
        // The server's retry_after floor wins over the exponential term.
        let server = p.backoff(0, Some(700));
        assert!(server >= Duration::from_millis(700));
        // Deterministic in the seed.
        assert_eq!(p.backoff(2, None), p.backoff(2, None));
    }

    #[test]
    fn transient_classification() {
        use std::io::{Error, ErrorKind};
        assert!(transient(&Error::from(ErrorKind::ConnectionRefused)));
        assert!(transient(&Error::from(ErrorKind::UnexpectedEof)));
        assert!(!transient(&Error::from(ErrorKind::InvalidData)));
        assert!(!transient(&Error::from(ErrorKind::PermissionDenied)));
    }

    #[test]
    fn shed_detection_reads_retry_after() {
        let shed = Json::parse(r#"{"ok":false,"kind":"retry_after","retry_after_ms":40}"#).unwrap();
        assert_eq!(shed_retry_after(&shed), Some(40));
        let other = Json::parse(r#"{"ok":false,"kind":"timeout"}"#).unwrap();
        assert_eq!(shed_retry_after(&other), None);
        let ok = Json::parse(r#"{"ok":true}"#).unwrap();
        assert_eq!(shed_retry_after(&ok), None);
    }

    #[test]
    fn retry_gives_up_on_refused_with_last_error() {
        // Port 1 on localhost is essentially never listening.
        let p = RetryPolicy {
            attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        let err = call_with_retry("127.0.0.1:1", "{\"verb\":\"ping\"}", &p).unwrap_err();
        assert!(transient(&err), "surfaces the final transport error: {err}");
    }
}
