//! The JSON-lines transport: one compact JSON object per line, in both
//! directions. The daemon, [`crate::client::Client`] and the fleet's
//! peer calls all send through [`write_frame`], and both clients make
//! their calls through [`roundtrip`].
//!
//! A frame is written **once**: the line and its `\n` leave in a
//! single write. Written as two small writes, the terminator would sit
//! behind Nagle's algorithm until the reader's delayed ACK for the
//! first part arrives — about 40 ms on Linux — and the reader cannot
//! ACK early because it is still waiting for the `\n`. On a kept-alive
//! connection every request after the first would pay that stall. One
//! write per frame avoids it without `TCP_NODELAY`.

use relim_json::Json;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The longest request line the daemon reads, terminator excluded
/// (16 MiB). A longer line is refused with one error line and its
/// connection closed, so a sender that never ends its line cannot make
/// the daemon buffer without limit.
pub const MAX_REQUEST_BYTES: u64 = 16 << 20;

/// A failed round trip, tagged with whether it was a timeout (the fleet
/// counts `fetch_timeout` and `fetch_err` apart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong, naming the address.
    pub message: String,
    /// Whether a connect, read or write timed out.
    pub timed_out: bool,
}

impl WireError {
    fn io(context: String, e: &std::io::Error) -> WireError {
        WireError {
            message: format!("{context}: {e}"),
            timed_out: matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock),
        }
    }

    fn plain(message: String) -> WireError {
        WireError { message, timed_out: false }
    }
}

/// Writes `line` plus its `\n` terminator in a single write.
///
/// # Errors
///
/// Propagates the write or flush failure.
pub fn write_frame(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// One request/response exchange with the daemon at `addr` on a fresh
/// connection: connect (every resolved address in turn, each bounded by
/// `timeout`), write `line` as one frame, read one response line under
/// the same timeout and parse it.
///
/// # Errors
///
/// Connect, write and read failures, a connection closed before the
/// response, and an unparsable response.
pub fn roundtrip(addr: &str, line: &str, timeout: Duration) -> Result<Json, WireError> {
    let connect_err = |e: &std::io::Error| WireError::io(format!("cannot connect to {addr}"), e);
    let mut last = std::io::Error::new(ErrorKind::NotFound, "no address resolved");
    let stream = addr
        .to_socket_addrs()
        .map_err(|e| connect_err(&e))?
        .find_map(|target| TcpStream::connect_timeout(&target, timeout).map_err(|e| last = e).ok())
        .ok_or_else(|| connect_err(&last))?;
    let io_err = |what: &str, e: &std::io::Error| WireError::io(format!("{what} {addr} failed"), e);
    stream.set_read_timeout(Some(timeout)).map_err(|e| io_err("configuring", &e))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| io_err("configuring", &e))?;
    let mut writer = &stream;
    write_frame(&mut writer, line).map_err(|e| io_err("write to", &e))?;
    let mut response = String::new();
    let n =
        BufReader::new(&stream).read_line(&mut response).map_err(|e| io_err("read from", &e))?;
    if n == 0 {
        return Err(WireError::plain(format!("{addr} closed the connection")));
    }
    Json::parse(response.trim_end())
        .map_err(|e| WireError::plain(format!("unparsable response from {addr}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_one_write_of_line_and_terminator() {
        /// Records each `write` call separately.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writes = Writes(Vec::new());
        write_frame(&mut writes, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(writes.0, vec![b"{\"op\":\"ping\"}\n".to_vec()]);
    }

    #[test]
    fn refused_connections_and_silent_peers_are_reported() {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err = roundtrip(&addr, "{}", Duration::from_millis(200)).unwrap_err();
        assert!(err.message.starts_with(&format!("cannot connect to {addr}")), "{err:?}");
        assert!(!err.timed_out, "a refusal is not a timeout");

        // A listener that accepts but never answers: the read times out.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let err = roundtrip(&addr, "{}", Duration::from_millis(50)).unwrap_err();
        assert!(err.timed_out, "{err:?}");
        assert!(err.message.starts_with(&format!("read from {addr} failed")), "{err:?}");
        drop(listener);
    }
}
