//! Transports: TCP listener and stdio, both feeding the [`Daemon`]'s
//! event queue.
//!
//! Transport threads are dumb pipes — a reader thread turns lines into
//! [`Event::Frame`]s (`read_frames`, shared by both transports), the
//! accept thread turns sockets into
//! [`Event::Opened`]s — and all protocol logic lives in the actor. On
//! shutdown the daemon hangs up every connection
//! ([`ClientSink::hangup`]), which unblocks the readers; the accept
//! loop is unblocked by a self-connection, and [`Server::run`] joins
//! every transport thread before returning.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::daemon::{ClientSink, Daemon, DaemonConfig, Event};
use crate::protocol::StatsReport;

struct TcpSink(TcpStream);

impl Write for TcpSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl ClientSink for TcpSink {
    fn hangup(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// The longest request line a connection may send, newline excluded.
/// Far above any submit frame; a longer line is refused, not buffered.
const MAX_FRAME_BYTES: usize = 1 << 20;

/// Reads newline-delimited frames from `reader` and posts each
/// non-blank one to the daemon; posts `Closed` on EOF or a read error.
/// A line over [`MAX_FRAME_BYTES`], or one that is not UTF-8, is
/// skipped up to its newline and posted as a refusal, so the daemon
/// answers `error` and the connection stays open. Exits when the
/// daemon is gone or hangs the connection up.
fn read_frames(mut reader: impl BufRead, conn: u64, events: Sender<Event>) {
    let mut bytes = Vec::new();
    loop {
        bytes.clear();
        let limit = MAX_FRAME_BYTES as u64 + 1;
        match Read::take(&mut reader, limit).read_until(b'\n', &mut bytes) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = if bytes.last() == Some(&b'\n') {
            bytes.pop();
            Ok(&bytes[..])
        } else if bytes.len() > MAX_FRAME_BYTES {
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            Err(format!("frame longer than {MAX_FRAME_BYTES} bytes refused"))
        } else {
            Ok(&bytes[..]) // the last line, cut by EOF
        };
        let line = line.and_then(|line| {
            std::str::from_utf8(line)
                .map(|line| line.strip_suffix('\r').unwrap_or(line).to_string())
                .map_err(|_| "frame is not UTF-8".to_string())
        });
        if matches!(&line, Ok(line) if line.trim().is_empty()) {
            continue;
        }
        if events.send(Event::Frame { conn, line }).is_err() {
            return; // daemon gone
        }
    }
    let _ = events.send(Event::Closed { conn });
}

/// A bound `ringdeployd` TCP endpoint. [`Server::bind`], read the port
/// back with [`Server::local_addr`], then [`Server::run`] on a thread
/// you own.
pub struct Server {
    listener: TcpListener,
    config: DaemonConfig,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, config: DaemonConfig) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (port-0 discovery).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a `shutdown` frame drains the daemon; returns the
    /// final stats. Joins the accept thread and every reader thread —
    /// when this returns, no server thread is left running.
    pub fn run(self) -> StatsReport {
        let addr = self.listener.local_addr().ok();
        let (daemon, events) = Daemon::new(self.config);
        let done = Arc::new(AtomicBool::new(false));
        let accept = {
            let listener = self.listener;
            let events = events.clone();
            let done = done.clone();
            std::thread::Builder::new()
                .name("ringdeployd-accept".to_string())
                .spawn(move || {
                    let mut readers: Vec<JoinHandle<()>> = Vec::new();
                    let mut next_conn: u64 = 1;
                    while let Ok((stream, _peer)) = listener.accept() {
                        if done.load(Ordering::SeqCst) {
                            break; // the wake-up self-connection
                        }
                        let conn = next_conn;
                        next_conn += 1;
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        if events
                            .send(Event::Opened {
                                conn,
                                sink: Box::new(TcpSink(write_half)),
                                eof_is_shutdown: false,
                            })
                            .is_err()
                        {
                            break;
                        }
                        let events = events.clone();
                        let reader = std::thread::Builder::new()
                            .name(format!("ringdeployd-reader-{conn}"))
                            .spawn(move || read_frames(BufReader::new(stream), conn, events))
                            .expect("spawn reader thread");
                        readers.push(reader);
                    }
                    for reader in readers {
                        reader.join().expect("reader thread panicked");
                    }
                })
                .expect("spawn accept thread")
        };
        let stats = daemon.run();
        // Unblock the (blocking) accept call with a throwaway
        // self-connection so the thread can observe `done` and exit.
        done.store(true, Ordering::SeqCst);
        if let Some(addr) = addr {
            let _ = TcpStream::connect(addr);
        }
        accept.join().expect("accept thread panicked");
        stats
    }
}

struct StdoutSink(io::Stdout);

impl Write for StdoutSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl ClientSink for StdoutSink {}

/// Serves one client over stdin/stdout: requests are lines on stdin,
/// frames go to stdout, and EOF on stdin is a shutdown request.
/// Returns the final stats.
///
/// The stdin reader thread is detached, not joined: if the client sends
/// a `shutdown` frame without closing stdin, the reader stays blocked
/// in `read_frames` and only exits with the process.
pub fn serve_stdio(config: DaemonConfig) -> StatsReport {
    let (daemon, events) = Daemon::new(config);
    events
        .send(Event::Opened {
            conn: 0,
            sink: Box::new(StdoutSink(io::stdout())),
            eof_is_shutdown: true,
        })
        .expect("daemon receiver alive");
    std::thread::Builder::new()
        .name("ringdeployd-stdin".to_string())
        .spawn(move || read_frames(io::stdin().lock(), 0, events))
        .expect("spawn stdin reader");
    daemon.run()
}
