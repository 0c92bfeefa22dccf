//! The TCP accept loop: one thread per connection, one snapshot
//! [`Session`](excess_db::Session) per connection, graceful shutdown.

use crate::protocol::{error_line, respond};
use excess_db::VersionedDb;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The open connections, by id: a clone of each stream, so `shutdown` can
/// close a connection its thread is blocked reading.
type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A running server: the bound address plus everything needed to stop
/// it cleanly.
pub struct ServerHandle {
    addr: SocketAddr,
    db: VersionedDb,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conns: Conns,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying versioned database (e.g. for in-process
    /// verification next to socket traffic).
    pub fn db(&self) -> &VersionedDb {
        &self.db
    }

    /// Stop accepting, close every open connection, and join all server
    /// threads.  Returns the [`VersionedDb`] so the caller can keep
    /// using it — or shut its committer down too.
    ///
    /// Sessions close as their connection threads exit, so every
    /// connection's metrics are merged into the database-wide registry
    /// by the time this returns.
    pub fn shutdown(mut self) -> VersionedDb {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` by connecting to ourselves; the accept loop
        // re-checks the stop flag before handling the connection.
        let _ = TcpStream::connect(self.addr);
        for (_, conn) in self.conns.lock().expect("conns lock").drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in workers {
            let _ = h.join();
        }
        self.db.clone()
    }
}

/// Bind `addr` (use port 0 for an ephemeral port) and serve `db` until
/// [`ServerHandle::shutdown`].
pub fn serve<A: ToSocketAddrs>(db: VersionedDb, addr: A) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
    let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let accept_thread = {
        let db = db.clone();
        let stop = stop.clone();
        let conns = conns.clone();
        let workers = workers.clone();
        std::thread::Builder::new()
            .name("excess-accept".into())
            .spawn(move || accept_loop(listener, db, stop, conns, workers))?
    };
    Ok(ServerHandle {
        addr,
        db,
        stop,
        accept_thread: Some(accept_thread),
        conns,
        workers,
    })
}

fn accept_loop(
    listener: TcpListener,
    db: VersionedDb,
    stop: Arc<AtomicBool>,
    conns: Conns,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let tracked = Tracked::insert(&conns, id, &stream);
        let db = db.clone();
        let stop_conn = stop.clone();
        // A thread that cannot be spawned drops this closure, and with it
        // `tracked`.
        let spawned = std::thread::Builder::new()
            .name("excess-conn".into())
            .spawn(move || {
                let _tracked = tracked;
                let _ = handle_conn(stream, db, stop_conn);
            });
        let mut workers = workers.lock().expect("workers lock");
        workers.retain(|h| !h.is_finished());
        if let Ok(handle) = spawned {
            workers.push(handle);
        }
    }
}

/// A connection's entry in [`Conns`], removed when the guard drops: when
/// the connection's thread returns, and when it unwinds from a panic.
/// The entry is the last handle on the socket, so removing it closes the
/// connection and the client reads end of stream.
struct Tracked {
    conns: Conns,
    id: u64,
}

impl Tracked {
    /// Track a clone of `stream` under `id`, if the socket can be cloned.
    fn insert(conns: &Conns, id: u64, stream: &TcpStream) -> Tracked {
        if let Ok(clone) = stream.try_clone() {
            conns.lock().expect("conns lock").insert(id, clone);
        }
        Tracked {
            conns: conns.clone(),
            id,
        }
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        // Dropped while unwinding, the guard must not panic again; a
        // poisoned map is still whole, since every holder of the lock
        // only inserts, removes or drains.
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.remove(&self.id);
    }
}

/// The longest request line the server reads, newline excluded.  A longer
/// line is answered with an error and skipped, never held whole.
const MAX_LINE_BYTES: u64 = 1 << 20;

/// The next request line without its newline, or why it cannot be one
/// (too long, not UTF-8); `None` at end of stream.
fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Result<String, String>>> {
    let mut buf = Vec::new();
    if reader
        .by_ref()
        .take(MAX_LINE_BYTES + 1)
        .read_until(b'\n', &mut buf)?
        == 0
    {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() as u64 > MAX_LINE_BYTES {
        reader.skip_until(b'\n')?;
        return Ok(Some(Err(format!(
            "request line longer than {MAX_LINE_BYTES} bytes"
        ))));
    }
    Ok(Some(
        String::from_utf8(buf).map_err(|_| "request line is not UTF-8".to_string()),
    ))
}

fn handle_conn(stream: TcpStream, db: VersionedDb, stop: Arc<AtomicBool>) -> io::Result<()> {
    // The protocol is strict request/response; Nagle only adds latency.
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    // One connection = one snapshot session; dropping it at the end of
    // this function merges its metrics into the database-wide registry.
    let mut session = db.begin_session();
    while let Some(request) = read_request(&mut reader)? {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let (mut line, close) = match request {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => {
                let response = respond(&db, &mut session, &line);
                (response.line, response.close)
            }
            Err(reason) => (error_line(&reason), false),
        };
        // One write per response: a line longer than the buffer goes
        // straight to the socket, and a separate newline would follow it
        // as a second segment.
        line.push('\n');
        writer.write_all(line.as_bytes())?;
        writer.flush()?;
        if close {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_connection_thread_closes_its_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        let conns: Conns = Arc::default();
        let tracked = Tracked::insert(&conns, 7, &served);
        assert_eq!(conns.lock().unwrap().len(), 1);
        let handler = std::thread::spawn(move || {
            let _tracked = tracked;
            drop(served);
            panic!("a handler that panics");
        });
        assert!(handler.join().is_err());
        assert!(conns.lock().unwrap().is_empty());
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap(), 0, "end of stream");
    }
}
