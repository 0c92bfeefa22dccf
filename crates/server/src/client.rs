//! A minimal blocking client for the line protocol — what the smoke
//! tests and the `served-retrieve` benchmark speak.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One connection to an EXCESS server: send a request line, read the
/// response line.
pub struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    /// Connect to a server (see
    /// [`ServerHandle::addr`](crate::ServerHandle::addr)).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    /// Send one request line and block for its one-line JSON response
    /// (returned without the trailing newline).  Embedded newlines in
    /// `line` must already be escaped as `\n`; the server unescapes each
    /// line it reads.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }
}
