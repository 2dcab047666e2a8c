//! A minimal `annod` line-protocol client over TCP.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One connection: send lines, read framed replies.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// A reply: the header line and, for listings, the payload lines (the
/// `.` terminator stripped).
#[derive(Debug, Clone)]
pub struct Reply {
    /// `OK …` or `ERR …`.
    pub header: String,
    /// Payload lines of a listing.
    pub body: Vec<String>,
}

impl Reply {
    /// `true` for an `OK` reply.
    pub fn ok(&self) -> bool {
        self.header.starts_with("OK ")
    }

    /// The count a listing header announces (`OK 3 rules` → 3).
    pub fn announced(&self) -> Option<usize> {
        self.header.split_whitespace().nth(1)?.parse().ok()
    }
}

impl Client {
    /// Connect and consume the greeting.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        };
        let greeting = client.read_line()?;
        if !greeting.starts_with("OK annod ready") {
            return Err(io::Error::other(format!(
                "unexpected greeting {greeting:?}"
            )));
        }
        Ok(client)
    }

    /// Send one command line (no reply read).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Read one reply. `listing` says whether an `OK` reply to the
    /// command sent is a `.`-terminated listing (`rules`, `recommend`,
    /// `discover`) or a single line (`ping`); `ERR` is always one line.
    pub fn recv(&mut self, listing: bool) -> io::Result<Reply> {
        let header = self.read_line()?;
        let mut body = Vec::new();
        if listing && header.starts_with("OK ") {
            loop {
                let line = self.read_line()?;
                if line == "." {
                    break;
                }
                body.push(line);
            }
        }
        Ok(Reply { header, body })
    }

    /// Send one command and wait for its reply.
    pub fn call(&mut self, line: &str, listing: bool) -> io::Result<Reply> {
        self.send(line)?;
        self.recv(listing)
    }
}
