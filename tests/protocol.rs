//! Malformed request lines on a live connection: each gets a JSON error
//! and the connection keeps answering.  A `.close` really closes: the
//! client reads end of stream, and the server keeps no handle on the
//! socket.

use excess_bench::server_mix::server_mix_db;
use excess_core::json::{parse_json, JsonValue};
use excess_db::VersionedDb;
use excess_server::serve;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const QUERY: &str = "retrieve (S1.sname) where S1.sdept = 3";

/// Send each line on one connection; return the response lines.
fn exchange(lines: &[&[u8]]) -> Vec<String> {
    let vdb = VersionedDb::new(server_mix_db(20));
    let handle = serve(vdb, "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // A server that stops answering fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let responses = lines
        .iter()
        .map(|line| {
            stream.write_all(line).expect("send");
            stream.write_all(b"\n").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("read");
            response
        })
        .collect();
    handle.shutdown().shutdown();
    responses
}

/// Send `bad` as one line, then `QUERY` on the same connection; return
/// both response lines.
fn bad_line_then_query(bad: &[u8]) -> (String, String) {
    let [first, second]: [String; 2] = exchange(&[bad, QUERY.as_bytes()])
        .try_into()
        .expect("two responses");
    (first, second)
}

fn ok(response: &str) -> Option<bool> {
    parse_json(response).ok()?.get("ok")?.as_bool()
}

fn error(response: &str) -> String {
    let v = parse_json(response).unwrap_or_else(|e| panic!("{e}: {response:?}"));
    assert_eq!(v.get("ok").and_then(|v| v.as_bool()), Some(false));
    v.get("error")
        .and_then(|e| e.as_str())
        .expect("error text")
        .to_string()
}

#[test]
fn an_oversized_line_is_refused_and_the_connection_stays_open() {
    // A valid query padded past the limit: read whole, it would run.
    let mut bad = QUERY.as_bytes().to_vec();
    bad.resize(bad.len() + (1 << 20), b' ');
    let (first, second) = bad_line_then_query(&bad);
    assert!(error(&first).contains("longer than"), "{first}");
    assert_eq!(ok(&second), Some(true), "{second}");
}

#[test]
fn a_non_utf8_line_is_refused_and_the_connection_stays_open() {
    let (first, second) = bad_line_then_query(b"retrieve (S1.\xff\xfe)");
    assert!(error(&first).contains("UTF-8"), "{first}");
    assert_eq!(ok(&second), Some(true), "{second}");
}

#[test]
fn a_commit_answers_with_canonical_values_not_oids() {
    let responses = exchange(&[
        b".commit retrieve unique (S2.dept)",
        b"retrieve unique (S2.dept)",
    ]);
    let committed = &responses[0];
    assert_eq!(ok(committed), Some(true), "{committed}");
    assert!(
        committed.contains(r#""@obj":"#) && committed.contains(r#""@val":"#),
        "{committed}"
    );
    assert!(
        !committed.contains(r#""ref""#),
        "an OID crossed the wire: {committed}"
    );
    // The same rows read back through a query serialize the same way.
    let value = |line: &str| parse_json(line).expect("valid JSON").get("value").cloned();
    assert_eq!(value(committed), value(&responses[1]));
}

/// Every command `.help` lists answers `"ok":true` over a live
/// connection after a `range of` line, `.close` last; before them, a
/// malformed argument answers `"ok":false` and the connection keeps
/// answering.
#[test]
fn every_listed_command_answers_over_the_wire() {
    const RETRIEVE: &str = "retrieve (S.sname) where S.sdept = 3";
    let help = parse_json(&exchange(&[b".help"])[0]).expect("valid JSON");
    let mut commands: Vec<String> = help
        .get("help")
        .and_then(JsonValue::as_arr)
        .expect("a help array")
        .iter()
        .map(|c| {
            let name = c.get("command").and_then(JsonValue::as_str).expect("name");
            match c.get("args").and_then(JsonValue::as_str).expect("args") {
                "<retrieve>" => format!("{name} {RETRIEVE}"),
                "<program>" => format!("{name} range of C is S1"),
                _ => name.to_string(),
            }
        })
        .collect();
    assert!(commands.len() >= 18, "{commands:?}");
    let close = commands
        .iter()
        .position(|c| c == ".close")
        .expect(".close is listed");
    let close = commands.remove(close);
    commands.push(close);

    let malformed = [".plan append to S1 ((sname: \"x\"))", ".plan", ".spans"];
    let mut lines: Vec<String> = vec!["range of S is S1".into(), RETRIEVE.into()];
    lines.extend(malformed.iter().map(|m| m.to_string()));
    lines.extend(commands.iter().cloned());
    let bytes: Vec<&[u8]> = lines.iter().map(|l| l.as_bytes()).collect();
    let responses = exchange(&bytes);
    for (line, response) in lines.iter().zip(&responses) {
        let expected = !malformed.contains(&line.as_str());
        assert_eq!(ok(response), Some(expected), "{line}: {response}");
    }
    assert!(responses.last().unwrap().contains("\"closing\":true"));
}

/// Send `.close` on a new connection; return the acknowledgement and the
/// length of the next read, which is 0 at end of stream.
fn close_cycle(addr: SocketAddr) -> (String, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream.write_all(b".close\n").expect("send");
    let mut reader = BufReader::new(stream);
    let mut ack = String::new();
    reader
        .read_line(&mut ack)
        .expect("read the acknowledgement");
    let mut rest = String::new();
    let n = reader
        .read_line(&mut rest)
        .expect("end of stream after .close, not a timeout");
    (ack, n)
}

#[test]
fn a_closed_connection_reads_end_of_stream() {
    let handle = serve(VersionedDb::new(server_mix_db(20)), "127.0.0.1:0").expect("bind");
    let (ack, rest) = close_cycle(handle.addr());
    assert_eq!(ack.trim_end(), r#"{"ok":true,"closing":true}"#);
    assert_eq!(rest, 0);
    handle.shutdown().shutdown();
}

/// The other tests of this file run beside this one, so the descriptor
/// count may move by a few of theirs, never by one per connection.
#[cfg(target_os = "linux")]
#[test]
fn closed_connections_release_their_descriptors() {
    let open_fds = || {
        std::fs::read_dir("/proc/self/fd")
            .expect("fd table")
            .count()
    };
    let handle = serve(VersionedDb::new(server_mix_db(20)), "127.0.0.1:0").expect("bind");
    let before = open_fds();
    for _ in 0..200 {
        assert_eq!(close_cycle(handle.addr()).1, 0);
    }
    let after = open_fds();
    assert!(after <= before + 32, "{before} → {after} open descriptors");
    handle.shutdown().shutdown();
}
