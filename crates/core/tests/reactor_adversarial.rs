//! Adversarial clients against the readiness-driven serving core: partial
//! frames, slow-loris holds, mid-frame disconnects, and hostile length
//! prefixes. The invariant under test is that a misbehaving peer costs the
//! server one socket registration — never a worker thread, never another
//! connection's latency, never an allocation sized by the attacker.

use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::transport::{Duplex, ServerConfig, TcpServer, TcpTransport};
use diet_core::ConnHandle;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A length-prefixed wire frame for `m`.
fn frame_bytes(m: &Message) -> Vec<u8> {
    let payload = encode_message(m);
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Blocking read of one frame off a raw socket.
fn read_frame(s: &mut TcpStream) -> std::io::Result<Message> {
    let mut hdr = [0u8; 4];
    s.read_exact(&mut hdr)?;
    let mut buf = vec![0u8; u32::from_le_bytes(hdr) as usize];
    s.read_exact(&mut buf)?;
    Ok(decode_message(Bytes::from(buf)).expect("server sent an undecodable frame"))
}

/// Ping-only echo server on the reactor core.
fn spawn_echo(workers: usize) -> TcpServer {
    TcpServer::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            accept_queue: 8,
            faults: None,
            obs: None,
        },
        |handle: &ConnHandle, msg: Message| {
            if matches!(msg, Message::Ping) {
                let _ = handle.send(&Message::Pong);
            }
        },
    )
    .expect("bind echo server")
}

/// Poll `cond` until it holds or the deadline passes.
fn wait_for(what: &str, deadline: Duration, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A frame trickled in one byte at a time must be assembled and answered
/// exactly as if it had arrived whole.
#[test]
fn one_byte_at_a_time_frames_are_assembled() {
    let server = spawn_echo(2);
    let mut s = TcpStream::connect(server.local_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for round in 0..3 {
        for b in frame_bytes(&Message::Ping) {
            s.write_all(&[b]).unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let reply = read_frame(&mut s).unwrap();
        assert!(matches!(reply, Message::Pong), "round {round}: {reply:?}");
    }
    server.stop();
}

/// A peer that sends half a header and stalls forever must not occupy a
/// dispatch worker or delay other connections — with a single worker, a
/// second connection's ping still gets its pong while the loris holds.
#[test]
fn slow_loris_does_not_hold_the_only_worker() {
    let server = spawn_echo(1);
    let mut loris = TcpStream::connect(server.local_addr).unwrap();
    loris.write_all(&[0x08, 0x00]).unwrap(); // 2 of 4 header bytes, then silence
    loris.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));

    let mut live = TcpStream::connect(server.local_addr).unwrap();
    live.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t0 = Instant::now();
    live.write_all(&frame_bytes(&Message::Ping)).unwrap();
    let reply = read_frame(&mut live).unwrap();
    assert!(matches!(reply, Message::Pong), "got {reply:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "pong took {:?} behind a slow-loris hold",
        t0.elapsed()
    );
    drop(loris);
    server.stop();
}

/// Disconnecting mid-frame must sever and prune that registration — the
/// tracked connection count returns to the live set, and service continues.
#[test]
fn mid_frame_disconnect_is_pruned() {
    let server = spawn_echo(2);
    {
        let mut s = TcpStream::connect(server.local_addr).unwrap();
        let frame = frame_bytes(&Message::Ping);
        s.write_all(&frame[..frame.len() - 2]).unwrap();
        s.flush().unwrap();
        wait_for("conn registration", Duration::from_secs(5), || {
            server.tracked_connections() == 1
        });
    } // dropped mid-frame
    wait_for("dead conn prune", Duration::from_secs(5), || {
        server.tracked_connections() == 0
    });

    let t = TcpTransport::connect(server.local_addr).unwrap();
    t.send(&Message::Ping).unwrap();
    assert!(matches!(t.recv().unwrap(), Message::Pong));
    server.stop();
}

/// A hostile length prefix (~4 GiB) must be rejected from the 4-byte header
/// alone — the connection is severed before any attacker-sized allocation,
/// and the server keeps serving everyone else.
#[test]
fn oversized_length_prefix_severs_before_allocation() {
    let server = spawn_echo(2);
    let mut s = TcpStream::connect(server.local_addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&0xFFFF_FFF0u32.to_le_bytes()).unwrap();
    s.flush().unwrap();
    let mut buf = [0u8; 16];
    let severed = match s.read(&mut buf) {
        Ok(0) => true,  // clean FIN
        Ok(_) => false, // server answered a garbage header?!
        Err(_) => true, // reset
    };
    assert!(severed, "oversized header was not rejected");
    wait_for("hostile conn prune", Duration::from_secs(5), || {
        server.tracked_connections() == 0
    });

    let t = TcpTransport::connect(server.local_addr).unwrap();
    t.send(&Message::Ping).unwrap();
    assert!(matches!(t.recv().unwrap(), Message::Pong));
    server.stop();
}
