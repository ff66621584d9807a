//! Direct timings of the wire codec and the mapping layer on messages a
//! traced run captured from its own traffic.

use crate::trace::Captured;
use eum_dns::{decode_message, decode_message_into, encode_message_into, Message, QueryContext};
use eum_mapping::MappingSystem;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Calls per timed pass; passes repeat until this many calls are made.
const CALLS: usize = 200_000;

/// Mean ns per call of `f` over `items`, cycling until [`CALLS`] calls.
fn time_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut n = 0usize;
    while n < CALLS {
        for it in items {
            f(it);
        }
        n += items.len();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// (decode ns, encode ns): `decode_message_into` over the captured
/// queries and replies, and `encode_message_into` over the decoded
/// replies, each into reused scratch like the serve path.
pub fn codec_ns(captured: &[Captured]) -> (f64, f64) {
    let wire: Vec<&[u8]> = captured
        .iter()
        .flat_map(|c| [c.query.as_slice(), c.reply.as_slice()])
        .collect();
    let mut scratch = Message::default();
    let decode = time_per_call(&wire, |b| {
        let _ = black_box(decode_message_into(black_box(b), &mut scratch));
    });
    let replies: Vec<Message> = captured
        .iter()
        .filter_map(|c| decode_message(&c.reply).ok())
        .collect();
    let mut buf = Vec::with_capacity(4096);
    let encode = time_per_call(&replies, |m| {
        encode_message_into(black_box(m), &mut buf);
        black_box(&buf);
    });
    (decode, encode)
}

/// Mean ns of `MappingSystem::answer` over the captured queries the
/// authd cache missed (the ones that reached the mapping layer).
pub fn answer_ns(captured: &[Captured], map: &MappingSystem, default_server: Ipv4Addr) -> f64 {
    let misses: Vec<(Message, Ipv4Addr, QueryContext)> = captured
        .iter()
        .filter(|c| !c.hit)
        .filter_map(|c| {
            decode_message(&c.query).ok().map(|m| {
                (
                    m,
                    c.server_ip.unwrap_or(default_server),
                    QueryContext {
                        resolver_ip: c.resolver_ip,
                        now_ms: 0,
                    },
                )
            })
        })
        .collect();
    time_per_call(&misses, |(m, server, ctx)| {
        black_box(map.answer(*server, black_box(m), ctx));
    })
}
