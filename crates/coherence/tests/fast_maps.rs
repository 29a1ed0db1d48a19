//! The directories keep their entries in `dve_sim::hash` maps. On a
//! recorded access stream they must answer exactly as std-hashed maps
//! holding the same updates do.

use dve_coherence::home_dir::{HomeDirectory, HomeEntry};
use dve_coherence::replica_dir::{ReplicaDirectory, ReplicaPolicy, ReplicaState};
use dve_coherence::types::{CacheState, LineAddr};
use dve_workloads::op::{MemReq, Op};
use dve_workloads::{catalog, TraceGenerator};
use std::collections::HashMap;

/// The first `n` memory ops of a 16-core backprop trace, cores served
/// round-robin: `(core, line, req)`.
fn recorded_stream(n: usize) -> Vec<(usize, LineAddr, MemReq)> {
    let p = catalog()
        .into_iter()
        .find(|p| p.name == "backprop")
        .unwrap();
    let mut gen = TraceGenerator::new(&p, 16, 7);
    let mut out = Vec::with_capacity(n);
    for core in (0..16).cycle() {
        if out.len() == n {
            break;
        }
        if let Op::Mem { line, req } = gen.next_op(core) {
            out.push((core, line, req));
        }
    }
    out
}

#[test]
fn home_directory_matches_a_std_map() {
    let mut dir = HomeDirectory::new(0);
    let mut shadow: HashMap<LineAddr, HomeEntry> = HashMap::new();
    for (i, (core, line, req)) in recorded_stream(50_000).into_iter().enumerate() {
        let seen = shadow.get(&line).copied().unwrap_or_default();
        assert_eq!(dir.entry(line), seen, "op {i} line {line:#x}");
        let socket = core / 8;
        if i % 11 == 0 {
            dir.remove(line);
            shadow.remove(&line);
            continue;
        }
        let next = match req {
            MemReq::Write => HomeEntry {
                state: CacheState::M,
                owner: Some(socket),
                sharers: 1 << socket,
                replica_shared: false,
            },
            MemReq::Read => HomeEntry {
                state: if seen.state == CacheState::I {
                    CacheState::S
                } else {
                    seen.state
                },
                sharers: seen.sharers | 1 << socket,
                ..seen
            },
        };
        *dir.entry_mut(line) = next;
        shadow.insert(line, next);
    }
    assert_eq!(dir.len(), shadow.len());
    let mut fast: Vec<(LineAddr, HomeEntry)> = dir.iter_entries().map(|(&l, &e)| (l, e)).collect();
    fast.sort_unstable_by_key(|&(l, _)| l);
    let mut reference: Vec<(LineAddr, HomeEntry)> = shadow.into_iter().collect();
    reference.sort_unstable_by_key(|&(l, _)| l);
    assert_eq!(fast, reference);
}

#[test]
fn replica_directory_matches_a_std_map() {
    // A small capacity keeps the eviction path busy.
    let mut dir = ReplicaDirectory::new(ReplicaPolicy::Deny, Some(256), 1);
    let mut shadow: HashMap<LineAddr, ReplicaState> = HashMap::new();
    let mut evictions = 0;
    for (i, (_, line, req)) in recorded_stream(50_000).into_iter().enumerate() {
        assert_eq!(dir.peek(line), shadow.get(&line).copied(), "op {i}");
        if i % 13 == 0 {
            assert_eq!(dir.remove(line), shadow.remove(&line), "op {i}");
            continue;
        }
        match req {
            MemReq::Read => assert_eq!(dir.lookup(line), shadow.get(&line).copied()),
            MemReq::Write => {
                let state = if i % 2 == 0 {
                    ReplicaState::Rm
                } else {
                    ReplicaState::M
                };
                if let Some(ev) = dir.install(line, state) {
                    assert_eq!(shadow.remove(&ev.region), Some(ev.state), "op {i}");
                    evictions += 1;
                }
                shadow.insert(line, state);
            }
        }
        assert_eq!(dir.len(), shadow.len(), "op {i}");
    }
    assert!(evictions > 0, "the stream must exercise eviction");
    assert_eq!(dir.stats().evictions, evictions);
}
