//! The open-loop generator times requests from their due time and reports
//! its own lateness, checked against stub transports.

use dve_perfbench::openloop::{self, ReplySource, RequestSink};
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread;
use std::time::Duration;

/// Hands requests to a stub server; optionally stalls on one send.
struct StubSink {
    tx: Sender<usize>,
    stall_on: Option<(usize, Duration)>,
}

impl RequestSink for StubSink {
    fn send(&mut self, id: usize) -> io::Result<()> {
        if let Some((at, d)) = self.stall_on {
            if at == id {
                thread::sleep(d);
            }
        }
        self.tx
            .send(id)
            .map_err(|_| io::Error::other("stub server gone"))
    }
}

struct StubSource(Receiver<usize>);

impl ReplySource for StubSource {
    fn recv(&mut self) -> io::Result<usize> {
        self.0
            .recv()
            .map_err(|_| io::Error::other("stub server gone"))
    }
}

/// A serial server that takes `service` per request.
fn stub_server(service: Duration) -> (Sender<usize>, StubSource, thread::JoinHandle<()>) {
    let (req_tx, req_rx) = channel::<usize>();
    let (rsp_tx, rsp_rx) = channel::<usize>();
    let server = thread::spawn(move || {
        for id in req_rx {
            thread::sleep(service);
            if rsp_tx.send(id).is_err() {
                return;
            }
        }
    });
    (req_tx, StubSource(rsp_rx), server)
}

#[test]
fn queueing_behind_a_slow_server_counts_from_the_due_time() {
    // 20 requests every 2 ms into a server taking 6 ms each: request i is
    // answered no earlier than (i + 1) * 6 ms, so its latency from the due
    // time is at least (i + 1) * 6 - i * 2 ms, although the generator
    // itself sent every request on time.
    let (tx, source, server) = stub_server(Duration::from_millis(6));
    let mut sink = StubSink { tx, stall_on: None };
    let dues = openloop::schedule(500.0, 20);
    let (timings, _) = openloop::run(&dues, &mut sink, source).unwrap();
    drop(sink);
    server.join().unwrap();
    for (i, t) in timings.iter().enumerate() {
        let floor = Duration::from_millis(6 * (i as u64 + 1) - 2 * i as u64);
        assert!(
            t.latency() >= floor,
            "request {i}: {:?} < {floor:?}",
            t.latency()
        );
        assert_eq!(t.latency(), t.done - t.due);
        assert!(t.sent >= t.due);
    }
    let late = timings.iter().map(|t| t.lateness()).max().unwrap();
    assert!(
        late < Duration::from_millis(5),
        "generator kept its schedule: {late:?}"
    );
}

#[test]
fn a_stalled_generator_reports_lateness_and_charges_it_to_latency() {
    // Sending request 2 stalls the generator for 30 ms; requests 3.. were
    // due every 1 ms meanwhile, so they go out late, and their latency
    // (from the due time) includes that lateness.
    let (tx, source, server) = stub_server(Duration::ZERO);
    let mut sink = StubSink {
        tx,
        stall_on: Some((2, Duration::from_millis(30))),
    };
    let dues = openloop::schedule(1_000.0, 12);
    let (timings, _) = openloop::run(&dues, &mut sink, source).unwrap();
    drop(sink);
    server.join().unwrap();
    for (i, t) in timings.iter().enumerate().skip(3) {
        let due_ms = i as u64;
        let expect_late = Duration::from_millis((2 + 30u64).saturating_sub(due_ms));
        assert!(
            t.lateness() + Duration::from_millis(1) >= expect_late,
            "request {i}"
        );
        assert!(
            t.latency() >= t.lateness(),
            "request {i}: latency excludes lateness"
        );
    }
    assert!(timings[0].lateness() < Duration::from_millis(5));
}

#[test]
fn unknown_or_missing_answers_fail_the_run() {
    struct Bogus;
    impl ReplySource for Bogus {
        fn recv(&mut self) -> io::Result<usize> {
            Ok(99)
        }
    }
    struct Null;
    impl RequestSink for Null {
        fn send(&mut self, _: usize) -> io::Result<()> {
            Ok(())
        }
    }
    let dues = openloop::schedule(10_000.0, 3);
    assert!(openloop::run(&dues, &mut Null, Bogus).is_err());
}
