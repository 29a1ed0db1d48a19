//! An open-loop request generator: requests go out on a fixed schedule
//! whether or not earlier ones have been answered, so a stalled server
//! sees its queue grow instead of a politely waiting client.
//!
//! Each request is timed from when it was *due*, not from when the
//! generator managed to send it: a stall that delays sending is charged to
//! the requests it delayed. How late the generator ran is reported apart.
//! Uses two threads: the caller's, which sends, and one that receives.

use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// Sends request `id` (the generator calls this at or after its due time).
pub trait RequestSink {
    /// Sends one request.
    fn send(&mut self, id: usize) -> io::Result<()>;
}

/// Yields the id of each answered request, in answer order.
pub trait ReplySource: Send {
    /// Blocks for the next answer.
    fn recv(&mut self) -> io::Result<usize>;
}

/// One request's timeline, as offsets from the schedule's start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When the generator sent it.
    pub sent: Duration,
    /// When its answer arrived.
    pub done: Duration,
}

impl Timing {
    /// Latency the user sees: answer time minus due time.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Due times of `n` requests at `rate` per second, evenly spaced from 0.
pub fn schedule(rate: f64, n: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "rate must be positive");
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Sends request `i` at `dues[i]` (offsets from now) through `sink` and
/// collects every answer from `source`, which is handed back at the end.
/// Fails if a send or receive fails, an answer names an unknown or already
/// answered request, or a request is never answered.
pub fn run<S: ReplySource>(
    dues: &[Duration],
    sink: &mut impl RequestSink,
    source: S,
) -> io::Result<(Vec<Timing>, S)> {
    let n = dues.len();
    let start = Instant::now();
    let mut sent = vec![Duration::ZERO; n];
    let (done, source) = thread::scope(|s| {
        let receiver = s.spawn(move || -> io::Result<(Vec<Option<Duration>>, S)> {
            let mut source = source;
            let mut done = vec![None; n];
            for _ in 0..n {
                let id = source.recv()?;
                let slot = done.get_mut(id).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("unknown request {id}"))
                })?;
                if slot.is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("request {id} answered twice"),
                    ));
                }
                *slot = Some(start.elapsed());
            }
            Ok((done, source))
        });
        for (id, due) in dues.iter().enumerate() {
            let now = start.elapsed();
            if *due > now {
                thread::sleep(*due - now);
            }
            sent[id] = start.elapsed();
            sink.send(id)?;
        }
        receiver.join().expect("open-loop receiver panicked")
    })?;
    let timings = dues
        .iter()
        .zip(sent)
        .zip(done)
        .map(|((&due, sent), done)| {
            let done = done.ok_or_else(|| io::Error::other("request never answered"))?;
            Ok(Timing { due, sent, done })
        })
        .collect::<io::Result<Vec<Timing>>>()?;
    Ok((timings, source))
}
