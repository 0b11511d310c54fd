//! Std-only synchronization primitives for the workspace.
//!
//! The workspace used to pull in `parking_lot` (locks without poisoning) and
//! `crossbeam` (MPMC channels). Both are replaced here so the build is
//! hermetic; this module is the single place the substitutions live.
//!
//! **Poisoning convention.** `std::sync` locks poison when a holder panics.
//! Every guarded value in this workspace is either a monotonic stat counter,
//! an append-only log, or a keyed store whose entries are re-derivable from
//! RDD lineage — none can be left half-updated in a way later readers would
//! misinterpret. We therefore
//! *recover* from poisoning (`PoisonError::into_inner`) instead of
//! propagating it: a worker panic still fails its stage through the task
//! protocol (and test harnesses still fail through joins), but unrelated
//! threads touching the same lock do not cascade. [`Mutex`] and [`RwLock`]
//! encode that convention so call sites read exactly like `parking_lot`'s.
//!
//! **Channels.** [`channel`] is an unbounded MPMC channel (both ends
//! cloneable and `Sync`), matching how the transport mesh and the executor
//! work queues used `crossbeam::channel::unbounded`: multiple worker threads
//! compete to `recv` from one queue, and mesh streams are receivable from
//! any thread. `std::sync::mpsc` is single-consumer, so the queue is built
//! directly on `Mutex<VecDeque>` + `Condvar`.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// A mutex whose `lock()` recovers from poisoning (see module docs).
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value` in a new mutex.
    pub fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Acquires the lock, recovering the inner value if a previous holder
    /// panicked.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Consumes the mutex and returns the inner value, recovering it if a
    /// previous holder panicked.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose guards recover from poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wraps `value` in a new lock.
    pub fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Acquires a shared read guard, recovering from poisoning.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the exclusive write guard, recovering from poisoning.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The sending half of a channel closed; carries the unsent message.
#[derive(PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Manual impl without a `T: Debug` bound so `send(...).unwrap()` works for
// non-Debug payloads (e.g. boxed task closures).
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// All senders disconnected and the queue is drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Outcome of a bounded-time receive.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with the queue still empty.
    Timeout,
    /// All senders disconnected and the queue is drained.
    Disconnected,
}

struct ChanState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Chan<T> {
    state: Mutex<ChanState<T>>,
    ready: Condvar,
}

/// Creates an unbounded MPMC channel. Both halves are cloneable; `recv`
/// fails once every [`Sender`] is dropped and the queue is empty, `send`
/// fails once every [`Receiver`] is dropped.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        state: Mutex::new(ChanState { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        ready: Condvar::new(),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

/// The sending half of [`channel`]; clone freely.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Enqueues `value`; never blocks.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut s = self.chan.state.lock();
        if s.receivers == 0 {
            return Err(SendError(value));
        }
        s.queue.push_back(value);
        drop(s);
        self.chan.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().senders += 1;
        Self { chan: self.chan.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.chan.state.lock();
        s.senders -= 1;
        if s.senders == 0 {
            drop(s);
            // Wake every blocked receiver so they observe the disconnect.
            self.chan.ready.notify_all();
        }
    }
}

/// The receiving half of [`channel`]; clone freely.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or all senders disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut s = self.chan.state.lock();
        loop {
            if let Some(v) = s.queue.pop_front() {
                return Ok(v);
            }
            if s.senders == 0 {
                return Err(RecvError);
            }
            s = self.chan.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pops a queued message without blocking; `None` if the queue is empty
    /// (regardless of whether senders remain).
    pub fn try_recv(&self) -> Option<T> {
        self.chan.state.lock().queue.pop_front()
    }

    /// Like [`Receiver::recv`] with an upper bound on the wait.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut s = self.chan.state.lock();
        loop {
            if let Some(v) = s.queue.pop_front() {
                return Ok(v);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, _timed_out) = self
                .chan
                .ready
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.chan.state.lock().receivers += 1;
        Self { chan: self.chan.clone() }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.chan.state.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_is_fifo() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_fails_after_last_sender_drops_and_queue_drains() {
        let (tx, rx) = channel();
        tx.send(1u8).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_last_receiver_drops() {
        let (tx, rx) = channel();
        drop(rx);
        assert_eq!(tx.send(42u8), Err(SendError(42)));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = channel();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_never_blocks() {
        let (tx, rx) = channel();
        assert_eq!(rx.try_recv(), None);
        tx.send(3u8).unwrap();
        assert_eq!(rx.try_recv(), Some(3));
        drop(tx);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn cloned_receivers_compete_without_losing_messages() {
        let (tx, rx) = channel();
        let n_workers = 4;
        let per = 250;
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..n_workers * per {
            tx.send(i).unwrap();
        }
        drop(tx);
        drop(rx);
        let mut all: Vec<usize> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..n_workers * per).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_recv_wakes_on_send_from_other_thread() {
        let (tx, rx) = channel();
        let t = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(10));
        tx.send(99u32).unwrap();
        assert_eq!(t.join().unwrap(), 99);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot-style behaviour: the lock stays usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2, 3]);
        assert_eq!(l.read().len(), 3);
        l.write().push(4);
        assert_eq!(l.read().len(), 4);
    }
}
