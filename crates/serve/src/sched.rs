//! The batcher's queue: one FIFO of jobs in arrival order, plus the set
//! of models in service.
//!
//! A worker takes the oldest job whose model is not in service, together
//! with that model's later queued jobs, up to `max_batch`. So a request
//! waits only behind requests that arrived before it, and a batch holds
//! whatever queued for its model while the model's previous batch ran.
//!
//! A model handed out by [`Queue::pop`] stays **in service** until the
//! consumer drops the returned [`Lease`]; until then no other consumer
//! gets a batch of it. Pushes and lease releases both wake **all**
//! waiting consumers, because any of them may be the one whose model just
//! became schedulable.

use std::collections::{HashSet, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a push was refused. The item is handed back alongside the reason so
/// no request is ever silently dropped by the queue itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The queue is at capacity.
    Full,
    /// [`Queue::close`] has been called.
    Closed,
}

struct Inner<T> {
    /// Queued items with their model, oldest first.
    jobs: VecDeque<(String, T)>,
    /// Models whose [`Lease`] is outstanding.
    in_service: HashSet<String>,
    /// While set, [`Queue::pop`] hands out nothing.
    paused: bool,
    closed: bool,
}

/// The bounded batcher queue (see the module docs).
pub(crate) struct Queue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    /// A queue holding at most `capacity` items (clamped to at least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                in_service: HashSet::new(),
                paused: false,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Current number of queued items.
    pub(crate) fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// Enqueues `item` for `model` at the back; never blocks.
    ///
    /// # Errors
    ///
    /// Returns the item back with [`PushError::Full`] at capacity or
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub(crate) fn push(&self, model: &str, item: T) -> Result<(), (T, PushError)> {
        let mut inner = self.lock();
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.jobs.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        inner.jobs.push_back((model.to_string(), item));
        drop(inner);
        self.ready.notify_all();
        Ok(())
    }

    /// Blocks until a batch is schedulable and takes it: the oldest item
    /// whose model is not in service, plus that model's later items, up to
    /// `max_batch` (at least 1) in arrival order. The model stays in
    /// service until the returned [`Lease`] drops. Returns `None` once the
    /// queue is closed.
    pub(crate) fn pop(&self, max_batch: usize) -> Option<(Lease<'_, T>, Vec<T>)> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return None;
            }
            if let Some(batch) = self.take(&mut inner, max_batch) {
                return Some(batch);
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// One scheduling decision under the lock (see [`pop`](Self::pop)).
    fn take<'q>(
        &'q self,
        inner: &mut Inner<T>,
        max_batch: usize,
    ) -> Option<(Lease<'q, T>, Vec<T>)> {
        if inner.paused {
            return None;
        }
        let Inner {
            jobs, in_service, ..
        } = inner;
        let model = jobs
            .iter()
            .map(|(model, _)| model)
            .find(|model| !in_service.contains(*model))?
            .clone();
        // One pass in arrival order: the model's items join the batch while
        // it has room, every other item goes back in its place.
        let mut batch = Vec::new();
        for _ in 0..jobs.len() {
            let (m, item) = jobs.pop_front().expect("counted");
            if m == model && batch.len() < max_batch.max(1) {
                batch.push(item);
            } else {
                jobs.push_back((m, item));
            }
        }
        in_service.insert(model.clone());
        Some((Lease { queue: self, model }, batch))
    }

    /// Stops (or, with `false`, resumes) handing out batches; pushes still
    /// queue.
    pub(crate) fn set_paused(&self, paused: bool) {
        self.lock().paused = paused;
        self.ready.notify_all();
    }

    /// Marks the queue closed: later pushes fail with
    /// [`PushError::Closed`] and every consumer's [`pop`](Self::pop)
    /// returns `None`. Queued items stay for [`drain`](Self::drain).
    /// Returns whether this call closed it (`false` if already closed).
    pub(crate) fn close(&self) -> bool {
        let was_open = !std::mem::replace(&mut self.lock().closed, true);
        self.ready.notify_all();
        was_open
    }

    /// Removes and returns every queued item, oldest first. Used at
    /// shutdown so every queued request still resolves to a typed
    /// rejection.
    pub(crate) fn drain(&self) -> Vec<T> {
        self.lock().jobs.drain(..).map(|(_, item)| item).collect()
    }

    /// Locks the queue state, recovering from a poisoned mutex — the state
    /// is never left mid-update across a panic point.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A model held in service by the consumer that popped its batch. While
/// the lease lives, [`Queue::pop`] hands the model to no other consumer;
/// dropping it — also while unwinding — releases the model and wakes
/// waiting consumers.
pub(crate) struct Lease<'q, T> {
    queue: &'q Queue<T>,
    model: String,
}

impl<T> Lease<'_, T> {
    /// The model in service.
    pub(crate) fn model(&self) -> &str {
        &self.model
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        self.queue.lock().in_service.remove(&self.model);
        self.queue.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    impl<T> Queue<T> {
        /// [`pop`](Queue::pop) without waiting: `None` when nothing is
        /// schedulable right now.
        fn try_pop(&self, max_batch: usize) -> Option<(Lease<'_, T>, Vec<T>)> {
            self.take(&mut self.lock(), max_batch)
        }
    }

    /// Batches come out in the order of each model's oldest queued job:
    /// `a3` arrived after `b1`, so `b` is served before `a` again.
    #[test]
    fn batches_follow_each_models_oldest_job() {
        let q = Queue::new(16);
        q.push("a", "a1").unwrap();
        q.push("b", "b1").unwrap();
        q.push("a", "a2").unwrap();
        let (lease, items) = q.try_pop(4).unwrap();
        assert_eq!((lease.model(), items), ("a", vec!["a1", "a2"]));
        drop(lease);
        q.push("a", "a3").unwrap();
        q.push("b", "b2").unwrap();
        let (lease, items) = q.try_pop(4).unwrap();
        assert_eq!((lease.model(), items), ("b", vec!["b1", "b2"]));
        drop(lease);
        let (lease, items) = q.try_pop(4).unwrap();
        assert_eq!((lease.model(), items), ("a", vec!["a3"]));
    }

    #[test]
    fn full_and_closed_hand_items_back() {
        let q = Queue::new(2);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        let (item, err) = q.push("a", 3).unwrap_err();
        assert_eq!((item, err), (3, PushError::Full));
        assert!(q.close());
        assert!(!q.close(), "already closed");
        let (item, err) = q.push("a", 4).unwrap_err();
        assert_eq!((item, err), (4, PushError::Closed));
        assert_eq!(q.drain(), [1, 2]);
        assert!(q.pop(4).is_none());
    }

    #[test]
    fn blocked_batch_consumer_wakes_on_push() {
        let q = Arc::new(Queue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let (lease, items) = q2.pop(4).expect("woken");
            (lease.model().to_string(), items)
        });
        std::thread::sleep(Duration::from_millis(10));
        q.push("m", 42).unwrap();
        let (model, items) = consumer.join().unwrap();
        assert_eq!((model.as_str(), items), ("m", vec![42]));
    }

    #[test]
    fn in_service_model_is_skipped_until_released() {
        let q = Queue::new(16);
        q.push("a", "a0").unwrap();
        q.push("b", "b0").unwrap();
        let (a, _) = q.try_pop(1).unwrap();
        assert_eq!(a.model(), "a");
        // Requests for "a" pile up while it is in service; "b" is served.
        q.push("a", "a1").unwrap();
        q.push("a", "a2").unwrap();
        let (b, items) = q.try_pop(4).unwrap();
        assert_eq!((b.model(), items), ("b", vec!["b0"]));
        // Both models in service: nothing is schedulable.
        assert!(q.try_pop(4).is_none());
        drop(b);
        assert!(q.try_pop(4).is_none(), "only `a` has work");
        drop(a);
        let (a, items) = q.try_pop(4).unwrap();
        assert_eq!((a.model(), items), ("a", vec!["a1", "a2"]));
    }

    #[test]
    fn release_wakes_a_consumer_waiting_on_an_in_service_model() {
        let q = Arc::new(Queue::new(4));
        q.push("m", 1).unwrap();
        let (lease, _) = q.try_pop(4).unwrap();
        q.push("m", 2).unwrap();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let (_, items) = q2.pop(4).expect("woken");
            items
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(lease);
        assert_eq!(consumer.join().unwrap(), [2]);
    }

    #[test]
    fn lease_is_released_when_its_holder_unwinds() {
        let q = Arc::new(Queue::new(4));
        q.push("m", 1).unwrap();
        q.push("m", 2).unwrap();
        let q2 = Arc::clone(&q);
        let holder = std::thread::spawn(move || {
            let _held = q2.try_pop(1).unwrap();
            panic!("worker dies holding the lease");
        });
        assert!(holder.join().is_err());
        let (lease, items) = q.try_pop(4).expect("model released");
        assert_eq!((lease.model(), items), ("m", vec![2]));
    }
}
