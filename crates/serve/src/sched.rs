//! Per-model sub-queues scheduled by deficit round-robin (DRR).
//!
//! The first batcher kept one shared queue with priority lanes and
//! coalesced on it with a predicate pop that always chased the model of
//! the *first* job in priority order. Under sustained
//! multi-model traffic that starves every other model: a cold model's job
//! sits behind the entire hot backlog (unboundedly, if the hot traffic
//! rides a higher priority lane), and when it finally surfaces it gets a
//! tiny, uncoalesced batch.
//!
//! [`DrrQueue`] restructures dispatch. Admission routes each item into a
//! **per-model sub-queue** (three strict-priority lanes, FIFO within lane,
//! shared global capacity). Consumers pop whole batches: the scheduler
//! visits active models round-robin, granting each visit a **quantum of
//! estimated MACs** added to the model's carried *deficit*; a model is
//! served while its deficit covers the next item's cost. The guarantee is
//! the classic DRR bound: over any interval in which two models both stay
//! backlogged, their served work differs by at most one quantum plus one
//! maximal item cost — so every registered model gets a bounded share of
//! batcher time under saturation, no matter how deep a hot model's backlog
//! grows. Priority remains strict *within* a model's sub-queue; cross-model
//! isolation is the scheduler's job, not the lanes'.
//!
//! A model handed out by [`DrrQueue::pop_batch_wait`] stays **in
//! service** until the consumer drops the returned [`Lease`]: the
//! scheduler skips it (its rotation slot and deficit are kept) and its
//! new requests pile up in its sub-queue, to become its next batch. So a
//! model is never in two batches at once, and a consumer never waits for
//! a batch to fill — whatever queued while the model ran is dispatched
//! together. Skipping an in-service model does not change the DRR bound:
//! it only delays a model's visit while its previous batch runs.
//!
//! The in-service consumer's top-up ([`DrrQueue::pop_model`]) takes the
//! rest of the model's backlog up to `max_batch` and may overdraw the
//! deficit (it goes negative); the overdraft is carried and repaid out of
//! future quanta, preserving the long-run share. A model's deficit resets
//! when its sub-queue empties (standard DRR — credit cannot be hoarded
//! while idle).
//!
//! Wakeup correctness: pushes and lease releases both use `notify_all`,
//! because any waiting consumer may be the one whose model just became
//! schedulable.
//!
//! Instrumented via the global `appmult-obs` sink (recording sinks only —
//! dynamic metric names are skipped when observability is off):
//! `serve.model.deficit.<model>` (gauge, deficit after each served visit),
//! `serve.model.starved_polls.<model>` (counter, batch pops that passed the
//! model over while it had queued work).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Request priority lane. Higher lanes are always served first; the
/// degradation ladder sheds lower lanes first under sustained overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served first; shed last (only when the queue is effectively full).
    High = 0,
    /// Default lane.
    Normal = 1,
    /// Best-effort traffic; first to be shed under overload.
    Low = 2,
}

impl Priority {
    /// Lane index (0 = highest).
    pub fn lane(self) -> usize {
        self as usize
    }
}

/// Why a push was refused. The item is handed back alongside the reason so
/// no request is ever silently dropped by the queue itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity.
    Full,
    /// [`DrrQueue::close`] has been called.
    Closed,
}

/// One queued item plus its estimated dispatch cost in MACs.
struct Item<T> {
    value: T,
    cost: u64,
}

/// A model's sub-queue: three strict-priority lanes plus the DRR state.
struct Sub<T> {
    lanes: [VecDeque<Item<T>>; 3],
    /// Carried deficit in MACs. Positive: unspent credit from earlier
    /// quanta. Negative: coalescing overdraft still being repaid.
    deficit: i64,
}

impl<T> Sub<T> {
    fn new() -> Self {
        Self {
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            deficit: 0,
        }
    }

    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Cost of the next item in strict lane order, if any.
    fn head_cost(&self) -> Option<u64> {
        self.lanes
            .iter()
            .find_map(|lane| lane.front().map(|i| i.cost))
    }

    /// Pops the next item in strict lane order.
    fn pop(&mut self) -> Option<Item<T>> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

struct Inner<T> {
    subs: HashMap<String, Sub<T>>,
    /// Round-robin visit order over models with queued work.
    active: VecDeque<String>,
    /// Models whose [`Lease`] is outstanding; the scheduler skips them.
    in_service: HashSet<String>,
    len: usize,
    closed: bool,
}

/// A batch handed out by the scheduler, plus the telemetry gathered while
/// the lock was held (emitted by the caller after unlocking).
struct Scheduled<T> {
    model: String,
    items: Vec<T>,
    deficit_after: i64,
    /// Models that had queued work but were not the one served this poll.
    passed_over: Vec<String>,
}

/// The bounded multi-model DRR queue (see the module docs).
pub struct DrrQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
    quantum: u64,
}

impl<T> DrrQueue<T> {
    /// A queue holding at most `capacity` items across every model and
    /// lane, scheduled with a per-visit credit of `quantum` MACs (both
    /// clamped to at least 1).
    pub fn new(capacity: usize, quantum: u64) -> Self {
        Self {
            inner: Mutex::new(Inner {
                subs: HashMap::new(),
                active: VecDeque::new(),
                in_service: HashSet::new(),
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1),
        }
    }

    /// Total capacity across all models and lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items across all models.
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` for `model` on `priority`'s lane, carrying an
    /// estimated dispatch cost of `cost` MACs (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns the item back with [`PushError::Full`] at capacity or
    /// [`PushError::Closed`] after [`close`](Self::close); never blocks.
    pub fn push(
        &self,
        model: &str,
        item: T,
        cost: u64,
        priority: Priority,
    ) -> Result<(), (T, PushError)> {
        let mut inner = self.lock();
        if inner.closed {
            return Err((item, PushError::Closed));
        }
        if inner.len >= self.capacity {
            return Err((item, PushError::Full));
        }
        if !inner.subs.contains_key(model) {
            inner.subs.insert(model.to_string(), Sub::new());
        }
        let was_empty = {
            let sub = inner.subs.get_mut(model).expect("just inserted");
            let was_empty = sub.len() == 0;
            sub.lanes[priority.lane()].push_back(Item {
                value: item,
                cost: cost.max(1),
            });
            was_empty
        };
        if was_empty {
            inner.active.push_back(model.to_string());
        }
        inner.len += 1;
        drop(inner);
        self.not_empty.notify_all();
        Ok(())
    }

    /// Pops the next DRR-scheduled batch: up to `max_batch` items for one
    /// model not already in service, bounded by the model's deficit. The
    /// model stays in service until the returned [`Lease`] drops. Waits up
    /// to `timeout` while nothing is schedulable. Returns `None` on timeout
    /// or when the queue is closed and empty.
    pub fn pop_batch_wait(
        &self,
        timeout: Duration,
        max_batch: usize,
    ) -> Option<(Lease<'_, T>, Vec<T>)> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if let Some(sched) = Self::schedule(&mut inner, self.quantum, max_batch) {
                drop(inner);
                emit_poll_telemetry(&sched);
                let lease = Lease {
                    queue: self,
                    model: sched.model,
                };
                return Some((lease, sched.items));
            }
            if inner.closed && inner.len == 0 {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Top-up for an in-service model: pops up to `max_items` more of its
    /// items (strict lane order, FIFO within lane) without waiting. Their
    /// cost is charged against the model's deficit, which may go negative
    /// (overdraft, repaid from future quanta) so one batch can take the
    /// whole backlog.
    pub fn pop_model(&self, model: &str, max_items: usize) -> Vec<T> {
        let mut inner = self.lock();
        let Some(sub) = inner.subs.get_mut(model) else {
            return Vec::new();
        };
        let mut items = Vec::new();
        while items.len() < max_items {
            let Some(item) = sub.pop() else { break };
            sub.deficit -= item.cost as i64;
            items.push(item.value);
        }
        let drained = sub.len() == 0;
        inner.len -= items.len();
        if drained {
            Self::deactivate(&mut inner, model);
        }
        items
    }

    /// One DRR scheduling decision. Visits active models not in service in
    /// round-robin order; each visit adds `quantum` to the model's deficit
    /// (capped so idle rounds cannot hoard unbounded credit) and serves
    /// while the deficit covers the next item. A model whose head it
    /// cannot yet afford moves to the back with its credit carried — after
    /// at most `head_cost / quantum` visits it is served, so expensive
    /// items delay a model proportionally instead of forever. In-service
    /// models keep their place in the rotation.
    fn schedule(inner: &mut Inner<T>, quantum: u64, max_batch: usize) -> Option<Scheduled<T>> {
        if max_batch == 0 {
            return None;
        }
        let Inner {
            subs,
            active,
            in_service,
            len,
            ..
        } = inner;
        loop {
            let pos = active.iter().position(|m| !in_service.contains(m))?;
            let sub = subs.get_mut(&active[pos]).expect("active model has a sub");
            let head = sub.head_cost().expect("active sub is non-empty");
            sub.deficit = (sub.deficit + quantum as i64).min((2 * quantum).max(head) as i64);
            let mut items = Vec::new();
            while items.len() < max_batch {
                match sub.head_cost() {
                    Some(cost) if (cost as i64) <= sub.deficit => {
                        let item = sub.pop().expect("head exists");
                        sub.deficit -= cost as i64;
                        items.push(item.value);
                    }
                    _ => break,
                }
            }
            let deficit_after = sub.deficit;
            let drained = sub.len() == 0;
            let model = active.remove(pos).expect("position is in range");
            if items.is_empty() {
                // Deficit not yet sufficient for the head item: move to the
                // back and let the credit accumulate across rounds.
                active.push_back(model);
                continue;
            }
            *len -= items.len();
            if drained {
                subs.remove(&model);
            } else {
                active.push_back(model.clone());
            }
            in_service.insert(model.clone());
            let passed_over = active
                .iter()
                .filter(|m| !in_service.contains(*m))
                .cloned()
                .collect();
            return Some(Scheduled {
                model,
                items,
                deficit_after,
                passed_over,
            });
        }
    }

    /// Removes a drained model from the rotation and drops its sub-queue —
    /// which also resets the deficit to zero: DRR credit (and overdraft
    /// forgiveness) only exists while backlogged, and unloaded/transient
    /// model names must not accumulate in the map forever.
    fn deactivate(inner: &mut Inner<T>, model: &str) {
        inner.active.retain(|m| m != model);
        inner.subs.remove(model);
    }

    /// Marks the queue closed: subsequent pushes fail with
    /// [`PushError::Closed`] and blocked consumers wake. Queued items
    /// remain poppable or can be swept with [`drain`](Self::drain).
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Removes and returns every queued item (model order unspecified,
    /// strict lane order FIFO-within-lane per model). Used at shutdown so
    /// every in-flight request still resolves to a typed rejection.
    pub fn drain(&self) -> Vec<T> {
        let mut inner = self.lock();
        let mut out = Vec::with_capacity(inner.len);
        // Drain in the round-robin order for determinism.
        let order: Vec<String> = inner.active.iter().cloned().collect();
        for model in order {
            if let Some(sub) = inner.subs.get_mut(&model) {
                for lane in &mut sub.lanes {
                    out.extend(lane.drain(..).map(|i| i.value));
                }
            }
        }
        inner.subs.clear();
        inner.active.clear();
        inner.len = 0;
        out
    }

    /// Locks the scheduler state, recovering from a poisoned mutex — the
    /// state is never left mid-update across a panic point.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A model held in service by the consumer that popped its batch. While
/// the lease lives, [`DrrQueue::pop_batch_wait`] hands the model to no
/// other consumer; dropping it — also while unwinding — releases the model
/// and wakes waiting consumers.
pub struct Lease<'q, T> {
    queue: &'q DrrQueue<T>,
    model: String,
}

impl<T> Lease<'_, T> {
    /// The model in service.
    pub fn model(&self) -> &str {
        &self.model
    }
}

impl<T> Drop for Lease<'_, T> {
    fn drop(&mut self) {
        self.queue.lock().in_service.remove(&self.model);
        self.queue.not_empty.notify_all();
    }
}

/// Per-poll telemetry, emitted outside the queue lock. Dynamic metric
/// names allocate, so this is skipped entirely on a disabled sink.
fn emit_poll_telemetry<T>(sched: &Scheduled<T>) {
    let obs = appmult_obs::global();
    if !obs.is_enabled() {
        return;
    }
    obs.gauge_set(
        &format!("serve.model.deficit.{}", sched.model),
        sched.deficit_after as f64,
    );
    for starved in &sched.passed_over {
        obs.counter_add(&format!("serve.model.starved_polls.{starved}"), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    const TICK: Duration = Duration::from_millis(5);

    #[test]
    fn single_model_pops_in_strict_lane_fifo_order() {
        let q = DrrQueue::new(16, 64);
        q.push("m", "n1", 1, Priority::Normal).unwrap();
        q.push("m", "l1", 1, Priority::Low).unwrap();
        q.push("m", "h1", 1, Priority::High).unwrap();
        q.push("m", "n2", 1, Priority::Normal).unwrap();
        let (lease, items) = q.pop_batch_wait(TICK, 16).unwrap();
        assert_eq!(lease.model(), "m");
        assert_eq!(items, ["h1", "n1", "n2", "l1"]);
    }

    #[test]
    fn round_robin_alternates_between_backlogged_models() {
        let q = DrrQueue::new(64, 4);
        for i in 0..8 {
            q.push("a", ("a", i), 1, Priority::Normal).unwrap();
            q.push("b", ("b", i), 1, Priority::Normal).unwrap();
        }
        let mut order = Vec::new();
        while let Some((lease, items)) = q.pop_batch_wait(TICK, 4) {
            // The lease drops at the end of each pass, releasing the model.
            order.push((lease.model().to_string(), items.len()));
        }
        // Quantum 4, unit costs: each visit serves exactly 4 items, and the
        // rotation alternates a..b until both drain.
        assert_eq!(
            order,
            [
                ("a".to_string(), 4),
                ("b".to_string(), 4),
                ("a".to_string(), 4),
                ("b".to_string(), 4),
            ]
        );
    }

    #[test]
    fn full_and_closed_hand_items_back() {
        let q = DrrQueue::new(2, 8);
        q.push("a", 1, 1, Priority::Normal).unwrap();
        q.push("b", 2, 1, Priority::Normal).unwrap();
        let (item, err) = q.push("a", 3, 1, Priority::Normal).unwrap_err();
        assert_eq!((item, err), (3, PushError::Full));
        q.close();
        let (item, err) = q.push("a", 4, 1, Priority::Normal).unwrap_err();
        assert_eq!((item, err), (4, PushError::Closed));
        assert_eq!(q.drain().len(), 2);
        assert!(q.pop_batch_wait(TICK, 4).is_none());
    }

    #[test]
    fn expensive_head_waits_proportionally_but_is_served() {
        let q = DrrQueue::new(16, 2);
        // Model "big" has one item costing 5 quanta; "small" a stream of
        // unit items. "big" must be served after a bounded number of polls,
        // not starved.
        q.push("big", 99, 10, Priority::Normal).unwrap();
        for i in 0..12 {
            q.push("small", i, 1, Priority::Normal).unwrap();
        }
        let mut polls_until_big = 0;
        loop {
            let (lease, items) = q.pop_batch_wait(TICK, 2).unwrap();
            if lease.model() == "big" {
                assert_eq!(items.len(), 1);
                break;
            }
            polls_until_big += 1;
            assert!(polls_until_big < 12, "big model starved");
        }
    }

    #[test]
    fn top_up_pop_charges_overdraft_and_preserves_order() {
        let q = DrrQueue::new(32, 2);
        for i in 0..6 {
            q.push("m", i, 1, Priority::Normal).unwrap();
        }
        // Batch pop is deficit-limited to 2 items; the coalescing top-up
        // takes the rest regardless, overdrawing the deficit.
        let (lease, first) = q.pop_batch_wait(TICK, 6).unwrap();
        assert_eq!(first, [0, 1]);
        let more = q.pop_model(lease.model(), 6);
        assert_eq!(more, [2, 3, 4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn blocked_batch_consumer_wakes_on_push() {
        let q = Arc::new(DrrQueue::new(4, 8));
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let (lease, items) = q2.pop_batch_wait(Duration::from_secs(5), 4).expect("woken");
            (lease.model().to_string(), items)
        });
        std::thread::sleep(Duration::from_millis(10));
        q.push("m", 42, 1, Priority::Normal).unwrap();
        let (model, items) = consumer.join().unwrap();
        assert_eq!((model.as_str(), items), ("m", vec![42]));
    }

    #[test]
    fn drained_model_resets_its_deficit() {
        let q = DrrQueue::new(16, 4);
        q.push("m", 0, 1, Priority::Normal).unwrap();
        drop(q.pop_batch_wait(TICK, 1));
        // Sub-queue emptied: the carried credit must not survive idling.
        q.push("m", 1, 3, Priority::Normal).unwrap();
        q.push("other", 2, 1, Priority::Normal).unwrap();
        let (lease, items) = q.pop_batch_wait(TICK, 4).unwrap();
        assert_eq!((lease.model(), items.len()), ("m", 1));
    }

    #[test]
    fn in_service_model_is_skipped_until_released() {
        let q = DrrQueue::new(16, 4);
        q.push("a", "a0", 1, Priority::Normal).unwrap();
        q.push("b", "b0", 1, Priority::Normal).unwrap();
        let (a, _) = q.pop_batch_wait(TICK, 1).unwrap();
        assert_eq!(a.model(), "a");
        // Requests for "a" pile up while it is in service; "b" is served.
        q.push("a", "a1", 1, Priority::Normal).unwrap();
        q.push("a", "a2", 1, Priority::Normal).unwrap();
        let (b, items) = q.pop_batch_wait(TICK, 4).unwrap();
        assert_eq!((b.model(), items), ("b", vec!["b0"]));
        // Both models in service: nothing is schedulable.
        assert!(q.pop_batch_wait(TICK, 4).is_none());
        drop(b);
        assert!(q.pop_batch_wait(TICK, 4).is_none(), "only `a` has work");
        drop(a);
        let (a, items) = q.pop_batch_wait(TICK, 4).unwrap();
        assert_eq!((a.model(), items), ("a", vec!["a1", "a2"]));
    }

    #[test]
    fn release_wakes_a_consumer_waiting_on_an_in_service_model() {
        let q = Arc::new(DrrQueue::new(4, 8));
        q.push("m", 1, 1, Priority::Normal).unwrap();
        let (lease, _) = q.pop_batch_wait(TICK, 4).unwrap();
        q.push("m", 2, 1, Priority::Normal).unwrap();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let (_, items) = q2.pop_batch_wait(Duration::from_secs(5), 4).expect("woken");
            items
        });
        std::thread::sleep(Duration::from_millis(10));
        drop(lease);
        assert_eq!(consumer.join().unwrap(), [2]);
    }

    #[test]
    fn lease_is_released_when_its_holder_unwinds() {
        let q = Arc::new(DrrQueue::new(4, 8));
        q.push("m", 1, 1, Priority::Normal).unwrap();
        q.push("m", 2, 1, Priority::Normal).unwrap();
        let q2 = Arc::clone(&q);
        let holder = std::thread::spawn(move || {
            let _held = q2.pop_batch_wait(TICK, 1).unwrap();
            panic!("worker dies holding the lease");
        });
        assert!(holder.join().is_err());
        let (lease, items) = q.pop_batch_wait(TICK, 4).expect("model released");
        assert_eq!((lease.model(), items), ("m", vec![2]));
    }
}
