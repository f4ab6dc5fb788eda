//! A bounded, closable, two-lane MPMC work queue built on `Mutex` +
//! `Condvar`.
//!
//! The fleet assessor feeds instance-assessment tasks through this queue so
//! that a fleet described by a lazy iterator (e.g. a streamed synthetic
//! population) is never fully materialized: the feeder blocks once
//! `capacity` tasks are in flight and resumes as workers drain them.
//!
//! The queue carries two lanes. [`push`](BoundedQueue::push) enqueues into
//! the *normal* lane; [`push_priority`](BoundedQueue::push_priority) into
//! the *priority* lane, which [`pop`](BoundedQueue::pop) serves first —
//! migration-deadline and drifted-customer work jumps the backlog without
//! jumping the memory bound (both lanes share one capacity). Within each
//! lane order is FIFO, and an anti-starvation valve guarantees the normal
//! lane keeps draining under sustained priority load: after
//! [`FAIRNESS`](BoundedQueue::FAIRNESS) consecutive priority pops with
//! normal work waiting, one normal item is served before the priority lane
//! resumes.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use doppler_obs::{Counter, Gauge, Histogram, ObsRegistry};

/// Write-aside instrumentation for one queue: per-lane depth gauges, wait
/// histograms, and the valve-trip counter. All handles are no-ops when the
/// queue was built with [`BoundedQueue::new`] or a disabled registry, and
/// `enabled` gates the `Instant::now` reads so the no-op mode never touches
/// the clock.
struct QueueObs {
    enabled: bool,
    normal_depth: Gauge,
    priority_depth: Gauge,
    enqueue_wait: Histogram,
    pop_wait: Histogram,
    valve_trips: Counter,
}

impl QueueObs {
    fn disabled() -> QueueObs {
        QueueObs {
            enabled: false,
            normal_depth: Gauge::default(),
            priority_depth: Gauge::default(),
            enqueue_wait: Histogram::default(),
            pop_wait: Histogram::default(),
            valve_trips: Counter::default(),
        }
    }

    fn registered(obs: &ObsRegistry, prefix: &str) -> QueueObs {
        QueueObs {
            enabled: obs.is_enabled(),
            normal_depth: obs.gauge(&format!("{prefix}.depth.normal")),
            priority_depth: obs.gauge(&format!("{prefix}.depth.priority")),
            enqueue_wait: obs.histogram(&format!("{prefix}.enqueue_wait")),
            pop_wait: obs.histogram(&format!("{prefix}.pop_wait")),
            valve_trips: obs.counter(&format!("{prefix}.valve_trips")),
        }
    }
}

struct State<T> {
    priority: VecDeque<T>,
    items: VecDeque<T>,
    closed: bool,
    /// Consecutive pops served from the priority lane while the normal
    /// lane had work waiting — the anti-starvation valve's memory.
    priority_streak: usize,
}

impl<T> State<T> {
    fn len(&self) -> usize {
        self.priority.len() + self.items.len()
    }
}

/// A fixed-capacity two-lane queue: `push`/`push_priority` block while
/// full, `pop` blocks while empty and serves the priority lane first, and
/// `close` wakes everyone so the pipeline can drain and stop.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    obs: QueueObs,
}

impl<T> BoundedQueue<T> {
    /// After this many consecutive priority pops with normal work waiting,
    /// one normal item is served — the deterministic anti-starvation
    /// valve. (7 priority : 1 normal under sustained pressure on both
    /// lanes.)
    pub const FAIRNESS: usize = 7;

    /// A queue admitting at most `capacity` queued items across both lanes
    /// (min 1), with observability disabled.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(State {
                priority: VecDeque::new(),
                items: VecDeque::new(),
                closed: false,
                priority_streak: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            obs: QueueObs::disabled(),
        }
    }

    /// Like [`new`](BoundedQueue::new), but registering per-lane depth
    /// gauges (`{prefix}.depth.normal` / `.priority`), enqueue- and
    /// pop-wait histograms (`{prefix}.enqueue_wait` / `.pop_wait`), and the
    /// anti-starvation valve-trip counter (`{prefix}.valve_trips`) with
    /// `obs`. Instrumentation is write-aside: queue behavior is identical
    /// to an uninstrumented queue, and a disabled registry degrades to
    /// exactly [`new`](BoundedQueue::new).
    pub fn instrumented(capacity: usize, obs: &ObsRegistry, prefix: &str) -> BoundedQueue<T> {
        let mut queue = BoundedQueue::new(capacity);
        queue.obs = QueueObs::registered(obs, prefix);
        queue
    }

    /// Enqueue `item` on the normal lane, blocking while the queue is at
    /// capacity. Returns the item back as `Err` if the queue was closed in
    /// the meantime.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_lane(item, false)
    }

    /// Enqueue `item` on the priority lane: same capacity bound and close
    /// semantics as [`push`](BoundedQueue::push), but workers pop it ahead
    /// of everything already waiting in the normal lane.
    pub fn push_priority(&self, item: T) -> Result<(), T> {
        self.push_lane(item, true)
    }

    fn push_lane(&self, item: T, priority: bool) -> Result<(), T> {
        let entered = self.obs.enabled.then(Instant::now);
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if state.closed {
                return Err(item);
            }
            if state.len() < self.capacity {
                if priority {
                    state.priority.push_back(item);
                    self.obs.priority_depth.add(1);
                } else {
                    state.items.push_back(item);
                    self.obs.normal_depth.add(1);
                }
                if let Some(entered) = entered {
                    self.obs.enqueue_wait.record(entered.elapsed());
                }
                self.not_empty.notify_one();
                return Ok(());
            }
            state = self.not_full.wait(state).expect("queue lock");
        }
    }

    /// One lane-ordered dequeue under an already-held lock: priority lane
    /// first, unless the anti-starvation valve forces a normal item
    /// through. Maintains the streak counter and the per-lane depth
    /// gauges / valve-trip counter; waiting, wait histograms, and
    /// `not_full` wakeups stay with the callers ([`pop`](BoundedQueue::pop)
    /// and [`pop_many`](BoundedQueue::pop_many)) so batch draining can
    /// amortize them.
    fn pop_one_locked(&self, state: &mut State<T>) -> Option<T> {
        let normal_waiting = !state.items.is_empty();
        let valve_open = state.priority_streak >= Self::FAIRNESS && normal_waiting;
        let serve_priority = !state.priority.is_empty() && !valve_open;
        let item =
            if serve_priority { state.priority.pop_front() } else { state.items.pop_front() }?;
        // A priority pop only *starves* anyone while normal work is
        // actually waiting; any normal pop (or an uncontended priority
        // pop) resets the streak.
        state.priority_streak =
            if serve_priority && normal_waiting { state.priority_streak + 1 } else { 0 };
        if serve_priority {
            self.obs.priority_depth.add(-1);
        } else {
            self.obs.normal_depth.add(-1);
            // A normal pop forced through while priority work was
            // waiting is the valve doing its job — count the trip.
            if valve_open && !state.priority.is_empty() {
                self.obs.valve_trips.incr();
            }
        }
        Some(item)
    }

    /// Dequeue one item, blocking while the queue is empty: priority lane
    /// first (modulo the anti-starvation valve), each lane FIFO. Returns
    /// `None` once the queue is closed *and* both lanes have drained — the
    /// worker shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let entered = self.obs.enabled.then(Instant::now);
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = self.pop_one_locked(&mut state) {
                if let Some(entered) = entered {
                    self.obs.pop_wait.record(entered.elapsed());
                }
                self.not_full.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Dequeue up to `max` items (min 1) into `out` in pop order, blocking
    /// only while the queue is *empty* — a batch never waits to fill, it
    /// takes whatever is there, so latency matches [`pop`](BoundedQueue::pop).
    /// Returns the number appended; `0` only once the queue is closed and
    /// drained.
    ///
    /// Each item is chosen by the same lane/valve rules as `pop` and each
    /// records one `pop_wait` observation (span conservation: one span per
    /// item, batched or not), but lock/condvar traffic is amortized:
    /// one lock acquisition and one `not_full` wakeup per batch instead of
    /// per item. Under a deep backlog that cuts the producer/consumer
    /// signalling by the batch factor.
    pub fn pop_many(&self, max: usize, out: &mut Vec<T>) -> usize {
        let entered = self.obs.enabled.then(Instant::now);
        let mut state = self.state.lock().expect("queue lock");
        loop {
            let mut popped = 0;
            while popped < max.max(1) {
                match self.pop_one_locked(&mut state) {
                    Some(item) => {
                        out.push(item);
                        popped += 1;
                    }
                    None => break,
                }
            }
            if popped > 0 {
                if let Some(entered) = entered {
                    let wait = entered.elapsed();
                    for _ in 0..popped {
                        self.obs.pop_wait.record(wait);
                    }
                }
                // One batched wakeup: up to `popped` slots freed at once.
                self.not_full.notify_all();
                return popped;
            }
            if state.closed {
                return 0;
            }
            state = self.not_empty.wait(state).expect("queue lock");
        }
    }

    /// Close the queue: queued items remain poppable, new pushes fail, and
    /// blocked workers wake up to observe the drain.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued across both lanes (racy by nature; for
    /// diagnostics).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](BoundedQueue::close) has been called. Queued items
    /// may still be poppable; new pushes are already rejected.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("queue lock").closed
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(4);
        assert!(!q.is_closed());
        assert_eq!(q.capacity(), 4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_lane_jumps_the_normal_backlog() {
        let q = BoundedQueue::new(8);
        q.push("n1").unwrap();
        q.push("n2").unwrap();
        q.push_priority("p1").unwrap();
        q.push_priority("p2").unwrap();
        q.push("n3").unwrap();
        assert_eq!(q.len(), 5);
        // Priority first (FIFO within the lane), then the normal backlog.
        assert_eq!(q.pop(), Some("p1"));
        assert_eq!(q.pop(), Some("p2"));
        assert_eq!(q.pop(), Some("n1"));
        // Late priority work still jumps what remains.
        q.push_priority("p3").unwrap();
        assert_eq!(q.pop(), Some("p3"));
        assert_eq!(q.pop(), Some("n2"));
        assert_eq!(q.pop(), Some("n3"));
    }

    #[test]
    fn priority_push_respects_close_and_capacity() {
        let q = BoundedQueue::new(2);
        q.push_priority(1).unwrap();
        q.push(2).unwrap();
        // Both lanes share one capacity: a priority push blocks while the
        // queue is full, and resumes after a pop frees a slot.
        std::thread::scope(|scope| {
            scope.spawn(|| q.push_priority(3).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(q.pop(), Some(1));
        });
        // 3 went to the priority lane, 2 is still the normal backlog.
        assert_eq!(q.pop(), Some(3));
        q.close();
        assert_eq!(q.push_priority(4), Err(4));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fairness_valve_serves_normal_under_sustained_priority_load() {
        let q = BoundedQueue::new(64);
        q.push("normal").unwrap();
        for i in 0..BoundedQueue::<&str>::FAIRNESS + 3 {
            q.push_priority(if i == 0 { "first" } else { "later" }).unwrap();
        }
        // FAIRNESS consecutive priority pops, then the valve forces the
        // starving normal item through, then priority resumes.
        for _ in 0..BoundedQueue::<&str>::FAIRNESS {
            assert_ne!(q.pop(), Some("normal"));
        }
        assert_eq!(q.pop(), Some("normal"));
        assert_eq!(q.pop(), Some("later"));
    }

    #[test]
    fn push_blocks_at_capacity_until_a_pop() {
        let q = BoundedQueue::new(1);
        q.push(10).unwrap();
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Blocks until the main thread pops 10.
                q.push(20).unwrap();
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            popped.store(q.pop().unwrap(), Ordering::SeqCst);
            assert_eq!(q.pop(), Some(20));
        });
        assert_eq!(popped.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn pop_many_takes_what_is_there_without_waiting_to_fill() {
        let q = BoundedQueue::new(16);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        // max=8 but only 5 queued: the batch returns immediately with 5.
        assert_eq!(q.pop_many(8, &mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        // max caps a deep backlog.
        for i in 0..5 {
            q.push(10 + i).unwrap();
        }
        out.clear();
        assert_eq!(q.pop_many(3, &mut out), 3);
        assert_eq!(out, vec![10, 11, 12]);
        assert_eq!(q.len(), 2);
        q.close();
        out.clear();
        assert_eq!(q.pop_many(8, &mut out), 2);
        // Closed and drained: the worker shutdown signal.
        assert_eq!(q.pop_many(8, &mut out), 0);
        assert_eq!(out, vec![13, 14]);
    }

    #[test]
    fn pop_many_preserves_lane_order_and_the_fairness_valve() {
        let q = BoundedQueue::new(64);
        q.push("normal").unwrap();
        for _ in 0..BoundedQueue::<&str>::FAIRNESS + 1 {
            q.push_priority("prio").unwrap();
        }
        // One batch spanning the valve trip: FAIRNESS priority items, then
        // the starving normal item, then priority resumes — identical to
        // the same sequence of single pops.
        let mut out = Vec::new();
        assert_eq!(q.pop_many(BoundedQueue::<&str>::FAIRNESS + 2, &mut out), 9);
        let mut expected = vec!["prio"; BoundedQueue::<&str>::FAIRNESS];
        expected.push("normal");
        expected.push("prio");
        assert_eq!(out, expected);
    }

    #[test]
    fn pop_many_blocks_while_empty_then_drains_a_batch() {
        let q = BoundedQueue::new(8);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                for i in 0..3 {
                    q.push(i).unwrap();
                }
                q.close();
            });
            let mut out = Vec::new();
            let mut total = 0;
            loop {
                let n = q.pop_many(8, &mut out);
                if n == 0 {
                    break;
                }
                total += n;
            }
            assert_eq!(total, 3);
            assert_eq!(out, vec![0, 1, 2]);
        });
    }

    #[test]
    fn instrumented_pop_many_records_one_wait_span_per_item() {
        let obs = ObsRegistry::enabled();
        let q = BoundedQueue::instrumented(64, &obs, "q");
        q.push(1).unwrap();
        q.push_priority(2).unwrap();
        q.push(3).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.pop_many(8, &mut out), 3);
        assert_eq!(out, vec![2, 1, 3]);
        let s = obs.snapshot();
        // Span conservation: batching never loses per-item observations,
        // and the depth gauges return to zero.
        assert_eq!(s.histogram("q.pop_wait").unwrap().count, 3);
        assert_eq!(s.gauge("q.depth.normal"), Some(0));
        assert_eq!(s.gauge("q.depth.priority"), Some(0));
    }

    #[test]
    fn instrumented_queue_tracks_depths_and_waits() {
        let obs = ObsRegistry::enabled();
        let q = BoundedQueue::instrumented(64, &obs, "q");
        q.push(1).unwrap();
        q.push_priority(2).unwrap();
        let s = obs.snapshot();
        assert_eq!(s.gauge("q.depth.normal"), Some(1));
        assert_eq!(s.gauge("q.depth.priority"), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        let s = obs.snapshot();
        assert_eq!(s.gauge("q.depth.normal"), Some(0));
        assert_eq!(s.gauge("q.depth.priority"), Some(0));
        assert_eq!(s.histogram("q.enqueue_wait").unwrap().count, 2);
        assert_eq!(s.histogram("q.pop_wait").unwrap().count, 2);
    }

    #[test]
    fn instrumented_queue_counts_valve_trips() {
        let obs = ObsRegistry::enabled();
        let q = BoundedQueue::instrumented(64, &obs, "q");
        q.push("normal").unwrap();
        for _ in 0..BoundedQueue::<&str>::FAIRNESS + 1 {
            q.push_priority("prio").unwrap();
        }
        for _ in 0..BoundedQueue::<&str>::FAIRNESS {
            assert_eq!(q.pop(), Some("prio"));
        }
        // The valve forces the starving normal item through while priority
        // work is still waiting — exactly one trip.
        assert_eq!(q.pop(), Some("normal"));
        assert_eq!(q.pop(), Some("prio"));
        assert_eq!(obs.snapshot().counter("q.valve_trips"), Some(1));
    }

    #[test]
    fn disabled_registry_degrades_to_uninstrumented() {
        let obs = ObsRegistry::disabled();
        let q = BoundedQueue::instrumented(4, &obs, "q");
        q.push(1).unwrap();
        q.push_priority(2).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        let s = obs.snapshot();
        assert!(!s.enabled);
        assert!(s.gauges.is_empty());
        assert!(s.histograms.is_empty());
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q = BoundedQueue::new(8);
        let seen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..4 {
                let q = &q;
                scope.spawn(move || {
                    for i in 0..100 {
                        // Odd producers feed the priority lane so both
                        // lanes see concurrent traffic.
                        if p % 2 == 0 {
                            q.push(p * 100 + i).unwrap();
                        } else {
                            q.push_priority(p * 100 + i).unwrap();
                        }
                    }
                });
            }
            for _ in 0..4 {
                let q = &q;
                let seen = &seen;
                scope.spawn(move || {
                    while q.pop().is_some() {
                        seen.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            scope.spawn(|| {
                // Close once all 400 have been delivered.
                while seen.load(Ordering::SeqCst) < 400 {
                    std::thread::yield_now();
                }
                q.close();
            });
        });
        assert_eq!(seen.load(Ordering::SeqCst), 400);
    }
}
