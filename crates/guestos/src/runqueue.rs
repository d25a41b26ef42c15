//! Per-vCPU CFS runqueues.
//!
//! A red-black-tree-equivalent ordered set keyed by `(vruntime, TaskId)`.
//! The queue holds *waiting* tasks only; the current task is tracked by the
//! kernel separately (as in Linux, where `curr` is dequeued from the tree).

use crate::task::TaskId;
use std::collections::BTreeSet;

/// A CFS runqueue for one vCPU.
#[derive(Debug, Clone, Default)]
pub struct CfsRq {
    tree: BTreeSet<(u64, TaskId)>,
    /// Cached leftmost `(vruntime, task)` — Linux's `rb_leftmost`. Pick-next
    /// peeks the queue on every context switch; the cache makes that O(1)
    /// instead of a tree descent, and is refreshed only when the leftmost
    /// entry itself is removed.
    leftmost: Option<(u64, TaskId)>,
    /// Monotonic floor of vruntime on this queue; new arrivals are placed
    /// relative to it.
    pub min_vruntime: u64,
    /// Sum of weights of queued tasks (excluding current).
    pub weight_sum: u64,
    /// Sum of PELT load of queued tasks, maintained approximately (refreshed
    /// by the balancer).
    pub load_sum: f64,
    /// Number of queued `SCHED_IDLE` tasks.
    pub nr_idle: usize,
    /// Number of queued normal tasks.
    pub nr_normal: usize,
}

impl CfsRq {
    /// Creates an empty runqueue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of waiting tasks.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// Whether no tasks are waiting.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Whether only `SCHED_IDLE` tasks are waiting (and at least one is).
    pub fn only_idle_policy(&self) -> bool {
        self.nr_normal == 0 && self.nr_idle > 0
    }

    /// Inserts a task with its (already adjusted) vruntime.
    pub fn enqueue(&mut self, task: TaskId, vruntime: u64, weight: u64, is_idle: bool, load: f64) {
        let inserted = self.tree.insert((vruntime, task));
        debug_assert!(inserted, "task {task:?} double-enqueued");
        if self.leftmost.is_none_or(|lm| (vruntime, task) < lm) {
            self.leftmost = Some((vruntime, task));
        }
        self.weight_sum += weight;
        self.load_sum += load;
        if is_idle {
            self.nr_idle += 1;
        } else {
            self.nr_normal += 1;
        }
    }

    /// Removes a specific task; returns whether it was present.
    pub fn dequeue(
        &mut self,
        task: TaskId,
        vruntime: u64,
        weight: u64,
        is_idle: bool,
        load: f64,
    ) -> bool {
        let removed = self.tree.remove(&(vruntime, task));
        if removed {
            if self.leftmost == Some((vruntime, task)) {
                self.leftmost = self.tree.first().copied();
            }
            self.weight_sum = self.weight_sum.saturating_sub(weight);
            // Enqueue/dequeue pair up add/sub of the same PELT load, but the
            // float sums accumulate rounding drift over long runs; clamp the
            // residue at zero so consumers never see a negative queue load.
            let next = self.load_sum - load;
            debug_assert!(
                next > -1.0,
                "load_sum drifted far negative: {} - {load}",
                self.load_sum
            );
            self.load_sum = next.max(0.0);
            if is_idle {
                self.nr_idle -= 1;
            } else {
                self.nr_normal -= 1;
            }
        }
        removed
    }

    /// The task with the smallest vruntime, without removing it.
    pub fn peek(&self) -> Option<TaskId> {
        self.leftmost.map(|(_, t)| t)
    }

    /// The smallest queued vruntime.
    pub fn min_queued_vruntime(&self) -> Option<u64> {
        self.leftmost.map(|(v, _)| v)
    }

    /// Iterates `(vruntime, task)` in increasing vruntime order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TaskId)> + '_ {
        self.tree.iter().copied()
    }

    /// Advances `min_vruntime` to track the leftmost entity, as
    /// `update_min_vruntime` does in Linux. `curr_vruntime` is the running
    /// task's vruntime if one exists.
    pub fn update_min_vruntime(&mut self, curr_vruntime: Option<u64>) {
        let mut candidate = curr_vruntime;
        if let Some(leftmost) = self.min_queued_vruntime() {
            candidate = Some(match candidate {
                Some(c) => c.min(leftmost),
                None => leftmost,
            });
        }
        if let Some(c) = candidate {
            self.min_vruntime = self.min_vruntime.max(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(n: u32) -> TaskId {
        TaskId(n)
    }

    #[test]
    fn orders_by_vruntime() {
        let mut rq = CfsRq::new();
        rq.enqueue(tid(1), 300, 1024, false, 0.0);
        rq.enqueue(tid(2), 100, 1024, false, 0.0);
        rq.enqueue(tid(3), 200, 1024, false, 0.0);
        assert_eq!(rq.peek(), Some(tid(2)));
        assert_eq!(rq.len(), 3);
    }

    #[test]
    fn ties_break_by_task_id() {
        let mut rq = CfsRq::new();
        rq.enqueue(tid(9), 100, 1024, false, 0.0);
        rq.enqueue(tid(1), 100, 1024, false, 0.0);
        assert_eq!(rq.peek(), Some(tid(1)));
    }

    #[test]
    fn dequeue_updates_sums() {
        let mut rq = CfsRq::new();
        rq.enqueue(tid(1), 10, 1024, false, 512.0);
        rq.enqueue(tid(2), 20, 3, true, 4.0);
        assert!(rq.dequeue(tid(1), 10, 1024, false, 512.0));
        assert_eq!(rq.weight_sum, 3);
        assert_eq!(rq.nr_normal, 0);
        assert_eq!(rq.nr_idle, 1);
        assert!(rq.only_idle_policy());
        assert!(!rq.dequeue(tid(1), 10, 1024, false, 512.0));
    }

    #[test]
    fn min_vruntime_is_monotone() {
        let mut rq = CfsRq::new();
        rq.enqueue(tid(1), 500, 1024, false, 0.0);
        rq.update_min_vruntime(None);
        assert_eq!(rq.min_vruntime, 500);
        // A lower-vruntime arrival cannot move the floor backwards.
        rq.enqueue(tid(2), 100, 1024, false, 0.0);
        rq.update_min_vruntime(None);
        assert_eq!(rq.min_vruntime, 500);
        // Current task with higher vruntime but leftmost lower: floor stays.
        rq.update_min_vruntime(Some(900));
        assert_eq!(rq.min_vruntime, 500);
    }

    #[test]
    fn only_idle_policy_detection() {
        let mut rq = CfsRq::new();
        assert!(!rq.only_idle_policy());
        rq.enqueue(tid(1), 0, 3, true, 0.0);
        assert!(rq.only_idle_policy());
        rq.enqueue(tid(2), 0, 1024, false, 0.0);
        assert!(!rq.only_idle_policy());
    }

    #[test]
    fn load_sum_clamps_float_drift_at_zero() {
        let mut rq = CfsRq::new();
        // Loads whose sum is not exactly representable: repeated add/sub
        // pairs leave a tiny residue that must never surface as a negative
        // queue load.
        let loads = [0.1, 0.2, 0.3, 511.7, 1e-9];
        for round in 0..10_000 {
            for (i, &l) in loads.iter().enumerate() {
                rq.enqueue(tid(i as u32), round, 1024, false, l);
            }
            for (i, &l) in loads.iter().enumerate() {
                rq.dequeue(tid(i as u32), round, 1024, false, l);
            }
            assert!(
                rq.load_sum >= 0.0,
                "round {round}: load_sum {}",
                rq.load_sum
            );
        }
        assert!(rq.is_empty());
        assert!(rq.load_sum >= 0.0 && rq.load_sum < 1e-3, "{}", rq.load_sum);
    }

    #[test]
    fn leftmost_cache_tracks_tree() {
        // Interleaved enqueue/dequeue, checking the cached leftmost against
        // a full tree walk after every operation.
        let mut rq = CfsRq::new();
        let mut rng = simcore::SimRng::new(0xCAFE);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for i in 0..2000u32 {
            if live.is_empty() || rng.f64() < 0.6 {
                let v = rng.u64() % 1000;
                rq.enqueue(tid(i), v, 1024, false, 0.0);
                live.push((v, i));
            } else {
                let k = rng.index(live.len());
                let (v, id) = live.swap_remove(k);
                assert!(rq.dequeue(tid(id), v, 1024, false, 0.0));
            }
            let expect = rq.iter().next();
            assert_eq!(
                rq.min_queued_vruntime(),
                expect.map(|(v, _)| v),
                "after op {i}"
            );
            assert_eq!(rq.peek(), expect.map(|(_, t)| t), "after op {i}");
        }
    }

    #[test]
    fn iter_is_sorted() {
        let mut rq = CfsRq::new();
        for (i, v) in [(1u32, 50u64), (2, 10), (3, 30)] {
            rq.enqueue(tid(i), v, 1024, false, 0.0);
        }
        let order: Vec<u64> = rq.iter().map(|(v, _)| v).collect();
        assert_eq!(order, vec![10, 30, 50]);
    }
}
