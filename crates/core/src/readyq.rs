//! The ready queue of both execution engines.
//!
//! The dispatch loops in `rtdvs-sim` and `rtdvs-kernel` used to rebuild a
//! `Vec<(TaskId, Time)>` of ready tasks at every scheduling point and scan
//! it linearly. This structure replaces both, with one pick per policy
//! family:
//!
//! * **EDF** — the ready set's absolute deadlines sit in a [`MinTree`]
//!   keyed by task id, whose root is the least `(deadline, id)` by
//!   `total_cmp`: the same order [`SchedulerKind::compare`] uses, so the
//!   pick is bit-for-bit the old linear scan's, overdue deadlines and far
//!   ones included.
//! * **RM** — priorities are static (period, then id), so ranks are
//!   precomputed once and the ready set is a bitmap *in rank space*; the
//!   pick is the first set bit (`trailing_zeros`).
//!
//! Every operation is total (no indexing, no unwrap): out-of-range ids are
//! ignored, which keeps the structure off the panic surface of the engines'
//! zero-panic-budget scheduling loops.

use crate::mintree::MinTree;
use crate::sched::SchedulerKind;
use crate::task::TaskId;
use crate::time::Time;

/// Bits per bitmap word.
pub(crate) const WORD_BITS: usize = 64;

/// The word holding `bit` and the bit's mask within it.
#[inline]
pub(crate) fn word_index(bit: usize) -> (usize, u64) {
    (bit / WORD_BITS, 1u64 << (bit % WORD_BITS))
}

/// Iterates the set bits of a word slice in ascending bit order.
pub(crate) fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            f(w * WORD_BITS + b);
            bits &= bits - 1;
        }
    }
}

/// The ready queue. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    /// The ready set: each member's absolute deadline, by id.
    edf: MinTree,
    /// Static RM rank per id (`rank_of[id]`) and its inverse.
    rank_of: Vec<u32>,
    id_of_rank: Vec<u32>,
    /// Ready bitmap in RM rank space.
    rm_bits: Vec<u64>,
}

impl ReadyQueue {
    /// Creates an empty queue with zero capacity; call
    /// [`ReadyQueue::configure`] before use.
    #[must_use]
    pub fn new() -> ReadyQueue {
        ReadyQueue::default()
    }

    /// (Re)configures the queue for the tasks of `rm_order`, their ids
    /// sorted by `(period, id)` ([`crate::task::TaskSet::rm_order`]).
    /// Clears all members and reuses the existing allocations when their
    /// capacities suffice.
    pub fn configure(&mut self, rm_order: &[TaskId]) {
        let n = rm_order.len();
        self.edf.reset(n);
        self.rank_of.clear();
        self.rank_of.resize(n, u32::MAX);
        self.id_of_rank.clear();
        self.id_of_rank.resize(n, u32::MAX);
        for (rank, id) in rm_order.iter().enumerate() {
            if let Some(r) = self.rank_of.get_mut(id.0) {
                *r = rank as u32;
            }
            if let Some(s) = self.id_of_rank.get_mut(rank) {
                *s = id.0 as u32;
            }
        }
        self.rm_bits.clear();
        self.rm_bits.resize(n.div_ceil(WORD_BITS), 0);
    }

    /// `true` if no task is ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edf.min().is_none()
    }

    /// `true` if `id` is in the ready set.
    #[must_use]
    pub fn contains(&self, id: TaskId) -> bool {
        self.edf.get(id.0).is_some()
    }

    /// Inserts (or repositions) `id` with absolute `deadline`.
    pub fn insert(&mut self, id: TaskId, deadline: Time) {
        self.edf.set(id.0, deadline);
        self.set_rm_bit(id, true);
    }

    /// Removes `id` from the ready set (no-op if absent).
    pub fn remove(&mut self, id: TaskId) {
        self.edf.clear(id.0);
        self.set_rm_bit(id, false);
    }

    fn set_rm_bit(&mut self, id: TaskId, on: bool) {
        if let Some(r) = self.rank_of.get(id.0) {
            let (rw, rm) = word_index(*r as usize);
            if let Some(word) = self.rm_bits.get_mut(rw) {
                if on {
                    *word |= rm;
                } else {
                    *word &= !rm;
                }
            }
        }
    }

    /// Picks the highest-priority ready task under `kind`. Identical to
    /// [`SchedulerKind::pick_next`] over the same ready set.
    #[must_use]
    pub fn pick(&self, kind: SchedulerKind) -> Option<TaskId> {
        match kind {
            SchedulerKind::Edf => self.edf.min().map(|(_, id)| TaskId(id)),
            SchedulerKind::Rm => self.pick_rm(),
        }
    }

    /// Like [`ReadyQueue::pick`], but skipping tasks for which `banned`
    /// returns `true`. Falls back to an exact linear scan over members —
    /// masking is the rare containment path; exactness matters more than
    /// speed there.
    #[must_use]
    pub fn pick_masked(
        &self,
        kind: SchedulerKind,
        banned: impl Fn(TaskId) -> bool,
    ) -> Option<TaskId> {
        match kind {
            SchedulerKind::Edf => {
                let mut best: Option<(Time, TaskId)> = None;
                for id in (0..self.edf.len()).map(TaskId) {
                    let Some(d) = self.edf.get(id.0) else {
                        continue;
                    };
                    if banned(id) {
                        continue;
                    }
                    if best.is_none_or(|(bd, _)| d.total_cmp(&bd).is_lt()) {
                        best = Some((d, id));
                    }
                }
                best.map(|(_, id)| id)
            }
            SchedulerKind::Rm => {
                let mut found = None;
                for_each_set_bit(&self.rm_bits, |rank| {
                    if found.is_some() {
                        return;
                    }
                    let id = self.id_of_rank.get(rank).copied().unwrap_or(u32::MAX);
                    if id != u32::MAX && !banned(TaskId(id as usize)) {
                        found = Some(TaskId(id as usize));
                    }
                });
                found
            }
        }
    }

    /// `true` if any ready task is not banned.
    #[must_use]
    pub fn any_unmasked(&self, banned: impl Fn(TaskId) -> bool) -> bool {
        (0..self.edf.len()).any(|id| self.edf.get(id).is_some() && !banned(TaskId(id)))
    }

    /// First set bit in rank space → task id: the RM pick.
    fn pick_rm(&self) -> Option<TaskId> {
        for (w, &word) in self.rm_bits.iter().enumerate() {
            if word != 0 {
                let rank = w * WORD_BITS + word.trailing_zeros() as usize;
                let id = self.id_of_rank.get(rank).copied().unwrap_or(u32::MAX);
                if id != u32::MAX {
                    return Some(TaskId(id as usize));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSet;

    fn queue_for(tasks: &TaskSet) -> ReadyQueue {
        let mut q = ReadyQueue::new();
        q.configure(tasks.rm_order());
        q
    }

    #[test]
    fn edf_pick_matches_linear_scan() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks);
        let ready = [
            (TaskId(0), Time::from_ms(16.0)),
            (TaskId(1), Time::from_ms(10.0)),
            (TaskId(2), Time::from_ms(14.0)),
        ];
        for (id, d) in ready {
            q.insert(id, d);
        }
        assert_eq!(
            q.pick(SchedulerKind::Edf),
            SchedulerKind::Edf.pick_next(&tasks, &ready)
        );
        assert_eq!(
            q.pick(SchedulerKind::Rm),
            SchedulerKind::Rm.pick_next(&tasks, &ready)
        );
    }

    #[test]
    fn ties_break_by_id_in_both_orders() {
        let tasks = TaskSet::from_ms_pairs(&[(10.0, 1.0), (10.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks);
        q.insert(TaskId(1), Time::from_ms(10.0));
        q.insert(TaskId(0), Time::from_ms(10.0));
        assert_eq!(q.pick(SchedulerKind::Edf), Some(TaskId(0)));
        assert_eq!(q.pick(SchedulerKind::Rm), Some(TaskId(0)));
    }

    #[test]
    fn empty_queue_picks_none() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 1.0)]).unwrap();
        let q = queue_for(&tasks);
        assert!(q.is_empty());
        assert_eq!(q.pick(SchedulerKind::Edf), None);
        assert_eq!(q.pick(SchedulerKind::Rm), None);
    }

    #[test]
    fn masked_pick_matches_retain_semantics() {
        let tasks =
            TaskSet::from_ms_pairs(&[(8.0, 1.0), (10.0, 1.0), (14.0, 1.0), (16.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks);
        let ready = [
            (TaskId(0), Time::from_ms(8.0)),
            (TaskId(1), Time::from_ms(6.0)),
            (TaskId(2), Time::from_ms(14.0)),
            (TaskId(3), Time::from_ms(5.0)),
        ];
        for (id, d) in ready {
            q.insert(id, d);
        }
        let banned = [false, true, false, true];
        let is_banned = |id: TaskId| banned.get(id.0).copied().unwrap_or(false);
        // Old path: retain the unbanned, then pick_next.
        let kept: Vec<(TaskId, Time)> = ready
            .iter()
            .copied()
            .filter(|(id, _)| !is_banned(*id))
            .collect();
        for kind in [SchedulerKind::Edf, SchedulerKind::Rm] {
            assert_eq!(
                q.pick_masked(kind, is_banned),
                kind.pick_next(&tasks, &kept),
                "{kind:?}"
            );
        }
        assert!(q.any_unmasked(is_banned));
        assert!(!q.any_unmasked(|_| true));
    }

    #[test]
    fn thousands_of_tasks_multi_word_bitmaps() {
        // Exercises multi-word id bitmaps (n >> 64) and one deadline shared
        // by every member: the pick must be TaskId(0), and after removing
        // it TaskId(1), etc.
        let n = 1500;
        let pairs: Vec<(f64, f64)> = (0..n).map(|_| (1000.0, 0.1)).collect();
        let tasks = TaskSet::from_ms_pairs(&pairs).unwrap();
        let mut q = queue_for(&tasks);
        let d = Time::from_ms(1000.0);
        for i in 0..n {
            q.insert(TaskId(i), d);
        }
        for i in 0..50 {
            assert_eq!(q.pick(SchedulerKind::Edf), Some(TaskId(i)));
            assert_eq!(q.pick(SchedulerKind::Rm), Some(TaskId(i)));
            q.remove(TaskId(i));
        }
        for i in 50..n {
            q.remove(TaskId(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn reinsert_repositions_a_member() {
        let tasks = TaskSet::from_ms_pairs(&[(10.0, 1.0), (12.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks);
        q.insert(TaskId(0), Time::from_ms(10.0));
        q.insert(TaskId(1), Time::from_ms(11.0));
        assert_eq!(q.pick(SchedulerKind::Edf), Some(TaskId(0)));
        // SkipRelease-style deadline push: T0 moves behind T1.
        q.insert(TaskId(0), Time::from_ms(20.0));
        assert_eq!(q.pick(SchedulerKind::Edf), Some(TaskId(1)));
    }
}
