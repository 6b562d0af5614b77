//! O(1) priority-bitmap ready queue for the execution engines.
//!
//! The dispatch loops in `rtdvs-sim` and `rtdvs-kernel` used to rebuild a
//! `Vec<(TaskId, Time)>` of ready tasks at every scheduling point and scan
//! it linearly. This structure replaces both with word-level bitmaps:
//!
//! * **RM** — priorities are static (period, then id), so ranks are
//!   precomputed once and the ready set is a bitmap *in rank space*; the
//!   pick is the first set bit (`trailing_zeros`).
//! * **EDF** — absolute deadlines are bucketed into a circular array of
//!   [`NUM_BUCKETS`] deadline buckets (each `2^shift` ticks wide, sized so
//!   the whole window covers twice the longest period); an occupied-bucket
//!   bitmap finds the earliest non-empty bucket from the current instant in
//!   O(1), and the exact `(deadline, id)` order is resolved *inside* that
//!   bucket with `total_cmp` — the same tiebreak [`SchedulerKind::compare`]
//!   uses, so picks are bit-for-bit identical to the old linear scan.
//!
//! Deadlines that fall outside the bucket window (possible in the kernel
//! after elastic period stretching) go to a `far` overflow set resolved by
//! exact comparison; deadlines at or before the cursor are clamped into the
//! cursor bucket, which keeps the circular order correct because an
//! overdue deadline is by definition the minimum. Both fallbacks preserve
//! exactness; only speed degrades, and only for the rare members involved.
//!
//! Every operation is total (no indexing, no unwrap): out-of-range ids are
//! ignored, which keeps the structure off the panic surface of the engines'
//! zero-panic-budget scheduling loops.

use crate::sched::SchedulerKind;
use crate::task::TaskId;
use crate::time::Time;

/// Discrete ticks per millisecond used to bucket deadlines and timer
/// expiries (`2^10`, i.e. one tick is ~0.98 µs). Quantization only routes
/// values to buckets; ordering decisions always compare the exact times.
pub const TICKS_PER_MS: f64 = 1024.0;

/// Number of EDF deadline buckets (a power of two).
pub const NUM_BUCKETS: usize = 256;

/// Bits per bitmap word.
pub(crate) const WORD_BITS: usize = 64;

/// Converts an instant to its bucket/wheel tick. Total: negative times
/// and NaN map to tick 0 and `+inf`/huge times saturate at `u64::MAX`.
///
/// The cast alone is the floor: `as` truncates toward zero, which is the
/// floor for every `x ≥ 0`, and saturates every `x < 0` (and NaN) to 0,
/// as `x.floor() as u64` does. Skipping `floor` keeps a libm call out of
/// the wheel and queue hot paths on targets without a rounding
/// instruction (baseline x86-64 has no SSE4.1 `roundsd`).
#[must_use]
pub fn tick_of(t: Time) -> u64 {
    (t.as_ms() * TICKS_PER_MS) as u64
}

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

/// The bitmap ready queue. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    /// Capacity in tasks.
    n: usize,
    /// Words per task-id bitmap (`ceil(n / 64)`).
    words: usize,
    /// log2 of the bucket width in ticks.
    shift: u32,
    /// Membership bitmap in task-id space (the ready set).
    in_q: Vec<u64>,
    /// Occupied-bucket bitmap (`NUM_BUCKETS` bits).
    occ: Vec<u64>,
    /// Per-bucket member bitmaps, `NUM_BUCKETS × words`.
    bucket_bits: Vec<u64>,
    /// Which bucket each member occupies.
    bucket_of: Vec<u32>,
    /// Exact absolute deadline per member (valid only while in the queue).
    deadline: Vec<Time>,
    /// Members whose deadline fell outside the bucket window.
    far: Vec<u64>,
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

    /// (Re)configures the queue for `n` tasks whose deadlines never lie
    /// more than `span` past the pick instant, with RM priority order
    /// `rm_order` (task ids sorted by `(period, id)`). Clears all members.
    /// Reuses existing allocations when capacities suffice.
    pub fn configure(&mut self, n: usize, span: Time, rm_order: &[TaskId]) {
        self.n = n;
        self.words = n.div_ceil(WORD_BITS).max(1);
        // Bucket width: smallest power of two such that NUM_BUCKETS
        // buckets cover twice the span plus slack, so a deadline inserted
        // `span` ahead of a cursor that then advances stays in-window.
        let span_ticks = tick_of(span).saturating_add(2);
        let need = span_ticks
            .saturating_mul(2)
            .saturating_add(WORD_BITS as u64);
        let mut shift = 0u32;
        while shift < 48 && ((NUM_BUCKETS as u64) << shift) < need {
            shift += 1;
        }
        self.shift = shift;
        let occ_words = NUM_BUCKETS / WORD_BITS;
        self.in_q.clear();
        self.in_q.resize(self.words, 0);
        self.occ.clear();
        self.occ.resize(occ_words, 0);
        self.bucket_bits.clear();
        self.bucket_bits.resize(NUM_BUCKETS * self.words, 0);
        self.bucket_of.clear();
        self.bucket_of.resize(n, 0);
        self.deadline.clear();
        self.deadline.resize(n, Time::ZERO);
        self.far.clear();
        self.far.resize(self.words, 0);
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
        self.rm_bits.resize(self.words, 0);
    }

    /// `true` if no task is ready.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.in_q.iter().all(|&w| w == 0)
    }

    /// `true` if `id` is in the ready set.
    #[must_use]
    pub fn contains(&self, id: TaskId) -> bool {
        let (w, m) = word_index(id.0);
        self.in_q.get(w).is_some_and(|&word| word & m != 0)
    }

    /// Inserts (or repositions) `id` with absolute `deadline`, bucketing
    /// relative to the pick instant's tick `now_tick`.
    pub fn insert(&mut self, id: TaskId, deadline: Time, now_tick: u64) {
        if id.0 >= self.n {
            return;
        }
        if self.contains(id) {
            self.remove(id);
        }
        let (w, m) = word_index(id.0);
        if let Some(word) = self.in_q.get_mut(w) {
            *word |= m;
        }
        if let Some(d) = self.deadline.get_mut(id.0) {
            *d = deadline;
        }
        if let Some(r) = self.rank_of.get(id.0) {
            let (rw, rm) = word_index(*r as usize);
            if let Some(word) = self.rm_bits.get_mut(rw) {
                *word |= rm;
            }
        }
        // Bucket placement: clamp overdue deadlines into the cursor bucket
        // (they are the minimum, and exact comparison inside the bucket
        // keeps their relative order); send out-of-window deadlines to the
        // far set.
        let dtick = tick_of(deadline).max(now_tick);
        let window = (NUM_BUCKETS as u64) << self.shift;
        if dtick - now_tick >= window {
            if let Some(word) = self.far.get_mut(w) {
                *word |= m;
            }
            if let Some(b) = self.bucket_of.get_mut(id.0) {
                *b = u32::MAX;
            }
            return;
        }
        let bucket = ((dtick >> self.shift) as usize) & (NUM_BUCKETS - 1);
        if let Some(b) = self.bucket_of.get_mut(id.0) {
            *b = bucket as u32;
        }
        if let Some(word) = self.bucket_bits.get_mut(bucket * self.words + w) {
            *word |= m;
        }
        let (ow, om) = word_index(bucket);
        if let Some(word) = self.occ.get_mut(ow) {
            *word |= om;
        }
    }

    /// Removes `id` from the ready set (no-op if absent).
    pub fn remove(&mut self, id: TaskId) {
        if !self.contains(id) {
            return;
        }
        let (w, m) = word_index(id.0);
        if let Some(word) = self.in_q.get_mut(w) {
            *word &= !m;
        }
        if let Some(r) = self.rank_of.get(id.0) {
            let (rw, rm) = word_index(*r as usize);
            if let Some(word) = self.rm_bits.get_mut(rw) {
                *word &= !rm;
            }
        }
        let bucket = self.bucket_of.get(id.0).copied().unwrap_or(u32::MAX);
        if bucket == u32::MAX {
            if let Some(word) = self.far.get_mut(w) {
                *word &= !m;
            }
            return;
        }
        let bucket = bucket as usize;
        let base = bucket * self.words;
        if let Some(word) = self.bucket_bits.get_mut(base + w) {
            *word &= !m;
        }
        let empty = self
            .bucket_bits
            .get(base..base + self.words)
            .is_some_and(|ws| ws.iter().all(|&x| x == 0));
        if empty {
            let (ow, om) = word_index(bucket);
            if let Some(word) = self.occ.get_mut(ow) {
                *word &= !om;
            }
        }
    }

    /// Picks the highest-priority ready task under `kind` at the instant
    /// whose tick is `now_tick`. Identical to
    /// [`SchedulerKind::pick_next`] over the same ready set.
    #[must_use]
    pub fn pick(&self, kind: SchedulerKind, now_tick: u64) -> Option<TaskId> {
        match kind {
            SchedulerKind::Edf => self.pick_edf(now_tick),
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
                for_each_set_bit(&self.in_q, |id| {
                    let id = TaskId(id);
                    if banned(id) {
                        return;
                    }
                    let d = self.deadline.get(id.0).copied().unwrap_or(Time::ZERO);
                    let better = match best {
                        None => true,
                        Some((bd, _)) => d.total_cmp(&bd) == core::cmp::Ordering::Less,
                    };
                    if better {
                        best = Some((d, id));
                    }
                });
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
        let mut any = false;
        for_each_set_bit(&self.in_q, |id| {
            if !any && !banned(TaskId(id)) {
                any = true;
            }
        });
        any
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

    /// Earliest-deadline pick: first occupied bucket circularly from the
    /// cursor, exact `(deadline, id)` min inside it, compared against the
    /// far set when non-empty.
    fn pick_edf(&self, now_tick: u64) -> Option<TaskId> {
        let cursor = ((now_tick >> self.shift) as usize) & (NUM_BUCKETS - 1);
        let bucket = self.first_occupied_from(cursor);
        let mut best: Option<(Time, TaskId)> = None;
        if let Some(bucket) = bucket {
            let base = bucket * self.words;
            if let Some(ws) = self.bucket_bits.get(base..base + self.words) {
                for_each_set_bit(ws, |id| {
                    let d = self.deadline.get(id).copied().unwrap_or(Time::ZERO);
                    let better = match best {
                        None => true,
                        Some((bd, _)) => d.total_cmp(&bd) == core::cmp::Ordering::Less,
                    };
                    if better {
                        best = Some((d, TaskId(id)));
                    }
                });
            }
        }
        if self.far.iter().any(|&w| w != 0) {
            for_each_set_bit(&self.far, |id| {
                let d = self.deadline.get(id).copied().unwrap_or(Time::ZERO);
                let better = match best {
                    None => true,
                    Some((bd, bid)) => {
                        d.total_cmp(&bd).then(TaskId(id).cmp(&bid)) == core::cmp::Ordering::Less
                    }
                };
                if better {
                    best = Some((d, TaskId(id)));
                }
            });
        }
        best.map(|(_, id)| id)
    }

    /// First occupied bucket at or circularly after `cursor`.
    fn first_occupied_from(&self, cursor: usize) -> Option<usize> {
        let occ_words = self.occ.len();
        if occ_words == 0 {
            return None;
        }
        let (cw, cb) = (cursor / WORD_BITS, cursor % WORD_BITS);
        // Tail of the cursor word, then the following words, wrapping.
        let masked = self.occ.get(cw).copied().unwrap_or(0) & (u64::MAX << cb);
        if masked != 0 {
            return Some(cw * WORD_BITS + masked.trailing_zeros() as usize);
        }
        for step in 1..=occ_words {
            let w = (cw + step) % occ_words;
            let mut word = self.occ.get(w).copied().unwrap_or(0);
            if w == cw {
                // Wrapped back to the cursor word: only bits before the
                // cursor remain unexamined.
                word &= !(u64::MAX << cb);
            }
            if word != 0 {
                return Some(w * WORD_BITS + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSet;

    /// RM order helper used by the engines: ids sorted by (period, id).
    fn rm_order(tasks: &TaskSet) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = (0..tasks.len()).map(TaskId).collect();
        ids.sort_by(|&a, &b| {
            tasks
                .task(a)
                .period()
                .total_cmp(&tasks.task(b).period())
                .then(a.cmp(&b))
        });
        ids
    }

    fn queue_for(tasks: &TaskSet, span_ms: f64) -> ReadyQueue {
        let mut q = ReadyQueue::new();
        q.configure(tasks.len(), Time::from_ms(span_ms), &rm_order(tasks));
        q
    }

    #[test]
    fn edf_pick_matches_linear_scan() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 3.0), (10.0, 3.0), (14.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 14.0);
        let now = Time::from_ms(2.0);
        let ready = [
            (TaskId(0), Time::from_ms(16.0)),
            (TaskId(1), Time::from_ms(10.0)),
            (TaskId(2), Time::from_ms(14.0)),
        ];
        for (id, d) in ready {
            q.insert(id, d, tick_of(now));
        }
        assert_eq!(
            q.pick(SchedulerKind::Edf, tick_of(now)),
            SchedulerKind::Edf.pick_next(&tasks, &ready)
        );
        assert_eq!(
            q.pick(SchedulerKind::Rm, tick_of(now)),
            SchedulerKind::Rm.pick_next(&tasks, &ready)
        );
    }

    #[test]
    fn ties_break_by_id_in_both_orders() {
        let tasks = TaskSet::from_ms_pairs(&[(10.0, 1.0), (10.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 10.0);
        q.insert(TaskId(1), Time::from_ms(10.0), 0);
        q.insert(TaskId(0), Time::from_ms(10.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(0)));
        assert_eq!(q.pick(SchedulerKind::Rm, 0), Some(TaskId(0)));
    }

    #[test]
    fn empty_queue_picks_none() {
        let tasks = TaskSet::from_ms_pairs(&[(8.0, 1.0)]).unwrap();
        let q = queue_for(&tasks, 8.0);
        assert!(q.is_empty());
        assert_eq!(q.pick(SchedulerKind::Edf, 0), None);
        assert_eq!(q.pick(SchedulerKind::Rm, 0), None);
    }

    #[test]
    fn empty_buckets_are_skipped() {
        // Two members far apart in bucket space; removing the earlier one
        // must make the occupied-bucket scan skip to the later one.
        let tasks = TaskSet::from_ms_pairs(&[(100.0, 1.0), (120.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 120.0);
        q.insert(TaskId(0), Time::from_ms(5.0), 0);
        q.insert(TaskId(1), Time::from_ms(110.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(0)));
        q.remove(TaskId(0));
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(1)));
        q.remove(TaskId(1));
        assert_eq!(q.pick(SchedulerKind::Edf, 0), None);
    }

    #[test]
    fn circular_window_survives_cursor_advance() {
        let tasks = TaskSet::from_ms_pairs(&[(50.0, 1.0), (50.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 50.0);
        // Walk the cursor across several full windows; at each step the
        // pick must equal the exact minimum.
        for step in 0..2000u64 {
            let now = Time::from_ms(step as f64 * 0.7);
            let nt = tick_of(now);
            q.insert(TaskId(0), now + Time::from_ms(49.0), nt);
            q.insert(TaskId(1), now + Time::from_ms(3.0), nt);
            assert_eq!(q.pick(SchedulerKind::Edf, nt), Some(TaskId(1)));
            q.remove(TaskId(1));
            assert_eq!(q.pick(SchedulerKind::Edf, nt), Some(TaskId(0)));
            q.remove(TaskId(0));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn overdue_deadlines_clamp_into_cursor_bucket() {
        let tasks = TaskSet::from_ms_pairs(&[(10.0, 1.0), (10.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 10.0);
        let now = Time::from_ms(500.0);
        let nt = tick_of(now);
        // A deadline already in the past must still win over a future one.
        q.insert(TaskId(1), Time::from_ms(499.0), nt);
        q.insert(TaskId(0), now + Time::from_ms(5.0), nt);
        assert_eq!(q.pick(SchedulerKind::Edf, nt), Some(TaskId(1)));
    }

    #[test]
    fn far_deadlines_fall_back_to_exact_comparison() {
        let tasks = TaskSet::from_ms_pairs(&[(10.0, 1.0), (10.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 10.0);
        // Window is ~20 ms; a deadline 10 s out lands in the far set.
        q.insert(TaskId(0), Time::from_ms(10_000.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(0)));
        q.insert(TaskId(1), Time::from_ms(4.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(1)));
        q.remove(TaskId(1));
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(0)));
    }

    #[test]
    fn masked_pick_matches_retain_semantics() {
        let tasks =
            TaskSet::from_ms_pairs(&[(8.0, 1.0), (10.0, 1.0), (14.0, 1.0), (16.0, 1.0)]).unwrap();
        let mut q = queue_for(&tasks, 16.0);
        let ready = [
            (TaskId(0), Time::from_ms(8.0)),
            (TaskId(1), Time::from_ms(6.0)),
            (TaskId(2), Time::from_ms(14.0)),
            (TaskId(3), Time::from_ms(5.0)),
        ];
        for (id, d) in ready {
            q.insert(id, d, 0);
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
        // Exercises multi-word id bitmaps (n >> 64) and dense same-bucket
        // occupancy: all deadlines equal, so the pick must be TaskId(0),
        // and after removing it TaskId(1), etc.
        let n = 1500;
        let pairs: Vec<(f64, f64)> = (0..n).map(|_| (1000.0, 0.1)).collect();
        let tasks = TaskSet::from_ms_pairs(&pairs).unwrap();
        let mut q = queue_for(&tasks, 1000.0);
        let d = Time::from_ms(1000.0);
        for i in 0..n {
            q.insert(TaskId(i), d, 0);
        }
        for i in 0..50 {
            assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(i)));
            assert_eq!(q.pick(SchedulerKind::Rm, 0), Some(TaskId(i)));
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
        let mut q = queue_for(&tasks, 12.0);
        q.insert(TaskId(0), Time::from_ms(10.0), 0);
        q.insert(TaskId(1), Time::from_ms(11.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(0)));
        // SkipRelease-style deadline push: T0 moves behind T1.
        q.insert(TaskId(0), Time::from_ms(20.0), 0);
        assert_eq!(q.pick(SchedulerKind::Edf, 0), Some(TaskId(1)));
    }

    /// The bare cast in `tick_of` is `floor` then cast on every input:
    /// negatives, signed zero, subnormals, NaN, infinities, the edge of
    /// exact integers, saturation and one ulp below an integer tick.
    #[test]
    fn tick_of_is_the_floored_tick() {
        let two53 = 2f64.powi(53);
        let below_tick = f64::from_bits(3.0f64.to_bits() - 1);
        let cases = [
            Time::from_ms(-1.5),
            Time::from_ms(-0.0),
            Time::from_ms(f64::from_bits(1)),
            Time::from_ms(f64::MIN_POSITIVE / 2.0),
            Time::ZERO * f64::NAN,
            Time::UNBOUNDED,
            -Time::UNBOUNDED,
            Time::from_ms(two53 - 1.0),
            Time::from_ms(two53),
            // 2^53 + 1 rounds to 2^53; 2^53 + 2 is the next f64.
            Time::from_ms(two53 + 1.0),
            Time::from_ms(two53 + 2.0),
            Time::from_ms(u64::MAX as f64),
            Time::from_ms(below_tick),
            Time::from_ms(3.0),
            Time::from_ms(1.0 / 1024.0),
            Time::from_ms(7.25),
        ];
        for t in cases {
            let ms = t.as_ms();
            assert_eq!(
                tick_of(t),
                (ms * TICKS_PER_MS).floor() as u64,
                "tick_of({ms:e} ms)"
            );
        }
        assert_eq!(tick_of(Time::from_ms(below_tick)), 3 * 1024 - 1);
        assert_eq!(tick_of(Time::from_ms(-1.5)), 0);
        assert_eq!(tick_of(Time::ZERO * f64::NAN), 0);
        assert_eq!(tick_of(Time::from_ms(two53)), 1 << 63);
        assert_eq!(tick_of(Time::from_ms(u64::MAX as f64)), u64::MAX);
    }
}
