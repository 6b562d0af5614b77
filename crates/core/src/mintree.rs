//! A tournament tree over `n` slots: the earliest of n instants.
//!
//! The paper's simulator (§3.1) and kernel modules (§4.2) act only at
//! releases, deadlines and completions, so what both executors ask of
//! their timers and of the EDF ready queue is one question: which slot
//! holds the earliest instant, and which slots are due now. This tree
//! answers both exactly, with no tick, window or horizon.
//!
//! Each node is a `u128`, `(key << 64) | slot`. The key maps the slot's
//! instant to a `u64` in [`f64::total_cmp`] order, and an empty slot has
//! key `u64::MAX` (the key of one NaN bit pattern, which no `Time`
//! holds). A parent is the `min` of its two children, so the root is the
//! least `(instant, slot)`: the instant by `total_cmp`, then the slot,
//! which is the EDF order of [`crate::sched::SchedulerKind::compare`].
//! Keeping the key in the node makes every comparison one integer `min`.
//!
//! The layout is implicit: the root is node 1, node `i` has children `2i`
//! and `2i + 1`, and slot `s` is leaf `n + s`. For any `n` every inner
//! node has two children and every leaf lies at most ⌈log₂ n⌉ levels
//! below the root, so [`MinTree::set`] and [`MinTree::clear`] recompute
//! at most ⌈log₂ n⌉ parents, one `min` of two children each, and stop at
//! the first parent that keeps its value.
//!
//! Every operation is total (no indexing, no unwrap): out-of-range slots
//! are ignored, because the zero-panic scheduling loops and restore reach
//! the tree.

use crate::time::Time;

/// The key of an empty slot.
const EMPTY: u64 = u64::MAX;

/// `t`'s key: its bits, reordered so that unsigned order is
/// [`f64::total_cmp`] order (the sign bit flipped on non-negative values,
/// every bit flipped on negative ones).
fn key(t: Time) -> u64 {
    let bits = t.as_ms().to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

/// The instant whose key is `key`: the inverse of [`key`].
fn instant(key: u64) -> Time {
    Time::from_raw(f64::from_bits(
        key ^ (((!key as i64 >> 63) as u64) | (1 << 63)),
    ))
}

/// The node of `slot` holding `key`.
fn node(key: u64, slot: usize) -> u128 {
    (u128::from(key) << 64) | slot as u128
}

/// The key half of a node.
fn key_of(node: u128) -> u64 {
    (node >> 64) as u64
}

/// `n` slots, each empty or holding a [`Time`]. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct MinTree {
    /// Slot count.
    n: usize,
    /// Node `i` at index `i` (index 0 unused); the leaves are `n..2n`.
    nodes: Vec<u128>,
}

impl MinTree {
    /// A tree of `n` empty slots.
    #[must_use]
    pub fn new(n: usize) -> MinTree {
        let mut tree = MinTree::default();
        tree.reset(n);
        tree
    }

    /// Empties every slot and resizes the tree to `n` slots, reusing the
    /// buffer when its capacity suffices.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.nodes.clear();
        self.nodes.resize(2 * n, 0);
        for (slot, leaf) in self.nodes.iter_mut().skip(n).enumerate() {
            *leaf = node(EMPTY, slot);
        }
        for i in (1..n).rev() {
            let least = self.child_min(i);
            if let Some(parent) = self.nodes.get_mut(i) {
                *parent = least;
            }
        }
    }

    /// The slot count.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The instant in `slot`, if it holds one.
    #[must_use]
    pub fn get(&self, slot: usize) -> Option<Time> {
        if slot >= self.n {
            return None;
        }
        let k = key_of(*self.nodes.get(self.n + slot)?);
        (k != EMPTY).then(|| instant(k))
    }

    /// The least `(instant, slot)`, or `None` if every slot is empty.
    #[must_use]
    pub fn min(&self) -> Option<(Time, usize)> {
        let root = *self.nodes.get(1)?;
        let k = key_of(root);
        (k != EMPTY).then(|| (instant(k), root as u64 as usize))
    }

    /// Puts `t` in `slot`, replacing what it held.
    pub fn set(&mut self, slot: usize, t: Time) {
        self.put(slot, key(t));
    }

    /// Empties `slot`.
    pub fn clear(&mut self, slot: usize) {
        self.put(slot, EMPTY);
    }

    /// Writes every slot whose instant is `at_or_before(now)` as a set bit
    /// into `bits` (one `u64` per 64 slots, zeroed here), so reading the
    /// words in order yields them in ascending slot order. Descends only
    /// into subtrees whose minimum is due: the cost is the due slots times
    /// the tree's height, not n.
    pub fn collect_at_or_before(&self, now: Time, bits: &mut Vec<u64>) {
        bits.clear();
        bits.resize(self.n.div_ceil(64), 0);
        let Some((first, slot)) = self.min() else {
            return;
        };
        if !first.at_or_before(now) {
            return;
        }
        // The root's slot is due. Every other slot hangs off its path in
        // one sibling subtree, so walking up the path and collecting the
        // subtrees whose minimum is due finds them all; when one slot is
        // due, as it mostly is, that is one predictable check per level.
        set_bit(bits, slot);
        let mut i = self.n + slot;
        while i > 1 {
            if self.due(i ^ 1, now) {
                self.collect_subtree(i ^ 1, now, bits);
            }
            i >>= 1;
        }
    }

    /// Whether node `i` exists and its minimum is `at_or_before(now)`.
    fn due(&self, i: usize, now: Time) -> bool {
        self.nodes
            .get(i)
            .is_some_and(|&node| instant(key_of(node)).at_or_before(now))
    }

    /// Collects the due slots under node `root` in one depth-first pass
    /// that needs no stack: a node that is not due, or a leaf, is done,
    /// and the walk climbs past every right child and steps to the next
    /// sibling, until it climbs back to `root`.
    fn collect_subtree(&self, root: usize, now: Time, bits: &mut [u64]) {
        let mut i = root;
        loop {
            if self.due(i, now) {
                if i < self.n {
                    i *= 2;
                    continue;
                }
                set_bit(bits, i - self.n);
            }
            while i != root && i & 1 == 1 {
                i >>= 1;
            }
            if i == root {
                return;
            }
            i += 1;
        }
    }

    /// The least of node `i`'s children.
    fn child_min(&self, i: usize) -> u128 {
        let child = |c: usize| self.nodes.get(c).copied().unwrap_or(u128::MAX);
        child(2 * i).min(child(2 * i + 1))
    }

    /// Writes `key` into `slot`'s leaf and restores the parents above it,
    /// up to the first that keeps its value. Each parent re-reads both
    /// children rather than carrying the new value up in a register:
    /// that measured twice as fast at 128 slots.
    fn put(&mut self, slot: usize, key: u64) {
        if slot >= self.n {
            return;
        }
        let mut i = self.n + slot;
        let Some(leaf) = self.nodes.get_mut(i) else {
            return;
        };
        *leaf = node(key, slot);
        while i > 1 {
            i >>= 1;
            let least = self.child_min(i);
            match self.nodes.get_mut(i) {
                Some(parent) if *parent != least => *parent = least,
                _ => return,
            }
        }
    }
}

/// Sets `slot`'s bit in `bits`.
fn set_bit(bits: &mut [u64], slot: usize) {
    if let Some(word) = bits.get_mut(slot / 64) {
        *word |= 1 << (slot % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::EPS;

    fn ms(x: f64) -> Time {
        Time::from_ms(x)
    }

    /// The naive model: one optional instant per slot.
    struct Oracle {
        tree: MinTree,
        slots: Vec<Option<Time>>,
        bits: Vec<u64>,
    }

    impl Oracle {
        fn new(n: usize) -> Oracle {
            Oracle {
                tree: MinTree::new(n),
                slots: vec![None; n],
                bits: Vec::new(),
            }
        }

        fn set(&mut self, slot: usize, t: Time) {
            self.tree.set(slot, t);
            self.slots[slot] = Some(t);
        }

        fn clear(&mut self, slot: usize) {
            self.tree.clear(slot);
            self.slots[slot] = None;
        }

        /// Holds `get`, `min` and `collect_at_or_before(now)` to a scan of
        /// the slots (least instant by `total_cmp`, the lower slot on a
        /// tie), and returns how many slots are due.
        fn check(&mut self, now: Time, what: &str) -> usize {
            let n = self.slots.len();
            for (s, want) in self.slots.iter().enumerate() {
                assert_eq!(
                    self.tree.get(s).map(|t| t.as_ms().to_bits()),
                    want.map(|t| t.as_ms().to_bits()),
                    "{what}: get({s})"
                );
            }
            assert_eq!(self.tree.get(n), None, "{what}: get past the end");
            let mut least: Option<(Time, usize)> = None;
            for (s, t) in self.slots.iter().enumerate() {
                if let Some(t) = *t {
                    if least.is_none_or(|(b, _)| t.total_cmp(&b).is_lt()) {
                        least = Some((t, s));
                    }
                }
            }
            assert_eq!(
                self.tree.min().map(|(t, s)| (t.as_ms().to_bits(), s)),
                least.map(|(t, s)| (t.as_ms().to_bits(), s)),
                "{what}: min"
            );
            self.tree.collect_at_or_before(now, &mut self.bits);
            assert_eq!(self.bits.len(), n.div_ceil(64), "{what}: bitmap width");
            let mut due = 0;
            for (s, t) in self.slots.iter().enumerate() {
                let bit = self.bits[s / 64] >> (s % 64) & 1 == 1;
                let want = t.is_some_and(|t| t.at_or_before(now));
                assert_eq!(bit, want, "{what}: slot {s} due at {now}");
                due += usize::from(want);
            }
            due
        }
    }

    /// Seeded random `set`/`clear` against the oracle at every size the
    /// executors meet, with instants from before `now` to 10¹² ms: ties on
    /// one instant, the old wheel's 2³⁰-tick edge (1,048,576 ms), and the
    /// boundary of `at_or_before` (`now + EPS` is due, the next `f64`
    /// above it is not).
    #[test]
    fn random_operations_match_the_oracle() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for n in [0, 1, 2, 3, 63, 64, 65, 128, 2048] {
            let mut o = Oracle::new(n);
            let mut now = ms(0.0);
            let steps = if n == 2048 { 3_000 } else { 1_500 };
            for step in 0..steps {
                let what = format!("n={n} step {step}");
                if n > 0 {
                    let slot = (next() % n as u64) as usize;
                    let edge = now + ms(EPS);
                    let t = match next() % 10 {
                        0 => None,
                        1 => Some(now - ms((next() % 1000) as f64 / 7.0)),
                        2 => Some(ms(12.5)),
                        3 => Some(edge),
                        4 => Some(ms(f64::from_bits(edge.as_ms().to_bits() + 1))),
                        5 => Some(ms(1_048_576.0 + (next() % 3) as f64 * EPS / 2.0 - EPS)),
                        6 => Some(ms(1.0e12)),
                        _ => Some(now + ms((next() % 100_000) as f64 / 64.0)),
                    };
                    match t {
                        Some(t) => o.set(slot, t),
                        None => o.clear(slot),
                    }
                }
                o.check(now, &what);
                if next() % 4 == 0 {
                    now = match next() % 3 {
                        0 => now + ms((next() % 5_000) as f64 / 10.0),
                        1 => ms(1_048_576.0 - EPS / 2.0),
                        _ => o.tree.min().map_or(now, |(t, _)| t),
                    };
                }
            }
        }
    }

    /// Fixed cases: an overdue instant beats a future one; a far instant
    /// (10 s, past the window of the bucketed queue this tree replaced)
    /// is found alone and loses once an earlier one arrives; thousands
    /// of slots on one instant are due together, lowest first, and none
    /// of them just before; and cancels and reschedules move the
    /// minimum.
    #[test]
    fn overdue_far_same_instant_cancel_and_reschedule() {
        let mut o = Oracle::new(2);
        let now = ms(500.0);
        o.set(1, ms(499.0));
        o.set(0, now + ms(5.0));
        assert_eq!(o.check(now, "overdue"), 1);
        assert_eq!(o.tree.min().map(|(_, s)| s), Some(1));

        let mut o = Oracle::new(2);
        o.set(0, ms(10_000.0));
        assert_eq!(o.tree.min().map(|(_, s)| s), Some(0));
        o.set(1, ms(4.0));
        o.check(ms(0.0), "far");
        assert_eq!(o.tree.min().map(|(_, s)| s), Some(1));
        o.clear(1);
        assert_eq!(o.check(ms(10_000.0), "far, due"), 1);

        let n = 4096;
        let mut o = Oracle::new(n);
        let t = ms(7.25);
        for s in (0..n).rev() {
            o.set(s, t);
        }
        assert_eq!(o.check(t, "batch"), n);
        assert_eq!(o.tree.min().map(|(_, s)| s), Some(0));
        assert_eq!(o.check(t - ms(0.01), "batch, early"), 0);
        for s in 0..50 {
            o.clear(s);
            assert_eq!(o.tree.min().map(|(_, s)| s), Some(s + 1));
        }

        let mut o = Oracle::new(3);
        o.set(0, ms(10.0));
        o.set(1, ms(5.0));
        o.check(ms(5.0), "cancel, before");
        o.clear(1);
        o.check(ms(5.0), "cancel, after");
        o.set(0, ms(2.0));
        o.check(ms(5.0), "reschedule");
        o.clear(0);
        o.check(ms(5.0), "drained");
        assert_eq!(o.tree.min(), None);
    }

    /// Keys follow `total_cmp`: negatives below both zeros, `-0.0` below
    /// `+0.0`, and huge instants below the empty key.
    #[test]
    fn keys_follow_total_cmp_and_round_trip() {
        let ladder = [-1.0e12, -1.5, -0.0, 0.0, f64::MIN_POSITIVE, 1.0, 1.0e12];
        for pair in ladder.windows(2) {
            assert!(key(ms(pair[0])) < key(ms(pair[1])), "{pair:?}");
        }
        for x in ladder {
            assert_eq!(instant(key(ms(x))).as_ms().to_bits(), x.to_bits());
        }
        assert!(key(ms(f64::MAX)) < EMPTY);
    }

    /// A reset tree is empty at its new size and reuses its buffer when
    /// the capacity suffices.
    #[test]
    fn reset_empties_and_reuses_the_buffer() {
        let mut tree = MinTree::new(100);
        for s in 0..100 {
            tree.set(s, ms(s as f64));
        }
        let buffer = tree.nodes.as_ptr();
        for n in [3, 100, 0, 64] {
            tree.reset(n);
            assert_eq!(tree.nodes.as_ptr(), buffer, "reset({n}) reallocated");
            assert_eq!(tree.len(), n);
            assert_eq!(tree.min(), None);
            assert!((0..=n).all(|s| tree.get(s).is_none()));
            if n > 0 {
                tree.set(n - 1, ms(3.0));
                tree.set(0, ms(4.0));
                assert_eq!(tree.min().map(|(t, s)| (t.as_ms(), s)), Some((3.0, n - 1)));
            }
        }
        tree.set(64, ms(1.0));
        assert_eq!(
            tree.min().map(|(_, s)| s),
            Some(63),
            "out of range is ignored"
        );
    }
}
