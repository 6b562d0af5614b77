//! The kernel's event log: one 16-byte record per entry.
//!
//! A running kernel logs little but releases and completions: of the
//! 1,797,973 entries an hour of `kernel-tenants` uptime logs, 99.4% are
//! [`KernelEvent::Released`] or [`KernelEvent::Completed`]. A
//! `(Time, KernelEvent)` takes 48 bytes, because a few rare variants
//! (`Overrun` carries an invocation and two work amounts) widen the enum
//! to 40. So the log keeps each entry as a record of its time and one
//! `u64` word, 16 bytes:
//!
//! * a release or a completion, an admission and a policy load are
//!   packed into the word when their fields fit: a 3-bit tag, a 21-bit
//!   handle and a 40-bit low field, which holds the invocation, the
//!   admission's `deferred` flag or the index of the policy's name in
//!   [`POLICY_NAMES`];
//! * any other entry, or one whose handle or invocation does not fit, is
//!   kept whole in a side table of `(Time, KernelEvent)`, and its word
//!   holds the side tag and the entry's index there.
//!
//! Every entry decodes to the `(Time, KernelEvent)` that was pushed, so the
//! log reads like the `Vec` it replaced: [`EventLog::iter`] yields the
//! entries by value, in log order. Deadline misses and overruns are never
//! packed, so a reader that wants only those walks
//! [`EventLog::unpacked`], the side table, instead of the whole history.
//!
//! The codec is panic-free — every lookup is a `get` — because the
//! snapshot writer and reader, zero-panic roots, walk and fill the log.

use core::fmt;

use rtdvs_core::time::Time;

use crate::kernel::{KernelEvent, TaskHandle};

/// An entry as the log stores it: its time and its word.
type Record = (Time, u64);

/// The tag sits in the word's top three bits.
const TAG_SHIFT: u32 = 61;
/// Bits of the low field: an invocation, a flag or a name index.
const LOW_BITS: u32 = 40;
/// The largest handle a packed word holds (21 bits, between the tag and
/// the low field).
const MAX_HANDLE: u64 = (1 << (TAG_SHIFT - LOW_BITS)) - 1;
/// The largest value the low field holds.
const MAX_LOW: u64 = (1 << LOW_BITS) - 1;
/// Everything below the tag: a side word's index.
const PAYLOAD: u64 = (1 << TAG_SHIFT) - 1;

const RELEASED: u64 = 0;
const COMPLETED: u64 = 1;
const ADMITTED: u64 = 2;
const POLICY: u64 = 3;
const SIDE: u64 = 4;

/// The display names of the policies a [`rtdvs_core::policy::PolicyKind`]
/// builds: the closed set a [`KernelEvent::PolicyLoaded`] entry names, so
/// a word can hold the name's index, and a snapshot that names another is
/// corrupt.
pub(crate) const POLICY_NAMES: [&str; 10] = [
    "EDF",
    "RM",
    "StaticEDF",
    "StaticRM",
    "ccEDF",
    "ccRM",
    "laEDF",
    "stochEDF",
    "interval",
    "manual",
];

/// The word of `ev` if it packs, `None` if the side table keeps it.
#[inline]
fn pack(ev: &KernelEvent) -> Option<u64> {
    let (tag, handle, low) = match *ev {
        KernelEvent::Released { handle, invocation } => (RELEASED, handle.raw(), invocation),
        KernelEvent::Completed { handle, invocation } => (COMPLETED, handle.raw(), invocation),
        KernelEvent::Admitted { handle, deferred } => (ADMITTED, handle.raw(), u64::from(deferred)),
        KernelEvent::PolicyLoaded { name } => {
            let at = POLICY_NAMES.iter().position(|known| *known == name)?;
            (POLICY, 0, at as u64)
        }
        _ => return None,
    };
    (handle <= MAX_HANDLE && low <= MAX_LOW)
        .then_some((tag << TAG_SHIFT) | (handle << LOW_BITS) | low)
}

/// The event `word` stands for, `side` being its log's side table. Every
/// word [`EventLog::push`] writes decodes.
#[inline]
fn unpack(word: u64, side: &[(Time, KernelEvent)]) -> Option<KernelEvent> {
    let handle = TaskHandle::from_raw((word >> LOW_BITS) & MAX_HANDLE);
    let low = word & MAX_LOW;
    Some(match word >> TAG_SHIFT {
        RELEASED => KernelEvent::Released {
            handle,
            invocation: low,
        },
        COMPLETED => KernelEvent::Completed {
            handle,
            invocation: low,
        },
        ADMITTED => KernelEvent::Admitted {
            handle,
            deferred: low != 0,
        },
        POLICY => KernelEvent::PolicyLoaded {
            name: POLICY_NAMES.get(usize::try_from(low).ok()?).copied()?,
        },
        _ => side.get(usize::try_from(word & PAYLOAD).ok()?)?.1.clone(),
    })
}

/// The kernel's event log, in time order (see [`crate::eventlog`]).
///
/// It reads as a sequence of `(Time, KernelEvent)` entries; equality and
/// `Debug` compare and print the decoded entries, as a `Vec` of them
/// would.
#[derive(Clone, Default)]
pub struct EventLog {
    records: Vec<Record>,
    /// The entries that do not pack, in log order.
    side: Vec<(Time, KernelEvent)>,
}

impl EventLog {
    /// An empty log. It allocates nothing until the first push.
    #[must_use]
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// An empty log with room for `entries` records. The side table
    /// starts empty and grows on its first entry.
    pub(crate) fn with_capacity(entries: usize) -> EventLog {
        EventLog {
            records: Vec::with_capacity(entries),
            side: Vec::new(),
        }
    }

    /// Appends an entry.
    #[inline]
    pub(crate) fn push(&mut self, (at, ev): (Time, KernelEvent)) {
        let word = match pack(&ev) {
            Some(word) => word,
            None => {
                // A side table of 2^61 entries would not fit in memory, so
                // the index always fits below the tag.
                let word = (SIDE << TAG_SHIFT) | (self.side.len() as u64 & PAYLOAD);
                self.side.push((at, ev));
                word
            }
        };
        self.records.push((at, word));
    }

    /// How many entries the log holds.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log holds no entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Entry `index`, or `None` past the end.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<(Time, KernelEvent)> {
        let &(at, word) = self.records.get(index)?;
        Some((at, unpack(word, &self.side)?))
    }

    /// The last entry, or `None` if the log is empty.
    #[must_use]
    pub fn last(&self) -> Option<(Time, KernelEvent)> {
        self.get(self.len().checked_sub(1)?)
    }

    /// Every entry, in log order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            records: self.records.iter(),
            side: &self.side,
        }
    }

    /// The entries from `index` on, or `None` if `index` is past the end
    /// (an empty walk when it is the end).
    pub(crate) fn iter_from(&self, index: usize) -> Option<Iter<'_>> {
        Some(Iter {
            records: self.records.get(index..)?.iter(),
            side: &self.side,
        })
    }

    /// The entries kept whole, in log order: every entry but the packed
    /// releases, completions, admissions and policy loads. Deadline misses
    /// and overruns never pack, so every one of them is here.
    #[must_use]
    pub fn unpacked(&self) -> &[(Time, KernelEvent)] {
        &self.side
    }

    /// Bytes the entries occupy, records and side table, spare capacity
    /// aside.
    #[must_use]
    pub fn stored_bytes(&self) -> usize {
        size_of::<Record>() * self.records.len()
            + size_of::<(Time, KernelEvent)>() * self.side.len()
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &EventLog) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<(Time, KernelEvent)> for EventLog {
    fn from_iter<I: IntoIterator<Item = (Time, KernelEvent)>>(entries: I) -> EventLog {
        let mut log = EventLog::new();
        for entry in entries {
            log.push(entry);
        }
        log
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = (Time, KernelEvent);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// A walk over an [`EventLog`]'s entries, yielding each decoded, by value.
pub struct Iter<'a> {
    records: core::slice::Iter<'a, Record>,
    side: &'a [(Time, KernelEvent)],
}

impl Iterator for Iter<'_> {
    type Item = (Time, KernelEvent);

    #[inline]
    fn next(&mut self) -> Option<(Time, KernelEvent)> {
        let &(at, word) = self.records.next()?;
        Some((at, unpack(word, self.side)?))
    }

    /// One entry per record left: every record decodes.
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use rtdvs_core::time::Work;

    use super::*;

    fn h(raw: u64) -> TaskHandle {
        TaskHandle::from_raw(raw)
    }

    /// One entry of every variant, then the packing boundaries.
    fn every_kind() -> Vec<(Time, KernelEvent)> {
        let w = Work::from_ms;
        let events = vec![
            KernelEvent::PolicyLoaded { name: "laEDF" },
            KernelEvent::PolicyLoaded {
                name: "not-a-policy",
            },
            KernelEvent::Admitted {
                handle: h(1),
                deferred: false,
            },
            KernelEvent::Admitted {
                handle: h(2),
                deferred: true,
            },
            KernelEvent::Removed { handle: h(2) },
            KernelEvent::Released {
                handle: h(1),
                invocation: 1,
            },
            KernelEvent::Completed {
                handle: h(1),
                invocation: 1,
            },
            KernelEvent::DeadlineMiss {
                handle: h(1),
                invocation: 2,
                remaining: w(0.25),
            },
            KernelEvent::Overrun {
                handle: h(1),
                invocation: 3,
                used: w(4.5),
                bound: w(3.0),
            },
            KernelEvent::Shed {
                handle: h(1),
                observed: w(4.5),
            },
            KernelEvent::Readmitted {
                handle: h(1),
                bound: w(4.5),
            },
            KernelEvent::Degraded { active: true },
            KernelEvent::ModeChangeStaged { ops: 3 },
            KernelEvent::ModeChangeCommitted { epoch: 1 },
            KernelEvent::ModeChangeRejected { utilization: 1.25 },
            KernelEvent::GovernorStretched {
                stretched: 2,
                factor: 1.5,
            },
            KernelEvent::GovernorRelaxed,
            KernelEvent::Renegotiated {
                handle: h(1),
                bound: w(4.5),
            },
            KernelEvent::SnapshotTaken,
            KernelEvent::RegulatorFallback {
                desired: 1,
                applied: 2,
            },
            KernelEvent::BrownoutCapSet { cap: Some(1) },
            KernelEvent::BrownoutCapSet { cap: None },
            KernelEvent::LadderStepped {
                from: "laEDF",
                to: "ccEDF",
            },
            KernelEvent::SupervisorRestored,
            KernelEvent::ClockTickGap { missed: 7 },
            KernelEvent::ClockJumpClamped {
                attempted: Time::from_ms(2.0),
            },
            KernelEvent::ClockWatchdog { engaged: true },
            KernelEvent::ReleaseLate {
                handle: h(1),
                invocation: 4,
                latency: Time::from_ms(0.5),
            },
        ];
        let mut entries: Vec<(Time, KernelEvent)> = events
            .into_iter()
            .enumerate()
            .map(|(i, ev)| (Time::from_ms(i as f64), ev))
            .collect();
        let edges = [
            (MAX_HANDLE, MAX_LOW),
            (MAX_HANDLE + 1, 1),
            (1, MAX_LOW + 1),
            (u64::MAX, u64::MAX),
            (0, 0),
        ];
        for (handle, invocation) in edges {
            let at = Time::from_ms(entries.len() as f64);
            let handle = h(handle);
            entries.push((at, KernelEvent::Released { handle, invocation }));
            entries.push((at, KernelEvent::Completed { handle, invocation }));
            entries.push((
                at,
                KernelEvent::Admitted {
                    handle,
                    deferred: invocation % 2 == 1,
                },
            ));
        }
        entries
    }

    #[test]
    fn every_entry_round_trips() {
        let entries = every_kind();
        let log: EventLog = entries.iter().cloned().collect();
        assert_eq!(log.len(), entries.len());
        assert!(!log.is_empty());
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(log.get(i).as_ref(), Some(entry), "entry {i}");
        }
        assert_eq!(log.get(entries.len()), None);
        assert_eq!(log.last().as_ref(), entries.last());
        assert_eq!(log.iter().collect::<Vec<_>>(), entries);
        assert_eq!((&log).into_iter().len(), entries.len());
        for from in [0, 1, 17, entries.len() - 1, entries.len()] {
            let tail: Vec<_> = log.iter_from(from).expect("within the log").collect();
            assert_eq!(tail, entries[from..], "from {from}");
        }
        assert!(log.iter_from(entries.len() + 1).is_none());

        // Equality and `Debug` see the entries, not the storage.
        let mut rebuilt = EventLog::new();
        for entry in &entries {
            rebuilt.push(entry.clone());
        }
        assert_eq!(rebuilt, log);
        assert_eq!(format!("{log:?}"), format!("{entries:?}"));
        rebuilt.push((Time::ZERO, KernelEvent::SnapshotTaken));
        assert_ne!(rebuilt, log);
        let mut changed = entries.clone();
        if let Some((_, ev)) = changed.last_mut() {
            *ev = KernelEvent::Admitted {
                handle: h(0),
                deferred: true,
            };
        }
        let other: EventLog = changed.into_iter().collect();
        assert_ne!(other, log, "same length, one entry differs");
    }

    #[test]
    fn only_packable_entries_within_range_pack() {
        let entries = every_kind();
        let log: EventLog = entries.iter().cloned().collect();
        let kept: Vec<_> = entries
            .iter()
            .filter(|(_, ev)| pack(ev).is_none())
            .cloned()
            .collect();
        assert_eq!(log.unpacked(), kept.as_slice());
        let fits = |handle: TaskHandle, low: u64| handle.raw() <= MAX_HANDLE && low <= MAX_LOW;
        for (_, ev) in &entries {
            let packs = match *ev {
                KernelEvent::Released { handle, invocation }
                | KernelEvent::Completed { handle, invocation } => fits(handle, invocation),
                KernelEvent::Admitted { handle, .. } => fits(handle, 0),
                KernelEvent::PolicyLoaded { name } => POLICY_NAMES.contains(&name),
                _ => false,
            };
            assert_eq!(pack(ev).is_some(), packs, "{ev:?}");
        }
        // Misses and overruns are in the side table, as `misses()` and
        // `overruns()` rely on.
        for (_, ev) in &entries {
            if matches!(
                ev,
                KernelEvent::DeadlineMiss { .. } | KernelEvent::Overrun { .. }
            ) {
                assert!(log.unpacked().iter().any(|(_, kept)| kept == ev));
            }
        }
        let side = size_of::<(Time, KernelEvent)>();
        assert_eq!(log.stored_bytes(), 16 * entries.len() + side * kept.len());
    }

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(size_of::<Record>(), 16);
    }

    #[test]
    fn an_empty_log_has_no_last_entry() {
        let log = EventLog::new();
        assert!(log.is_empty());
        assert_eq!(log.last(), None);
        assert_eq!(log.iter().next(), None);
        assert_eq!(log.iter_from(0).map(Iterator::count), Some(0));
        assert!(log.iter_from(1).is_none());
        assert_eq!(log, EventLog::with_capacity(8));
        assert_eq!(format!("{log:?}"), "[]");
    }
}
