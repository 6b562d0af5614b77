//! Checkpoint / crash-recovery snapshots of the full kernel state.
//!
//! A [`Snapshot`] is a versioned (`rtdvs-snapshot/v3`), line-oriented text
//! serialization of everything the kernel needs to resume mid-run: the
//! complete event log, the virtual clock, mode epoch, machine, loaded
//! policy kind, energy meter, every task entry (including the
//! demand-generator state of its body — down to the PRNG word of a
//! [`crate::body::UniformBody`] and every lane of an aperiodic server) and
//! the shed list. All floating-point values are written as the hex of their
//! IEEE-754 bits, so a round trip is bit-exact, and the final line carries
//! a checksum of everything above it.
//!
//! The checksum folds the text eight bytes at a time, each word read
//! little-endian, as `h = rotl((h ^ w) · K, 29)` with `K` odd; the last
//! partial word is zero-padded and the length is folded in last. Every
//! step is a bijection of the running state, so changing any one byte is
//! certain to change the checksum, as it was under the byte-serial FNV-1a
//! of v2 (a v3 text is its v2 text with only the version and checksum
//! lines changed), and the state after any whole number of words can be
//! saved and resumed.
//!
//! The layout is log first: the version line, one `ev` line per log entry,
//! then the state stanzas, then the checksum. The log only grows, so the
//! text up to the last `ev` line, and the checksum state at the last word
//! boundary before it ends, depend on the log alone: they are a prefix of
//! every later checkpoint of the same kernel.
//!
//! The writer seals as it writes: one pass appends each line to a buffer
//! pre-sized from the log length and folds the line's whole words into the
//! running checksum. Every [`Snapshot`] carries its log mark: how many `ev`
//! lines its text holds, the byte offset where they end and the checksum
//! state at the last word boundary at or before that offset. The writer
//! records the mark as it passes it. [`Snapshot::from_text`] finds the end
//! of the `ev` run by searching back from the end of the text for the last
//! `ev` line, so it searches only the state stanzas, counts the lines
//! before it and hashes the body in one word loop that saves the state at
//! the mark's boundary. The kernel keeps its last checkpoint as its seal;
//! the next checkpoint copies the text up to the mark, re-reads from that
//! copy the at most seven bytes between the boundary and the mark, writes
//! and hashes only the entries logged since, and then the state stanzas,
//! so a checkpoint costs what was logged since the last one, not the whole
//! uptime. A kernel revived by [`Snapshot::restore`] (or by the supervisor)
//! is sealed with the snapshot it came from, so its first checkpoint is no
//! dearer than any other.
//!
//! That is sound because the reader accepts exactly what the writer emits
//! and nothing else: tokens are separated by one space, every line ends in
//! a lone `\n` (the version line included), floats are exactly 16
//! lower-case hex digits, decimals are canonical (no sign, no leading zero)
//! and flags are `0` or `1`. Every field of an `ev` record round-trips
//! bit for bit, so an accepted `ev` run is byte for byte what the writer
//! emits for the log it decodes, and extending it equals a full write.
//!
//! The checksum catches a torn or accidentally altered text at load; it
//! does not authenticate. Anyone can edit a snapshot and reseal it, so
//! restore checks every field it decodes — a non-finite time, an
//! out-of-range policy or meter parameter, an impossible count — holds
//! the log to the lifecycle rules of the audit's clock-monotonicity,
//! epoch-monotonicity and log-consistency checks, and the state stanzas to
//! the log they follow, answering [`SnapshotError::Corrupt`] instead of
//! panicking. Restore relies on the checks done when the [`Snapshot`] was
//! constructed (see the type) and does not repeat them.
//!
//! What is *not* serialized is the policy module's internal state (a
//! `dyn DvsPolicy` is opaque). Restore rebuilds the policy from its
//! [`PolicyKind`] and conservatively re-seeds it exactly like a live
//! policy swap does, so the restored run keeps every deadline guarantee —
//! it may briefly make different (never unsafe) frequency choices than the
//! uninterrupted run until the policy's own state converges. Stateless
//! policies resume bit-identically.
//!
//! Capture is refused — cleanly, with no partial output — when the kernel
//! holds a body that cannot be serialized (a closure) or has a staged
//! mode-change transaction in flight (the transaction owns un-run bodies;
//! checkpoint either before submission or after the safe point).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use rtdvs_core::analysis::RmTest;
use rtdvs_core::machine::Machine;
use rtdvs_core::policy::PolicyKind;
use rtdvs_core::sched::SchedulerKind;
use rtdvs_core::task::Task;
use rtdvs_core::time::{Time, Work};
use rtdvs_core::view::InvState;
use rtdvs_sim::{EnergyMeter, SwitchOverhead, Trace};

use crate::body::{
    BodyState, ColdStartBody, FractionBody, OverrunBody, TaskBody, UniformBody, WcetBody,
};
use crate::kernel::{Entry, KernelEvent, RtKernel, ShedTask, TaskHandle};
use crate::tenants::{
    CompletedJob, JobId, JobRecord, ServerSnapshot, TenantLaneSnapshot, TenantServer,
};

/// The format tag on a snapshot's first line.
pub const SNAPSHOT_VERSION: &str = "rtdvs-snapshot/v3";

/// The version line's length, with its `\n`.
const VERSION_LINE_BYTES: usize = SNAPSHOT_VERSION.len() + 1;

/// The checksum line: the tag, 16 hex digits and the `\n`.
const CHECKSUM_LINE_BYTES: usize = "checksum ".len() + 16 + 1;

/// Why a checkpoint could not be taken or a snapshot could not be loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A task's body cannot be serialized (e.g. a closure body); the
    /// handle names the offender.
    OpaqueBody(TaskHandle),
    /// A mode-change transaction is staged; its un-run bodies cannot be
    /// captured. Checkpoint before submitting or after the safe point.
    PendingModeChange,
    /// The text is not a complete, well-formed snapshot.
    Corrupt(String),
    /// The trailing checksum does not match the content — the snapshot
    /// was torn mid-write or altered.
    ChecksumMismatch,
    /// The first line names a version this build cannot read.
    UnsupportedVersion(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::OpaqueBody(h) => {
                write!(f, "task {h} has a body that cannot be serialized")
            }
            SnapshotError::PendingModeChange => write!(
                f,
                "a mode-change transaction is staged; checkpoint after its safe point"
            ),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::ChecksumMismatch => {
                write!(f, "snapshot checksum mismatch (torn or altered)")
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v:?}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Where a snapshot's `ev` run ends: how many `ev` lines the text holds,
/// the byte offset past the last one and the checksum state after the
/// whole words before that offset, that is at the last word boundary at
/// or before it (`end & !7`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogMark {
    events: usize,
    end: usize,
    hash: u64,
}

/// A validated, self-checksummed kernel checkpoint.
///
/// The text is private and never changes, and only two constructors make
/// one: [`Snapshot::from_text`], which checks the version line and the
/// checksum, and [`RtKernel::checkpoint`], which writes and seals the text
/// itself. Every `Snapshot` therefore holds a text that passed those
/// checks, and [`Snapshot::restore`] does not repeat them. Both record the
/// text's log mark (see [`crate::snapshot`]), with the checksum state at
/// its word boundary, which the next checkpoint of a kernel sealed with
/// this snapshot resumes.
///
/// The text is shared, not copied: a clone, and the seal a kernel keeps
/// of its last checkpoint or of the snapshot it was revived from, hold
/// the same allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    text: Arc<String>,
    log: LogMark,
}

impl Snapshot {
    /// The snapshot's serialized form (what you would write to stable
    /// storage).
    #[must_use]
    pub fn as_text(&self) -> &str {
        self.text.as_str()
    }

    /// Parses and checksum-validates serialized snapshot text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedVersion`] for a foreign format,
    /// [`SnapshotError::ChecksumMismatch`] for torn or altered text, and
    /// [`SnapshotError::Corrupt`] for structural damage, a version or
    /// checksum line not in the writer's spelling included.
    pub fn from_text(text: &str) -> Result<Snapshot, SnapshotError> {
        if text
            .strip_prefix(SNAPSHOT_VERSION)
            .is_none_or(|r| !r.starts_with('\n'))
        {
            return Err(version_error(text));
        }
        let split = text.len().saturating_sub(CHECKSUM_LINE_BYTES);
        let (Some(body), Some(tail)) = (text.get(..split), text.get(split..)) else {
            return Err(SnapshotError::Corrupt("missing checksum line".into()));
        };
        let claimed = tail
            .strip_prefix("checksum ")
            .and_then(|t| t.strip_suffix('\n'))
            .and_then(|digits| hex16(digits.as_bytes()));
        let (Some(claimed), true) = (claimed, body.ends_with('\n')) else {
            return Err(SnapshotError::Corrupt("malformed checksum line".into()));
        };
        // One word loop over the body, saving the state at the mark's
        // boundary on the way. A text whose `ev` lines are not one run
        // after the version line is left for `parse_log` to refuse.
        let bytes = body.as_bytes();
        let end = ev_run_end(body);
        let (hash, boundary) = sum_words(SUM_SEED, bytes.get(..end).unwrap_or_default(), 0);
        if sum_resume(hash, boundary, bytes) != claimed {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let run = bytes.get(VERSION_LINE_BYTES..end).unwrap_or_default();
        Ok(Snapshot {
            text: Arc::new(text.to_owned()),
            log: LogMark {
                events: line_count(run),
                end,
                hash,
            },
        })
    }

    /// Revives the kernel this snapshot captured, plus a fresh
    /// [`TenantServer`] handle for every server task in it, the same
    /// handles [`RtKernel::tenant_servers`] lists (the pre-crash handles
    /// are gone with the crashed process). A polling server comes back as
    /// its one-lane server: submit to [`crate::tenants::POLLING_LANE`].
    ///
    /// The revived kernel is sealed with this snapshot, so its first
    /// checkpoint extends this text's log section rather than rewriting
    /// it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for a text whose checksum holds but whose
    /// content does not decode to a kernel this build can run (an edited
    /// and resealed snapshot), a log that breaks the task lifecycle
    /// included.
    pub fn restore(&self) -> Result<(RtKernel, Vec<(TaskHandle, TenantServer)>), SnapshotError> {
        let (mut kernel, servers) = restore_from_text(&self.text, self.log)?;
        // The reader accepted the `ev` run, so it is the writer's bytes for
        // the log it decoded, and the next checkpoint may extend it.
        kernel.seal = Some(self.clone());
        Ok((kernel, servers))
    }
}

/// Where the `ev` run of `body` (a text up to its checksum line, starting
/// with the version line) ends: past the last line that starts with
/// `ev `, searched for back from the end, so that only the state stanzas
/// are searched and not the log; right after the version line when no
/// line does.
fn ev_run_end(body: &str) -> usize {
    // From the version line's `\n`, so a first `ev` line is found too.
    let from = VERSION_LINE_BYTES.saturating_sub(1);
    let last = body.get(from..).and_then(|run| run.rfind("\nev "));
    let Some(line) = last.map(|at| from.saturating_add(at).saturating_add(1)) else {
        return VERSION_LINE_BYTES.min(body.len());
    };
    let rest = body.get(line..).unwrap_or_default();
    rest.find('\n')
        .map_or(body.len(), |len| line.saturating_add(len).saturating_add(1))
}

/// How many `\n` bytes `bytes` holds, counted in blocks of at most 255
/// bytes so that each block's count is a `u8` sum the compiler
/// vectorizes.
fn line_count(bytes: &[u8]) -> usize {
    bytes
        .chunks(255)
        .map(|block| usize::from(block.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
        .sum()
}

/// Why `text`, which does not start with the version line, is refused:
/// the writer's version spelled with a `\r\n` is corrupt, anything else
/// foreign.
fn version_error(text: &str) -> SnapshotError {
    let first = text.split('\n').next().unwrap_or_default();
    if text.is_empty() {
        SnapshotError::Corrupt("empty text".into())
    } else if first.trim_end_matches('\r') == SNAPSHOT_VERSION {
        SnapshotError::Corrupt("the version line does not end in a lone \\n".into())
    } else {
        SnapshotError::UnsupportedVersion(first.to_string())
    }
}

impl RtKernel {
    /// Takes a checkpoint of the complete kernel state.
    ///
    /// On success the kernel notes the checkpoint in its own history — a
    /// [`KernelEvent::SnapshotTaken`] entry and the `last_snapshot` procfs
    /// field — *before* serializing, so the snapshot itself records where
    /// it was taken and audit replay of a restored run can see the stitch
    /// point. A refused checkpoint leaves the kernel untouched.
    ///
    /// The text's log section is the kernel's seal's, extended by the
    /// entries logged since (see [`crate::snapshot`]), so the cost is
    /// what was logged since the last checkpoint or restore plus the
    /// state stanzas.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::OpaqueBody`] if any task body is not serializable,
    /// [`SnapshotError::PendingModeChange`] while a transaction is staged.
    pub fn checkpoint(&mut self) -> Result<Snapshot, SnapshotError> {
        if self.pending_change.is_some() {
            return Err(SnapshotError::PendingModeChange);
        }
        // Capture every body up front so failure cannot mutate anything and
        // serialization below never has to re-ask a body for its state.
        let mut entry_bodies = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            match e.body.snapshot_state() {
                Some(state) => entry_bodies.push(state),
                None => return Err(SnapshotError::OpaqueBody(e.handle)),
            }
        }
        let mut shed_bodies = Vec::with_capacity(self.shed.len());
        for s in &self.shed {
            match s.body.snapshot_state() {
                Some(state) => shed_bodies.push(state),
                None => return Err(SnapshotError::OpaqueBody(s.handle)),
            }
        }
        self.last_snapshot_at = Some(self.now);
        self.log.push((self.now, KernelEvent::SnapshotTaken));
        let snap = write_kernel(self, self.seal.as_ref(), &entry_bodies, &shed_bodies);
        self.seal = Some(snap.clone());
        Ok(snap)
    }
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// The checksum's state before the first word.
const SUM_SEED: u64 = 0x243f_6a88_85a3_08d3;
/// The checksum's multiplier: odd, so multiplying by it is a bijection.
const SUM_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Folds the word `w` into the checksum state `h`. For each `w` this is a
/// bijection of `h` (an xor, a multiplication by an odd number and a
/// rotation), and for each `h` an injection of `w`, so a changed word
/// changes the state and every step after keeps it changed.
fn sum_step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(SUM_MUL).rotate_left(29)
}

/// Folds the whole words of `body` from byte `from`, a word boundary,
/// into the checksum state `h`, each read little-endian; returns the
/// state and the word boundary it reached. The bytes past that boundary,
/// at most seven, are left for a later call or for [`sum_resume`].
fn sum_words(h: u64, body: &[u8], from: usize) -> (u64, usize) {
    let (words, tail) = body.get(from..).unwrap_or_default().as_chunks::<8>();
    let h = words
        .iter()
        .fold(h, |h, &w| sum_step(h, u64::from_le_bytes(w)));
    (h, body.len().saturating_sub(tail.len()))
}

/// The checksum of `body`, whose words before `from`, a word boundary,
/// are folded into the state `h`: the rest of its whole words, then its
/// last partial word zero-padded, then its length.
fn sum_resume(h: u64, from: usize, body: &[u8]) -> u64 {
    let (h, boundary) = sum_words(h, body, from);
    let tail = body.get(boundary..).unwrap_or_default();
    let h = if tail.is_empty() {
        h
    } else {
        let mut word = [0u8; 8];
        word.iter_mut().zip(tail).for_each(|(w, &b)| *w = b);
        sum_step(h, u64::from_le_bytes(word))
    };
    sum_step(h, body.len() as u64)
}

/// Buffer bytes reserved per log line. A typical `ev` line (hex time,
/// event word, small handle and invocation numbers) is 35–40 bytes, so a
/// checkpoint of a long log fills its buffer without regrowing it.
const EV_LINE_BYTES: usize = 40;
/// Buffer bytes reserved per header, meter-point, entry and shed line.
const LINE_BYTES: usize = 256;

/// The one-pass snapshot writer. Every token goes straight into one
/// pre-sized buffer — hex and decimal digits in place, no per-token
/// `String` — and [`Writer::end`] folds the whole words of each finished
/// line into the running checksum state while they are still in cache,
/// so the checksum line costs no second walk over the text.
struct Writer {
    out: String,
    /// Bytes of `out` already folded into `hash`: always a word boundary,
    /// with at most seven bytes of `out` after it once a line has ended.
    hashed: usize,
    hash: u64,
}

impl Writer {
    /// Appends `s` with no separator: a line's tag, or the tail of a
    /// compound token.
    fn tag(&mut self, s: &str) -> &mut Writer {
        self.out.push_str(s);
        self
    }

    fn word(&mut self, word: &str) -> &mut Writer {
        self.out.push(' ');
        self.tag(word)
    }

    /// 16 lowercase hex digits, no separator.
    fn hex(&mut self, bits: u64) -> &mut Writer {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        for shift in (0..16).rev() {
            let nibble = (bits >> (4 * shift)) as usize & 0xf;
            let digit = DIGITS.get(nibble).copied().unwrap_or(b'0');
            self.out.push(char::from(digit));
        }
        self
    }

    /// Decimal digits, no separator.
    fn decimal(&mut self, mut v: u64) -> &mut Writer {
        let mut digits = [0u8; 20];
        let mut len = 0;
        for d in &mut digits {
            *d = b'0' + (v % 10) as u8;
            v /= 10;
            len += 1;
            if v == 0 {
                break;
            }
        }
        for &d in digits.iter().take(len).rev() {
            self.out.push(char::from(d));
        }
        self
    }

    fn bits(&mut self, bits: u64) -> &mut Writer {
        self.out.push(' ');
        self.hex(bits)
    }

    /// A float as the hex of its IEEE-754 bits: bit-exact, NaN payloads
    /// and the sign of zero included.
    fn f64(&mut self, v: f64) -> &mut Writer {
        self.bits(v.to_bits())
    }

    fn time(&mut self, t: Time) -> &mut Writer {
        self.f64(t.as_ms())
    }

    fn work(&mut self, w: Work) -> &mut Writer {
        self.f64(w.as_ms())
    }

    fn num(&mut self, v: u64) -> &mut Writer {
        self.out.push(' ');
        self.decimal(v)
    }

    fn index(&mut self, v: usize) -> &mut Writer {
        self.num(v as u64)
    }

    fn handle(&mut self, h: TaskHandle) -> &mut Writer {
        self.num(h.raw())
    }

    /// A policy's display name (an `ev` field codec, like `handle`).
    fn policy_name(&mut self, name: &str) -> &mut Writer {
        self.word(name)
    }

    fn flag(&mut self, b: bool) -> &mut Writer {
        self.word(if b { "1" } else { "0" })
    }

    /// A point index, or `none`.
    fn opt_point(&mut self, p: Option<usize>) -> &mut Writer {
        match p {
            Some(p) => self.index(p),
            None => self.word("none"),
        }
    }

    fn policy(&mut self, kind: PolicyKind) -> &mut Writer {
        match kind {
            PolicyKind::PlainEdf => self.word("edf"),
            PolicyKind::PlainRm => self.word("rm"),
            PolicyKind::StaticEdf => self.word("static-edf"),
            PolicyKind::StaticRm(t) => self.word("static-rm:").tag(rm_test_token(t)),
            PolicyKind::CcEdf => self.word("cc-edf"),
            PolicyKind::CcRm(t) => self.word("cc-rm:").tag(rm_test_token(t)),
            PolicyKind::LaEdf => self.word("la-edf"),
            PolicyKind::StochasticEdf { confidence } => {
                self.word("stoch-edf:").hex(confidence.to_bits())
            }
            PolicyKind::Interval => self.word("interval"),
            PolicyKind::Manual { scheduler, point } => {
                let scheduler = match scheduler {
                    SchedulerKind::Edf => "edf",
                    SchedulerKind::Rm => "rm",
                };
                let point = point as u64;
                self.word("manual:").tag(scheduler).tag(":").decimal(point)
            }
        }
    }

    /// Ends the line and folds the whole words written since the last
    /// fold into the checksum.
    fn end(&mut self) {
        self.out.push('\n');
        (self.hash, self.hashed) = sum_words(self.hash, self.out.as_bytes(), self.hashed);
    }

    /// The checksum of everything written, at the end of a line.
    fn sum(&self) -> u64 {
        sum_resume(self.hash, self.hashed, self.out.as_bytes())
    }

    fn body_state(&mut self, b: &BodyState) -> &mut Writer {
        match b {
            BodyState::Wcet => self.word("wcet"),
            BodyState::Fraction(f) => self.word("fraction").f64(*f),
            BodyState::Uniform { rng_state } => self.word("uniform").bits(*rng_state),
            BodyState::Overrun {
                base_state,
                fault_state,
                rate,
                factor,
                from,
                until,
            } => self
                .word("overrun")
                .bits(*base_state)
                .bits(*fault_state)
                .f64(*rate)
                .f64(*factor)
                .num(*from)
                .num(*until),
            BodyState::ColdStart { surcharge, inner } => {
                self.word("coldstart").f64(*surcharge).body_state(inner)
            }
            // The shared counters, then one lane record per tenant.
            BodyState::Server(s) => {
                self.word("tserver")
                    .num(s.next_id)
                    .work(s.served)
                    .num(s.forfeited_releases)
                    .index(s.tenants.len());
                for l in &s.tenants {
                    self.num(l.tenant)
                        .work(l.quota)
                        .index(l.max_backlog)
                        .work(l.budget_remaining)
                        .flag(l.quarantined)
                        .num(u64::from(l.over_streak))
                        .num(l.shed)
                        .num(l.rejected)
                        .num(l.served_jobs)
                        .work(l.served_work)
                        .jobs(&l.queue, &l.finishing, &l.completed);
                }
                self
            }
        }
    }

    /// A lane's queued, finishing and completed jobs, each list prefixed
    /// with its length.
    fn jobs(
        &mut self,
        queue: &[JobRecord],
        finishing: &[JobRecord],
        completed: &[CompletedJob],
    ) -> &mut Writer {
        for list in [queue, finishing] {
            self.index(list.len());
            for r in list {
                self.num(r.id)
                    .time(r.arrival)
                    .work(r.total)
                    .work(r.remaining);
            }
        }
        self.index(completed.len());
        for c in completed {
            self.num(c.id.raw())
                .time(c.arrival)
                .time(c.completed)
                .work(c.work);
        }
        self
    }
}

/// The `ev` record of every [`KernelEvent`]: its word, then its fields in
/// token order, each with its codec — a [`Writer`] method and the [`Cursor`]
/// method of the same name. This one table generates both
/// `Writer::event` and `parse_event`; the writer's match is exhaustive,
/// so a new variant does not compile until it has a row here.
macro_rules! event_records {
    ($($variant:ident $word:literal { $($field:ident: $codec:ident),* })*) => {
        impl Writer {
            fn event(&mut self, ev: &KernelEvent) -> &mut Writer {
                match ev {
                    $(KernelEvent::$variant { $($field),* } => {
                        self.word($word)$(.$codec(*$field))*
                    })*
                }
            }
        }

        // Inlined into the `ev` loop, which a restore runs once per log
        // entry: a call returning the event costs a third of a line.
        #[inline(always)]
        fn parse_event(c: &mut Cursor<'_>) -> Result<KernelEvent, SnapshotError> {
            match c.word()? {
                $($word => Ok(KernelEvent::$variant { $($field: c.$codec()?),* }),)*
                w => Err(corrupt(format!("unknown event {w:?}"))),
            }
        }
    };
}

event_records! {
    Admitted "admitted" { handle: handle, deferred: flag }
    Removed "removed" { handle: handle }
    Released "released" { handle: handle, invocation: num }
    Completed "completed" { handle: handle, invocation: num }
    DeadlineMiss "miss" { handle: handle, invocation: num, remaining: work }
    Overrun "overrun" { handle: handle, invocation: num, used: work, bound: work }
    PolicyLoaded "policy" { name: policy_name }
    Shed "shed" { handle: handle, observed: work }
    Readmitted "readmitted" { handle: handle, bound: work }
    Degraded "degraded" { active: flag }
    ModeChangeStaged "mc-staged" { ops: index }
    ModeChangeCommitted "mc-committed" { epoch: num }
    ModeChangeRejected "mc-rejected" { utilization: f64 }
    GovernorStretched "gov-stretched" { stretched: index, factor: f64 }
    GovernorRelaxed "gov-relaxed" {}
    Renegotiated "renegotiated" { handle: handle, bound: work }
    SnapshotTaken "snapshot" {}
    RegulatorFallback "reg-fallback" { desired: index, applied: index }
    BrownoutCapSet "cap" { cap: opt_point }
    LadderStepped "ladder" { from: policy_name, to: policy_name }
    SupervisorRestored "sup-restored" {}
    ClockTickGap "clock-gap" { missed: num }
    ClockJumpClamped "clock-jump" { attempted: time }
    ClockWatchdog "clock-watchdog" { engaged: flag }
    ReleaseLate "release-late" { handle: handle, invocation: num, latency: time }
}

/// Writes `k`'s checkpoint text and records its log mark. A `seal`, an
/// earlier snapshot of `k` or the one it was revived from, supplies the
/// version line and the `ev` lines it holds, with the checksum state at
/// their last word boundary; the writer folds the bytes after that
/// boundary again from its copy of them. A seal that does not fit the log
/// falls through to writing the whole text.
fn write_kernel(
    k: &RtKernel,
    seal: Option<&Snapshot>,
    entry_bodies: &[BodyState],
    shed_bodies: &[BodyState],
) -> Snapshot {
    let sealed = seal.and_then(|s| {
        Some((
            s.text.get(..s.log.end)?,
            s.log.hash,
            k.log.get(s.log.events..)?,
        ))
    });
    let (prefix, hash, fresh) = sealed.unwrap_or(("", SUM_SEED, k.log.as_slice()));
    let lines = 23 + k.machine.len() + k.entries.len() + k.shed.len();
    let mut w = Writer {
        out: String::with_capacity(prefix.len() + LINE_BYTES * lines + EV_LINE_BYTES * fresh.len()),
        hashed: prefix.len() & !7,
        hash,
    };
    w.out.push_str(prefix);
    if prefix.is_empty() {
        w.tag(SNAPSHOT_VERSION).end();
    }
    for (t, ev) in fresh {
        w.tag("ev").time(*t).event(ev).end();
    }
    let log = LogMark {
        events: k.log.len(),
        end: w.out.len(),
        hash: w.hash,
    };
    w.tag("clock").time(k.now).end();
    w.tag("epoch").num(k.mode_epoch).end();
    w.tag("next-handle").num(k.next_handle).end();
    w.tag("switches").num(k.switches).end();
    w.tag("stall-until").time(k.stall_until).end();
    w.tag("applied").opt_point(k.applied).end();
    w.tag("flags")
        .flag(k.account_switch_overhead)
        .flag(k.defer_new_tasks)
        .flag(k.degrade_on_fault)
        .flag(k.trace.is_some())
        .end();
    match k.switch_overhead {
        Some(ov) => w.tag("overhead").time(ov.freq_only).time(ov.voltage_change),
        None => w.tag("overhead none"),
    }
    .end();
    match k.last_snapshot_at {
        Some(t) => w.tag("last-snapshot").time(t),
        None => w.tag("last-snapshot none"),
    }
    .end();
    w.tag("cap").opt_point(k.brownout_cap).end();
    w.tag("ladder")
        .index(k.ladder_pos)
        .time(k.ladder_review_at)
        .num(k.fallbacks_at_review)
        .policy(k.preferred_policy)
        .end();
    w.tag("regulator-stats")
        .num(k.transition_retries)
        .num(k.transition_failures)
        .num(k.regulator_fallbacks)
        .num(k.forced_transitions)
        .end();
    // Time-base stanza: written only when something was observed, so a
    // kernel that never saw a clock fault serializes exactly as before
    // (and old snapshots restore to the default time base).
    if !k.timebase.is_default_state() {
        let tb = &k.timebase;
        w.tag("timebase")
            .f64(tb.ewma_err_ms)
            .num(tb.clamped_jumps)
            .time(tb.last_clamp)
            .num(tb.max_catch_up)
            .num(tb.pending_gap)
            .flag(tb.pending_catch_up)
            .flag(tb.watchdog)
            .end();
    }
    w.tag("machine").index(k.machine.len());
    for p in k.machine.points() {
        w.f64(p.freq).f64(p.volts);
    }
    w.word(k.machine.name()).end();
    w.tag("policy").policy(k.policy_kind).end();
    let meter = &k.meter;
    w.tag("meter")
        .f64(meter.idle_level())
        .f64(meter.busy_energy())
        .f64(meter.idle_energy())
        .time(meter.stall_time())
        .index(meter.busy_time().len())
        .end();
    let points = meter.busy_time().iter().zip(meter.idle_time());
    for ((&busy, &idle), &work) in points.zip(meter.work_done()) {
        w.tag("meter-point").time(busy).time(idle).work(work).end();
    }
    w.tag("entries").index(k.entries.len()).end();
    for (e, body) in k.entries.iter().zip(entry_bodies) {
        w.tag("entry")
            .handle(e.handle)
            .time(e.user_spec.period())
            .work(e.user_spec.wcet())
            .time(e.nominal_period)
            .num(e.invocation)
            .word(state_token(e.state))
            .work(e.executed)
            .work(e.actual)
            .time(e.deadline)
            .time(e.next_release)
            .flag(e.deferred)
            .flag(e.overrun_logged)
            .work(e.observed_peak)
            .flag(e.pending_shed)
            .body_state(body)
            .end();
    }
    w.tag("shed-tasks").index(k.shed.len()).end();
    for (s, body) in k.shed.iter().zip(shed_bodies) {
        w.tag("shed")
            .handle(s.handle)
            .time(s.period)
            .work(s.wcet)
            .work(s.observed_peak)
            .num(s.invocation)
            .time(s.next_attempt)
            .body_state(body)
            .end();
    }
    // The checksum line covers everything above it, and not itself.
    let sum = w.sum();
    w.tag("checksum").bits(sum).out.push('\n');
    Snapshot {
        text: Arc::new(w.out),
        log,
    }
}

fn rm_test_token(t: RmTest) -> &'static str {
    match t {
        RmTest::LiuLayland => "ll",
        RmTest::SchedulingPoints => "sp",
        RmTest::ResponseTime => "rt",
    }
}

fn state_token(s: InvState) -> &'static str {
    match s {
        InvState::Inactive => "inactive",
        InvState::Active => "active",
        InvState::Completed => "completed",
    }
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

fn corrupt(what: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(what.into())
}

/// Decodes exactly 16 lower-case hex digits, the only spelling the writer
/// gives a float or a PRNG word.
fn hex16(digits: &[u8]) -> Option<u64> {
    let (hi, lo) = digits.split_at_checked(8)?;
    let hi = hex8(hi.try_into().ok()?)?;
    let lo = hex8(lo.try_into().ok()?)?;
    Some(u64::from(hi) << 32 | u64::from(lo))
}

/// Decodes 8 lower-case hex digits at once, with no branch per digit:
/// each byte of `x` is range-checked and turned into its nibble in
/// place, then the nibbles are packed pairwise.
fn hex8(digits: [u8; 8]) -> Option<u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let x = u64::from_be_bytes(digits);
    // With every byte below 0x80, adding `0x80 - lo` sets a byte's high
    // bit exactly when the byte is at least `lo`, with no carry out.
    let at_least = |lo: u64| x.wrapping_add((0x80 - lo) * ONES) & HIGH;
    let digit = at_least(0x30) & !at_least(0x3a);
    let letter = at_least(0x61) & !at_least(0x67);
    if x & HIGH != 0 || digit | letter != HIGH {
        return None;
    }
    // '0'..'9' keep their low nibble, 'a'..'f' (0x61..0x66) add 9 to it.
    let nibbles = (x & (0x0f * ONES)) + (letter >> 7) * 9;
    let pairs = (nibbles | nibbles >> 4) & 0x00ff_00ff_00ff_00ff;
    let quads = (pairs | pairs >> 8) & 0x0000_ffff_0000_ffff;
    u32::try_from((quads | quads >> 16) & 0xffff_ffff).ok()
}

/// Decodes the canonical decimal `digits` start with — no sign, no
/// leading zero, within `u64` — and how many bytes it spans.
fn decimal_prefix(digits: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut len = 0;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
        len += 1;
    }
    let leading_zero = len > 1 && digits.first() == Some(&b'0');
    (len > 0 && !leading_zero).then_some((v, len))
}

/// Decodes a token that is one canonical decimal and nothing else.
fn decimal_token(tok: &str) -> Option<u64> {
    match decimal_prefix(tok.as_bytes()) {
        Some((v, len)) if len == tok.len() => Some(v),
        _ => None,
    }
}

/// Decodes a time or work field. A non-finite value would panic in
/// `Time::from_ms`/`Work::from_ms`, so it is corrupt.
fn finite_ms(bits: u64) -> Result<f64, SnapshotError> {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        Ok(v)
    } else {
        Err(corrupt(format!("non-finite time or work {bits:016x}")))
    }
}

/// The largest magnitude of a stall duration, drift estimate or demand
/// multiplier: the kernel's far future, 10^15 ms. A running kernel's own
/// values stay far below it, and within it the doublings, backoff
/// scalings and demand products the kernel takes of them stay finite.
const MAX_SCALAR: f64 = 1e15;

/// Decodes a stall duration, drift estimate or demand multiplier.
fn bounded(v: f64) -> Result<f64, SnapshotError> {
    if v.abs() <= MAX_SCALAR {
        Ok(v)
    } else {
        Err(corrupt(format!("{v:e} is out of range")))
    }
}

/// Byte cursor over a snapshot text that accepts exactly what [`Writer`]
/// emits. Each reader mirrors the [`Writer`] method of the same name: it
/// takes the one space the writer puts before a token, then the token in
/// the writer's spelling, and [`Cursor::eol`] takes the lone `\n` that
/// ends a line. Nothing is split or searched for but a word's end, and
/// every byte is taken with `get`.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor on byte `pos` of `text`.
    fn new(text: &'a str, pos: usize) -> Cursor<'a> {
        Cursor { text, pos }
    }

    /// The bytes from the cursor to the end of the text.
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// What the cursor is on, for an error message: the rest of its line.
    fn here(&self) -> &'a str {
        let rest = self.text.get(self.pos..).unwrap_or_default();
        rest.split('\n').next().unwrap_or_default()
    }

    fn fail<T>(&self, what: &str) -> Result<T, SnapshotError> {
        Err(corrupt(format!("{what} at {:?}", self.here())))
    }

    /// Steps over the bytes a token spans and returns its value, or fails
    /// with `what` when there is no such token.
    fn advance<T>(&mut self, token: Option<(T, usize)>, what: &str) -> Result<T, SnapshotError> {
        match token {
            Some((v, len)) => {
                self.pos = self.pos.saturating_add(len);
                Ok(v)
            }
            None => self.fail(what),
        }
    }

    /// Steps over `lit` if the cursor is on it.
    fn skip(&mut self, lit: &str) -> bool {
        let hit = self.rest().starts_with(lit.as_bytes());
        if hit {
            self.pos = self.pos.saturating_add(lit.len());
        }
        hit
    }

    /// The one space before a token.
    fn sep(&mut self) -> Result<(), SnapshotError> {
        if self.skip(" ") {
            Ok(())
        } else {
            self.fail("expected one space")
        }
    }

    /// The lone `\n` that ends a line.
    fn eol(&mut self) -> Result<(), SnapshotError> {
        if self.skip("\n") {
            Ok(())
        } else {
            self.fail("expected the end of the line")
        }
    }

    /// Whether the line at the cursor carries `tag`.
    fn at_tag(&self, tag: &str) -> bool {
        let rest = self.rest();
        rest.starts_with(tag.as_bytes()) && matches!(rest.get(tag.len()), Some(b' ' | b'\n'))
    }

    /// A line's tag, at the start of the line.
    fn tag(&mut self, tag: &str) -> Result<(), SnapshotError> {
        if self.at_tag(tag) {
            self.pos = self.pos.saturating_add(tag.len());
            Ok(())
        } else {
            self.fail(&format!("expected a {tag:?} line"))
        }
    }

    /// Reads a line that holds `tag` and exactly one value.
    fn one<T>(
        &mut self,
        tag: &str,
        value: impl FnOnce(&mut Cursor<'a>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.tag(tag)?;
        let v = value(self)?;
        self.eol()?;
        Ok(v)
    }

    /// The text from the cursor up to the first byte `end` accepts, or
    /// `None` when no byte does.
    fn until(&self, end: impl Fn(u8) -> bool) -> Option<(&'a str, usize)> {
        let len = self.rest().iter().position(|&b| end(b))?;
        let s = self.text.get(self.pos..self.pos.saturating_add(len))?;
        Some((s, len))
    }

    /// A word: the bytes up to the next space or `\n`, at least one.
    fn word(&mut self) -> Result<&'a str, SnapshotError> {
        self.sep()?;
        let word = self
            .until(|b| b == b' ' || b == b'\n')
            .filter(|&(_, len)| len > 0);
        self.advance(word, "expected a word")
    }

    /// Everything up to the `\n`, the machine name's spelling: it is the
    /// line's last field and may hold any other byte.
    fn rest_of_line(&mut self) -> Result<&'a str, SnapshotError> {
        self.sep()?;
        let rest = self.until(|b| b == b'\n');
        self.advance(rest, "expected the end of the line")
    }

    /// 16 lower-case hex digits, no separator.
    fn hex(&mut self) -> Result<u64, SnapshotError> {
        let digits = self.rest().get(..16).and_then(hex16).map(|v| (v, 16));
        self.advance(digits, "expected 16 lower-case hex digits")
    }

    /// Canonical decimal digits, no separator.
    fn decimal(&mut self) -> Result<u64, SnapshotError> {
        self.advance(decimal_prefix(self.rest()), "expected a canonical decimal")
    }

    fn bits(&mut self) -> Result<u64, SnapshotError> {
        self.sep()?;
        self.hex()
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.bits()?))
    }

    fn time(&mut self) -> Result<Time, SnapshotError> {
        Ok(Time::from_ms(finite_ms(self.bits()?)?))
    }

    fn work(&mut self) -> Result<Work, SnapshotError> {
        Ok(Work::from_ms(finite_ms(self.bits()?)?))
    }

    fn num(&mut self) -> Result<u64, SnapshotError> {
        self.sep()?;
        self.decimal()
    }

    fn index(&mut self) -> Result<usize, SnapshotError> {
        let v = self.num()?;
        usize::try_from(v).map_err(|_| corrupt(format!("index {v} out of range")))
    }

    /// A count or position the running kernel increments. No kernel
    /// counts into the top half of its counter's range (2^63 events take
    /// 292 years at one per nanosecond), so such a count is forged, and
    /// incrementing it would overflow.
    fn count<T: TryFrom<u64>>(&mut self) -> Result<T, SnapshotError> {
        let v = self.num()?;
        match (v.checked_mul(2).map(T::try_from), T::try_from(v)) {
            (Some(Ok(_)), Ok(c)) => Ok(c),
            _ => Err(corrupt(format!("count {v} leaves no headroom"))),
        }
    }

    fn handle(&mut self) -> Result<TaskHandle, SnapshotError> {
        Ok(TaskHandle::from_raw(self.num()?))
    }

    fn policy_name(&mut self) -> Result<&'static str, SnapshotError> {
        intern_policy_name(self.word()?)
    }

    fn flag(&mut self) -> Result<bool, SnapshotError> {
        self.sep()?;
        if self.skip("0") {
            Ok(false)
        } else if self.skip("1") {
            Ok(true)
        } else {
            self.fail("expected a 0 or 1 flag")
        }
    }

    /// `none`, or the value `some` reads with no separator.
    fn opt<T>(
        &mut self,
        some: impl FnOnce(&mut Cursor<'a>) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        self.sep()?;
        if self.skip("none") {
            Ok(None)
        } else {
            some(self).map(Some)
        }
    }

    /// A time, or `none`.
    fn opt_time(&mut self) -> Result<Option<Time>, SnapshotError> {
        self.opt(|c| Ok(Time::from_ms(finite_ms(c.hex()?)?)))
    }

    /// A point index, or `none`.
    fn opt_point(&mut self) -> Result<Option<usize>, SnapshotError> {
        self.opt(|c| {
            let v = c.decimal()?;
            usize::try_from(v).map_err(|_| corrupt(format!("point {v} out of range")))
        })
    }

    fn policy(&mut self) -> Result<PolicyKind, SnapshotError> {
        parse_policy_token(self.word()?)
    }

    /// One `ev` line. The tag, the time and the event word sit at fixed
    /// offsets (bytes 0, 3 and 20), so the line's head is taken in one
    /// piece. Inlined like [`parse_event`].
    #[inline(always)]
    fn ev_line(&mut self) -> Result<(Time, KernelEvent), SnapshotError> {
        let Some([b'e', b'v', b' ', time @ .., b' ']) = self.rest().get(..20) else {
            return self.fail("expected an \"ev\" line");
        };
        let Some(bits) = hex16(time) else {
            return self.fail("expected 16 lower-case hex digits");
        };
        let at = Time::from_ms(finite_ms(bits)?);
        // On the space before the event word.
        self.pos = self.pos.saturating_add(19);
        let ev = parse_event(self)?;
        self.eol()?;
        Ok((at, ev))
    }
}

/// The lifecycle a log must follow to restore: exactly the rules of the
/// audit's clock-monotonicity, epoch-monotonicity and log-consistency
/// checks (`audit_kernel_log`), held in the parse pass. Timestamps never
/// go backwards and a clamped clock jump records a positive distance;
/// each committed mode change carries the epoch after the last one's,
/// starting at 1; per task, releases number `+1` from the last and come
/// only once the last is closed, a completion or miss closes the open
/// release, and every event names a live task. A task's state is created
/// only by its `admitted` line.
#[derive(Default)]
struct Lifecycle {
    last_ms: f64,
    tasks: Tasks,
    /// The least handle no `admitted` line names: the kernel's next
    /// handle may not be below it.
    next_handle: u64,
    /// The last committed mode epoch, 0 before the first commit: the
    /// kernel's epoch must be this one.
    epoch: u64,
}

/// Handles below this have a slot in the [`Tasks`] table. A kernel issues
/// handles from 1 up, one per admitted task, so only one that admitted
/// thousands of tasks, or a forged text, names a handle past it.
const DENSE_HANDLES: usize = 4096;

/// Each task's [`TaskLife`] by handle: a table indexed by handle below
/// [`DENSE_HANDLES`], so the `ev` loop's lookup of a live task does not
/// hash, and a map for the handles above it.
#[derive(Default)]
struct Tasks {
    dense: Vec<Option<TaskLife>>,
    sparse: HashMap<TaskHandle, TaskLife>,
}

impl Tasks {
    /// The table slot of `handle`, if it has one.
    fn slot(handle: TaskHandle) -> Option<usize> {
        usize::try_from(handle.raw())
            .ok()
            .filter(|&i| i < DENSE_HANDLES)
    }

    fn get(&self, handle: TaskHandle) -> Option<&TaskLife> {
        match Tasks::slot(handle) {
            Some(i) => self.dense.get(i).and_then(Option::as_ref),
            None => self.sparse.get(&handle),
        }
    }

    fn get_mut(&mut self, handle: TaskHandle) -> Option<&mut TaskLife> {
        match Tasks::slot(handle) {
            Some(i) => self.dense.get_mut(i).and_then(Option::as_mut),
            None => self.sparse.get_mut(&handle),
        }
    }

    /// Sets the state of `handle`, returning the one it replaces.
    fn insert(&mut self, handle: TaskHandle, life: TaskLife) -> Option<TaskLife> {
        let Some(i) = Tasks::slot(handle) else {
            return self.sparse.insert(handle, life);
        };
        if self.dense.len() <= i {
            self.dense.resize_with(i.saturating_add(1), || None);
        }
        self.dense.get_mut(i).and_then(|slot| slot.replace(life))
    }
}

/// One task's place in its lifecycle.
struct TaskLife {
    /// Admitted or readmitted, and not removed or shed since.
    live: bool,
    /// The release not yet closed.
    open: Option<u64>,
    /// The last invocation released; shed and readmission continue it.
    last_released: Option<u64>,
}

impl Lifecycle {
    /// Checks the next entry of the log. Inlined like [`parse_event`].
    #[inline(always)]
    fn check(&mut self, at: Time, ev: &KernelEvent) -> Result<(), SnapshotError> {
        if at.as_ms() < self.last_ms {
            return Err(corrupt(format!(
                "the log goes back in time to {:016x}",
                at.as_ms().to_bits()
            )));
        }
        self.last_ms = at.as_ms();
        match *ev {
            KernelEvent::Admitted { handle, .. } => {
                let fresh = TaskLife {
                    live: true,
                    open: None,
                    last_released: None,
                };
                self.next_handle = self.next_handle.max(handle.raw().saturating_add(1));
                if let Some(old) = self.tasks.insert(handle, fresh) {
                    if old.live {
                        return Err(corrupt(format!("{handle} admitted while live")));
                    }
                }
            }
            KernelEvent::Readmitted { handle, .. } => match self.tasks.get_mut(handle) {
                Some(t) if !t.live => t.live = true,
                _ => return Err(corrupt(format!("{handle} readmitted while not shed"))),
            },
            KernelEvent::Removed { handle } | KernelEvent::Shed { handle, .. } => {
                let t = self.live(handle)?;
                t.live = false;
                t.open = None;
            }
            KernelEvent::Released { handle, invocation } => {
                let t = self.live(handle)?;
                let next = t
                    .last_released
                    .map_or(Some(invocation), |l| l.checked_add(1));
                if t.open.is_some() || next != Some(invocation) {
                    return Err(corrupt(format!(
                        "{handle} released invocation {invocation} out of sequence"
                    )));
                }
                t.open = Some(invocation);
                t.last_released = Some(invocation);
            }
            KernelEvent::Completed { handle, invocation }
            | KernelEvent::DeadlineMiss {
                handle, invocation, ..
            } => {
                let t = self.live(handle)?;
                if t.open != Some(invocation) {
                    return Err(corrupt(format!(
                        "{handle} closed invocation {invocation}, which is not open"
                    )));
                }
                t.open = None;
            }
            KernelEvent::Overrun { handle, .. } | KernelEvent::Renegotiated { handle, .. } => {
                self.live(handle)?;
            }
            KernelEvent::ModeChangeCommitted { epoch } => {
                if self.epoch.checked_add(1) != Some(epoch) {
                    return Err(corrupt(format!(
                        "a mode change committed epoch {epoch} after epoch {}",
                        self.epoch
                    )));
                }
                self.epoch = epoch;
            }
            KernelEvent::ClockJumpClamped { attempted } if attempted.as_ms() <= 0.0 => {
                return Err(corrupt("a clamped clock jump of no distance"));
            }
            _ => {}
        }
        Ok(())
    }

    /// Checks that a task the state stanzas hold resumes where the log
    /// leaves it: live if it is an entry and not if it is shed, at its
    /// last release, with that release `open` exactly while the entry
    /// runs it. The revived kernel's next event for the task then keeps
    /// the rules above.
    fn resumes(
        &self,
        handle: TaskHandle,
        live: bool,
        invocation: u64,
        open: Option<u64>,
    ) -> Result<(), SnapshotError> {
        let fits = |t: &TaskLife| {
            t.live == live && t.open == open && t.last_released.is_none_or(|l| l == invocation)
        };
        if self.tasks.get(handle).is_some_and(fits) {
            Ok(())
        } else {
            Err(corrupt(format!(
                "{handle} does not resume where the log leaves it"
            )))
        }
    }

    /// The state of `handle`, which must be live.
    fn live(&mut self, handle: TaskHandle) -> Result<&mut TaskLife, SnapshotError> {
        match self.tasks.get_mut(handle) {
            Some(t) if t.live => Ok(t),
            _ => Err(corrupt(format!("an event for {handle}, which is not live"))),
        }
    }
}

fn parse_policy_token(tok: &str) -> Result<PolicyKind, SnapshotError> {
    let rm_test = |t: &str| -> Result<RmTest, SnapshotError> {
        match t {
            "ll" => Ok(RmTest::LiuLayland),
            "sp" => Ok(RmTest::SchedulingPoints),
            "rt" => Ok(RmTest::ResponseTime),
            _ => Err(corrupt(format!("bad RM test {t:?}"))),
        }
    };
    match tok {
        "edf" => Ok(PolicyKind::PlainEdf),
        "rm" => Ok(PolicyKind::PlainRm),
        "static-edf" => Ok(PolicyKind::StaticEdf),
        "cc-edf" => Ok(PolicyKind::CcEdf),
        "la-edf" => Ok(PolicyKind::LaEdf),
        "interval" => Ok(PolicyKind::Interval),
        _ => {
            if let Some(t) = tok.strip_prefix("static-rm:") {
                Ok(PolicyKind::StaticRm(rm_test(t)?))
            } else if let Some(t) = tok.strip_prefix("cc-rm:") {
                Ok(PolicyKind::CcRm(rm_test(t)?))
            } else if let Some(c) = tok.strip_prefix("stoch-edf:") {
                let bits = hex16(c.as_bytes()).ok_or_else(|| corrupt(format!("bad hex {c:?}")))?;
                let confidence = f64::from_bits(bits);
                // `PolicyKind::build` asserts this range.
                if !(confidence > 0.0 && confidence <= 1.0) {
                    return Err(corrupt(format!("confidence {confidence} outside (0, 1]")));
                }
                Ok(PolicyKind::StochasticEdf { confidence })
            } else if let Some(rest) = tok.strip_prefix("manual:") {
                let (sched, point) = rest
                    .split_once(':')
                    .ok_or_else(|| corrupt(format!("bad manual policy {tok:?}")))?;
                let scheduler = match sched {
                    "edf" => SchedulerKind::Edf,
                    "rm" => SchedulerKind::Rm,
                    _ => return Err(corrupt(format!("bad scheduler {sched:?}"))),
                };
                let point = decimal_token(point)
                    .and_then(|p| usize::try_from(p).ok())
                    .ok_or_else(|| corrupt(format!("bad point {point:?}")))?;
                Ok(PolicyKind::Manual { scheduler, point })
            } else {
                Err(corrupt(format!("unknown policy token {tok:?}")))
            }
        }
    }
}

fn parse_state_token(tok: &str) -> Result<InvState, SnapshotError> {
    match tok {
        "inactive" => Ok(InvState::Inactive),
        "active" => Ok(InvState::Active),
        "completed" => Ok(InvState::Completed),
        _ => Err(corrupt(format!("bad invocation state {tok:?}"))),
    }
}

fn parse_body_state(c: &mut Cursor<'_>) -> Result<BodyState, SnapshotError> {
    match c.word()? {
        "wcet" => Ok(BodyState::Wcet),
        "fraction" => Ok(BodyState::Fraction(c.f64()?)),
        "uniform" => Ok(BodyState::Uniform {
            rng_state: c.bits()?,
        }),
        "overrun" => Ok(BodyState::Overrun {
            base_state: c.bits()?,
            fault_state: c.bits()?,
            rate: c.f64()?,
            factor: c.f64()?,
            from: c.num()?,
            until: c.num()?,
        }),
        "coldstart" => {
            let surcharge = c.f64()?;
            let inner = parse_body_state(c)?;
            Ok(BodyState::ColdStart {
                surcharge,
                inner: Box::new(inner),
            })
        }
        "tserver" => {
            let next_id = c.count()?;
            let served = c.work()?;
            let forfeited_releases = c.count()?;
            let n_lanes = c.index()?;
            let tenants = (0..n_lanes)
                .map(|_| {
                    Ok(TenantLaneSnapshot {
                        tenant: c.num()?,
                        quota: c.work()?,
                        max_backlog: c.index()?,
                        budget_remaining: c.work()?,
                        quarantined: c.flag()?,
                        over_streak: c.count()?,
                        shed: c.count()?,
                        rejected: c.count()?,
                        served_jobs: c.count()?,
                        served_work: c.work()?,
                        queue: parse_jobs(c)?,
                        finishing: parse_jobs(c)?,
                        completed: parse_completed(c)?,
                    })
                })
                .collect::<Result<Vec<_>, SnapshotError>>()?;
            Ok(BodyState::Server(ServerSnapshot {
                next_id,
                served,
                forfeited_releases,
                tenants,
            }))
        }
        t => Err(corrupt(format!("unknown body state {t:?}"))),
    }
}

fn parse_jobs(c: &mut Cursor<'_>) -> Result<Vec<JobRecord>, SnapshotError> {
    let n = c.index()?;
    (0..n)
        .map(|_| {
            Ok(JobRecord {
                id: c.num()?,
                arrival: c.time()?,
                total: c.work()?,
                remaining: c.work()?,
            })
        })
        .collect()
}

fn parse_completed(c: &mut Cursor<'_>) -> Result<Vec<CompletedJob>, SnapshotError> {
    let n = c.index()?;
    (0..n)
        .map(|_| {
            Ok(CompletedJob {
                id: JobId::from_raw(c.num()?),
                arrival: c.time()?,
                completed: c.time()?,
                work: c.work()?,
            })
        })
        .collect()
}

/// Adapter so a [`ColdStartBody`] can wrap an already-boxed revived body.
struct DynBody(Box<dyn TaskBody>);

impl TaskBody for DynBody {
    fn run(&mut self, invocation: u64, spec: &Task) -> Work {
        self.0.run(invocation, spec)
    }

    fn on_invocation_complete(&mut self, invocation: u64, now: Time) {
        self.0.on_invocation_complete(invocation, now);
    }

    fn snapshot_state(&self) -> Option<BodyState> {
        self.0.snapshot_state()
    }
}

/// Revives the body of a task with WCET `budget` from its captured state,
/// also returning the fresh server handle when the body is a server.
fn rebuild_body(
    state: &BodyState,
    budget: Work,
) -> Result<(Box<dyn TaskBody>, Option<TenantServer>), SnapshotError> {
    Ok(match state {
        BodyState::Wcet => (Box::new(WcetBody), None),
        BodyState::Fraction(f) => (Box::new(FractionBody(*f)), None),
        BodyState::Uniform { rng_state } => (Box::new(UniformBody::from_state(*rng_state)), None),
        BodyState::Overrun {
            base_state,
            fault_state,
            rate,
            factor,
            from,
            until,
        } => {
            // An unbounded factor would make an overrun's demand infinite.
            let factor = bounded(*factor)?;
            let body =
                OverrunBody::from_state(*base_state, *fault_state, *rate, factor, *from, *until);
            (Box::new(body), None)
        }
        BodyState::ColdStart { surcharge, inner } => {
            let (inner, server) = rebuild_body(inner, budget)?;
            let body = ColdStartBody::new(DynBody(inner), bounded(*surcharge)?);
            (Box::new(body), server)
        }
        BodyState::Server(snap) => {
            // A lone lane is never reviewed for quarantine, so it could
            // never leave one.
            if let [lone] = snap.tenants.as_slice() {
                if lone.quarantined || lone.over_streak > 0 {
                    return Err(corrupt("bad server lanes: a lone lane in quarantine"));
                }
            }
            let server = TenantServer::from_snapshot(snap, budget)
                .map_err(|e| corrupt(format!("bad server lanes: {e}")))?;
            (server.body(), Some(server))
        }
    })
}

/// Maps a serialized policy name back to the `'static` string the live
/// policies report. The set is closed, so an unknown name means
/// corruption.
fn intern_policy_name(name: &str) -> Result<&'static str, SnapshotError> {
    const KNOWN: [&str; 10] = [
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
    KNOWN
        .iter()
        .find(|k| **k == name)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown policy name {name:?}")))
}

/// How many periods a live task's next release may trail the clock. A
/// running kernel fires each release as the clock passes it (a stalled
/// timer holds releases back for at most `WATCHDOG_GAP_TICKS` ticks), so
/// a longer trail is forged, and replaying it would stall the revived
/// kernel's first run.
const MAX_TRAIL_PERIODS: f64 = 65_536.0;

/// Reads the `ev` run up to `mark`, holding it to the [`Lifecycle`]
/// rules; returns the log and the lifecycle it leaves.
fn parse_log(
    c: &mut Cursor<'_>,
    mark: LogMark,
) -> Result<(Vec<(Time, KernelEvent)>, Lifecycle), SnapshotError> {
    let mut log = Vec::with_capacity(mark.events.saturating_add(LOG_HEADROOM));
    let mut lifecycle = Lifecycle::default();
    for _ in 0..mark.events {
        let (at, ev) = c.ev_line()?;
        lifecycle.check(at, &ev)?;
        log.push((at, ev));
    }
    if c.pos == mark.end {
        Ok((log, lifecycle))
    } else {
        Err(corrupt("the log ends off its mark"))
    }
}

/// Log entries reserved beyond the restored ones: a revived kernel logs
/// its restore stamp at once and goes on logging, and room for those
/// spares copying the whole log on its first entries.
const LOG_HEADROOM: usize = 64;

#[allow(clippy::too_many_lines)]
fn restore_from_text(
    text: &str,
    mark: LogMark,
) -> Result<(RtKernel, Vec<(TaskHandle, TenantServer)>), SnapshotError> {
    // Past the version line, checked when the snapshot was constructed.
    let mut c = Cursor::new(text, VERSION_LINE_BYTES);
    let (log, lifecycle) = parse_log(&mut c, mark)?;

    let now = c.one("clock", Cursor::time)?;
    if now.as_ms() < lifecycle.last_ms {
        return Err(corrupt("the clock is behind the log"));
    }
    let mode_epoch = c.one("epoch", Cursor::count)?;
    if mode_epoch != lifecycle.epoch {
        return Err(corrupt("the epoch is not the log's last committed one"));
    }
    let next_handle = c.one("next-handle", Cursor::count)?;
    if next_handle < lifecycle.next_handle {
        return Err(corrupt("the next handle is one the log has admitted"));
    }
    let switches = c.one("switches", Cursor::count)?;
    let stall_until = c.one("stall-until", Cursor::time)?;
    let applied = c.one("applied", Cursor::opt_point)?;
    c.tag("flags")?;
    let account_switch_overhead = c.flag()?;
    let defer_new_tasks = c.flag()?;
    let degrade_on_fault = c.flag()?;
    let traced = c.flag()?;
    c.eol()?;
    let switch_overhead = c.one("overhead", |c| {
        c.opt(|c| {
            Ok(SwitchOverhead {
                freq_only: Time::from_ms(bounded(f64::from_bits(c.hex()?))?),
                voltage_change: Time::from_ms(bounded(c.f64()?)?),
            })
        })
    })?;
    let last_snapshot_at = c.one("last-snapshot", Cursor::opt_time)?;
    let brownout_cap = c.one("cap", Cursor::opt_point)?;
    c.tag("ladder")?;
    let ladder_pos = c.count()?;
    let ladder_review_at = c.time()?;
    let fallbacks_at_review = c.num()?;
    let preferred_policy = c.policy()?;
    c.eol()?;
    c.tag("regulator-stats")?;
    let transition_retries = c.num()?;
    let transition_failures = c.num()?;
    let regulator_fallbacks = c.num()?;
    let forced_transitions = c.num()?;
    c.eol()?;
    let mut timebase = crate::timebase::TimeBase::default();
    if c.at_tag("timebase") {
        c.tag("timebase")?;
        timebase.ewma_err_ms = bounded(c.f64()?)?;
        timebase.clamped_jumps = c.num()?;
        timebase.last_clamp = c.time()?;
        timebase.max_catch_up = c.num()?;
        timebase.pending_gap = c.num()?;
        timebase.pending_catch_up = c.flag()?;
        timebase.watchdog = c.flag()?;
        c.eol()?;
    }
    c.tag("machine")?;
    // No pre-sizing from the claimed count: a short line ends the loop.
    let n_points = c.index()?;
    let pairs = (0..n_points)
        .map(|_| Ok((c.f64()?, c.f64()?)))
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    let name = c.rest_of_line()?;
    c.eol()?;
    let machine = Machine::new(name, &pairs).map_err(|e| corrupt(format!("bad machine: {e}")))?;
    let policy_kind = c.one("policy", Cursor::policy)?;
    c.tag("meter")?;
    let idle_level = c.f64()?;
    let busy_energy = c.f64()?;
    let idle_energy = c.f64()?;
    let stall_time = c.time()?;
    let meter_points = c.index()?;
    c.eol()?;
    if meter_points != machine.len() {
        return Err(corrupt("meter/machine point-count mismatch"));
    }
    let mut busy_time = Vec::with_capacity(meter_points);
    let mut idle_time = Vec::with_capacity(meter_points);
    let mut work_done = Vec::with_capacity(meter_points);
    for _ in 0..meter_points {
        c.tag("meter-point")?;
        busy_time.push(c.time()?);
        idle_time.push(c.time()?);
        work_done.push(c.work()?);
        c.eol()?;
    }
    let meter = EnergyMeter::from_parts(
        idle_level,
        busy_energy,
        idle_energy,
        busy_time,
        idle_time,
        work_done,
        stall_time,
    )
    .ok_or_else(|| corrupt(format!("bad meter idle level {idle_level}")))?;

    let mut kernel = RtKernel {
        machine,
        policy: policy_kind.build(),
        policy_kind,
        entries: Vec::new(),
        cached_set: None,
        now,
        meter,
        trace: if traced { Some(Trace::new()) } else { None },
        applied,
        stall_until,
        switches,
        switch_overhead,
        account_switch_overhead,
        defer_new_tasks,
        degrade_on_fault,
        shed: Vec::new(),
        log,
        next_handle,
        mode_epoch,
        pending_change: None,
        last_snapshot_at,
        // `Snapshot::restore` seals the kernel with the snapshot.
        seal: None,
        // The regulator and supervisor are live hardware / the restoring
        // agent; callers re-attach them after restore.
        regulator: None,
        brownout_cap,
        preferred_policy,
        ladder_pos,
        ladder_review_at,
        fallbacks_at_review,
        transition_retries,
        transition_failures,
        regulator_fallbacks,
        forced_transitions,
        supervisor: None,
        rq: rtdvs_core::readyq::ReadyQueue::new(),
        sched: crate::kernel::SchedState::default(),
        tenant_servers: Vec::new(),
        // Observed state restores; the driver, like the regulator, is
        // live hardware the caller re-attaches.
        timebase,
    };
    if let Some(p) = kernel.applied {
        if p >= kernel.machine.len() {
            return Err(corrupt("applied point out of range"));
        }
    }
    let stall = kernel.stall_budget();
    let revive = |kernel: &mut RtKernel, handle, state: &BodyState, budget| {
        let (body, server) = rebuild_body(state, budget)?;
        if let Some(server) = server {
            kernel.tenant_servers.push((handle, server));
        }
        Ok::<_, SnapshotError>(body)
    };

    let n_entries = c.one("entries", Cursor::index)?;
    for _ in 0..n_entries {
        c.tag("entry")?;
        let handle = c.handle()?;
        let period = c.time()?;
        let wcet = c.work()?;
        let nominal_period = c.time()?;
        let invocation = c.count()?;
        let state = parse_state_token(c.word()?)?;
        let executed = c.work()?;
        let actual = c.work()?;
        let deadline = c.time()?;
        let next_release = c.time()?;
        let deferred = c.flag()?;
        let overrun_logged = c.flag()?;
        let observed_peak = c.work()?;
        let pending_shed = c.flag()?;
        let body_state = parse_body_state(&mut c)?;
        c.eol()?;
        let user_spec =
            Task::new(period, wcet).map_err(|e| corrupt(format!("bad task spec: {e}")))?;
        let spec = user_spec
            .with_inflated_wcet(stall)
            .map_err(|e| corrupt(format!("bad inflated spec: {e}")))?;
        if !deferred && (now - next_release).as_ms() > MAX_TRAIL_PERIODS * period.as_ms() {
            return Err(corrupt(format!("task {handle} trails the clock")));
        }
        // A miss in degraded mode closes the release in the log but leaves
        // the entry active until it is shed.
        let running = state == InvState::Active && !pending_shed;
        lifecycle.resumes(handle, true, invocation, running.then_some(invocation))?;
        let body = revive(&mut kernel, handle, &body_state, wcet)?;
        kernel.insert_entry(Entry {
            handle,
            spec,
            user_spec,
            nominal_period,
            body,
            invocation,
            state,
            executed,
            actual,
            deadline,
            next_release,
            deferred,
            overrun_logged,
            observed_peak,
            pending_shed,
        });
    }

    let n_shed = c.one("shed-tasks", Cursor::index)?;
    if n_shed > 0 && !degrade_on_fault {
        // Only degraded mode sheds, and only it retries a shed task.
        return Err(corrupt("shed tasks outside degraded mode"));
    }
    for _ in 0..n_shed {
        c.tag("shed")?;
        let handle = c.handle()?;
        let period = c.time()?;
        let wcet = c.work()?;
        let observed_peak = c.work()?;
        let invocation = c.count()?;
        let next_attempt = c.time()?;
        let body_state = parse_body_state(&mut c)?;
        c.eol()?;
        Task::new(period, wcet).map_err(|e| corrupt(format!("bad shed task: {e}")))?;
        lifecycle.resumes(handle, false, invocation, None)?;
        let body = revive(&mut kernel, handle, &body_state, wcet)?;
        kernel.shed.push(ShedTask {
            handle,
            period,
            wcet,
            observed_peak,
            invocation,
            body,
            next_attempt,
        });
    }

    // The checksum line, checked when the snapshot was constructed, ends
    // the text.
    c.tag("checksum")?;
    if c.rest().len() != CHECKSUM_LINE_BYTES - "checksum".len() {
        return Err(corrupt("trailing lines after checksum"));
    }

    // Conservative policy reseed, exactly like a live module swap.
    kernel.rebuild_and_reinit();
    let servers = kernel.tenant_servers.clone();
    Ok((kernel, servers))
}

#[cfg(test)]
mod tests {
    use rtdvs_core::policy::PolicyKind;
    use rtdvs_taskgen::SplitMix64;

    use super::*;
    use crate::body::FractionBody;

    fn ms(v: f64) -> Time {
        Time::from_ms(v)
    }

    fn w(v: f64) -> Work {
        Work::from_ms(v)
    }

    fn paper_kernel(kind: PolicyKind) -> RtKernel {
        let mut k = RtKernel::new(Machine::machine0(), kind);
        for (p, c, seed) in [(8.0, 3.0, 11), (10.0, 3.0, 12), (14.0, 1.0, 13)] {
            k.spawn(ms(p), w(c), Box::new(UniformBody::new(seed)))
                .expect("paper set admits");
        }
        k
    }

    #[test]
    fn restored_run_continues_bit_identically_for_stateless_policies() {
        for kind in [PolicyKind::PlainEdf, PolicyKind::StaticEdf] {
            let mut live = paper_kernel(kind);
            live.run_until(ms(137.0));
            let snap = live.checkpoint().expect("serializable set");
            let (mut revived, servers) = snap.restore().expect("valid snapshot");
            assert!(servers.is_empty());
            assert_eq!(revived.now(), live.now());
            live.run_until(ms(560.0));
            revived.run_until(ms(560.0));
            assert_eq!(
                live.energy().to_bits(),
                revived.energy().to_bits(),
                "{kind:?}: energy diverged after restore"
            );
            assert_eq!(live.log(), revived.log(), "{kind:?}: logs diverged");
            assert_eq!(live.status(), revived.status());
            assert_eq!(live.misses().count(), 0);
        }
    }

    #[test]
    fn snapshot_text_round_trips_through_from_text() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(41.0));
        let snap = k.checkpoint().expect("serializable set");
        let reparsed = Snapshot::from_text(snap.as_text()).expect("own output must parse");
        assert_eq!(reparsed, snap);
        // Restore-twice determinism: two restores of one snapshot are the
        // same kernel.
        let (mut a, _) = snap.restore().expect("valid");
        let (mut b, _) = reparsed.restore().expect("valid");
        a.run_until(ms(300.0));
        b.run_until(ms(300.0));
        assert_eq!(a.energy().to_bits(), b.energy().to_bits());
        assert_eq!(a.log(), b.log());
    }

    #[test]
    fn checkpoint_marks_its_own_history() {
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        assert_eq!(k.last_snapshot_at(), None);
        k.run_until(ms(50.0));
        let snap = k.checkpoint().expect("serializable set");
        assert_eq!(k.last_snapshot_at(), Some(ms(50.0)));
        assert!(matches!(
            k.log().last(),
            Some((_, KernelEvent::SnapshotTaken))
        ));
        // The snapshot itself carries the marker for audit replay.
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.last_snapshot_at(), Some(ms(50.0)));
        assert!(matches!(
            revived.log().last(),
            Some((_, KernelEvent::SnapshotTaken))
        ));
    }

    #[test]
    fn opaque_bodies_refuse_cleanly() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let good = k
            .spawn(ms(10.0), w(2.0), Box::new(FractionBody(0.5)))
            .expect("admits");
        let opaque = k
            .spawn(
                ms(20.0),
                w(2.0),
                Box::new(|_inv: u64, spec: &Task| spec.wcet() * 0.5),
            )
            .expect("admits");
        let log_len = k.log().len();
        assert_eq!(k.checkpoint(), Err(SnapshotError::OpaqueBody(opaque)));
        // Refusal must not have marked anything.
        assert_eq!(k.log().len(), log_len);
        assert_eq!(k.last_snapshot_at(), None);
        k.remove(opaque).expect("task exists");
        let snap = k.checkpoint().expect("now serializable");
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.status(), k.status());
        let _ = good;
    }

    #[test]
    fn staged_transaction_blocks_checkpoint() {
        use crate::modechange::ModeChange;
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        k.run_for(ms(1.0));
        let _ = k
            .submit_mode_change(ModeChange::new().admit(ms(40.0), w(1.0), Box::new(WcetBody)))
            .expect("feasible");
        assert!(k.pending_mode_change());
        assert_eq!(k.checkpoint(), Err(SnapshotError::PendingModeChange));
        k.run_for(ms(30.0));
        assert!(!k.pending_mode_change());
        assert!(k.checkpoint().is_ok());
    }

    /// What the writer produces for `k` with its seal cleared: the text
    /// a checkpoint of `k` must equal byte for byte.
    fn unsealed_text(k: &RtKernel) -> String {
        let state = |b: &dyn TaskBody| b.snapshot_state().expect("serializable bodies");
        let entries: Vec<BodyState> = k.entries.iter().map(|e| state(&*e.body)).collect();
        let shed: Vec<BodyState> = k.shed.iter().map(|s| state(&*s.body)).collect();
        write_kernel(k, None, &entries, &shed).as_text().to_owned()
    }

    /// Checkpoints of generated kernels at random instants, through
    /// policy swaps, checkpoints a staged mode change refuses and
    /// restores: each text equals the unsealed writer's byte for byte and
    /// restores to the kernel it was taken of. Every other restore goes
    /// through `from_text`, whose log mark must equal the writer's; either
    /// way the revived kernel is sealed with the restored snapshot, and its
    /// next checkpoint too equals the unsealed writer's.
    #[test]
    fn sealed_checkpoints_equal_the_unsealed_writer() {
        use crate::modechange::ModeChange;
        use rtdvs_taskgen::{generate, TaskGenSpec};

        let kinds = PolicyKind::paper_six();
        let mut rng = SplitMix64::seed_from_u64(0x5EA1_ED0C);
        let (mut sealed, mut refused, mut restored, mut restores) = (0, 0, 0, 0);
        for _ in 0..6 {
            let n = 2 + (rng.next_u64() % 10) as usize;
            let spec = TaskGenSpec::new(n, rng.range_f64(0.3, 0.8)).expect("valid spec");
            let tasks = generate(&spec, rng.next_u64()).expect("generated set");
            let mut k = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf);
            for t in tasks.tasks() {
                let body = Box::new(UniformBody::new(rng.next_u64()));
                k.spawn(t.period(), t.wcet(), body).expect("U < 0.8 admits");
            }
            for _ in 0..20 {
                k.run_for(ms(rng.range_f64(0.0, 30.0)));
                match rng.next_u64() % 6 {
                    0 => k.load_policy(kinds[(rng.next_u64() % 6) as usize]),
                    1 => {
                        let change = ModeChange::new().admit(ms(50.0), w(0.5), Box::new(WcetBody));
                        if k.submit_mode_change(change).is_ok() && k.pending_mode_change() {
                            let log_len = k.log().len();
                            assert_eq!(k.checkpoint(), Err(SnapshotError::PendingModeChange));
                            assert_eq!(k.log().len(), log_len);
                            refused += 1;
                            k.run_for(ms(60.0));
                        }
                    }
                    _ => {}
                }
                let had_seal = k.seal.is_some();
                let snap = k.checkpoint().expect("uniform and WCET bodies serialize");
                assert_eq!(snap.as_text(), unsealed_text(&k));
                let seal = k.seal.as_ref().expect("a checkpoint seals");
                assert!(Arc::ptr_eq(&seal.text, &snap.text));
                assert_eq!(seal.log.events, k.log().len());
                sealed += usize::from(had_seal);
                let source = if restores % 2 == 0 {
                    snap
                } else {
                    let parsed = Snapshot::from_text(snap.as_text()).expect("own text parses");
                    assert_eq!(parsed.log, snap.log, "from_text's mark is the writer's");
                    parsed
                };
                restores += 1;
                let (mut revived, _) = source.restore().expect("own checkpoint restores");
                assert_eq!(revived.now(), k.now());
                assert_eq!(revived.energy().to_bits(), k.energy().to_bits());
                assert_eq!(revived.log(), k.log());
                assert_eq!(revived.status(), k.status());
                let seal = revived.seal.as_ref().expect("a revived kernel is sealed");
                assert!(Arc::ptr_eq(&seal.text, &source.text));
                if rng.next_u64() % 5 == 0 {
                    k = revived;
                    k.mark_restored();
                    restored += 1;
                } else {
                    revived.run_for(ms(rng.range_f64(0.0, 30.0)));
                    let next = revived.checkpoint().expect("a revived kernel serializes");
                    assert_eq!(next.as_text(), unsealed_text(&revived));
                }
            }
        }
        assert!(sealed > 0 && refused > 0 && restored > 0);
    }

    #[test]
    fn tampered_text_is_detected() {
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        k.run_until(ms(20.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        // Flip one digit of the epoch line.
        let tampered = text.replacen("epoch 0", "epoch 7", 1);
        assert_ne!(tampered, text);
        assert_eq!(
            Snapshot::from_text(&tampered),
            Err(SnapshotError::ChecksumMismatch)
        );
        // Truncation (a torn write) is also caught.
        let torn = &text[..text.len() / 2];
        assert!(matches!(
            Snapshot::from_text(torn),
            Err(SnapshotError::Corrupt(_) | SnapshotError::ChecksumMismatch)
        ));
        // A foreign version tag is named, not mangled: neither the
        // log-last layout of v1 nor the FNV-1a checksum of v2 is read.
        let family = SNAPSHOT_VERSION.trim_end_matches(|c: char| c.is_ascii_digit());
        for tag in [
            format!("{family}9"),
            format!("{family}1"),
            format!("{family}2"),
        ] {
            let foreign = text.replacen(SNAPSHOT_VERSION, &tag, 1);
            assert_eq!(
                Snapshot::from_text(&foreign),
                Err(SnapshotError::UnsupportedVersion(tag))
            );
        }
    }

    #[test]
    fn polling_server_queue_survives_the_round_trip() {
        use crate::tenants::POLLING_LANE;

        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let (handle, server) = k
            .spawn_polling_server(ms(10.0), w(2.0))
            .expect("server admits");
        k.run_until(ms(0.5));
        server.submit(w(3.0), k.now());
        server.submit(w(1.0), k.now());
        k.run_until(ms(15.0));
        let snap = k.checkpoint().expect("server bodies serialize");
        let (mut revived, mut servers) = snap.restore().expect("valid");
        assert_eq!(servers.len(), 1);
        let (rh, rserver) = servers.pop().expect("one server");
        assert_eq!(rh, handle);
        assert_eq!(
            Some(rserver.snapshot()),
            k.tenant_servers().first().map(|(_, s)| s.snapshot())
        );
        // Both halves finish the queue identically.
        k.run_until(ms(60.0));
        revived.run_until(ms(60.0));
        assert_eq!(
            server.take_completed(),
            rserver.take_completed(POLLING_LANE)
        );
        assert_eq!(server.total_served(), rserver.total_served());
    }

    #[test]
    fn tenant_server_lanes_survive_the_round_trip() {
        use rtdvs_core::tenant::{TenantId, TenantQuota};

        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::StaticEdf);
        let quotas = [
            TenantQuota::new(TenantId::from_raw(1), w(0.8), 4),
            TenantQuota::new(TenantId::from_raw(2), w(0.8), 4),
        ];
        let (handle, server) = k
            .spawn_tenant_server(ms(10.0), w(2.0), &quotas)
            .expect("tenant server admits");
        k.run_until(ms(0.5));
        // Mid-backlog state: queued work, a partially-served job, sheds.
        for _ in 0..6 {
            let _ = server.submit(TenantId::from_raw(1), w(0.9), k.now());
        }
        let _ = server.submit(TenantId::from_raw(2), w(0.3), k.now());
        k.run_until(ms(15.0));
        let snap = k.checkpoint().expect("tenant bodies serialize");
        let (mut revived, mut servers) = snap.restore().expect("valid");
        assert_eq!(servers.len(), 1, "the restore lists every server");
        assert_eq!(revived.tenant_servers().len(), 1);
        let (rh, rserver) = servers.pop().expect("one server");
        assert_eq!(rh, handle);
        assert_eq!(revived.tenant_servers()[0].1.snapshot(), rserver.snapshot());
        assert_eq!(rserver.snapshot(), server.snapshot(), "bit-exact lanes");
        // Both halves keep serving identically.
        k.run_until(ms(120.0));
        revived.run_until(ms(120.0));
        for t in [TenantId::from_raw(1), TenantId::from_raw(2)] {
            assert_eq!(server.take_completed(t), rserver.take_completed(t));
        }
        assert_eq!(server.lane_stats(), rserver.lane_stats());
        assert_eq!(
            server.total_served().as_ms().to_bits(),
            rserver.total_served().as_ms().to_bits()
        );
    }

    #[test]
    fn governor_and_shed_state_survive_the_round_trip() {
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::PlainEdf).with_degraded_mode();
        let _ = k
            .spawn(ms(10.0), w(5.0), Box::new(FractionBody(0.5)))
            .expect("fits");
        let receipt = k
            .submit_mode_change(
                crate::modechange::ModeChange::new()
                    .admit(ms(10.0), w(6.0), Box::new(FractionBody(0.5)))
                    .or_degrade(),
            )
            .expect("contained by stretch");
        assert!(receipt.committed);
        k.run_until(ms(30.0));
        assert_eq!(k.governor(), crate::kernel::GovernorState::Stretched);
        let snap = k.checkpoint().expect("serializable");
        let (revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.governor(), crate::kernel::GovernorState::Stretched);
        assert_eq!(revived.mode_epoch(), k.mode_epoch());
        assert_eq!(revived.status(), k.status());
    }

    /// The restore checks beyond finiteness, each on a state no running
    /// kernel reaches and that would overflow a counter, stall the revived
    /// kernel's first run or overflow its arithmetic.
    #[test]
    fn forged_states_a_kernel_cannot_reach_are_corrupt() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(30.0));
        let snap = k.checkpoint().expect("serializable set");
        let far_clock = format!("{:016x}", 1e9_f64.to_bits());
        let shed = "shed-tasks 1\nshed 9 4020000000000000 3ff0000000000000 \
                    3ff0000000000000 0 0000000000000000 wcet";
        let text = snap.as_text();
        let b = &text[..text.rfind("checksum ").expect("a sealed text")];
        let overrun = format!("overrun 1 2 3fe0000000000000 {INF_ISH} 1");
        let forged = [
            ("count", set_field(b, "switches", 1, "9223372036854775808")),
            ("trail", set_field(b, "clock", 1, &far_clock)),
            (
                "shed outside degraded mode",
                b.replacen("shed-tasks 0", shed, 1),
            ),
            (
                "shed task spec",
                set_field(b, "flags", 3, "1").replacen(
                    "shed-tasks 0",
                    &shed.replace(" 4020", " 0000"),
                    1,
                ),
            ),
            (
                "stall",
                b.replacen("overhead none", &format!("overhead {INF_ISH} 0"), 1),
            ),
            (
                "drift",
                b.replacen(
                    "\nmachine ",
                    &format!("\ntimebase {INF_ISH} 0 0 0 0 0 0\nmachine "),
                    1,
                ),
            ),
            (
                "overrun factor",
                set_field(&set_field(b, "entry", 16, "9"), "entry", 15, &overrun),
            ),
            (
                "cold-start surcharge",
                b.replacen(" uniform ", &format!(" coldstart {INF_ISH} uniform "), 1),
            ),
            (
                "invocation",
                set_field(b, "entry", 5, &u64::MAX.to_string()),
            ),
        ];
        for (what, body) in forged {
            let e = restore_forged(&snap, move |_| body);
            assert!(matches!(e, SnapshotError::Corrupt(_)), "{what}: {e:?}");
        }

        // Lanes `TenantServer::new` refuses, forged into a two-lane server
        // of budget 2 with empty queues: token 21 is the first lane's
        // quota, 22 its backlog bound and 33 the second lane's tenant.
        use rtdvs_core::tenant::{TenantId, TenantQuota};
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        let quotas = [
            TenantQuota::new(TenantId::from_raw(1), w(0.8), 4),
            TenantQuota::new(TenantId::from_raw(2), w(0.8), 4),
        ];
        k.spawn_tenant_server(ms(10.0), w(2.0), &quotas)
            .expect("the server admits alone");
        k.run_until(ms(30.0));
        let snap = k.checkpoint().expect("server bodies serialize");
        let lanes = [
            ("duplicate tenant", 33, "1".to_owned()),
            ("zero quota", 21, format!("{:016x}", 0f64.to_bits())),
            (
                "negative quota",
                21,
                format!("{:016x}", (-0.8f64).to_bits()),
            ),
            ("zero backlog bound", 22, "0".to_owned()),
            (
                "quota 10x the budget",
                21,
                format!("{:016x}", 20f64.to_bits()),
            ),
        ];
        for (what, field, value) in lanes {
            let e = restore_forged(&snap, |b| set_field(b, "entry", field, &value));
            assert!(
                matches!(&e, SnapshotError::Corrupt(m) if m.contains("server lanes")),
                "{what}: {e:?}"
            );
        }

        // A polling server's lone lane forged into quarantine (token 24)
        // or on its way there (token 25): it would never be reviewed.
        let mut k = RtKernel::new(Machine::machine0(), PolicyKind::CcEdf);
        k.spawn_polling_server(ms(10.0), w(2.0))
            .expect("the server admits alone");
        let snap = k.checkpoint().expect("server bodies serialize");
        for (field, value) in [(24, "1"), (25, "2")] {
            let e = restore_forged(&snap, |b| set_field(b, "entry", field, value));
            assert!(
                matches!(&e, SnapshotError::Corrupt(m) if m.contains("lone lane")),
                "{e:?}"
            );
        }
    }

    /// The first `rtdvs-snapshot/v1` writer's records, frozen verbatim as
    /// the reference the one-pass writer is held to, record by record
    /// (v2 moved the log ahead of the state stanzas and dropped its count
    /// line, v3 changed only the checksum; every record is unchanged).
    mod frozen {
        use rtdvs_core::analysis::RmTest;
        use rtdvs_core::policy::PolicyKind;
        use rtdvs_core::sched::SchedulerKind;

        use crate::body::BodyState;
        use crate::kernel::KernelEvent;
        use crate::tenants::{CompletedJob, JobRecord};

        pub(super) fn hex(v: f64) -> String {
            format!("{:016x}", v.to_bits())
        }

        pub(super) fn policy_token(kind: PolicyKind) -> String {
            match kind {
                PolicyKind::PlainEdf => "edf".into(),
                PolicyKind::PlainRm => "rm".into(),
                PolicyKind::StaticEdf => "static-edf".into(),
                PolicyKind::StaticRm(t) => format!("static-rm:{}", rm_test_token(t)),
                PolicyKind::CcEdf => "cc-edf".into(),
                PolicyKind::CcRm(t) => format!("cc-rm:{}", rm_test_token(t)),
                PolicyKind::LaEdf => "la-edf".into(),
                PolicyKind::StochasticEdf { confidence } => {
                    format!("stoch-edf:{}", hex(confidence))
                }
                PolicyKind::Interval => "interval".into(),
                PolicyKind::Manual { scheduler, point } => format!(
                    "manual:{}:{point}",
                    match scheduler {
                        SchedulerKind::Edf => "edf",
                        SchedulerKind::Rm => "rm",
                    }
                ),
            }
        }

        fn rm_test_token(t: RmTest) -> &'static str {
            match t {
                RmTest::LiuLayland => "ll",
                RmTest::SchedulingPoints => "sp",
                RmTest::ResponseTime => "rt",
            }
        }

        pub(super) fn body_tokens(b: &BodyState) -> String {
            match b {
                BodyState::Wcet => "wcet".into(),
                BodyState::Fraction(f) => format!("fraction {}", hex(*f)),
                BodyState::Uniform { rng_state } => format!("uniform {rng_state:016x}"),
                BodyState::Overrun {
                    base_state,
                    fault_state,
                    rate,
                    factor,
                    from,
                    until,
                } => format!(
                    "overrun {base_state:016x} {fault_state:016x} {} {} {from} {until}",
                    hex(*rate),
                    hex(*factor)
                ),
                BodyState::ColdStart { surcharge, inner } => {
                    format!("coldstart {} {}", hex(*surcharge), body_tokens(inner))
                }
                BodyState::Server(s) => {
                    let job = |r: &JobRecord| {
                        format!(
                            " {} {} {} {}",
                            r.id,
                            hex(r.arrival.as_ms()),
                            hex(r.total.as_ms()),
                            hex(r.remaining.as_ms())
                        )
                    };
                    let completed = |c: &CompletedJob| {
                        format!(
                            " {} {} {} {}",
                            c.id.raw(),
                            hex(c.arrival.as_ms()),
                            hex(c.completed.as_ms()),
                            hex(c.work.as_ms())
                        )
                    };
                    // Shared counters, then one lane record per tenant.
                    let mut out = format!(
                        "tserver {} {} {} {}",
                        s.next_id,
                        hex(s.served.as_ms()),
                        s.forfeited_releases,
                        s.tenants.len(),
                    );
                    for l in &s.tenants {
                        out.push_str(&format!(
                            " {} {} {} {} {} {} {} {} {} {}",
                            l.tenant,
                            hex(l.quota.as_ms()),
                            l.max_backlog,
                            hex(l.budget_remaining.as_ms()),
                            u8::from(l.quarantined),
                            l.over_streak,
                            l.shed,
                            l.rejected,
                            l.served_jobs,
                            hex(l.served_work.as_ms()),
                        ));
                        out.push_str(&format!(" {}", l.queue.len()));
                        for r in &l.queue {
                            out.push_str(&job(r));
                        }
                        out.push_str(&format!(" {}", l.finishing.len()));
                        for r in &l.finishing {
                            out.push_str(&job(r));
                        }
                        out.push_str(&format!(" {}", l.completed.len()));
                        for c in &l.completed {
                            out.push_str(&completed(c));
                        }
                    }
                    out
                }
            }
        }

        pub(super) fn event_tokens(ev: &KernelEvent) -> String {
            match ev {
                KernelEvent::Admitted { handle, deferred } => {
                    format!("admitted {} {}", handle.raw(), u8::from(*deferred))
                }
                KernelEvent::Removed { handle } => format!("removed {}", handle.raw()),
                KernelEvent::Released { handle, invocation } => {
                    format!("released {} {invocation}", handle.raw())
                }
                KernelEvent::Completed { handle, invocation } => {
                    format!("completed {} {invocation}", handle.raw())
                }
                KernelEvent::DeadlineMiss {
                    handle,
                    invocation,
                    remaining,
                } => format!(
                    "miss {} {invocation} {}",
                    handle.raw(),
                    hex(remaining.as_ms())
                ),
                KernelEvent::Overrun {
                    handle,
                    invocation,
                    used,
                    bound,
                } => format!(
                    "overrun {} {invocation} {} {}",
                    handle.raw(),
                    hex(used.as_ms()),
                    hex(bound.as_ms())
                ),
                KernelEvent::PolicyLoaded { name } => format!("policy {name}"),
                KernelEvent::Shed { handle, observed } => {
                    format!("shed {} {}", handle.raw(), hex(observed.as_ms()))
                }
                KernelEvent::Readmitted { handle, bound } => {
                    format!("readmitted {} {}", handle.raw(), hex(bound.as_ms()))
                }
                KernelEvent::Degraded { active } => format!("degraded {}", u8::from(*active)),
                KernelEvent::ModeChangeStaged { ops } => format!("mc-staged {ops}"),
                KernelEvent::ModeChangeCommitted { epoch } => format!("mc-committed {epoch}"),
                KernelEvent::ModeChangeRejected { utilization } => {
                    format!("mc-rejected {}", hex(*utilization))
                }
                KernelEvent::GovernorStretched { stretched, factor } => {
                    format!("gov-stretched {stretched} {}", hex(*factor))
                }
                KernelEvent::GovernorRelaxed => "gov-relaxed".into(),
                KernelEvent::Renegotiated { handle, bound } => {
                    format!("renegotiated {} {}", handle.raw(), hex(bound.as_ms()))
                }
                KernelEvent::SnapshotTaken => "snapshot".into(),
                KernelEvent::RegulatorFallback { desired, applied } => {
                    format!("reg-fallback {desired} {applied}")
                }
                KernelEvent::BrownoutCapSet { cap } => match cap {
                    Some(c) => format!("cap {c}"),
                    None => "cap none".into(),
                },
                KernelEvent::LadderStepped { from, to } => format!("ladder {from} {to}"),
                KernelEvent::SupervisorRestored => "sup-restored".into(),
                KernelEvent::ClockTickGap { missed } => format!("clock-gap {missed}"),
                KernelEvent::ClockJumpClamped { attempted } => {
                    format!("clock-jump {}", hex(attempted.as_ms()))
                }
                KernelEvent::ClockWatchdog { engaged } => {
                    format!("clock-watchdog {}", u8::from(*engaged))
                }
                KernelEvent::ReleaseLate {
                    handle,
                    invocation,
                    latency,
                } => format!(
                    "release-late {} {invocation} {}",
                    handle.raw(),
                    hex(latency.as_ms())
                ),
            }
        }
    }

    /// Writes one line through `f` and returns its text and the
    /// checksum the writer folded for it.
    fn write_line(f: impl FnOnce(&mut Writer)) -> (String, u64) {
        let mut w = Writer {
            out: String::new(),
            hashed: 0,
            hash: SUM_SEED,
        };
        f(&mut w);
        w.end();
        let sum = w.sum();
        (w.out, sum)
    }

    /// The checksum of `body` in one go.
    fn checksum(body: &[u8]) -> u64 {
        sum_resume(SUM_SEED, 0, body)
    }

    /// Raw-`f64` fields travel bit-exactly: −0.0, subnormals, NaN
    /// payloads of either sign and infinities included.
    fn raw_f64(rng: &mut SplitMix64) -> f64 {
        match rng.next_u64() % 6 {
            0 => -0.0,
            1 => f64::from_bits(1 + rng.next_u64() % 0x000f_ffff_ffff_ffff),
            2 => f64::from_bits(0x7ff0_0000_0000_0001 | rng.next_u64()),
            3 => f64::INFINITY,
            _ => rng.range_f64(-1e3, 1e3),
        }
    }

    /// Time and work fields: any finite value, −0.0 and subnormals too.
    fn finite_ms(rng: &mut SplitMix64) -> f64 {
        match rng.next_u64() % 4 {
            0 => -0.0,
            1 => f64::from_bits(1 + rng.next_u64() % 0x000f_ffff_ffff_ffff),
            2 => f64::MAX,
            _ => rng.range_f64(-1e6, 1e6),
        }
    }

    fn id(rng: &mut SplitMix64) -> u64 {
        match rng.next_u64() % 3 {
            0 => u64::MAX,
            1 => rng.next_u64() % 100,
            _ => rng.next_u64(),
        }
    }

    /// A count the kernel increments: anything up to the top half of the
    /// range, which restore rejects (see `Cursor::count`).
    fn count(rng: &mut SplitMix64) -> u64 {
        id(rng) >> 1
    }

    /// The index of `ev`'s variant. The match is exhaustive, so a new
    /// variant does not compile until [`gen_event`] draws it.
    fn event_kind(ev: &KernelEvent) -> u64 {
        match ev {
            KernelEvent::Admitted { .. } => 0,
            KernelEvent::Removed { .. } => 1,
            KernelEvent::Released { .. } => 2,
            KernelEvent::Completed { .. } => 3,
            KernelEvent::DeadlineMiss { .. } => 4,
            KernelEvent::Overrun { .. } => 5,
            KernelEvent::PolicyLoaded { .. } => 6,
            KernelEvent::Shed { .. } => 7,
            KernelEvent::Readmitted { .. } => 8,
            KernelEvent::Degraded { .. } => 9,
            KernelEvent::ModeChangeStaged { .. } => 10,
            KernelEvent::ModeChangeCommitted { .. } => 11,
            KernelEvent::ModeChangeRejected { .. } => 12,
            KernelEvent::GovernorStretched { .. } => 13,
            KernelEvent::GovernorRelaxed => 14,
            KernelEvent::Renegotiated { .. } => 15,
            KernelEvent::SnapshotTaken => 16,
            KernelEvent::RegulatorFallback { .. } => 17,
            KernelEvent::BrownoutCapSet { .. } => 18,
            KernelEvent::LadderStepped { .. } => 19,
            KernelEvent::SupervisorRestored => 20,
            KernelEvent::ClockTickGap { .. } => 21,
            KernelEvent::ClockJumpClamped { .. } => 22,
            KernelEvent::ClockWatchdog { .. } => 23,
            KernelEvent::ReleaseLate { .. } => 24,
        }
    }

    const EVENT_KINDS: u64 = 25;

    /// A seeded event of variant `kind` (see [`event_kind`]).
    fn gen_event(kind: u64, rng: &mut SplitMix64) -> KernelEvent {
        const NAMES: [&str; 10] = [
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
        let handle = TaskHandle::from_raw(id(rng));
        let invocation = id(rng);
        let index = id(rng) as usize;
        let flag = rng.next_u64() % 2 == 1;
        let work = w(finite_ms(rng));
        let time = ms(finite_ms(rng));
        let name = NAMES[(rng.next_u64() % 10) as usize];
        match kind {
            0 => KernelEvent::Admitted {
                handle,
                deferred: flag,
            },
            1 => KernelEvent::Removed { handle },
            2 => KernelEvent::Released { handle, invocation },
            3 => KernelEvent::Completed { handle, invocation },
            4 => KernelEvent::DeadlineMiss {
                handle,
                invocation,
                remaining: work,
            },
            5 => KernelEvent::Overrun {
                handle,
                invocation,
                used: work,
                bound: w(finite_ms(rng)),
            },
            6 => KernelEvent::PolicyLoaded { name },
            7 => KernelEvent::Shed {
                handle,
                observed: work,
            },
            8 => KernelEvent::Readmitted {
                handle,
                bound: work,
            },
            9 => KernelEvent::Degraded { active: flag },
            10 => KernelEvent::ModeChangeStaged { ops: index },
            11 => KernelEvent::ModeChangeCommitted { epoch: invocation },
            12 => KernelEvent::ModeChangeRejected {
                utilization: raw_f64(rng),
            },
            13 => KernelEvent::GovernorStretched {
                stretched: index,
                factor: raw_f64(rng),
            },
            14 => KernelEvent::GovernorRelaxed,
            15 => KernelEvent::Renegotiated {
                handle,
                bound: work,
            },
            16 => KernelEvent::SnapshotTaken,
            17 => KernelEvent::RegulatorFallback {
                desired: index,
                applied: id(rng) as usize,
            },
            18 => KernelEvent::BrownoutCapSet {
                cap: flag.then_some(index),
            },
            19 => KernelEvent::LadderStepped {
                from: name,
                to: NAMES[(rng.next_u64() % 10) as usize],
            },
            20 => KernelEvent::SupervisorRestored,
            21 => KernelEvent::ClockTickGap { missed: invocation },
            22 => KernelEvent::ClockJumpClamped { attempted: time },
            23 => KernelEvent::ClockWatchdog { engaged: flag },
            24 => KernelEvent::ReleaseLate {
                handle,
                invocation,
                latency: time,
            },
            _ => panic!("no generator for event kind {kind}"),
        }
    }

    /// The index of `b`'s form; exhaustive over the variants, like
    /// [`event_kind`].
    fn body_kind(b: &BodyState) -> u64 {
        match b {
            BodyState::Wcet => 0,
            BodyState::Fraction(_) => 1,
            BodyState::Uniform { .. } => 2,
            BodyState::Overrun { .. } => 3,
            BodyState::ColdStart { .. } => 4,
            BodyState::Server(_) => 5,
        }
    }

    const BODY_KINDS: u64 = 6;

    fn gen_jobs(rng: &mut SplitMix64) -> Vec<JobRecord> {
        (0..1 + rng.next_u64() % 3)
            .map(|_| JobRecord {
                id: id(rng),
                arrival: ms(finite_ms(rng)),
                total: w(finite_ms(rng)),
                remaining: w(finite_ms(rng)),
            })
            .collect()
    }

    fn gen_completed(rng: &mut SplitMix64) -> Vec<CompletedJob> {
        (0..1 + rng.next_u64() % 3)
            .map(|_| CompletedJob {
                id: JobId::from_raw(id(rng)),
                arrival: ms(finite_ms(rng)),
                completed: ms(finite_ms(rng)),
                work: w(finite_ms(rng)),
            })
            .collect()
    }

    /// A seeded body state of form `kind` (see [`body_kind`]); cold
    /// starts nest up to `depth` more levels.
    fn gen_body(kind: u64, depth: u32, rng: &mut SplitMix64) -> BodyState {
        match kind {
            0 => BodyState::Wcet,
            1 => BodyState::Fraction(raw_f64(rng)),
            2 => BodyState::Uniform { rng_state: id(rng) },
            3 => BodyState::Overrun {
                base_state: id(rng),
                fault_state: id(rng),
                rate: raw_f64(rng),
                factor: raw_f64(rng),
                from: id(rng),
                until: id(rng),
            },
            4 => {
                let inner = if depth == 0 {
                    0
                } else {
                    rng.next_u64() % BODY_KINDS
                };
                BodyState::ColdStart {
                    surcharge: raw_f64(rng),
                    inner: Box::new(gen_body(inner, depth.saturating_sub(1), rng)),
                }
            }
            5 => BodyState::Server(ServerSnapshot {
                next_id: count(rng),
                served: w(finite_ms(rng)),
                forfeited_releases: count(rng),
                tenants: (0..1 + rng.next_u64() % 3)
                    .map(|_| TenantLaneSnapshot {
                        tenant: id(rng),
                        quota: w(finite_ms(rng)),
                        max_backlog: id(rng) as usize,
                        budget_remaining: w(finite_ms(rng)),
                        quarantined: rng.next_u64() % 2 == 1,
                        over_streak: (count(rng) >> 32) as u32,
                        shed: count(rng),
                        rejected: count(rng),
                        served_jobs: count(rng),
                        served_work: w(finite_ms(rng)),
                        queue: gen_jobs(rng),
                        finishing: gen_jobs(rng),
                        completed: gen_completed(rng),
                    })
                    .collect(),
            }),
            _ => panic!("no generator for body kind {kind}"),
        }
    }

    /// Parses `line` past its tag with `parse`, requiring the whole line
    /// to be consumed.
    fn reparse<T>(
        line: &str,
        tag: &str,
        parse: impl FnOnce(&mut Cursor<'_>) -> Result<T, SnapshotError>,
    ) -> T {
        let mut c = Cursor::new(line, 0);
        c.tag(tag).expect("the line's tag");
        let value = parse(&mut c).expect("the writer's own record parses");
        c.eol().expect("the record is consumed");
        assert!(c.rest().is_empty());
        value
    }

    #[test]
    fn every_event_record_matches_the_frozen_writer() {
        let mut rng = SplitMix64::seed_from_u64(0xE7E_4C0D);
        for kind in 0..EVENT_KINDS {
            for _ in 0..200 {
                let ev = gen_event(kind, &mut rng);
                assert_eq!(event_kind(&ev), kind);
                let at = ms(finite_ms(&mut rng));
                let (line, hash) = write_line(|w| {
                    w.tag("ev").time(at).event(&ev);
                });
                let frozen = format!(
                    "ev {} {}\n",
                    frozen::hex(at.as_ms()),
                    frozen::event_tokens(&ev)
                );
                assert_eq!(line, frozen, "{ev:?}");
                assert_eq!(hash, checksum(line.as_bytes()));
                let mut c = Cursor::new(&line, 0);
                let (t, back) = c.ev_line().expect("the writer's own record parses");
                assert!(c.rest().is_empty(), "the record is consumed");
                assert_eq!(t.as_ms().to_bits(), at.as_ms().to_bits());
                let (again, _) = write_line(|w| {
                    w.tag("ev").time(t).event(&back);
                });
                assert_eq!(again, line, "the parse is not bit-exact");
                if ev == ev {
                    assert_eq!(back, ev);
                }
            }
        }
    }

    #[test]
    fn every_body_record_matches_the_frozen_writer() {
        let mut rng = SplitMix64::seed_from_u64(0xB0D_7E57);
        for kind in 0..BODY_KINDS {
            for _ in 0..200 {
                let body = gen_body(kind, 3, &mut rng);
                assert_eq!(body_kind(&body), kind);
                let (line, hash) = write_line(|w| {
                    w.tag("body").body_state(&body);
                });
                let frozen = format!("body {}\n", frozen::body_tokens(&body));
                assert_eq!(line, frozen, "{body:?}");
                assert_eq!(hash, checksum(line.as_bytes()));
                let back = reparse(&line, "body", parse_body_state);
                let (again, _) = write_line(|w| {
                    w.tag("body").body_state(&back);
                });
                assert_eq!(again, line, "the parse is not bit-exact");
                if body == body {
                    assert_eq!(back, body);
                }
            }
        }
    }

    #[test]
    fn every_policy_token_matches_the_frozen_writer() {
        let mut kinds = vec![
            PolicyKind::PlainEdf,
            PolicyKind::PlainRm,
            PolicyKind::StaticEdf,
            PolicyKind::CcEdf,
            PolicyKind::LaEdf,
            PolicyKind::Interval,
            PolicyKind::StochasticEdf { confidence: 0.9 },
            PolicyKind::StochasticEdf { confidence: 1.0 },
            PolicyKind::StochasticEdf {
                confidence: f64::MIN_POSITIVE / 4.0,
            },
        ];
        for t in [
            RmTest::LiuLayland,
            RmTest::SchedulingPoints,
            RmTest::ResponseTime,
        ] {
            kinds.extend([PolicyKind::StaticRm(t), PolicyKind::CcRm(t)]);
        }
        for scheduler in [SchedulerKind::Edf, SchedulerKind::Rm] {
            for point in [0, 2, usize::MAX] {
                kinds.push(PolicyKind::Manual { scheduler, point });
            }
        }
        for kind in kinds {
            let (line, _) = write_line(|w| {
                w.tag("policy").policy(kind);
            });
            assert_eq!(line, format!("policy {}\n", frozen::policy_token(kind)));
            assert_eq!(reparse(&line, "policy", |c| c.policy()), kind);
        }
    }

    /// Reseals `snap`'s text after `edit`, as a forger would, and
    /// restores it.
    fn restore_forged(snap: &Snapshot, edit: impl FnOnce(&str) -> String) -> SnapshotError {
        let text = snap.as_text();
        let body = edit(&text[..text.rfind("checksum ").expect("a sealed text")]);
        let sum = checksum(body.as_bytes());
        let forged = Snapshot::from_text(&format!("{body}checksum {sum:016x}\n"))
            .expect("a resealed text passes the checksum");
        match forged.restore() {
            Ok(_) => panic!("the forged snapshot restored"),
            Err(e) => e,
        }
    }

    /// Replaces token `field` of the first line tagged `tag`.
    fn set_field(body: &str, tag: &str, field: usize, value: &str) -> String {
        let mut done = false;
        let lines: Vec<String> = body
            .lines()
            .map(|line| {
                let mut toks: Vec<&str> = line.split(' ').collect();
                if done || toks[0] != tag {
                    return line.to_owned();
                }
                done = true;
                toks[field] = value;
                toks.join(" ")
            })
            .collect();
        assert!(done, "no {tag:?} line");
        lines.join("\n") + "\n"
    }

    const NAN: &str = "7ff8000000000000";
    /// `f64::MAX`: finite, but past every bound restore keeps.
    const INF_ISH: &str = "7fefffffffffffff";
    const INF: &str = "7ff0000000000000";
    const NEG_INF: &str = "fff0000000000000";

    fn assert_corrupt(e: SnapshotError) {
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    #[test]
    fn non_finite_times_and_works_are_corrupt() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(30.0));
        let snap = k.checkpoint().expect("serializable set");
        for value in [NAN, INF, NEG_INF] {
            for (tag, field) in [
                ("clock", 1),
                ("stall-until", 1),
                ("last-snapshot", 1),
                ("ev", 1),
                ("entry", 3),
            ] {
                assert_corrupt(restore_forged(&snap, |b| set_field(b, tag, field, value)));
            }
        }
    }

    #[test]
    fn a_bad_meter_idle_level_is_corrupt() {
        let snap = paper_kernel(PolicyKind::CcEdf)
            .checkpoint()
            .expect("serializable set");
        for value in ["bff0000000000000", NAN] {
            assert_corrupt(restore_forged(&snap, |b| set_field(b, "meter", 1, value)));
        }
    }

    #[test]
    fn a_stochastic_confidence_outside_the_unit_interval_is_corrupt() {
        let snap = paper_kernel(PolicyKind::StochasticEdf { confidence: 0.9 })
            .checkpoint()
            .expect("serializable set");
        for value in [NAN, "3ff8000000000000"] {
            let token = format!("stoch-edf:{value}");
            assert_corrupt(restore_forged(&snap, |b| set_field(b, "policy", 1, &token)));
        }
    }

    #[test]
    fn a_huge_machine_point_count_is_corrupt() {
        let snap = paper_kernel(PolicyKind::CcEdf)
            .checkpoint()
            .expect("serializable set");
        let count = u64::MAX.to_string();
        assert_corrupt(restore_forged(&snap, |b| {
            set_field(b, "machine", 1, &count)
        }));
    }

    #[test]
    fn tokens_split_on_ascii_whitespace_only() {
        let machine = Machine::new("k6\u{a0}550", &[(0.5, 3.0), (1.0, 5.0)]).expect("valid");
        let mut k = RtKernel::new(machine, PolicyKind::CcEdf);
        k.spawn(ms(10.0), w(2.0), Box::new(UniformBody::new(7)))
            .expect("admits");
        k.run_until(ms(25.0));
        let snap = k.checkpoint().expect("serializable set");
        let (mut revived, _) = snap.restore().expect("valid");
        assert_eq!(revived.machine.name(), "k6\u{a0}550");
        let again = revived.checkpoint().expect("serializable set");
        let name_line = |s: &Snapshot| {
            let line = s.as_text().lines().find(|l| l.starts_with("machine "));
            line.expect("a machine line").to_owned()
        };
        assert_eq!(name_line(&again), name_line(&snap));
        // A separator the writer never emits is not a separator.
        assert_corrupt(restore_forged(&snap, |b| {
            b.replacen("epoch 0", "epoch\u{2003}0", 1)
        }));
    }

    /// The word-at-a-time hex decoder agrees with a digit-by-digit one:
    /// every byte value in every position decodes exactly when it is a
    /// lower-case hex digit, to that digit's value.
    #[test]
    fn hex_decoding_accepts_only_lower_case_digits() {
        let mut rng = SplitMix64::seed_from_u64(0x4E8_D161);
        for _ in 0..8 {
            let base = format!("{:016x}", rng.next_u64()).into_bytes();
            for i in 0..16 {
                for b in 0..=u8::MAX {
                    let mut digits = base.clone();
                    digits[i] = b;
                    let lower = matches!(b, b'0'..=b'9' | b'a'..=b'f');
                    let expected = std::str::from_utf8(&digits)
                        .ok()
                        .filter(|_| lower)
                        .and_then(|d| u64::from_str_radix(d, 16).ok());
                    assert_eq!(hex16(&digits), expected, "{digits:?}");
                }
            }
        }
        assert_eq!(hex16(b"0123456789abcde"), None);
        assert_eq!(hex16(b"0123456789abcdef0"), None);
    }

    /// Reseals `body` (the text above the checksum line), loads it and
    /// restores it; returns the first error.
    fn load_forged(body: &str) -> Result<(), SnapshotError> {
        let sum = checksum(body.as_bytes());
        let snap = Snapshot::from_text(&format!("{body}checksum {sum:016x}\n"))?;
        snap.restore().map(|_| ())
    }

    /// The spellings the writer never emits, each resealed into an `ev`
    /// line and into a state stanza (`epoch`, or `clock` for the hex
    /// ones, since the epoch is a decimal), and the `\r\n` one into the
    /// version line: every one is corrupt, so an accepted text's `ev` run
    /// is the writer's bytes.
    #[test]
    fn non_canonical_spellings_are_corrupt() {
        use crate::modechange::ModeChange;

        let mut k = paper_kernel(PolicyKind::CcEdf);
        let change = ModeChange::new().admit(ms(50.0), w(0.5), Box::new(WcetBody));
        k.submit_mode_change(change)
            .expect("the set stays feasible");
        k.run_until(ms(100.7));
        assert_eq!(k.mode_epoch(), 1);
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        let body = &text[..text.rfind("checksum ").expect("a sealed text")];
        load_forged(body).expect("the unedited text restores");
        let has_letter = |tok: &str| tok.bytes().any(|b| b.is_ascii_lowercase());
        let ev = body
            .lines()
            .find(|l| l.contains(" completed 1 ") && has_letter(&l[3..19]))
            .expect("a completion of task 1 at an instant with a letter digit");
        let clock = body
            .lines()
            .find(|l| l.starts_with("clock "))
            .expect("clock");
        assert!(has_letter(&clock[6..]));

        let hex = |line: &str, edit: fn(&str) -> String| {
            let at = line.find(' ').expect("a tagged line") + 1;
            format!(
                "{}{}{}",
                &line[..at],
                edit(&line[at..at + 16]),
                &line[at + 16..]
            )
        };
        let decimal = |line: &str, prefix: &str| {
            let (head, value) = match line.split_once(" completed ") {
                Some((head, rest)) => (format!("{head} completed "), rest),
                None => ("epoch ".to_owned(), &line[6..]),
            };
            format!("{head}{prefix}{value}")
        };
        type Edit<'a> = Box<dyn Fn(&str) -> String + 'a>;
        let spellings: [(&str, Edit); 8] = [
            ("a doubled space", Box::new(|l| l.replacen(' ', "  ", 1))),
            ("a tab", Box::new(|l| l.replacen(' ', "\t", 1))),
            ("a trailing space", Box::new(|l| format!("{l} "))),
            ("a \\r before the \\n", Box::new(|l| format!("{l}\r"))),
            (
                "upper-case hex",
                Box::new(|l| hex(l, |d| d.to_ascii_uppercase())),
            ),
            ("15-digit hex", Box::new(|l| hex(l, |d| d[1..].to_owned()))),
            ("a sign", Box::new(|l| decimal(l, "+"))),
            ("a leading zero", Box::new(|l| decimal(l, "0"))),
        ];
        for (what, edit) in &spellings {
            let stanza = if what.contains("hex") {
                clock
            } else {
                "epoch 1"
            };
            for line in [ev, stanza] {
                let edited = edit(line);
                assert_ne!(edited, line, "{what} does not change {line:?}");
                let forged = body.replacen(&format!("\n{line}\n"), &format!("\n{edited}\n"), 1);
                assert_ne!(forged, body);
                let e = load_forged(&forged).expect_err(what);
                assert!(
                    matches!(e, SnapshotError::Corrupt(_)),
                    "{what} in {line:?}: {e:?}"
                );
            }
        }
        let crlf = body.replacen(SNAPSHOT_VERSION, &format!("{SNAPSHOT_VERSION}\r"), 1);
        let e = load_forged(&crlf).expect_err("a \\r\\n version line");
        assert!(matches!(e, SnapshotError::Corrupt(_)), "{e:?}");
    }

    /// A resealed log that breaks the task lifecycle the audit checks
    /// (its clock-monotonicity, epoch-monotonicity and log-consistency
    /// rules) is corrupt, and so are state stanzas the log does not lead
    /// to: a clock behind the log, an epoch that is not the log's last
    /// committed one, a next handle the log has admitted (a spawn would
    /// reuse a live one), or an entry that does not resume its task's last
    /// release. The first probe is Table 2 under ccEDF at 100 ms with one
    /// `released` line duplicated, which restored before the parse held
    /// the log to those rules; the epoch stanza off the log and the
    /// duplicated commit restored before it held the epoch rule, and the
    /// first revived a kernel whose next commit the audit flags.
    #[test]
    fn lifecycle_broken_logs_are_corrupt() {
        use crate::modechange::ModeChange;

        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(100.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        let body = &text[..text.rfind("checksum ").expect("a sealed text")];
        let line = |needle: &str| {
            let l = body.lines().find(|l| l.ends_with(needle));
            l.unwrap_or_else(|| panic!("no line ending {needle:?}"))
        };
        let release = line(" released 1 1");
        let completion = line(" completed 1 1");
        let late = body
            .lines()
            .filter(|l| l.starts_with("ev "))
            .last()
            .expect("a log");
        let t = &late[3..19];
        let probes = [
            (
                "a duplicated release",
                body.replacen(release, &format!("{release}\n{release}"), 1),
            ),
            (
                "a duplicated completion",
                body.replacen(completion, &format!("{completion}\n{completion}"), 1),
            ),
            (
                "a release out of sequence",
                body.replacen(" released 2 2\n", " released 2 3\n", 1),
            ),
            (
                "a timestamp going backwards",
                body.replacen(late, &format!("{late}\nev 0000000000000000 snapshot"), 1),
            ),
            (
                "a clock jump of no distance",
                body.replacen(
                    late,
                    &format!("{late}\nev {t} clock-jump 8000000000000000"),
                    1,
                ),
            ),
            (
                "an event for a handle never admitted",
                body.replacen(late, &format!("{late}\nev {t} removed 9"), 1),
            ),
            (
                "a second admission of a live task",
                body.replacen(late, &format!("{late}\nev {t} admitted 1 0"), 1),
            ),
            (
                "a clock behind the log",
                set_field(body, "clock", 1, "0000000000000000"),
            ),
            (
                "an epoch stanza off the log",
                set_field(body, "epoch", 1, "5"),
            ),
            (
                "a next handle the log has admitted",
                set_field(body, "next-handle", 1, "3"),
            ),
            (
                "an entry that does not resume its last release",
                set_field(body, "entry", 5, "99"),
            ),
        ];
        let refused = |what: &str, unedited: &str, forged: &str| {
            assert_ne!(forged, unedited, "{what}: the edit missed");
            let e = load_forged(forged).expect_err(what);
            assert!(matches!(e, SnapshotError::Corrupt(_)), "{what}: {e:?}");
        };
        for (what, forged) in probes {
            refused(what, body, &forged);
        }
        // The same set after one committed mode change, its commit line
        // duplicated.
        let mut k = paper_kernel(PolicyKind::CcEdf);
        let change = ModeChange::new().admit(ms(50.0), w(0.5), Box::new(WcetBody));
        k.submit_mode_change(change)
            .expect("the set stays feasible");
        k.run_until(ms(100.0));
        assert_eq!(k.mode_epoch(), 1);
        let committed = k.checkpoint().expect("serializable set");
        let text = committed.as_text();
        let committed = &text[..text.rfind("checksum ").expect("a sealed text")];
        load_forged(committed).expect("the unedited text restores");
        let commit = committed
            .lines()
            .find(|l| l.ends_with(" mc-committed 1"))
            .expect("a commit line");
        let duplicated = committed.replacen(commit, &format!("{commit}\n{commit}"), 1);
        refused("a duplicated commit", committed, &duplicated);
    }

    /// `from_text` takes the `ev` run to end at the last `ev` line, so a
    /// resealed text whose `ev` lines are not one run after the version
    /// line loads, and restore's `ev` loop refuses it.
    #[test]
    fn an_ev_run_split_by_a_stanza_is_corrupt() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(100.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        let body = &text[..text.rfind("checksum ").expect("a sealed text")];
        let last = body
            .lines()
            .filter(|l| l.starts_with("ev "))
            .last()
            .expect("a log");
        let split = [
            body.replacen(&format!("{last}\n"), "", 1).replacen(
                "\nepoch ",
                &format!("\n{last}\nepoch "),
                1,
            ),
            format!("{body}{last}\n"),
        ];
        for forged in split {
            assert_ne!(forged, body);
            let e = load_forged(&forged).expect_err("a split run");
            assert!(
                matches!(&e, SnapshotError::Corrupt(m) if m.contains("\"ev\" line")),
                "{e:?}"
            );
        }
    }

    /// The checksum's guarantees, on a small checkpoint (Table 2 under
    /// ccEDF at 100 ms): `from_text` refuses every single-bit flip at
    /// every byte (but those in bit 7, which make the text invalid UTF-8,
    /// a `&str` cannot hold) and every truncation.
    #[test]
    fn every_bit_flip_and_truncation_is_refused() {
        let mut k = paper_kernel(PolicyKind::CcEdf);
        k.run_until(ms(100.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        assert!(text.is_ascii());
        let mut bytes = text.as_bytes().to_vec();
        let mut flips = 0;
        for i in 0..bytes.len() {
            for bit in 0..7 {
                bytes[i] ^= 1 << bit;
                let flipped = std::str::from_utf8(&bytes).expect("ASCII stays UTF-8");
                assert!(
                    Snapshot::from_text(flipped).is_err(),
                    "bit {bit} of byte {i} flipped is accepted"
                );
                bytes[i] ^= 1 << bit;
                flips += 1;
            }
        }
        assert_eq!(flips, 7 * text.len());
        for cut in 0..text.len() {
            assert!(
                Snapshot::from_text(&text[..cut]).is_err(),
                "the text cut at byte {cut} is accepted"
            );
        }
        assert!(Snapshot::from_text(text).is_ok());
    }

    /// The checksum state saved at a word boundary resumes to the one-shot
    /// checksum: at every split point of a ~300-byte text, a writer that
    /// holds the text up to the split, with the state at the boundary
    /// before it, and writes the rest line by line seals it as the
    /// one-shot checksum does.
    #[test]
    fn the_checksum_resumes_at_every_word_boundary() {
        let mut k = paper_kernel(PolicyKind::StaticEdf);
        k.run_until(ms(3.0));
        let snap = k.checkpoint().expect("serializable set");
        let text = snap.as_text();
        let cut = text
            .get(..300)
            .and_then(|t| t.rfind('\n'))
            .expect("a long text")
            + 1;
        let text = &text[..cut];
        assert!((280..=300).contains(&text.len()), "{}", text.len());
        let whole = checksum(text.as_bytes());
        for split in 0..=text.len() {
            let boundary = split & !7;
            let (hash, reached) = sum_words(SUM_SEED, &text.as_bytes()[..boundary], 0);
            assert_eq!(reached, boundary);
            assert_eq!(sum_resume(hash, boundary, text.as_bytes()), whole);
            let mut w = Writer {
                out: text[..split].to_owned(),
                hashed: boundary,
                hash,
            };
            for line in text[split..].split_inclusive('\n') {
                w.tag(line.trim_end_matches('\n')).end();
            }
            assert_eq!(w.out, text);
            assert_eq!(w.sum(), whole, "resumed at byte {split}");
        }
    }
}
