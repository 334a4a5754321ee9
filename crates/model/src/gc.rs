//! Model 4: refcount GC for the content-addressed chunk store.
//!
//! Mirrors the dedup commit/retire lifecycle split between `orte::store`
//! and `opal::store::ChunkStore` (DESIGN.md §2.5).  Each lifecycle step
//! is a separate durable action, in the production order:
//!
//! * `prepare(i)` — insert interval `i`'s blobs and increment their
//!   refcounts (`ChunkStore::insert` + `incref_all`), *before* any
//!   manifest exists;
//! * `record(i)` — commit the interval with its manifests in the record
//!   (one `GlobalSnapshot::commit_interval`): the interval is now
//!   restartable ("live");
//! * `retire(i)` — drop the manifest record first
//!   (`GlobalSnapshot::retire_interval`);
//! * `decref(i)` — decrement the retired chunks' refcounts
//!   (`decref_all`);
//! * `sweep(c)` — reclaim a count-zero blob (`ChunkStore::sweep`).
//!
//! Because every step is its own transition, a node death between any
//! two of them is just a reachable intermediate state, so the exhaustive
//! check covers "crash between decrement and sweep" (and every other
//! crash point) for free: a crash can leak a blob, never dangle one.
//!
//! Two intervals share chunk `b` (cross-interval dedup): interval 0's
//! manifest is `{a, b}`, interval 1's is `{b, c}`.
//!
//! Invariant: every chunk referenced by a *live* (recorded) manifest is
//! present in the store — "no live-manifest chunk is ever swept".  An
//! auxiliary invariant pins the refcount file to the manifest
//! references, so accounting drift is caught too.
//!
//! Mutation: [`GcModel::sweep_before_decrement`] lets retirement sweep
//! the retired interval's chunk list directly, before the decrement
//! lands.  The refcount can then no longer protect chunks shared with a
//! still-live manifest — which is exactly why the production order is
//! decrement-then-sweep-count-zero.

use crate::checker::Model;

/// Where an interval is in the commit/retire lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    /// No trace of the interval: blobs not inserted, no manifest.
    Absent,
    /// Blobs inserted and increfed; manifest not yet recorded.
    Prepared,
    /// Manifest recorded: the interval is restartable.
    Live,
    /// Manifest record dropped; refcounts not yet decremented.
    Unrecorded,
}

/// Global state: per-interval lifecycle phase, per-chunk refcount
/// (mirroring `refcounts.meta`) and blob presence on disk.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GcSt {
    /// Lifecycle phase of each interval.
    pub phases: [Phase; 2],
    /// Refcount of each chunk (`a`, `b`, `c`).
    pub refs: [u8; 3],
    /// Whether each chunk's blob is present in the store.
    pub present: [bool; 3],
}

impl GcSt {
    fn phase(&self, i: usize) -> Phase {
        self.phases.get(i).copied().unwrap_or(Phase::Absent)
    }

    fn set_phase(&mut self, i: usize, p: Phase) {
        if let Some(slot) = self.phases.get_mut(i) {
            *slot = p;
        }
    }

    fn refcount(&self, c: usize) -> u8 {
        self.refs.get(c).copied().unwrap_or(0)
    }

    fn incref(&mut self, c: usize) {
        if let Some(r) = self.refs.get_mut(c) {
            *r = r.saturating_add(1);
        }
    }

    fn decref(&mut self, c: usize) {
        if let Some(r) = self.refs.get_mut(c) {
            *r = r.saturating_sub(1);
        }
    }

    fn is_present(&self, c: usize) -> bool {
        self.present.get(c).copied().unwrap_or(false)
    }

    fn set_present(&mut self, c: usize, v: bool) {
        if let Some(p) = self.present.get_mut(c) {
            *p = v;
        }
    }
}

/// The refcount-GC model.
#[derive(Clone, Copy, Default)]
pub struct GcModel {
    /// Mutation: retirement sweeps the retired manifest's chunk list
    /// before the decrement is applied.
    pub sweep_before_decrement: bool,
}

/// Manifest of each interval, as chunk indices (`b` = 1 is shared).
const MANIFESTS: [&[usize]; 2] = [&[0, 1], &[1, 2]];

fn chunk_name(c: usize) -> char {
    (b'a' + c as u8) as char
}

impl Model for GcModel {
    type State = GcSt;

    fn name(&self) -> &'static str {
        "gc"
    }

    fn initial(&self) -> Vec<GcSt> {
        vec![GcSt {
            phases: [Phase::Absent; 2],
            refs: [0; 3],
            present: [false; 3],
        }]
    }

    fn transitions(&self, s: &GcSt, out: &mut Vec<(String, GcSt)>) {
        for (i, manifest) in MANIFESTS.iter().enumerate() {
            match s.phase(i) {
                // commit, first half: insert blobs + incref.  A dedup hit
                // (blob already present) still increments, exactly like
                // `incref_all` after `insert`.
                Phase::Absent => {
                    let mut t = s.clone();
                    t.set_phase(i, Phase::Prepared);
                    for &c in *manifest {
                        t.set_present(c, true);
                        t.incref(c);
                    }
                    out.push((format!("prepare({i})"), t));
                }
                // commit, second half: the manifest record lands.
                Phase::Prepared => {
                    let mut t = s.clone();
                    t.set_phase(i, Phase::Live);
                    out.push((format!("record({i})"), t));
                }
                // retirement, first half: the manifest record is dropped.
                Phase::Live => {
                    let mut t = s.clone();
                    t.set_phase(i, Phase::Unrecorded);
                    out.push((format!("retire({i})"), t));
                }
                // retirement, second half: refcounts decremented.
                Phase::Unrecorded => {
                    let mut t = s.clone();
                    t.set_phase(i, Phase::Absent);
                    for &c in *manifest {
                        t.decref(c);
                    }
                    out.push((format!("decref({i})"), t));
                }
            }
        }
        for c in 0..3 {
            // GC sweep: reclaim a count-zero blob.
            if s.is_present(c) && s.refcount(c) == 0 {
                let mut t = s.clone();
                t.set_present(c, false);
                out.push((format!("sweep({})", chunk_name(c)), t));
            }
            // Mutation: sweep straight off the retired manifest's chunk
            // list, before `decref` has run.
            if self.sweep_before_decrement && s.is_present(c) {
                let retired = MANIFESTS.iter().enumerate().any(|(i, m)| {
                    s.phase(i) == Phase::Unrecorded && m.contains(&c)
                });
                if retired {
                    let mut t = s.clone();
                    t.set_present(c, false);
                    out.push((format!("sweep_retired({})", chunk_name(c)), t));
                }
            }
        }
    }

    fn invariant(&self, s: &GcSt) -> Result<(), String> {
        // Safety: a live manifest's chunks must all be fetchable.
        for (i, manifest) in MANIFESTS.iter().enumerate() {
            if s.phase(i) != Phase::Live {
                continue;
            }
            for &c in *manifest {
                if !s.is_present(c) {
                    return Err(format!(
                        "chunk {} of live interval {i}'s manifest was swept: \
                         restart would dangle",
                        chunk_name(c)
                    ));
                }
            }
        }
        // Accounting: the refcount file must equal the number of
        // intervals holding a reference (prepared, live or unrecorded —
        // everything between incref and decref).
        for c in 0..3 {
            let held = MANIFESTS
                .iter()
                .enumerate()
                .filter(|(i, m)| s.phase(*i) != Phase::Absent && m.contains(&c))
                .count() as u8;
            if s.refcount(c) != held {
                return Err(format!(
                    "refcount drift on chunk {}: file says {}, manifests hold {held}",
                    chunk_name(c),
                    s.refcount(c)
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Bounds};

    #[test]
    fn pristine_model_is_green() {
        let report = check(&GcModel::default(), &Bounds::exhaustive());
        assert!(report.ok(), "{:?}", report.violation.map(|c| c.render()));
        assert!(report.exhaustive());
        assert!(report.states > 20, "space too small: {}", report.states);
    }

    #[test]
    fn crash_between_decref_and_sweep_only_leaks() {
        // The state right after decref(1) with sweep not yet run: chunk c
        // is a count-zero blob on disk.  It must be reachable (the crash
        // window exists) and invariant-clean (a leak, not a dangle).
        let m = GcModel::default();
        let s = GcSt {
            phases: [Phase::Absent, Phase::Absent],
            refs: [0, 0, 0],
            present: [true, true, true],
        };
        assert!(m.invariant(&s).is_ok());
    }
}
