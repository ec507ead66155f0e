//! The standing-session table: keyed, leased, bounded.
//!
//! A session is a live [`MaintainSession`] parked between requests so a
//! client can advance churn epochs incrementally instead of replaying a
//! whole timeline per request. The table enforces the lifecycle rules
//! the service promises:
//!
//! * **bounded** — at most `capacity` sessions; creation past the cap is
//!   a typed rejection (the server maps it to 429 + `Retry-After`). Each
//!   parked incremental session holds its live neighbour rows (4 B per
//!   live directed edge, besides its points and forest), so the table's
//!   memory is bounded by `capacity` × one session's rows;
//! * **leased** — every touch (create, advance, trace read) renews an
//!   idle lease; the reaper thread reclaims sessions idle past the TTL;
//! * **conservation-pinned** — reclaim (expiry *and* explicit DELETE)
//!   re-reads the session's cumulative [`SessionLedger`] and compares it
//!   bitwise against the snapshot taken at the last advance. A mismatch
//!   would mean session state mutated outside `advance`; the violation
//!   counter is exported on `/stats` and asserted zero by the chaos
//!   harness;
//! * **single-writer** — `advance` checks the session *out* of the table
//!   (marking the slot busy) so the epoch compute runs without holding
//!   the table lock; a concurrent advance or delete of a busy session is
//!   a typed conflict, never a deadlock or a torn state.
//!
//! Trace tails are plain rendered NDJSON lines appended per advance; a
//! long-poll waits on the table's condvar until the tail grows past the
//! client's offset, the session disappears, or the wait times out.

use emst_core::{MaintainSession, SessionLedger};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Why a session operation could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// No session with that id (never created, expired, or deleted).
    NotFound,
    /// The session exists but an advance is in flight; retry shortly.
    Busy,
    /// The table is at capacity; retry after the advertised delay.
    TableFull,
}

/// A trace long-poll read-out: the tail lines past the client's offset
/// (possibly empty on timeout) and the next offset to poll from.
#[derive(Debug)]
pub struct TraceTail {
    /// Rendered NDJSON epoch lines, oldest first.
    pub lines: Vec<String>,
    /// Offset to pass as `from` on the next poll.
    pub next: usize,
    /// Epochs advanced so far (equals the full trace length).
    pub epochs_run: u64,
}

/// Counter snapshot for `/stats`.
#[derive(Debug, Clone, Copy)]
pub struct SessionTableStats {
    /// Sessions currently in the table.
    pub open: usize,
    /// Table capacity.
    pub capacity: usize,
    /// Sessions ever created.
    pub created: u64,
    /// Creations rejected at capacity.
    pub rejected: u64,
    /// Sessions reclaimed by lease expiry.
    pub expired: u64,
    /// Sessions reclaimed by explicit DELETE.
    pub deleted: u64,
    /// Epoch advances applied across all sessions.
    pub advances: u64,
    /// Sessions dropped because an advance panicked mid-compute.
    pub poisoned: u64,
    /// Reclaims whose ledger did not match the last-advance snapshot
    /// bitwise. Must stay zero; see the module docs.
    pub reclaim_violations: u64,
}

enum Slot {
    Idle(Box<MaintainSession>),
    /// Checked out by an in-flight advance.
    Busy,
}

struct Entry {
    slot: Slot,
    /// Rendered NDJSON epoch lines, one per advance.
    trace: Vec<String>,
    /// Cumulative ledger snapshot at creation / last advance — the
    /// reclaim-conservation reference.
    last_ledger: SessionLedger,
    last_touch: Instant,
}

/// The bounded, leased session table. Shared between handler threads and
/// the reaper; all state sits behind one mutex, with a condvar for trace
/// long-polls.
pub struct SessionTable {
    inner: Mutex<HashMap<u64, Entry>>,
    grew: Condvar,
    /// Raised at drain: long-polls return immediately instead of
    /// sleeping out their window while the server waits on them.
    closed: AtomicBool,
    capacity: usize,
    ttl: Duration,
    next_id: AtomicU64,
    created: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    deleted: AtomicU64,
    advances: AtomicU64,
    poisoned: AtomicU64,
    reclaim_violations: AtomicU64,
}

impl SessionTable {
    /// An empty table holding at most `capacity` sessions whose leases
    /// idle out after `ttl`.
    pub fn new(capacity: usize, ttl: Duration) -> SessionTable {
        SessionTable {
            inner: Mutex::new(HashMap::new()),
            grew: Condvar::new(),
            closed: AtomicBool::new(false),
            capacity: capacity.max(1),
            ttl,
            next_id: AtomicU64::new(1),
            created: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            deleted: AtomicU64::new(0),
            advances: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            reclaim_violations: AtomicU64::new(0),
        }
    }

    /// Table capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured idle lease.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Sessions currently in the table.
    pub fn open(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Inserts a freshly bootstrapped session, returning its id.
    pub fn create(&self, session: MaintainSession) -> Result<u64, SessionError> {
        let mut map = self.inner.lock().unwrap();
        self.purge_expired(&mut map);
        if map.len() >= self.capacity {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SessionError::TableFull);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let last_ledger = session.ledger();
        map.insert(
            id,
            Entry {
                slot: Slot::Idle(Box::new(session)),
                trace: Vec::new(),
                last_ledger,
                last_touch: Instant::now(),
            },
        );
        self.created.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Checks session `id` out for an advance. The slot stays reserved
    /// (busy) until [`SessionTable::checkin`] or [`SessionTable::poison`].
    pub fn checkout(&self, id: u64) -> Result<Box<MaintainSession>, SessionError> {
        let mut map = self.inner.lock().unwrap();
        self.purge_expired(&mut map);
        let entry = map.get_mut(&id).ok_or(SessionError::NotFound)?;
        match std::mem::replace(&mut entry.slot, Slot::Busy) {
            Slot::Idle(session) => {
                entry.last_touch = Instant::now();
                Ok(session)
            }
            Slot::Busy => Err(SessionError::Busy),
        }
    }

    /// Returns an advanced session to its slot, appending the epoch's
    /// rendered trace line and snapshotting the new cumulative ledger.
    pub fn checkin(&self, id: u64, session: Box<MaintainSession>, line: String) {
        let mut map = self.inner.lock().unwrap();
        let entry = map
            .get_mut(&id)
            .expect("busy session cannot be reclaimed out from under its advance");
        entry.last_ledger = session.ledger();
        entry.slot = Slot::Idle(session);
        entry.trace.push(line);
        entry.last_touch = Instant::now();
        self.advances.fetch_add(1, Ordering::Relaxed);
        self.grew.notify_all();
    }

    /// Returns a checked-out session to its slot *unchanged* — used when
    /// the advance was refused before running (e.g. event validation
    /// failed), so no trace line or advance is recorded.
    pub fn release(&self, id: u64, session: Box<MaintainSession>) {
        let mut map = self.inner.lock().unwrap();
        let entry = map
            .get_mut(&id)
            .expect("busy session cannot be reclaimed out from under its advance");
        entry.slot = Slot::Idle(session);
        entry.last_touch = Instant::now();
    }

    /// Drops a checked-out session whose advance panicked: the state is
    /// unrecoverable (the compute unwound mid-mutation), so the slot is
    /// reclaimed rather than checked back in half-advanced.
    pub fn poison(&self, id: u64) {
        let mut map = self.inner.lock().unwrap();
        map.remove(&id);
        self.poisoned.fetch_add(1, Ordering::Relaxed);
        self.grew.notify_all();
    }

    /// Deletes session `id`, verifying the reclaim-conservation pin.
    /// Returns the final cumulative ledger and whether the pin held.
    pub fn delete(&self, id: u64) -> Result<(SessionLedger, bool), SessionError> {
        let mut map = self.inner.lock().unwrap();
        let entry = map.get_mut(&id).ok_or(SessionError::NotFound)?;
        if matches!(entry.slot, Slot::Busy) {
            return Err(SessionError::Busy);
        }
        let entry = map.remove(&id).expect("checked present above");
        let conserved = self.check_reclaim(&entry);
        self.deleted.fetch_add(1, Ordering::Relaxed);
        self.grew.notify_all();
        Ok((entry.last_ledger, conserved))
    }

    /// Long-polls session `id`'s trace tail: returns as soon as lines
    /// past `from` exist, the session disappears, or `wait` elapses
    /// (empty tail). Reading the trace renews the lease.
    pub fn wait_trace(
        &self,
        id: u64,
        from: usize,
        wait: Duration,
    ) -> Result<TraceTail, SessionError> {
        let deadline = Instant::now() + wait;
        let mut map = self.inner.lock().unwrap();
        loop {
            self.purge_expired(&mut map);
            let Some(entry) = map.get_mut(&id) else {
                return Err(SessionError::NotFound);
            };
            entry.last_touch = Instant::now();
            if entry.trace.len() > from {
                return Ok(TraceTail {
                    lines: entry.trace[from..].to_vec(),
                    next: entry.trace.len(),
                    epochs_run: entry.trace.len() as u64,
                });
            }
            let now = Instant::now();
            if now >= deadline || self.closed.load(Ordering::SeqCst) {
                return Ok(TraceTail {
                    lines: Vec::new(),
                    next: from,
                    epochs_run: entry.trace.len() as u64,
                });
            }
            let (guard, _timeout) = self.grew.wait_timeout(map, deadline - now).unwrap();
            map = guard;
        }
    }

    /// Reclaims idle-expired sessions. Called opportunistically under the
    /// lock and periodically by the reaper thread.
    fn purge_expired(&self, map: &mut HashMap<u64, Entry>) {
        if self.ttl.is_zero() {
            return;
        }
        let now = Instant::now();
        let dead: Vec<u64> = map
            .iter()
            .filter(|(_, e)| {
                !matches!(e.slot, Slot::Busy) && now.duration_since(e.last_touch) > self.ttl
            })
            .map(|(&id, _)| id)
            .collect();
        for id in dead {
            let entry = map.remove(&id).expect("listed above");
            self.check_reclaim(&entry);
            self.expired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The reclaim-conservation pin: the ledger read at reclaim must be
    /// bitwise identical to the snapshot taken at the last advance.
    fn check_reclaim(&self, entry: &Entry) -> bool {
        let conserved = match &entry.slot {
            Slot::Idle(session) => session.ledger() == entry.last_ledger,
            Slot::Busy => unreachable!("busy sessions are never reclaimed"),
        };
        if !conserved {
            self.reclaim_violations.fetch_add(1, Ordering::Relaxed);
        }
        conserved
    }

    /// Marks the table draining: every waiting trace long-poll is woken
    /// and returns its (possibly empty) tail at once, so shutdown never
    /// waits out a long-poll window.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.inner.lock().unwrap();
        self.grew.notify_all();
    }

    /// Counter snapshot for `/stats`.
    pub fn stats(&self) -> SessionTableStats {
        SessionTableStats {
            open: self.open(),
            capacity: self.capacity,
            created: self.created.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            deleted: self.deleted.load(Ordering::Relaxed),
            advances: self.advances.load(Ordering::Relaxed),
            poisoned: self.poisoned.load(Ordering::Relaxed),
            reclaim_violations: self.reclaim_violations.load(Ordering::Relaxed),
        }
    }
}

/// Spawns the lease reaper: a background thread that purges expired
/// sessions every quarter-TTL (floored so short test TTLs still reap
/// promptly) until `stop` is raised. Waiting trace long-polls are woken
/// so they observe the disappearance instead of sleeping out their full
/// window.
pub fn spawn_reaper(table: Arc<SessionTable>, stop: Arc<AtomicBool>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let tick = (table.ttl / 4).clamp(Duration::from_millis(5), Duration::from_secs(5));
        let slice = tick.min(Duration::from_millis(20));
        while !stop.load(Ordering::SeqCst) {
            // Sleep the tick in short slices so a server drain joining
            // this thread never waits out a multi-second tick.
            let wake = Instant::now() + tick;
            while Instant::now() < wake {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                thread::sleep(slice);
            }
            let mut map = table.inner.lock().unwrap();
            let before = map.len();
            table.purge_expired(&mut map);
            if map.len() != before {
                table.grew.notify_all();
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_core::{MaintainSession, MaintainStrategy};
    use emst_geom::Point;

    fn mk_session() -> MaintainSession {
        let pts = [
            Point { x: 0.1, y: 0.1 },
            Point { x: 0.2, y: 0.15 },
            Point { x: 0.8, y: 0.9 },
        ];
        MaintainSession::bootstrap(&pts, 1.5, MaintainStrategy::Incremental)
    }

    #[test]
    fn create_checkout_checkin_delete_roundtrip() {
        let table = SessionTable::new(2, Duration::from_secs(60));
        let id = table.create(mk_session()).unwrap();
        let mut s = table.checkout(id).unwrap();
        assert_eq!(table.checkout(id).unwrap_err(), SessionError::Busy);
        assert_eq!(table.delete(id).unwrap_err(), SessionError::Busy);
        let report = s.advance(&[]);
        assert!(report.ledger_conserved);
        table.checkin(id, s, "line-1".into());
        let tail = table.wait_trace(id, 0, Duration::from_millis(0)).unwrap();
        assert_eq!(tail.lines, vec!["line-1".to_string()]);
        assert_eq!(tail.next, 1);
        let (ledger, conserved) = table.delete(id).unwrap();
        assert!(conserved, "pure read-out must reproduce the snapshot");
        assert_eq!(ledger.epoch, 1);
        assert_eq!(table.delete(id).unwrap_err(), SessionError::NotFound);
        assert_eq!(table.stats().reclaim_violations, 0);
    }

    #[test]
    fn capacity_rejects_and_expiry_reclaims() {
        let table = SessionTable::new(1, Duration::from_millis(30));
        let id = table.create(mk_session()).unwrap();
        assert_eq!(table.create(mk_session()), Err(SessionError::TableFull));
        std::thread::sleep(Duration::from_millis(60));
        // The expired lease is purged on the next table touch, freeing
        // the slot; the reclaim pin must have held.
        let id2 = table.create(mk_session()).unwrap();
        assert_ne!(id, id2);
        let stats = table.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.reclaim_violations, 0);
        assert_eq!(table.checkout(id).unwrap_err(), SessionError::NotFound);
    }

    #[test]
    fn trace_long_poll_wakes_on_advance() {
        let table = Arc::new(SessionTable::new(4, Duration::from_secs(60)));
        let id = table.create(mk_session()).unwrap();
        let t2 = Arc::clone(&table);
        let advancer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let mut s = t2.checkout(id).unwrap();
            let _ = s.advance(&[]);
            t2.checkin(id, s, "tick".into());
        });
        let tail = table.wait_trace(id, 0, Duration::from_secs(5)).unwrap();
        advancer.join().unwrap();
        assert_eq!(tail.lines, vec!["tick".to_string()]);
    }
}
