//! The per-execution memory budget tracker and scoped spill directory —
//! and the process-wide memory pool per-execution budgets are carved from.
//!
//! Two layers:
//!
//! * [`GlobalMemory`] is one machine-wide budget shared by every
//!   execution on an [`EngineRuntime`](crate::runtime::EngineRuntime).
//!   [`GlobalMemory::carve`] hands out a [`MemoryGrant`] — a slice of the
//!   not-yet-granted budget, capped by the query's own `mem_budget` —
//!   which returns to the pool when dropped.
//! * [`MemoryGovernor`] is the per-execution tracker the operators charge
//!   ([`MemoryGovernor::with_grant`]): its budget *is* the grant and its
//!   resident bytes mirror up into the pool's gauges.
//!
//! Pressure is strictly per-query: [`MemoryGovernor::over_budget`]
//! compares an execution's own resident bytes against its own grant, so a
//! query blowing through its slice spills *its* state — it can never force
//! a neighbor to spill, and the sum of grants never exceeds the pool.

use crate::engine::ExecError;
use crate::spill::file::{RunWriter, SortedRun};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use strato_record::RowRef;

/// The process-wide memory pool of a shared engine runtime.
///
/// Tracks two quantities: `granted` (bytes promised to in-flight
/// executions via [`GlobalMemory::carve`], under a mutex because carving
/// must read-modify-write against the budget) and `resident` (bytes
/// actually buffered right now, mirrored up from each execution's
/// [`MemoryGovernor`]; atomic, on the operators' accounting path).
#[derive(Debug)]
pub struct GlobalMemory {
    /// `None` = unbounded pool: every carve passes the query's own cap
    /// through unchanged.
    budget: Option<u64>,
    /// Bytes currently promised to live grants.
    granted: Mutex<u64>,
    /// Bytes currently buffered across all executions of the pool.
    resident: AtomicU64,
    /// High-water mark of `resident`.
    peak_resident: AtomicU64,
}

impl GlobalMemory {
    /// A pool enforcing `budget` bytes across all executions (`None` =
    /// unbounded; grants then just pass each query's cap through).
    pub fn new(budget: Option<u64>) -> Arc<GlobalMemory> {
        Arc::new(GlobalMemory {
            budget,
            granted: Mutex::new(0),
            resident: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
        })
    }

    /// Carves a grant for one execution out of the unpromised remainder of
    /// the pool, capped by the query's own `cap` (its `mem_budget`).
    ///
    /// On a bounded pool the grant is `min(cap, budget - granted)` — a
    /// query without a cap of its own claims the entire remainder. A
    /// late-arriving query can receive a **zero** grant; it then spills
    /// every batch it buffers, which is slow but correct, and its grant
    /// grows back to normal once earlier queries finish and return theirs.
    /// On an unbounded pool the grant is simply `cap` (`None` = the
    /// execution runs ungoverned).
    pub fn carve(self: &Arc<Self>, cap: Option<u64>) -> MemoryGrant {
        let bytes = match self.budget {
            None => cap,
            Some(total) => {
                let mut granted = self.granted.lock().unwrap();
                let avail = total.saturating_sub(*granted);
                let take = cap.unwrap_or(avail).min(avail);
                *granted += take;
                Some(take)
            }
        };
        MemoryGrant {
            bytes,
            pool: Arc::clone(self),
        }
    }

    /// Returns a grant's bytes to the pool (called by [`MemoryGrant`]'s
    /// drop).
    fn return_grant(&self, bytes: u64) {
        if self.budget.is_some() {
            let mut granted = self.granted.lock().unwrap();
            *granted = granted.saturating_sub(bytes);
        }
    }

    /// Mirrors newly buffered execution state into the pool's gauges.
    fn add_resident(&self, bytes: u64) {
        let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_resident.fetch_max(now, Ordering::Relaxed);
    }

    /// Mirrors released execution state out of the pool's gauges.
    fn sub_resident(&self, bytes: u64) {
        let _ = self
            .resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }

    /// The pool budget (`None` = unbounded).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Bytes currently promised to live grants.
    pub fn granted(&self) -> u64 {
        *self.granted.lock().unwrap()
    }

    /// Bytes currently buffered across all executions of the pool.
    pub fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// High-water mark of [`GlobalMemory::resident`].
    pub fn peak_resident(&self) -> u64 {
        self.peak_resident.load(Ordering::Relaxed)
    }
}

/// One execution's slice of a [`GlobalMemory`] pool — RAII: the bytes
/// return to the pool when the grant drops (normally via the owning
/// [`MemoryGovernor`], on every exit path including worker panics).
#[derive(Debug)]
pub struct MemoryGrant {
    /// The granted budget (`None` = ungoverned execution).
    bytes: Option<u64>,
    pool: Arc<GlobalMemory>,
}

impl MemoryGrant {
    /// The granted budget (`None` = the execution runs ungoverned).
    pub fn bytes(&self) -> Option<u64> {
        self.bytes
    }
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        if let Some(b) = self.bytes {
            self.pool.return_grant(b);
        }
    }
}

/// Scoped temp directory holding one execution's spill files. Removing it
/// recursively on drop is what guarantees no spill file outlives its
/// execution — including executions that fail with [`ExecError::Panic`]:
/// the scheduler catches worker unwinds, so the governor (and this
/// directory) is always dropped by the driver.
#[derive(Debug)]
struct SpillDir {
    path: PathBuf,
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failed removal leaks tmp files but must not turn a
        // finished query into an error (or a panic during unwind).
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Monotonic discriminator so two executions in one process (or a reused
/// pid across processes, via the timestamp) never share a directory.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Shared memory-budget tracker of one execution, plus the factory for its
/// spill files.
///
/// All blocking operators of an execution charge the same governor:
/// [`grant`](MemoryGovernor::grant) when buffering records,
/// [`release`](MemoryGovernor::release) when spilling or emitting them.
/// [`over_budget`](MemoryGovernor::over_budget) compares the *global*
/// resident total against the budget, so pressure from one large operator
/// makes every buffering operator shed state — the behavior a per-worker
/// memory budget models. Byte sizes use
/// [`Record::encoded_len`](strato_record::Record::encoded_len), the same
/// approximation the cost model's `mem_budget` is expressed in.
///
/// The spill directory is created lazily on the first spill (unbounded and
/// under-budget executions never touch the filesystem) and removed when
/// the governor drops.
#[derive(Debug)]
pub struct MemoryGovernor {
    /// Bytes currently buffered across all operators of the execution.
    resident: AtomicU64,
    /// Lazily created scoped directory holding this execution's runs.
    dir: Mutex<Option<SpillDir>>,
    /// Where to create the scoped directory (defaults to the OS temp dir).
    base: Option<PathBuf>,
    /// Names run files uniquely within the directory.
    run_seq: AtomicU64,
    /// The pool grant that is this governor's budget (`None` bytes =
    /// unbounded, never spills). Held here so the grant returns to the
    /// pool exactly when the governor drops; resident bytes mirror into
    /// the pool's gauges through it.
    grant: MemoryGrant,
    /// Span recorder when the owning execution is traced: run writes and
    /// k-way merges record spill spans here (`None` = tracing off).
    trace: Option<Arc<crate::trace::TraceRecorder>>,
}

impl MemoryGovernor {
    /// A governor enforcing `budget` bytes (`None` = unbounded) against a
    /// pool of its own, spilling into the OS temp directory.
    pub fn with_budget(budget: Option<u64>) -> Self {
        Self::with_grant(GlobalMemory::new(None).carve(budget), None)
    }

    /// A governor whose budget is a [`MemoryGrant`] carved from a shared
    /// [`GlobalMemory`] pool. The budget *is* the grant's bytes; resident
    /// bytes mirror into the pool's gauges; [`over_budget`] still compares
    /// only this execution's resident bytes against its own grant, so one
    /// query's pressure never spills another.
    ///
    /// [`over_budget`]: MemoryGovernor::over_budget
    pub fn with_grant(grant: MemoryGrant, base: Option<PathBuf>) -> Self {
        MemoryGovernor {
            resident: AtomicU64::new(0),
            dir: Mutex::new(None),
            base,
            run_seq: AtomicU64::new(0),
            grant,
            trace: None,
        }
    }

    /// Attaches (or detaches) the execution's span recorder — the
    /// streaming runtime calls this right after constructing the governor
    /// so spill-run and merge spans land in the query's trace.
    pub fn set_trace(&mut self, trace: Option<Arc<crate::trace::TraceRecorder>>) {
        self.trace = trace;
    }

    /// The execution's span recorder, if tracing is on (the merge
    /// machinery records its spans through this).
    #[inline]
    pub(crate) fn trace(&self) -> Option<&Arc<crate::trace::TraceRecorder>> {
        self.trace.as_ref()
    }

    /// Whether a budget is in force at all. Operators may skip byte
    /// accounting entirely when unbounded.
    #[inline]
    pub fn bounded(&self) -> bool {
        self.grant.bytes.is_some()
    }

    /// Registers `bytes` of newly buffered operator state.
    #[inline]
    pub fn grant(&self, bytes: u64) {
        if self.grant.bytes.is_some() {
            self.resident.fetch_add(bytes, Ordering::Relaxed);
            self.grant.pool.add_resident(bytes);
        }
    }

    /// Releases `bytes` of operator state (spilled, flushed or emitted).
    #[inline]
    pub fn release(&self, bytes: u64) {
        if self.grant.bytes.is_some() {
            // Saturating: a release can race a concurrent grant's visibility,
            // and clamping beats wrapping to u64::MAX (permanent pressure).
            // The pool mirror subtracts what was actually subtracted here,
            // so it can never eat into a sibling execution's accounting.
            let mut freed = bytes;
            let _ = self
                .resident
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    freed = v.min(bytes);
                    Some(v - freed)
                });
            self.grant.pool.sub_resident(freed);
        }
    }

    /// `true` when the execution's resident bytes exceed the budget — the
    /// signal for every buffering operator to shed its state.
    #[inline]
    pub fn over_budget(&self) -> bool {
        match self.grant.bytes {
            Some(b) => self.resident.load(Ordering::Relaxed) > b,
            None => false,
        }
    }

    /// Bytes currently registered as resident (0 when unbounded).
    pub fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }

    /// Writes `rows` — records or row views of batches, which the caller
    /// has already sorted — as one spill file, each row encoded
    /// straight from its view, creating the scoped spill directory on
    /// first use.
    pub fn write_sorted_run<'a, R: Into<RowRef<'a>>>(
        &self,
        rows: impl IntoIterator<Item = R>,
    ) -> Result<SortedRun, ExecError> {
        let t0 = self.trace.as_ref().map(|tr| tr.now_ns());
        let path = self.new_run_path()?;
        let mut w = RunWriter::create(path).map_err(spill_err)?;
        for r in rows {
            w.write(r.into()).map_err(spill_err)?;
        }
        let run = w.finish().map_err(spill_err)?;
        if let (Some(t0), Some(tr)) = (t0, &self.trace) {
            tr.record(
                "spill-run",
                "spill",
                t0,
                vec![("records", run.records()), ("bytes", run.bytes())],
            );
        }
        Ok(run)
    }

    /// A fresh, unique path for a run file inside the scoped directory.
    pub(crate) fn new_run_path(&self) -> Result<PathBuf, ExecError> {
        let mut dir = self.dir.lock().unwrap();
        if dir.is_none() {
            *dir = Some(create_dir(self.base.as_deref()).map_err(spill_err)?);
        }
        let seq = self.run_seq.fetch_add(1, Ordering::Relaxed);
        Ok(dir.as_ref().unwrap().path.join(format!("run-{seq}.spill")))
    }

    /// Path of the scoped spill directory, if any spill happened yet.
    pub fn spill_dir_path(&self) -> Option<PathBuf> {
        self.dir.lock().unwrap().as_ref().map(|d| d.path.clone())
    }
}

impl Drop for MemoryGovernor {
    fn drop(&mut self) {
        // Operators return what they buffered as their run buffers drop,
        // before the last governor handle goes; square the pool's resident
        // gauge for anything still charged, so an aborted query can never
        // leave phantom bytes pinned against everyone else's headroom. (The
        // grant itself returns via its own drop, which runs after this body.)
        let leftover = self.resident.load(Ordering::Relaxed);
        if leftover > 0 {
            self.grant.pool.sub_resident(leftover);
        }
    }
}

fn create_dir(base: Option<&Path>) -> std::io::Result<SpillDir> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let name = format!(
        "strato-spill-{}-{}-{nanos}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed),
    );
    let path = base
        .map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir)
        .join(name);
    std::fs::create_dir_all(&path)?;
    Ok(SpillDir { path })
}

/// Maps an IO failure on the spill path into an execution error.
pub(crate) fn spill_err(e: std::io::Error) -> ExecError {
    ExecError::Spill(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use strato_record::{Record, Value};

    fn rec(v: i64) -> Record {
        Record::from_values([Value::Int(v)])
    }

    #[test]
    fn unbounded_never_reports_pressure() {
        let g = MemoryGovernor::with_budget(None);
        assert!(!g.bounded());
        g.grant(u64::MAX);
        assert!(!g.over_budget());
        assert_eq!(g.resident(), 0, "unbounded governors skip accounting");
    }

    #[test]
    fn pressure_tracks_grant_and_release() {
        let g = MemoryGovernor::with_budget(Some(100));
        assert!(g.bounded());
        g.grant(80);
        assert!(!g.over_budget(), "at or below budget is fine");
        g.grant(40);
        assert!(g.over_budget());
        assert_eq!(g.resident(), 120);
        g.release(50);
        assert!(!g.over_budget());
        // Over-release clamps to zero instead of wrapping.
        g.release(1_000);
        assert_eq!(g.resident(), 0);
    }

    #[test]
    fn spill_dir_is_created_lazily_and_removed_on_drop() {
        let g = MemoryGovernor::with_budget(Some(1));
        assert_eq!(g.spill_dir_path(), None, "no spill, no directory");
        let run = g.write_sorted_run(&[rec(1), rec(2)]).unwrap();
        let dir = g.spill_dir_path().expect("directory exists after a spill");
        assert!(dir.exists());
        assert_eq!(run.records(), 2);
        drop(g);
        assert!(!dir.exists(), "scoped directory removed on drop");
    }

    #[test]
    fn carve_caps_grants_at_the_pool_remainder() {
        let pool = GlobalMemory::new(Some(100));
        let a = pool.carve(Some(60));
        assert_eq!(a.bytes(), Some(60));
        // Uncapped query: takes the whole remainder.
        let b = pool.carve(None);
        assert_eq!(b.bytes(), Some(40));
        assert_eq!(pool.granted(), 100);
        // Exhausted pool: a zero grant (spill-everything), not a panic.
        let c = pool.carve(Some(10));
        assert_eq!(c.bytes(), Some(0));
        // Grants return on drop.
        drop(a);
        assert_eq!(pool.granted(), 40);
        let d = pool.carve(Some(1_000));
        assert_eq!(d.bytes(), Some(60), "cap above remainder clamps");
    }

    #[test]
    fn unbounded_pool_passes_caps_through() {
        let pool = GlobalMemory::new(None);
        assert_eq!(pool.carve(Some(7)).bytes(), Some(7));
        assert_eq!(pool.carve(None).bytes(), None, "ungoverned stays so");
        assert_eq!(pool.granted(), 0);
    }

    #[test]
    fn governor_mirrors_resident_bytes_into_the_pool() {
        let pool = GlobalMemory::new(Some(100));
        let g1 = MemoryGovernor::with_grant(pool.carve(Some(50)), None);
        let g2 = MemoryGovernor::with_grant(pool.carve(Some(50)), None);
        g1.grant(30);
        g2.grant(20);
        assert_eq!(pool.resident(), 50);
        assert_eq!(pool.peak_resident(), 50);
        g1.release(30);
        assert_eq!(pool.resident(), 20);
        assert_eq!(pool.peak_resident(), 50, "peak is a high-water mark");
        // Over-release clamps locally and mirrors only what was freed.
        g2.release(1_000);
        assert_eq!((g2.resident(), pool.resident()), (0, 0));
    }

    #[test]
    fn pressure_is_per_query_not_per_pool() {
        let pool = GlobalMemory::new(Some(100));
        let heavy = MemoryGovernor::with_grant(pool.carve(Some(10)), None);
        let light = MemoryGovernor::with_grant(pool.carve(Some(50)), None);
        heavy.grant(25);
        assert!(heavy.over_budget(), "heavy blew its own grant");
        assert!(!light.over_budget(), "…but the neighbor feels nothing");
        light.grant(10);
        assert!(!light.over_budget());
    }

    #[test]
    fn dropping_a_governor_squares_the_pool_gauges() {
        let pool = GlobalMemory::new(Some(100));
        let g = MemoryGovernor::with_grant(pool.carve(Some(80)), None);
        g.grant(64);
        assert_eq!((pool.resident(), pool.granted()), (64, 80));
        // Simulates an aborted query: nothing released, governor dropped.
        drop(g);
        assert_eq!(pool.resident(), 0, "residual resident bytes squared");
        assert_eq!(pool.granted(), 0, "grant returned");
    }

    #[test]
    fn run_paths_are_unique() {
        let g = MemoryGovernor::with_budget(Some(1));
        let a = g.new_run_path().unwrap();
        let b = g.new_run_path().unwrap();
        assert_ne!(a, b);
        drop(g);
        assert!(!a.parent().unwrap().exists());
    }
}
