//! The query governor: deadlines, cooperative cancellation, memory
//! budgets, and panic isolation for one execution.
//!
//! Morsel-driven execution (Leis et al.) makes resource governance cheap:
//! because all work is chunked into morsels, every morsel claim — and
//! every breaker step and operator boundary — is a natural cooperative
//! checkpoint. A [`QueryGovernor`] rides along in the
//! [`ExecContext`](crate::pool::ExecContext) and is consulted at those
//! checkpoints:
//!
//! * **Cancellation** — an [`Arc<CancelToken>`] shared with the caller;
//!   flipping it converts the execution into
//!   [`ExecError::Cancelled`](crate::exec::ExecError::Cancelled) at the
//!   next checkpoint.
//! * **Deadline** — an absolute [`Instant`]; once passed, the next
//!   checkpoint surfaces
//!   [`ExecError::DeadlineExceeded`](crate::exec::ExecError::DeadlineExceeded).
//!   Latency to surface is bounded by one morsel / one breaker step, not
//!   by total plan work.
//! * **Memory budget** — materialisation points (operator outputs,
//!   breaker tables, pipeline sinks) charge their column bytes here and
//!   release them when the table recycles; exceeding the budget surfaces
//!   [`ExecError::MemoryBudgetExceeded`](crate::exec::ExecError::MemoryBudgetExceeded)
//!   instead of aborting the process. The accounting is *approximate by
//!   design*: it tracks live materialised column bytes (`rows × columns ×
//!   4`), not allocator truth — index vectors and the bounded buffer-pool
//!   free lists are excluded.
//! * **Panic isolation** — morsel workers and breaker steps run under
//!   [`std::panic::catch_unwind`] when a governor is present; a panicking
//!   kernel trips the governor and surfaces as
//!   [`ExecError::WorkerPanicked`](crate::exec::ExecError::WorkerPanicked)
//!   after the batch drains cleanly.
//!
//! The governor trips **once**: the first failure is recorded and every
//! later checkpoint returns the same error, so a multi-worker execution
//! reports one coherent cause. Operators themselves stay infallible —
//! long-running ones ([`crate::ops::cross_product`]) merely *poll*
//! [`QueryGovernor::poll`] and bail early with a discarded partial
//! output; the surrounding executor converts the trip into the typed
//! error and recycles everything it had materialised.
//!
//! # One governor per request on a shared pool
//!
//! Governance is strictly per-query even when many queries execute at
//! once: each request carries its own governor inside its own
//! [`ExecContext`](crate::pool::ExecContext), while their morsel batches
//! interleave on one [`SharedPool`](crate::morsel::SharedPool). A trip
//! (deadline, cancel, budget, panic) therefore drains only the tripped
//! query's remaining morsels — workers see the trip at the next claim
//! and skip the work — and the pool itself carries no per-query state
//! that could poison the *next* query scheduled on it. The serving
//! layer's admission control decides how many governed requests are in
//! flight; the governor never throttles anything but its own query.
//!
//! # Fault injection
//!
//! Under `cfg(any(test, feature = "fault-inject"))` a governor built with
//! [`QueryGovernor::with_fault_from_env`] arms itself from the
//! `HSP_FAULT` environment variable (`panic@<site>`, `slow@<site>`,
//! `alloc@<site>`). The fault fires deterministically — once per
//! governor, at the first checkpoint of the matching site — so tests can
//! assert that every instrumented site converts every failure mode into
//! its typed error and that a subsequent query on the same store is
//! byte-identical to a fresh run. Sites: `worker` (morsel workers),
//! `breaker` (pipeline breaker steps, including the γ aggregate merge),
//! `aggregate` (the γ fold's morsel claims and grouped-state memory
//! charges), `operator` (the operator-at-a-time oracle), `update` (the
//! SPARQL Update path).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shared cancellation flag: the caller keeps one clone of the
/// [`Arc`], the execution polls the other at every checkpoint.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent; safe from any thread).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// Why the governor stopped an execution. Converted into the matching
/// [`ExecError`](crate::exec::ExecError) variant at the executor surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernorError {
    /// The caller's [`CancelToken`] fired.
    Cancelled,
    /// The deadline passed.
    DeadlineExceeded,
    /// Live materialised bytes exceeded the budget.
    MemoryBudgetExceeded {
        /// Bytes accounted when the budget tripped.
        used: usize,
        /// The configured budget in bytes.
        budget: usize,
        /// The materialisation site that tripped it.
        site: &'static str,
    },
    /// A worker (or breaker) panicked; the pool joined cleanly.
    WorkerPanicked {
        /// The checkpoint site whose work panicked.
        site: &'static str,
    },
}

impl fmt::Display for GovernorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernorError::Cancelled => write!(f, "query cancelled"),
            GovernorError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            GovernorError::MemoryBudgetExceeded { used, budget, site } => write!(
                f,
                "memory budget exceeded at {site}: {used} bytes used (budget {budget})"
            ),
            GovernorError::WorkerPanicked { site } => {
                write!(f, "worker panicked at {site} (pool joined cleanly)")
            }
        }
    }
}

impl std::error::Error for GovernorError {}

/// An injected failure mode (see the module docs).
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// `panic@<site>`: panic at the site's checkpoint — exercises the
    /// `catch_unwind` isolation.
    Panic,
    /// `slow@<site>`: sleep ~25ms at the site's checkpoint — lets a short
    /// deadline fire deterministically.
    Slow,
    /// `alloc@<site>`: simulate an allocation failure — trips the memory
    /// budget at the site.
    Alloc,
}

#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug)]
struct Fault {
    mode: FaultMode,
    site: String,
    /// Fires once per governor: re-runs on the same process (with the env
    /// var still set) behave identically.
    fired: AtomicBool,
}

#[cfg(any(test, feature = "fault-inject"))]
fn parse_fault(spec: &str) -> Option<Fault> {
    let (mode, site) = spec.split_once('@')?;
    let mode = match mode.trim() {
        "panic" => FaultMode::Panic,
        "slow" => FaultMode::Slow,
        "alloc" => FaultMode::Alloc,
        _ => return None,
    };
    let site = site.trim();
    if site.is_empty() {
        return None;
    }
    Some(Fault {
        mode,
        site: site.to_string(),
        fired: AtomicBool::new(false),
    })
}

/// Per-query resource governor (see the module docs). Shared by reference
/// with every morsel worker — all state is atomic.
#[derive(Debug, Default)]
pub struct QueryGovernor {
    token: Option<Arc<CancelToken>>,
    deadline: Option<Instant>,
    mem_budget: Option<usize>,
    mem_used: AtomicUsize,
    mem_peak: AtomicUsize,
    checks: AtomicUsize,
    /// Fast-path flag: set (with [`Ordering::Release`]) after the first
    /// error is recorded in `trip`.
    tripped: AtomicBool,
    /// The first failure — later checkpoints return a clone of it.
    trip: Mutex<Option<GovernorError>>,
    #[cfg(any(test, feature = "fault-inject"))]
    fault: Option<Fault>,
}

impl QueryGovernor {
    /// A governor with no limits — checkpoints are near-free counter
    /// bumps (what the `governed_chain_100k` bench row measures).
    pub fn new() -> Self {
        QueryGovernor::default()
    }

    /// Trip the governor `timeout` from now.
    pub fn with_deadline_in(mut self, timeout: Duration) -> Self {
        self.deadline = Instant::now().checked_add(timeout);
        self
    }

    /// Trip the governor when live materialised bytes exceed `bytes`.
    pub fn with_mem_budget(mut self, bytes: usize) -> Self {
        self.mem_budget = Some(bytes);
        self
    }

    /// Poll `token` at every checkpoint.
    pub fn with_token(mut self, token: Arc<CancelToken>) -> Self {
        self.token = Some(token);
        self
    }

    /// Arm the fault-injection hook from the `HSP_FAULT` environment
    /// variable. A no-op unless compiled under
    /// `cfg(any(test, feature = "fault-inject"))`, and a no-op when the
    /// variable is unset or malformed — so production builds and plain
    /// test runs are unaffected.
    pub fn with_fault_from_env(self) -> Self {
        #[cfg(any(test, feature = "fault-inject"))]
        {
            let mut this = self;
            this.fault = std::env::var("HSP_FAULT")
                .ok()
                .and_then(|s| parse_fault(&s));
            this
        }
        #[cfg(not(any(test, feature = "fault-inject")))]
        self
    }

    /// Record the first failure (later failures are ignored) and return
    /// the winning error.
    fn trip_with(&self, e: GovernorError) -> GovernorError {
        let mut slot = self.trip.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(e);
        }
        self.tripped.store(true, Ordering::Release);
        // invariant: the slot was filled above if it was empty.
        slot.clone().expect("trip slot just filled")
    }

    /// The recorded failure, if the governor has tripped.
    pub fn trip_error(&self) -> Option<GovernorError> {
        if !self.tripped.load(Ordering::Acquire) {
            return None;
        }
        self.trip.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Has any checkpoint failed?
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The full cooperative checkpoint: count the check, fire an armed
    /// fault for this `site`, then poll token and deadline. Returns the
    /// first-recorded error forever once tripped.
    pub fn check(&self, site: &'static str) -> Result<(), GovernorError> {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = self.trip_error() {
            return Err(e);
        }
        self.fault_point(site)?;
        if self.poll() {
            return Err(self.trip_error().unwrap_or(GovernorError::Cancelled));
        }
        Ok(())
    }

    /// The cheap poll long-running operators use: `true` once the
    /// governor has tripped (recording a token/deadline trip if that is
    /// what happened). No fault injection, no check accounting.
    pub fn poll(&self) -> bool {
        if self.tripped.load(Ordering::Acquire) {
            return true;
        }
        if let Some(token) = &self.token {
            if token.is_cancelled() {
                self.trip_with(GovernorError::Cancelled);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip_with(GovernorError::DeadlineExceeded);
                return true;
            }
        }
        false
    }

    /// Account `bytes` of freshly materialised columns against the
    /// budget. The bytes are charged either way (the allocation already
    /// happened); an over-budget charge trips the governor.
    pub fn charge(&self, bytes: usize, site: &'static str) -> Result<(), GovernorError> {
        if bytes == 0 {
            return Ok(());
        }
        let used = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(used, Ordering::Relaxed);
        if let Some(budget) = self.mem_budget {
            if used > budget {
                return Err(self.trip_with(GovernorError::MemoryBudgetExceeded {
                    used,
                    budget,
                    site,
                }));
            }
        }
        Ok(())
    }

    /// Would charging `bytes` exceed the budget? Trips (and errors)
    /// **without charging** — the pre-materialisation guard that lets a
    /// Cartesian product fail before allocating its output.
    pub fn would_exceed(&self, bytes: usize, site: &'static str) -> Result<(), GovernorError> {
        if let Some(budget) = self.mem_budget {
            let used = self.mem_used.load(Ordering::Relaxed).saturating_add(bytes);
            if used > budget {
                return Err(self.trip_with(GovernorError::MemoryBudgetExceeded {
                    used,
                    budget,
                    site,
                }));
            }
        }
        Ok(())
    }

    /// Release `bytes` previously charged (a materialised table was
    /// recycled). Saturating: release is driven by table shape, and a
    /// handful of tables (clones, unit tables) are recycled without ever
    /// having been charged.
    pub fn release(&self, bytes: usize) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    /// Record a caught worker panic at `site`; returns the winning trip
    /// error (an earlier trip takes precedence).
    pub fn note_panic(&self, site: &'static str) -> GovernorError {
        self.trip_with(GovernorError::WorkerPanicked { site })
    }

    /// Checkpoints taken so far.
    pub fn checks(&self) -> usize {
        self.checks.load(Ordering::Relaxed)
    }

    /// Live materialised bytes currently accounted.
    pub fn mem_used(&self) -> usize {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// High-water mark of accounted bytes.
    pub fn mem_peak(&self) -> usize {
        self.mem_peak.load(Ordering::Relaxed)
    }

    #[cfg(any(test, feature = "fault-inject"))]
    fn fault_point(&self, site: &'static str) -> Result<(), GovernorError> {
        let Some(fault) = &self.fault else {
            return Ok(());
        };
        if fault.site != site || fault.fired.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        match fault.mode {
            FaultMode::Panic => panic!("injected fault: panic@{site}"),
            FaultMode::Slow => {
                std::thread::sleep(Duration::from_millis(25));
                Ok(())
            }
            FaultMode::Alloc => Err(self.trip_with(GovernorError::MemoryBudgetExceeded {
                used: self.mem_used.load(Ordering::Relaxed),
                budget: 0,
                site,
            })),
        }
    }

    #[cfg(not(any(test, feature = "fault-inject")))]
    fn fault_point(&self, _site: &'static str) -> Result<(), GovernorError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_governor_never_trips() {
        let gov = QueryGovernor::new();
        for _ in 0..100 {
            gov.check("worker").unwrap();
        }
        assert!(!gov.poll());
        assert_eq!(gov.checks(), 100);
        assert_eq!(gov.trip_error(), None);
    }

    #[test]
    fn cancel_token_trips_every_later_checkpoint() {
        let token = Arc::new(CancelToken::new());
        let gov = QueryGovernor::new().with_token(token.clone());
        gov.check("worker").unwrap();
        token.cancel();
        assert_eq!(gov.check("worker"), Err(GovernorError::Cancelled));
        // Sticky: the first error wins forever.
        assert_eq!(gov.check("breaker"), Err(GovernorError::Cancelled));
        assert!(gov.poll());
    }

    #[test]
    fn past_deadline_trips() {
        let gov = QueryGovernor::new().with_deadline_in(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(gov.check("operator"), Err(GovernorError::DeadlineExceeded));
    }

    #[test]
    fn memory_budget_charges_and_releases() {
        let gov = QueryGovernor::new().with_mem_budget(100);
        gov.charge(60, "sink").unwrap();
        assert_eq!(gov.mem_used(), 60);
        gov.release(20);
        assert_eq!(gov.mem_used(), 40);
        // Pre-check refuses without charging.
        assert!(matches!(
            gov.would_exceed(100, "crossproduct"),
            Err(GovernorError::MemoryBudgetExceeded {
                used: 140,
                budget: 100,
                site: "crossproduct"
            })
        ));
        assert_eq!(gov.mem_used(), 40);
        assert!(gov.is_tripped());
    }

    #[test]
    fn memory_peak_survives_release() {
        let gov = QueryGovernor::new();
        gov.charge(80, "sink").unwrap();
        gov.release(80);
        gov.charge(10, "sink").unwrap();
        assert_eq!(gov.mem_peak(), 80);
        // Release of never-charged bytes saturates at zero.
        gov.release(1_000_000);
        assert_eq!(gov.mem_used(), 0);
    }

    #[test]
    fn over_budget_charge_still_accounts_then_trips() {
        let gov = QueryGovernor::new().with_mem_budget(10);
        let err = gov.charge(25, "breaker").unwrap_err();
        assert_eq!(
            err,
            GovernorError::MemoryBudgetExceeded {
                used: 25,
                budget: 10,
                site: "breaker"
            }
        );
        assert_eq!(gov.mem_used(), 25);
    }

    #[test]
    fn first_trip_wins() {
        let gov = QueryGovernor::new().with_mem_budget(1);
        let first = gov.charge(5, "sink").unwrap_err();
        let second = gov.note_panic("worker");
        assert_eq!(first, second);
    }

    #[test]
    fn note_panic_trips_worker_panicked() {
        let gov = QueryGovernor::new();
        let e = gov.note_panic("worker");
        assert_eq!(e, GovernorError::WorkerPanicked { site: "worker" });
        assert_eq!(gov.trip_error(), Some(e));
    }

    #[test]
    fn fault_specs_parse() {
        assert!(parse_fault("panic@worker").is_some());
        assert!(parse_fault("slow@breaker").is_some());
        assert!(parse_fault("alloc@update").is_some());
        assert!(parse_fault("panic").is_none());
        assert!(parse_fault("boom@worker").is_none());
        assert!(parse_fault("panic@").is_none());
        assert!(parse_fault("").is_none());
    }

    #[test]
    fn alloc_fault_fires_once_at_its_site() {
        let gov = QueryGovernor {
            fault: parse_fault("alloc@breaker"),
            ..QueryGovernor::default()
        };
        // Wrong site: nothing happens.
        gov.check("worker").unwrap();
        // Matching site: trips as a memory-budget failure…
        assert!(matches!(
            gov.check("breaker"),
            Err(GovernorError::MemoryBudgetExceeded {
                site: "breaker",
                ..
            })
        ));
        // …and the sticky trip (not the fault) drives later checks.
        assert!(gov.check("breaker").is_err());
    }

    #[test]
    fn panic_fault_panics_at_its_site() {
        let gov = QueryGovernor {
            fault: parse_fault("panic@worker"),
            ..QueryGovernor::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = gov.check("worker");
        }));
        assert!(caught.is_err());
        // Fires once: the site is safe afterwards.
        gov.check("worker").unwrap();
    }
}
