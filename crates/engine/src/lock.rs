//! The engine's lock policy, checked by the borrow checker.
//!
//! The engine has three locks — the job queue, each ticket's reply slot
//! and the cache's slot table — and the rule is that **no engine lock is
//! ever held while another is taken, or while anything that can block
//! runs** (classification, the disk tier, a condvar wait on another
//! lock). The rule is a type: every acquisition goes through [`lock()`],
//! [`read()`] or [`write()`], each of which borrows the caller's [`Unlocked`]
//! token mutably for as long as the guard lives, and every engine
//! function that locks or can block takes `&mut Unlocked` too. While a
//! guard is alive the token is unavailable, so a second acquisition or a
//! blocking call under it is a borrow error (E0499), not a review
//! finding. The token is a zero-sized, `!Send` value: it costs nothing
//! at run time and cannot be smuggled to another thread.
//!
//! Tokens are minted (crate-privately) in three kinds of place only: the
//! `pub` entry points of the cache, [`crate::Engine`] and
//! [`crate::Ticket`], each worker thread's entry, and the reply end's
//! `Drop`. Engine-internal code passes its token down and never calls a
//! minting entry. An implicit `Drop` that locks is outside the types:
//! dropping a reply end under a guard would compile, so the engine drops
//! its reply ends only after the queue lock is released.
//!
//! The raw `Mutex::lock`, `RwLock::read`/`write` and the predicate-less
//! `Condvar::wait`/`wait_timeout` are banned workspace-wide by
//! `clippy.toml`; the three functions below are the only sanctioned
//! acquisitions in this crate. A poisoned lock is recovered, never
//! propagated: no guard is held across user code that can panic.
//!
//! # What does not compile
//!
//! Each failing example has a compiling twin that differs only in
//! releasing the guard first, so the failure is the token borrow and
//! nothing else.
//!
//! A second lock under a live guard (the lock-order rule: with no nesting
//! at all, no acquisition order can form a cycle):
//!
//! ```compile_fail,E0499
//! use mcc_engine::lock::{lock, Unlocked};
//! use std::sync::Mutex;
//!
//! fn nested(a: &Mutex<u32>, b: &Mutex<u32>, t: &mut Unlocked) {
//!     let ga = lock(a, t);
//!     let gb = lock(b, t);
//!     drop((ga, gb));
//! }
//! ```
//!
//! ```
//! use mcc_engine::lock::{lock, Unlocked};
//! use std::sync::Mutex;
//!
//! fn sequential(a: &Mutex<u32>, b: &Mutex<u32>, t: &mut Unlocked) {
//!     let ga = lock(a, t);
//!     drop(ga);
//!     let gb = lock(b, t);
//!     drop(gb);
//! }
//! ```
//!
//! A blocking call under a live guard:
//!
//! ```compile_fail,E0499
//! use mcc_engine::lock::{lock, Unlocked};
//! use std::sync::Mutex;
//!
//! fn blocking(_: &mut Unlocked) {}
//!
//! fn block_under_lock(m: &Mutex<u32>, t: &mut Unlocked) {
//!     let g = lock(m, t);
//!     blocking(t);
//!     drop(g);
//! }
//! ```
//!
//! ```
//! use mcc_engine::lock::{lock, Unlocked};
//! use std::sync::Mutex;
//!
//! fn blocking(_: &mut Unlocked) {}
//!
//! fn block_after_unlock(m: &Mutex<u32>, t: &mut Unlocked) {
//!     let g = lock(m, t);
//!     drop(g);
//!     blocking(t);
//! }
//! ```
//!
//! The same call one frame away: the callee's signature carries the token,
//! so the check is transitive without a call graph.
//!
//! ```compile_fail,E0499
//! use mcc_engine::lock::{write, Unlocked};
//! use std::sync::RwLock;
//!
//! fn blocking(_: &mut Unlocked) {}
//!
//! fn calls_blocking(t: &mut Unlocked) {
//!     blocking(t);
//! }
//!
//! fn block_under_lock(m: &RwLock<u32>, t: &mut Unlocked) {
//!     let g = write(m, t);
//!     calls_blocking(t);
//!     drop(g);
//! }
//! ```
//!
//! ```
//! use mcc_engine::lock::{write, Unlocked};
//! use std::sync::RwLock;
//!
//! fn blocking(_: &mut Unlocked) {}
//!
//! fn calls_blocking(t: &mut Unlocked) {
//!     blocking(t);
//! }
//!
//! fn block_after_unlock(m: &RwLock<u32>, t: &mut Unlocked) {
//!     let g = write(m, t);
//!     drop(g);
//!     calls_blocking(t);
//! }
//! ```

use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Proof that the holder owns no engine lock: see the module docs. Only
/// the engine itself can mint one.
#[derive(Debug)]
pub struct Unlocked(PhantomData<*const ()>);

impl Unlocked {
    /// A fresh token, for an entry point that is called holding no
    /// engine lock.
    pub(crate) fn new() -> Self {
        Unlocked(PhantomData)
    }
}

/// Locks `m`, keeping `token` borrowed while the guard lives.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned Mutex acquisition: the guard borrows the token"
)]
pub fn lock<'a, T>(m: &'a Mutex<T>, _token: &'a mut Unlocked) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, keeping `token` borrowed while the guard lives.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned RwLock read: the guard borrows the token"
)]
pub fn read<'a, T>(l: &'a RwLock<T>, _token: &'a mut Unlocked) -> RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, keeping `token` borrowed while the guard lives.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned RwLock write: the guard borrows the token"
)]
pub fn write<'a, T>(l: &'a RwLock<T>, _token: &'a mut Unlocked) -> RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
