//! Small, stable per-thread identities used by the wait-for graph.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of an OS thread within the lock runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadToken(u64);

impl ThreadToken {
    /// Numeric value (diagnostics only).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Inverse of [`as_u64`](ThreadToken::as_u64) for a lock's owner word:
    /// tokens start at 1, so 0 is "no thread".
    pub(crate) fn from_raw(n: u64) -> Option<ThreadToken> {
        (n != 0).then_some(ThreadToken(n))
    }
}

impl fmt::Display for ThreadToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread#{}", self.0)
    }
}

static NEXT: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TOKEN: Cell<Option<ThreadToken>> = const { Cell::new(None) };
}

/// The calling thread's token, allocated on first use.
pub fn current() -> ThreadToken {
    TOKEN.with(|t| match t.get() {
        Some(tok) => tok,
        None => {
            let tok = ThreadToken(NEXT.fetch_add(1, Ordering::Relaxed));
            t.set(Some(tok));
            tok
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_within_a_thread() {
        assert_eq!(current(), current());
    }

    #[test]
    fn distinct_across_threads() {
        let here = current();
        let there = std::thread::spawn(current).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn display_mentions_thread() {
        assert!(current().to_string().contains("thread#"));
    }
}
