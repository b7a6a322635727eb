//! Dense, token-indexed slab for in-flight IO bookkeeping.
//!
//! [`Token`]s issued by one queue count up from 0 in submission order
//! (see [`Token::raw`]), so `raw − base` — where `base` is the first
//! token a run observed — is a dense slab index. Insert and remove are
//! O(1) with no hashing; the slab grows to the deepest concurrent
//! window and is then reused for the rest of the run. The executors and
//! the replay engine keep their per-IO state (process, intended
//! submission, sequence index) here; the old linear `Vec::position`
//! scan made every retire O(in-flight), turning deep-queue replays
//! quadratic.

use uflip_device::Token;

/// Slab keyed by [`Token`], holding one `T` per in-flight IO.
#[derive(Debug)]
pub struct TokenSlab<T> {
    /// Raw value of the run's first token (tokens are device-global,
    /// so a run rarely starts at 0).
    base: Option<u64>,
    /// One slot per token issued since `base`; `None` once retired.
    slots: Vec<Option<T>>,
}

impl<T> Default for TokenSlab<T> {
    fn default() -> Self {
        TokenSlab {
            base: None,
            slots: Vec::new(),
        }
    }
}

impl<T> TokenSlab<T> {
    /// Empty slab; the first `insert` fixes the token base.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "token-protocol invariants on the O(1) hot path: insert fixes the base before any lookup, and offsets are bounded by queue depth"
    )]
    fn index(&self, token: Token) -> usize {
        // uflip-lint: allow(UF031, reason = "token-protocol invariant on the O(1) hot path: insert fixes the base before any lookup")
        let base = self.base.expect("insert fixes the base first");
        // uflip-lint: allow(UF031, reason = "token offsets are bounded by queue depth; a failure here is a corrupted token, best caught loudly")
        usize::try_from(token.raw() - base).expect("token offsets fit a slab index")
    }

    /// Record `value` for an in-flight `token`.
    #[inline]
    pub fn insert(&mut self, token: Token, value: T) {
        if self.base.is_none() {
            self.base = Some(token.raw());
        }
        let idx = self.index(token);
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
        }
        debug_assert!(self.slots[idx].is_none(), "token reused while in flight");
        self.slots[idx] = Some(value);
    }

    /// Take the value recorded for a completed `token`.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "queues complete only submitted tokens; silently skipping an unknown token would hide executor bugs"
    )]
    pub fn remove(&mut self, token: Token) -> T {
        let idx = self.index(token);
        self.slots[idx]
            .take()
            // uflip-lint: allow(UF031, reason = "queues complete only submitted tokens; silently skipping an unknown token would hide executor bugs")
            .expect("completed token was submitted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip_with_nonzero_base() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        s.insert(Token::from_raw(100), 1);
        s.insert(Token::from_raw(101), 2);
        s.insert(Token::from_raw(102), 3);
        assert_eq!(s.remove(Token::from_raw(101)), 2);
        assert_eq!(s.remove(Token::from_raw(100)), 1);
        s.insert(Token::from_raw(103), 4);
        assert_eq!(s.remove(Token::from_raw(103)), 4);
        assert_eq!(s.remove(Token::from_raw(102)), 3);
    }

    #[test]
    #[should_panic(expected = "completed token was submitted")]
    fn double_remove_panics() {
        let mut s: TokenSlab<u32> = TokenSlab::new();
        s.insert(Token::from_raw(0), 1);
        s.remove(Token::from_raw(0));
        s.remove(Token::from_raw(0));
    }
}
