//! Per-worker scratch-buffer reuse for the matchers' search state.
//!
//! Every search allocates the same transient buffers: an assignment
//! vector, a `used` flag array sized to the target, and (for the
//! matrix-based matchers) an `nq × nt` membership matrix. Under a
//! serving engine those allocations happen once per *entrant per
//! query* — pure allocator traffic on the steady-state hot path. This
//! module keeps a small thread-local pool of `Vec<u32>` / `Vec<bool>`
//! buffers: pooled workers are long-lived threads, so after warm-up a
//! search's buffers are recycled capacity, not fresh heap.
//!
//! Buffers are handed out as guards ([`U32Buf`], [`BoolBuf`]) that
//! return their storage to the pool on drop.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Buffers retained per kind per thread; anything beyond this is simply
/// freed (a pool is a cache, not a leak).
const POOL_CAP: usize = 16;

#[derive(Default)]
struct Pool {
    u32s: Vec<Vec<u32>>,
    bools: Vec<Vec<bool>>,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// A pooled `Vec<u32>` sized and filled on acquisition; returns to the
/// thread-local pool on drop.
pub struct U32Buf {
    buf: Vec<u32>,
}

/// A pooled `Vec<bool>`, cleared to `false` on acquisition.
pub struct BoolBuf {
    buf: Vec<bool>,
}

/// Acquires a `Vec<u32>` of `len` elements, all set to `fill`.
pub fn u32_buf(len: usize, fill: u32) -> U32Buf {
    let mut buf = POOL.with(|p| p.borrow_mut().u32s.pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, fill);
    U32Buf { buf }
}

/// Acquires a `Vec<bool>` of `len` elements, all `false`.
pub fn bool_buf(len: usize) -> BoolBuf {
    let mut buf = POOL.with(|p| p.borrow_mut().bools.pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, false);
    BoolBuf { buf }
}

impl Deref for U32Buf {
    type Target = Vec<u32>;
    #[inline]
    fn deref(&self) -> &Vec<u32> {
        &self.buf
    }
}

impl DerefMut for U32Buf {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<u32> {
        &mut self.buf
    }
}

impl Deref for BoolBuf {
    type Target = Vec<bool>;
    #[inline]
    fn deref(&self) -> &Vec<bool> {
        &self.buf
    }
}

impl DerefMut for BoolBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut Vec<bool> {
        &mut self.buf
    }
}

impl Drop for U32Buf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.u32s.len() < POOL_CAP {
                pool.u32s.push(buf);
            }
        });
    }
}

impl Drop for BoolBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.bools.len() < POOL_CAP {
                pool.bools.push(buf);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_sized_and_filled() {
        let a = u32_buf(4, 7);
        assert_eq!(&a[..], &[7, 7, 7, 7]);
        let b = bool_buf(3);
        assert_eq!(&b[..], &[false, false, false]);
    }

    #[test]
    fn pooled_capacity_is_recycled_on_this_thread() {
        {
            let mut a = u32_buf(100, 0);
            a[99] = 5;
        } // returned to the pool
        let b = u32_buf(10, 3);
        assert!(b.capacity() >= 100, "recycled buffer keeps its capacity");
        assert_eq!(&b[..], &[3; 10], "stale contents are cleared");
    }

    #[test]
    fn pool_is_bounded() {
        let many: Vec<U32Buf> = (0..POOL_CAP + 8).map(|_| u32_buf(8, 0)).collect();
        drop(many);
        assert!(POOL.with(|p| p.borrow().u32s.len()) <= POOL_CAP);
    }
}
