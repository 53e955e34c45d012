//! Per-thread reusable scratch buffers for the im2col lowering.
//!
//! The convolution kernels need a `(col_rows, col_cols)` staging matrix
//! per image. Allocating it per call dominated small-convolution time, so
//! scratch buffers are drawn from the calling thread's activation arena
//! ([`crate::arena`]) — the same pool that backs [`crate::Tensor`]
//! buffers — and handed out zeroed. Each long-lived pool worker draws from
//! its own arena, which stays warm across dispatches, so no
//! synchronization is involved and a warm worker stages without heap
//! allocation.

use crate::arena;

/// Runs `f` with a zeroed scratch buffer of `len` elements drawn from the
/// calling thread's arena; the buffer returns to the arena afterwards.
///
/// Nested calls are fine — each draws a distinct buffer.
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    let mut buf = arena::take_buffer(len);
    buf.resize(len, 0.0);
    let r = f(&mut buf);
    arena::recycle(buf);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_is_zeroed_each_time() {
        with_scratch(8, |b| {
            assert_eq!(b.as_slice(), &[0.0; 8]);
            b.fill(7.0);
        });
        with_scratch(8, |b| assert_eq!(b.as_slice(), &[0.0; 8]));
        with_scratch(4, |b| assert_eq!(b.len(), 4));
        with_scratch(16, |b| assert_eq!(b.as_slice(), &[0.0; 16]));
    }

    #[test]
    fn nested_calls_get_distinct_buffers() {
        with_scratch(4, |outer| {
            outer.fill(1.0);
            with_scratch(4, |inner| {
                assert_eq!(inner.as_slice(), &[0.0; 4]);
                inner.fill(2.0);
            });
            assert_eq!(outer.as_slice(), &[1.0; 4]);
        });
    }

    #[test]
    fn capacity_is_reused() {
        let cap = with_scratch(1024, |b| b.capacity());
        // The recycled buffer should come back with its old capacity.
        let cap2 = with_scratch(16, |b| b.capacity());
        assert!(cap2 >= 16);
        assert!(cap >= 1024);
    }
}
