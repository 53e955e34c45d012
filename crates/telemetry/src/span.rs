//! Span-based tracing with per-thread scoping.
//!
//! Each thread keeps a stack of active span names; a span's *path* is the
//! `/`-joined stack at entry, prefixed by the thread's base scope. Worker
//! threads in the `hsconas-par` pool adopt the dispatching thread's path via
//! [`current_scope`] / [`enter_scope`], so their spans roll up under the
//! caller in the hierarchical report (e.g.
//! `ea.search/ea.generation/supernet.evaluate` even when the evaluate runs
//! on a pool worker).
//!
//! Spans are observation-only and cheap when idle: entering checks one
//! relaxed atomic (`sink::active()`); if no sink is installed the span is
//! inert — no clock read, no allocation, the fields closure is never called.
//! Without the `enabled` feature the whole module collapses to unit types
//! and empty `#[inline(always)]` functions.

use crate::event::FieldValue;

/// Field list produced lazily by the [`span!`](crate::span!) macro.
pub type FieldVec = Vec<(&'static str, FieldValue)>;

#[cfg(feature = "enabled")]
mod imp {
    use std::cell::RefCell;
    use std::time::Instant;

    use super::FieldVec;
    use crate::event::{Event, EventKind, FieldValue};
    use crate::sink;

    thread_local! {
        static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        static BASE: RefCell<String> = const { RefCell::new(String::new()) };
    }

    fn current_path() -> String {
        BASE.with(|base| {
            STACK.with(|stack| {
                let mut path = base.borrow().clone();
                for name in stack.borrow().iter() {
                    if !path.is_empty() {
                        path.push('/');
                    }
                    path.push_str(name);
                }
                path
            })
        })
    }

    /// An RAII span guard; emits one `span` event with its wall-clock
    /// duration when dropped. Created by the [`span!`](crate::span!) macro.
    #[derive(Debug)]
    pub struct Span(Option<ActiveSpan>);

    #[derive(Debug)]
    struct ActiveSpan {
        name: &'static str,
        path: String,
        start: Instant,
        fields: FieldVec,
    }

    impl Span {
        /// Enters a span. `fields` is only invoked when a sink is installed.
        pub fn enter(name: &'static str, fields: impl FnOnce() -> FieldVec) -> Span {
            if !sink::active() {
                return Span(None);
            }
            STACK.with(|stack| stack.borrow_mut().push(name));
            Span(Some(ActiveSpan {
                name,
                path: current_path(),
                start: Instant::now(),
                fields: fields(),
            }))
        }

        /// Appends a field after entry (for values only known at scope exit,
        /// e.g. a stage's mean quality). No-op on inert spans.
        pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
            if let Some(active) = &mut self.0 {
                active.fields.push((key, value.into()));
            }
        }

        /// Ends the span now, emitting its event. Use instead of `drop()`
        /// when a span must close before the end of its lexical scope.
        pub fn close(self) {}
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(active) = self.0.take() else { return };
            STACK.with(|stack| {
                stack.borrow_mut().pop();
            });
            let dur_us = active.start.elapsed().as_micros() as u64;
            sink::emit(Event {
                kind: EventKind::Span,
                ts_us: sink::now_us(),
                thread: sink::thread_index(),
                name: active.name.to_string(),
                path: active.path,
                dur_us: Some(dur_us),
                value: None,
                fields: active
                    .fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
        }
    }

    /// A snapshot of the calling thread's span path, for handing to pool
    /// workers so their spans nest under the dispatch site.
    #[derive(Debug, Clone, Default)]
    pub struct ScopeToken {
        path: String,
    }

    /// Captures the calling thread's current span path.
    pub fn current_scope() -> ScopeToken {
        ScopeToken {
            path: current_path(),
        }
    }

    /// RAII guard restoring the thread's previous base scope on drop.
    #[derive(Debug)]
    pub struct ScopeGuard {
        prev: String,
    }

    /// Adopts `token`'s path as this thread's base scope until the returned
    /// guard drops. Spans entered meanwhile extend the adopted path.
    pub fn enter_scope(token: &ScopeToken) -> ScopeGuard {
        let prev = BASE.with(|base| std::mem::replace(&mut *base.borrow_mut(), token.path.clone()));
        ScopeGuard { prev }
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            BASE.with(|base| {
                *base.borrow_mut() = std::mem::take(&mut self.prev);
            });
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::FieldVec;
    use crate::event::FieldValue;

    /// Inert span stand-in compiled without the `enabled` feature.
    #[derive(Debug)]
    pub struct Span;

    impl Span {
        /// No-op; the fields closure is never called.
        #[inline(always)]
        pub fn enter(_name: &'static str, _fields: impl FnOnce() -> FieldVec) -> Span {
            Span
        }

        /// No-op.
        #[inline(always)]
        pub fn record(&mut self, _key: &'static str, _value: impl Into<FieldValue>) {}

        /// No-op.
        #[inline(always)]
        pub fn close(self) {}
    }

    /// Inert scope token stand-in.
    #[derive(Debug, Clone, Default)]
    pub struct ScopeToken;

    /// No-op; returns an inert token.
    #[inline(always)]
    pub fn current_scope() -> ScopeToken {
        ScopeToken
    }

    /// Inert scope guard stand-in.
    #[derive(Debug)]
    pub struct ScopeGuard;

    /// No-op; returns an inert guard.
    #[inline(always)]
    pub fn enter_scope(_token: &ScopeToken) -> ScopeGuard {
        ScopeGuard
    }
}

pub use imp::{current_scope, enter_scope, ScopeGuard, ScopeToken, Span};
