//! # hsconas-serve
//!
//! Search-as-a-service: a std-only TCP daemon that answers HSCoNAS
//! queries — Eq. 2 latency predictions, Eq. 1 scores, and full
//! evolutionary searches — over a newline-delimited JSON protocol
//! ([`proto`]).
//!
//! Why a daemon at all: the expensive inputs to a query (calibrated
//! latency predictor, search space, accuracy oracle) are per-*device*,
//! not per-request. A CLI run pays for them every invocation; the server
//! pays once and then answers from warm state ([`state::WarmState`]),
//! deduplicating repeated evaluations across requests through the shared
//! memo cache and batching concurrent ones through the
//! [`hsconas_par`] pool.
//!
//! The load-bearing properties, each enforced by tests:
//!
//! * **Determinism** — identical `search` requests (same device, target,
//!   seed) produce byte-identical response lines, at any client
//!   concurrency and any worker/pool thread count.
//! * **Backpressure, not collapse** — the evaluation queue is bounded;
//!   past the bound clients get an immediate `429 overloaded` while
//!   `status` stays responsive, and nothing admitted is ever silently
//!   dropped.
//! * **Malice containment** — frames are size-capped, the JSON parser is
//!   hand-rolled and panic-free ([`json`]), and junk bytes produce a
//!   `400`/`413` on the same connection instead of a wedge or a crash.
//! * **Honest hot reload** — a predictor snapshot rewritten on disk is
//!   picked up live, but only after revalidation against the search
//!   space; a foreign or corrupt LUT is refused loudly and the previous
//!   predictor stays in service.
//!
//! Past one process, the crate scales horizontally: [`router`] puts a
//! protocol-transparent consistent-hash front-end over N worker daemons
//! (spawned by [`fleet`] or attached by address), sharding on
//! `{device, target}` so every property above — including byte-identical
//! search responses — holds fleet-wide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fleet;
pub mod json;
mod listener;
pub mod metrics;
pub mod proto;
pub mod router;
pub mod server;
pub mod state;
pub mod table;

pub use client::Client;
pub use fleet::{Fleet, FleetOptions};
pub use json::Json;
pub use proto::{
    Command, Request, Response, MAX_FRAME_BYTES, MAX_PARETO_DEVICES, PROTOCOL_VERSION,
};
pub use router::{HashRing, Router, RouterOptions};
pub use server::Server;
pub use state::{Budget, ServeError, ServeOptions, WarmState};
pub use table::{BenchTable, TableDevice, TableEntry};
