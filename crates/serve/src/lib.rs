//! # lira-serve
//!
//! The networked façade of the LIRA reproduction (ROADMAP item 2): a
//! localhost socket service that puts the paper's artifacts on a real
//! wire — batched position updates in, shedding plans in the 16 B/region
//! broadcast format out, with THROTLOOP running behind the bounded input
//! queue as genuine backpressure — plus `lira-storm`, the load generator
//! that drives it at million-node scale.
//!
//! Module map:
//!
//! * [`protocol`] — the length-prefixed binary frame codec
//!   (specified byte-by-byte in `docs/WIRE.md`, which doc-tests against
//!   this crate through the crate-private `wire_spec` module);
//! * [`slices`] — `hash(id) % slices` routing, kept only for the
//!   frozen benchmark's replica (the session routes nothing);
//! * [`session`] — the transport-agnostic session core (engine, queue,
//!   controller, shedder, report);
//! * [`server`] — the hand-rolled non-blocking socket loop (no async
//!   runtime: the build is offline and single-threaded determinism is a
//!   feature);
//! * [`storm`] — the load generator and the [`storm::Transport`]
//!   abstraction whose TCP and in-process implementations carry
//!   identical frame streams (the bit-identity lever the loopback tests
//!   pull).
//!
//! Operational documentation lives in `docs/OPERATIONS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod session;
pub mod slices;
pub mod storm;

/// `docs/WIRE.md`, compiled into this crate's documentation. Every Rust
/// code fence in the spec runs as a doc-test, so the byte-level worked
/// examples (the `Hello` frame, the 16 B/region plan broadcast) are
/// verified against the codec on every `cargo test`.
#[doc = include_str!("../../../docs/WIRE.md")]
pub(crate) mod wire_spec {}
