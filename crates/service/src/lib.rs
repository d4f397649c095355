//! Multi-graph serving for the TCIM reproduction: a facade that keeps
//! many graphs resident — as prepared artifacts or live dynamic
//! graphs — and answers typed triangle queries against any of them,
//! concurrently, with per-response provenance.
//!
//! The ROADMAP's north star ("serve heavy traffic … as many scenarios
//! as you can imagine") meets the paper's architecture here: the
//! expensive work (orient → slice → characterize) happens once per
//! graph at registration; every query after that is pure execution
//! over a shared `Arc<PreparedGraph>` on whichever
//! [`Backend`](tcim_core::Backend) the request selects, or a direct
//! read of a live graph's incrementally maintained counts.
//!
//! * [`TcimService`] — the facade: register/evict/list graphs, answer
//!   [`Query`](tcim_core::Query)s one at a time or in concurrent
//!   waves ([`TcimService::serve`], [`TcimService::serve_with`]).
//!   Static and live graphs share one name table under one lock, so a
//!   name always resolves to exactly one graph.
//! * One answer path — every request is a member of a group (a direct
//!   request is a group of one; a coalescing wave groups requests by
//!   graph × backend override), and every group over a prepared
//!   artifact, static or a live graph's pinned epoch, is answered by
//!   one [`query_coalesced`](tcim_core::TcimPipeline::query_coalesced)
//!   run, so direct and coalesced answers carry the same provenance.
//! * [`QueryRequest`] / [`QueryResponse`] — the request/response pair;
//!   responses carry provenance (backend, prepared-cache hit, modelled
//!   cost, wall time) so callers can audit how every answer was made.
//! * [`ServiceError`] — unknown names, name conflicts, and wrapped
//!   core/stream failures.
//! * Observability — [`TcimService::explain`] plans a request (backend
//!   auto-selection included) without executing it; with
//!   `explain_queries` on, every static answer, direct or coalesced,
//!   carries its [`ExplainReport`](tcim_core::ExplainReport) with
//!   measured accounting attached; [`SlowQueryLog`] retains full
//!   forensic records of requests over the `slow_query_threshold`; and
//!   [`TcimService::render_prometheus`] exposes the lot, flight-recorder
//!   health included.
//!
//! # Example
//!
//! ```
//! use tcim_service::{ServiceConfig, TcimService};
//! use tcim_core::Query;
//! use tcim_graph::generators::classic;
//! use tcim_stream::UpdateBatch;
//!
//! let service = TcimService::new(&ServiceConfig::default())?;
//!
//! // A static graph answers from its prepared artifact…
//! service.register("fig2", &classic::fig2_example())?;
//! assert_eq!(service.query("fig2", &Query::TotalTriangles)?.triangles, 2);
//!
//! // …a live graph answers from incrementally maintained counts.
//! service.register_live("feed", &classic::fig2_example())?;
//! let mut batch = UpdateBatch::new();
//! batch.insert(0, 3);
//! service.update("feed", &batch)?;
//! let response = service.query("feed", &Query::PerVertexTriangles)?;
//! assert_eq!(response.value.per_vertex().unwrap(), &[3, 3, 3, 3]);
//! assert!(response.live);
//! # Ok::<(), tcim_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod batch;
mod error;
mod service;
mod slow_query;
mod store;

pub use batch::{BatchOptions, BatchProvenance, LiveReadMode};
pub use error::{Result, ServiceError};
pub use service::{QueryRequest, QueryResponse, ServiceConfig, TcimService};
pub use slow_query::{SlowQueryLog, SlowQueryRecord};
pub use store::GraphInfo;
pub use tcim_stream::EpochSnapshot;
