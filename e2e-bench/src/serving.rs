//! The open-loop gateway phase: one submitting thread offers reads and
//! writes on a fixed schedule, one collector thread waits the tickets,
//! and a `Gateway` with two workers and coalescing serves them.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcim_core::{Query, QueryValue};
use tcim_gateway::{Gateway, GatewayConfig, PublishPolicy, Ticket};
use tcim_graph::CsrGraph;
use tcim_service::{QueryRequest, ServiceConfig, TcimService};
use tcim_stream::UpdateBatch;

use crate::stats::Samples;
use crate::workload::{read_rotation, ServingSpec};

const STATIC: &str = "static";
const LIVE: &str = "live";
const TENANT: &str = "bench";

/// SplitMix64: the update stream's deterministic generator.
#[derive(Debug, Clone)]
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The benchmark's own copy of the live graph's edge set, so every
/// update it writes is valid and every published epoch can be rebuilt
/// to check live reads against.
#[derive(Debug)]
struct Mirror {
    vertices: usize,
    edges: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    /// The edge set of every published epoch (index = epoch).
    epochs: Vec<Vec<(u32, u32)>>,
    rng: SplitMix,
}

impl Mirror {
    fn new(graph: &CsrGraph, seed: u64) -> Mirror {
        let edges: Vec<(u32, u32)> = graph.edges().collect();
        Mirror {
            vertices: graph.vertex_count(),
            present: edges.iter().copied().collect(),
            epochs: vec![edges.clone()],
            edges,
            rng: SplitMix(seed),
        }
    }

    /// A batch of `updates` valid updates (half deletes of present
    /// edges, half inserts of absent ones, no edge twice), applied to
    /// the mirror.
    fn next_batch(&mut self, updates: usize) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        let mut touched: HashSet<(u32, u32)> = HashSet::new();
        while touched.len() < updates / 2 && !self.edges.is_empty() {
            let at = self.rng.below(self.edges.len());
            let edge = self.edges[at];
            if touched.insert(edge) {
                self.edges.swap_remove(at);
                self.present.remove(&edge);
                batch.delete(edge.0, edge.1);
            }
        }
        while touched.len() < updates {
            let u = self.rng.below(self.vertices) as u32;
            let v = self.rng.below(self.vertices) as u32;
            let edge = (u.min(v), u.max(v));
            if u != v && !self.present.contains(&edge) && touched.insert(edge) {
                self.edges.push(edge);
                self.present.insert(edge);
                batch.insert(edge.0, edge.1);
            }
        }
        batch
    }

    fn graph_at(&self, epoch: u64) -> Option<CsrGraph> {
        let edges = self.epochs.get(usize::try_from(epoch).ok()?)?;
        Some(
            CsrGraph::from_edges(self.vertices, edges.clone())
                .expect("mirrored edges are in bounds"),
        )
    }
}

/// The serving stack: a service with one static and one live graph, a
/// gateway in front of it with its workers running.
pub struct Serving {
    /// The service the gateway fronts.
    pub service: Arc<TcimService>,
    /// The gateway every timed request goes through.
    pub gateway: Arc<Gateway>,
    mirror: Mirror,
}

impl Serving {
    /// Generates and registers both graphs, starts the gateway and
    /// sends one read of each graph through it.
    ///
    /// # Panics
    ///
    /// Panics when registration or a warm-up read fails: set-up of a
    /// fixed workload cannot fail.
    pub fn build(spec: &ServingSpec, seed: u64) -> Serving {
        let service = Arc::new(
            TcimService::new(&ServiceConfig::default())
                .expect("the default config characterizes"),
        );
        let static_graph = spec.static_graph.generate(seed);
        let live_graph = spec.live_graph.generate(seed + 1);
        service.register(STATIC, &static_graph).expect("static registration succeeds");
        service.register_live(LIVE, &live_graph).expect("live registration succeeds");
        let gateway = Arc::new(Gateway::new(
            Arc::clone(&service),
            &GatewayConfig {
                queue_capacity: 1 << 16,
                workers: 2,
                coalesce: true,
                publish: PublishPolicy::OnDrift,
                ..GatewayConfig::default()
            },
        ));
        gateway.start_workers();
        for graph in [STATIC, LIVE] {
            gateway
                .submit(TENANT, QueryRequest::new(graph, Query::TotalTriangles))
                .expect("warm-up read is admitted")
                .wait()
                .expect("warm-up read succeeds");
        }
        Serving { service, gateway, mirror: Mirror::new(&live_graph, seed + 2) }
    }

    /// The unbatched answers of the static graph to every query of the
    /// read rotation: what each gateway answer must equal.
    ///
    /// # Panics
    ///
    /// Panics when a reference query fails.
    pub fn static_references(&self) -> HashMap<Query, QueryValue> {
        read_rotation()
            .into_iter()
            .map(|query| {
                let value = self
                    .service
                    .serve(&[QueryRequest::new(STATIC, query.clone())])
                    .remove(0)
                    .expect("reference query succeeds")
                    .value;
                (query, value)
            })
            .collect()
    }

    /// Stops admission and joins the gateway workers.
    pub fn shutdown(&self) {
        self.gateway.shutdown();
    }
}

/// What the collector thread records about answered reads.
#[derive(Debug, Default)]
pub struct Reads {
    /// Read latency from due time to observed answer (ms).
    pub latency_ms: Samples,
    /// `QueryResponse::wall` of answered reads (ms).
    pub service_wall_ms: Samples,
    /// Latency minus service wall (ms).
    pub overhead_ms: Samples,
    /// Reads answered (right or wrong).
    pub answered: u64,
    /// Reads answered correctly within the latency limit.
    pub good: u64,
    /// Reads that errored or answered wrongly.
    pub failed: u64,
    /// Problems found, for the report.
    pub problems: Vec<String>,
    /// Executions per dispatch batch (from batch provenance).
    batches: HashMap<u64, u64>,
    /// Answers that carried no batch provenance (one execution each).
    unbatched: u64,
    /// First live answer per (epoch, query); later ones must equal it.
    live_answers: HashMap<(u64, Query), QueryValue>,
    last_answer: Option<Instant>,
}

impl Reads {
    /// Executions behind the answered reads.
    pub fn executions(&self) -> u64 {
        self.batches.values().sum::<u64>() + self.unbatched
    }
}

/// What the submitting thread records.
#[derive(Debug, Default)]
pub struct Submissions {
    /// How late each submission was sent (ms).
    pub late_ms: Samples,
    /// `Gateway::submit` wall (µs).
    pub submit_us: Samples,
    /// `Gateway::update` wall (ms).
    pub update_ms: Samples,
    /// Reads and writes offered.
    pub attempted: u64,
    /// Reads offered.
    pub reads: u64,
    /// Reads refused at admission.
    pub shed: u64,
    /// Shed reads plus failed or partly rejected writes.
    pub failed: u64,
    /// Delta kernels the writes ran.
    pub deltas: u64,
    /// Writes that folded and published a new epoch.
    pub folds: u64,
    /// Problems found, for the report.
    pub problems: Vec<String>,
}

/// Everything the open loop measured, over all its slices.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// The collector's side.
    pub reads: Reads,
    /// The submitter's side.
    pub sent: Submissions,
    /// Σ over slices of the time from the first due time to the last
    /// answer (s).
    pub elapsed_s: f64,
}

struct Pending {
    due: Instant,
    live: bool,
    query: Query,
    ticket: Ticket,
}

fn collect(
    rx: mpsc::Receiver<Pending>,
    reads: &mut Reads,
    references: &HashMap<Query, QueryValue>,
    limit_ms: f64,
    scale: f64,
) {
    for pending in rx {
        let outcome = pending.ticket.wait();
        let done = Instant::now();
        reads.last_answer = Some(done);
        let latency_ms =
            done.saturating_duration_since(pending.due).as_secs_f64() * 1e3 * scale;
        let response = match outcome {
            Ok(response) => response,
            Err(e) => {
                reads.failed += 1;
                reads.problems.push(format!("{} read failed: {e}", pending.query));
                continue;
            }
        };
        reads.answered += 1;
        let wall_ms = response.wall.as_secs_f64() * 1e3 * scale;
        reads.latency_ms.push(latency_ms);
        reads.service_wall_ms.push(wall_ms);
        reads.overhead_ms.push(latency_ms - wall_ms);
        match &response.batch {
            Some(batch) => {
                reads.batches.insert(batch.batch_id, batch.executions);
            }
            None => reads.unbatched += 1,
        }
        let correct = if pending.live {
            let key = (response.epoch.unwrap_or(u64::MAX), pending.query.clone());
            *reads.live_answers.entry(key).or_insert_with(|| response.value.clone())
                == response.value
        } else {
            references.get(&pending.query) == Some(&response.value)
        };
        if !correct {
            reads.failed += 1;
            reads.problems.push(format!(
                "{} read of the {} graph answered wrongly",
                pending.query,
                if pending.live { LIVE } else { STATIC }
            ));
        } else if latency_ms <= limit_ms {
            reads.good += 1;
        }
    }
}

impl OpenLoop {
    /// Offers the read/write mix at `spec.rate_qps` for `duration` and
    /// waits for every answer. Host times are recorded × `scale` (see
    /// [`crate::host`]), and the latency limit applies to them.
    ///
    /// # Panics
    ///
    /// Panics when the collector thread panics.
    pub fn run(
        &mut self,
        serving: &mut Serving,
        spec: &ServingSpec,
        references: &HashMap<Query, QueryValue>,
        duration: Duration,
        scale: f64,
    ) {
        let rotation = read_rotation();
        let interval = Duration::from_secs_f64(1.0 / spec.rate_qps);
        let submissions = (duration.as_secs_f64() * spec.rate_qps).max(1.0) as u32;
        let (tx, rx) = mpsc::channel::<Pending>();
        let (reads, sent) = (&mut self.reads, &mut self.sent);
        let started = Instant::now();
        std::thread::scope(|scope| {
            let collector =
                scope.spawn(|| collect(rx, reads, references, spec.limit_ms, scale));
            for i in 0..submissions {
                let due = started + interval * i;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                sent.late_ms.push(due.elapsed().as_secs_f64() * 1e3 * scale);
                sent.attempted += 1;
                if (i as usize + 1).is_multiple_of(spec.write_every) {
                    write(serving, spec, sent, scale);
                    continue;
                }
                // Reads are numbered across slices, so the rotation and
                // the one-in-four live share continue where they left off.
                let n = sent.reads as usize;
                sent.reads += 1;
                let query = rotation[n % rotation.len()].clone();
                let live = n % 4 == 3;
                let request =
                    QueryRequest::new(if live { LIVE } else { STATIC }, query.clone());
                let start = Instant::now();
                let admitted = serving.gateway.submit(TENANT, request);
                sent.submit_us.push(start.elapsed().as_secs_f64() * 1e6 * scale);
                match admitted {
                    Ok(ticket) => tx
                        .send(Pending { due, live, query, ticket })
                        .expect("the collector outlives the submitter"),
                    Err(e) => {
                        sent.shed += 1;
                        sent.failed += 1;
                        sent.problems.push(format!("read shed: {e}"));
                    }
                }
            }
            drop(tx);
            collector.join().expect("the collector thread completes");
        });
        let last = self.reads.last_answer.unwrap_or_else(Instant::now).max(started);
        self.elapsed_s += last.duration_since(started).as_secs_f64();
    }

    /// Checks each distinct live answer against the unbatched answer of
    /// a static copy of the epoch it was read at.
    ///
    /// # Panics
    ///
    /// Panics when an epoch copy cannot be registered.
    pub fn check_live_answers(&mut self, serving: &Serving) {
        let mut registered: HashSet<u64> = HashSet::new();
        for ((epoch, query), value) in &self.reads.live_answers {
            let Some(graph) = serving.mirror.graph_at(*epoch) else {
                self.reads.failed += 1;
                self.reads.problems.push(format!("live read saw unknown epoch {epoch}"));
                continue;
            };
            let name = format!("live-epoch-{epoch}");
            if registered.insert(*epoch) {
                serving.service.register(&name, &graph).expect("epoch copies register");
            }
            let expected = serving
                .service
                .serve(&[QueryRequest::new(name, query.clone())])
                .remove(0)
                .map(|response| response.value);
            if !matches!(&expected, Ok(v) if v == value) {
                self.reads.failed += 1;
                self.reads
                    .problems
                    .push(format!("{query} read of live epoch {epoch} answered wrongly"));
            }
        }
    }

    /// Everything attempted: reads and writes.
    pub fn attempted(&self) -> u64 {
        self.sent.attempted
    }

    /// Failed, shed or wrongly answered submissions.
    pub fn failed(&self) -> u64 {
        self.sent.failed + self.reads.failed
    }
}

/// Applies one update batch through the gateway and records it.
fn write(serving: &mut Serving, spec: &ServingSpec, sent: &mut Submissions, scale: f64) {
    let batch = serving.mirror.next_batch(spec.batch_updates);
    let start = Instant::now();
    match serving.gateway.update(LIVE, &batch) {
        Ok(report) => {
            sent.update_ms.push(start.elapsed().as_secs_f64() * 1e3 * scale);
            sent.deltas += report.deltas.len() as u64;
            if !report.rejected.is_empty() {
                sent.failed += 1;
                sent.problems.push(format!("{} updates rejected", report.rejected.len()));
            }
            if report.folded {
                sent.folds += 1;
                serving.mirror.epochs.push(serving.mirror.edges.clone());
            }
        }
        Err(e) => {
            sent.failed += 1;
            sent.problems.push(format!("update failed: {e}"));
        }
    }
}
