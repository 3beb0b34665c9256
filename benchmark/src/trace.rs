//! The traced run: spans recorded from outside the program, around calls
//! into each layer's public functions.
//!
//! Every request gets a root span and a `client.op` child (what the client
//! saw). For TCP workloads the same request is then issued in-process
//! against a *shadow* session that has received the identical request
//! stream since start-up — so its store and both cache tiers are in the
//! state the server's are — which times `Session::query` / `update` and the
//! rendering with the wire taken away. A seeded one-in-k sample of requests
//! is further taken apart on the shadow's snapshot: parse, canonicalise,
//! plan (HSP and CDP), lower, execute, one scan per access path, frame.
//! Spans stay in memory until the run ends. Spans *inside* the program are
//! a later change (ROADMAP "one latency budget").

use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sparql_hsp::baseline::CdpPlanner;
use sparql_hsp::engine::{execute_in, pipeline, ExecConfig, PhysicalPlan};
use sparql_hsp::extended::evaluate_extended_in;
use sparql_hsp::hsp::HspPlanner;
use sparql_hsp::rdf::TermId;
use sparql_hsp::serve::{read_frame, write_frame};
use sparql_hsp::session::{Request, Session};
use sparql_hsp::sparql::{canonicalize, parse_query, JoinQuery, TermOrVar};
use sparql_hsp::store::{Dataset, StorageBackend};
#[allow(deprecated)] // timing the plain in-place path is the point
use sparql_hsp::update::apply_update;

use crate::check::Transport;
use crate::report::Json;
use crate::run::{render, Reply, Summary};
use crate::spec::PER_LAYER;
use crate::workloads::{Env, Op, Plan};

/// The span names: this repo's modules, plus the two client-side ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Request,
    ClientOp,
    SessionQuery,
    SessionUpdate,
    Render,
    Parse,
    Canon,
    Plan,
    CdpPlan,
    Lower,
    Execute,
    CdpExecute,
    Scan,
    Frame,
    UpdateApply,
    Compact,
}

impl Layer {
    pub const ALL: [Layer; 16] = [
        Layer::Request,
        Layer::ClientOp,
        Layer::SessionQuery,
        Layer::SessionUpdate,
        Layer::Render,
        Layer::Parse,
        Layer::Canon,
        Layer::Plan,
        Layer::CdpPlan,
        Layer::Lower,
        Layer::Execute,
        Layer::CdpExecute,
        Layer::Scan,
        Layer::Frame,
        Layer::UpdateApply,
        Layer::Compact,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::ClientOp => "client.op",
            Layer::SessionQuery => "session.query",
            Layer::SessionUpdate => "session.update",
            Layer::Render => "results.render",
            Layer::Parse => "sparql.parse",
            Layer::Canon => "sparql.canon",
            Layer::Plan => "core.plan",
            Layer::CdpPlan => "baseline.cdp_plan",
            Layer::Lower => "engine.lower",
            Layer::Execute => "engine.execute",
            Layer::CdpExecute => "baseline.cdp_execute",
            Layer::Scan => "store.scan",
            Layer::Frame => "serve.frame",
            Layer::UpdateApply => "update.apply",
            Layer::Compact => "store.compact",
        }
    }
}

/// One span. `parent` is an index into the same client's spans
/// (`u32::MAX` for a root); spans of one request share `request`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: u32,
    pub request: u32,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Reads mirrored on the shadow session (TCP) — `serve.wire_ms`'s base.
    pub mirrored_reads: u64,
    /// Σ (client latency − shadow query − render) over mirrored reads.
    pub wire_ns: i128,
    pub bytes_out: u64,
    pub sampled_reads: u64,
    /// Σ `Session::query` time over the sampled reads only.
    pub sampled_query_ns: u64,
    /// Σ query − (the phases that request really ran), over sampled reads.
    pub self_ns: u64,
    pub intermediate_rows: u64,
    pub result_rows: u64,
    pub scans: u64,
    pub merged_scans: u64,
    pub scan_rows: u64,
    pub delta_rows: u64,
    pub delta_samples: u64,
    /// Σ execution time of HSP plans / of CDP plans, over the sampled join
    /// queries both planners could plan.
    pub paired_hsp_ns: u64,
    pub paired_cdp_ns: u64,
    /// Σ (`Session::update` − `apply_update`) over sampled writes.
    pub publish_ns: u64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.mirrored_reads += other.mirrored_reads;
        self.wire_ns += other.wire_ns;
        self.bytes_out += other.bytes_out;
        self.sampled_reads += other.sampled_reads;
        self.sampled_query_ns += other.sampled_query_ns;
        self.self_ns += other.self_ns;
        self.intermediate_rows += other.intermediate_rows;
        self.result_rows += other.result_rows;
        self.scans += other.scans;
        self.merged_scans += other.merged_scans;
        self.scan_rows += other.scan_rows;
        self.delta_rows += other.delta_rows;
        self.delta_samples += other.delta_samples;
        self.paired_hsp_ns += other.paired_hsp_ns;
        self.paired_cdp_ns += other.paired_cdp_ns;
        self.publish_ns += other.publish_ns;
    }
}

/// Every this-many-th sampled write also times a full compaction of the
/// snapshot it met (tens of milliseconds each, so sampled more thinly).
const COMPACT_EVERY: u64 = 4;

/// One client's recorder.
pub struct ClientTrace {
    epoch: Instant,
    seed: u64,
    client: usize,
    sample_every: usize,
    threads: Option<usize>,
    cache_off: bool,
    /// In-process workloads: the sessions the client itself queries.
    sessions: Vec<Session>,
    /// TCP workloads: the in-process mirror of the server's session.
    shadow: Option<Session>,
    /// Off during warm-up: the shadow is still fed, nothing is recorded.
    pub recording: bool,
    pub spans: Vec<Span>,
    pub tally: Tally,
    root: u32,
    pre_write: Option<Arc<Dataset>>,
    sampled_writes: u64,
}

/// SplitMix64 finaliser: decides, from the seed alone, which requests are
/// taken apart.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Recorders for every client of `plan`. TCP workloads share one shadow
/// session over a copy-on-write clone of the served dataset.
pub fn recorders(env: &Env, plan: &Plan, seed: u64) -> Vec<ClientTrace> {
    let shadow = (plan.transport == Transport::Tcp)
        .then(|| Session::new((*env.sessions[0].snapshot()).clone()));
    let epoch = Instant::now();
    (0..plan.clients.len())
        .map(|client| ClientTrace {
            epoch,
            seed,
            client,
            sample_every: plan.sample_every,
            threads: plan.threads,
            cache_off: plan.opts.contains("cache=off"),
            sessions: env.sessions.clone(),
            shadow: shadow.clone(),
            recording: false,
            spans: Vec::new(),
            tally: Tally::default(),
            root: u32::MAX,
            pre_write: None,
            sampled_writes: 0,
        })
        .collect()
}

impl ClientTrace {
    fn at(&self, instant: Instant) -> u64 {
        instant.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, layer: Layer, request: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            parent: self.root,
            request,
            layer,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
    }

    /// Time `work` as a child span of the current request.
    fn time<R>(&mut self, layer: Layer, request: u32, work: impl FnOnce() -> R) -> (R, u64) {
        let start = Instant::now();
        let out = work();
        let end = Instant::now();
        self.push(layer, request, start, end);
        (out, (end - start).as_nanos() as u64)
    }

    fn sampled(&self, index: usize) -> bool {
        let k = self.sample_every.max(1) as u64;
        mix(self.seed ^ ((self.client as u64) << 48) ^ index as u64).is_multiple_of(k)
    }

    /// The request as the server builds it from the plan's option string.
    fn mirror(&self, text: &str) -> Request {
        let mut request = Request::new(text);
        if let Some(threads) = self.threads {
            request = request.with_threads(threads);
        }
        if self.cache_off {
            request = request.without_cache();
        }
        request
    }

    /// Called before `op` is sent.
    pub fn before(&mut self, op: &Op, index: usize) {
        if op.write {
            // The snapshot the write will meet, for the apply replay.
            self.pre_write = self.shadow.as_ref().map(Session::snapshot);
        }
        if self.recording {
            let now = self.at(Instant::now());
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                parent: u32::MAX,
                request: index as u32,
                layer: Layer::Request,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Called after `op` was answered and checked.
    pub fn after(
        &mut self,
        op: &Op,
        index: usize,
        sent: Instant,
        latency: Duration,
        reply: Option<&Reply>,
    ) {
        let Some(shadow) = self.shadow.clone() else {
            if self.recording {
                self.after_in_process(op, index, sent, latency, reply);
                self.close_root();
            }
            return;
        };
        if !self.recording {
            // Warm-up: keep the shadow in step, record nothing.
            let _ = if op.write {
                shadow.update(self.mirror(&op.text)).map(drop)
            } else {
                shadow.query(self.mirror(&op.text)).map(drop)
            };
            return;
        }
        let request = index as u32;
        self.push(Layer::ClientOp, request, sent, sent + latency);
        let payload = match reply {
            Some(Reply::Payload(payload)) => Some(payload.as_bytes()),
            _ => None,
        };
        if op.write {
            let mirrored = self.mirror(&op.text);
            let (_, update_ns) = self.time(Layer::SessionUpdate, request, || {
                shadow.update(mirrored).map(drop)
            });
            if self.sampled(index) {
                self.attribute_write(op, request, update_ns);
            }
        } else {
            let mirrored = self.mirror(&op.text);
            let (response, query_ns) =
                self.time(Layer::SessionQuery, request, || shadow.query(mirrored));
            if let Ok(response) = response {
                let (body, render_ns) = self.time(Layer::Render, request, || render(&response));
                self.tally.mirrored_reads += 1;
                self.tally.bytes_out += body.len() as u64;
                self.tally.wire_ns +=
                    latency.as_nanos() as i128 - i128::from(query_ns) - i128::from(render_ns);
                if self.sampled(index) {
                    let flags = (
                        response.metrics.result_cache_hit,
                        response.metrics.plan_cache_used,
                        response.metrics.plan_cache_hit,
                    );
                    drop(response);
                    let ds = shadow.snapshot();
                    self.attribute_read(&ds, op, request, query_ns, flags, payload);
                }
            }
        }
        self.close_root();
    }

    fn after_in_process(
        &mut self,
        op: &Op,
        index: usize,
        sent: Instant,
        latency: Duration,
        reply: Option<&Reply>,
    ) {
        let request = index as u32;
        self.push(Layer::ClientOp, request, sent, sent + latency);
        // In process the operation *is* `Session::query`: the same
        // interval, nested so that it is not counted against the root twice.
        let root = std::mem::replace(&mut self.root, self.spans.len() as u32 - 1);
        self.push(Layer::SessionQuery, request, sent, sent + latency);
        self.root = root;
        if reply.is_some() && !op.write && self.sampled(index) {
            let ds = self.sessions[op.target].snapshot();
            let query_ns = latency.as_nanos() as u64;
            // `without_cache`: neither tier is consulted.
            self.attribute_read(&ds, op, request, query_ns, (false, false, false), None);
        }
    }

    fn close_root(&mut self) {
        let now = self.at(Instant::now());
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.end_ns = now;
        }
        self.root = u32::MAX;
    }

    /// Take one read apart on `ds`, the snapshot it ran against.
    /// `flags` = `(result tier hit, plan tier consulted, plan tier hit)`.
    fn attribute_read(
        &mut self,
        ds: &Dataset,
        op: &Op,
        request: u32,
        query_ns: u64,
        flags: (bool, bool, bool),
        payload: Option<&[u8]>,
    ) {
        let (result_hit, plan_used, plan_hit) = flags;
        let text = op.text.as_str();
        // Replays run sequentially: outside a session there is no shared
        // pool to schedule on, and spawning scoped threads per kernel would
        // be timed as engine work the server never does.
        let config = ExecConfig::unlimited().with_threads(1);
        self.tally.sampled_reads += 1;
        self.tally.sampled_query_ns += query_ns;
        self.tally.delta_rows += ds.store().delta_rows() as u64;
        self.tally.delta_samples += 1;

        let ((ast, join), parse_ns) = self.time(Layer::Parse, request, || {
            (parse_query(text), JoinQuery::parse(text))
        });
        let is_ask = ast.as_ref().is_ok_and(|ast| ast.ask);
        // What `Session::query` itself spent outside the phases below.
        let mut accounted = parse_ns;
        match join {
            Ok(query) if !is_ask => {
                let (_, canon_ns) = self.time(Layer::Canon, request, || {
                    std::hint::black_box(canonicalize(&query));
                });
                let (hsp, plan_ns) =
                    self.time(Layer::Plan, request, || HspPlanner::new().plan(&query));
                let cdp = if query.is_aggregate() {
                    None
                } else {
                    self.time(Layer::CdpPlan, request, || {
                        CdpPlanner::new().plan(ds, &query).ok()
                    })
                    .0
                };
                if plan_used {
                    accounted += canon_ns;
                }
                if !plan_hit {
                    accounted += plan_ns;
                }
                if let Ok(hsp) = hsp {
                    let (_, lower_ns) = self.time(Layer::Lower, request, || {
                        std::hint::black_box(pipeline::lower(&hsp.plan).pipeline_count());
                    });
                    let ctx = config.context();
                    let (out, execute_ns) = self.time(Layer::Execute, request, || {
                        execute_in(&hsp.plan, ds, &config, &ctx)
                    });
                    accounted += lower_ns + execute_ns;
                    if let Ok(out) = out {
                        self.tally.intermediate_rows +=
                            out.profile.total_intermediate_rows() as u64;
                        self.tally.result_rows += out.table.len() as u64;
                    }
                    self.attribute_scans(ds, &hsp.plan, request);
                    if let Some(cdp) = cdp {
                        let ctx = config.context();
                        let (_, cdp_ns) = self.time(Layer::CdpExecute, request, || {
                            execute_in(&cdp.plan, ds, &config, &ctx).map(drop)
                        });
                        self.tally.paired_hsp_ns += execute_ns;
                        self.tally.paired_cdp_ns += cdp_ns;
                    }
                }
            }
            _ => {
                // Outside the join fragment the extended evaluator plans
                // and executes block by block behind one public call.
                let ctx = config.context();
                let (out, execute_ns) = self.time(Layer::Execute, request, || {
                    evaluate_extended_in(ds, text, &config, &ctx)
                });
                accounted += execute_ns;
                if let Ok(out) = out {
                    self.tally.result_rows += out.rows.len() as u64;
                }
            }
        }
        self.tally.self_ns += if result_hit {
            query_ns
        } else {
            query_ns.saturating_sub(accounted)
        };
        if let Some(payload) = payload {
            self.time(Layer::Frame, request, || {
                let mut wire = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut wire, payload).expect("writing to a Vec");
                std::hint::black_box(read_frame(&mut Cursor::new(wire)).expect("own frame"));
            });
        }
    }

    /// One `StorageBackend::scan` per access path of `plan`.
    fn attribute_scans(&mut self, ds: &Dataset, plan: &PhysicalPlan, request: u32) {
        let mut paths = Vec::new();
        plan.visit(&mut |node| {
            if let PhysicalPlan::Scan { pattern, order, .. } = node {
                let prefix: Option<Vec<TermId>> = order
                    .positions()
                    .into_iter()
                    .map_while(|pos| match pattern.slot(pos) {
                        TermOrVar::Const(term) => Some(ds.id_of(term)),
                        TermOrVar::Var(_) => None,
                    })
                    .collect();
                // A constant the dictionary never saw matches nothing and
                // is answered without touching the store.
                if let Some(prefix) = prefix {
                    paths.push((*order, prefix));
                }
            }
        });
        for (order, prefix) in paths {
            let (shape, _) = self.time(Layer::Scan, request, || {
                let scan = ds.store().scan(order, &prefix);
                (scan.len() as u64, scan.is_contiguous())
            });
            self.tally.scans += 1;
            self.tally.scan_rows += shape.0;
            self.tally.merged_scans += u64::from(!shape.1);
        }
    }

    /// Take one write apart on the snapshot it met.
    #[allow(deprecated)]
    fn attribute_write(&mut self, op: &Op, request: u32, update_ns: u64) {
        let Some(pre) = self.pre_write.take() else {
            return;
        };
        self.sampled_writes += 1;
        let mut clone = (*pre).clone();
        let (_, apply_ns) = self.time(Layer::UpdateApply, request, || {
            apply_update(&mut clone, &op.text).map(drop)
        });
        self.tally.publish_ns += update_ns.saturating_sub(apply_ns);
        if self.sampled_writes.is_multiple_of(COMPACT_EVERY) && pre.store().delta_rows() > 0 {
            let mut clone = (*pre).clone();
            self.time(Layer::Compact, request, || clone.compact());
        }
    }
}

/// Count, total and self time (span minus its direct children) per layer.
pub struct LayerRow {
    pub layer: Layer,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn layer_table(traces: &[ClientTrace]) -> Vec<LayerRow> {
    let mut rows: Vec<LayerRow> = Layer::ALL
        .iter()
        .map(|&layer| LayerRow {
            layer,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        })
        .collect();
    let row_of = |layer: Layer| Layer::ALL.iter().position(|&l| l == layer).expect("listed");
    for trace in traces {
        let mut child_ns = vec![0u64; trace.spans.len()];
        for span in &trace.spans {
            if let Some(sum) = child_ns.get_mut(span.parent as usize) {
                *sum += span.ns();
            }
        }
        for (span, children) in trace.spans.iter().zip(child_ns) {
            let row = &mut rows[row_of(span.layer)];
            row.count += 1;
            row.total_ns += span.ns();
            row.self_ns += span.ns().saturating_sub(children);
        }
    }
    rows.retain(|row| row.count > 0);
    rows
}

/// Lifetime counters of the system under test, read through its public
/// accessors; the traced run reports their change over its section.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    result_hits: u64,
    result_misses: u64,
    invalidations: u64,
    result_bytes: u64,
    pool_batches: u64,
    pool_switches: u64,
    compactions: u64,
    rejected: u64,
    errors: u64,
}

impl Counters {
    pub fn read(env: &Env) -> Counters {
        let mut c = Counters::default();
        for session in &env.sessions {
            let cache = session.cache_stats();
            c.plan_hits += cache.plan_hits;
            c.plan_misses += cache.plan_misses;
            c.result_hits += cache.result_hits;
            c.result_misses += cache.result_misses;
            c.invalidations += cache.invalidations;
            c.result_bytes += cache.result_bytes as u64;
            if let Some(pool) = session.pool_stats() {
                c.pool_batches += pool.batches;
                c.pool_switches += pool.cross_query_switches;
            }
            c.compactions += session.snapshot().store().compactions();
        }
        if let Some(server) = &env.server {
            c.rejected = server.metrics().rejected();
            c.errors = server.metrics().errors();
        }
        c
    }
}

/// `part / whole`, 0 when there is no whole.
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Everything the traced section of a run recorded.
pub struct TracedSection {
    pub recorders: Vec<ClientTrace>,
    /// What the clients saw during the section.
    pub summary: Summary,
    pub before: Counters,
    pub after: Counters,
    /// `generate_*` minus the store build, and the store build, in seconds.
    pub generate_s: f64,
    pub build_s: f64,
}

impl TracedSection {
    /// Every per-layer metric, in BENCHMARK.json order, as
    /// `(name, value, unit)`. `untraced_ops_s` is the throughput of the
    /// same run's untraced section, for `trace.overhead`.
    pub fn metrics(&self, untraced_ops_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let table = layer_table(&self.recorders);
        let mut tally = Tally::default();
        for recorder in &self.recorders {
            tally.absorb(&recorder.tally);
        }
        let (before, after) = (&self.before, &self.after);
        // `(total ns, count)` of a layer's spans.
        let spans = |layer| {
            table
                .iter()
                .find(|row| row.layer == layer)
                .map_or((0, 0), |row| (row.total_ns, row.count))
        };
        // Mean milliseconds of a layer per sampled read, and per own span.
        let reads = tally.sampled_reads;
        let ms_per_read = |layer| ratio(spans(layer).0, reads) / 1e6;
        let ms_each = |layer| ratio(spans(layer).0, spans(layer).1) / 1e6;
        use Layer as L;
        let value = |name: &str| -> f64 {
            match name {
                "datagen.generate_s" => self.generate_s,
                "store.build_s" => self.build_s,
                "sparql.parse_ms" => ms_per_read(L::Parse),
                "sparql.canon_ms" => ms_per_read(L::Canon),
                "core.plan_ms" => ms_per_read(L::Plan),
                "baseline.cdp_plan_ms" => ms_each(L::CdpPlan),
                "core.hsp_over_cdp_exec" => ratio(tally.paired_hsp_ns, tally.paired_cdp_ns),
                "engine.lower_ms" => ms_per_read(L::Lower),
                "engine.execute_ms" => ms_per_read(L::Execute),
                "engine.intermediate_rows" => ratio(tally.intermediate_rows, reads),
                "engine.rows_examined_per_result" => {
                    ratio(tally.scan_rows, tally.result_rows.max(1))
                }
                "engine.pool_batches" => (after.pool_batches - before.pool_batches) as f64,
                "engine.pool_cross_query_switches" => {
                    (after.pool_switches - before.pool_switches) as f64
                }
                "store.scan_ms" => ms_per_read(L::Scan),
                "store.scan_rows" => ratio(tally.scan_rows, reads),
                "store.merged_scan_share" => ratio(tally.merged_scans, tally.scans),
                "store.delta_rows" => ratio(tally.delta_rows, tally.delta_samples),
                "store.compactions" => (after.compactions - before.compactions) as f64,
                "store.compact_ms" => ms_each(L::Compact),
                "session.query_ms" => ratio(tally.sampled_query_ns, reads) / 1e6,
                "session.self_ms" => ratio(tally.self_ns, reads) / 1e6,
                "cache.plan_hit_rate" => {
                    let hits = after.plan_hits - before.plan_hits;
                    ratio(hits, hits + after.plan_misses - before.plan_misses)
                }
                "cache.result_hit_rate" => {
                    let hits = after.result_hits - before.result_hits;
                    ratio(hits, hits + after.result_misses - before.result_misses)
                }
                "cache.invalidations" => (after.invalidations - before.invalidations) as f64,
                "cache.result_bytes" => after.result_bytes as f64,
                "results.render_ms" => ms_each(L::Render),
                "results.bytes_out" => ratio(tally.bytes_out, spans(L::Render).1),
                "serve.wire_ms" if tally.mirrored_reads > 0 => {
                    tally.wire_ns as f64 / tally.mirrored_reads as f64 / 1e6
                }
                "serve.wire_ms" => 0.0,
                "serve.frame_ms" => ms_each(L::Frame),
                "serve.rejected" => (after.rejected - before.rejected) as f64,
                "serve.errors" => (after.errors - before.errors) as f64,
                "update.apply_ms" => ms_each(L::UpdateApply),
                "session.update_ms" => ms_each(L::SessionUpdate),
                "session.publish_ms" => ratio(tally.publish_ns, spans(L::UpdateApply).1) / 1e6,
                "client.write_p50_ms" => self.summary.write_p50_ms.unwrap_or(0.0),
                "client.write_p95_ms" => self.summary.write_p95_ms.unwrap_or(0.0),
                "trace.ops" => self.summary.attempted as f64,
                "trace.overhead" => self.summary.throughput_ops_s / untraced_ops_s,
                other => unreachable!("no measurement for per-layer metric {other}"),
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, value(name), unit))
            .collect()
    }

    /// The per-layer table and every span, for `out/trace.json`.
    pub fn to_json(&self, workload: &str) -> Json {
        let layers = layer_table(&self.recorders)
            .iter()
            .map(|row| {
                Json::obj([
                    ("name", Json::str(row.layer.name())),
                    ("count", Json::Int(row.count)),
                    ("total_ms", Json::Num(row.total_ns as f64 / 1e6)),
                    ("self_ms", Json::Num(row.self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        let columns = ["client", "parent", "request", "name", "start_ns", "end_ns"];
        let spans = self
            .recorders
            .iter()
            .enumerate()
            .flat_map(|(client, recorder)| {
                recorder.spans.iter().map(move |span| {
                    Json::Arr(vec![
                        Json::Int(client as u64),
                        match span.parent {
                            u32::MAX => Json::Null,
                            parent => Json::Int(u64::from(parent)),
                        },
                        Json::Int(u64::from(span.request)),
                        Json::str(span.layer.name()),
                        Json::Int(span.start_ns),
                        Json::Int(span.end_ns),
                    ])
                })
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("layers", Json::Arr(layers)),
            ("span_columns", Json::Arr(columns.map(Json::str).to_vec())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(seed: u64, sample_every: usize) -> ClientTrace {
        ClientTrace {
            epoch: Instant::now(),
            seed,
            client: 0,
            sample_every,
            threads: None,
            cache_off: false,
            sessions: Vec::new(),
            shadow: None,
            recording: true,
            spans: Vec::new(),
            tally: Tally::default(),
            root: u32::MAX,
            pre_write: None,
            sampled_writes: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let span = |parent, layer, start_ns, end_ns| Span {
            parent,
            request: 0,
            layer,
            start_ns,
            end_ns,
        };
        let mut trace = recorder(0, 1);
        trace.spans = vec![
            span(u32::MAX, Layer::Request, 0, 100),
            span(0, Layer::ClientOp, 0, 60),
            span(0, Layer::Execute, 60, 90),
        ];
        let table = layer_table(&[trace]);
        let request = table.iter().find(|r| r.layer == Layer::Request).unwrap();
        assert_eq!(
            (request.count, request.total_ns, request.self_ns),
            (1, 100, 10)
        );
        let execute = table.iter().find(|r| r.layer == Layer::Execute).unwrap();
        assert_eq!((execute.total_ns, execute.self_ns), (30, 30));
    }

    #[test]
    fn sampling_is_seeded_and_about_one_in_k() {
        let picks = |seed| {
            let trace = recorder(seed, 8);
            (0..8_000).filter(|&i| trace.sampled(i)).collect::<Vec<_>>()
        };
        assert_eq!(picks(1), picks(1));
        assert_ne!(picks(1), picks(2));
        let n = picks(1).len();
        assert!((800..1_200).contains(&n), "{n}");
    }
}
