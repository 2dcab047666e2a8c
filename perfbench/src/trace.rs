//! The traced run: per-layer numbers.
//!
//! The session's seeded op stream is replayed through each crate's
//! public functions — the same calls a drain makes — with one span per
//! call (name, start, end, parent, op id) and counts attached at the same
//! boundaries. Spans stay in memory and are written out as JSON lines at
//! the end. The per-layer metrics aggregate those spans and add the
//! counters the program itself exports (read during the session).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use anno_discover::DiscoveryIndex;
use anno_mine::{IncrementalConfig, IncrementalMiner};
use anno_service::{RuleFilter, RuleOrder, RuleSnapshot};
use anno_store::{
    parse_tuple_line, snapshot_from_string, snapshot_to_string, AnnotatedRelation,
    AnnotationUpdate, ItemKind, Tuple, TupleId,
};

use crate::session::{self, Outcome};
use crate::stats::median;
use crate::workload::{Workload, WriteOp};

/// One timed call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
    counts: Vec<(&'static str, f64)>,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name`; returns its result and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            counts: Vec::new(),
        });
        (out, self.spans.len() - 1)
    }

    /// Open a parent span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    fn count(&mut self, span: usize, key: &'static str, value: f64) {
        self.spans[span].counts.push((key, value));
    }

    fn us(&self, span: usize) -> f64 {
        (self.spans[span].end_ns - self.spans[span].start_ns) as f64 / 1e3
    }

    /// Durations of every span called `name`, microseconds.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.us(i))
            .collect()
    }

    fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Values of count `key` over every span.
    fn counts(&self, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .collect()
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"counts\": {{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                counts.join(", ")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Resolve named pairs against `rel`'s vocabulary, interning new names.
fn resolve(rel: &mut AnnotatedRelation, pairs: &[(u32, String)]) -> Vec<AnnotationUpdate> {
    pairs
        .iter()
        .map(|(tid, name)| AnnotationUpdate {
            tuple: TupleId(*tid),
            annotation: match rel.vocab().get(ItemKind::Annotation, name) {
                Some(item) => item,
                None => rel.vocab_mut().annotation(name),
            },
        })
        .collect()
}

fn parse_rows(rel: &mut AnnotatedRelation, rows: &[String]) -> Vec<Tuple> {
    rows.iter()
        .filter_map(|row| parse_tuple_line(rel.vocab_mut(), row))
        .collect()
}

/// Spans of one op that the live writer's drain also runs (the replay's
/// scratch-copy `store.apply` measurement is not one of them).
const DRAIN_WORK: [&str; 7] = [
    "store.parse_rows",
    "mine.apply_annotations",
    "mine.remove_annotations",
    "mine.add_annotated_tuples",
    "discover.refresh",
    "service.snapshot_build",
    "store.reclaim",
];

/// Replay the session's op stream through the layers, write the trace to
/// `traces/<workload>-seed<seed>.jsonl` and return every per-layer
/// metric as `(name, value, unit)`.
pub fn replay(
    workload: Workload,
    outcome: &Outcome,
    traces: &Path,
    seed: u64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let inputs = &outcome.inputs;
    let config: IncrementalConfig = session::config().into();
    let mut t = Tracer::new();

    // Set-up: parse and load the base, full mine, first publish.
    let mut rel = AnnotatedRelation::new("bench");
    let (base, parse) = t.span("store.parse_rows", None, 0, || {
        parse_rows(&mut rel, &inputs.base_rows)
    });
    t.count(parse, "rows", inputs.base_rows.len() as f64);
    rel.extend(base);
    let (mut miner, _) = t.span("mine.mine_initial", None, 0, || {
        IncrementalMiner::mine_initial(&rel, config)
    });
    let remines_at_mine = miner.stats().full_remines;
    miner.take_touches();
    let mut discovery = DiscoveryIndex::rebuilt_from(miner.table());
    let mut published = Arc::new(RuleSnapshot::build("bench", 1, &rel, &miner));

    // One drain per op, as the live writer runs it.
    let mut updates = 0usize;
    let mut rows_parsed = inputs.base_rows.len();
    for (i, op) in inputs.writes.iter().enumerate() {
        let id = i as u64 + 1;
        let root = t.open("drain", id);
        updates += op.len();
        // The store's share: the same mutation replayed on a clone taken
        // before the miner's apply, with the previous snapshot pinned, so
        // copy-on-write copies exactly what the live apply copied. It runs
        // second, on warm caches, so the miner's self time errs high.
        let (scratch, store_span) = match op {
            WriteOp::Annotate(pairs) => {
                let batch = resolve(&mut rel, pairs);
                let mut scratch = rel.clone();
                t.span("mine.apply_annotations", Some(root), id, || {
                    miner.apply_annotations(&mut rel, batch.iter().copied());
                });
                let (_, s) = t.span("store.apply", Some(root), id, || {
                    scratch.apply_annotation_batch(batch);
                });
                (scratch, s)
            }
            WriteOp::Remove(pairs) => {
                let batch = resolve(&mut rel, pairs);
                let mut scratch = rel.clone();
                t.span("mine.remove_annotations", Some(root), id, || {
                    miner.remove_annotations(&mut rel, &batch);
                });
                let (_, s) = t.span("store.apply", Some(root), id, || {
                    for u in &batch {
                        scratch.remove_annotation(u.tuple, u.annotation);
                    }
                });
                (scratch, s)
            }
            WriteOp::Insert(rows) => {
                let (tuples, p) = t.span("store.parse_rows", Some(root), id, || {
                    parse_rows(&mut rel, rows)
                });
                t.count(p, "rows", rows.len() as f64);
                rows_parsed += rows.len();
                let mut scratch = rel.clone();
                let copy = tuples.clone();
                let remines = miner.stats().full_remines;
                let (_, m) = t.span("mine.add_annotated_tuples", Some(root), id, || {
                    miner.add_annotated_tuples(&mut rel, tuples);
                });
                t.count(m, "remines", (miner.stats().full_remines - remines) as f64);
                let (_, s) = t.span("store.apply", Some(root), id, || scratch.extend(copy));
                (scratch, s)
            }
        };
        let copied = scratch.segments().len() - scratch.shared_segments_with(published.relation());
        t.count(store_span, "segments_copied", copied as f64);
        drop(scratch);
        let touches = miner.take_touches();
        t.span("discover.refresh", Some(root), id, || {
            discovery.refresh(miner.table(), &touches)
        });
        let (snap, _) = t.span("service.snapshot_build", Some(root), id, || {
            Arc::new(RuleSnapshot::build("bench", id + 1, &rel, &miner))
        });
        let superseded = std::mem::replace(&mut published, snap);
        t.span("store.reclaim", Some(root), id, || drop(superseded));
        t.close(root);
    }

    // Codecs, each repeated and reported as the median.
    let mut snapshot_codec_ms = Vec::new();
    let mut checkpoint_codec_ms = Vec::new();
    for _ in 0..3 {
        let (text, a) = t.span("store.snapshot_encode", None, 0, || {
            snapshot_to_string(&rel)
        });
        let (decoded, b) = t.span("store.snapshot_decode", None, 0, || {
            snapshot_from_string(&text)
        });
        decoded.map_err(|e| format!("snapshot decode: {e}"))?;
        snapshot_codec_ms.push((t.us(a) + t.us(b)) / 1e3);
        let (text, a) = t.span("mine.checkpoint_encode", None, 0, || {
            miner.checkpoint_to_string()
        });
        let (decoded, b) = t.span("mine.checkpoint_decode", None, 0, || {
            IncrementalMiner::checkpoint_from_string(&text)
        });
        decoded.map_err(|e| format!("checkpoint decode: {e}"))?;
        checkpoint_codec_ms.push((t.us(a) + t.us(b)) / 1e3);
    }

    // Query layer, in process, over the final snapshot: the reader's own
    // request lines, served by the functions the protocol calls.
    let snap = Arc::clone(&published);
    let disc = discovery.snapshot(1, rel.len() as u64, 64, rel.vocab());
    for line in inputs.reads.iter().take(4000) {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            ["recommend", _, "tuple", tid, ..] => {
                let tid = TupleId(tid.parse().map_err(|_| format!("bad read {line:?}"))?);
                let (recs, _) = t.span("service.query", None, 0, || {
                    snap.recommend_for_tuple(tid, 10).map(|r| r.len())
                });
                recs.ok_or_else(|| format!("dead tuple in {line:?}"))?;
            }
            ["rules", _, "contains", item, ..] => {
                let filter = RuleFilter {
                    antecedent: rel.vocab().get(ItemKind::Data, item).into_iter().collect(),
                    top: Some(20),
                    ..RuleFilter::default()
                };
                t.span("service.query", None, 0, || filter.apply(&snap).len());
            }
            ["rules", ..] => {
                let filter = RuleFilter {
                    order: RuleOrder::Confidence,
                    top: Some(20),
                    ..RuleFilter::default()
                };
                t.span("service.query", None, 0, || filter.apply(&snap).len());
            }
            _ => {
                t.span("service.query", None, 0, || {
                    disc.query(16, 0.0, false).len()
                });
            }
        }
    }

    let trace_path = traces.join(format!("{}-seed{seed}.jsonl", workload.name()));
    t.write_jsonl(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    eprintln!("perfbench: trace written to {}", trace_path.display());

    // Aggregate.
    let updates_f = updates.max(1) as f64;
    let store_apply_us = t.total_us("store.apply");
    let maintain_us = t.total_us("mine.apply_annotations")
        + t.total_us("mine.remove_annotations")
        + t.total_us("mine.add_annotated_tuples")
        - store_apply_us;
    let mut drain_work_us: Vec<f64> = t
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "drain")
        .map(|(root, _)| {
            (0..t.spans.len())
                .filter(|&i| {
                    t.spans[i].parent == Some(root) && DRAIN_WORK.contains(&t.spans[i].name)
                })
                .map(|i| t.us(i))
                .sum()
        })
        .collect();
    let ex = &outcome.exported;
    let drain_p50_us = ex.drain_p50_ns as f64 / 1e3;
    let (hits, misses) = ex.name_cache;
    let remines = miner.stats().full_remines - remines_at_mine;
    let mut reclaim = t.durations_us("store.reclaim");
    let mut build = t.durations_us("service.snapshot_build");
    let mut queries = t.durations_us("service.query");
    let metrics = vec![
        (
            "store.apply_us_per_update",
            store_apply_us / updates_f,
            "us",
        ),
        (
            "store.segments_copied_per_drain",
            mean(&t.counts("segments_copied")),
            "count",
        ),
        ("store.reclaim_us_per_drain", median(&mut reclaim), "us"),
        (
            "store.snapshot_codec_ms",
            median(&mut snapshot_codec_ms),
            "ms",
        ),
        (
            "store.parse_us_per_row",
            t.total_us("store.parse_rows") / rows_parsed.max(1) as f64,
            "us",
        ),
        (
            "mine.full_mine_ms",
            t.total_us("mine.mine_initial") / 1e3,
            "ms",
        ),
        ("mine.remines", remines as f64, "count"),
        ("mine.itemsets", miner.table().len() as f64, "count"),
        ("mine.maintain_us_per_update", maintain_us / updates_f, "us"),
        (
            "mine.checkpoint_codec_ms",
            median(&mut checkpoint_codec_ms),
            "ms",
        ),
        (
            "discover.refresh_us_per_drain",
            mean(&t.durations_us("discover.refresh")),
            "us",
        ),
        (
            "discover.pairs_tracked",
            discovery.pairs_tracked() as f64,
            "count",
        ),
        ("service.snapshot_build_us", median(&mut build), "us"),
        ("service.drain_p50_ms", drain_p50_us / 1e3, "ms"),
        (
            "service.drain_unattributed_us",
            drain_p50_us - median(&mut drain_work_us),
            "us",
        ),
        ("service.drains", ex.drains as f64, "count"),
        (
            "service.updates_per_drain",
            updates_f / ex.drains.max(1) as f64,
            "count",
        ),
        ("service.query_us", median(&mut queries), "us"),
        (
            "service.protocol_us_per_read",
            ex.protocol_us_per_read,
            "us",
        ),
        ("service.reactor_ping_ms", ex.ping_ms, "ms"),
        (
            "service.name_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        (
            "service.admission_sheds",
            ex.admission_sheds as f64,
            "count",
        ),
        ("client.updates_per_s", outcome.e2e.updates_per_s, "1/s"),
        ("client.queries_per_s", outcome.e2e.queries_per_s, "1/s"),
        ("client.ack_p50_ms", outcome.e2e.ack_p50_ms, "ms"),
        ("client.ack_p90_ms", outcome.e2e.ack_p90_ms, "ms"),
        ("wal.records", ex.wal_records as f64, "count"),
        ("wal.bytes", ex.wal_bytes as f64, "B"),
        (
            "wal.fsyncs_per_drain",
            ex.fsyncs as f64 / ex.drains.max(1) as f64,
            "count",
        ),
        ("wal.fsync_ms_p50", ex.fsync_p50_ns as f64 / 1e6, "ms"),
        ("wal.open_ms", ex.wal_open_ms, "ms"),
        ("wal.tail_read_ms", ex.tail_read_ms, "ms"),
        ("wal.checkpoint_bytes", ex.checkpoint_bytes as f64, "B"),
    ];
    Ok(metrics
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect())
}
