//! The three workloads: their sizes, the seeded generation of the base
//! relation, the write-op stream and the read plan, and the oracle model
//! those ops leave behind.
//!
//! Everything here is a pure function of `(workload, seed, seconds)`, so
//! two runs with the same arguments send byte-identical operations and
//! log byte-identical WAL records.

use anno_store::{format_tuple, generate, GeneratorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::Model;
use crate::session::Reps;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Annotation import job: 32 scattered named annotations per op.
    CurateScattered,
    /// Curator UI: read-heavy mix, single-tuple writes.
    BrowseClustered,
    /// Bulk loader: 40 new annotated rows per op, re-mine budget exhausted.
    IngestRemine,
}

/// The fixed make-up of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Tuples in the generated base relation.
    pub base_tuples: usize,
    /// Write ops per second of `--seconds` (the traffic phase is sized
    /// from the op count, never from a timer).
    pub writes_per_second: usize,
    /// Reader requests per write op.
    pub reads_per_write: usize,
    /// Rounds either client may run ahead of the other (see
    /// `session::traffic`): 0 alternates writes and their reads.
    pub lead: usize,
    /// Individual updates per write op.
    pub updates_per_op: usize,
    /// Auto-checkpoint by WAL record count, as a share `(num, den)` of
    /// the traffic's write ops. A share above one half fires exactly once,
    /// leaving the rest of the traffic as the tail recovery replays.
    pub checkpoint_share: Option<(u64, u64)>,
    /// How often the short phases repeat in one run.
    pub reps: Reps,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "curate_scattered" => Some(Workload::CurateScattered),
            "browse_clustered" => Some(Workload::BrowseClustered),
            "ingest_remine" => Some(Workload::IngestRemine),
            _ => None,
        }
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CurateScattered => "curate_scattered",
            Workload::BrowseClustered => "browse_clustered",
            Workload::IngestRemine => "ingest_remine",
        }
    }

    /// Sizes, mixes and policies (see `perfbench/README.md`).
    pub fn spec(self) -> Spec {
        match self {
            Workload::CurateScattered => Spec {
                base_tuples: 30_000,
                writes_per_second: 100,
                // Three reader windows per round, so that most reads queue
                // behind a whole reactor park rather than meet it at a
                // random phase (see README.md).
                reads_per_write: 24,
                lead: 0,
                updates_per_op: 32,
                checkpoint_share: None,
                reps: Reps {
                    setup: 5,
                    restart: 1,
                    catchup: 1,
                },
            },
            Workload::BrowseClustered => Spec {
                base_tuples: 30_000,
                writes_per_second: 60,
                reads_per_write: 50,
                lead: 0,
                updates_per_op: 3,
                checkpoint_share: None,
                reps: Reps {
                    setup: 5,
                    restart: 3,
                    catchup: 3,
                },
            },
            Workload::IngestRemine => Spec {
                base_tuples: 20_000,
                writes_per_second: 50,
                reads_per_write: 4,
                lead: 2,
                updates_per_op: 40,
                checkpoint_share: Some((3, 5)),
                reps: Reps {
                    setup: 5,
                    restart: 1,
                    catchup: 1,
                },
            },
        }
    }
}

/// One client write op, in the benchmark's own terms (the session maps
/// it to an `UpdateOp`; the traced run maps it to crate calls).
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Attach `(tuple id, annotation name)` pairs.
    Annotate(Vec<(u32, String)>),
    /// Detach `(tuple id, annotation name)` pairs that are present.
    Remove(Vec<(u32, String)>),
    /// Insert Fig. 4 rows.
    Insert(Vec<String>),
}

impl WriteOp {
    /// Individual updates the op carries.
    pub fn len(&self) -> usize {
        match self {
            WriteOp::Annotate(v) | WriteOp::Remove(v) => v.len(),
            WriteOp::Insert(v) => v.len(),
        }
    }
}

/// Everything a session sends, plus the model it must end in.
pub struct Inputs {
    /// The base relation as Fig. 4 rows, tuple id = index.
    pub base_rows: Vec<String>,
    /// The write-op stream, in order.
    pub writes: Vec<WriteOp>,
    /// The reader's protocol lines (dataset name as `{ds}`), in order.
    pub reads: Vec<String>,
    /// Base + every write: what every served view must equal.
    pub model: Model,
    /// Tuple ids whose `recommend` replies the oracle checks.
    pub probe_tids: Vec<u32>,
}

/// Placeholder the session replaces with the dataset's name.
pub const DS: &str = "{ds}";

/// Generate a workload's inputs.
pub fn generate_inputs(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let spec = workload.spec();
    let base_rows = generated_rows(spec.base_tuples, seed);
    let mut model = Model::default();
    for row in &base_rows {
        model.insert_row(row);
    }
    let ops = spec.writes_per_second * seconds.max(1) as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0057_0A7E_5EED);
    let writes = match workload {
        Workload::CurateScattered => curate_ops(&mut model, &mut rng, ops, spec.updates_per_op),
        Workload::BrowseClustered => browse_ops(&mut model, &mut rng, ops, spec.updates_per_op),
        Workload::IngestRemine => ingest_ops(&mut model, seed, ops, spec.updates_per_op),
    };
    let reads = read_plan(workload, &mut rng, ops * spec.reads_per_write, spec);
    let probe_tids = (0..64)
        .map(|_| rng.gen_range(0..spec.base_tuples as u32))
        .collect();
    Inputs {
        base_rows,
        writes,
        reads,
        model,
        probe_tids,
    }
}

/// `count` rows from the paper-scale generator under `seed`.
fn generated_rows(count: usize, seed: u64) -> Vec<String> {
    let synthetic = generate(&GeneratorConfig {
        tuples: count,
        ..GeneratorConfig::paper_scale(seed)
    });
    let rel = &synthetic.relation;
    rel.iter()
        .map(|(_, tuple)| format_tuple(rel.vocab(), tuple))
        .collect()
}

/// Annotation names the generator uses (`Annot_1..12`, `Noise_0..15`).
fn annotation_pool() -> Vec<String> {
    let mut pool: Vec<String> = (1..=12).map(|i| format!("Annot_{i}")).collect();
    pool.extend((0..16).map(|i| format!("Noise_{i}")));
    pool
}

/// `curate_scattered`: 32 absent (tuple, name) pairs on uniformly random
/// tuples per op; every eighth op instead removes 32 present pairs.
fn curate_ops(model: &mut Model, rng: &mut StdRng, ops: usize, per_op: usize) -> Vec<WriteOp> {
    let pool = annotation_pool();
    let tuples = model.len() as u32;
    (0..ops)
        .map(|i| {
            let mut pairs: Vec<(u32, String)> = Vec::with_capacity(per_op);
            if i % 8 == 7 {
                while pairs.len() < per_op {
                    let tid = rng.gen_range(0..tuples);
                    let present = model.annotations_of(tid);
                    if present.is_empty() {
                        continue;
                    }
                    let name = present[rng.gen_range(0..present.len())].clone();
                    if model.remove(tid, &name) {
                        pairs.push((tid, name));
                    }
                }
                WriteOp::Remove(pairs)
            } else {
                while pairs.len() < per_op {
                    let tid = rng.gen_range(0..tuples);
                    let name = &pool[rng.gen_range(0..pool.len())];
                    if model.annotate(tid, name) {
                        pairs.push((tid, name.clone()));
                    }
                }
                WriteOp::Annotate(pairs)
            }
        })
        .collect()
}

/// `browse_clustered`: each op annotates one tuple with a few names.
fn browse_ops(model: &mut Model, rng: &mut StdRng, ops: usize, per_op: usize) -> Vec<WriteOp> {
    let pool = annotation_pool();
    let tuples = model.len() as u32;
    (0..ops)
        .map(|_| loop {
            let tid = rng.gen_range(0..tuples);
            let mut pairs: Vec<(u32, String)> = Vec::with_capacity(per_op);
            for _ in 0..pool.len() * 4 {
                if pairs.len() == per_op {
                    break;
                }
                let name = &pool[rng.gen_range(0..pool.len())];
                if model.annotate(tid, name) {
                    pairs.push((tid, name.clone()));
                }
            }
            if !pairs.is_empty() {
                break WriteOp::Annotate(pairs);
            }
        })
        .collect()
}

/// `ingest_remine`: rows from the same generator under another seed, 40
/// per op; every sixteenth row carries a never-seen annotation name.
fn ingest_ops(model: &mut Model, seed: u64, ops: usize, per_op: usize) -> Vec<WriteOp> {
    let rows = generated_rows(
        ops * per_op,
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1D6E,
    );
    let mut fresh = 0usize;
    let rows: Vec<String> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            if i % 16 == 15 {
                fresh += 1;
                format!("{row} Fresh_{fresh}")
            } else {
                row
            }
        })
        .collect();
    rows.chunks(per_op)
        .map(|chunk| {
            for row in chunk {
                model.insert_row(row);
            }
            WriteOp::Insert(chunk.to_vec())
        })
        .collect()
}

/// The reader's fixed request mix, cycled; tuple ids and items drawn from
/// the seeded RNG over tuples every run keeps live.
fn read_plan(workload: Workload, rng: &mut StdRng, count: usize, spec: Spec) -> Vec<String> {
    let tuples = spec.base_tuples as u32;
    let data_items: Vec<String> = (0..24).map(|i| i.to_string()).collect();
    let cycle: &[&str] = match workload {
        // Recommend-heavy with one listing each: six times per write on
        // `curate_scattered`, once on `ingest_remine`.
        Workload::CurateScattered | Workload::IngestRemine => {
            &["recommend", "rules_contains", "recommend", "discover"]
        }
        // The curator UI: mostly per-tuple recommendations, with rule
        // browsing and the correlation panel.
        Workload::BrowseClustered => &[
            "recommend",
            "recommend",
            "rules_contains",
            "recommend",
            "discover",
            "recommend",
            "rules_top",
            "recommend",
            "recommend",
            "rules_contains",
        ],
    };
    (0..count)
        .map(|i| match cycle[i % cycle.len()] {
            "recommend" => format!("recommend {DS} tuple {} top 10", rng.gen_range(0..tuples)),
            "rules_contains" => format!(
                "rules {DS} contains {} top 20",
                data_items[rng.gen_range(0..data_items.len())]
            ),
            "rules_top" => format!("rules {DS} by conf top 20"),
            _ => format!("discover {DS} top=16"),
        })
        .collect()
}
