//! One end-to-end session against an in-process `anno_service::Service`:
//! set-up (generate, open durable, load, mine) → concurrent writer and
//! reader traffic → clean restart → fresh follower catch-up, with the
//! oracle run after traffic, after the restart and on the follower.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use anno_service::queue::UpdateOp;
use anno_service::{
    CheckpointPolicy, Dataset, DurabilityOptions, Service, ServiceConfig, SyncPolicy, WalOptions,
};
use anno_store::TupleId;

use crate::client::Client;
use crate::oracle;
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workload::{generate_inputs, Inputs, Spec, Workload, WriteOp, DS};

/// Minimum support α every dataset is opened with.
pub const ALPHA: f64 = 0.35;
/// Minimum confidence β.
pub const BETA: f64 = 0.8;
/// Retention factor: the miner keeps itemsets down to `RETENTION · α`
/// support. With the paper-scale generator, supports cluster at 0.45,
/// 0.405, 0.36 (planted patterns and rules) and 0.20, 0.18, 0.16 (pairs of
/// independent patterns); a cut at 0.28 sits clear of every cluster, so
/// the initial mine finds the same 88 itemsets for every seed (seeds 1–10
/// at 20k, 30k and 60k tuples). The protocol defaults (α 0.4, retention
/// 0.5) cut at 0.20, inside a cluster: at 30k tuples the initial table
/// then held 475–673 itemsets over the same seeds, and a full mine took
/// 1.6–2.3 s.
pub const RETENTION: f64 = 0.8;

/// Dataset name of the leader.
const LEADER: &str = "bench";
/// Reader requests kept in flight on its connection.
const WINDOW: usize = 8;

/// The end-to-end figures of one session.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub mine_s: f64,
    pub updates_per_s: f64,
    pub ack_p50_ms: f64,
    pub ack_p90_ms: f64,
    pub query_p50_ms: f64,
    pub queries_per_s: f64,
    pub recover_s: f64,
    pub catchup_s: f64,
    pub peak_rss_mb: f64,
    pub wal_bytes_per_update: f64,
}

/// What the program itself exports about the traffic phase, read for
/// the per-layer report.
#[derive(Debug, Clone, Default)]
pub struct Exported {
    /// Writer drain-latency histogram median, nanoseconds.
    pub drain_p50_ns: u64,
    /// Drains taken during traffic.
    pub drains: u64,
    /// WAL records appended during traffic.
    pub wal_records: u64,
    /// WAL bytes appended during traffic.
    pub wal_bytes: u64,
    /// Group-commit fsyncs during traffic.
    pub fsyncs: u64,
    /// Median group-commit fsync latency, nanoseconds.
    pub fsync_p50_ns: u64,
    /// Name-cache hits and misses during traffic.
    pub name_cache: (u64, u64),
    /// Admission sheds during traffic.
    pub admission_sheds: u64,
    /// Mean `Engine::execute_typed` time of a reader request, in process,
    /// microseconds.
    pub protocol_us_per_read: f64,
    /// Median round trip of one in-flight `ping`, milliseconds.
    pub ping_ms: f64,
    /// Payload bytes of a checkpoint taken at the end of the session.
    pub checkpoint_bytes: u64,
    /// Opening the stopped log directory (`Wal::open`), milliseconds.
    pub wal_open_ms: f64,
    /// Reading the whole log with a fresh `TailCursor`, milliseconds.
    pub tail_read_ms: f64,
}

/// A finished session.
pub struct Outcome {
    pub e2e: EndToEnd,
    pub exported: Exported,
    /// Client operations attempted (writes + reads).
    pub attempted: u64,
    /// Client operations that failed.
    pub failed: u64,
    /// Oracle failures, `stage/check: message`.
    pub failures: Vec<String>,
    /// The inputs, for the traced replay.
    pub inputs: Inputs,
}

/// How many times each short phase is repeated in one run.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    pub setup: usize,
    pub restart: usize,
    pub catchup: usize,
}

fn durability(service: &Service, spec: &Spec, writes: usize) -> DurabilityOptions {
    let writes = writes as u64;
    DurabilityOptions {
        wal: WalOptions {
            sync: SyncPolicy::Grouped(service.group_committer()),
            ..WalOptions::default()
        },
        auto_checkpoint: CheckpointPolicy {
            replayed_records: spec.checkpoint_share.map(|(num, den)| writes * num / den),
            ..CheckpointPolicy::default()
        },
        ..DurabilityOptions::default()
    }
}

/// The mining configuration of every dataset the benchmark opens.
pub fn config() -> ServiceConfig {
    ServiceConfig {
        thresholds: anno_mine::Thresholds::new(ALPHA, BETA),
        retention: RETENTION,
    }
}

fn err(stage: &str) -> impl Fn(anno_service::ServiceError) -> String + '_ {
    move |e| format!("{stage}: {e}")
}

/// The client op as the service's queued mutation.
pub fn update_op(op: &WriteOp) -> UpdateOp {
    let pairs = |v: &[(u32, String)]| v.iter().map(|(t, n)| (TupleId(*t), n.clone())).collect();
    match op {
        WriteOp::Annotate(v) => UpdateOp::AnnotateNamed(pairs(v)),
        WriteOp::Remove(v) => UpdateOp::RemoveNamed(pairs(v)),
        WriteOp::Insert(rows) => UpdateOp::InsertRows(rows.clone()),
    }
}

/// Run one session in `work` (created fresh, removed at the end).
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    reps: Reps,
    traced: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let spec = workload.spec();
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let service = Arc::new(Service::new());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let server = Arc::clone(&service);
    std::thread::Builder::new()
        .name("bench-accept".into())
        .spawn(move || anno_service::server::serve_listener(server, listener))
        .map_err(|e| format!("spawn server: {e}"))?;

    // ---- set-up, repeated; the last repetition's dataset is served ----
    let mut setup_s = Vec::new();
    let mut mine_s = Vec::new();
    let mut prepared = None;
    for rep in 0..reps.setup {
        let dir = work.join(format!("leader-{rep}"));
        let t0 = Instant::now();
        let inputs = generate_inputs(workload, seed, seconds);
        let ds = service
            .open_durable_with(
                LEADER,
                config(),
                &dir,
                durability(&service, &spec, inputs.writes.len()),
            )
            .map_err(err("open"))?;
        ds.enqueue(UpdateOp::InsertRows(inputs.base_rows.clone()))
            .map_err(err("load"))?;
        ds.flush().map_err(err("load"))?;
        let tm = Instant::now();
        ds.mine().map_err(err("mine"))?;
        mine_s.push(tm.elapsed().as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps.setup {
            // Directories are removed when the session ends, so no unlink
            // runs while a later phase is timed.
            service.remove(LEADER).map_err(err("drop"))?;
            drop(ds);
        } else {
            prepared = Some((ds, inputs, dir));
        }
    }
    let (ds, inputs, dir) = prepared.ok_or("no set-up repetition ran")?;

    // ---- traffic ----
    let wal_before = ds.wal_stats().ok_or("leader is not durable")?;
    let drains_before = ds.drains();
    let syncs_before = service.committer_stats().map_or(0, |s| s.syncs);
    let traffic = traffic(&ds, addr, &inputs, &spec)?;
    let wal_after = ds.wal_stats().ok_or("leader is not durable")?;
    let mut exported = Exported {
        drain_p50_ns: ds.observability().drain_latency.quantile(0.5),
        drains: ds.drains() - drains_before,
        wal_records: wal_after.appends - wal_before.appends,
        wal_bytes: wal_after.appended_bytes - wal_before.appended_bytes,
        fsyncs: service.committer_stats().map_or(0, |s| s.syncs) - syncs_before,
        fsync_p50_ns: service.fsync_latency().quantile(0.5),
        name_cache: {
            let m = ds.metrics();
            (m.name_cache_hits, m.name_cache_misses)
        },
        admission_sheds: ds.metrics().admission_shed,
        ..Exported::default()
    };
    let updates: usize = inputs.writes.iter().map(WriteOp::len).sum();
    eprintln!(
        "perfbench: {} seed={seed} ops={} updates={updates} reads={} drains={} wal_records={} wal_bytes={}",
        workload.name(),
        inputs.writes.len(),
        inputs.reads.len(),
        exported.drains,
        exported.wal_records,
        exported.wal_bytes,
    );

    let mut failures = Vec::new();
    let mut oracle_client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut verify =
        |stage: &str, ds: &Dataset, name: &str, client: &mut Client| match oracle::capture(
            ds,
            client,
            name,
            &inputs.probe_tids,
        ) {
            Ok(view) => {
                for (check, msg) in oracle::check(&view, &inputs.model, ALPHA, BETA) {
                    failures.push(format!("{stage}/{check}: {msg}"));
                }
            }
            Err(e) => failures.push(format!("{stage}/capture: {e}")),
        };
    verify("after_traffic", &ds, LEADER, &mut oracle_client);

    if traced {
        let mut rtts = Vec::with_capacity(200);
        for _ in 0..200 {
            let t = Instant::now();
            let reply = oracle_client
                .call("ping", false)
                .map_err(|e| e.to_string())?;
            rtts.push(t.elapsed().as_secs_f64() * 1e3);
            if reply.header != "OK pong" {
                return Err(format!("ping: {}", reply.header));
            }
        }
        exported.ping_ms = median(&mut rtts);
    }

    // ---- clean restart, repeated ----
    let epoch = ds.snapshot().map_err(err("snapshot"))?.relation_epoch();
    let mut ds = ds;
    let mut recover_s = Vec::new();
    for _ in 0..reps.restart {
        let t0 = Instant::now();
        service.remove(LEADER).map_err(err("shutdown"))?;
        drop(ds);
        ds = service
            .open_durable_with(
                LEADER,
                config(),
                &dir,
                durability(&service, &spec, inputs.writes.len()),
            )
            .map_err(err("reopen"))?;
        let served = ds.snapshot().map_err(err("reopen"))?.relation_epoch();
        recover_s.push(t0.elapsed().as_secs_f64());
        if served != epoch {
            return Err(format!(
                "recovered relation epoch {served}, expected {epoch}"
            ));
        }
    }
    verify("after_restart", &ds, LEADER, &mut oracle_client);

    // ---- fresh follower catch-up, repeated ----
    let mut catchup_s = Vec::new();
    for rep in 0..reps.catchup {
        let name = format!("follower-{rep}");
        let t0 = Instant::now();
        let follower = service
            .attach_follower(&name, config(), &dir, Duration::from_secs(3600))
            .map_err(err("attach"))?;
        follower.catchup_now().map_err(err("catchup"))?;
        let served = follower
            .snapshot()
            .map_err(err("catchup"))?
            .relation_epoch();
        catchup_s.push(t0.elapsed().as_secs_f64());
        if served != epoch {
            return Err(format!(
                "follower serves relation epoch {served}, expected {epoch}"
            ));
        }
        if rep + 1 == reps.catchup {
            verify("follower", &follower, &name, &mut oracle_client);
        }
        service.remove(&name).map_err(err("detach"))?;
    }

    if traced {
        let engine = anno_service::Engine::new(Arc::clone(&service));
        let lines: Vec<String> = inputs
            .reads
            .iter()
            .take(2000)
            .map(|line| line.replace(DS, LEADER))
            .collect();
        let t = Instant::now();
        for line in &lines {
            let (reply, error) = engine.execute_typed(line);
            if let Some(e) = error {
                return Err(format!("{line}: {e}"));
            }
            drop(reply);
        }
        exported.protocol_us_per_read = t.elapsed().as_secs_f64() * 1e6 / lines.len().max(1) as f64;
    }
    let rss = peak_rss_mb();
    service.remove(LEADER).map_err(err("shutdown"))?;
    drop(ds);
    if traced {
        // The log as the session left it, read raw: opened by a writer,
        // then tailed by a fresh cursor.
        let t = Instant::now();
        let opened = anno_wal::Wal::open(&dir, WalOptions::default()).map_err(|e| e.to_string())?;
        exported.wal_open_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(opened);
        let t = Instant::now();
        let mut cursor = anno_wal::TailCursor::new(&dir);
        while cursor.poll().map_err(|e| e.to_string())?.bytes_behind > 0 {}
        exported.tail_read_ms = t.elapsed().as_secs_f64() * 1e3;
        // Then the size of a checkpoint of the final state.
        let ds = service
            .open_durable_with(
                LEADER,
                config(),
                &dir,
                durability(&service, &spec, inputs.writes.len()),
            )
            .map_err(err("reopen"))?;
        let (_, bytes) = ds.checkpoint().map_err(err("checkpoint"))?;
        exported.checkpoint_bytes = bytes as u64;
        service.remove(LEADER).map_err(err("shutdown"))?;
    }
    let _ = std::fs::remove_dir_all(work);

    let e2e = EndToEnd {
        setup_s: median(&mut setup_s),
        mine_s: median(&mut mine_s),
        updates_per_s: updates as f64 / traffic.elapsed_s,
        ack_p50_ms: percentile(&traffic.ack_ms, 0.5),
        ack_p90_ms: percentile(&traffic.ack_ms, 0.9),
        query_p50_ms: percentile(&traffic.query_ms, 0.5),
        queries_per_s: traffic.query_ms.len() as f64 / traffic.elapsed_s,
        recover_s: median(&mut recover_s),
        catchup_s: median(&mut catchup_s),
        peak_rss_mb: rss,
        wal_bytes_per_update: exported.wal_bytes as f64 / updates.max(1) as f64,
    };
    Ok(Outcome {
        e2e,
        exported,
        attempted: (inputs.writes.len() + inputs.reads.len()) as u64,
        failed: traffic.failed,
        failures,
        inputs,
    })
}

/// Raw figures of the traffic phase.
struct Traffic {
    elapsed_s: f64,
    ack_ms: Vec<f64>,
    query_ms: Vec<f64>,
    failed: u64,
}

/// How far each client has got; the two pace each other through it.
#[derive(Default)]
struct Pace {
    writes_done: usize,
    reads_done: usize,
    /// Set when either client fails, so the other stops waiting.
    aborted: bool,
}

/// The writer and reader clients, one thread each, pacing each other by
/// operation count. Round `k` is write `k` and reads `k·R .. (k+1)·R`
/// (`R` = reads per write). With lead `L`, the writer starts write `k`
/// once every read of rounds before `k − L` has its reply, and the reader
/// sends reads of round `k` once write `k − L` is acknowledged. `L = 0`
/// alternates each write with its reads; `L = 2` lets the light reader of
/// `ingest_remine` run alongside the writer (`perfbench/README.md` gives
/// the measurements behind each choice). Every run does the same
/// operations in the same order.
fn traffic(
    ds: &Dataset,
    addr: SocketAddr,
    inputs: &Inputs,
    spec: &Spec,
) -> Result<Traffic, String> {
    let reads: Vec<String> = inputs
        .reads
        .iter()
        .map(|line| line.replace(DS, LEADER))
        .collect();
    let pace = (Mutex::new(Pace::default()), Condvar::new());
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A failed client wakes the other, which then gives up too.
    let abort_on_err = |failed: bool| {
        if failed {
            pace.0.lock().expect("pace lock").aborted = true;
            pace.1.notify_all();
        }
    };
    let start = Instant::now();
    let (acks, queries) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let r = write_loop(ds, &inputs.writes, spec, &pace);
            abort_on_err(r.is_err());
            r
        });
        let reader = scope.spawn(|| {
            let r = read_loop(&mut client, &reads, spec, &pace);
            abort_on_err(r.is_err());
            r
        });
        (writer.join(), reader.join())
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let ack_ms = acks.map_err(|_| "writer panicked")??;
    let (query_ms, failed) = queries.map_err(|_| "reader panicked")??;
    Ok(Traffic {
        elapsed_s,
        ack_ms,
        query_ms,
        failed,
    })
}

/// The writer client: one `enqueue` + `flush` per op, timed.
fn write_loop(
    ds: &Dataset,
    writes: &[WriteOp],
    spec: &Spec,
    (lock, cv): &(Mutex<Pace>, Condvar),
) -> Result<Vec<f64>, String> {
    let mut acks = Vec::with_capacity(writes.len());
    for (w, op) in writes.iter().enumerate() {
        {
            let mut p = lock.lock().expect("pace lock");
            while p.reads_done < spec.reads_per_write * w.saturating_sub(spec.lead) {
                if p.aborted {
                    return Err("reader failed".into());
                }
                p = cv.wait(p).expect("pace lock");
            }
        }
        let t = Instant::now();
        ds.enqueue(update_op(op)).map_err(err("enqueue"))?;
        ds.flush().map_err(err("flush"))?;
        acks.push(t.elapsed().as_secs_f64() * 1e3);
        lock.lock().expect("pace lock").writes_done += 1;
        cv.notify_all();
    }
    Ok(acks)
}

/// The reader client: keeps up to `WINDOW` requests in flight on one
/// connection and times each from send to complete reply. Returns the
/// latencies and the number of malformed or `ERR` replies.
fn read_loop(
    client: &mut Client,
    reads: &[String],
    spec: &Spec,
    (lock, cv): &(Mutex<Pace>, Condvar),
) -> Result<(Vec<f64>, u64), String> {
    let per_round = spec.reads_per_write;
    let mut latencies = Vec::with_capacity(reads.len());
    let mut failed = 0u64;
    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(WINDOW);
    let mut next = 0usize;
    while latencies.len() < reads.len() {
        let allowed = {
            let mut p = lock.lock().expect("pace lock");
            loop {
                if p.aborted {
                    return Err("writer failed".into());
                }
                let allowed = (per_round * (p.writes_done + spec.lead)).min(reads.len());
                if allowed > next || !sent_at.is_empty() {
                    break allowed;
                }
                p = cv.wait(p).expect("pace lock");
            }
        };
        while sent_at.len() < WINDOW && next < allowed {
            client
                .send(&reads[next])
                .map_err(|e| format!("send: {e}"))?;
            sent_at.push_back(Instant::now());
            next += 1;
        }
        let reply = client.recv(true).map_err(|e| format!("recv: {e}"))?;
        let sent = sent_at.pop_front().ok_or("reply without a request")?;
        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
        if !reply.ok() || reply.announced() != Some(reply.body.len()) {
            failed += 1;
        }
        lock.lock().expect("pace lock").reads_done += 1;
        cv.notify_all();
    }
    Ok((latencies, failed))
}

/// A fresh per-session work directory under `root`.
pub fn work_dir(root: &Path, workload: Workload, seed: u64) -> PathBuf {
    root.join(format!("{}-{seed}-{}", workload.name(), std::process::id()))
}
