//! The traced run's in-process half: the workload's frames replayed
//! through the public functions of each layer, every call timed from
//! the benchmark's own code — nothing inside the program is changed.
//!
//! Projection and inference are separated by a [`Timed`] transfer
//! function wrapped around each model slot and registered with
//! [`sigserve::ModelRegistry::insert`]: the slot keeps its trained
//! network and region, the wrapper runs [`GateModel::prepare_batch`]
//! (the `sigtom::region` projection) and then
//! [`TransferFunction::predict_batch`] (the `signn` MLPs), timing each.
//! Replies stay byte-identical to the golden, which the replay checks.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use sigcircuit::GateKind;
use sigserve::registry::DelaySource;
use sigserve::{
    decode_request, encode_response, CircuitSource, ModelRegistry, ModelSet, Request, Service,
    ServiceConfig, SessionTable,
};
use sigsim::{CellModels, CircuitProgram};
use sigtom::{GateModel, TransferFunction, TransferPrediction, TransferQuery};

use crate::client::{check, strip_timings};
use crate::daemon::WORKERS;
use crate::stats;
use crate::workload::{build_circuit, ConnPlan, Frame, Plan, LIBRARY, MODELS};

/// Counters shared by every [`Timed`] slot.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    rows: AtomicU64,
    moved: AtomicU64,
    project_ns: AtomicU64,
    infer_ns: AtomicU64,
}

/// A snapshot of a [`Probe`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ProbeCounts {
    /// `predict`/`predict_batch` calls.
    pub calls: u64,
    /// Queries (= inference rows).
    pub rows: u64,
    /// Queries the valid-region projection moved.
    pub moved: u64,
    /// Nanoseconds in projection.
    pub project_ns: u64,
    /// Nanoseconds in inference.
    pub infer_ns: u64,
}

impl Probe {
    fn record(&self, rows: usize, moved: usize, project: Duration, infer: Duration) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows as u64, Ordering::Relaxed);
        self.moved.fetch_add(moved as u64, Ordering::Relaxed);
        self.project_ns.fetch_add(ns(project), Ordering::Relaxed);
        self.infer_ns.fetch_add(ns(infer), Ordering::Relaxed);
    }

    /// The counters so far.
    #[must_use]
    pub fn snapshot(&self) -> ProbeCounts {
        ProbeCounts {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            moved: self.moved.load(Ordering::Relaxed),
            project_ns: self.project_ns.load(Ordering::Relaxed),
            infer_ns: self.infer_ns.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static PROJECTED: RefCell<Vec<TransferQuery>> = const { RefCell::new(Vec::new()) };
}

/// A slot's transfer function with projection moved inside it, timed.
/// The engine hands it clamped queries (the wrapped slot has no region of
/// its own); clamping is idempotent, so projecting here yields the exact
/// queries the unwrapped slot would have predicted.
struct Timed {
    inner: Arc<dyn TransferFunction + Send + Sync>,
    /// The original slot: its `prepare_batch` is the projection.
    original: GateModel,
    probe: Arc<Probe>,
}

impl TransferFunction for Timed {
    fn predict(&self, query: TransferQuery) -> TransferPrediction {
        let mut q = [query];
        let t0 = Instant::now();
        self.original.prepare_batch(&mut q);
        let t1 = Instant::now();
        let prediction = self.inner.predict(q[0]);
        let t2 = Instant::now();
        self.probe
            .record(1, usize::from(q[0] != query), t1 - t0, t2 - t1);
        prediction
    }

    fn predict_batch(&self, queries: &[TransferQuery], out: &mut Vec<TransferPrediction>) {
        PROJECTED.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            buf.extend_from_slice(queries);
            let t0 = Instant::now();
            self.original.prepare_batch(&mut buf);
            let t1 = Instant::now();
            self.inner.predict_batch(&buf, out);
            let t2 = Instant::now();
            let moved = buf.iter().zip(queries).filter(|(a, b)| a != b).count();
            self.probe.record(queries.len(), moved, t1 - t0, t2 - t1);
        });
    }

    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
}

/// Every `(kind, arity)` a slot can be bound under; with fan-out classes
/// 1 and 2 this enumerates each binding [`CellModels::slot_for`] resolves.
const SIGNATURES: [(GateKind, usize); 7] = [
    (GateKind::Inv, 1),
    (GateKind::Buf, 1),
    (GateKind::Nor, 1),
    (GateKind::Nor, 2),
    (GateKind::Nand, 2),
    (GateKind::And, 2),
    (GateKind::Or, 2),
];

/// A copy of `set` whose every slot is wrapped in [`Timed`], bound under
/// the same signatures.
#[must_use]
pub fn instrument(set: &ModelSet, probe: &Arc<Probe>) -> ModelSet {
    let mut cells = CellModels::empty(set.cells.name());
    for slot in 0..set.cells.slots() {
        let original = set.cells.by_slot(slot).clone();
        cells.push(GateModel::new(Arc::new(Timed {
            inner: Arc::clone(&original.transfer),
            original,
            probe: Arc::clone(probe),
        })));
    }
    for (kind, arity) in SIGNATURES {
        for fanout in [1, 2] {
            if let Some(slot) = set.cells.slot_for(kind, arity, fanout) {
                cells.bind(slot, kind, arity == 1, fanout >= 2);
            }
        }
    }
    ModelSet {
        name: set.name.clone(),
        library: set.library.clone(),
        policy: set.policy,
        trained: set.trained.clone(),
        cells: Arc::new(cells),
        delays: DelaySource::for_policy(set.policy),
        options: set.options,
    }
}

/// Per-layer figures of the in-process replay (means per replayed frame
/// unless noted).
#[derive(Debug, Default, Clone)]
pub struct Replay {
    /// Frames replayed and timed.
    pub frames: u64,
    /// Frames replayed and golden-checked (warm-up included).
    pub checked: u64,
    /// Replies that differed from their golden.
    pub failed: u64,
    /// The first such difference.
    pub first_failure: Option<String>,
    /// `decode_request` per frame, µs.
    pub decode_us: f64,
    /// `encode_response` per frame, µs.
    pub encode_us: f64,
    /// Circuit build (parse + map) per distinct circuit, ms.
    pub build_ms: f64,
    /// `CircuitProgram::compile` per distinct circuit, ms.
    pub compile_ms: f64,
    /// Cold `ModelRegistry::get_or_load` from disk (median of 3), s.
    pub load_s: f64,
    /// Service resolve phase per frame, ms.
    pub resolve_ms: f64,
    /// Service execute phase per frame, ms.
    pub execute_ms: f64,
    /// Valid-region projection per frame, ms.
    pub project_ms: f64,
    /// MLP inference per frame, ms.
    pub infer_ms: f64,
    /// Transfer queries per frame.
    pub queries_per_req: f64,
    /// Share of queries projection moved.
    pub moved_frac: f64,
    /// Inference rows per `predict_batch` call.
    pub rows_per_call: f64,
    /// Inference ns per row.
    pub ns_per_row: f64,
}

/// Replays `plan` (built with `timings` on) through an in-process
/// [`Service`] with the daemon's worker count, one thread per connection
/// as over the wire, so projection and inference are timed under the
/// same contention. A quarter of `budget` is warm-up (caches fill), then
/// `budget` is measured. Circuit build and compile are timed afterwards,
/// alone, on the circuits the frames name.
///
/// # Errors
///
/// Describes a model load, decode or service failure; golden mismatches
/// are counted in [`Replay::failed`] instead.
pub fn replay(
    plan: &Plan,
    goldens: &[String],
    models_dir: &Path,
    budget: Duration,
) -> Result<Replay, String> {
    let mut loads = Vec::new();
    let mut set = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let loaded = ModelRegistry::new(models_dir)
            .get_or_load(MODELS, LIBRARY)
            .map_err(|e| format!("model load: {e}"))?;
        loads.push(t0.elapsed().as_secs_f64());
        set = Some(loaded);
    }
    let set = set.expect("loaded three times");
    let probe = Arc::new(Probe::default());
    let service = Service::new(ServiceConfig {
        workers: WORKERS,
        models_dir: models_dir.to_path_buf(),
        ..ServiceConfig::default()
    });
    service.registry().insert(instrument(&set, &probe));

    // All threads warm up, then the probe is read between two barriers so
    // no measured frame starts before the snapshot; the same at the end.
    let barrier = Barrier::new(plan.conns.len() + 1);
    let warm_until = Instant::now() + budget / 4;
    let (threads, before, after) = std::thread::scope(|scope| {
        let workers: Vec<_> = plan
            .conns
            .iter()
            .map(|conn| {
                let (service, barrier) = (&service, &barrier);
                scope
                    .spawn(move || replay_conn(service, conn, goldens, warm_until, budget, barrier))
            })
            .collect();
        barrier.wait();
        let before = probe.snapshot();
        barrier.wait();
        barrier.wait();
        let after = probe.snapshot();
        let threads: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("replay thread panicked"))
            .collect();
        (threads, before, after)
    });
    service.drain();

    let mut out = Replay {
        load_s: stats::median(&loads),
        ..Replay::default()
    };
    for t in threads {
        let t = t?;
        out.frames += t.frames;
        out.checked += t.checked;
        out.failed += t.failed;
        if out.first_failure.is_none() {
            out.first_failure = t.first_failure;
        }
        out.decode_us += t.decode_us;
        out.encode_us += t.encode_us;
        out.resolve_ms += t.resolve_ms;
        out.execute_ms += t.execute_ms;
    }
    let n = out.frames as f64;
    let rows = (after.rows - before.rows) as f64;
    out.decode_us /= n;
    out.encode_us /= n;
    out.resolve_ms /= n;
    out.execute_ms /= n;
    out.project_ms = (after.project_ns - before.project_ns) as f64 / 1e6 / n;
    out.infer_ms = (after.infer_ns - before.infer_ns) as f64 / 1e6 / n;
    out.queries_per_req = rows / n;
    out.moved_frac = stats::ratio((after.moved - before.moved) as f64, rows);
    out.rows_per_call = stats::ratio(rows, (after.calls - before.calls) as f64);
    out.ns_per_row = stats::ratio((after.infer_ns - before.infer_ns) as f64, rows);
    (out.build_ms, out.compile_ms) = build_and_compile(
        plan.conns[0].opens.iter().chain(&plan.conns[0].frames),
        &set,
    )?;
    Ok(out)
}

/// Sums over one replay thread's measured frames.
#[derive(Debug, Default)]
struct ThreadSums {
    frames: u64,
    checked: u64,
    failed: u64,
    first_failure: Option<String>,
    decode_us: f64,
    encode_us: f64,
    resolve_ms: f64,
    execute_ms: f64,
}

/// One connection's replay: its own session table, frames in order.
/// Always reaches all three barriers, so an error never strands the
/// other threads.
fn replay_conn(
    service: &Arc<Service>,
    conn: &ConnPlan,
    goldens: &[String],
    warm_until: Instant,
    budget: Duration,
    barrier: &Barrier,
) -> Result<ThreadSums, String> {
    let sessions = SessionTable::new(Arc::clone(service));
    let mut sums = ThreadSums::default();
    let mut id = 0u64;
    let mut run = |frame: &Frame, sums: &mut ThreadSums, timed: bool| -> Result<(), String> {
        id += 1;
        let line = format!("{{\"id\":{id}{}", frame.tail);
        let t0 = Instant::now();
        let request = decode_request(&line).map_err(|e| format!("decode: {e}"))?;
        let decode = t0.elapsed();
        let (tx, rx) = mpsc::channel();
        service.handle_connection_request(request, Some(&sessions), move |r| {
            let _ = tx.send(r);
        });
        let mut response = rx
            .recv_timeout(Duration::from_secs(120))
            .map_err(|e| format!("in-process reply: {e}"))?;
        let phases = strip_timings(&mut response).ok_or("reply without timings")?;
        let t1 = Instant::now();
        let encoded = encode_response(&response);
        let encode = t1.elapsed();
        sums.checked += 1;
        if let Err(e) = check(&encoded, id, &goldens[frame.expect], false) {
            sums.failed += 1;
            sums.first_failure.get_or_insert(e);
        }
        if timed {
            sums.frames += 1;
            sums.decode_us += decode.as_secs_f64() * 1e6;
            sums.encode_us += encode.as_secs_f64() * 1e6;
            sums.resolve_ms += phases.resolve_s * 1e3;
            sums.execute_ms += phases.execute_s * 1e3;
        }
        Ok(())
    };
    let mut k = 0;
    let mut warm = || -> Result<(), String> {
        for open in &conn.opens {
            run(open, &mut sums, false)?;
        }
        while Instant::now() < warm_until {
            run(&conn.frames[k % conn.frames.len()], &mut sums, false)?;
            k += 1;
        }
        Ok(())
    };
    let warmed = warm();
    barrier.wait();
    barrier.wait();
    let end = Instant::now() + budget;
    let measured = warmed.and_then(|()| {
        while Instant::now() < end || sums.frames < 2 {
            run(&conn.frames[k % conn.frames.len()], &mut sums, true)?;
            k += 1;
        }
        Ok(())
    });
    barrier.wait();
    measured.map(|()| sums)
}

/// Mean circuit build (parse + map) and compile times in ms, each timed
/// alone, over up to 32 builds cycling through the distinct circuits the
/// frames name.
fn build_and_compile<'a>(
    frames: impl IntoIterator<Item = &'a Frame>,
    set: &ModelSet,
) -> Result<(f64, f64), String> {
    let mut sources: Vec<CircuitSource> = Vec::new();
    for frame in frames {
        if sources.len() == 32 {
            break;
        }
        match decode_request(&format!("{{\"id\":0{}", frame.tail)) {
            Ok(Request::Sim { sim, .. } | Request::SessionOpen { sim, .. })
                if !sources.contains(&sim.circuit) =>
            {
                sources.push(sim.circuit);
            }
            _ => {}
        }
    }
    let (mut builds, mut compiles) = (Vec::new(), Vec::new());
    for source in sources
        .iter()
        .cycle()
        .take(if sources.is_empty() { 0 } else { 32 })
    {
        let t0 = Instant::now();
        let circuit = build_circuit(source, set.policy)?;
        builds.push(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        CircuitProgram::compile(Arc::new(circuit), Arc::clone(&set.cells), set.options)
            .map_err(|e| format!("compile: {e}"))?;
        compiles.push(t1.elapsed().as_secs_f64() * 1e3);
    }
    Ok((stats::mean(&builds), stats::mean(&compiles)))
}
